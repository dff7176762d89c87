//! # bastion-bench
//!
//! Host-time benchmarks and baseline gates of the simulator itself: the
//! `interp_bench`, `perf_gate`, `fleet_bench` and `serve_bench` binaries
//! write and check the `BENCH_*.json` record lists, and `cargo bench`
//! runs the criterion benches. The paper's tables and figures are not
//! here: `bastion paper <name>` prints each one (`bastion::paper`).
