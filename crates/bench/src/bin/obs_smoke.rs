//! Telemetry smoke test (CI `obs-smoke` step).
//!
//! Two runs of webserve/quick under full protection:
//!
//! 1. **Clean path** (tracing off) — asserts the telemetry layer recorded
//!    nothing, then diffs `virtual_cycles`/`traps` against the committed
//!    `BENCH_interp.json` webserve records: the bench-smoke regression
//!    gate.
//! 2. **Traced** — asserts the traced run's cycle counts are bit-identical
//!    to the clean run (tracing charges no virtual cycles), exports a
//!    Chrome trace, validates its shape, and cross-checks the span ring
//!    against `MonitorStats`: trap spans == traps, cache-hit instants ==
//!    cache-hit counters, and the per-trap phase sum == monitor time
//!    (`trace_cycles - init_cycles`).
//!
//! Exit status is non-zero on any divergence; usage:
//! `obs_smoke [BENCH_interp.json] [OBS_trace.json]`.

use bastion::apps::App;
use bastion::compiler::BastionCompiler;
use bastion::gate;
use bastion::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use bastion::obs;
use bastion::obs::Phase;
use bastion::vm::CostModel;
use bastion::Protection;

fn webserve_quick() -> AppBenchmark {
    run_app_benchmark(
        App::Webserve,
        &Protection::full(),
        &WorkloadSize::quick(),
        &BastionCompiler::new(),
        CostModel::default(),
    )
}

/// The committed bench baseline's webserve records:
/// `(webserve.virtual_cycles, webserve.traps)`.
fn baseline_row(path: &str) -> Result<(f64, f64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records = gate::parse_records(&text).map_err(|e| format!("{path}: {e}"))?;
    gate::value(&records, "webserve.virtual_cycles")
        .zip(gate::value(&records, "webserve.traps"))
        .ok_or(format!("{path}: no webserve.virtual_cycles/traps records"))
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let bench_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_interp.json".to_string());
    let trace_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "OBS_trace.json".to_string());

    // ---- clean path: tracing off ----
    let clean = webserve_quick();
    if obs::event_count() != 0 {
        fail("disabled tracer recorded events on the clean path");
    }
    println!(
        "clean path: cycles={} traps={} trace_cycles={}",
        clean.cycles, clean.traps, clean.trace_cycles
    );
    match baseline_row(&bench_path) {
        Ok((cycles, traps)) => {
            if (clean.cycles as f64, clean.traps as f64) != (cycles, traps) {
                fail(&format!(
                    "clean-path divergence vs {bench_path}: cycles {} vs {}, traps {} vs {}",
                    clean.cycles, cycles, clean.traps, traps
                ));
            }
            println!("bench-smoke: matches {bench_path} webserve row exactly");
        }
        Err(e) => fail(&e),
    }

    // ---- traced run ----
    obs::enable(1 << 17);
    let traced = webserve_quick();
    let events = obs::take_events();
    let metrics = obs::metrics_snapshot();
    obs::disable();
    if (traced.cycles, traced.traps, traced.trace_cycles)
        != (clean.cycles, clean.traps, clean.trace_cycles)
    {
        fail("span tracing perturbed the deterministic clock");
    }
    let stats = traced.monitor.as_ref().unwrap_or_else(|| {
        fail("traced run has no monitor stats");
    });

    let json = obs::chrome_trace_json(&events);
    let shape = match obs::validate_chrome_trace(&json) {
        Ok(s) => s,
        Err(e) => fail(&format!("exported trace invalid: {e}")),
    };
    if shape.trap_spans != stats.traps {
        fail(&format!(
            "trace has {} trap spans but the monitor served {} traps",
            shape.trap_spans, stats.traps
        ));
    }

    // Per-trap phase sums vs MonitorStats: the trap spans partition monitor
    // time exactly — trace_cycles minus one-time monitor initialization.
    let totals = obs::phase_totals(&events);
    let trap_cycles = totals
        .iter()
        .find(|t| t.phase == Phase::Trap)
        .map_or(0, |t| t.cycles);
    let monitor_time = traced.trace_cycles - stats.init_cycles;
    if trap_cycles != monitor_time {
        fail(&format!(
            "trap span sum {trap_cycles} != monitor time {monitor_time} \
             (trace_cycles {} - init {})",
            traced.trace_cycles, stats.init_cycles
        ));
    }
    let instants = |p: Phase| {
        totals
            .iter()
            .find(|t| t.phase == p)
            .map_or(0, |t| t.instants)
    };
    if instants(Phase::CtCacheHit) != stats.ct_cache_hits {
        fail("ct cache-hit instants diverge from MonitorStats");
    }
    if instants(Phase::WalkCacheHit) != stats.walk_cache_hits {
        fail("walk cache-hit instants diverge from MonitorStats");
    }
    // Sketch lane: one verify-latency observation per trap served.
    let verify = metrics.sketch("trap.verify_cycles");
    if verify.map_or(0, |s| s.count) != stats.traps {
        fail("trap.verify_cycles sketch count diverges from traps");
    }

    // Prometheus exposition of the same snapshot must validate: typed
    // families, summary quantile lanes with `_sum`/`_count`.
    let prom = obs::prometheus_text(&metrics, &[("app", "webserve")]);
    let prom_shape = match obs::validate_prometheus(&prom) {
        Ok(s) => s,
        Err(e) => fail(&format!("Prometheus exposition invalid: {e}")),
    };
    if prom_shape.summaries == 0 {
        fail("Prometheus exposition exports no summary (sketch) family");
    }

    std::fs::write(&trace_path, &json).unwrap_or_else(|e| fail(&format!("{trace_path}: {e}")));
    println!(
        "traced: {} events, {} trap spans, depth {}; trap time {} == trace_cycles {} - init {}",
        shape.events,
        shape.trap_spans,
        shape.max_depth,
        trap_cycles,
        traced.trace_cycles,
        stats.init_cycles
    );
    println!("trace written to {trace_path}");
    println!("obs-smoke OK");
}
