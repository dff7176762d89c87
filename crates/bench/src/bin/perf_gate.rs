//! Perf-regression gate (CI `obs-overhead-smoke` step).
//!
//! Re-measures the hot paths the checked-in baselines pin down and diffs
//! them through `bastion::gate`:
//!
//! * per-app deterministic columns (`virtual_cycles`, `traps`) vs the
//!   `BENCH_interp.json` rows — **exact**, any drift fails;
//! * per-app `steady_cycles_per_trap` — one-sided 2% band;
//! * telemetry transparency — a sketch-recording run must reproduce the
//!   clean run's cycle counts bit-for-bit (observability charges zero
//!   virtual cycles), under both the Table 1 scope and the §11.2
//!   filesystem-extended scope;
//! * sketch accuracy — the `trap.verify_cycles` p99 must land within 2%
//!   of the exact p99 recomputed from the per-trap span durations;
//! * fleet determinism — the Table 6 catalog renders byte-identically on
//!   1 and 2 workers, matching the `BENCH_fleet.json` flag.
//!
//! Writes the full check table plus per-app/per-scope verify-latency
//! percentiles to `BENCH_obs.json` and exits non-zero if any check
//! fails. Wall-clock telemetry overhead is *reported*, never gated —
//! shared-CI wall time is noise. Usage:
//! `perf_gate [BENCH_interp.json] [BENCH_fleet.json] [BENCH_obs.json]`.

use bastion::apps::App;
use bastion::compiler::BastionCompiler;
use bastion::gate::{self, GateReport};
use bastion::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use bastion::obs::sketch::exact_quantile;
use bastion::obs::{self, EventKind, Phase, TraceEvent};
use bastion::vm::CostModel;
use bastion::{attacks, fleet, Protection};
use serde::Serialize;
use std::time::Instant;

/// One measured lane of `BENCH_obs.json`: an app under one sensitive
/// scope, with sketch and exact verify-latency percentiles side by side.
#[derive(Debug, Serialize)]
struct ScopeRow {
    app: String,
    /// `table1` (default sensitive set) or `extended` (§11.2 filesystem
    /// scope, two-tier).
    scope: String,
    virtual_cycles: u64,
    traps: u64,
    /// Observations in the `trap.verify_cycles` sketch (== traps).
    sketch_count: u64,
    verify_p50: u64,
    verify_p95: u64,
    verify_p99: u64,
    verify_p999: u64,
    /// Exact percentiles from the per-trap span durations.
    exact_p50: u64,
    exact_p95: u64,
    exact_p99: u64,
    /// |sketch p99 - exact p99| / exact p99, percent.
    sketch_p99_rel_err_pct: f64,
    /// Wall-clock cost of running with telemetry on vs off (diagnostic
    /// only — never gated).
    telemetry_wall_overhead_pct: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: String,
    /// Every gate comparison, pass or fail.
    gate: GateReport,
    apps: Vec<ScopeRow>,
    /// Table 6 catalog rendered byte-identically on 1 and 2 workers.
    fleet_byte_identical: bool,
}

/// Exact per-trap verify durations: the closed `Phase::Trap` spans of one
/// traced run, in trap order.
fn trap_durations(events: &[TraceEvent]) -> Vec<u64> {
    let mut open: Vec<(u64, u64)> = Vec::new();
    let mut out = Vec::new();
    for ev in events {
        if ev.phase != Phase::Trap {
            continue;
        }
        match ev.kind {
            EventKind::Begin => open.push((ev.trap, ev.vcycles)),
            EventKind::End => {
                if let Some(pos) = open.iter().rposition(|&(t, _)| t == ev.trap) {
                    let (_, begin) = open.swap_remove(pos);
                    out.push(ev.vcycles - begin);
                }
            }
            EventKind::Instant => {}
        }
    }
    out
}

fn rel_err_pct(exact: u64, sketch: u64) -> f64 {
    if exact == 0 {
        return 0.0;
    }
    (sketch as f64 - exact as f64).abs() / exact as f64 * 100.0
}

struct ScopeMeasurement {
    clean: AppBenchmark,
    traced: AppBenchmark,
    row: ScopeRow,
}

/// Runs one app/scope twice — telemetry off, then on — and builds the
/// side-by-side row. The traced run's registry must see exactly one
/// sketch observation per trap.
fn measure_scope(
    app: App,
    scope: &str,
    protection: &Protection,
    compiler: &BastionCompiler,
) -> ScopeMeasurement {
    let size = WorkloadSize::quick();
    let cost = CostModel::default();
    let t0 = Instant::now();
    let clean = run_app_benchmark(app, protection, &size, compiler, cost);
    let clean_wall = t0.elapsed().as_secs_f64();

    let guard = obs::TelemetryGuard::enable(1 << 17);
    let t1 = Instant::now();
    let traced = run_app_benchmark(app, protection, &size, compiler, cost);
    let traced_wall = t1.elapsed().as_secs_f64();
    let (events, registry) = guard.finish();
    let snap = registry.snapshot();

    let sketch = snap
        .sketch("trap.verify_cycles")
        .cloned()
        .unwrap_or_else(|| {
            eprintln!(
                "FAIL: {}/{scope}: traced run recorded no verify sketch",
                app.id()
            );
            std::process::exit(1);
        });
    let mut exact = trap_durations(&events);
    exact.sort_unstable();
    let exact_p99 = exact_quantile(&exact, 0.99);
    let row = ScopeRow {
        app: app.id().to_string(),
        scope: scope.to_string(),
        virtual_cycles: traced.cycles,
        traps: traced.traps,
        sketch_count: sketch.count,
        verify_p50: sketch.p50,
        verify_p95: sketch.p95,
        verify_p99: sketch.p99,
        verify_p999: sketch.p999,
        exact_p50: exact_quantile(&exact, 0.50),
        exact_p95: exact_quantile(&exact, 0.95),
        exact_p99,
        sketch_p99_rel_err_pct: rel_err_pct(exact_p99, sketch.p99),
        telemetry_wall_overhead_pct: (traced_wall - clean_wall) / clean_wall.max(1e-9) * 100.0,
    };
    ScopeMeasurement { clean, traced, row }
}

/// Gates one scope's telemetry transparency and sketch accuracy.
fn gate_scope(report: &mut GateReport, tag: &str, m: &ScopeMeasurement) {
    report.push(gate::check_exact(
        format!("{tag}.telemetry_cycle_identity"),
        m.clean.cycles,
        m.traced.cycles,
    ));
    report.push(gate::check_exact(
        format!("{tag}.telemetry_trap_identity"),
        m.clean.traps,
        m.traced.traps,
    ));
    report.push(gate::check_exact(
        format!("{tag}.sketch_count"),
        m.traced.traps,
        m.row.sketch_count,
    ));
    report.push(gate::check_within(
        format!("{tag}.sketch_p99"),
        m.row.exact_p99 as f64,
        m.row.verify_p99 as f64,
        2.0,
    ));
}

fn steady_per_trap(b: &AppBenchmark) -> f64 {
    let init = b.monitor.as_ref().map_or(0, |m| m.init_cycles);
    b.trace_cycles.saturating_sub(init) as f64 / b.traps.max(1) as f64
}

fn main() {
    let arg = |n: usize, default: &str| {
        std::env::args()
            .nth(n)
            .unwrap_or_else(|| default.to_string())
    };
    let interp_path = arg(1, "BENCH_interp.json");
    let fleet_path = arg(2, "BENCH_fleet.json");
    let out_path = arg(3, "BENCH_obs.json");

    let interp = std::fs::read_to_string(&interp_path)
        .map_err(|e| format!("{interp_path}: {e}"))
        .and_then(|t| gate::parse_interp_baseline(&t))
        .unwrap_or_else(|e| {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        });
    let fleet_baseline = std::fs::read_to_string(&fleet_path)
        .map_err(|e| format!("{fleet_path}: {e}"))
        .and_then(|t| gate::parse_fleet_baseline(&t))
        .unwrap_or_else(|e| {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        });

    let mut report = GateReport::default();
    let mut rows = Vec::new();

    // ---- Table 1 scope: deterministic columns vs BENCH_interp.json ----
    let table1 = BastionCompiler::new();
    for app in [App::Webserve, App::Dbkv, App::Ftpd] {
        let m = measure_scope(app, "table1", &Protection::full(), &table1);
        let id = app.id();
        match interp.app(id) {
            Some(base) => {
                report.push(gate::check_exact(
                    format!("{id}.virtual_cycles"),
                    base.virtual_cycles,
                    m.clean.cycles,
                ));
                report.push(gate::check_exact(
                    format!("{id}.traps"),
                    base.traps,
                    m.clean.traps,
                ));
                report.push(gate::check_max_regression(
                    format!("{id}.steady_cycles_per_trap"),
                    base.steady_cycles_per_trap,
                    steady_per_trap(&m.clean),
                    2.0,
                ));
            }
            None => {
                eprintln!("FAIL: {interp_path} has no `{id}` row");
                std::process::exit(1);
            }
        }
        gate_scope(&mut report, id, &m);
        eprintln!(
            "{id}/table1: cycles={} traps={} verify p50/p95/p99={}/{}/{} (exact p99 {}, err {:.3}%)",
            m.traced.cycles,
            m.traced.traps,
            m.row.verify_p50,
            m.row.verify_p95,
            m.row.verify_p99,
            m.row.exact_p99,
            m.row.sketch_p99_rel_err_pct
        );
        rows.push(m.row);
    }

    // ---- Extended scope (§11.2): transparency + accuracy, two-tier ----
    let extended = BastionCompiler::with_sensitive(bastion::ir::sysno::extended_sensitive_set());
    for app in [App::Webserve, App::Dbkv, App::Ftpd] {
        let m = measure_scope(app, "extended", &Protection::extended_two_tier(), &extended);
        gate_scope(&mut report, &format!("{}.extended", app.id()), &m);
        eprintln!(
            "{}/extended: cycles={} traps={} verify p99={} (exact {}, err {:.3}%)",
            app.id(),
            m.traced.cycles,
            m.traced.traps,
            m.row.verify_p99,
            m.row.exact_p99,
            m.row.sketch_p99_rel_err_pct
        );
        rows.push(m.row);
    }

    // ---- Fleet determinism: Table 6 catalog, 1 worker vs 2 ----
    let serial = attacks::render(&fleet::table6_matrix(1));
    let sharded = attacks::render(&fleet::table6_matrix(2));
    let byte_identical = serial == sharded;
    report.push(gate::check_flag(
        "fleet.table6_byte_identical",
        fleet_baseline.all_byte_identical,
        byte_identical,
    ));

    let passed = report.passed();
    print!("{}", report.render());
    let out = Report {
        bench: "obs".to_string(),
        gate: report,
        apps: rows,
        fleet_byte_identical: byte_identical,
    };
    let json = serde_json::to_string_pretty(&out).expect("report serializes");
    std::fs::write(&out_path, json + "\n").unwrap_or_else(|e| {
        eprintln!("FAIL: {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
    if !passed {
        eprintln!("FAIL: perf gate detected a regression");
        std::process::exit(1);
    }
}
