//! Perf-regression gate (the "Obs overhead smoke" CI step).
//!
//! Re-measures the hot paths the checked-in baselines pin down and diffs
//! them through `bastion::gate`:
//!
//! * the nine Table-1 records (`{app}.virtual_cycles`, `{app}.traps`,
//!   `{app}.steady_cycles_per_trap`) vs `BENCH_interp.json` through
//!   `gate::check` — exact, or the one-sided band the baseline record
//!   carries (2% on the per-trap ratio);
//! * telemetry transparency — a traced run must reproduce the clean run's
//!   cycles, traps and monitor time (`trace_cycles`) bit-for-bit
//!   (observability charges zero virtual cycles), under both the Table 1
//!   scope and the §11.2 filesystem-extended scope;
//! * sketch accuracy — the `trap.verify_cycles` p99 must land within 2%
//!   of the exact p99 recomputed from the per-trap span durations;
//! * span-ring integrity, per app and scope — the ring did not wrap (so
//!   no span check reads a truncated ring), the exported Chrome trace
//!   validates with one trap span per monitor trap, the trap spans sum to
//!   the monitor time after initialization (`trace_cycles -
//!   init_cycles`), the CT and walk cache-hit instants equal the
//!   `MonitorStats` counters, and the traced registry's Prometheus
//!   exposition validates with at least one summary family;
//! * fleet determinism — the Table 6 catalog renders byte-identically on
//!   1 and 2 workers.
//!
//! Prints the check table, writes every measured value (the nine gated
//! records plus per-app/per-scope verify-latency percentiles) as records
//! to `BENCH_obs.json`, and exits non-zero if any check fails. Wall-clock
//! telemetry overhead is a host record — the median of three alternating
//! off/on pairs after one untimed warm-up run, *reported*, never gated,
//! since shared-CI wall time is noise. Usage:
//! `perf_gate [BENCH_interp.json] [BENCH_obs.json]`.

use bastion::apps::App;
use bastion::compiler::BastionCompiler;
use bastion::gate::{self, GateReport, Record};
use bastion::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use bastion::obs::sketch::exact_quantile;
use bastion::obs::{self, EventKind, MetricsRegistry, MetricsSnapshot, Phase, TraceEvent};
use bastion::vm::CostModel;
use bastion::{attacks, fleet, Protection};
use std::time::Instant;

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

/// `{tag}.virtual_cycles` and `{tag}.traps` of one run.
fn run_records(tag: &str, b: &AppBenchmark) -> Vec<Record> {
    vec![
        Record::virt(format!("{tag}.virtual_cycles"), b.cycles as f64, "cycles"),
        Record::virt(format!("{tag}.traps"), b.traps as f64, "count"),
    ]
}

/// One traced run: the benchmark, its wall seconds, the ring's event
/// count before draining, the drained events and the registry.
type TracedRun = (AppBenchmark, f64, u64, Vec<TraceEvent>, MetricsRegistry);

/// Telemetry off/on pairs per scope; the wall-overhead record is their
/// median.
const OVERHEAD_PAIRS: usize = 3;

/// Runs one app/scope — one untimed warm-up, then [`OVERHEAD_PAIRS`]
/// telemetry off/on pairs whose order alternates — pushes the
/// telemetry-transparency, sketch-accuracy and span-ring checks for `tag`,
/// and returns the clean run plus the scope's verify-latency records. The
/// traced run's registry must see exactly one sketch observation per
/// trap.
fn measure_scope(
    app: App,
    tag: &str,
    protection: &Protection,
    compiler: &BastionCompiler,
    report: &mut GateReport,
) -> (AppBenchmark, Vec<Record>) {
    let size = WorkloadSize::quick();
    let cost = CostModel::default();
    let clean_run = || {
        let t0 = Instant::now();
        let b = run_app_benchmark(app, protection, &size, compiler, cost);
        (b, t0.elapsed().as_secs_f64())
    };
    let traced_run = || -> TracedRun {
        let guard = obs::TelemetryGuard::enable(1 << 17);
        let (b, wall) = clean_run();
        let recorded = obs::event_count();
        let (events, registry) = guard.finish();
        (b, wall, recorded, events, registry)
    };
    // The first run of an app in the process pays one-time fills (ftpd's
    // 16 MiB payload), so it is never timed.
    let _ = clean_run();
    let mut overheads = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut runs = None;
    for pair in 0..OVERHEAD_PAIRS {
        let (clean, traced) = if pair % 2 == 0 {
            let clean = clean_run();
            (clean, traced_run())
        } else {
            let traced = traced_run();
            (clean_run(), traced)
        };
        overheads.push((traced.1 - clean.1) / clean.1.max(1e-9) * 100.0);
        runs = Some((clean.0, traced));
    }
    overheads.sort_by(f64::total_cmp);
    let (clean, (traced, _, recorded, events, registry)) = runs.expect("at least one pair");
    let snap = registry.snapshot();

    let sketch = snap
        .sketch("trap.verify_cycles")
        .cloned()
        .unwrap_or_else(|| {
            eprintln!("FAIL: {tag}: traced run recorded no verify sketch");
            std::process::exit(1);
        });
    let mut exact = trap_durations(&events);
    exact.sort_unstable();
    let exact_p99 = exact_quantile(&exact, 0.99);
    let rel_err = rel_err_pct(exact_p99, sketch.p99);

    report.push(gate::check_exact(
        format!("{tag}.telemetry_cycle_identity"),
        clean.cycles,
        traced.cycles,
    ));
    report.push(gate::check_exact(
        format!("{tag}.telemetry_trap_identity"),
        clean.traps,
        traced.traps,
    ));
    report.push(gate::check_exact(
        format!("{tag}.telemetry_trace_identity"),
        clean.trace_cycles,
        traced.trace_cycles,
    ));
    report.push(gate::check_exact(
        format!("{tag}.sketch_count"),
        traced.traps,
        sketch.count,
    ));
    report.push(gate::check_within(
        format!("{tag}.sketch_p99"),
        exact_p99 as f64,
        sketch.p99 as f64,
        2.0,
    ));
    push_span_checks(tag, &traced, recorded, &events, &snap, report);
    eprintln!(
        "{tag}: cycles={} traps={} verify p50/p95/p99={}/{}/{} (exact p99 {exact_p99}, err {rel_err:.3}%)",
        traced.cycles, traced.traps, sketch.p50, sketch.p95, sketch.p99
    );

    let cycles = |name: &str, v: u64| Record::virt(format!("{tag}.{name}"), v as f64, "cycles");
    let records = vec![
        // Observations in the `trap.verify_cycles` sketch (== traps).
        Record::virt(format!("{tag}.sketch_count"), sketch.count as f64, "count"),
        cycles("verify_p50", sketch.p50),
        cycles("verify_p95", sketch.p95),
        cycles("verify_p99", sketch.p99),
        cycles("verify_p999", sketch.p999),
        // Exact percentiles from the per-trap span durations.
        cycles("exact_p50", exact_quantile(&exact, 0.50)),
        cycles("exact_p95", exact_quantile(&exact, 0.95)),
        cycles("exact_p99", exact_p99),
        // |sketch p99 - exact p99| / exact p99.
        Record::virt(format!("{tag}.sketch_p99_rel_err_pct"), rel_err, "pct"),
        // Median over the off/on pairs.
        Record::host(
            format!("{tag}.telemetry_wall_overhead_pct"),
            overheads[OVERHEAD_PAIRS / 2],
            "pct",
        ),
    ];
    (clean, records)
}

/// The span-ring checks of one traced run against its own
/// `MonitorStats`. `recorded` is the scope's event count before the ring
/// was drained into `events`.
fn push_span_checks(
    tag: &str,
    traced: &AppBenchmark,
    recorded: u64,
    events: &[TraceEvent],
    snap: &MetricsSnapshot,
    report: &mut GateReport,
) {
    let stats = traced.monitor.as_ref().unwrap_or_else(|| {
        eprintln!("FAIL: {tag}: traced run has no monitor stats");
        std::process::exit(1);
    });
    // Every span check below reads the ring; a wrapped ring would drop
    // the oldest traps and could pass them on partial data.
    report.push(gate::check_exact(
        format!("{tag}.ring_unwrapped"),
        recorded,
        events.len() as u64,
    ));

    let shape = obs::validate_chrome_trace(&obs::chrome_trace_json(events))
        .map_err(|e| eprintln!("{tag}: exported Chrome trace invalid: {e}"))
        .ok();
    report.push(gate::check_flag(
        format!("{tag}.chrome_trace_valid"),
        true,
        shape.is_some(),
    ));
    report.push(gate::check_exact(
        format!("{tag}.trace_trap_spans"),
        stats.traps,
        shape.map_or(0, |s| s.trap_spans),
    ));

    // The trap spans partition monitor time exactly: trace_cycles minus
    // the one-time monitor initialization.
    let totals = obs::phase_totals(events);
    let total = |p: Phase| totals.iter().find(|t| t.phase == p);
    let instants = |p: Phase| total(p).map_or(0, |t| t.instants);
    report.push(gate::check_exact(
        format!("{tag}.trap_span_cycles"),
        traced.trace_cycles - stats.init_cycles,
        total(Phase::Trap).map_or(0, |t| t.cycles),
    ));
    report.push(gate::check_exact(
        format!("{tag}.ct_cache_hit_instants"),
        stats.ct_cache_hits,
        instants(Phase::CtCacheHit),
    ));
    report.push(gate::check_exact(
        format!("{tag}.walk_cache_hit_instants"),
        stats.walk_cache_hits,
        instants(Phase::WalkCacheHit),
    ));

    let prom = obs::prometheus_text(snap, &[("scope", tag)]);
    let summaries = obs::validate_prometheus(&prom)
        .map_err(|e| eprintln!("{tag}: Prometheus exposition invalid: {e}"))
        .map_or(0, |s| s.summaries);
    report.push(gate::check_flag(
        format!("{tag}.prometheus_summary_valid"),
        true,
        summaries > 0,
    ));
}

fn main() {
    let arg = |n: usize, default: &str| {
        std::env::args()
            .nth(n)
            .unwrap_or_else(|| default.to_string())
    };
    let interp_path = arg(1, "BENCH_interp.json");
    let out_path = arg(2, "BENCH_obs.json");

    let interp = std::fs::read_to_string(&interp_path)
        .map_err(|e| e.to_string())
        .and_then(|t| gate::parse_records(&t))
        .unwrap_or_else(|e| {
            eprintln!("FAIL: {interp_path}: {e}");
            std::process::exit(1);
        });

    let mut report = GateReport::default();
    let mut records = Vec::new();

    // ---- Table 1 scope: the nine deterministic records vs BENCH_interp.json ----
    let table1 = BastionCompiler::new();
    for app in [App::Webserve, App::Dbkv, App::Ftpd] {
        let id = app.id();
        let mut scope = GateReport::default();
        let (clean, rows) = measure_scope(app, id, &Protection::full(), &table1, &mut scope);
        let mut gated = run_records(id, &clean);
        gated.push(
            Record::virt(
                format!("{id}.steady_cycles_per_trap"),
                clean.steady_cycles_per_trap(),
                "cycles",
            )
            .with_tolerance(2.0),
        );
        report.checks.extend(gate::check(&interp, &gated).checks);
        report.checks.extend(scope.checks);
        records.extend(gated);
        records.extend(rows);
    }

    // ---- Extended scope (§11.2): transparency + accuracy, two-tier ----
    let extended = BastionCompiler::with_sensitive(bastion::ir::sysno::extended_sensitive_set());
    for app in [App::Webserve, App::Dbkv, App::Ftpd] {
        let tag = format!("{}.extended", app.id());
        let (clean, rows) = measure_scope(
            app,
            &tag,
            &Protection::extended_two_tier(),
            &extended,
            &mut report,
        );
        records.extend(run_records(&tag, &clean));
        records.extend(rows);
    }

    // ---- Fleet determinism: Table 6 catalog, 1 worker vs 2 ----
    let serial = attacks::render(&fleet::table6_matrix(1));
    let sharded = attacks::render(&fleet::table6_matrix(2));
    let byte_identical = serial == sharded;
    report.push(gate::check_flag(
        "fleet.table6_byte_identical",
        true,
        byte_identical,
    ));
    records.push(Record::virt(
        "fleet.table6_byte_identical",
        f64::from(u8::from(byte_identical)),
        "bool",
    ));

    let passed = report.passed();
    print!("{}", report.render());
    std::fs::write(&out_path, gate::records_json("obs", &records)).unwrap_or_else(|e| {
        eprintln!("FAIL: {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
    if !passed {
        eprintln!("FAIL: perf gate detected a regression");
        std::process::exit(1);
    }
}
