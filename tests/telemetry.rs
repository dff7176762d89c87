//! Telemetry suite: span-ring integrity, the zero-cost disabled path, and
//! deny-record provenance (DESIGN.md §6e).
//!
//! Invariants enforced here:
//!
//! * a wrapped span ring still exports a **balanced, validating** Chrome
//!   trace (orphans dropped, dangling spans closed);
//! * the disabled tracer records **nothing** — no events, no metrics;
//! * the `monitor.walk_depth` sketch agrees exactly with the monitor's
//!   depth statistics (sum, min, max);
//! * every monitor deny in the Table 6 catalog yields **exactly one**
//!   [`DenyRecord`]: the one the deny sink streamed for the trap is, field
//!   for field, the reason of the `MonitorKill` exit it caused;
//! * deny records join the fault-injection log on the world trap sequence
//!   number (`DenyRecord::trap_seq` == `InjectedFault::world_trap`).

use bastion::apps::App;
use bastion::chaos::absorb_liveness_panics;
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, WorkloadSize};
use bastion::obs;
use bastion::obs::{DenyContext, DenyRecord, Phase};
use bastion::vm::CostModel;
use bastion_attacks::AttackEnv;
use bastion_kernel::{ExitReason, FaultKind, FaultSchedule, Trigger};
use bastion_monitor::ContextConfig;
use std::cell::RefCell;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// The `vm.steps` counter counts every guest step, the steps that end in
/// a syscall trap included: over a whole app run it equals the world's own
/// step count.
#[test]
fn vm_steps_counter_equals_world_steps_on_an_app_run() {
    let guard = obs::TelemetryGuard::enable(64);
    let run = run_app_benchmark(
        App::Dbkv,
        &bastion::Protection::full(),
        &WorkloadSize::quick(),
        &BastionCompiler::new(),
        CostModel::default(),
    );
    let (_, registry) = guard.finish();
    assert_eq!(registry.snapshot().counter("vm.steps"), Some(run.steps));
}

// ---------------------------------------------------------------------------
// Span ring
// ---------------------------------------------------------------------------

#[test]
fn ring_wraparound_preserves_span_nesting() {
    // Capacity for 16 events; each synthetic trap emits 6 — the ring wraps
    // several times, cutting spans mid-flight at both ends.
    let guard = obs::TelemetryGuard::enable(16);
    for trap in 1..=8u64 {
        let t0 = trap * 1000;
        obs::span_begin(Phase::Trap, trap, t0);
        obs::span_begin(Phase::CtCheck, trap, t0 + 10);
        obs::instant(Phase::CtCacheHit, trap, t0 + 15, 0);
        obs::span_end(Phase::CtCheck, trap, t0 + 20, 0);
        obs::span_begin(Phase::CfWalk, trap, t0 + 30);
        obs::span_end(Phase::CfWalk, trap, t0 + 90, 3);
        obs::span_end(Phase::Trap, trap, t0 + 100, 0);
    }
    let (events, _) = guard.finish();
    assert_eq!(events.len(), 16, "ring keeps exactly its capacity");
    let json = obs::chrome_trace_json(&events);
    let shape =
        obs::validate_chrome_trace(&json).expect("wrapped ring must still export a balanced trace");
    assert_eq!(shape.begins, shape.ends, "B/E balanced after rebalancing");
    assert!(shape.events > 0);
}

#[test]
fn deep_nesting_survives_wraparound() {
    // Wrap mid-way through a *nested* span stack: the export must close
    // the dangling begins innermost-first and drop the orphaned ends.
    let guard = obs::TelemetryGuard::enable(8);
    for i in 0..5u64 {
        let t = i * 100;
        obs::span_begin(Phase::Trap, i, t);
        obs::span_begin(Phase::CfWalk, i, t + 10);
        obs::span_begin(Phase::FrameRead, i, t + 20);
        obs::span_end(Phase::FrameRead, i, t + 30, 0);
        obs::span_end(Phase::CfWalk, i, t + 40, 0);
        obs::span_end(Phase::Trap, i, t + 50, 0);
    }
    let (events, _) = guard.finish();
    let json = obs::chrome_trace_json(&events);
    let shape = obs::validate_chrome_trace(&json).expect("nested wrap validates");
    assert_eq!(shape.begins, shape.ends);
}

// ---------------------------------------------------------------------------
// Disabled path
// ---------------------------------------------------------------------------

#[test]
fn disabled_tracer_records_nothing_end_to_end() {
    // A monitored end-to-end run with telemetry off: the obs layer must
    // stay completely empty — no events, no counters, no sketches.
    assert!(!obs::is_enabled());
    let d = bastion::Deployment::from_minic(
        "t",
        &[r#"
            long main() {
                long a;
                a = mmap(0, 4096, 3, 0x21, 0 - 1, 0);
                return a > 0;
            }
        "#],
    )
    .expect("compiles");
    let mut world = d.world();
    let pid = d.launch(&mut world, &bastion::Protection::full());
    world.run(10_000_000);
    assert!(world.trap_count > 0, "mmap must trap");
    assert!(matches!(
        world.proc(pid).unwrap().exit,
        Some(ExitReason::Exited(1))
    ));
    assert_eq!(obs::event_count(), 0, "disabled tracer recorded events");
    let m = obs::metrics_snapshot();
    assert!(m.counters.is_empty(), "disabled metrics recorded counters");
    assert!(m.sketches.is_empty(), "disabled metrics recorded sketches");
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

#[test]
fn walk_depth_sketch_matches_monitor_stats() {
    // Tier 2 only, so every trap walks the stack. The sketch keeps count,
    // sum, min and max exact, so it must agree with the monitor's own
    // depth statistics to the frame.
    let mut prot = bastion::Protection::full();
    prot.monitor = Some(ContextConfig::full().with_prefilter(false));
    let guard = obs::TelemetryGuard::enable(1 << 17);
    let r = run_app_benchmark(
        App::Webserve,
        &prot,
        &WorkloadSize::quick(),
        &BastionCompiler::new(),
        CostModel::default(),
    );
    let (_, registry) = guard.finish();
    let stats = r.monitor.as_ref().expect("monitor attached");
    assert!(stats.frames_walked > 0, "tier-2 traps must walk frames");
    let snap = registry.snapshot();
    let depth = snap
        .sketch("monitor.walk_depth")
        .expect("monitor.walk_depth is a sketch");
    assert_eq!(depth.sum, stats.frames_walked);
    assert_eq!(depth.min, stats.min_depth);
    assert_eq!(depth.max, stats.max_depth);
}

// ---------------------------------------------------------------------------
// Deny provenance
// ---------------------------------------------------------------------------

/// Collects every deny record emitted on this thread while running `f`.
fn collect_denies<R>(f: impl FnOnce() -> R) -> (R, Vec<DenyRecord>) {
    let sink: Rc<RefCell<Vec<DenyRecord>>> = Rc::default();
    let inner = Rc::clone(&sink);
    obs::set_deny_sink(Box::new(move |rec| inner.borrow_mut().push(rec.clone())));
    let r = f();
    obs::clear_deny_sink();
    (r, sink.take())
}

#[test]
fn every_catalog_deny_yields_one_byte_identical_record() {
    let mut total_denies = 0usize;
    for scenario in bastion_attacks::catalog() {
        let (env, streamed) = collect_denies(|| {
            let mut env = AttackEnv::deploy(
                scenario.victim,
                Some(ContextConfig::full()),
                scenario.extended_set,
                false,
            );
            absorb_liveness_panics(|| (scenario.attack)(&mut env));
            env.settle();
            env
        });
        // The kill reasons: every MonitorKill exit's record, in trap order.
        let mut kills: Vec<&DenyRecord> = env
            .world
            .procs
            .iter()
            .filter_map(|p| match &p.exit {
                Some(ExitReason::MonitorKill { reason, .. }) => Some(&**reason),
                _ => None,
            })
            .collect();
        kills.sort_by_key(|r| r.trap_seq);
        assert_eq!(
            kills,
            streamed.iter().collect::<Vec<_>>(),
            "#{} {}: a kill reason differs from the record streamed for its trap",
            scenario.id,
            scenario.name
        );
        total_denies += streamed.len();
    }
    assert!(
        total_denies > 0,
        "the catalog must produce at least one monitor deny"
    );
}

#[test]
fn deny_records_carry_context_rule_and_ladder() {
    // One known deny: row 1 of the catalog under full protection.
    let catalog = bastion_attacks::catalog();
    let scenario = catalog.iter().find(|s| s.id == 1).expect("row 1 exists");
    let (_env, records) = collect_denies(|| {
        let mut env = AttackEnv::deploy(scenario.victim, Some(ContextConfig::full()), false, false);
        absorb_liveness_panics(|| (scenario.attack)(&mut env));
        env.settle();
        env
    });
    assert!(!records.is_empty(), "row 1 must be denied");
    for rec in &records {
        assert!(rec.trap_seq > 0, "trap sequence starts at 1");
        assert_eq!(rec.ladder_rung, "full", "clean run denies on the Full rung");
        assert_eq!(
            rec.to_string(),
            format!("{}: {}", rec.context.label(), rec.message),
            "the kill reason leads with the context label"
        );
    }
}

// ---------------------------------------------------------------------------
// Fault ↔ deny join
// ---------------------------------------------------------------------------

#[test]
fn deny_record_joins_fault_log_on_world_trap() {
    // Fault every substrate access of trap 2 with read errors: retries
    // exhaust, the trap is denied fail-closed. The deny's trap sequence
    // number must equal the fault log's `world_trap` — the provenance join.
    let d = bastion::Deployment::from_minic(
        "t",
        &[r#"
            long main() {
                long a;
                long b;
                a = mmap(0, 4096, 3, 0x21, 0 - 1, 0);
                b = mmap(0, 4096, 3, 0x21, 0 - 1, 0);
                return 0;
            }
        "#],
    )
    .expect("compiles");
    let mut world = d.world();
    let pid = d.launch(&mut world, &bastion::Protection::full());
    world.install_faults(
        FaultSchedule::new(0x10A_0001).with(FaultKind::ReadError, Trigger::OnTrap(2)),
    );
    let ((), records) = collect_denies(|| {
        world.run(10_000_000);
    });
    match &world.proc(pid).unwrap().exit {
        Some(ExitReason::MonitorKill { reason, .. }) => {
            assert_eq!(
                reason.context,
                DenyContext::FailClosed,
                "expected fail-closed: {reason}"
            );
        }
        other => panic!("faulted trap was not denied: {other:?}"),
    }
    assert_eq!(records.len(), 1, "exactly one deny for the faulted trap");
    let rec = &records[0];
    assert_eq!(rec.trap_seq, 2, "deny names the faulted world trap");
    assert!(
        rec.fault_ctx.retries > 0,
        "the deny context records retries"
    );
    let log = world.fault_log();
    assert!(!log.is_empty(), "faults must have fired");
    assert!(
        log.iter().all(|f| f.world_trap == 2),
        "all injected faults hit trap 2: {log:?}"
    );
    assert!(
        log.iter().any(|f| f.world_trap == rec.trap_seq),
        "join key mismatch: faults {log:?} vs deny seq {}",
        rec.trap_seq
    );
}
