//! Fleet runner contract tests (DESIGN.md §6f): the parallel chaos matrix
//! must render byte-identically for any worker count, worlds must be
//! movable across worker threads, the thread-local RAII guards must
//! restore state even across panics, and the walk cache must never serve
//! a verdict across hash-colliding chains.

use bastion::fleet;
use bastion::kernel::{set_thread_legacy_interp, thread_legacy_interp, LegacyInterpGuard};
use bastion::monitor::cache::VerifyCache;
use bastion::obs::DenyRule;
use bastion::obs::{DenyContext, DenyRecord};
use bastion::{Deployment, Protection};

/// The determinism contract, end to end: a subset of the attack-chaos
/// matrix (4 scenarios, 1 seed, every fault class) plus the benign
/// table, rendered serially and on a 4-worker pool — byte-identical.
#[test]
fn fleet_chaos_report_is_byte_identical_across_worker_counts() {
    let subset: &[u32] = &[1, 2, 3, 4];
    let seeds: &[u64] = &[0xA77C_0001];
    let serial = fleet::chaos_matrix(1, seeds, Some(subset));
    let pooled = fleet::chaos_matrix(4, seeds, Some(subset));
    assert_eq!(
        serial.report, pooled.report,
        "N=1 and N=4 aggregate reports diverged"
    );
    assert_eq!(serial.failures(), Vec::<String>::new());
    assert_eq!(
        (serial.faults_fired, serial.deny_total, serial.join_total),
        (pooled.faults_fired, pooled.deny_total, pooled.join_total)
    );
    // Worker guards restored this thread's defaults.
    assert!(!thread_legacy_interp());
    assert!(!bastion::obs::is_enabled());
}

/// Warm-forked cells (the default) and cold per-cell re-deploys render the
/// same bytes: the checkpoint is taken exactly where a cold deploy would
/// hand the world to the cell, and worlds are deterministic from there.
#[test]
fn fleet_chaos_report_is_byte_identical_warm_vs_cold() {
    let subset: &[u32] = &[1, 2, 3, 4];
    let seeds: &[u64] = &[0xA77C_0001];
    let warm = fleet::chaos_matrix_mode(1, seeds, Some(subset), false);
    let cold = fleet::chaos_matrix_mode(1, seeds, Some(subset), true);
    assert_eq!(
        warm.report, cold.report,
        "warm-forked and cold-deployed chaos reports diverged"
    );
    assert_eq!(
        (
            warm.faults_fired,
            warm.deny_total,
            warm.join_total,
            warm.flipped,
            warm.generated_flipped
        ),
        (
            cold.faults_fired,
            cold.deny_total,
            cold.join_total,
            cold.flipped,
            cold.generated_flipped
        )
    );
    // Cold: one deploy per benign cell (3 apps x 2 schedules) and per
    // attack cell (calibration + 7 fault classes, for 4 scenarios).
    assert_eq!(cold.deploys, 3 * 2 + 4 * (1 + 7));
    assert!(warm.deploys < cold.deploys);
}

/// A `World` with an attached monitor is `Send`: build it here, run it to
/// completion on another thread.
#[test]
fn protected_world_moves_across_threads() {
    let src = r#"
        long main() {
            long arena;
            arena = mmap(0, 4096, 3, 0x21, 0 - 1, 0);
            return arena > 0;
        }
    "#;
    let deployment = Deployment::from_minic("fleet-send", &[src]).expect("compiles");
    let mut world = deployment.world();
    let pid = deployment.launch(&mut world, &Protection::full());
    let exit = std::thread::spawn(move || {
        world.run(10_000_000);
        world.proc(pid).and_then(|p| p.exit.clone())
    })
    .join()
    .expect("worker thread");
    assert!(matches!(exit, Some(bastion::kernel::ExitReason::Exited(1))));
}

#[test]
fn legacy_interp_guard_restores_previous_value() {
    set_thread_legacy_interp(false);
    {
        let _outer = LegacyInterpGuard::set(true);
        assert!(thread_legacy_interp());
        {
            let _inner = LegacyInterpGuard::set(false);
            assert!(!thread_legacy_interp());
        }
        assert!(thread_legacy_interp(), "inner guard restored outer value");
    }
    assert!(!thread_legacy_interp(), "outer guard restored the default");
}

#[test]
fn guards_restore_across_panics() {
    let result = std::panic::catch_unwind(|| {
        let _interp = LegacyInterpGuard::set(true);
        let _telemetry = bastion::obs::TelemetryGuard::enable(16);
        bastion::obs::counter_add("doomed", 1);
        panic!("worker task failed");
    });
    assert!(result.is_err());
    assert!(
        !thread_legacy_interp(),
        "legacy-interp default leaked across a panic"
    );
    assert!(
        !bastion::obs::is_enabled(),
        "telemetry enable flag leaked across a panic"
    );
    assert_eq!(bastion::obs::metrics_snapshot().counter("doomed"), None);
}

/// Regression: two crafted chains filed under the same 64-bit hash with
/// different CF verdicts. The old hash-only key served chain A's verdict
/// for chain B (a false-allow primitive when A's verdict was Ok); the
/// full-key confirmation serves a counted miss instead.
#[test]
fn walk_cache_never_aliases_colliding_chains() {
    let mut cache = VerifyCache::new();
    let forced_hash = 0x5EED_CAFE_u64;
    let chain_ok: &[u64] = &[0x1000, 0x2004, 0x300C, 0, 0x1000];
    let chain_bad: &[u64] = &[0x1000, 0x6666, 0x300C, 0, 0x1000];
    let deny = Err(DenyRecord::new(
        DenyContext::ControlFlow,
        DenyRule::InvalidCaller,
        "callsite 0x6666 is not a valid caller",
    ));
    cache.walk_store(forced_hash, chain_ok, Ok(()));
    // The colliding (malicious) chain must not inherit the Ok verdict.
    assert_eq!(cache.walk_lookup(forced_hash, chain_bad), None);
    assert_eq!(cache.walk_collisions, 1);
    // After its own validation is cached, each chain sees only its own
    // verdict — in particular the deny stays a deny.
    cache.walk_store(forced_hash, chain_bad, deny.clone());
    assert_eq!(cache.walk_lookup(forced_hash, chain_bad), Some(deny));
    assert_eq!(cache.walk_lookup(forced_hash, chain_ok), None);
    assert_eq!(cache.walk_hits, 1);
    assert_eq!(cache.walk_collisions, 2);
}

/// Table 6 evaluated on the fleet matches the serial evaluation, scenario
/// for scenario, on a rendered-report byte level.
#[test]
fn fleet_table6_matches_serial_render() {
    let pooled = fleet::table6_matrix(4);
    let serial = bastion::attacks::evaluate_all();
    assert_eq!(
        bastion::attacks::render(&pooled),
        bastion::attacks::render(&serial)
    );
    assert!(pooled.iter().all(|r| r.matches_paper()));
}
