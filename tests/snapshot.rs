//! Snapshot/restore contract tests (DESIGN.md §6i): a copy-on-write
//! checkpoint taken at any point of a deterministic run must be invisible
//! — the checkpointed world, a world restored from the checkpoint, and a
//! cold run that never checkpointed all replay step-for-step identically,
//! on both interpreters. Fork state (the prefilter's per-pid flow
//! automaton included) must survive the round-trip. Restored worlds share
//! the monitor's read-only tables with their checkpoint and copy the rest.

use bastion::attacks::env::{Defense, Parked};
use bastion::attacks::{catalog, AttackEnv};
use bastion::chaos::monitor_stats;
use bastion::kernel::{FaultSchedule, LegacyInterpGuard, Tracer, World};
use bastion::monitor::{ContextConfig, Monitor, MonitorStats};
use bastion::{Deployment, Protection};
use proptest::prelude::*;
use std::sync::Arc;

/// A small program with sensitive traps (mmap/mprotect), page-dirtying
/// writes after the traps, and a nontrivial exit — enough moving state
/// that a broken snapshot shows up in the trace.
const TRAPPY: &str = r#"
    long main() {
        long a;
        long i;
        long acc;
        a = mmap(0, 8192, 3, 0x21, 0 - 1, 0);
        acc = 0;
        i = 0;
        while (i < 4) {
            acc = acc + mprotect(a, 4096, 3);
            a[i] = acc + i;
            acc = acc + a[i] + getpid();
            i = i + 1;
        }
        return acc > 0;
    }
"#;

/// Drives `world` to completion in fixed 100k-cycle slices, recording the
/// world summary after each slice. Slice boundaries are part of the trace:
/// two worlds agree iff they agree after *every* slice, not just at exit.
fn trace(world: &mut World) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..100 {
        world.run(100_000);
        out.push(world.summary());
        if world.alive_count() == 0 {
            break;
        }
    }
    out
}

proptest! {
    /// snapshot → run → restore → re-run, checkpointed at an arbitrary
    /// cycle prefix, on either interpreter: the live world after the
    /// snapshot, a world restored from it, and a cold run are
    /// step-for-step identical. The restored world is driven under the
    /// *opposite* thread-local interpreter to pin the documented rule
    /// that a checkpoint replays on the interpreter it was taken under.
    #[test]
    fn snapshot_restore_rerun_matches_cold(prefix in 0u64..3_000_000, legacy in any::<bool>()) {
        let _g = LegacyInterpGuard::set(legacy);
        let d = Deployment::from_minic("snap-prop", &[TRAPPY]).expect("compiles");

        // Cold reference: never checkpointed.
        let mut cold = d.world();
        d.launch(&mut cold, &Protection::full());
        cold.run(prefix);
        let cold_trace = trace(&mut cold);

        // Checkpointed run: same prefix, then snapshot (which also prunes
        // zero pages in the live world — semantics-preserving by contract).
        let mut live = d.world();
        d.launch(&mut live, &Protection::full());
        live.run(prefix);
        let snap = live.snapshot();
        let live_trace = trace(&mut live);
        prop_assert_eq!(&live_trace, &cold_trace, "live world diverged after snapshot()");

        let restored_trace = {
            let _flip = LegacyInterpGuard::set(!legacy);
            let mut restored = World::restore(&snap);
            trace(&mut restored)
        };
        prop_assert_eq!(&restored_trace, &cold_trace, "restored world diverged from cold run");
    }
}

/// Normalizes the fields that legitimately differ between a warm and a
/// cold run: page residency reflects CoW sharing, not monitor behaviour.
fn behavioral(mut stats: MonitorStats) -> String {
    stats.resident_pages = 0;
    stats.snapshot_shared_pages = 0;
    format!("{stats:?}")
}

/// Fork inheritance across a restored checkpoint: the checkpoint lands
/// after the parent's first sensitive trap (so the prefilter's flow
/// automaton holds per-pid state) but before the fork, and the fork then
/// happens in the *restored* world — `Prefilter::inherit_state` must seed
/// the child from flow state that crossed the snapshot. The whole run,
/// monitor stats included, matches a cold run that never checkpointed.
#[test]
fn fork_inherits_prefilter_state_across_a_restored_checkpoint() {
    let src = r#"
        long main() {
            long a;
            long pid;
            a = mmap(0, 4096, 3, 0x21, 0 - 1, 0);
            pid = fork();
            a = mprotect(a, 4096, 1);
            if (pid == 0) { return 7; }
            return 1;
        }
    "#;
    let d = Deployment::from_minic("fork-ckpt", &[src]).expect("compiles");

    let mut cold = d.world();
    let parent = d.launch(&mut cold, &Protection::full());
    cold.run(20_000_000);
    let cold_summary = cold.summary();
    assert!(
        matches!(
            cold.proc(parent).and_then(|p| p.exit.clone()),
            Some(bastion::kernel::ExitReason::Exited(1))
        ),
        "parent did not finish cleanly: {cold_summary}"
    );
    let cold_stats = monitor_stats(&mut cold).expect("monitor attached");

    let mut warm = d.world();
    d.launch(&mut warm, &Protection::full());
    warm.run_until_traps(1, 20_000_000);
    assert!(
        warm.trap_count >= 1,
        "checkpoint must land after the first sensitive trap"
    );
    let snap = warm.snapshot();
    assert!(snap.shared_pages() > 0, "checkpoint shares no pages");
    let mut resumed = World::restore(&snap);
    resumed.run(20_000_000);
    assert_eq!(
        resumed.summary(),
        cold_summary,
        "restored world finished differently from the cold run"
    );
    let warm_stats = monitor_stats(&mut resumed).expect("monitor attached");

    assert!(
        cold_stats.prefilter_checks > 0,
        "test never exercised the prefilter"
    );
    assert_eq!(
        behavioral(warm_stats),
        behavioral(cold_stats),
        "monitor behaviour diverged across the checkpoint"
    );
}

fn monitor_of(tracer: Option<&dyn Tracer>) -> &Monitor {
    tracer
        .and_then(|t| t.as_any().downcast_ref::<Monitor>())
        .expect("monitor attached")
}

/// Every piece of mutable monitor state a restore copies: stats, deny
/// log, the prefilter's flow word per pid, and the verify-cache counters.
fn mutable_state(m: &Monitor, pids: &[u32]) -> String {
    let c = m.cache.borrow();
    let flow: Vec<u64> = pids.iter().map(|&p| m.flow_word(p)).collect();
    format!(
        "{:?}\n{:?}\nflow {flow:?}\ncache {:?}",
        m.stats,
        m.deny_log,
        (
            c.ct_hits,
            c.walk_hits,
            c.walk_collisions,
            c.batched_frame_reads,
            c.batched_pointee_reads
        )
    )
}

/// Two environments restored from one attack checkpoint share its
/// read-only tables (metadata and launch info by `Arc`) and nothing
/// mutable: a denied attack in one leaves the other's monitor state, and
/// the checkpoint's, exactly as captured.
#[test]
fn restored_attack_envs_share_tables_and_isolate_monitor_state() {
    let scenario = catalog()
        .into_iter()
        .find(|s| s.id == 1)
        .expect("scenario 1");
    let ck = AttackEnv::deploy(
        scenario.victim,
        Some(ContextConfig::full()),
        scenario.extended_set,
        false,
    )
    .checkpoint();
    let mut attacked = AttackEnv::restore(&ck);
    let bystander = AttackEnv::restore(&ck);
    let pids: Vec<u32> = bystander.world.procs.iter().map(|p| p.pid).collect();
    let other = monitor_of(bystander.world.tracer_ref());
    assert!(other.stats.traps > 0, "boot trapped nothing");
    let captured = mutable_state(other, &pids);

    (scenario.attack)(&mut attacked);
    attacked.settle();
    assert!(
        matches!(
            attacked.defense_fired(),
            Defense::MonitorCt | Defense::MonitorCf | Defense::MonitorAi
        ),
        "scenario 1 was not denied by the monitor: {:?}",
        attacked.defense_fired()
    );
    let denied = monitor_of(attacked.world.tracer_ref());
    assert!(!denied.deny_log.is_empty());
    assert_ne!(mutable_state(denied, &pids), captured);

    assert_eq!(
        mutable_state(other, &pids),
        captured,
        "an attack in one restored env leaked into its sibling"
    );
    let later = AttackEnv::restore(&ck);
    assert_eq!(
        mutable_state(monitor_of(later.world.tracer_ref()), &pids),
        captured,
        "an attack in a restored env leaked into its checkpoint"
    );

    assert!(Arc::ptr_eq(&attacked.metadata, &bystander.metadata));
    assert!(Arc::ptr_eq(&attacked.metadata, &later.metadata));
    assert!(Arc::ptr_eq(&denied.md, &other.md));
    assert!(Arc::ptr_eq(&denied.info, &other.info));
}

/// The root process as an accept-parked victim (no connection of ours).
fn accept_parked(env: &AttackEnv) -> Parked {
    Parked {
        pid: env.root_pid,
        conn: None,
    }
}

/// A world's observable state: totals, every process's scheduler state,
/// the monitor's mutable state, and the fault injector's counters.
fn observed(env: &AttackEnv) -> String {
    let pids: Vec<u32> = env.world.procs.iter().map(|p| p.pid).collect();
    format!(
        "{} | {} | {} | {:?}",
        env.world.summary(),
        env.world.fault_trap_count(),
        mutable_state(monitor_of(env.world.tracer_ref()), &pids),
        env.world.fault_log()
    )
}

/// `park` serves a restored environment from its checkpoint's parked
/// snapshot only while the environment has not changed its world and a
/// fault schedule is installed; the world it hands back is the one a real
/// park leaves, and stays so once the attack runs on. Every mutating
/// primitive, and park itself, makes the next park run for real.
#[test]
fn park_serves_the_parked_snapshot_only_to_an_unchanged_world() {
    let scenario = catalog()
        .into_iter()
        .find(|s| s.id == 1)
        .expect("scenario 1");
    let mut ck = AttackEnv::deploy(
        scenario.victim,
        Some(ContextConfig::full()),
        scenario.extended_set,
        false,
    )
    .checkpoint();
    ck.park_once();
    let fresh = || {
        let mut env = AttackEnv::restore(&ck);
        env.world.install_faults(FaultSchedule::default());
        env
    };

    let mut warm = fresh();
    let parked = warm.park();
    assert!(warm.parked_from_snapshot());
    let mut real = fresh();
    real.write_bytes(real.root_pid, real.image.stack_base + 0x800, &[0]);
    let real_parked = real.park();
    assert!(!real.parked_from_snapshot());
    assert_eq!(
        (parked.pid, parked.conn),
        (real_parked.pid, real_parked.conn)
    );
    assert_eq!(observed(&warm), observed(&real));
    (scenario.attack)(&mut warm);
    (scenario.attack)(&mut real);
    assert_ne!(warm.defense_fired(), Defense::None);
    assert_eq!(observed(&warm), observed(&real));

    type Mutate = fn(&mut AttackEnv);
    let mutators: [(&str, Mutate); 7] = [
        ("write_u64", |e| {
            e.write_u64(e.root_pid, e.image.stack_base + 0x800, 1)
        }),
        ("write_bytes", |e| {
            e.write_bytes(e.root_pid, e.image.stack_base + 0x800, &[1])
        }),
        ("plant_string", |e| {
            e.plant_string(e.root_pid, "x");
        }),
        ("settle", AttackEnv::settle),
        ("wake", |e| e.wake(accept_parked(e))),
        ("send_request", |e| e.send_request(accept_parked(e), b"")),
        ("park", |e| {
            e.park();
        }),
    ];
    for (name, mutate) in mutators {
        let mut env = fresh();
        mutate(&mut env);
        let steps = env.world.steps;
        if name == "park" {
            // The first park came from the snapshot; the second runs.
            assert!(env.parked_from_snapshot());
            env.park();
            assert!(env.world.steps > steps, "a second park was served too");
        } else {
            env.park();
            assert!(
                !env.parked_from_snapshot(),
                "{name} left the world unchanged"
            );
        }
    }
    // Without an installed schedule there are no counters to resume.
    let mut bare = AttackEnv::restore(&ck);
    bare.park();
    assert!(!bare.parked_from_snapshot());
}
