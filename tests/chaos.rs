//! Chaos suite: seeded deterministic fault injection against benign
//! workloads and the Table 6 attack catalog (DESIGN.md §6d).
//!
//! Invariants enforced here:
//!
//! * the monitor **never panics** under injected substrate faults (every
//!   test doubles as a panic probe — the harness runs in-process);
//! * a blocked attack **never flips to Allow** under any fault schedule;
//! * every rung of the degradation ladder — `Full`, `Degraded`,
//!   `FailClosed` — is reachable and visible in [`MonitorStats`].
//!
//! All seeds are pinned: a failure replays bit-for-bit.

use bastion::chaos::{attack_chaos, attack_chaos_mode, benign_chaos, AttackChaosReport};
use bastion::{Deployment, Protection};
use bastion_apps::App;
use bastion_ir::build::ModuleBuilder;
use bastion_ir::{sysno, CmpOp, Module, Operand, Ty};
use bastion_kernel::{
    DenyContext, ExitReason, FaultKind, FaultSchedule, RunStatus, Trigger, World,
};
use bastion_monitor::{ContextConfig, MonitorMode, Resilience};

/// A request volume large enough to produce a dozen monitor traps
/// (accept4 is sensitive, so every served connection traps at least once).
const REQUESTS: u64 = 12;

// ---------------------------------------------------------------------------
// Degradation-ladder rungs (benign workload under targeted fault windows)
// ---------------------------------------------------------------------------

#[test]
fn ladder_full_rung_on_clean_run() {
    let r = benign_chaos(
        App::Webserve,
        ContextConfig::full(),
        FaultSchedule::new(0xC1EA_0001),
        REQUESTS,
    );
    let stats = r.stats.expect("monitor attached");
    assert_eq!(stats.mode, MonitorMode::Full, "{stats:?}");
    assert_eq!(stats.substrate_strikes, 0);
    assert_eq!(stats.mode_transitions, 0);
    assert_eq!(stats.fc_violations, 0);
    assert_eq!(r.faults_fired, 0, "empty schedule must inject nothing");
    assert!(r.survived, "clean run must not kill the server");
    assert_eq!(r.served, r.attempted, "clean run serves everything");
    assert!(r.served > 0);
}

#[test]
fn ladder_degraded_rung_after_retry_exhaustion() {
    // Two fully-faulted traps exhaust retries twice; with degrade_after=2
    // (and a fail-closed threshold out of reach) the monitor lands on the
    // Degraded rung and stays there.
    let res = Resilience {
        degrade_after: 2,
        fail_closed_after: 100,
        ..Resilience::default()
    };
    let r = benign_chaos(
        App::Webserve,
        ContextConfig::full().with_resilience(res),
        FaultSchedule::new(0xDE6_0001)
            .with(FaultKind::ReadError, Trigger::TrapRange { from: 1, to: 2 }),
        REQUESTS,
    );
    let stats = r.stats.expect("monitor attached");
    assert_eq!(stats.mode, MonitorMode::Degraded, "{stats:?}");
    assert_eq!(stats.substrate_strikes, 2);
    assert_eq!(stats.mode_transitions, 1);
    assert!(stats.retries > 0, "failures must be retried first");
    // Full config has CF+AI enabled: a degraded monitor cannot verify
    // them, so every subsequent trap is denied fail-closed.
    assert!(stats.fc_violations > 0, "{stats:?}");
}

#[test]
fn ladder_degraded_ct_only_keeps_serving() {
    // The Degraded rung means *CT-only* verification: a configuration
    // that never needed more than CT keeps serving traffic after the
    // substrate strikes, it does not fail closed.
    let res = Resilience {
        degrade_after: 2,
        fail_closed_after: 100,
        ..Resilience::default()
    };
    let r = benign_chaos(
        App::Webserve,
        ContextConfig::ct().with_resilience(res),
        FaultSchedule::new(0xDE6_0002)
            .with(FaultKind::ReadError, Trigger::TrapRange { from: 1, to: 2 }),
        REQUESTS,
    );
    let stats = r.stats.expect("monitor attached");
    assert_eq!(stats.mode, MonitorMode::Degraded, "{stats:?}");
    assert!(r.survived, "CT-only service survives degradation");
    assert!(r.served > 0, "degraded CT-only monitor still serves");
    // The only fail-closed denials are the faulted traps themselves (each
    // strike denies its in-flight trap); every trap *after* degradation is
    // still CT-verifiable and allowed.
    assert_eq!(
        stats.fc_violations, stats.substrate_strikes,
        "CT stays verifiable after degradation: {stats:?}"
    );
    assert!(
        stats.traps > stats.substrate_strikes,
        "traffic continued past the strikes: {stats:?}"
    );
}

#[test]
fn ladder_fail_closed_rung_after_repeated_failures() {
    let res = Resilience {
        degrade_after: 1,
        fail_closed_after: 2,
        ..Resilience::default()
    };
    let r = benign_chaos(
        App::Webserve,
        ContextConfig::full().with_resilience(res),
        FaultSchedule::new(0xFC_0001)
            .with(FaultKind::ReadError, Trigger::TrapRange { from: 1, to: 2 }),
        REQUESTS,
    );
    let stats = r.stats.expect("monitor attached");
    assert_eq!(stats.mode, MonitorMode::FailClosed, "{stats:?}");
    assert_eq!(stats.substrate_strikes, 2);
    // Full -> Degraded -> FailClosed: two rungs descended.
    assert_eq!(stats.mode_transitions, 2);
    assert!(
        stats.fc_violations > 0,
        "fail-closed monitor denies without touching the tracee: {stats:?}"
    );
}

#[test]
fn watchdog_deadline_denies_slow_verification() {
    // A 200k-cycle stall against a 50k-cycle trap deadline: the watchdog
    // must catch the overrun, deny the trap, and record a strike.
    let res = Resilience::with_deadline(50_000);
    let r = benign_chaos(
        App::Webserve,
        ContextConfig::full().with_resilience(res),
        FaultSchedule::new(0xDEAD_0001).with(
            FaultKind::Stall { cycles: 200_000 },
            Trigger::TrapRange { from: 1, to: 1 },
        ),
        REQUESTS,
    );
    let stats = r.stats.expect("monitor attached");
    assert!(stats.watchdog_overruns > 0, "{stats:?}");
    assert!(stats.watchdog_denies > 0, "{stats:?}");
    assert!(stats.substrate_strikes > 0, "{stats:?}");
}

#[test]
fn benign_mix_chaos_never_panics_any_app() {
    // Unfocused chaos: a Mix fault on every 7th substrate access, across
    // all three applications. The service may degrade or die — the
    // monitor must neither panic nor mis-account.
    for (app, seed) in [
        (App::Webserve, 0x0B5E_0001u64),
        (App::Dbkv, 0x0B5E_0002),
        (App::Ftpd, 0x0B5E_0003),
    ] {
        let r = benign_chaos(app, ContextConfig::full(), FaultSchedule::chaos(seed, 7), 6);
        let stats = r.stats.expect("monitor attached");
        assert!(
            stats.traps > 0,
            "{app:?}: chaos run produced no traps at all"
        );
        // Whatever happened, the ladder is a coherent story: transitions
        // only happen on strikes.
        assert!(
            stats.mode == MonitorMode::Full || stats.substrate_strikes > 0,
            "{app:?}: mode {:?} without a recorded strike",
            stats.mode
        );
    }
}

// ---------------------------------------------------------------------------
// Attack catalog under chaos: faults must never flip a Deny to an Allow
// ---------------------------------------------------------------------------

/// One representative scenario per Table 6 section plus an AI-only data
/// attack — the rows where a masked verification step would be most
/// dangerous. The full 32-row matrix runs in
/// `full_catalog_stays_contained_under_chaos` and in `bastion chaos`.
const REPRESENTATIVE: &[u32] = &[1, 14, 19, 30];

fn assert_catalog_contained(ids: &[u32], seeds: &[u64]) {
    let catalog = bastion_attacks::catalog();
    let mut fired_total = 0u64;
    for &id in ids {
        let s = catalog
            .iter()
            .find(|s| s.id == id)
            .expect("scenario id exists");
        for report in attack_chaos(s, ContextConfig::full(), seeds) {
            fired_total += report.faults_fired;
            assert!(
                report.attack_contained(),
                "#{} {} flipped to Allow under `{}` faults (seed {:#x}): {:?}",
                report.id,
                report.name,
                report.schedule,
                report.seed,
                report.outcome
            );
        }
    }
    assert!(fired_total > 0, "chaos matrix never injected a fault");
}

#[test]
fn representative_attacks_stay_contained_under_chaos() {
    assert_catalog_contained(REPRESENTATIVE, &[0xA77C_0001]);
}

#[test]
fn full_catalog_stays_contained_under_chaos() {
    let ids: Vec<u32> = bastion_attacks::catalog().iter().map(|s| s.id).collect();
    assert_catalog_contained(&ids, &[0xA77C_0001, 0xA77C_0002]);
}

/// A report with the fields that may differ between warm and cold cells
/// cleared: whether park came from the parked snapshot, and the page
/// totals, which count copy-on-write sharing.
fn comparable(mut r: AttackChaosReport) -> String {
    r.parked_from_snapshot = false;
    if let Some(s) = &mut r.stats {
        s.resident_pages = 0;
        s.snapshot_shared_pages = 0;
    }
    format!("{r:?}")
}

/// Warm cells, forked from a checkpoint parked once, report exactly what
/// cold cells do. Scenario 1 (webserve) attacks past park's traps, so
/// every warm cell restores the parked world; scenario 10 (ftpd) is
/// faulted inside park's traps, so every warm cell parks for real.
#[test]
fn warm_cells_from_the_parked_snapshot_match_cold_cells() {
    let catalog = bastion_attacks::catalog();
    for (id, from_snapshot) in [(1, true), (10, false)] {
        let s = catalog
            .iter()
            .find(|s| s.id == id)
            .expect("scenario id exists");
        let seeds = [0xA77C_0001];
        let warm = attack_chaos_mode(s, ContextConfig::full(), &seeds, false);
        let cold = attack_chaos_mode(s, ContextConfig::full(), &seeds, true);
        assert_eq!(warm.len(), cold.len());
        assert!(
            warm.iter().all(|r| r.parked_from_snapshot == from_snapshot),
            "#{id}"
        );
        assert!(cold.iter().all(|r| !r.parked_from_snapshot), "#{id}");
        assert!(warm.iter().any(|r| r.faults_fired > 0), "#{id}");
        for (w, c) in warm.into_iter().zip(cold) {
            assert_eq!(comparable(w), comparable(c), "#{id}");
        }
    }
}

// ---------------------------------------------------------------------------
// Walk-cache × shadow-rebind regression guard (PR 1 bind_key aliasing),
// now also exercised under injected shadow faults
// ---------------------------------------------------------------------------

/// A module whose main loops a fixed call chain over a sensitive syscall:
/// `main -> worker(prot) -> mmap(0, 4096, prot, 0x21, -1, 0)` twice. The
/// `prot` local in main's frame is the monitored sensitive variable: it is
/// stored once before the loop (`rebind_per_iter = false`) or freshly per
/// iteration (`true`), so both traps present the *identical* frame chain —
/// the walk-cache hot case — while the argument provenance spans frames,
/// exactly the shape the AI propagation chain verifies.
fn looped_mmap_app(rebind_per_iter: bool) -> Module {
    let mut mb = ModuleBuilder::new("loopapp");
    let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
    let exit = mb.declare_syscall_stub("exit", sysno::EXIT, 1);

    let worker = mb.declare("worker", &[("prot", Ty::I64)], Ty::Void);
    let mut f = mb.define(worker);
    let pa = f.frame_addr(f.param_slot(0));
    let pv = f.load(pa);
    let _ = f.call_direct(
        mmap,
        &[
            0i64.into(),
            4096i64.into(),
            pv.into(),
            0x21i64.into(),
            (-1i64).into(),
            0i64.into(),
        ],
    );
    f.ret(None);
    f.finish();

    let mut f = mb.function("main", &[], Ty::I64);
    let prot = f.local("prot", Ty::I64); // slot 0: the corruption target
    let i = f.local("i", Ty::I64);
    let j = f.local("j", Ty::I64);
    let pa = f.frame_addr(prot);
    f.store(pa, 3i64);
    let ia = f.frame_addr(i);
    f.store(ia, 0i64);
    let head = f.new_block();
    let body = f.new_block();
    let burn_head = f.new_block();
    let burn_body = f.new_block();
    let incr = f.new_block();
    let done = f.new_block();
    f.jmp(head);
    f.switch_to(head);
    let ia = f.frame_addr(i);
    let iv = f.load(ia);
    let c = f.cmp(CmpOp::Lt, iv, 2i64);
    f.br(c, body, done);
    f.switch_to(body);
    if rebind_per_iter {
        // A different legitimate value each iteration: 3, then 1. The
        // instrumented store refreshes the shadow copy (rebind), and the
        // monitor must verify each trap against the *fresh* shadow state
        // even though the walked chain is cache-identical.
        let ia = f.frame_addr(i);
        let iv = f.load(ia);
        let two = f.bin(bastion_ir::BinOp::Mul, iv, 2i64);
        let v = f.bin(bastion_ir::BinOp::Sub, 3i64, two);
        let pa = f.frame_addr(prot);
        f.store(pa, v);
    }
    let pa = f.frame_addr(prot);
    let pv = f.load(pa);
    let _ = f.call_direct(worker, &[pv.into()]);
    // Burn ~100k instructions between iterations: the world scheduler runs
    // whole 512-step quanta, so without a wide inter-trap window a test
    // cannot interleave a corruption between the two traps.
    let ja = f.frame_addr(j);
    f.store(ja, 0i64);
    f.jmp(burn_head);
    f.switch_to(burn_head);
    let ja = f.frame_addr(j);
    let jv = f.load(ja);
    let c = f.cmp(CmpOp::Lt, jv, 20_000i64);
    f.br(c, burn_body, incr);
    f.switch_to(burn_body);
    let ja = f.frame_addr(j);
    let jv = f.load(ja);
    let jn = f.bin(bastion_ir::BinOp::Add, jv, 1i64);
    let ja = f.frame_addr(j);
    f.store(ja, jn);
    f.jmp(burn_head);
    f.switch_to(incr);
    let ia = f.frame_addr(i);
    let iv = f.load(ia);
    let next = f.bin(bastion_ir::BinOp::Add, iv, 1i64);
    let ia = f.frame_addr(i);
    f.store(ia, next);
    f.jmp(head);
    f.switch_to(done);
    let _ = f.call_direct(exit, &[0i64.into()]);
    f.ret(Some(Operand::Imm(0)));
    f.finish();
    mb.finish()
}

struct LoopSetup {
    world: World,
    pid: bastion_kernel::Pid,
    /// Runtime address of main's `prot` slot.
    prot_addr: u64,
}

fn launch_loop(rebind_per_iter: bool, cfg: ContextConfig) -> LoopSetup {
    let d = Deployment::from_module(looped_mmap_app(rebind_per_iter)).expect("loop app compiles");
    let main = d.image.module.func_by_name("main").expect("main exists");
    let fi = d.image.frame(main);
    let prot_addr = (d.image.stack_top - 16) - fi.frame_size + fi.slot_offsets[0];
    let mut world = d.world();
    let protection = Protection {
        monitor: Some(cfg),
        ..Protection::vanilla()
    };
    let pid = d.launch(&mut world, &protection);
    LoopSetup {
        world,
        pid,
        prot_addr,
    }
}

fn monitor_stats(world: &mut World) -> bastion_monitor::MonitorStats {
    bastion::chaos::monitor_stats(world).expect("monitor attached")
}

#[test]
fn walk_cache_honors_shadow_rebind_between_identical_chains() {
    // Without AI the identical chains share one cached walk verdict...
    let mut s = launch_loop(true, ContextConfig::ct_cf());
    assert_eq!(s.world.run(50_000_000), RunStatus::AllExited);
    let exit = s.world.proc(s.pid).unwrap().exit.clone().unwrap();
    assert_eq!(exit, ExitReason::Exited(0));
    assert_eq!(s.world.trap_count, 2);
    let stats = monitor_stats(&mut s.world);
    assert!(
        stats.walk_cache_hits >= 1,
        "identical chains must hit the walk cache: {stats:?}"
    );

    // ...and with AI enabled too: the cache holds only the chain verdict,
    // while argument values legally change between identical chains (the
    // per-iteration rebind), so every trap re-verifies its arguments
    // against the fresh shadow state. Tier 2 only: the prefilter would
    // settle both traps before the monitor's walk cache is consulted.
    let mut s = launch_loop(true, ContextConfig::full().with_prefilter(false));
    assert_eq!(s.world.run(50_000_000), RunStatus::AllExited);
    let exit = s.world.proc(s.pid).unwrap().exit.clone().unwrap();
    assert_eq!(exit, ExitReason::Exited(0), "fresh shadow values must pass");
    assert_eq!(s.world.trap_count, 2);
    let stats = monitor_stats(&mut s.world);
    assert!(
        stats.walk_cache_hits >= 1,
        "AI traps reuse the cached chain verdict: {stats:?}"
    );
}

/// Runs the loop app until the first trap completed, then corrupts the
/// bound frame slot without a shadow refresh (the data-attack primitive)
/// and lets the run finish.
fn corrupt_after_first_trap(s: &mut LoopSetup) {
    // Tiny slices: the window between trap 1 retiring and iteration 2
    // re-loading the variable is a few hundred cycles; a coarse slice
    // would overshoot straight through trap 2.
    let mut guard = 0;
    while s.world.trap_count < 1 {
        s.world.run(100);
        guard += 1;
        assert!(guard < 10_000_000, "first trap never arrived");
    }
    let m = &mut s.world.proc_mut(s.pid).expect("alive").machine;
    m.mem.write_unchecked(s.prot_addr, &5i64.to_le_bytes());
}

#[test]
fn cached_chain_does_not_skip_argument_verification() {
    // With the prefilter on, tier 1 settles both traps. Tier 2 only, the
    // second trap's chain is identical to the first, so its chain verdict
    // comes from the walk cache; the corrupted argument must still be
    // denied either way.
    for (cfg, tier2_only) in [
        (ContextConfig::full(), false),
        (ContextConfig::full().with_prefilter(false), true),
    ] {
        let mut s = launch_loop(false, cfg);
        corrupt_after_first_trap(&mut s);
        s.world.run(50_000_000);
        let exit = s.world.proc(s.pid).unwrap().exit.clone().unwrap();
        match &exit {
            ExitReason::MonitorKill { reason, .. } => {
                assert_eq!(
                    reason.context,
                    DenyContext::ArgIntegrity,
                    "wrong context fired: {reason}"
                )
            }
            other => panic!("corrupted argument was allowed: {other:?}"),
        }
        let stats = monitor_stats(&mut s.world);
        assert_eq!(stats.ai_violations, 1, "{stats:?}");
        if tier2_only {
            assert!(stats.walk_cache_hits >= 1, "{stats:?}");
        }
    }
}

#[test]
fn corrupted_argument_still_denied_under_injected_shadow_faults() {
    // The same data attack, but the monitor's shadow reads at the second
    // trap are hit by bit flips. Whatever the flip lands on — key, meta,
    // value, or a harmless spare bit — the corrupted argument must still
    // be denied: as a checksum quarantine (FC/AI) or as the plain value
    // mismatch. Several seeds cover different flip positions.
    for seed in [1u64, 2, 3, 4, 5] {
        let mut s = launch_loop(false, ContextConfig::full());
        s.world.install_faults(
            FaultSchedule::new(seed).with(FaultKind::ShadowBitFlip, Trigger::OnTrap(2)),
        );
        corrupt_after_first_trap(&mut s);
        s.world.run(50_000_000);
        let exit = s.world.proc(s.pid).unwrap().exit.clone().unwrap();
        match &exit {
            ExitReason::MonitorKill { reason, .. } => assert!(
                matches!(
                    reason.context,
                    DenyContext::ArgIntegrity | DenyContext::FailClosed
                ),
                "seed {seed}: wrong context fired: {reason}"
            ),
            other => panic!("seed {seed}: corrupted argument was allowed: {other:?}"),
        }
    }
}
