//! End-to-end enforcement tests: compile → load → protect → run, then
//! corrupt state like an attacker and observe which context fires.

use bastion_compiler::BastionCompiler;
use bastion_ir::build::ModuleBuilder;
use bastion_ir::{sysno, Module, Operand, Ty};
use bastion_kernel::{ExitReason, RunStatus, World};
use bastion_monitor::{protect, ContextConfig};
use bastion_vm::{CostModel, Image, Machine};
use std::sync::Arc;

/// A module exercising the Figure 2 shape: main → worker → mmap with
/// constants and memory-backed args, plus an execve upgrade path with a
/// global pathname, plus an mprotect stub that is never called.
fn app() -> Module {
    let mut mb = ModuleBuilder::new("app");
    let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
    let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
    let _mprotect = mb.declare_syscall_stub("mprotect", sysno::MPROTECT, 3);
    let exit = mb.declare_syscall_stub("exit", sysno::EXIT, 1);
    let path = mb.global_str("upgrade_path", "/sbin/upgrade");

    let worker = mb.declare("worker", &[("flags", Ty::I64)], Ty::Void);
    let mut f = mb.define(worker);
    let prots = f.local("prots", Ty::I64);
    let pa = f.frame_addr(prots);
    f.store(pa, 3i64);
    let pa2 = f.frame_addr(prots);
    let pv = f.load(pa2);
    let fa = f.frame_addr(f.param_slot(0));
    let fv = f.load(fa);
    let _ = f.call_direct(
        mmap,
        &[
            0i64.into(),
            4096i64.into(),
            pv.into(),
            fv.into(),
            (-1i64).into(),
            0i64.into(),
        ],
    );
    f.ret(None);
    f.finish();

    let upgrade = mb.declare("upgrade", &[], Ty::Void);
    let mut f = mb.define(upgrade);
    let p = f.global_addr(path);
    let _ = f.call_direct(execve, &[p.into(), 0i64.into(), 0i64.into()]);
    f.ret(None);
    f.finish();

    let mut f = mb.function("main", &[], Ty::I64);
    let flags = f.local("flags", Ty::I64);
    let fa = f.frame_addr(flags);
    f.store(fa, 0x21i64);
    let fa2 = f.frame_addr(flags);
    let fv = f.load(fa2);
    let _ = f.call_direct(worker, &[fv.into()]);
    let _ = f.call_direct(upgrade, &[]);
    let _ = f.call_direct(exit, &[0i64.into()]);
    f.ret(Some(Operand::Imm(0)));
    f.finish();
    mb.finish()
}

struct Setup {
    world: World,
    pid: bastion_kernel::Pid,
}

fn launch(cfg: ContextConfig) -> Setup {
    let out = BastionCompiler::new().compile(app()).unwrap();
    let image = Arc::new(Image::load(out.module.clone()).unwrap());
    let machine = Machine::new(image.clone(), CostModel::default());
    let mut world = World::new(CostModel::default());
    world
        .kernel
        .vfs
        .put_file("/sbin/upgrade", vec![0x7f], 0o755);
    let pid = world.spawn(machine);
    protect(&mut world, pid, &image, &out.metadata, cfg);
    Setup { world, pid }
}

#[test]
fn legitimate_run_is_fully_allowed() {
    let mut s = launch(ContextConfig::full());
    assert_eq!(s.world.run(50_000_000), RunStatus::AllExited);
    let exit = s.world.proc(s.pid).unwrap().exit.clone().unwrap();
    assert_eq!(exit, ExitReason::Exited(0));
    // mmap + execve + exit all trapped (exit is not sensitive — only the
    // two sensitive calls hook the monitor).
    assert_eq!(s.world.trap_count, 2);
    assert_eq!(s.world.kernel.count_of(sysno::MMAP), 1);
    assert_eq!(s.world.kernel.count_of(sysno::EXECVE), 1);
    assert_eq!(s.world.kernel.exec_log.len(), 1);
}

#[test]
fn legitimate_run_passes_each_config() {
    for cfg in [
        ContextConfig::hook_only(),
        ContextConfig::ct(),
        ContextConfig::ct_cf(),
        ContextConfig::full(),
    ] {
        let mut s = launch(cfg);
        assert_eq!(s.world.run(50_000_000), RunStatus::AllExited, "{cfg:?}");
        let exit = s.world.proc(s.pid).unwrap().exit.clone().unwrap();
        assert_eq!(exit, ExitReason::Exited(0), "{cfg:?}");
    }
}

#[test]
fn not_callable_syscall_is_seccomp_killed() {
    // A variant app that *does* call mprotect, compiled against the same
    // metadata built from `app()` (where mprotect is not-callable), would
    // be artificial; instead check the filter action directly through a
    // world run: patch main to call mprotect via its stub.
    let mut m = app();
    let mprotect = m.func_by_name("mprotect").unwrap();
    let main = m.func_by_name("main").unwrap();
    // Prepend a direct call to mprotect in main.
    m.functions[main.index()].blocks[0].insts.insert(
        0,
        bastion_ir::Inst::Call {
            dst: None,
            callee: bastion_ir::Callee::Direct(mprotect),
            args: vec![Operand::Imm(0), Operand::Imm(0), Operand::Imm(7)],
        },
    );
    // Compile metadata from the ORIGINAL app (mprotect unused), load the
    // patched module: models an attacker reaching a not-callable stub.
    let out = BastionCompiler::new().compile(app()).unwrap();
    let image = Arc::new(
        Image::load({
            // Instrument the patched module for a loadable image, but keep the
            // original metadata for the monitor/filter.
            BastionCompiler::new().compile(m).unwrap().module
        })
        .unwrap(),
    );
    let machine = Machine::new(image.clone(), CostModel::default());
    let mut world = World::new(CostModel::default());
    let pid = world.spawn(machine);
    protect(
        &mut world,
        pid,
        &image,
        &out.metadata,
        ContextConfig::full(),
    );
    assert_eq!(world.run(50_000_000), RunStatus::AllExited);
    let exit = world.proc(pid).unwrap().exit.clone().unwrap();
    assert_eq!(
        exit,
        ExitReason::SeccompKill {
            nr: sysno::MPROTECT
        }
    );
    assert_eq!(world.kernel.count_of(sysno::MPROTECT), 0);
}

/// Attack helper: run until the first trap *would* occur by corrupting
/// memory before `worker` passes flags to mmap. We stop the world right
/// after spawn, locate the flags variable in main's frame, and overwrite
/// it with a raw (uninstrumented) write — then let the run continue.
#[test]
fn argument_corruption_is_detected_by_ai() {
    let out = BastionCompiler::new().compile(app()).unwrap();
    let image = Arc::new(Image::load(out.module.clone()).unwrap());
    let mut machine = Machine::new(image.clone(), CostModel::default());

    // Execute instructions manually until the store to `flags` and its
    // ctx_write_mem have run, then corrupt `flags` in memory (raw write,
    // as a heap-overflow attacker would) before the call to worker.
    let main = image.module.func_by_name("main").unwrap();
    let fi = image.frame(main);
    let flags_addr = (image.stack_top - 16) - fi.frame_size + fi.slot_offsets[0];
    let mut corrupted = false;
    let mut world = World::new(CostModel::default());
    world
        .kernel
        .vfs
        .put_file("/sbin/upgrade", vec![0x7f], 0o755);

    // Step until flags holds 0x21 (store executed), let the following
    // ctx_write_mem refresh the shadow copy, then corrupt the variable —
    // exactly the window a heap-overflow attacker has.
    for _ in 0..10_000 {
        use bastion_vm::MemIo;
        if !corrupted && machine.mem.read_u64(flags_addr).unwrap_or(0) == 0x21 {
            let e = bastion_vm::interp::step(&mut machine); // ctx_write_mem
            assert!(matches!(e, bastion_vm::Event::Continue), "premature {e:?}");
            machine
                .mem
                .write_unchecked(flags_addr, &0x7777u64.to_le_bytes());
            corrupted = true;
            break;
        }
        let e = bastion_vm::interp::step(&mut machine);
        assert!(matches!(e, bastion_vm::Event::Continue), "premature {e:?}");
    }
    assert!(corrupted, "never observed the legitimate store");

    let pid = world.spawn(machine);
    protect(
        &mut world,
        pid,
        &image,
        &out.metadata,
        ContextConfig::full(),
    );
    assert_eq!(world.run(50_000_000), RunStatus::AllExited);
    let exit = world.proc(pid).unwrap().exit.clone().unwrap();
    match exit {
        ExitReason::MonitorKill { nr, reason } => {
            assert_eq!(nr, sysno::MMAP);
            assert!(reason.starts_with("AI:"), "wrong context: {reason}");
        }
        other => panic!("attack not caught: {other:?}"),
    }
    // The corrupted mmap never executed.
    assert_eq!(world.kernel.count_of(sysno::MMAP), 0);
}

#[test]
fn ct_and_cf_disabled_still_catch_with_ai() {
    // Same corruption, AI-only configuration.
    let out = BastionCompiler::new().compile(app()).unwrap();
    let image = Arc::new(Image::load(out.module.clone()).unwrap());
    let mut machine = Machine::new(image.clone(), CostModel::default());
    let main = image.module.func_by_name("main").unwrap();
    let fi = image.frame(main);
    let flags_addr = (image.stack_top - 16) - fi.frame_size + fi.slot_offsets[0];
    for _ in 0..10_000 {
        use bastion_vm::MemIo;
        if machine.mem.read_u64(flags_addr).unwrap_or(0) == 0x21 {
            let _ = bastion_vm::interp::step(&mut machine); // ctx_write_mem
            machine
                .mem
                .write_unchecked(flags_addr, &0x7777u64.to_le_bytes());
            break;
        }
        let _ = bastion_vm::interp::step(&mut machine);
    }
    let mut world = World::new(CostModel::default());
    world
        .kernel
        .vfs
        .put_file("/sbin/upgrade", vec![0x7f], 0o755);
    let pid = world.spawn(machine);
    let cfg = ContextConfig {
        call_type: false,
        control_flow: false,
        arg_integrity: true,
        fetch_state: true,
        resilience: bastion_monitor::Resilience::default(),
        prefilter: false,
    };
    protect(&mut world, pid, &image, &out.metadata, cfg);
    assert_eq!(world.run(50_000_000), RunStatus::AllExited);
    let exit = world.proc(pid).unwrap().exit.clone().unwrap();
    assert!(matches!(exit, ExitReason::MonitorKill { .. }), "{exit:?}");
}

#[test]
fn monitor_collects_depth_statistics() {
    // Depth statistics come from monitor walks, so measure with tier 1
    // off — with the prefilter on, every clean trap (including the
    // extended-pointee execve, since the probe rows landed) is settled at
    // classify time and nothing walks.
    let mut s = launch(ContextConfig::full().with_prefilter(false));
    assert_eq!(s.world.run(50_000_000), RunStatus::AllExited);
    assert_eq!(s.world.trap_count, 2);
    assert!(s.world.trace_cycles > 0);
    let tracer = s.world.take_tracer().unwrap();
    let monitor = tracer
        .as_any()
        .downcast_ref::<bastion_monitor::Monitor>()
        .expect("tracer is the BASTION monitor");
    // mmap: stub ← worker ← main = 3 frames; execve: stub ← upgrade ← main.
    assert_eq!(monitor.stats.traps, 2);
    assert_eq!(monitor.stats.min_depth, 3);
    assert_eq!(monitor.stats.max_depth, 3);
    assert!((monitor.stats.avg_depth() - 3.0).abs() < 1e-9);
    assert_eq!(monitor.stats.violations(), 0);
    assert!(monitor.stats.init_cycles > 0);
    assert_eq!(monitor.stats.prefilter_compile_cycles, 0);
    assert_eq!(
        monitor.log,
        vec![(sysno::MMAP, true), (sysno::EXECVE, true)]
    );
}

#[test]
fn clean_traps_all_settle_in_tier_1() {
    // With the prefilter on, the same clean run produces zero escalations
    // and zero walks: the mmap trap hits the direct predicates, and the
    // execve trap — an extended-pointee position — hits its probe row.
    let mut s = launch(ContextConfig::full());
    assert_eq!(s.world.run(50_000_000), RunStatus::AllExited);
    assert_eq!(s.world.trap_count, 2);
    let tracer = s.world.take_tracer().unwrap();
    let monitor = tracer
        .as_any()
        .downcast_ref::<bastion_monitor::Monitor>()
        .expect("tracer is the BASTION monitor");
    assert_eq!(monitor.stats.traps, 2);
    assert_eq!(monitor.stats.prefilter_checks, 2);
    assert_eq!(monitor.stats.prefilter_hits, 2);
    assert_eq!(monitor.stats.prefilter_escalations, 0);
    assert_eq!(monitor.stats.escalations_by_reason(), vec![]);
    // Nothing walked: depth statistics stay at their no-walk sentinel.
    assert_eq!(monitor.stats.frames_walked, 0);
    assert_eq!(monitor.stats.min_depth, 0);
    assert_eq!(monitor.stats.violations(), 0);
    // The one-time tier-1 compile charge is visible separately and folded
    // into init, not into per-trap cost.
    assert!(monitor.stats.prefilter_compile_cycles > 0);
    assert!(monitor.stats.init_cycles > monitor.stats.prefilter_compile_cycles);
    assert_eq!(
        monitor.log,
        vec![(sysno::MMAP, true), (sysno::EXECVE, true)]
    );
}

/// `main` → `reenter` → `main` → `mmap`: the direct callsite in `reenter`
/// really does target `main`, but the Control-Flow analysis stops at
/// `main` and records no callers for it, so the strict pairwise check
/// denies the walk (`InvalidCaller`). Tier 1 mirrors the check and
/// escalates, so the two-tier configuration issues the same deny.
#[test]
fn direct_call_into_main_is_an_invalid_caller() {
    let mut mb = ModuleBuilder::new("reentry");
    let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
    let depth = mb.global("depth", Ty::I64, bastion_ir::GlobalInit::Zero);
    let main = mb.declare("main", &[], Ty::I64);
    let reenter = mb.declare("reenter", &[], Ty::Void);

    let mut f = mb.define(reenter);
    let _ = f.call_direct(main, &[]);
    f.ret(None);
    f.finish();

    let mut f = mb.define(main);
    let (first, again) = (f.new_block(), f.new_block());
    let da = f.global_addr(depth);
    let d = f.load(da);
    let is_first = f.cmp(bastion_ir::CmpOp::Eq, d, 0i64);
    f.br(is_first, first, again);
    f.switch_to(first);
    let da = f.global_addr(depth);
    f.store(da, 1i64);
    let _ = f.call_direct(reenter, &[]);
    f.ret(Some(Operand::Imm(0)));
    f.switch_to(again);
    let args = [0i64, 4096, 3, 0x21, -1, 0].map(Operand::from);
    let _ = f.call_direct(mmap, &args);
    f.ret(Some(Operand::Imm(0)));
    f.finish();

    let out = BastionCompiler::new().compile(mb.finish()).unwrap();
    let image = Arc::new(Image::load(out.module).unwrap());
    for cfg in [ContextConfig::ct_cf(), ContextConfig::full()] {
        let mut world = World::new(CostModel::default());
        let pid = world.spawn(Machine::new(image.clone(), CostModel::default()));
        protect(&mut world, pid, &image, &out.metadata, cfg);
        assert_eq!(world.run(50_000_000), RunStatus::AllExited, "{cfg:?}");
        match world.proc(pid).unwrap().exit.clone().unwrap() {
            ExitReason::MonitorKill { nr, reason } => {
                assert_eq!(nr, sysno::MMAP);
                assert!(
                    reason.starts_with("CF: ") && reason.contains("is not a valid caller of"),
                    "{cfg:?}: {reason}"
                );
            }
            other => panic!("{cfg:?}: re-entered main was not denied: {other:?}"),
        }
        assert_eq!(world.kernel.count_of(sysno::MMAP), 0);
    }
}
