//! Differential suite: the predecoded fast path and the legacy
//! tree-walking interpreter must be observably identical — same `Event`
//! streams, exit codes, virtual cycle totals, Table 6 verdicts, and app
//! benchmark results, bit for bit.
//!
//! The interpreter is selected per-world via the thread-local
//! [`bastion::kernel::set_thread_legacy_interp`] switch, so whole-stack
//! code paths (harness, attack scenarios) run unmodified on either engine.

use bastion::apps::{App, ALL_APPS};
use bastion::attacks::{catalog, evaluate, ScenarioResult};
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use bastion::ir::build::ModuleBuilder;
use bastion::ir::layout::INST_SIZE;
use bastion::ir::{BinOp, CmpOp, CodeAddr, Inst, IntrinsicOp, Module, Operand, Ty};
use bastion::kernel::LegacyInterpGuard;
use bastion::vm::{interp, CostModel, DecodedInst, Event, Image, ImageBuilder, Machine};
use bastion::Protection;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Runs `f` with the thread-local legacy-interpreter default set; the RAII
/// guard restores the previous engine even if `f` panics, so one failing
/// differential test cannot poison the engine selection of whatever test
/// the harness schedules next on this thread.
fn on_legacy<T>(f: impl FnOnce() -> T) -> T {
    let _guard = LegacyInterpGuard::set(true);
    f()
}

fn assert_benchmarks_identical(fast: &AppBenchmark, legacy: &AppBenchmark) {
    assert_eq!(
        fast.metric.to_bits(),
        legacy.metric.to_bits(),
        "{:?}/{}: metric diverged: {} vs {}",
        fast.app,
        fast.protection,
        fast.metric,
        legacy.metric
    );
    assert_eq!(fast.cycles, legacy.cycles, "cycle totals diverged");
    assert_eq!(fast.steps, legacy.steps, "retired step counts diverged");
    assert_eq!(fast.trace_cycles, legacy.trace_cycles);
    assert_eq!(fast.traps, legacy.traps);
    assert_eq!(fast.syscall_counts, legacy.syscall_counts);
}

fn app_differential(app: App, protection: &Protection) {
    let size = WorkloadSize::quick();
    let compiler = BastionCompiler::new();
    let cost = CostModel::default();
    let fast = run_app_benchmark(app, protection, &size, &compiler, cost);
    let legacy = on_legacy(|| run_app_benchmark(app, protection, &size, &compiler, cost));
    assert_benchmarks_identical(&fast, &legacy);
}

#[test]
fn webserve_identical_on_both_interpreters() {
    app_differential(App::Webserve, &Protection::vanilla());
    app_differential(App::Webserve, &Protection::full());
}

#[test]
fn dbkv_identical_on_both_interpreters() {
    app_differential(App::Dbkv, &Protection::full());
}

#[test]
fn ftpd_identical_on_both_interpreters() {
    app_differential(App::Ftpd, &Protection::full());
}

fn assert_verdicts_identical(fast: &ScenarioResult, legacy: &ScenarioResult) {
    assert_eq!(
        fast.ground_truth, legacy.ground_truth,
        "#{} ground truth diverged",
        fast.id
    );
    assert_eq!(
        fast.full_blocked, legacy.full_blocked,
        "#{} full-BASTION verdict diverged",
        fast.id
    );
    assert_eq!(
        fast.observed, legacy.observed,
        "#{} context matrix diverged",
        fast.id
    );
    assert_eq!(fast.expected, legacy.expected);
}

fn table6_differential(ids: &[u32]) {
    let cat = catalog();
    for id in ids {
        let s = cat.iter().find(|s| s.id == *id).expect("scenario exists");
        let fast = evaluate(s);
        let legacy = on_legacy(|| evaluate(s));
        assert_verdicts_identical(&fast, &legacy);
    }
}

/// One scenario per Table 6 section, both engines (debug-budget subset).
#[test]
fn table6_representative_verdicts_identical() {
    table6_differential(&[1, 14, 19, 25, 32]);
}

/// The full 32-scenario matrix on both engines.
#[test]
fn table6_full_matrix_identical() {
    let all: Vec<u32> = catalog().iter().map(|s| s.id).collect();
    assert_eq!(all.len(), 32);
    table6_differential(&all);
}

// ---- random-IR step-for-step equivalence ----

/// Units in `random_module`'s `helper`. Not a multiple of four, so
/// alignment padding follows it.
const HELPER_UNITS: u64 = 5;

/// Offsets from `helper`'s entry that `random_module`'s indirect calls
/// target: the entry, one unit in, a misaligned address, and the padding
/// after `helper`.
const INDIRECT_OFFSETS: [u64; 4] = [0, INST_SIZE, 1, HELPER_UNITS * INST_SIZE];

/// Builds a random (but valid) module from fuzz bytes: forward-only
/// control flow over `nblocks` chained blocks, instructions drawn from the
/// whole menu (arithmetic incl. faulting div, loads/stores incl. wild
/// ones, direct and indirect calls, syscalls, intrinsics, and the shapes
/// every superinstruction fuses), and block ends that branch on a fresh
/// comparison or store and jump, so every interpreter path is exercised,
/// each superinstruction and the code-address resolver included.
fn random_module(nblocks: usize, ops: &[u8]) -> Module {
    let mut mb = ModuleBuilder::new("rand");
    let getpid = mb.declare_syscall_stub("getpid", 39, 0);
    let helper = mb.declare("helper", &[("x", Ty::I64)], Ty::I64);
    {
        let mut f = mb.define(helper);
        let a = f.frame_addr(f.param_slot(0));
        let v = f.load(a);
        let d = f.bin(BinOp::Mul, v, 3i64);
        // Pads `helper` to HELPER_UNITS.
        let d = f.bin(BinOp::Add, d, 0i64);
        f.ret(Some(d.into()));
        f.finish();
    }
    let mut f = mb.function("main", &[], Ty::I64);
    let la = f.local("a", Ty::I64);
    let lb = f.local("b", Ty::I64);
    let chain: Vec<_> = (1..nblocks).map(|_| f.new_block()).collect();
    let mut regs: Vec<bastion::ir::Reg> = Vec::new();
    let per_block = ops.len() / nblocks.max(1) + 1;
    let mut chunks = ops.chunks(per_block.max(1));
    for bi in 0..nblocks {
        let body = chunks.next().unwrap_or(&[]);
        for pair in body.chunks(2) {
            let (sel, arg) = (pair[0], *pair.get(1).unwrap_or(&0));
            let pick = |regs: &[bastion::ir::Reg]| -> Operand {
                if regs.is_empty() || arg & 1 == 0 {
                    Operand::Imm(i64::from(arg) - 64)
                } else {
                    regs[arg as usize % regs.len()].into()
                }
            };
            match sel % 18 {
                0 => regs.push(f.mov(i64::from(arg))),
                1 => {
                    let (a, b) = (pick(&regs), pick(&regs));
                    regs.push(f.bin(BinOp::Add, a, b));
                }
                2 => {
                    // May divide by zero: the fault path must agree too.
                    let (a, b) = (pick(&regs), pick(&regs));
                    regs.push(f.bin(BinOp::Div, a, b));
                }
                3 => {
                    let (a, b) = (pick(&regs), pick(&regs));
                    regs.push(f.cmp(CmpOp::Lt, a, b));
                }
                4 => {
                    let a = f.frame_addr(la);
                    let v = pick(&regs);
                    f.store(a, v);
                }
                5 => {
                    let a = f.frame_addr(lb);
                    regs.push(f.load(a));
                }
                6 => {
                    let base = f.frame_addr(la);
                    let idx = pick(&regs);
                    regs.push(f.index_addr(base, 8, idx));
                }
                7 => {
                    let v = pick(&regs);
                    regs.push(f.call_direct(helper, &[v]));
                }
                8 => regs.push(f.call_direct(getpid, &[])),
                9 => {
                    let (a, b) = (pick(&regs), pick(&regs));
                    regs.push(f.bin(BinOp::Shl, a, b));
                }
                10 => {
                    let a = f.frame_addr(la);
                    f.emit(Inst::Intrinsic(IntrinsicOp::CtxWriteMem {
                        addr: a.into(),
                        size: 8,
                    }));
                }
                11 => {
                    let a = f.frame_addr(lb);
                    f.emit(Inst::Intrinsic(IntrinsicOp::CtxBindMem {
                        pos: 1 + arg % 6,
                        addr: a.into(),
                    }));
                    f.emit(Inst::Intrinsic(IntrinsicOp::CtxBindConst {
                        pos: 1 + arg % 6,
                        value: i64::from(arg),
                    }));
                }
                12 => {
                    // Entry + 1 unit faults (its load goes through a
                    // zeroed register); misaligned and padding targets
                    // are bad jumps.
                    let entry = f.func_addr(helper);
                    let off = INDIRECT_OFFSETS[arg as usize % INDIRECT_OFFSETS.len()];
                    let t = f.bin(BinOp::Add, entry, off as i64);
                    let v = pick(&regs);
                    regs.push(f.call_indirect(t, &[v]));
                }
                13 => {
                    // Wild store: faults on unmapped memory on both paths.
                    let v = pick(&regs);
                    f.store(Operand::Imm(0x10 + i64::from(arg)), v);
                }
                14 => {
                    // Two frame loads in a row: a `FrameLoad2`.
                    let a = f.frame_addr(la);
                    regs.push(f.load(a));
                    let b = f.frame_addr(lb);
                    regs.push(f.load(b));
                }
                15 => {
                    // A frame load and a `Bin` on it: a `FrameLoadBin`,
                    // whose `Bin` may divide by zero.
                    let a = f.frame_addr(lb);
                    let v = f.load(a);
                    let op = if arg & 4 == 0 { BinOp::Add } else { BinOp::Div };
                    let b = pick(&regs);
                    regs.push(f.bin(op, v, b));
                }
                16 => {
                    // A `Bin` and the frame store of its result: a
                    // `BinFrameStore`.
                    let op = if arg & 4 == 0 { BinOp::Sub } else { BinOp::Rem };
                    let (a, b) = (pick(&regs), pick(&regs));
                    let v = f.bin(op, a, b);
                    regs.push(v);
                    let s = f.frame_addr(lb);
                    f.store(s, v);
                }
                _ => {
                    // An indexed load off a local: an `IndexLoad`, which
                    // may leave the stack.
                    let base = f.frame_addr(la);
                    let idx = pick(&regs);
                    let p = f.index_addr(base, 8, idx);
                    regs.push(f.load(p));
                }
            }
        }
        if bi + 1 < nblocks {
            // Forward-only: terminates by construction.
            let next = chain[bi];
            let skip = chain[(bi + 1).min(chain.len() - 1)];
            match (body.first().map_or(0, |&b| b % 4), regs.last().copied()) {
                (_, None) => f.jmp(next),
                (0, Some(c)) => f.br(c, next, skip),
                (3, Some(c)) => {
                    // A frame store then the Jmp: a `FrameStoreJmp`.
                    let a = f.frame_addr(la);
                    f.store(a, c);
                    f.jmp(next);
                }
                (k, Some(c)) => {
                    // Cmp then Br on its result: decodes to a `CmpBr`.
                    let op = CMP_OPS[body.len() % CMP_OPS.len()];
                    let c = f.cmp(op, c, i64::from(k) - 1);
                    regs.push(c);
                    f.br(c, next, skip);
                }
            }
            f.switch_to(next);
        } else {
            let v = regs.last().map(|r| Operand::from(*r));
            f.ret(v);
        }
    }
    f.finish();
    mb.finish()
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

#[test]
fn random_module_covers_fused_branches_and_every_indirect_target() {
    // 34 bytes over 3 blocks: 12 bytes (6 ops) per block, 10 in the last.
    let ops = [
        1, 3, 12, 0, 12, 1, 12, 2, 12, 3, 0, 5, // indirect calls, then a CmpBr
        15, 0, 14, 0, 16, 0, 17, 0, 4, 1, 0, 2, // fused shapes, then a FrameStoreJmp
        5, 0, 0, 0, 0, 0, 0, 0, 0, 0, // a FrameLoad
    ];
    let img = Image::load(random_module(3, &ops)).unwrap();
    let prog = &img.decoded;
    let helper = img.module.func_by_name("helper").unwrap();
    let entry = img.layout.func_entry(helper).raw();
    let landed: Vec<Option<DecodedInst>> = INDIRECT_OFFSETS
        .iter()
        .map(|off| prog.resolve(entry + off).map(|u| prog.inst(u)))
        .collect();
    assert!(matches!(landed[0], Some(DecodedInst::FrameLoadBin { .. })));
    assert!(matches!(landed[1], Some(DecodedInst::Load { .. })));
    assert_eq!(landed[2], None);
    assert_eq!(landed[3], None);
    let pad = prog.unit_of_addr(entry + INDIRECT_OFFSETS[3]);
    assert_eq!(prog.inst(pad), DecodedInst::Pad);
    let units = prog.insts();
    assert!(units
        .iter()
        .any(|u| matches!(u, DecodedInst::CallIndirect { .. })));
    // Every superinstruction kind: a unit that covers a run.
    let fused: HashSet<_> = units
        .iter()
        .filter(|u| u.run_len() > 1)
        .map(std::mem::discriminant)
        .collect();
    assert_eq!(fused.len(), 8, "superinstruction kinds in {units:?}");
}

/// Code addresses from 64 bytes below the code segment to one unit past
/// its end resolve to the same instruction through the predecoded
/// program's resolver as through the layout, for each app's protected
/// image with and without an ASLR slide.
#[test]
fn resolver_agrees_with_the_layout_on_every_code_address() {
    for app in ALL_APPS {
        let out = BastionCompiler::new()
            .compile(app.module().expect("app parses"))
            .expect("app compiles");
        for builder in [ImageBuilder::new(), ImageBuilder::new().aslr_seed(7)] {
            let img = builder.build(out.module.clone()).expect("app image loads");
            let prog = &img.decoded;
            let (base, end) = (img.layout.code_base().raw(), img.layout.code_end().raw());
            for a in base - 64..=end + INST_SIZE {
                assert_eq!(
                    prog.resolve(a).map(|u| prog.loc_at(u)),
                    img.layout.loc_of(CodeAddr(a)),
                    "{app:?} at {a:#x}"
                );
            }
        }
    }
}

/// Every live frame's register file, innermost last.
fn frame_regs(m: &Machine) -> Vec<&[u64]> {
    m.frames.iter().map(|f| f.regs.as_slice()).collect()
}

proptest! {
    /// Step-for-step equivalence: drive the legacy oracle one instruction
    /// at a time against `run_bounded(_, 1)` on an identical twin and
    /// insist on identical events, cycles, pc, stack registers and frame
    /// register files after every single step.
    #[test]
    fn random_ir_step_for_step_equivalence(
        nblocks in 1usize..6,
        ops in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let module = random_module(nblocks, &ops);
        let img = Arc::new(Image::load(module).expect("random module validates"));
        let mut legacy = Machine::new(img.clone(), CostModel::default());
        let mut fast = Machine::new(img, CostModel::default());
        for step_no in 0..50_000u32 {
            let ea = interp::step(&mut legacy);
            let (n, eb) = interp::run_bounded(&mut fast, 1);
            let eb = eb.unwrap_or(Event::Continue);
            prop_assert_eq!(n, 1);
            prop_assert_eq!(ea, eb, "event diverged at step {}", step_no);
            prop_assert_eq!(legacy.cycles, fast.cycles, "cycles diverged at step {}", step_no);
            prop_assert_eq!(legacy.pc, fast.pc, "pc diverged at step {}", step_no);
            prop_assert_eq!((legacy.sp, legacy.fp), (fast.sp, fast.fp));
            prop_assert_eq!(legacy.depth(), fast.depth());
            prop_assert_eq!(frame_regs(&legacy), frame_regs(&fast), "registers diverged at step {}", step_no);
            match ea {
                Event::Syscall { nr, .. } => {
                    prop_assert_eq!((legacy.trap_nr, legacy.trap_pc), (fast.trap_nr, fast.trap_pc));
                    let ret = u64::from(nr) + 7;
                    legacy.complete_syscall(ret);
                    fast.complete_syscall(ret);
                }
                Event::Exited(_) | Event::Fault(_) => break,
                Event::Continue => {}
            }
        }
        prop_assert_eq!(legacy.exited, fast.exited);
    }

    /// Multi-step equivalence: `run_bounded(_, k)` against `k` legacy
    /// steps for random `k` in 1..8, so budgets also end between and after
    /// the halves of fused frame-slot superinstructions.
    #[test]
    fn random_ir_bounded_run_equivalence(
        nblocks in 1usize..6,
        ops in proptest::collection::vec(any::<u8>(), 0..160),
        budgets in proptest::collection::vec(1u64..8, 1..32),
    ) {
        let module = random_module(nblocks, &ops);
        let img = Arc::new(Image::load(module).expect("random module validates"));
        let mut legacy = Machine::new(img.clone(), CostModel::default());
        let mut fast = Machine::new(img, CostModel::default());
        for (run_no, &k) in budgets.iter().cycle().take(20_000).enumerate() {
            let mut ea = Event::Continue;
            let mut taken = 0;
            while taken < k {
                taken += 1;
                ea = interp::step(&mut legacy);
                if ea != Event::Continue {
                    break;
                }
            }
            let (n, eb) = interp::run_bounded(&mut fast, k);
            let eb = eb.unwrap_or(Event::Continue);
            prop_assert_eq!(n, taken, "steps diverged at run {}", run_no);
            prop_assert_eq!(ea, eb, "event diverged at run {}", run_no);
            prop_assert_eq!(legacy.cycles, fast.cycles, "cycles diverged at run {}", run_no);
            prop_assert_eq!(legacy.pc, fast.pc, "pc diverged at run {}", run_no);
            prop_assert_eq!((legacy.sp, legacy.fp), (fast.sp, fast.fp));
            prop_assert_eq!(frame_regs(&legacy), frame_regs(&fast), "registers diverged at run {}", run_no);
            match ea {
                Event::Syscall { nr, .. } => {
                    let ret = u64::from(nr) + 7;
                    legacy.complete_syscall(ret);
                    fast.complete_syscall(ret);
                }
                Event::Exited(_) | Event::Fault(_) => break,
                Event::Continue => {}
            }
        }
        prop_assert_eq!(legacy.exited, fast.exited);
    }

    /// Whole-run equivalence through the event loop: both engines ride the
    /// module to completion and must agree on the final event and totals.
    #[test]
    fn random_ir_whole_run_equivalence(
        nblocks in 1usize..6,
        ops in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let module = random_module(nblocks, &ops);
        let img = Arc::new(Image::load(module).expect("random module validates"));
        let drive = |use_legacy: bool| {
            let mut m = Machine::new(img.clone(), CostModel::default());
            let mut events = Vec::new();
            loop {
                let out = if use_legacy {
                    interp::run_legacy(&mut m, 100_000)
                } else {
                    interp::run(&mut m, 100_000)
                };
                let e = out.event();
                events.push(e);
                match e {
                    Event::Syscall { nr, .. } => m.complete_syscall(u64::from(nr) + 7),
                    _ => break,
                }
            }
            (events, m.cycles, m.exited)
        };
        let (ev_l, cy_l, ex_l) = drive(true);
        let (ev_f, cy_f, ex_f) = drive(false);
        prop_assert_eq!(ev_l, ev_f);
        prop_assert_eq!(cy_l, cy_f);
        prop_assert_eq!(ex_l, ex_f);
    }
}
