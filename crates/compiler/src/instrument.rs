//! The instrumentation pass (paper §6.3.3).
//!
//! Rewrites a module's blocks, inserting the Table 2 runtime-library
//! intrinsics:
//!
//! * `ctx_write_mem(p, size)` *after* every store to a sensitive location
//!   (keeping the shadow copy up to date);
//! * `ctx_bind_mem_X(p)` / `ctx_bind_const_X(c)` *before* every sensitive
//!   syscall callsite and every propagation callsite, in argument-position
//!   order.
//!
//! Insertion shifts instruction indices, so the pass also returns a full
//! old-location → new-location map; the metadata generator translates all
//! analysis results through it before assigning final addresses.

use bastion_analysis::sensitive::{ArgSpec, SensitiveReport};
use bastion_ir::{
    BlockId, FuncId, FxHashMap, FxHashSet, Inst, InstLoc, IntrinsicOp, Module, Operand, Width,
};

/// Output of the instrumentation pass.
#[derive(Debug)]
pub struct Instrumented {
    /// The rewritten module.
    pub module: Module,
    /// old `InstLoc` → new `InstLoc` for every original instruction.
    pub loc_map: LocMap,
    /// `(old callsite, position)` pairs for which a memory binding was
    /// actually placed (specs whose address could not be re-derived are
    /// downgraded by the caller).
    pub placed_mem_binds: FxHashSet<(InstLoc, u8)>,
    /// Count of `ctx_bind_const` intrinsics inserted.
    pub const_binds: usize,
    /// Count of `ctx_write_mem` intrinsics inserted.
    pub write_mems: usize,
}

/// Where each instruction of the input module (terminators included)
/// ended up. The pass only inserts into blocks, so an instruction keeps
/// its function and block and moves down by the number of instructions
/// inserted before it; the map stores that count densely, one entry per
/// instruction, in module order.
#[derive(Debug)]
pub struct LocMap {
    /// Index into `block_start` of each function's first block.
    func_start: Vec<u32>,
    /// Index into `shift` of each block's first instruction.
    block_start: Vec<u32>,
    /// Instructions inserted before each original instruction.
    shift: Vec<u32>,
}

impl LocMap {
    /// The identity map over `module`'s instructions.
    fn identity(module: &Module) -> LocMap {
        let mut func_start = Vec::with_capacity(module.functions.len());
        let mut block_start = Vec::new();
        let mut units = 0u32;
        for f in &module.functions {
            func_start.push(block_start.len() as u32);
            for b in &f.blocks {
                block_start.push(units);
                units += b.insts.len() as u32 + 1;
            }
        }
        LocMap {
            func_start,
            block_start,
            shift: vec![0; units as usize],
        }
    }

    /// Index into `shift` of the first instruction of `block` of `func`.
    fn first(&self, func: FuncId, block: BlockId) -> usize {
        self.block_start[self.func_start[func.index()] as usize + block.index()] as usize
    }

    /// The new location of `old`, an instruction or terminator of the
    /// input module.
    ///
    /// # Panics
    /// Panics if `old`'s function or block is not in the input module.
    pub fn get(&self, old: InstLoc) -> InstLoc {
        let shift = self.shift[self.first(old.func, old.block) + old.inst];
        InstLoc {
            inst: old.inst + shift as usize,
            ..old
        }
    }
}

/// Runs the pass with BASTION's sensitive-only store breadth.
pub fn instrument(module: Module, report: &SensitiveReport) -> Instrumented {
    instrument_with_breadth(module, report, crate::InstrumentationBreadth::SensitiveOnly)
}

/// Runs the pass with an explicit store-instrumentation breadth. The
/// module is rewritten in place: only blocks that receive an intrinsic
/// are rebuilt, and everything else moves through unchanged.
pub fn instrument_with_breadth(
    mut module: Module,
    report: &SensitiveReport,
    breadth: crate::InstrumentationBreadth,
) -> Instrumented {
    // Index the plan by location.
    let mut write_after: FxHashMap<InstLoc, Width> = FxHashMap::default();
    if breadth == crate::InstrumentationBreadth::AllStores {
        // DFI-style: shadow every store in the program.
        for (fid, f) in module.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for (i, inst) in b.insts.iter().enumerate() {
                    if let Inst::Store { width, .. } = inst {
                        write_after.insert(
                            InstLoc {
                                func: fid,
                                block: bid,
                                inst: i,
                            },
                            *width,
                        );
                    }
                }
            }
        }
    }
    for s in &report.store_sites {
        write_after.insert(s.loc, s.width);
    }
    let mut bind_before: FxHashMap<InstLoc, Vec<(u8, &ArgSpec)>> = FxHashMap::default();
    for s in &report.syscall_sites {
        let entry = bind_before.entry(s.callsite).or_default();
        for (i, spec) in s.args.iter().enumerate() {
            entry.push(((i + 1) as u8, spec));
        }
    }
    for s in &report.prop_sites {
        let entry = bind_before.entry(s.callsite).or_default();
        for (pos, spec) in &s.args {
            entry.push((*pos, spec));
        }
    }
    // Bindings go in argument-position order (stable for equal positions).
    for binds in bind_before.values_mut() {
        binds.sort_by_key(|(p, _)| *p);
    }

    // The blocks the plan touches, in module order: every planned
    // location's block, and the entry block of each function with a
    // parameter spill.
    let mut touched: Vec<(FuncId, BlockId)> = write_after
        .keys()
        .chain(bind_before.keys())
        .map(|l| (l.func, l.block))
        .chain(report.param_spills.iter().map(|&(f, _)| (f, BlockId(0))))
        .collect();
    touched.sort_unstable();
    touched.dedup();

    let mut out = Instrumented {
        module: Module::default(),
        loc_map: LocMap::identity(&module),
        placed_mem_binds: FxHashSet::default(),
        const_binds: 0,
        write_mems: 0,
    };

    let mut defs: Vec<Option<Def>> = Vec::new();
    for group in touched.chunk_by(|a, b| a.0 == b.0) {
        let fid = group[0].0;
        let f = &mut module.functions[fid.index()];
        // Single-assignment def map for re-deriving bind addresses.
        defs.clear();
        defs.resize(f.reg_count as usize, None);
        for b in &f.blocks {
            for inst in &b.insts {
                if let Some(d) = inst.def() {
                    if d.index() >= defs.len() {
                        defs.resize(d.index() + 1, None);
                    }
                    defs[d.index()] = Some(Def::of(inst));
                }
            }
        }

        // Implicit parameter spills: refresh shadow copies of sensitive
        // parameter slots at function entry (Figure 2, `ctx_write_mem(&b2)`
        // at the top of `bar`). Uses fresh registers past reg_count.
        let mut next_reg = f.reg_count;
        let mut entry_prologue = Vec::new();
        for &(pf, slot) in &report.param_spills {
            if pf != fid {
                continue;
            }
            let r = bastion_ir::Reg(next_reg);
            next_reg += 1;
            entry_prologue.push(Inst::FrameAddr { dst: r, slot });
            entry_prologue.push(Inst::Intrinsic(IntrinsicOp::CtxWriteMem {
                addr: Operand::Reg(r),
                size: 8,
            }));
            out.write_mems += 1;
        }
        f.reg_count = next_reg;

        for &(_, bid) in group {
            let Some(block) = f.blocks.get_mut(bid.index()) else {
                continue;
            };
            let first = out.loc_map.first(fid, bid);
            let old_insts = std::mem::take(&mut block.insts);
            let old_len = old_insts.len();
            let mut insts = Vec::with_capacity(old_len + entry_prologue.len());
            if bid.index() == 0 {
                insts.append(&mut entry_prologue);
            }
            for (i, inst) in old_insts.into_iter().enumerate() {
                let old = InstLoc {
                    func: fid,
                    block: bid,
                    inst: i,
                };
                // Bindings go in front of the call.
                if let Some(binds) = bind_before.get(&old) {
                    for &(pos, spec) in binds {
                        match spec {
                            ArgSpec::Const(v) => {
                                insts.push(Inst::Intrinsic(IntrinsicOp::CtxBindConst {
                                    pos,
                                    value: *v,
                                }));
                                out.const_binds += 1;
                            }
                            ArgSpec::Mem(_) => {
                                let arg = call_arg(&inst, pos);
                                if let Some(addr) = arg.and_then(|a| derive_addr(&defs, a, 0)) {
                                    insts.push(Inst::Intrinsic(IntrinsicOp::CtxBindMem {
                                        pos,
                                        addr,
                                    }));
                                    out.placed_mem_binds.insert((old, pos));
                                }
                            }
                            ArgSpec::GlobalAddr(_) | ArgSpec::StackAddr | ArgSpec::Opaque => {}
                        }
                    }
                }
                out.loc_map.shift[first + i] = (insts.len() - i) as u32;
                // Shadow refresh right after a sensitive store.
                let refresh = match (&inst, write_after.get(&old)) {
                    (Inst::Store { addr, .. }, Some(width)) => {
                        Some(Inst::Intrinsic(IntrinsicOp::CtxWriteMem {
                            addr: *addr,
                            size: width.bytes() as u32,
                        }))
                    }
                    _ => None,
                };
                insts.push(inst);
                if let Some(r) = refresh {
                    insts.push(r);
                    out.write_mems += 1;
                }
            }
            // The terminator keeps its (shifted) position.
            out.loc_map.shift[first + old_len] = (insts.len() - old_len) as u32;
            block.insts = insts;
        }
    }
    out.module = module;
    out
}

/// What [`derive_addr`] needs to know about a register's definition.
#[derive(Debug, Clone, Copy)]
enum Def {
    /// `load addr`.
    Load(Operand),
    /// `mov src`.
    Mov(Operand),
    /// Anything else.
    Other,
}

impl Def {
    fn of(inst: &Inst) -> Def {
        match inst {
            Inst::Load { addr, .. } => Def::Load(*addr),
            Inst::Mov { src, .. } => Def::Mov(*src),
            _ => Def::Other,
        }
    }
}

/// The argument operand at 1-based `pos` of a call instruction.
fn call_arg(inst: &Inst, pos: u8) -> Option<Operand> {
    if let Inst::Call { args, .. } = inst {
        args.get(pos as usize - 1).copied()
    } else {
        None
    }
}

/// Re-derives the address operand behind a loaded argument value: the
/// operand of the `load` that produced it (walking trivial moves).
fn derive_addr(defs: &[Option<Def>], arg: Operand, depth: u32) -> Option<Operand> {
    if depth > 16 {
        return None;
    }
    let r = arg.as_reg()?;
    match defs.get(r.index()).copied().flatten()? {
        Def::Load(addr) => Some(addr),
        Def::Mov(src) => derive_addr(defs, src, depth + 1),
        Def::Other => None,
    }
}

/// Convenience: whether a block-id/func-id pair exists in the module
/// (used by debug assertions in the pass driver).
pub fn loc_exists(module: &Module, loc: InstLoc) -> bool {
    module
        .functions
        .get(loc.func.index())
        .and_then(|f| f.blocks.get(loc.block.index()))
        .is_some_and(|b| loc.inst <= b.insts.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_analysis::CallGraph;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::{sysno, Ty};

    fn figure2_like() -> Module {
        let mut mb = ModuleBuilder::new("fig2");
        let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let mut f = mb.function("main", &[], Ty::I64);
        let prots = f.local("prots", Ty::I64);
        let pa = f.frame_addr(prots);
        f.store(pa, 3i64);
        let pa2 = f.frame_addr(prots);
        let pv = f.load(pa2);
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
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        mb.finish()
    }

    fn run(m: &Module) -> Instrumented {
        let cg = CallGraph::build(m);
        let report = SensitiveReport::build(m, &cg, &sysno::sensitive_set());
        instrument(m.clone(), &report)
    }

    #[test]
    fn inserts_write_mem_after_store_and_binds_before_call() {
        let m = figure2_like();
        let out = run(&m);
        assert!(out.module.validate().is_ok());
        let main = out.module.func(out.module.func_by_name("main").unwrap());
        let insts = &main.blocks[0].insts;
        // store prots; ctx_write_mem; ... binds ...; call mmap
        let store_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::Store { .. }))
            .unwrap();
        assert!(matches!(
            insts[store_idx + 1],
            Inst::Intrinsic(IntrinsicOp::CtxWriteMem { size: 8, .. })
        ));
        let call_idx = insts.iter().position(Inst::is_call).unwrap();
        // Expect five const binds (0, 4096, 0x21, -1, 0) and one mem bind
        // immediately before the call.
        let n_binds = insts[..call_idx]
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::Intrinsic(
                        IntrinsicOp::CtxBindConst { .. } | IntrinsicOp::CtxBindMem { .. }
                    )
                )
            })
            .count();
        assert_eq!(n_binds, 6);
        assert_eq!(out.const_binds, 5);
        assert_eq!(out.placed_mem_binds.len(), 1);
        assert_eq!(out.write_mems, 1);
    }

    #[test]
    fn loc_map_covers_all_original_instructions() {
        let m = figure2_like();
        let out = run(&m);
        for (fid, f) in m.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for i in 0..=b.insts.len() {
                    let old = InstLoc {
                        func: fid,
                        block: bid,
                        inst: i,
                    };
                    let new = out.loc_map.get(old);
                    assert!(loc_exists(&out.module, new));
                    // Mapped instruction is identical to the original.
                    if i < b.insts.len() {
                        let ni =
                            &out.module.functions[fid.index()].blocks[bid.index()].insts[new.inst];
                        assert_eq!(ni, &b.insts[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn uninstrumented_module_passes_through() {
        let mut mb = ModuleBuilder::new("plain");
        let mut f = mb.function("main", &[], Ty::I64);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let m = mb.finish();
        let out = run(&m);
        assert_eq!(out.module, m);
        assert_eq!(out.write_mems, 0);
        assert_eq!(out.const_binds, 0);
    }
}
