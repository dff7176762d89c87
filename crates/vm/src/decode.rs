//! Predecoded flat instruction stream.
//!
//! The tree-walking interpreter pays for the IR's nesting on every step:
//! two `Vec` derefs to find the block, a heap-backed [`Inst`] clone (call
//! argument lists are `Vec<Operand>`), struct-field offset computation, and
//! a linear scan for the callsite a `ctx_bind_*` intrinsic refers to. All
//! of that is a pure function of the loaded image, so [`DecodedProgram`]
//! computes it once at `Image::load`:
//!
//! * every function is flattened into one contiguous `Vec<DecodedInst>`
//!   indexed by `(code_addr - code_base) / INST_SIZE` — the same flat unit
//!   space [`CodeLayout`] assigns addresses in, with [`DecodedInst::Pad`]
//!   filling the 16-byte alignment gaps between functions;
//! * call/syscall operand lists are interned into a side arena and
//!   referenced by [`ArgSlice`], so the hot loop never clones or allocates;
//! * `FieldAddr` offsets, `GlobalAddr`/`FuncAddr` targets, direct-call
//!   entry units, per-call return addresses, `FrameAddr` fp-relative
//!   offsets, and `ctx_bind_*` callsite addresses are all pre-resolved;
//! * branch targets become flat unit indices, so taken branches are a
//!   single index assignment;
//! * straight-line runs the dispatch census finds hot become one
//!   superinstruction each (see [`DecodedInst`] for the run rule): a
//!   `FrameAddr` with the load or store through it
//!   ([`DecodedInst::FrameLoad`], [`DecodedInst::FrameStore`]; the compiler
//!   addresses every named variable this way), two frame loads in a row,
//!   a frame load with the `Bin` on its result, a `Bin` with the frame
//!   store of its result, a frame store with the block's `Jmp`, an
//!   `IndexAddr` with the load through it, and a `Cmp` with the block's
//!   `Br` on its result ([`DecodedInst::CmpBr`]);
//! * the unfused stream is kept beside the fused one, so the interpreter
//!   can finish a budget shorter than [`MAX_RUN`] unit by unit;
//! * [`DecodedProgram::resolve`] maps a runtime code address (a return
//!   address or an indirect-call target) straight to its unit.
//!
//! Decoding is layout-faithful by construction: unit `i` of either stream
//! executes the instruction at code address `base + i * INST_SIZE` (a
//! superinstruction then also runs the rest of its run), so ROP/JOP control
//! transfers into the middle of functions land on the same instruction the
//! legacy path would execute.

use crate::image::FrameInfo;
use bastion_ir::layout::INST_SIZE;
use bastion_ir::{
    BinOp, Callee, CmpOp, CodeLayout, FuncId, Inst, InstLoc, IntrinsicOp, Module, Operand, Reg,
    Terminator, Width, CALL_SIZE,
};

/// A span in the [`DecodedProgram`] operand arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgSlice {
    start: u32,
    len: u32,
}

impl ArgSlice {
    /// Number of operands in the slice.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the slice is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// The most units one superinstruction covers ([`DecodedInst::FrameLoad2`]).
/// The fast path dispatches from the fused stream only while at least this
/// many steps of its budget remain, so no superinstruction ever has to stop
/// between its units.
pub const MAX_RUN: u64 = 4;

/// One predecoded instruction unit. `Copy` and flat: executing one never
/// touches the IR tree.
///
/// A superinstruction covers a straight-line run of units starting at its
/// own: it executes them in order with their accounting (one step and the
/// unit's cycles each, every register write), and only its last unit may
/// transfer control. A fault in unit `j` of the run stops there, as the
/// unit alone would. The units after the first keep their own decoded
/// forms, so a branch, return or ROP/JOP transfer that lands inside a run
/// executes from there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodedInst {
    /// `dst = src`
    Mov { dst: Reg, src: Operand },
    /// `dst = a <op> b`
    Bin {
        dst: Reg,
        op: BinOp,
        a: Operand,
        b: Operand,
    },
    /// `dst = (a <op> b) as 0/1`
    Cmp {
        dst: Reg,
        op: CmpOp,
        a: Operand,
        b: Operand,
    },
    /// `dst = *(addr)`
    Load {
        dst: Reg,
        addr: Operand,
        width: Width,
    },
    /// `*(addr) = src`
    Store {
        addr: Operand,
        src: Operand,
        width: Width,
    },
    /// `dst = fp - neg_off` — slot address with the frame geometry folded
    /// in (`neg_off = frame_size - slot_offset`).
    FrameAddr { dst: Reg, neg_off: u64 },
    /// Superinstruction: `FrameAddr tmp` fused with the `dst = *(tmp)`
    /// load through it in the next unit (two units).
    FrameLoad {
        tmp: Reg,
        neg_off: u64,
        dst: Reg,
        width: Width,
    },
    /// Superinstruction: `FrameAddr tmp` fused with the `*(tmp) = src`
    /// store through it in the next unit; see [`DecodedInst::FrameLoad`].
    FrameStore {
        tmp: Reg,
        neg_off: u64,
        src: Operand,
        width: Width,
    },
    /// Superinstruction: a [`DecodedInst::FrameStore`] followed by the
    /// block's `Jmp` (three units).
    FrameStoreJmp {
        tmp: Reg,
        neg_off: u64,
        src: Operand,
        width: Width,
        target: u32,
    },
    /// Superinstruction: two [`DecodedInst::FrameLoad`]s in a row (four
    /// units).
    FrameLoad2 {
        tmp: Reg,
        neg_off: u64,
        dst: Reg,
        width: Width,
        tmp2: Reg,
        neg_off2: u64,
        dst2: Reg,
        width2: Width,
    },
    /// Superinstruction: a [`DecodedInst::FrameLoad`] into `dst` followed
    /// by `bin_dst = dst <op> b` (three units).
    FrameLoadBin {
        tmp: Reg,
        neg_off: u64,
        dst: Reg,
        width: Width,
        bin_dst: Reg,
        op: BinOp,
        b: Operand,
    },
    /// Superinstruction: `dst = a <op> b` followed by a
    /// [`DecodedInst::FrameStore`] of `dst` (three units). The slot offset
    /// is narrowed to `u32` so the unit stays as small as the plain ones.
    BinFrameStore {
        dst: Reg,
        op: BinOp,
        a: Operand,
        b: Operand,
        tmp: Reg,
        neg_off: u32,
        width: Width,
    },
    /// `dst = addr` — a pre-resolved `GlobalAddr` or `FuncAddr`.
    LoadAddr { dst: Reg, addr: u64 },
    /// `dst = base + off` — `FieldAddr` with the struct offset pre-summed.
    FieldAddr { dst: Reg, base: Operand, off: u64 },
    /// `dst = base + index * elem_size`
    IndexAddr {
        dst: Reg,
        base: Operand,
        elem_size: u64,
        index: Operand,
    },
    /// Superinstruction: `IndexAddr tmp` fused with the `dst = *(tmp)`
    /// load through it in the next unit (two units). The element size is
    /// narrowed to `u32` so the unit stays as small as the plain ones.
    IndexLoad {
        tmp: Reg,
        base: Operand,
        elem_size: u32,
        index: Operand,
        dst: Reg,
        width: Width,
    },
    /// Direct call with the target entry resolved to a flat unit and the
    /// return address precomputed.
    CallDirect {
        dst: Option<Reg>,
        args: ArgSlice,
        target_unit: u32,
        retaddr: u64,
    },
    /// Indirect call; the target is still runtime data, the return address
    /// is precomputed.
    CallIndirect {
        dst: Option<Reg>,
        args: ArgSlice,
        target: Operand,
        retaddr: u64,
    },
    /// The `syscall` machine instruction.
    Syscall { dst: Reg, nr: u32, args: ArgSlice },
    /// `ctx_write_mem(addr, size)`
    CtxWriteMem { addr: Operand, size: u32 },
    /// `ctx_bind_mem_pos(addr)` with the callsite it refers to (the next
    /// call in the block) resolved at decode time.
    CtxBindMem {
        pos: u8,
        addr: Operand,
        callsite: Option<u64>,
    },
    /// `ctx_bind_const_pos(value)` with the callsite pre-resolved.
    CtxBindConst {
        pos: u8,
        value: i64,
        callsite: Option<u64>,
    },
    /// Unconditional jump to a flat unit in the same function.
    Jmp { target: u32 },
    /// Superinstruction: `Cmp dst` fused with the `Br` on `dst` in the
    /// next unit, the block's terminator (two units).
    CmpBr {
        dst: Reg,
        op: CmpOp,
        a: Operand,
        b: Operand,
        then_: u32,
        else_: u32,
    },
    /// Conditional branch to flat units in the same function.
    Br {
        cond: Operand,
        then_: u32,
        else_: u32,
    },
    /// Return, optionally with a value.
    Ret { val: Option<Operand> },
    /// Inter-function alignment padding; never reachable (every control
    /// transfer is validated against the layout before landing).
    Pad,
}

// Superinstructions narrow their wide fields where needed so a unit stays
// as small as the widest plain one (`IndexAddr`, `CmpBr`).
const _: () = assert!(std::mem::size_of::<DecodedInst>() <= 48);

impl DecodedInst {
    /// How many units this instruction covers: 1 for a plain unit, the
    /// run length for a superinstruction (at most [`MAX_RUN`]).
    pub fn run_len(self) -> u64 {
        match self {
            DecodedInst::FrameLoad { .. }
            | DecodedInst::FrameStore { .. }
            | DecodedInst::IndexLoad { .. }
            | DecodedInst::CmpBr { .. } => 2,
            DecodedInst::FrameStoreJmp { .. }
            | DecodedInst::FrameLoadBin { .. }
            | DecodedInst::BinFrameStore { .. } => 3,
            DecodedInst::FrameLoad2 { .. } => 4,
            _ => 1,
        }
    }
}

/// The flat predecoded form of a loaded module.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    base: u64,
    /// The fused stream: unit `i` holds the superinstruction whose run
    /// starts at `i`, or the plain unit when none does.
    units: Vec<DecodedInst>,
    /// The unfused stream, for the last steps of a budget, where fewer
    /// than [`MAX_RUN`] remain.
    plain: Vec<DecodedInst>,
    /// Interned call/syscall argument operands.
    args: Vec<Operand>,
    /// `InstLoc` of each unit (dummy for `Pad` units), for syncing the
    /// machine's architectural `pc` at event boundaries.
    locs: Vec<InstLoc>,
}

impl DecodedProgram {
    /// Flattens `module` according to `layout`. `frame_info` and
    /// `global_addrs` come from the image builder and let the decoder fold
    /// frame geometry and data-segment addresses into the stream.
    pub fn decode(
        module: &Module,
        layout: &CodeLayout,
        frame_info: &[FrameInfo],
        global_addrs: &[u64],
    ) -> Self {
        let base = layout.code_base().raw();
        let total = layout.total_units() as usize;
        let mut units = Vec::with_capacity(total);
        let mut args = Vec::new();
        let pad_loc = InstLoc {
            func: FuncId(0),
            block: bastion_ir::BlockId(0),
            inst: 0,
        };
        let mut locs = vec![pad_loc; total];

        let intern = |ops: &[Operand], args: &mut Vec<Operand>| -> ArgSlice {
            let start = args.len() as u32;
            args.extend_from_slice(ops);
            ArgSlice {
                start,
                len: ops.len() as u32,
            }
        };

        for (fidx, func) in module.functions.iter().enumerate() {
            let fid = FuncId(fidx as u32);
            let entry_unit = ((layout.func_entry(fid).raw() - base) / INST_SIZE) as usize;
            units.resize(entry_unit, DecodedInst::Pad);
            let fi = &frame_info[fidx];
            for (bidx, block) in func.blocks.iter().enumerate() {
                let bid = bastion_ir::BlockId(bidx as u32);
                for (iidx, inst) in block.insts.iter().enumerate() {
                    let loc = InstLoc {
                        func: fid,
                        block: bid,
                        inst: iidx,
                    };
                    locs[units.len()] = loc;
                    let addr = layout.addr_of(loc).raw();
                    // Callsite a ctx_bind_* at this position refers to: the
                    // next call instruction in the same block.
                    let next_callsite = || {
                        block.insts[iidx + 1..]
                            .iter()
                            .position(Inst::is_call)
                            .map(|d| {
                                layout
                                    .addr_of(InstLoc {
                                        inst: iidx + 1 + d,
                                        ..loc
                                    })
                                    .raw()
                            })
                    };
                    let d = match inst {
                        Inst::Mov { dst, src } => DecodedInst::Mov {
                            dst: *dst,
                            src: *src,
                        },
                        Inst::Bin { dst, op, a, b } => DecodedInst::Bin {
                            dst: *dst,
                            op: *op,
                            a: *a,
                            b: *b,
                        },
                        Inst::Cmp { dst, op, a, b } => DecodedInst::Cmp {
                            dst: *dst,
                            op: *op,
                            a: *a,
                            b: *b,
                        },
                        Inst::Load { dst, addr, width } => DecodedInst::Load {
                            dst: *dst,
                            addr: *addr,
                            width: *width,
                        },
                        Inst::Store { addr, src, width } => DecodedInst::Store {
                            addr: *addr,
                            src: *src,
                            width: *width,
                        },
                        Inst::FrameAddr { dst, slot } => DecodedInst::FrameAddr {
                            dst: *dst,
                            neg_off: fi.frame_size - fi.slot_offsets[slot.index()],
                        },
                        Inst::GlobalAddr { dst, global } => DecodedInst::LoadAddr {
                            dst: *dst,
                            addr: global_addrs[global.index()],
                        },
                        Inst::FuncAddr { dst, func } => DecodedInst::LoadAddr {
                            dst: *dst,
                            addr: layout.func_entry(*func).raw(),
                        },
                        Inst::FieldAddr {
                            dst,
                            base: b,
                            struct_id,
                            field,
                        } => DecodedInst::FieldAddr {
                            dst: *dst,
                            base: *b,
                            off: module.structs[struct_id.index()]
                                .field_offset(*field as usize, &module.structs),
                        },
                        Inst::IndexAddr {
                            dst,
                            base: b,
                            elem_size,
                            index,
                        } => DecodedInst::IndexAddr {
                            dst: *dst,
                            base: *b,
                            elem_size: *elem_size,
                            index: *index,
                        },
                        Inst::Call {
                            dst,
                            callee,
                            args: a,
                        } => {
                            let slice = intern(a, &mut args);
                            let retaddr = addr + CALL_SIZE;
                            match callee {
                                Callee::Direct(f) => DecodedInst::CallDirect {
                                    dst: *dst,
                                    args: slice,
                                    target_unit: ((layout.func_entry(*f).raw() - base) / INST_SIZE)
                                        as u32,
                                    retaddr,
                                },
                                Callee::Indirect(op) => DecodedInst::CallIndirect {
                                    dst: *dst,
                                    args: slice,
                                    target: *op,
                                    retaddr,
                                },
                            }
                        }
                        Inst::Syscall { dst, nr, args: a } => DecodedInst::Syscall {
                            dst: *dst,
                            nr: *nr,
                            args: intern(a, &mut args),
                        },
                        Inst::Intrinsic(op) => match op {
                            IntrinsicOp::CtxWriteMem { addr, size } => DecodedInst::CtxWriteMem {
                                addr: *addr,
                                size: *size,
                            },
                            IntrinsicOp::CtxBindMem { pos, addr } => DecodedInst::CtxBindMem {
                                pos: *pos,
                                addr: *addr,
                                callsite: next_callsite(),
                            },
                            IntrinsicOp::CtxBindConst { pos, value } => DecodedInst::CtxBindConst {
                                pos: *pos,
                                value: *value,
                                callsite: next_callsite(),
                            },
                        },
                    };
                    units.push(d);
                }
                let term_loc = InstLoc {
                    func: fid,
                    block: bid,
                    inst: block.insts.len(),
                };
                locs[units.len()] = term_loc;
                let block_unit = |b: bastion_ir::BlockId| {
                    layout.unit_of(InstLoc {
                        func: fid,
                        block: b,
                        inst: 0,
                    }) as u32
                };
                units.push(match block.term {
                    Terminator::Jmp(b) => DecodedInst::Jmp {
                        target: block_unit(b),
                    },
                    Terminator::Br { cond, then_, else_ } => DecodedInst::Br {
                        cond,
                        then_: block_unit(then_),
                        else_: block_unit(else_),
                    },
                    Terminator::Ret(val) => DecodedInst::Ret { val },
                });
            }
        }
        units.resize(total, DecodedInst::Pad);
        let plain = units;
        let units: Vec<DecodedInst> = (0..plain.len())
            .map(|i| fuse(&plain[i..]).unwrap_or(plain[i]))
            .collect();
        // The interpreter's budget guard relies on this.
        debug_assert!(units.iter().all(|u| u.run_len() <= MAX_RUN));
        DecodedProgram {
            base,
            units,
            plain,
            args,
            locs,
        }
    }

    /// The code segment base the unit index space is relative to.
    pub fn code_base(&self) -> u64 {
        self.base
    }

    /// Number of units (code bytes / [`INST_SIZE`]).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the program has no code.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The unit at flat index `unit` in the fused stream.
    ///
    /// # Panics
    /// Panics if `unit` is out of range.
    #[inline]
    pub fn inst(&self, unit: usize) -> DecodedInst {
        self.units[unit]
    }

    /// The fused instruction stream, indexed by unit.
    #[inline]
    pub fn insts(&self) -> &[DecodedInst] {
        &self.units
    }

    /// The unfused instruction stream, indexed by unit: no
    /// superinstructions.
    #[inline]
    pub fn plain_insts(&self) -> &[DecodedInst] {
        &self.plain
    }

    /// The architectural instruction location of `unit`.
    ///
    /// # Panics
    /// Panics if `unit` is out of range.
    #[inline]
    pub fn loc_at(&self, unit: usize) -> InstLoc {
        self.locs[unit]
    }

    /// Flat unit index of a code address already validated by the layout.
    #[inline]
    pub fn unit_of_addr(&self, addr: u64) -> usize {
        ((addr - self.base) / INST_SIZE) as usize
    }

    /// The unit a control transfer to `addr` lands on, if `addr` is the
    /// start of an instruction: aligned, inside the code segment and not
    /// padding. Agrees with [`CodeLayout::loc_of`] through
    /// [`Self::loc_at`], without its binary searches.
    #[inline]
    pub fn resolve(&self, addr: u64) -> Option<usize> {
        let delta = addr.wrapping_sub(self.base);
        if !delta.is_multiple_of(INST_SIZE) {
            return None;
        }
        let unit = usize::try_from(delta / INST_SIZE).ok()?;
        match self.units.get(unit)? {
            DecodedInst::Pad => None,
            _ => Some(unit),
        }
    }

    /// The interned operands of an [`ArgSlice`].
    #[inline]
    pub fn arg_ops(&self, s: ArgSlice) -> &[Operand] {
        &self.args[s.start as usize..(s.start + s.len) as usize]
    }
}

/// The superinstruction whose run starts at `run[0]` of the unfused
/// stream, if one does. Every unit of a run but the last is a
/// non-terminator, so a run never leaves its block. Where two runs start
/// at the same unit the longer one wins.
fn fuse(run: &[DecodedInst]) -> Option<DecodedInst> {
    use DecodedInst as D;
    let at = |k: usize| run.get(k).copied().unwrap_or(D::Pad);
    Some(match (at(0), at(1)) {
        (
            D::FrameAddr { dst: tmp, neg_off },
            D::Load {
                dst,
                addr: Operand::Reg(a),
                width,
            },
        ) if a == tmp => match (at(2), at(3)) {
            (
                D::FrameAddr {
                    dst: tmp2,
                    neg_off: neg_off2,
                },
                D::Load {
                    dst: dst2,
                    addr: Operand::Reg(a2),
                    width: width2,
                },
            ) if a2 == tmp2 => D::FrameLoad2 {
                tmp,
                neg_off,
                dst,
                width,
                tmp2,
                neg_off2,
                dst2,
                width2,
            },
            (
                D::Bin {
                    dst: bin_dst,
                    op,
                    a: Operand::Reg(x),
                    b,
                },
                _,
            ) if x == dst => D::FrameLoadBin {
                tmp,
                neg_off,
                dst,
                width,
                bin_dst,
                op,
                b,
            },
            _ => D::FrameLoad {
                tmp,
                neg_off,
                dst,
                width,
            },
        },
        (
            D::FrameAddr { dst: tmp, neg_off },
            D::Store {
                addr: Operand::Reg(a),
                src,
                width,
            },
        ) if a == tmp => match at(2) {
            D::Jmp { target } => D::FrameStoreJmp {
                tmp,
                neg_off,
                src,
                width,
                target,
            },
            _ => D::FrameStore {
                tmp,
                neg_off,
                src,
                width,
            },
        },
        (
            D::Cmp { dst, op, a, b },
            D::Br {
                cond: Operand::Reg(c),
                then_,
                else_,
            },
        ) if c == dst => D::CmpBr {
            dst,
            op,
            a,
            b,
            then_,
            else_,
        },
        (
            D::IndexAddr {
                dst: tmp,
                base,
                elem_size,
                index,
            },
            D::Load {
                dst,
                addr: Operand::Reg(a),
                width,
            },
        ) if a == tmp => D::IndexLoad {
            tmp,
            base,
            elem_size: u32::try_from(elem_size).ok()?,
            index,
            dst,
            width,
        },
        (D::Bin { dst, op, a, b }, D::FrameAddr { dst: tmp, neg_off }) => match at(2) {
            D::Store {
                addr: Operand::Reg(x),
                src: Operand::Reg(v),
                width,
            } if x == tmp && v == dst => D::BinFrameStore {
                dst,
                op,
                a,
                b,
                tmp,
                neg_off: u32::try_from(neg_off).ok()?,
                width,
            },
            _ => return None,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::Ty;

    fn decoded() -> Image {
        let mut mb = ModuleBuilder::new("d");
        let stub = mb.declare_syscall_stub("getpid", 39, 0);
        let callee = mb.declare("callee", &[("x", Ty::I64)], Ty::I64);
        let mut f = mb.define(callee);
        let a = f.frame_addr(f.param_slot(0));
        let v = f.load(a);
        f.ret(Some(v.into()));
        f.finish();
        let mut f = mb.function("main", &[], Ty::I64);
        let r = f.call_direct(callee, &[Operand::Imm(9)]);
        let _ = f.call_direct(stub, &[]);
        f.ret(Some(r.into()));
        f.finish();
        Image::load(mb.finish()).unwrap()
    }

    #[test]
    fn every_unit_matches_the_layout() {
        let img = decoded();
        let prog = &img.decoded;
        assert_eq!(prog.len() as u64, img.layout.total_units());
        for (fid, f) in img.module.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for i in 0..=b.insts.len() {
                    let loc = InstLoc {
                        func: fid,
                        block: bid,
                        inst: i,
                    };
                    let unit = img.layout.unit_of(loc) as usize;
                    assert_eq!(prog.loc_at(unit), loc);
                    assert!(!matches!(prog.inst(unit), DecodedInst::Pad));
                }
            }
        }
    }

    #[test]
    fn alignment_gaps_are_padding() {
        let img = decoded();
        let prog = &img.decoded;
        let mut pads = 0;
        for u in 0..prog.len() {
            if matches!(prog.inst(u), DecodedInst::Pad) {
                pads += 1;
                assert_eq!(
                    img.layout.loc_of(img.layout.addr_of_unit(u as u64)),
                    None,
                    "pad unit {u} is a live code address"
                );
            }
        }
        // Three 16-byte-aligned functions with small bodies: at least one gap.
        assert!(pads > 0);
    }

    #[test]
    fn resolve_agrees_with_the_layout_on_every_address() {
        let img = decoded();
        let prog = &img.decoded;
        let (base, end) = (img.layout.code_base().raw(), img.layout.code_end().raw());
        for a in base - 64..=end + INST_SIZE {
            assert_eq!(
                prog.resolve(a).map(|u| prog.loc_at(u)),
                img.layout.loc_of(bastion_ir::CodeAddr(a)),
                "{a:#x}"
            );
        }
        assert_eq!(prog.resolve(0), None);
        assert_eq!(prog.resolve(u64::MAX - 3), None);
    }

    /// `main` branches on a comparison and returns one of two constants.
    fn compare_and_branch() -> Image {
        let mut mb = ModuleBuilder::new("c");
        let mut f = mb.function("main", &[], Ty::I64);
        let yes = f.new_block();
        let no = f.new_block();
        let c = f.cmp(CmpOp::Lt, 1i64, 2i64);
        f.br(c, yes, no);
        f.switch_to(yes);
        f.ret(Some(Operand::Imm(1)));
        f.switch_to(no);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        Image::load(mb.finish()).unwrap()
    }

    #[test]
    fn compare_then_branch_on_its_result_is_fused() {
        let img = compare_and_branch();
        let prog = &img.decoded;
        let entry = prog.unit_of_addr(img.layout.func_entry(img.entry).raw());
        let DecodedInst::Br { then_, else_, .. } = prog.inst(entry + 1) else {
            panic!("expected the plain Br after the fused unit");
        };
        match prog.inst(entry) {
            DecodedInst::CmpBr {
                op: CmpOp::Lt,
                then_: t,
                else_: e,
                ..
            } => assert_eq!((t, e), (then_, else_)),
            other => panic!("expected CmpBr, got {other:?}"),
        }
    }

    #[test]
    fn branch_on_another_register_is_not_fused() {
        let mut mb = ModuleBuilder::new("c");
        let mut f = mb.function("main", &[], Ty::I64);
        let yes = f.new_block();
        let no = f.new_block();
        let flag = f.mov(1i64);
        let _ = f.cmp(CmpOp::Eq, flag, 0i64);
        f.br(flag, yes, no);
        f.switch_to(yes);
        f.ret(Some(Operand::Imm(1)));
        f.switch_to(no);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let img = Image::load(mb.finish()).unwrap();
        let prog = &img.decoded;
        let entry = prog.unit_of_addr(img.layout.func_entry(img.entry).raw());
        assert!(matches!(prog.inst(entry + 1), DecodedInst::Cmp { .. }));
    }

    #[test]
    fn direct_call_targets_and_retaddrs_are_resolved() {
        let img = decoded();
        let prog = &img.decoded;
        let main = img.module.func_by_name("main").unwrap();
        let callee = img.module.func_by_name("callee").unwrap();
        let call_unit = img.layout.unit_of(InstLoc {
            func: main,
            block: bastion_ir::BlockId(0),
            inst: 0,
        }) as usize;
        match prog.inst(call_unit) {
            DecodedInst::CallDirect {
                target_unit,
                retaddr,
                args,
                ..
            } => {
                assert_eq!(
                    img.layout.addr_of_unit(u64::from(target_unit)),
                    img.layout.func_entry(callee)
                );
                assert_eq!(
                    retaddr,
                    img.layout.addr_of_unit(call_unit as u64).raw() + CALL_SIZE
                );
                assert_eq!(prog.arg_ops(args), &[Operand::Imm(9)]);
            }
            other => panic!("expected CallDirect, got {other:?}"),
        }
    }
}
