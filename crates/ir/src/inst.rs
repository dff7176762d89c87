//! Instructions, operands, and terminators.

use crate::module::{FuncId, GlobalId, SlotId};
use crate::types::StructId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A virtual register, local to one function.
///
/// Registers model SSA-ish temporaries that live in the CPU: the BASTION
/// threat model lets attackers corrupt *memory*, not registers, so values in
/// registers are authoritative while values in frame slots / globals are
/// corruptible. This mirrors how the paper compares "the register (actual)
/// argument value" against shadow memory (§7.4).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Reg(pub u32);

impl Reg {
    /// Index into the frame's register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A value operand: a register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Read a virtual register.
    Reg(Reg),
    /// A 64-bit immediate.
    Imm(i64),
}

impl Operand {
    /// The register if this operand reads one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// The immediate if this operand is constant.
    pub fn as_imm(self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(v),
            Operand::Reg(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Binary arithmetic / bitwise operations on 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division; division by zero traps the VM.
    Div,
    /// Signed remainder; division by zero traps the VM.
    Rem,
    And,
    Or,
    Xor,
    Shl,
    /// Logical (unsigned) shift right.
    Shr,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// Comparison operations producing 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Width {
    /// One byte, zero-extended on load.
    W8,
    /// A full 64-bit word.
    W64,
}

impl Width {
    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::W8 => 1,
            Width::W64 => 8,
        }
    }
}

/// A reference to a function by id (the printer resolves names).
pub type FuncRef = FuncId;

/// The callee of a [`Inst::Call`].
///
/// The direct/indirect split is the raw material of the paper's **Call-Type
/// context** (§3.1): the compiler classifies each system call as
/// directly-callable and/or indirectly-callable according to how its stub
/// appears at callsites and whether its address is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Callee {
    /// A direct call to a known function.
    Direct(FuncRef),
    /// An indirect call through a code pointer held in an operand.
    Indirect(Operand),
}

/// BASTION runtime library intrinsics (paper Table 2).
///
/// These are inserted by the `bastion-compiler` instrumentation pass and are
/// never written by the front-end. At runtime the VM executes them inline
/// (the paper inlines all library functions "to maximize performance"),
/// updating the shadow-memory hash table that the monitor later consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntrinsicOp {
    /// `ctx_write_mem(p, size)` — refresh the shadow copy of the sensitive
    /// variable at address `p` (operand) covering `size` bytes.
    CtxWriteMem {
        /// Address of the sensitive variable.
        addr: Operand,
        /// Bytes covered (1..=8 per entry; larger objects use several calls).
        size: u32,
    },
    /// `ctx_bind_mem_X(p)` — bind the memory-backed variable at `p` to
    /// argument position `pos` (1-based, as in the paper) of the next call.
    CtxBindMem {
        /// 1-based argument position.
        pos: u8,
        /// Address of the bound variable.
        addr: Operand,
    },
    /// `ctx_bind_const_X(c)` — bind constant `value` to argument position
    /// `pos` of the next call.
    CtxBindConst {
        /// 1-based argument position.
        pos: u8,
        /// Expected constant value.
        value: i64,
    },
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Inst {
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
    /// `dst = *(addr)` with the given width.
    Load {
        dst: Reg,
        addr: Operand,
        width: Width,
    },
    /// `*(addr) = src` with the given width.
    Store {
        addr: Operand,
        src: Operand,
        width: Width,
    },
    /// `dst = &frame_slot` — address of a local variable in the current frame.
    FrameAddr { dst: Reg, slot: SlotId },
    /// `dst = &global`.
    GlobalAddr { dst: Reg, global: GlobalId },
    /// `dst = &function` — takes the address of a function. This is what
    /// makes the target *address-taken* for call-type classification.
    FuncAddr { dst: Reg, func: FuncRef },
    /// `dst = base + offsetof(struct, field)` — field-sensitive address
    /// computation (GEP analogue).
    FieldAddr {
        dst: Reg,
        base: Operand,
        struct_id: StructId,
        field: u32,
    },
    /// `dst = base + index * elem_size` — array indexing.
    IndexAddr {
        dst: Reg,
        base: Operand,
        elem_size: u64,
        index: Operand,
    },
    /// A function call. Arguments are passed in the VM's argument registers
    /// and spilled into the callee's parameter slots (clang `-O0` style), so
    /// parameters are memory-backed and corruptible, as the paper requires.
    Call {
        dst: Option<Reg>,
        callee: Callee,
        args: Vec<Operand>,
    },
    /// The `syscall` machine instruction. Appears only inside
    /// [`crate::FuncKind::SyscallStub`] bodies; `args` forward the stub's
    /// parameters into the kernel's argument registers.
    Syscall {
        dst: Reg,
        nr: u32,
        args: Vec<Operand>,
    },
    /// A BASTION instrumentation intrinsic (see [`IntrinsicOp`]).
    Intrinsic(IntrinsicOp),
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::FrameAddr { dst, .. }
            | Inst::GlobalAddr { dst, .. }
            | Inst::FuncAddr { dst, .. }
            | Inst::FieldAddr { dst, .. }
            | Inst::IndexAddr { dst, .. }
            | Inst::Syscall { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } | Inst::Intrinsic(_) => None,
        }
    }

    /// All operands read by this instruction, in operand order: the fixed
    /// operands first (an indirect call's target before its arguments),
    /// then any argument list. The analyses rely on this order.
    #[inline]
    pub fn uses(&self) -> Uses<'_> {
        const NONE: Operand = Operand::Imm(0);
        let (fixed, n, list): ([Operand; 2], u8, &[Operand]) = match self {
            Inst::Mov { src, .. } => ([*src, NONE], 1, &[]),
            Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => ([*a, *b], 2, &[]),
            Inst::Load { addr, .. } => ([*addr, NONE], 1, &[]),
            Inst::Store { addr, src, .. } => ([*addr, *src], 2, &[]),
            Inst::FrameAddr { .. } | Inst::GlobalAddr { .. } | Inst::FuncAddr { .. } => {
                ([NONE, NONE], 0, &[])
            }
            Inst::FieldAddr { base, .. } => ([*base, NONE], 1, &[]),
            Inst::IndexAddr { base, index, .. } => ([*base, *index], 2, &[]),
            Inst::Call {
                callee: Callee::Indirect(target),
                args,
                ..
            } => ([*target, NONE], 1, args),
            Inst::Call { args, .. } | Inst::Syscall { args, .. } => ([NONE, NONE], 0, args),
            Inst::Intrinsic(op) => match op {
                IntrinsicOp::CtxWriteMem { addr, .. } | IntrinsicOp::CtxBindMem { addr, .. } => {
                    ([*addr, NONE], 1, &[])
                }
                IntrinsicOp::CtxBindConst { .. } => ([NONE, NONE], 0, &[]),
            },
        };
        Uses {
            fixed,
            fixed_len: n,
            next: 0,
            list: list.iter(),
        }
    }

    /// Whether this is any kind of call instruction (used when counting
    /// "application callsites" for Table 5).
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. })
    }
}

/// The operands an instruction reads, in order ([`Inst::uses`]).
#[derive(Debug, Clone)]
pub struct Uses<'a> {
    fixed: [Operand; 2],
    fixed_len: u8,
    next: u8,
    list: std::slice::Iter<'a, Operand>,
}

impl Iterator for Uses<'_> {
    type Item = Operand;

    #[inline]
    fn next(&mut self) -> Option<Operand> {
        if self.next < self.fixed_len {
            self.next += 1;
            Some(self.fixed[usize::from(self.next - 1)])
        } else {
            self.list.next().copied()
        }
    }
}

/// A block terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Jmp(crate::module::BlockId),
    /// Conditional branch: non-zero takes `then_`, zero takes `else_`.
    Br {
        cond: Operand,
        then_: crate::module::BlockId,
        else_: crate::module::BlockId,
    },
    /// Return from the function, optionally with a value.
    Ret(Option<Operand>),
}

impl Terminator {
    /// Successor block ids: a branch's `then_` before its `else_`.
    pub fn successors(&self) -> impl Iterator<Item = crate::module::BlockId> {
        let succ = match self {
            Terminator::Jmp(b) => [Some(*b), None],
            Terminator::Br { then_, else_, .. } => [Some(*then_), Some(*else_)],
            Terminator::Ret(_) => [None, None],
        };
        succ.into_iter().flatten()
    }

    /// The operand the terminator reads, if any: a branch condition or a
    /// returned value.
    pub fn uses(&self) -> impl Iterator<Item = Operand> {
        match self {
            Terminator::Br { cond, .. } => Some(*cond),
            Terminator::Ret(v) => *v,
            Terminator::Jmp(_) => None,
        }
        .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::BlockId;

    #[test]
    fn operand_conversions() {
        let r: Operand = Reg(3).into();
        assert_eq!(r.as_reg(), Some(Reg(3)));
        assert_eq!(r.as_imm(), None);
        let i: Operand = 42i64.into();
        assert_eq!(i.as_imm(), Some(42));
        assert_eq!(i.as_reg(), None);
    }

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            dst: Reg(2),
            op: BinOp::Add,
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(1),
        };
        assert_eq!(i.def(), Some(Reg(2)));
        assert_eq!(i.uses().count(), 2);

        let s = Inst::Store {
            addr: Operand::Reg(Reg(0)),
            src: Operand::Reg(Reg(1)),
            width: Width::W64,
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().count(), 2);
    }

    #[test]
    fn indirect_call_uses_include_target() {
        let c = Inst::Call {
            dst: None,
            callee: Callee::Indirect(Operand::Reg(Reg(5))),
            args: vec![Operand::Imm(1)],
        };
        assert_eq!(
            c.uses().collect::<Vec<_>>(),
            vec![Operand::Reg(Reg(5)), Operand::Imm(1)]
        );
        assert!(c.is_call());
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Ret(None).successors().count(), 0);
        assert_eq!(
            Terminator::Jmp(BlockId(3)).successors().collect::<Vec<_>>(),
            vec![BlockId(3)]
        );
        let br = Terminator::Br {
            cond: Operand::Imm(1),
            then_: BlockId(1),
            else_: BlockId(2),
        };
        assert_eq!(
            br.successors().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::W8.bytes(), 1);
        assert_eq!(Width::W64.bytes(), 8);
    }

    const R0: Operand = Operand::Reg(Reg(0));
    const R1: Operand = Operand::Reg(Reg(1));
    const R2: Operand = Operand::Reg(Reg(2));

    fn uses_of(i: Inst) -> Vec<Operand> {
        i.uses().collect()
    }

    #[test]
    fn uses_of_every_instruction_in_operand_order() {
        use crate::module::{FuncId, GlobalId, SlotId};
        use crate::types::StructId;
        let d = Reg(9);
        let cases: Vec<(Inst, Vec<Operand>)> = vec![
            (Inst::Mov { dst: d, src: R0 }, vec![R0]),
            (
                Inst::Bin {
                    dst: d,
                    op: BinOp::Sub,
                    a: R1,
                    b: R0,
                },
                vec![R1, R0],
            ),
            (
                Inst::Cmp {
                    dst: d,
                    op: CmpOp::Lt,
                    a: Operand::Imm(4),
                    b: R1,
                },
                vec![Operand::Imm(4), R1],
            ),
            (
                Inst::Load {
                    dst: d,
                    addr: R2,
                    width: Width::W8,
                },
                vec![R2],
            ),
            (
                Inst::Store {
                    addr: R1,
                    src: R0,
                    width: Width::W64,
                },
                vec![R1, R0],
            ),
            (
                Inst::FrameAddr {
                    dst: d,
                    slot: SlotId(0),
                },
                vec![],
            ),
            (
                Inst::GlobalAddr {
                    dst: d,
                    global: GlobalId(0),
                },
                vec![],
            ),
            (
                Inst::FuncAddr {
                    dst: d,
                    func: FuncId(0),
                },
                vec![],
            ),
            (
                Inst::FieldAddr {
                    dst: d,
                    base: R2,
                    struct_id: StructId(0),
                    field: 1,
                },
                vec![R2],
            ),
            (
                Inst::IndexAddr {
                    dst: d,
                    base: R1,
                    elem_size: 8,
                    index: R2,
                },
                vec![R1, R2],
            ),
            (
                Inst::Call {
                    dst: Some(d),
                    callee: Callee::Direct(FuncId(3)),
                    args: vec![R2, Operand::Imm(7), R0],
                },
                vec![R2, Operand::Imm(7), R0],
            ),
            (
                Inst::Call {
                    dst: None,
                    callee: Callee::Indirect(R1),
                    args: vec![R0, R2],
                },
                vec![R1, R0, R2],
            ),
            (
                Inst::Call {
                    dst: None,
                    callee: Callee::Indirect(R1),
                    args: vec![],
                },
                vec![R1],
            ),
            (
                Inst::Syscall {
                    dst: d,
                    nr: 59,
                    args: vec![R2, R1, R0],
                },
                vec![R2, R1, R0],
            ),
            (
                Inst::Intrinsic(IntrinsicOp::CtxWriteMem { addr: R1, size: 8 }),
                vec![R1],
            ),
            (
                Inst::Intrinsic(IntrinsicOp::CtxBindMem { pos: 2, addr: R0 }),
                vec![R0],
            ),
            (
                Inst::Intrinsic(IntrinsicOp::CtxBindConst { pos: 1, value: 5 }),
                vec![],
            ),
        ];
        for (inst, want) in cases {
            assert_eq!(uses_of(inst.clone()), want, "{inst:?}");
        }
    }

    #[test]
    fn successors_and_uses_of_every_terminator() {
        let cases = [
            (Terminator::Jmp(BlockId(4)), vec![BlockId(4)], vec![]),
            (
                Terminator::Br {
                    cond: R2,
                    then_: BlockId(7),
                    else_: BlockId(1),
                },
                vec![BlockId(7), BlockId(1)],
                vec![R2],
            ),
            // A branch whose arms agree still lists both.
            (
                Terminator::Br {
                    cond: Operand::Imm(0),
                    then_: BlockId(2),
                    else_: BlockId(2),
                },
                vec![BlockId(2), BlockId(2)],
                vec![Operand::Imm(0)],
            ),
            (Terminator::Ret(None), vec![], vec![]),
            (Terminator::Ret(Some(R1)), vec![], vec![R1]),
        ];
        for (t, succ, uses) in cases {
            assert_eq!(t.successors().collect::<Vec<_>>(), succ, "{t:?}");
            assert_eq!(t.uses().collect::<Vec<_>>(), uses, "{t:?}");
        }
    }
}
