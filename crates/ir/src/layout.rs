//! Code layout: assigning virtual addresses to instructions.
//!
//! BASTION's metadata keys everything on *addresses* — callsite file offsets,
//! callee/caller address pairs, the trapped `rip` — so the reproduction needs
//! a deterministic mapping from IR instructions to a flat virtual address
//! space. Every instruction (terminators included) occupies [`INST_SIZE`]
//! bytes; functions are laid out consecutively, 16-byte aligned, starting at
//! a base that an ASLR-style slide can shift at load time.
//!
//! Return addresses point at the instruction *after* a call, so the monitor
//! recovers the callsite as `retaddr - CALL_SIZE`, exactly like decoding the
//! `call` instruction preceding the return target on x86.

use crate::module::{BlockId, FuncId, Module};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of every encoded instruction in bytes.
pub const INST_SIZE: u64 = 4;

/// Size of a call instruction; `callsite = return_address - CALL_SIZE`.
pub const CALL_SIZE: u64 = INST_SIZE;

/// Default link-time base of the code segment.
pub const DEFAULT_CODE_BASE: u64 = 0x0040_0000;

/// A virtual code address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CodeAddr(pub u64);

impl CodeAddr {
    /// The raw address value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The address `delta` bytes further on.
    pub fn offset(self, delta: u64) -> CodeAddr {
        CodeAddr(self.0 + delta)
    }
}

impl fmt::Display for CodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

/// The position of one instruction inside a module.
///
/// `inst == block.insts.len()` designates the block terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstLoc {
    /// Containing function.
    pub func: FuncId,
    /// Containing block.
    pub block: BlockId,
    /// Instruction index within the block; the terminator sits one past the
    /// last ordinary instruction.
    pub inst: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct FuncLayout {
    base: u64,
    /// Prefix starts of each block (in instruction units, incl. terminator).
    block_starts: Vec<u64>,
    /// Total instruction units in the function.
    len: u64,
}

/// The address map for a module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CodeLayout {
    base: u64,
    funcs: Vec<FuncLayout>,
    end: u64,
}

impl CodeLayout {
    /// Lays out `module` at the default code base.
    pub fn new(module: &Module) -> Self {
        Self::with_base(module, DEFAULT_CODE_BASE)
    }

    /// Lays out `module` with an explicit base (e.g. an ASLR slide applied
    /// by the loader).
    pub fn with_base(module: &Module, base: u64) -> Self {
        let mut cursor = base;
        let mut funcs = Vec::with_capacity(module.functions.len());
        for f in &module.functions {
            cursor = cursor.div_ceil(16) * 16;
            let mut block_starts = Vec::with_capacity(f.blocks.len());
            let mut units = 0u64;
            for b in &f.blocks {
                block_starts.push(units);
                units += b.insts.len() as u64 + 1;
            }
            funcs.push(FuncLayout {
                base: cursor,
                block_starts,
                len: units,
            });
            cursor += units * INST_SIZE;
        }
        CodeLayout {
            base,
            funcs,
            end: cursor,
        }
    }

    /// The code segment base address.
    pub fn code_base(&self) -> CodeAddr {
        CodeAddr(self.base)
    }

    /// One past the last code address.
    pub fn code_end(&self) -> CodeAddr {
        CodeAddr(self.end)
    }

    /// Entry address of a function.
    ///
    /// # Panics
    /// Panics if `f` is out of bounds.
    pub fn func_entry(&self, f: FuncId) -> CodeAddr {
        CodeAddr(self.funcs[f.index()].base)
    }

    /// One past the last instruction address of a function.
    ///
    /// # Panics
    /// Panics if `f` is out of bounds.
    pub fn func_end(&self, f: FuncId) -> CodeAddr {
        let fl = &self.funcs[f.index()];
        CodeAddr(fl.base + fl.len * INST_SIZE)
    }

    /// Address of an instruction location.
    ///
    /// # Panics
    /// Panics if the location does not exist in the laid-out module.
    pub fn addr_of(&self, loc: InstLoc) -> CodeAddr {
        let fl = &self.funcs[loc.func.index()];
        let unit = fl.block_starts[loc.block.index()] + loc.inst as u64;
        assert!(unit < fl.len, "instruction location out of range");
        CodeAddr(fl.base + unit * INST_SIZE)
    }

    /// Resolves a code address back to its instruction location, if it is
    /// exactly the start of an instruction in some function.
    pub fn loc_of(&self, addr: CodeAddr) -> Option<InstLoc> {
        let f = self.func_of(addr)?;
        let fl = &self.funcs[f.index()];
        let delta = addr.0 - fl.base;
        if !delta.is_multiple_of(INST_SIZE) {
            return None;
        }
        let unit = delta / INST_SIZE;
        if unit >= fl.len {
            return None;
        }
        // Find the containing block: last block_start <= unit.
        let block = match fl.block_starts.binary_search(&unit) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Some(InstLoc {
            func: f,
            block: BlockId(block as u32),
            inst: (unit - fl.block_starts[block]) as usize,
        })
    }

    /// The function containing `addr`, if any.
    pub fn func_of(&self, addr: CodeAddr) -> Option<FuncId> {
        if addr.0 < self.base || addr.0 >= self.end {
            return None;
        }
        // Binary search over function bases.
        let idx = self.funcs.partition_point(|fl| fl.base <= addr.0);
        if idx == 0 {
            return None;
        }
        let f = idx - 1;
        let fl = &self.funcs[f];
        if addr.0 < fl.base + fl.len * INST_SIZE {
            Some(FuncId(f as u32))
        } else {
            None
        }
    }

    /// Total number of [`INST_SIZE`]-byte units spanned by the code segment,
    /// alignment padding between functions included. A predecoded flat
    /// instruction stream indexed by `(addr - base) / INST_SIZE` has exactly
    /// this many entries.
    pub fn total_units(&self) -> u64 {
        (self.end - self.base) / INST_SIZE
    }

    /// Flat unit index of an instruction location:
    /// `(addr_of(loc) - code_base) / INST_SIZE`.
    ///
    /// # Panics
    /// Panics if the location does not exist in the laid-out module.
    pub fn unit_of(&self, loc: InstLoc) -> u64 {
        (self.addr_of(loc).raw() - self.base) / INST_SIZE
    }

    /// The code address of flat unit `unit` (inverse of [`Self::unit_of`]
    /// for in-range units).
    pub fn addr_of_unit(&self, unit: u64) -> CodeAddr {
        CodeAddr(self.base + unit * INST_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ModuleBuilder;
    use crate::inst::Operand;
    use crate::types::Ty;

    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let stub = mb.declare_syscall_stub("getpid", 39, 0);
        let mut f = mb.function("main", &[], Ty::I64);
        let b2 = f.new_block();
        f.jmp(b2);
        f.switch_to(b2);
        let r = f.call_direct(stub, &[]);
        f.ret(Some(Operand::Reg(r)));
        f.finish();
        mb.finish()
    }

    #[test]
    fn roundtrip_every_instruction() {
        let m = sample();
        let layout = CodeLayout::new(&m);
        for (fid, f) in m.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for i in 0..=b.insts.len() {
                    let loc = InstLoc {
                        func: fid,
                        block: bid,
                        inst: i,
                    };
                    let addr = layout.addr_of(loc);
                    assert_eq!(layout.loc_of(addr), Some(loc));
                    assert_eq!(layout.func_of(addr), Some(fid));
                }
            }
        }
    }

    #[test]
    fn functions_are_aligned_and_disjoint() {
        let m = sample();
        let layout = CodeLayout::new(&m);
        let a = layout.func_entry(FuncId(0));
        let b = layout.func_entry(FuncId(1));
        assert_eq!(a.raw() % 16, 0);
        assert_eq!(b.raw() % 16, 0);
        assert!(b.raw() > a.raw());
    }

    #[test]
    fn out_of_range_addresses_resolve_to_none() {
        let m = sample();
        let layout = CodeLayout::new(&m);
        assert_eq!(layout.loc_of(CodeAddr(0)), None);
        assert_eq!(layout.func_of(CodeAddr(layout.code_end().raw())), None);
        // Misaligned address inside code.
        let entry = layout.func_entry(FuncId(0));
        assert_eq!(layout.loc_of(CodeAddr(entry.raw() + 2)), None);
    }

    #[test]
    fn flat_units_cover_code_and_roundtrip() {
        let m = sample();
        let layout = CodeLayout::new(&m);
        assert_eq!(
            layout.total_units() * INST_SIZE,
            layout.code_end().raw() - layout.code_base().raw()
        );
        for (fid, f) in m.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for i in 0..=b.insts.len() {
                    let loc = InstLoc {
                        func: fid,
                        block: bid,
                        inst: i,
                    };
                    let unit = layout.unit_of(loc);
                    assert!(unit < layout.total_units());
                    assert_eq!(layout.addr_of_unit(unit), layout.addr_of(loc));
                }
            }
        }
    }

    #[test]
    fn aslr_slide_shifts_everything() {
        let m = sample();
        let a = CodeLayout::with_base(&m, 0x40_0000);
        let b = CodeLayout::with_base(&m, 0x50_0000);
        let delta = 0x10_0000;
        assert_eq!(
            b.func_entry(FuncId(1)).raw() - a.func_entry(FuncId(1)).raw(),
            delta
        );
    }
}
