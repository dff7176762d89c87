//! Modules, functions, blocks, globals.

use crate::inst::{Inst, Terminator};
use crate::types::{StructDef, Ty};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
            Default,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Index into the owning table.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a [`Function`] within a [`Module`].
    FuncId,
    "@f"
);
id_type!(
    /// Identifies a [`Block`] within a [`Function`].
    BlockId,
    "bb"
);
id_type!(
    /// Identifies a [`Global`] within a [`Module`].
    GlobalId,
    "@g"
);
id_type!(
    /// Identifies a frame slot ([`Local`]) within a [`Function`].
    SlotId,
    "$"
);

/// A module global variable, living in the data segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Global {
    /// Source-level name.
    pub name: String,
    /// Declared type (drives size).
    pub ty: Ty,
    /// Initial contents.
    pub init: GlobalInit,
}

/// Initializer for a [`Global`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GlobalInit {
    /// Zero-filled.
    Zero,
    /// Raw bytes (e.g. string literals); zero-padded to the type size.
    Bytes(Vec<u8>),
    /// 64-bit words written little-endian (e.g. integer tables).
    Words(Vec<i64>),
    /// Words where some entries are relocated function addresses. Entries are
    /// either a literal word or a function reference resolved at load time —
    /// this is how handler tables like NGINX's `v[index].get_handler` arrays
    /// are built, and each referenced function becomes address-taken.
    Relocated(Vec<RelocEntry>),
}

/// One entry of a [`GlobalInit::Relocated`] initializer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RelocEntry {
    /// A literal 64-bit word.
    Word(i64),
    /// The load address of a function (address-taken).
    FuncAddr(FuncId),
    /// The load address of another global.
    GlobalAddr(GlobalId),
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Source-level name.
    pub name: String,
    /// Declared type; must be scalar (aggregates pass by pointer).
    pub ty: Ty,
}

/// A stack-frame local variable.
///
/// Every named MiniC local (and every parameter) gets a frame slot in
/// simulated memory, so attackers with arbitrary write can corrupt them —
/// a prerequisite for reproducing the paper's attack scenarios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Local {
    /// Source-level name.
    pub name: String,
    /// Declared type (drives slot size).
    pub ty: Ty,
}

/// What kind of code a [`Function`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuncKind {
    /// Ordinary application (or libc helper) code.
    Normal,
    /// A libc-style system call wrapper whose body executes the `syscall`
    /// instruction with the given Linux x86-64 syscall number. Stubs exist
    /// in the linked image whether or not the application calls them — just
    /// like libc wrappers — which is what the Call-Type context's
    /// *not-callable* class protects against.
    SyscallStub(u32),
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The block terminator.
    pub term: Terminator,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Source-level name (unique within a module).
    pub name: String,
    /// Kind: normal code or a syscall stub.
    pub kind: FuncKind,
    /// Parameters; each also has a slot in `locals` (the first
    /// `params.len()` slots) where the VM spills incoming arguments.
    pub params: Vec<Param>,
    /// Return type.
    pub ret_ty: Ty,
    /// Frame slots: parameters first, then named locals, then any
    /// compiler-introduced temporaries.
    pub locals: Vec<Local>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Number of virtual registers used.
    pub reg_count: u32,
}

impl Function {
    /// The syscall number if this is a stub.
    pub fn syscall_nr(&self) -> Option<u32> {
        match self.kind {
            FuncKind::SyscallStub(nr) => Some(nr),
            FuncKind::Normal => None,
        }
    }

    /// Byte offset of a slot from the frame base (slot area start).
    ///
    /// Slots are laid out in declaration order. The VM places the slot area
    /// directly below the saved frame pointer, so the runtime address of
    /// slot `s` is `fp - frame_size + slot_offset(s)`.
    ///
    /// # Panics
    /// Panics if `slot` is out of bounds.
    pub fn slot_offset(&self, slot: SlotId, structs: &[StructDef]) -> u64 {
        assert!(slot.index() < self.locals.len(), "slot out of bounds");
        self.locals[..slot.index()]
            .iter()
            .map(|l| slot_bytes(&l.ty, structs))
            .sum()
    }

    /// Total frame slot area size in bytes (each slot 8-byte aligned).
    pub fn frame_size(&self, structs: &[StructDef]) -> u64 {
        self.locals.iter().map(|l| slot_bytes(&l.ty, structs)).sum()
    }

    /// [`Function::slot_offset`] of every slot, in slot order, in one pass.
    pub fn slot_offsets(&self, structs: &[StructDef]) -> Vec<u64> {
        let mut at = 0;
        self.locals
            .iter()
            .map(|l| {
                let off = at;
                at += slot_bytes(&l.ty, structs);
                off
            })
            .collect()
    }

    /// Iterate over `(BlockId, &Block)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total instruction count including terminators.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }
}

/// Bytes a slot of type `ty` occupies: at least one, rounded up to a word.
fn slot_bytes(ty: &Ty, structs: &[StructDef]) -> u64 {
    ty.size(structs).max(1).div_ceil(8) * 8
}

/// A complete translation unit: the linked image the loader maps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Module {
    /// Module name (diagnostics only).
    pub name: String,
    /// Struct table.
    pub structs: Vec<StructDef>,
    /// Global variables.
    pub globals: Vec<Global>,
    /// Functions; `FuncId(i)` indexes this table.
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// The function table entry for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Map from syscall number to the stub function implementing it.
    pub fn syscall_stubs(&self) -> HashMap<u32, FuncId> {
        self.functions
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.syscall_nr().map(|nr| (nr, FuncId(i as u32))))
            .collect()
    }

    /// Iterate over `(FuncId, &Function)`.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(Function::inst_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ModuleBuilder;
    use crate::inst::Operand;

    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let getpid = mb.declare_syscall_stub("getpid", 39, 0);
        let mut f = mb.function("main", &[], Ty::I64);
        let buf = f.local("buf", Ty::Array(Box::new(Ty::I8), 12));
        let n = f.local("n", Ty::I64);
        let _ = (buf, n);
        let r = f.call_direct(getpid, &[]);
        f.ret(Some(Operand::Reg(r)));
        f.finish();
        mb.finish()
    }

    #[test]
    fn lookup_by_name() {
        let m = sample();
        assert!(m.func_by_name("main").is_some());
        assert!(m.func_by_name("getpid").is_some());
        assert!(m.func_by_name("nope").is_none());
    }

    #[test]
    fn syscall_stub_table() {
        let m = sample();
        let stubs = m.syscall_stubs();
        assert_eq!(stubs.len(), 1);
        let f = m.func(stubs[&39]);
        assert_eq!(f.syscall_nr(), Some(39));
    }

    #[test]
    fn slot_offsets_are_aligned() {
        let m = sample();
        let main = m.func(m.func_by_name("main").unwrap());
        // buf: 12 bytes rounds to 16; n follows at 16.
        assert_eq!(main.slot_offset(SlotId(0), &m.structs), 0);
        assert_eq!(main.slot_offset(SlotId(1), &m.structs), 16);
        assert_eq!(main.frame_size(&m.structs), 24);
        assert_eq!(main.slot_offsets(&m.structs), vec![0, 16]);
    }

    #[test]
    fn inst_counts() {
        let m = sample();
        assert!(m.inst_count() > 0);
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::build::ModuleBuilder;
    use crate::inst::Operand;
    use crate::types::Ty;

    #[test]
    fn modules_serialize_roundtrip() {
        let mut mb = ModuleBuilder::new("serde");
        let stub = mb.declare_syscall_stub("execve", 59, 3);
        let g = mb.global_str("path", "/bin/x");
        let mut f = mb.function("main", &[], Ty::I64);
        let p = f.global_addr(g);
        let r = f.call_direct(stub, &[p.into(), Operand::Imm(0), Operand::Imm(0)]);
        f.ret(Some(r.into()));
        f.finish();
        let m = mb.finish();
        let json = serde_json::to_string(&m).unwrap();
        let back: Module = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
