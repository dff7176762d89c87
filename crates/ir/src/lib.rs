//! # bastion-ir
//!
//! The intermediate representation used by the BASTION reproduction.
//!
//! The paper's prototype implements its analyses and instrumentation as an
//! LLVM module pass. This crate provides the equivalent substrate: a small,
//! word-oriented, register-machine IR that exposes exactly the objects the
//! BASTION pass inspects —
//!
//! * **call instructions** with an explicit direct/indirect distinction
//!   ([`Callee`]), so call-type classification (§6.1 of the paper) is
//!   expressible;
//! * **address-taken functions** ([`Inst::FuncAddr`]), which is what makes a
//!   system call *indirectly-callable*;
//! * **memory-backed variables** (frame slots, globals, struct fields reached
//!   through [`Inst::FieldAddr`]) with explicit `load`/`store`, so the
//!   field-sensitive use-def analysis (§6.3.3) has real locations to trace;
//! * **system call stubs** ([`FuncKind::SyscallStub`]) standing in for the
//!   libc wrappers that execute the `syscall` instruction;
//! * **instrumentation intrinsics** ([`Inst::Intrinsic`]) mirroring the
//!   BASTION runtime library API of Table 2 (`ctx_write_mem`,
//!   `ctx_bind_mem_X`, `ctx_bind_const_X`).
//!
//! A [`Module`] is produced either by the MiniC front-end (`bastion-minic`)
//! or programmatically through [`build::ModuleBuilder`], then analysed by
//! `bastion-analysis`, instrumented by `bastion-compiler`, laid out in a
//! virtual address space by [`layout::CodeLayout`], and executed by
//! `bastion-vm`.
//!
//! ```
//! use bastion_ir::build::ModuleBuilder;
//! use bastion_ir::{Operand, Ty};
//!
//! # fn main() -> Result<(), bastion_ir::ValidateError> {
//! let mut mb = ModuleBuilder::new("demo");
//! let getpid = mb.declare_syscall_stub("getpid", 39, 0);
//! let mut f = mb.function("main", &[], Ty::I64);
//! let r = f.call_direct(getpid, &[]);
//! f.ret(Some(Operand::Reg(r)));
//! f.finish();
//! let module = mb.finish();
//! module.validate()?;
//! # Ok(())
//! # }
//! ```

pub mod build;
pub mod hash;
pub mod inst;
pub mod layout;
pub mod module;
pub mod printer;
pub mod sysno;
pub mod types;
pub mod validate;

pub use hash::{FxHashMap, FxHashSet};
pub use inst::{
    BinOp, Callee, CmpOp, FuncRef, Inst, IntrinsicOp, Operand, Reg, Terminator, Uses, Width,
};
pub use layout::{CodeAddr, CodeLayout, InstLoc, CALL_SIZE};
pub use module::{
    Block, BlockId, FuncId, FuncKind, Function, Global, GlobalId, GlobalInit, Local, Module, Param,
    SlotId,
};
pub use types::{StructDef, StructId, Ty};
pub use validate::ValidateError;
