//! # bastion-vm
//!
//! A deterministic process virtual machine executing [`bastion_ir`] modules.
//!
//! The paper's attacks and defenses all live at the level of a concrete
//! process image: return addresses and frame pointers on a stack an attacker
//! can overwrite byte-wise, argument registers the monitor reads via
//! `ptrace`, a shadow-memory hash table mapped into the application's
//! address space, and `syscall` instructions trapping into the kernel. This
//! crate provides exactly that substrate:
//!
//! * [`mem::Memory`] — a sparse paged 64-bit address space with explicit
//!   mapping (unmapped access faults, as under a real MMU);
//! * [`image::Image`] — the loader: lays out code (with an optional
//!   ASLR-style slide), data, stack, heap, and the shadow region, and
//!   resolves global relocations (handler tables take function addresses);
//! * [`machine::Machine`] — architectural state: pc, sp/fp, per-frame
//!   virtual registers, syscall argument registers, cycle counter, and the
//!   optional CET shadow stack / LLVM-CFI policy of `bastion-defenses`;
//! * [`decode`] — the predecoded flat instruction stream built at image
//!   load (the interpreter's fast path; see DESIGN.md §6c);
//! * [`interp`] — the instruction interpreter; executes until the next
//!   *event* (syscall, exit, fault) that the kernel crate handles, via the
//!   fused predecoded loop or the legacy tree-walking reference path;
//! * [`shadow`] — the open-addressing shadow-memory hash table (paper §7.1)
//!   shared by the inlined instrumentation intrinsics and the monitor.
//!
//! Time is **virtual**: every instruction charges cycles from
//! [`cost::CostModel`], making all experiments machine-independent and
//! bit-for-bit reproducible (see DESIGN.md §2).
//!
//! ```
//! use bastion_ir::build::ModuleBuilder;
//! use bastion_ir::{Operand, Ty};
//! use bastion_vm::{interp, CostModel, Event, Image, Machine};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), bastion_ir::ValidateError> {
//! let mut mb = ModuleBuilder::new("demo");
//! let mut f = mb.function("main", &[], Ty::I64);
//! let a = f.mov(40i64);
//! let b = f.bin(bastion_ir::BinOp::Add, a, 2i64);
//! f.ret(Some(b.into()));
//! f.finish();
//! let image = Arc::new(Image::load(mb.finish())?);
//! let mut machine = Machine::new(image, CostModel::default());
//! assert_eq!(interp::run(&mut machine, 1_000).event(), Event::Exited(42));
//! # Ok(())
//! # }
//! ```

pub mod cost;
pub mod decode;
pub mod image;
pub mod interp;
pub mod machine;
pub mod mem;
pub mod shadow;

pub use cost::CostModel;
pub use decode::{DecodedInst, DecodedProgram};
pub use image::{Image, ImageBuilder};
pub use interp::{run, run_bounded, run_legacy, step, Event, RunOutcome};
pub use machine::{CfiPolicy, Fault, Frame, Machine, RetTo};
pub use mem::{MemIo, Memory, OutOfBounds};
pub use shadow::{ShadowError, ShadowTable, SHADOW_REGION_SIZE};
