//! The loader: process image layout.
//!
//! Lays a validated module out into a virtual address space:
//!
//! ```text
//! 0x0040_0000 (+ slide)  code        (instruction addresses, CodeLayout)
//! 0x0060_0000 (+ slide)  data        (globals; relocations resolved)
//! 0x0200_0000            heap        (grown by brk)
//! 0x7f00_0000_0000       mmap area   (grown by mmap)
//! 0x7fff_fff0_0000       stack       (grows down; STACK_SIZE mapped)
//! 0x5800_0000_0000 (+ slide) shadow  (BASTION shadow table, $gs base)
//! ```
//!
//! Coarse ASLR (paper §4 assumes it) is modelled by a page-aligned slide
//! derived from a seed; BASTION is relative-addressing based, so everything
//! keeps working under any slide — the monitor learns the load bias exactly
//! like reading `/proc/pid/maps`.

use crate::decode::DecodedProgram;
use crate::mem::Memory;
use crate::shadow::{ShadowTable, SHADOW_REGION_SIZE};
use bastion_ir::module::{GlobalInit, RelocEntry};
use bastion_ir::{CodeLayout, FuncId, Module, ValidateError};
use std::sync::Arc;

/// Default link base of the code segment.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Default base of the data segment (before slide).
pub const DATA_BASE: u64 = 0x0060_0000;
/// Initial program break.
pub const HEAP_BASE: u64 = 0x0200_0000;
/// Bottom of the mmap allocation area.
pub const MMAP_BASE: u64 = 0x7f00_0000_0000;
/// Top of the initial stack (exclusive).
pub const STACK_TOP: u64 = 0x7fff_fff0_0000;
/// Stack size mapped at load.
pub const STACK_SIZE: u64 = 256 * 1024;
/// Shadow region base (before slide).
pub const SHADOW_BASE: u64 = 0x5800_0000_0000;

/// Per-function frame layout cache.
#[derive(Debug, Clone)]
pub struct FrameInfo {
    /// Total slot-area size in bytes.
    pub frame_size: u64,
    /// Byte offset of each slot from the slot-area base.
    pub slot_offsets: Vec<u64>,
}

/// Configures and builds an [`Image`].
#[derive(Debug, Clone, Default)]
pub struct ImageBuilder {
    aslr_seed: Option<u64>,
}

impl ImageBuilder {
    /// A builder with ASLR disabled (slide 0).
    pub fn new() -> Self {
        ImageBuilder::default()
    }

    /// Enables a deterministic ASLR-style slide derived from `seed`.
    pub fn aslr_seed(mut self, seed: u64) -> Self {
        self.aslr_seed = Some(seed);
        self
    }

    /// Lays out `module`.
    ///
    /// # Errors
    /// Fails if the module does not validate or lacks a `main` function.
    pub fn build(self, module: Module) -> Result<Image, ValidateError> {
        module.validate()?;
        let entry = module.func_by_name("main").ok_or_else(|| ValidateError {
            func: None,
            message: "module has no `main` function".into(),
        })?;

        let slide = self.aslr_seed.map_or(0, |s| {
            // Page-aligned slide within 256 MiB, deterministic in the seed.
            (s.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20 & 0xffff) << 12
        });
        let layout = CodeLayout::with_base(&module, CODE_BASE + slide);

        // Assign global addresses (8-byte aligned, sequential).
        let data_base = (DATA_BASE + slide).max(layout.code_end().raw().div_ceil(4096) * 4096);
        let mut global_addrs = Vec::with_capacity(module.globals.len());
        let mut cursor = data_base;
        for g in &module.globals {
            cursor = cursor.div_ceil(8) * 8;
            global_addrs.push(cursor);
            cursor += g.ty.size(&module.structs).max(8);
        }
        let data_end = cursor;

        let frame_info: Vec<FrameInfo> = module
            .functions
            .iter()
            .map(|f| FrameInfo {
                frame_size: f.frame_size(&module.structs),
                slot_offsets: f.slot_offsets(&module.structs),
            })
            .collect();

        let shadow_base = SHADOW_BASE + (slide << 4);
        let decoded = DecodedProgram::decode(&module, &layout, &frame_info, &global_addrs);

        Ok(Image {
            module: Arc::new(module),
            layout,
            decoded,
            global_addrs,
            frame_info,
            entry,
            data_base,
            data_end,
            heap_base: HEAP_BASE,
            mmap_base: MMAP_BASE,
            stack_top: STACK_TOP,
            stack_base: STACK_TOP - STACK_SIZE,
            shadow: ShadowTable::new(shadow_base),
            slide,
        })
    }
}

/// A loaded program image: the module plus its address-space geometry.
#[derive(Debug, Clone)]
pub struct Image {
    /// The executable module (shared across forked processes).
    pub module: Arc<Module>,
    /// Instruction address map.
    pub layout: CodeLayout,
    /// Predecoded flat instruction stream (the interpreter fast path).
    pub decoded: DecodedProgram,
    /// Load address of each global.
    pub global_addrs: Vec<u64>,
    /// Frame geometry per function.
    pub frame_info: Vec<FrameInfo>,
    /// The `main` function.
    pub entry: FuncId,
    /// Data segment bounds.
    pub data_base: u64,
    /// One past the last data byte.
    pub data_end: u64,
    /// Initial program break.
    pub heap_base: u64,
    /// Bottom of the mmap allocation area.
    pub mmap_base: u64,
    /// Lowest mapped stack address.
    pub stack_base: u64,
    /// Top of the stack (exclusive).
    pub stack_top: u64,
    /// The shadow-memory table descriptor ($gs base).
    pub shadow: ShadowTable,
    /// The ASLR slide applied (0 when disabled).
    pub slide: u64,
}

impl Image {
    /// Builds an image with default settings (no ASLR).
    ///
    /// # Errors
    /// Fails if the module does not validate or lacks `main`.
    pub fn load(module: Module) -> Result<Image, ValidateError> {
        ImageBuilder::new().build(module)
    }

    /// Creates a fresh [`Memory`] with data, stack, and shadow mapped and
    /// globals initialized.
    pub fn fresh_memory(&self) -> Memory {
        let mut mem = Memory::new();
        mem.map_region(self.data_base, (self.data_end - self.data_base).max(8));
        mem.map_region(self.stack_base, self.stack_top - self.stack_base);
        mem.map_region(self.shadow.base, SHADOW_REGION_SIZE);
        for (i, g) in self.module.globals.iter().enumerate() {
            let addr = self.global_addrs[i];
            match &g.init {
                GlobalInit::Zero => {}
                GlobalInit::Bytes(b) => mem.write_unchecked(addr, b),
                GlobalInit::Words(ws) => {
                    for (j, w) in ws.iter().enumerate() {
                        mem.write_unchecked(addr + j as u64 * 8, &w.to_le_bytes());
                    }
                }
                GlobalInit::Relocated(entries) => {
                    for (j, e) in entries.iter().enumerate() {
                        let v = match e {
                            RelocEntry::Word(w) => *w as u64,
                            RelocEntry::FuncAddr(f) => self.layout.func_entry(*f).raw(),
                            RelocEntry::GlobalAddr(g) => self.global_addrs[g.index()],
                        };
                        mem.write_unchecked(addr + j as u64 * 8, &v.to_le_bytes());
                    }
                }
            }
        }
        mem
    }

    /// Load address of global `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn global_addr(&self, id: bastion_ir::GlobalId) -> u64 {
        self.global_addrs[id.index()]
    }

    /// Resolves a function or global symbol name to its load address.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        if let Some(f) = self.module.func_by_name(name) {
            return Some(self.layout.func_entry(f).raw());
        }
        self.module
            .global_by_name(name)
            .map(|g| self.global_addr(g))
    }

    /// Frame info for `f`.
    ///
    /// # Panics
    /// Panics if `f` is out of bounds.
    pub fn frame(&self, f: FuncId) -> &FrameInfo {
        &self.frame_info[f.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemIo;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::module::GlobalInit;
    use bastion_ir::{Operand, Ty};

    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("img");
        let target = mb.declare("target", &[], Ty::Void);
        let _s = mb.global_str("msg", "hello");
        let _w = mb.global(
            "nums",
            Ty::Array(Box::new(Ty::I64), 3),
            GlobalInit::Words(vec![1, 2, 3]),
        );
        let _t = mb.global(
            "table",
            Ty::Array(Box::new(Ty::Func { arity: 0 }), 1),
            GlobalInit::Relocated(vec![RelocEntry::FuncAddr(target)]),
        );
        let mut f = mb.define(target);
        f.ret(None);
        f.finish();
        let mut f = mb.function("main", &[], Ty::I64);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        mb.finish()
    }

    #[test]
    fn load_initializes_globals_and_relocations() {
        let img = Image::load(sample()).unwrap();
        let mem = img.fresh_memory();
        let msg = img.symbol("msg").unwrap();
        let mut b = [0u8; 5];
        mem.read(msg, &mut b).unwrap();
        assert_eq!(&b, b"hello");
        let nums = img.symbol("nums").unwrap();
        assert_eq!(mem.read_u64(nums + 8).unwrap(), 2);
        let table = img.symbol("table").unwrap();
        let target_entry = img.symbol("target").unwrap();
        assert_eq!(mem.read_u64(table).unwrap(), target_entry);
    }

    #[test]
    fn missing_main_is_rejected() {
        let mut mb = ModuleBuilder::new("nomain");
        let mut f = mb.function("not_main", &[], Ty::Void);
        f.ret(None);
        f.finish();
        let err = Image::load(mb.finish()).unwrap_err();
        assert!(err.message.contains("main"));
    }

    #[test]
    fn aslr_slides_code_data_and_shadow_deterministically() {
        let a1 = ImageBuilder::new().aslr_seed(7).build(sample()).unwrap();
        let a2 = ImageBuilder::new().aslr_seed(7).build(sample()).unwrap();
        let b = ImageBuilder::new().aslr_seed(8).build(sample()).unwrap();
        assert_eq!(a1.slide, a2.slide);
        assert_ne!(a1.slide, b.slide);
        assert_eq!(a1.symbol("main"), a2.symbol("main"));
        assert_ne!(a1.symbol("main"), b.symbol("main"));
        assert_ne!(a1.shadow.base, b.shadow.base);
        assert_eq!(a1.slide % 4096, 0);
    }

    #[test]
    fn stack_and_shadow_are_mapped() {
        let img = Image::load(sample()).unwrap();
        let mem = img.fresh_memory();
        assert!(mem.is_mapped(img.stack_top - 8, 8));
        assert!(mem.is_mapped(img.shadow.base, SHADOW_REGION_SIZE));
        assert!(!mem.is_mapped(img.heap_base, 8)); // heap unmapped until brk
    }

    #[test]
    fn symbols_resolve_functions_and_globals() {
        let img = Image::load(sample()).unwrap();
        assert!(img.symbol("main").is_some());
        assert!(img.symbol("msg").is_some());
        assert!(img.symbol("nothing").is_none());
    }
}
