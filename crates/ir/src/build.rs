//! Ergonomic construction of modules and functions.
//!
//! [`ModuleBuilder`] assembles the module-level tables (structs, globals,
//! functions, syscall stubs); [`FunctionBuilder`] assembles one function's
//! blocks and instructions. Functions may be *declared* first (reserving a
//! [`FuncId`] so call instructions can reference code defined later) and
//! *defined* afterwards, which is how the MiniC front-end lowers mutually
//! recursive programs.

use crate::inst::{BinOp, Callee, CmpOp, Inst, Operand, Reg, Terminator, Width};
use crate::module::{
    Block, BlockId, FuncId, FuncKind, Function, Global, GlobalId, GlobalInit, Local, Module, Param,
    SlotId,
};
use crate::types::{StructDef, StructId, Ty};

/// Builds a [`Module`].
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Creates a builder for an empty module named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Adds a struct definition and returns its id.
    pub fn struct_def(&mut self, def: StructDef) -> StructId {
        self.module.structs.push(def);
        StructId(self.module.structs.len() as u32 - 1)
    }

    /// Adds a global variable.
    pub fn global(&mut self, name: impl Into<String>, ty: Ty, init: GlobalInit) -> GlobalId {
        self.module.globals.push(Global {
            name: name.into(),
            ty,
            init,
        });
        GlobalId(self.module.globals.len() as u32 - 1)
    }

    /// Adds a NUL-terminated string constant global and returns its id.
    pub fn global_str(&mut self, name: impl Into<String>, s: &str) -> GlobalId {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        let len = bytes.len() as u64;
        self.global(
            name,
            Ty::Array(Box::new(Ty::I8), len),
            GlobalInit::Bytes(bytes),
        )
    }

    /// Declares a libc-style syscall wrapper. Its auto-generated body loads
    /// the spilled parameters back out of the frame and executes the
    /// `syscall` instruction — reading from *memory* slots so that classic
    /// return-into-libc attacks (which enter the stub without a real call,
    /// inheriting attacker-controlled stack contents) behave faithfully.
    pub fn declare_syscall_stub(&mut self, name: impl Into<String>, nr: u32, arity: u8) -> FuncId {
        const NAMES: [&str; 6] = ["a0", "a1", "a2", "a3", "a4", "a5"];
        let name = name.into();
        let params: Vec<Param> = (0..usize::from(arity))
            .map(|i| Param {
                name: NAMES
                    .get(i)
                    .map_or_else(|| format!("a{i}"), |n| (*n).to_string()),
                ty: Ty::I64,
            })
            .collect();
        let locals: Vec<Local> = params
            .iter()
            .map(|p| Local {
                name: p.name.clone(),
                ty: p.ty.clone(),
            })
            .collect();
        let mut insts = Vec::with_capacity(2 * usize::from(arity) + 1);
        let mut args = Vec::with_capacity(usize::from(arity));
        let mut next = 0u32;
        for i in 0..arity {
            let addr = Reg(next);
            let val = Reg(next + 1);
            next += 2;
            insts.push(Inst::FrameAddr {
                dst: addr,
                slot: SlotId(i as u32),
            });
            insts.push(Inst::Load {
                dst: val,
                addr: Operand::Reg(addr),
                width: Width::W64,
            });
            args.push(Operand::Reg(val));
        }
        let ret = Reg(next);
        insts.push(Inst::Syscall { dst: ret, nr, args });
        let body = Block {
            insts,
            term: Terminator::Ret(Some(Operand::Reg(ret))),
        };
        self.module.functions.push(Function {
            name,
            kind: FuncKind::SyscallStub(nr),
            params,
            ret_ty: Ty::I64,
            locals,
            blocks: vec![body],
            reg_count: next + 1,
        });
        FuncId(self.module.functions.len() as u32 - 1)
    }

    /// Reserves a [`FuncId`] for a function defined later with
    /// [`ModuleBuilder::define`].
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        params: &[(&str, Ty)],
        ret_ty: Ty,
    ) -> FuncId {
        self.module.functions.push(Function {
            name: name.into(),
            kind: FuncKind::Normal,
            params: params
                .iter()
                .map(|(n, t)| Param {
                    name: (*n).to_string(),
                    ty: t.clone(),
                })
                .collect(),
            ret_ty,
            locals: params
                .iter()
                .map(|(n, t)| Local {
                    name: (*n).to_string(),
                    ty: t.clone(),
                })
                .collect(),
            blocks: Vec::new(),
            reg_count: 0,
        });
        FuncId(self.module.functions.len() as u32 - 1)
    }

    /// Starts the body of a previously declared function.
    ///
    /// # Panics
    /// Panics if `id` refers to a syscall stub or an already-defined function.
    pub fn define(&mut self, id: FuncId) -> FunctionBuilder<'_> {
        let f = &self.module.functions[id.index()];
        assert!(
            f.kind == FuncKind::Normal && f.blocks.is_empty(),
            "function {} already defined or is a stub",
            f.name
        );
        FunctionBuilder::new(self, id)
    }

    /// Declares and immediately starts defining a function.
    pub fn function(
        &mut self,
        name: impl Into<String>,
        params: &[(&str, Ty)],
        ret_ty: Ty,
    ) -> FunctionBuilder<'_> {
        let id = self.declare(name, params, ret_ty);
        self.define(id)
    }

    /// Replaces a struct definition (front-ends patch fields in after
    /// registering the name, enabling self-referential pointer fields).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn patch_struct(&mut self, id: StructId, def: StructDef) {
        self.module.structs[id.index()] = def;
    }

    /// Replaces a global's initializer (used to resolve forward references
    /// to functions in handler-table initializers).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn patch_global_init(&mut self, id: GlobalId, init: GlobalInit) {
        self.module.globals[id.index()].init = init;
    }

    /// Finishes the module, without the spare capacity its tables grew.
    pub fn finish(mut self) -> Module {
        self.module.structs.shrink_to_fit();
        self.module.globals.shrink_to_fit();
        self.module.functions.shrink_to_fit();
        self.module
    }

    /// Read-only access to the module under construction.
    pub fn module(&self) -> &Module {
        &self.module
    }
}

/// Builds one function's body. Created by [`ModuleBuilder::function`] or
/// [`ModuleBuilder::define`]; call [`FunctionBuilder::finish`] to commit.
/// The builder holds the function's frame slots while it is live, so one
/// dropped without `finish` leaves the function without body or frame.
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    mb: &'a mut ModuleBuilder,
    id: FuncId,
    locals: Vec<Local>,
    blocks: Vec<PartialBlock>,
    /// Every instruction emitted so far with its block, in emission
    /// order; `finish` deals them into exactly sized blocks.
    insts: Vec<(u32, Inst)>,
    current: usize,
    next_reg: u32,
}

#[derive(Debug, Default)]
struct PartialBlock {
    /// Instructions emitted into the block.
    len: usize,
    term: Option<Terminator>,
}

impl<'a> FunctionBuilder<'a> {
    fn new(mb: &'a mut ModuleBuilder, id: FuncId) -> Self {
        // The parameter slots move into the builder and come back with
        // the body in `finish`.
        let locals = std::mem::take(&mut mb.module.functions[id.index()].locals);
        FunctionBuilder {
            mb,
            id,
            locals,
            blocks: vec![PartialBlock::default()],
            insts: Vec::new(),
            current: 0,
            next_reg: 0,
        }
    }

    /// The id of the function being built.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// Allocates a fresh virtual register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Adds a named local variable and returns its frame slot.
    pub fn local(&mut self, name: impl Into<String>, ty: Ty) -> SlotId {
        self.locals.push(Local {
            name: name.into(),
            ty,
        });
        SlotId(self.locals.len() as u32 - 1)
    }

    /// The slot holding parameter `i` (parameters occupy the first slots).
    pub fn param_slot(&self, i: usize) -> SlotId {
        assert!(
            i < self.mb.module.functions[self.id.index()].params.len(),
            "param index out of range"
        );
        SlotId(i as u32)
    }

    /// Creates a new (empty, unterminated) block.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(PartialBlock::default());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Makes `b` the insertion point.
    ///
    /// # Panics
    /// Panics if `b` is already terminated.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(
            self.blocks[b.index()].term.is_none(),
            "block {b} already terminated"
        );
        self.current = b.index();
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        BlockId(self.current as u32)
    }

    /// Appends a raw instruction to the current block.
    pub fn emit(&mut self, inst: Inst) {
        let blk = &mut self.blocks[self.current];
        assert!(blk.term.is_none(), "emitting into a terminated block");
        blk.len += 1;
        self.insts.push((self.current as u32, inst));
    }

    /// `dst = src`.
    pub fn mov(&mut self, src: impl Into<Operand>) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::Mov {
            dst,
            src: src.into(),
        });
        dst
    }

    /// `dst = a <op> b`.
    pub fn bin(&mut self, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::Bin {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// `dst = a <cmp> b`.
    pub fn cmp(&mut self, op: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::Cmp {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Word load.
    pub fn load(&mut self, addr: impl Into<Operand>) -> Reg {
        self.load_w(addr, Width::W64)
    }

    /// Load with explicit width.
    pub fn load_w(&mut self, addr: impl Into<Operand>, width: Width) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::Load {
            dst,
            addr: addr.into(),
            width,
        });
        dst
    }

    /// Word store.
    pub fn store(&mut self, addr: impl Into<Operand>, src: impl Into<Operand>) {
        self.store_w(addr, src, Width::W64);
    }

    /// Store with explicit width.
    pub fn store_w(&mut self, addr: impl Into<Operand>, src: impl Into<Operand>, width: Width) {
        self.emit(Inst::Store {
            addr: addr.into(),
            src: src.into(),
            width,
        });
    }

    /// Address of a frame slot.
    pub fn frame_addr(&mut self, slot: SlotId) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::FrameAddr { dst, slot });
        dst
    }

    /// Address of a global.
    pub fn global_addr(&mut self, global: GlobalId) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::GlobalAddr { dst, global });
        dst
    }

    /// Address of a function (marks it address-taken).
    pub fn func_addr(&mut self, func: FuncId) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::FuncAddr { dst, func });
        dst
    }

    /// Address of `base.field` for struct `struct_id`.
    pub fn field_addr(&mut self, base: impl Into<Operand>, struct_id: StructId, field: u32) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::FieldAddr {
            dst,
            base: base.into(),
            struct_id,
            field,
        });
        dst
    }

    /// Address of `base[index]` with `elem_size`-byte elements.
    pub fn index_addr(
        &mut self,
        base: impl Into<Operand>,
        elem_size: u64,
        index: impl Into<Operand>,
    ) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::IndexAddr {
            dst,
            base: base.into(),
            elem_size,
            index: index.into(),
        });
        dst
    }

    /// Direct call returning a value.
    pub fn call_direct(&mut self, func: FuncId, args: &[Operand]) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::Call {
            dst: Some(dst),
            callee: Callee::Direct(func),
            args: args.to_vec(),
        });
        dst
    }

    /// Indirect call through `target`, returning a value.
    pub fn call_indirect(&mut self, target: impl Into<Operand>, args: &[Operand]) -> Reg {
        let dst = self.fresh_reg();
        self.emit(Inst::Call {
            dst: Some(dst),
            callee: Callee::Indirect(target.into()),
            args: args.to_vec(),
        });
        dst
    }

    /// Unconditional jump.
    pub fn jmp(&mut self, b: BlockId) {
        self.terminate(Terminator::Jmp(b));
    }

    /// Conditional branch.
    pub fn br(&mut self, cond: impl Into<Operand>, then_: BlockId, else_: BlockId) {
        self.terminate(Terminator::Br {
            cond: cond.into(),
            then_,
            else_,
        });
    }

    /// Return.
    pub fn ret(&mut self, val: Option<Operand>) {
        self.terminate(Terminator::Ret(val));
    }

    fn terminate(&mut self, t: Terminator) {
        let blk = &mut self.blocks[self.current];
        assert!(blk.term.is_none(), "block already terminated");
        blk.term = Some(t);
    }

    /// Whether the current block already has a terminator.
    pub fn is_terminated(&self) -> bool {
        self.blocks[self.current].term.is_some()
    }

    /// Commits the body into the module. Unterminated blocks receive
    /// `ret void` (mirroring implicit returns at the end of C functions).
    pub fn finish(mut self) {
        let mut blocks: Vec<Block> = self
            .blocks
            .iter()
            .map(|pb| Block {
                insts: Vec::with_capacity(pb.len),
                term: pb.term.unwrap_or(Terminator::Ret(None)),
            })
            .collect();
        for (b, inst) in self.insts {
            blocks[b as usize].insts.push(inst);
        }
        self.locals.shrink_to_fit();
        let f = &mut self.mb.module.functions[self.id.index()];
        f.locals = self.locals;
        f.reg_count = self.next_reg;
        f.blocks = blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_branching_function() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("abs", &[("x", Ty::I64)], Ty::I64);
        let px = f.param_slot(0);
        let addr = f.frame_addr(px);
        let x = f.load(addr);
        let neg = f.cmp(CmpOp::Lt, x, 0i64);
        let bneg = f.new_block();
        let bpos = f.new_block();
        f.br(neg, bneg, bpos);
        f.switch_to(bneg);
        let nx = f.bin(BinOp::Sub, 0i64, x);
        f.ret(Some(nx.into()));
        f.switch_to(bpos);
        f.ret(Some(x.into()));
        f.finish();
        let m = mb.finish();
        assert!(m.validate().is_ok());
        let abs = m.func(m.func_by_name("abs").unwrap());
        assert_eq!(abs.blocks.len(), 3);
        assert!(abs.reg_count >= 4);
    }

    #[test]
    fn stub_body_shape() {
        let mut mb = ModuleBuilder::new("t");
        let id = mb.declare_syscall_stub("mprotect", 10, 3);
        let m = mb.finish();
        let f = m.func(id);
        assert_eq!(f.kind, FuncKind::SyscallStub(10));
        assert_eq!(f.params.len(), 3);
        // 3 * (frameaddr + load) + syscall
        assert_eq!(f.blocks[0].insts.len(), 7);
        assert!(matches!(
            f.blocks[0].insts.last(),
            Some(Inst::Syscall { nr: 10, .. })
        ));
    }

    #[test]
    fn declare_then_define_supports_forward_calls() {
        let mut mb = ModuleBuilder::new("t");
        let later = mb.declare("later", &[], Ty::I64);
        let mut f = mb.function("first", &[], Ty::I64);
        let r = f.call_direct(later, &[]);
        f.ret(Some(r.into()));
        f.finish();
        let mut g = mb.define(later);
        g.ret(Some(Operand::Imm(7)));
        g.finish();
        let m = mb.finish();
        assert!(m.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn switching_to_terminated_block_panics() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("f", &[], Ty::Void);
        let entry = f.current_block();
        f.ret(None);
        f.switch_to(entry);
    }

    #[test]
    fn unterminated_blocks_get_ret_void() {
        let mut mb = ModuleBuilder::new("t");
        let f = mb.function("f", &[], Ty::Void);
        f.finish();
        let m = mb.finish();
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.blocks[0].term, Terminator::Ret(None));
    }
}
