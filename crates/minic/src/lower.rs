//! Lowering MiniC to `bastion-ir`.
//!
//! Deliberately `clang -O0`-shaped: every named variable (including
//! parameters) lives in a frame slot; every use reloads from memory. This
//! is what makes the BASTION analyses and attacks meaningful — sensitive
//! variables are memory-backed and traceable, and attackers can corrupt
//! them byte-wise.

use crate::ast::*;
use bastion_ir::build::{FunctionBuilder, ModuleBuilder};
use bastion_ir::module::{GlobalInit, RelocEntry};
use bastion_ir::{sysno, FxHashMap};
use bastion_ir::{BinOp, CmpOp, FuncId, GlobalId, Operand, SlotId, StructDef, StructId, Ty, Width};
use std::borrow::Cow;
use std::fmt;

/// A semantic error found during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Enclosing function (if any).
    pub func: Option<String>,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.func {
            Some(name) => write!(f, "in `{name}`: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for LowerError {}

struct StructInfo<'s> {
    id: StructId,
    fields: Vec<(CType<'s>, &'s str)>,
}

/// A symbol-table key: borrowed from the source text being lowered, or
/// owned when it names something the lowerer did not parse (symbols read
/// back from the module builder, string-literal globals).
type Name<'s> = Cow<'s, str>;

/// Unit-level lowering state.
///
/// One lowerer can lower several units into the same module, in order:
/// each unit then sees what the earlier ones defined exactly as a fresh
/// [`Lowerer::new`] over the module would — every function and global by
/// name, typed as an opaque `long` — while its structs and string
/// literals stay private to it.
pub struct Lowerer<'mb, 's> {
    mb: &'mb mut ModuleBuilder,
    structs: FxHashMap<&'s str, StructInfo<'s>>,
    globals: FxHashMap<Name<'s>, (GlobalId, CType<'s>)>,
    funcs: FxHashMap<Name<'s>, (FuncId, CType<'s>, usize)>,
    strings: FxHashMap<Vec<u8>, GlobalId>,
    next_str: usize,
    /// Globals the current unit created, in creation order, with their
    /// source name (`None` for string literals).
    unit_globals: Vec<(Option<&'s str>, GlobalId)>,
    /// Whether a unit has begun; the next [`Self::begin_unit`] closes it.
    unit_open: bool,
}

impl<'mb, 's> Lowerer<'mb, 's> {
    /// Creates a lowerer targeting `mb` (which may already contain syscall
    /// stubs and previously compiled units — their symbols are visible).
    pub fn new(mb: &'mb mut ModuleBuilder) -> Self {
        let mut funcs = FxHashMap::default();
        for (i, f) in mb.module().functions.iter().enumerate() {
            funcs.insert(
                Name::Owned(f.name.clone()),
                (bastion_ir::FuncId(i as u32), CType::Long, f.params.len()),
            );
        }
        let mut globals = FxHashMap::default();
        for (i, g) in mb.module().globals.iter().enumerate() {
            // Pre-existing globals are visible as opaque longs/arrays.
            globals.insert(
                Name::Owned(g.name.clone()),
                (bastion_ir::GlobalId(i as u32), CType::Long),
            );
        }
        Lowerer {
            mb,
            structs: FxHashMap::default(),
            globals,
            funcs,
            strings: FxHashMap::default(),
            next_str: 0,
            unit_globals: Vec::new(),
            unit_open: false,
        }
    }

    /// Adds a syscall stub for every number the simulator knows, mirroring
    /// a full libc link, and makes each visible by name.
    pub fn add_syscall_stubs(&mut self) {
        for &nr in sysno::ALL {
            let name = sysno::name(nr).expect("ALL entries are named");
            let arity = sysno::arg_count(nr);
            let id = self.mb.declare_syscall_stub(name, nr, arity);
            self.funcs
                .insert(Name::Borrowed(name), (id, CType::Long, usize::from(arity)));
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LowerError> {
        Err(LowerError {
            func: None,
            message: msg.into(),
        })
    }

    /// Closes the previous unit: its structs and string table go out of
    /// scope, and its functions and globals stay visible as opaque longs
    /// (a global created later shadows an earlier one of the same name,
    /// as module order does for a fresh lowerer).
    fn begin_unit(&mut self) {
        if !std::mem::replace(&mut self.unit_open, true) {
            return;
        }
        self.structs.clear();
        self.strings.clear();
        self.next_str = 0;
        for (name, gid) in std::mem::take(&mut self.unit_globals) {
            let name = match name {
                Some(n) => Name::Borrowed(n),
                None => Name::Owned(self.mb.module().globals[gid.index()].name.clone()),
            };
            self.globals.insert(name, (gid, CType::Long));
        }
        for f in self.funcs.values_mut() {
            f.1 = CType::Long;
        }
    }

    /// Adds a global to the module; `source` is its name in the unit's
    /// source text (`None` for a string literal).
    fn add_global(
        &mut self,
        source: Option<&'s str>,
        name: String,
        ty: Ty,
        init: GlobalInit,
    ) -> GlobalId {
        let gid = self.mb.global(name, ty, init);
        self.unit_globals.push((source, gid));
        gid
    }

    /// Lowers a parsed unit into the module builder.
    ///
    /// # Errors
    /// Reports unknown names, arity mismatches, and unsupported constructs.
    /// A lowerer that reported an error must not lower further units.
    pub fn lower_unit(&mut self, unit: &Unit<'s>) -> Result<(), LowerError> {
        self.begin_unit();
        // Pass 1: struct definitions.
        for d in &unit.decls {
            if let Decl::Struct { name, fields } = d {
                if self.structs.contains_key(*name) {
                    return self.err(format!("duplicate struct `{name}`"));
                }
                // Two-phase: register the name first so self-referential
                // pointer fields resolve; sizes only need pointee names for
                // non-pointer fields, which must be previously defined.
                let mut ir_fields = Vec::with_capacity(fields.len());
                let id = self.mb.struct_def(StructDef::new(*name, Vec::new()));
                self.structs.insert(
                    *name,
                    StructInfo {
                        id,
                        fields: fields.clone(),
                    },
                );
                for (ty, fname) in fields {
                    ir_fields.push((fname.to_string(), self.ir_ty(ty)?));
                }
                // Patch the real fields in.
                let def = StructDef::new(*name, ir_fields);
                self.patch_struct(id, def);
            }
        }

        // Pass 2: intern all string literals (functions can't touch the
        // builder while a FunctionBuilder is live).
        for d in &unit.decls {
            if let Decl::Func { body, .. } = d {
                self.intern_strings_in(body);
            }
        }

        // Pass 3: globals (relocation names resolved in pass 5).
        let mut pending_relocs: Vec<(GlobalId, &[InitItem<'s>])> = Vec::new();
        for d in &unit.decls {
            let Decl::Global { ty, name, init } = d else {
                continue;
            };
            if self.globals.contains_key(*name) {
                return self.err(format!("duplicate global `{name}`"));
            }
            let ir_ty = self.ir_ty(ty)?;
            let ir_init = match init {
                GlobalInitAst::Zero => GlobalInit::Zero,
                GlobalInitAst::Int(v) => GlobalInit::Words(vec![*v]),
                GlobalInitAst::Str(s) => {
                    if matches!(ty, CType::Ptr(_)) {
                        let sg = self.intern_string(s);
                        GlobalInit::Relocated(vec![RelocEntry::GlobalAddr(sg)])
                    } else {
                        let mut bytes = Vec::with_capacity(s.len() + 1);
                        bytes.extend_from_slice(s);
                        bytes.push(0);
                        GlobalInit::Bytes(bytes)
                    }
                }
                GlobalInitAst::List(_) => GlobalInit::Zero,
            };
            let gid = self.add_global(Some(name), name.to_string(), ir_ty, ir_init);
            if let GlobalInitAst::List(items) = init {
                pending_relocs.push((gid, items));
            }
            self.globals.insert(Name::Borrowed(name), (gid, ty.clone()));
        }

        // Pass 4: declare functions.
        for d in &unit.decls {
            let Decl::Func {
                ret, name, params, ..
            } = d
            else {
                continue;
            };
            if self.funcs.contains_key(*name) {
                return self.err(format!("duplicate function `{name}`"));
            }
            let mut ps = Vec::with_capacity(params.len());
            for (pt, pn) in params {
                ps.push((*pn, self.ir_ty(pt)?));
            }
            let ret_ty = self.ir_ty(ret)?;
            let id = self.mb.declare(*name, &ps, ret_ty);
            self.funcs
                .insert(Name::Borrowed(name), (id, ret.clone(), params.len()));
        }

        // Pass 5: resolve brace-list relocations.
        for (gid, items) in pending_relocs {
            let mut entries = Vec::with_capacity(items.len());
            for item in items {
                entries.push(match item {
                    InitItem::Int(v) => RelocEntry::Word(*v),
                    InitItem::Name(n) => {
                        if let Some((fid, _, _)) = self.funcs.get(*n) {
                            RelocEntry::FuncAddr(*fid)
                        } else if let Some((g, _)) = self.globals.get(*n) {
                            RelocEntry::GlobalAddr(*g)
                        } else {
                            return self.err(format!("unknown initializer name `{n}`"));
                        }
                    }
                });
            }
            self.patch_global_init(gid, GlobalInit::Relocated(entries));
        }

        // Pass 6: function bodies.
        for d in &unit.decls {
            let Decl::Func {
                ret,
                name,
                params,
                body,
            } = d
            else {
                continue;
            };
            let id = self.funcs[*name].0;
            self.lower_func(id, ret, params, body).map_err(|mut e| {
                e.func = Some(name.to_string());
                e
            })?;
        }
        Ok(())
    }

    fn patch_struct(&mut self, id: StructId, def: StructDef) {
        // Delegates to the builder's patch hook.
        self.mb.patch_struct(id, def);
    }

    fn patch_global_init(&mut self, id: GlobalId, init: GlobalInit) {
        self.mb.patch_global_init(id, init);
    }

    fn intern_strings_in(&mut self, body: &[Stmt<'s>]) {
        fn walk_expr(l: &mut Lowerer<'_, '_>, e: &Expr<'_>) {
            match e {
                Expr::Str(s) => {
                    l.intern_string(s);
                }
                Expr::Bin(_, a, b) | Expr::Index(a, b) => {
                    walk_expr(l, a);
                    walk_expr(l, b);
                }
                Expr::Neg(a)
                | Expr::Not(a)
                | Expr::BitNot(a)
                | Expr::Deref(a)
                | Expr::AddrOf(a)
                | Expr::Field(a, _)
                | Expr::Arrow(a, _) => walk_expr(l, a),
                Expr::Call(c, args) => {
                    walk_expr(l, c);
                    for a in args {
                        walk_expr(l, a);
                    }
                }
                Expr::Int(_) | Expr::Ident(_) | Expr::SizeOf(_) => {}
            }
        }
        fn walk(l: &mut Lowerer<'_, '_>, stmts: &[Stmt<'_>]) {
            for s in stmts {
                match s {
                    Stmt::Decl { init: Some(e), .. } | Stmt::Expr(e) | Stmt::Return(Some(e)) => {
                        walk_expr(l, e)
                    }
                    Stmt::Assign(a, b) => {
                        walk_expr(l, a);
                        walk_expr(l, b);
                    }
                    Stmt::If(c, t, e) => {
                        walk_expr(l, c);
                        walk(l, t);
                        walk(l, e);
                    }
                    Stmt::While(c, b) => {
                        walk_expr(l, c);
                        walk(l, b);
                    }
                    Stmt::For(i, c, st, b) => {
                        walk(l, std::slice::from_ref(i));
                        walk_expr(l, c);
                        walk(l, std::slice::from_ref(st));
                        walk(l, b);
                    }
                    _ => {}
                }
            }
        }
        walk(self, body);
    }

    fn intern_string(&mut self, s: &[u8]) -> GlobalId {
        if let Some(&g) = self.strings.get(s) {
            return g;
        }
        let name = format!("__str_{}", self.next_str);
        self.next_str += 1;
        let mut bytes = Vec::with_capacity(s.len() + 1);
        bytes.extend_from_slice(s);
        bytes.push(0);
        let len = bytes.len() as u64;
        let g = self.add_global(
            None,
            name,
            Ty::Array(Box::new(Ty::I8), len),
            GlobalInit::Bytes(bytes),
        );
        self.strings.insert(s.to_vec(), g);
        g
    }

    fn ir_ty(&self, t: &CType<'_>) -> Result<Ty, LowerError> {
        Ok(match t {
            CType::Void => Ty::Void,
            CType::Char => Ty::I8,
            CType::Long => Ty::I64,
            CType::Ptr(p) => Ty::ptr(self.ir_ty(p)?),
            CType::FnPtr => Ty::Func { arity: 0 },
            CType::Struct(name) => {
                let si = self.structs.get(*name).ok_or_else(|| LowerError {
                    func: None,
                    message: format!("unknown struct `{name}`"),
                })?;
                Ty::Struct(si.id)
            }
            CType::Array(e, n) => Ty::Array(Box::new(self.ir_ty(e)?), *n),
        })
    }

    fn lower_func(
        &mut self,
        id: FuncId,
        ret: &CType<'s>,
        params: &[(CType<'s>, &'s str)],
        body: &[Stmt<'s>],
    ) -> Result<(), LowerError> {
        // Split borrows: FunctionBuilder takes &mut ModuleBuilder, so move
        // lookup tables out temporarily.
        let structs = std::mem::take(&mut self.structs);
        let globals = std::mem::take(&mut self.globals);
        let funcs = std::mem::take(&mut self.funcs);
        let strings = std::mem::take(&mut self.strings);

        let result = {
            let fb = self.mb.define(id);
            let mut cx = FnCx {
                fb,
                structs: &structs,
                globals: &globals,
                funcs: &funcs,
                strings: &strings,
                scopes: vec![FxHashMap::default()],
                loops: Vec::new(),
                ret: ret.clone(),
                temp_count: 0,
            };
            for (i, (pt, pn)) in params.iter().enumerate() {
                cx.scopes[0].insert(
                    *pn,
                    Var {
                        slot: cx.fb.param_slot(i),
                        ty: pt.clone(),
                    },
                );
            }
            let r = cx.stmts(body);
            if r.is_ok() {
                if !cx.fb.is_terminated() {
                    if cx.ret == CType::Void {
                        cx.fb.ret(None);
                    } else {
                        cx.fb.ret(Some(Operand::Imm(0)));
                    }
                }
                cx.fb.finish();
            }
            r
        };

        self.structs = structs;
        self.globals = globals;
        self.funcs = funcs;
        self.strings = strings;
        result
    }
}

struct Var<'s> {
    slot: SlotId,
    ty: CType<'s>,
}

struct FnCx<'a, 'mb, 's> {
    fb: FunctionBuilder<'mb>,
    structs: &'a FxHashMap<&'s str, StructInfo<'s>>,
    globals: &'a FxHashMap<Name<'s>, (GlobalId, CType<'s>)>,
    funcs: &'a FxHashMap<Name<'s>, (FuncId, CType<'s>, usize)>,
    strings: &'a FxHashMap<Vec<u8>, GlobalId>,
    scopes: Vec<FxHashMap<&'s str, Var<'s>>>,
    loops: Vec<(bastion_ir::BlockId, bastion_ir::BlockId)>, // (break, continue)
    ret: CType<'s>,
    temp_count: usize,
}

/// A typed value.
struct Val<'s> {
    op: Operand,
    ty: CType<'s>,
}

impl<'s> FnCx<'_, '_, 's> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LowerError> {
        Err(LowerError {
            func: None,
            message: msg.into(),
        })
    }

    fn lookup(&self, name: &str) -> Option<&Var<'s>> {
        self.scopes.iter().rev().find_map(|scope| scope.get(name))
    }

    fn width_of(&self, t: &CType<'_>) -> Width {
        if matches!(t, CType::Char) {
            Width::W8
        } else {
            Width::W64
        }
    }

    fn size_of(&self, t: &CType<'_>) -> Result<u64, LowerError> {
        let module_structs = |name: &str| -> Result<u64, LowerError> {
            let si = self.structs.get(name).ok_or_else(|| LowerError {
                func: None,
                message: format!("unknown struct `{name}`"),
            })?;
            let mut total = 0;
            for (ft, _) in &si.fields {
                total += self.size_of(ft)?;
            }
            Ok(total)
        };
        Ok(match t {
            CType::Void => 0,
            CType::Char => 1,
            CType::Long | CType::Ptr(_) | CType::FnPtr => 8,
            CType::Struct(n) => module_structs(n)?,
            CType::Array(e, n) => self.size_of(e)? * n,
        })
    }

    fn field_of(&self, sname: &str, fname: &str) -> Result<(StructId, u32, CType<'s>), LowerError> {
        let si = self.structs.get(sname).ok_or_else(|| LowerError {
            func: None,
            message: format!("unknown struct `{sname}`"),
        })?;
        let idx = si
            .fields
            .iter()
            .position(|(_, n)| *n == fname)
            .ok_or_else(|| LowerError {
                func: None,
                message: format!("struct `{sname}` has no field `{fname}`"),
            })?;
        Ok((si.id, idx as u32, si.fields[idx].0.clone()))
    }

    fn stmts(&mut self, body: &[Stmt<'s>]) -> Result<(), LowerError> {
        self.scopes.push(FxHashMap::default());
        for s in body {
            if self.fb.is_terminated() {
                // Dead code after return/break/continue: park it in an
                // unreachable block so lowering stays simple.
                let dead = self.fb.new_block();
                self.fb.switch_to(dead);
            }
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt<'s>) -> Result<(), LowerError> {
        match s {
            Stmt::Decl { ty, name, init } => {
                let ir_ty = self.decl_ty(ty)?;
                let slot = self.fb.local(*name, ir_ty);
                self.scopes.last_mut().expect("scope stack").insert(
                    name,
                    Var {
                        slot,
                        ty: ty.clone(),
                    },
                );
                if let Some(e) = init {
                    let v = self.rvalue(e)?;
                    let addr = self.fb.frame_addr(slot);
                    let w = self.width_of(ty);
                    self.fb.store_w(addr, v.op, w);
                }
                Ok(())
            }
            Stmt::Assign(lhs, rhs) => {
                let v = self.rvalue(rhs)?;
                let (addr, ty) = self.lvalue(lhs)?;
                let w = self.width_of(&ty);
                self.fb.store_w(addr, v.op, w);
                Ok(())
            }
            Stmt::Expr(e) => {
                let _ = self.rvalue(e)?;
                Ok(())
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.rvalue(e)?.op),
                    None => None,
                };
                self.fb.ret(v);
                Ok(())
            }
            Stmt::If(c, then_b, else_b) => {
                let cv = self.rvalue(c)?;
                let tb = self.fb.new_block();
                let eb = self.fb.new_block();
                let join = self.fb.new_block();
                self.fb.br(cv.op, tb, eb);
                self.fb.switch_to(tb);
                self.stmts(then_b)?;
                if !self.fb.is_terminated() {
                    self.fb.jmp(join);
                }
                self.fb.switch_to(eb);
                self.stmts(else_b)?;
                if !self.fb.is_terminated() {
                    self.fb.jmp(join);
                }
                self.fb.switch_to(join);
                Ok(())
            }
            Stmt::While(c, body) => {
                let header = self.fb.new_block();
                let body_b = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.jmp(header);
                self.fb.switch_to(header);
                let cv = self.rvalue(c)?;
                self.fb.br(cv.op, body_b, exit);
                self.fb.switch_to(body_b);
                self.loops.push((exit, header));
                self.stmts(body)?;
                self.loops.pop();
                if !self.fb.is_terminated() {
                    self.fb.jmp(header);
                }
                self.fb.switch_to(exit);
                Ok(())
            }
            Stmt::For(init, cond, step, body) => {
                self.scopes.push(FxHashMap::default());
                self.stmt(init)?;
                let header = self.fb.new_block();
                let body_b = self.fb.new_block();
                let step_b = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.jmp(header);
                self.fb.switch_to(header);
                let cv = self.rvalue(cond)?;
                self.fb.br(cv.op, body_b, exit);
                self.fb.switch_to(body_b);
                self.loops.push((exit, step_b));
                self.stmts(body)?;
                self.loops.pop();
                if !self.fb.is_terminated() {
                    self.fb.jmp(step_b);
                }
                self.fb.switch_to(step_b);
                self.stmt(step)?;
                if !self.fb.is_terminated() {
                    self.fb.jmp(header);
                }
                self.fb.switch_to(exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Break => match self.loops.last() {
                Some(&(b, _)) => {
                    self.fb.jmp(b);
                    Ok(())
                }
                None => self.err("`break` outside a loop"),
            },
            Stmt::Continue => match self.loops.last() {
                Some(&(_, c)) => {
                    self.fb.jmp(c);
                    Ok(())
                }
                None => self.err("`continue` outside a loop"),
            },
        }
    }

    fn decl_ty(&self, t: &CType<'_>) -> Result<Ty, LowerError> {
        Ok(match t {
            CType::Void => return self.err("variables cannot be void"),
            CType::Char => Ty::I8,
            CType::Long => Ty::I64,
            CType::Ptr(_) => Ty::ptr(Ty::I64),
            CType::FnPtr => Ty::Func { arity: 0 },
            CType::Struct(n) => {
                let si = self.structs.get(*n).ok_or_else(|| LowerError {
                    func: None,
                    message: format!("unknown struct `{n}`"),
                })?;
                Ty::Struct(si.id)
            }
            CType::Array(e, n) => Ty::Array(Box::new(self.decl_ty_elem(e)?), *n),
        })
    }

    fn decl_ty_elem(&self, t: &CType<'_>) -> Result<Ty, LowerError> {
        match t {
            CType::Void => self.err("arrays cannot be void"),
            other => self.decl_ty(other),
        }
    }

    /// Address + element type of an lvalue.
    fn lvalue(&mut self, e: &Expr<'s>) -> Result<(Operand, CType<'s>), LowerError> {
        match e {
            Expr::Ident(name) => {
                if let Some(v) = self.lookup(name) {
                    let (slot, ty) = (v.slot, v.ty.clone());
                    let a = self.fb.frame_addr(slot);
                    Ok((a.into(), ty))
                } else if let Some((gid, ty)) = self.globals.get(*name) {
                    let a = self.fb.global_addr(*gid);
                    Ok((a.into(), ty.clone()))
                } else {
                    self.err(format!("unknown variable `{name}`"))
                }
            }
            Expr::Deref(p) => {
                let v = self.rvalue(p)?;
                let inner = match v.ty {
                    CType::Ptr(t) | CType::Array(t, _) => (*t).clone(),
                    CType::Long | CType::FnPtr => CType::Long,
                    other => return self.err(format!("cannot deref {other:?}")),
                };
                Ok((v.op, inner))
            }
            Expr::Index(base, idx) => {
                let b = self.rvalue(base)?;
                let elem = match &b.ty {
                    CType::Ptr(t) => (**t).clone(),
                    CType::Array(t, _) => (**t).clone(),
                    CType::Long => CType::Long,
                    other => return self.err(format!("cannot index {other:?}")),
                };
                let i = self.rvalue(idx)?;
                let sz = self.size_of(&elem)?;
                let a = self.fb.index_addr(b.op, sz, i.op);
                Ok((a.into(), elem))
            }
            Expr::Field(base, fname) => {
                let (addr, ty) = self.lvalue(base)?;
                let CType::Struct(sname) = &ty else {
                    return self.err(format!("`.{fname}` on non-struct {ty:?}"));
                };
                let (sid, idx, fty) = self.field_of(sname, fname)?;
                let a = self.fb.field_addr(addr, sid, idx);
                Ok((a.into(), fty))
            }
            Expr::Arrow(p, fname) => {
                let v = self.rvalue(p)?;
                let sname = match &v.ty {
                    CType::Ptr(inner) => match inner.as_ref() {
                        CType::Struct(s) => *s,
                        other => return self.err(format!("`->{fname}` on {other:?} pointer")),
                    },
                    other => return self.err(format!("`->{fname}` on non-pointer {other:?}")),
                };
                let (sid, idx, fty) = self.field_of(sname, fname)?;
                let a = self.fb.field_addr(v.op, sid, idx);
                Ok((a.into(), fty))
            }
            other => self.err(format!("not an lvalue: {other:?}")),
        }
    }

    /// Evaluates an expression to a word value (arrays decay to pointers).
    fn rvalue(&mut self, e: &Expr<'s>) -> Result<Val<'s>, LowerError> {
        match e {
            Expr::Int(v) => Ok(Val {
                op: Operand::Imm(*v),
                ty: CType::Long,
            }),
            Expr::Str(s) => {
                let gid = self.strings.get(s).copied().ok_or_else(|| LowerError {
                    func: None,
                    message: "string literal not interned (front-end bug)".into(),
                })?;
                let a = self.fb.global_addr(gid);
                Ok(Val {
                    op: a.into(),
                    ty: CType::Char.ptr(),
                })
            }
            Expr::SizeOf(t) => Ok(Val {
                op: Operand::Imm(self.size_of(t)? as i64),
                ty: CType::Long,
            }),
            Expr::Ident(name) => {
                // A bare function name is its address (address-taken).
                if let Some((fid, _, _)) = self.funcs.get(*name) {
                    if self.lookup(name).is_none() && !self.globals.contains_key(*name) {
                        let a = self.fb.func_addr(*fid);
                        return Ok(Val {
                            op: a.into(),
                            ty: CType::FnPtr,
                        });
                    }
                }
                let (addr, ty) = self.lvalue(e)?;
                self.load_decayed(addr, ty)
            }
            Expr::Deref(_) | Expr::Index(..) | Expr::Field(..) | Expr::Arrow(..) => {
                let (addr, ty) = self.lvalue(e)?;
                self.load_decayed(addr, ty)
            }
            Expr::AddrOf(inner) => {
                let (addr, ty) = self.lvalue(inner)?;
                Ok(Val {
                    op: addr,
                    ty: ty.ptr(),
                })
            }
            Expr::Neg(x) => {
                let v = self.rvalue(x)?;
                if let Operand::Imm(c) = v.op {
                    return Ok(Val {
                        op: Operand::Imm(c.wrapping_neg()),
                        ty: CType::Long,
                    });
                }
                let r = self.fb.bin(BinOp::Sub, 0i64, v.op);
                Ok(Val {
                    op: r.into(),
                    ty: CType::Long,
                })
            }
            Expr::Not(x) => {
                let v = self.rvalue(x)?;
                let r = self.fb.cmp(CmpOp::Eq, v.op, 0i64);
                Ok(Val {
                    op: r.into(),
                    ty: CType::Long,
                })
            }
            Expr::BitNot(x) => {
                let v = self.rvalue(x)?;
                let r = self.fb.bin(BinOp::Xor, v.op, -1i64);
                Ok(Val {
                    op: r.into(),
                    ty: CType::Long,
                })
            }
            Expr::Bin(op, a, b) => self.bin_expr(*op, a, b),
            Expr::Call(callee, args) => self.call_expr(callee, args),
        }
    }

    fn load_decayed(&mut self, addr: Operand, ty: CType<'s>) -> Result<Val<'s>, LowerError> {
        match ty {
            CType::Array(elem, _) => Ok(Val {
                op: addr,
                ty: CType::Ptr(elem),
            }),
            CType::Struct(_) => self.err("struct values must be accessed through fields"),
            scalar => {
                let w = self.width_of(&scalar);
                let r = self.fb.load_w(addr, w);
                Ok(Val {
                    op: r.into(),
                    ty: scalar,
                })
            }
        }
    }

    fn bin_expr(
        &mut self,
        op: BinExprOp,
        a: &Expr<'s>,
        b: &Expr<'s>,
    ) -> Result<Val<'s>, LowerError> {
        // Short-circuit forms need a temp slot (the IR has no phis).
        if matches!(op, BinExprOp::LAnd | BinExprOp::LOr) {
            let tmp = self.temp_slot();
            let av = self.rvalue(a)?;
            let an = self.fb.cmp(CmpOp::Ne, av.op, 0i64);
            let ta = self.fb.frame_addr(tmp);
            self.fb.store(ta, an);
            let rhs_b = self.fb.new_block();
            let done = self.fb.new_block();
            if op == BinExprOp::LAnd {
                self.fb.br(an, rhs_b, done);
            } else {
                self.fb.br(an, done, rhs_b);
            }
            self.fb.switch_to(rhs_b);
            let bv = self.rvalue(b)?;
            let bn = self.fb.cmp(CmpOp::Ne, bv.op, 0i64);
            let tb = self.fb.frame_addr(tmp);
            self.fb.store(tb, bn);
            self.fb.jmp(done);
            self.fb.switch_to(done);
            let td = self.fb.frame_addr(tmp);
            let r = self.fb.load(td);
            return Ok(Val {
                op: r.into(),
                ty: CType::Long,
            });
        }

        let av = self.rvalue(a)?;
        let bv = self.rvalue(b)?;

        // Constant folding keeps flag expressions like PROT_READ|PROT_WRITE
        // as immediates (the analysis classifies them as constant args).
        if let (Operand::Imm(x), Operand::Imm(y)) = (av.op, bv.op) {
            if let Some(v) = fold_const(op, x, y) {
                return Ok(Val {
                    op: Operand::Imm(v),
                    ty: CType::Long,
                });
            }
        }

        // Pointer arithmetic scales by the pointee size.
        let pointee = |t: &CType<'s>| -> Option<CType<'s>> {
            match t {
                CType::Ptr(p) => Some((**p).clone()),
                _ => None,
            }
        };
        if matches!(op, BinExprOp::Add | BinExprOp::Sub) {
            if let Some(elem) = pointee(&av.ty) {
                let sz = self.size_of(&elem)?;
                let scaled = if sz == 1 {
                    bv.op
                } else {
                    self.fb.bin(BinOp::Mul, bv.op, sz as i64).into()
                };
                let ir = if op == BinExprOp::Add {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                let r = self.fb.bin(ir, av.op, scaled);
                return Ok(Val {
                    op: r.into(),
                    ty: av.ty,
                });
            }
        }

        let val = match op {
            BinExprOp::Add => self.fb.bin(BinOp::Add, av.op, bv.op),
            BinExprOp::Sub => self.fb.bin(BinOp::Sub, av.op, bv.op),
            BinExprOp::Mul => self.fb.bin(BinOp::Mul, av.op, bv.op),
            BinExprOp::Div => self.fb.bin(BinOp::Div, av.op, bv.op),
            BinExprOp::Rem => self.fb.bin(BinOp::Rem, av.op, bv.op),
            BinExprOp::And => self.fb.bin(BinOp::And, av.op, bv.op),
            BinExprOp::Or => self.fb.bin(BinOp::Or, av.op, bv.op),
            BinExprOp::Xor => self.fb.bin(BinOp::Xor, av.op, bv.op),
            BinExprOp::Shl => self.fb.bin(BinOp::Shl, av.op, bv.op),
            BinExprOp::Shr => self.fb.bin(BinOp::Shr, av.op, bv.op),
            BinExprOp::Eq => self.fb.cmp(CmpOp::Eq, av.op, bv.op),
            BinExprOp::Ne => self.fb.cmp(CmpOp::Ne, av.op, bv.op),
            BinExprOp::Lt => self.fb.cmp(CmpOp::Lt, av.op, bv.op),
            BinExprOp::Le => self.fb.cmp(CmpOp::Le, av.op, bv.op),
            BinExprOp::Gt => self.fb.cmp(CmpOp::Gt, av.op, bv.op),
            BinExprOp::Ge => self.fb.cmp(CmpOp::Ge, av.op, bv.op),
            BinExprOp::LAnd | BinExprOp::LOr => unreachable!("handled above"),
        };
        Ok(Val {
            op: val.into(),
            ty: CType::Long,
        })
    }

    fn call_expr(&mut self, callee: &Expr<'s>, args: &[Expr<'s>]) -> Result<Val<'s>, LowerError> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.rvalue(a)?.op);
        }
        // Direct call if the callee names a function (and no local/global
        // variable shadows that name).
        if let Expr::Ident(name) = callee {
            if self.lookup(name).is_none() && !self.globals.contains_key(*name) {
                let Some((fid, ret, arity)) = self.funcs.get(*name).cloned() else {
                    return self.err(format!("unknown function `{name}`"));
                };
                if argv.len() != arity {
                    return self.err(format!(
                        "`{name}` expects {arity} arguments, got {}",
                        argv.len()
                    ));
                }
                let r = self.fb.call_direct(fid, &argv);
                return Ok(Val {
                    op: r.into(),
                    ty: if ret == CType::Void { CType::Long } else { ret },
                });
            }
        }
        // Indirect call through a code-pointer value.
        let target = self.rvalue(callee)?;
        let r = self.fb.call_indirect(target.op, &argv);
        Ok(Val {
            op: r.into(),
            ty: CType::Long,
        })
    }

    fn temp_slot(&mut self) -> SlotId {
        let name = format!("$tmp{}", self.temp_count);
        self.temp_count += 1;
        self.fb.local(name, Ty::I64)
    }
}

fn fold_const(op: BinExprOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinExprOp::Add => a.wrapping_add(b),
        BinExprOp::Sub => a.wrapping_sub(b),
        BinExprOp::Mul => a.wrapping_mul(b),
        BinExprOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinExprOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinExprOp::And => a & b,
        BinExprOp::Or => a | b,
        BinExprOp::Xor => a ^ b,
        BinExprOp::Shl => ((a as u64) << (b as u64 & 63)) as i64,
        BinExprOp::Shr => ((a as u64) >> (b as u64 & 63)) as i64,
        BinExprOp::Eq => i64::from(a == b),
        BinExprOp::Ne => i64::from(a != b),
        BinExprOp::Lt => i64::from(a < b),
        BinExprOp::Le => i64::from(a <= b),
        BinExprOp::Gt => i64::from(a > b),
        BinExprOp::Ge => i64::from(a >= b),
        BinExprOp::LAnd | BinExprOp::LOr => return None,
    })
}
