//! Argument Integrity context analysis (paper §6.3).
//!
//! Discovers the program's **sensitive variables** — every variable passed
//! as an argument to a sensitive system call plus everything in those
//! variables' use-def chains — and decides where the instrumentation pass
//! must insert the Table 2 runtime-library calls:
//!
//! * `ctx_write_mem` after every store to a sensitive memory location, and
//! * `ctx_bind_mem_X` / `ctx_bind_const_X` before sensitive syscall
//!   callsites *and* before non-syscall callsites that pass sensitive
//!   variables onward (the `bar(x1, x2, flags)` case of Figure 2).
//!
//! The analysis is field-sensitive (struct fields form their own location
//! classes) and inter-procedural (parameter slots propagate to caller
//! argument expressions; pointer parameters propagate to caller pointee
//! objects), mirroring §6.3.3's three-step fixpoint.

use crate::callgraph::CallGraph;
use bastion_ir::{
    BinOp, Callee, FuncId, GlobalId, Inst, InstLoc, Module, Operand, Reg, SlotId, StructId, Width,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// An abstract memory location class.
///
/// `Slot`/`Global` are concrete objects; `Field` is the type-and-field class
/// of §3.3 ("the `path` field of a `ngx_exec_ctx_t` structure"); `Pointee`
/// is memory reached through a pointer that itself lives in another
/// location (used both for pointer parameters and for extended syscall
/// arguments whose buffer contents must be shadowed).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Loc {
    /// A stack frame slot of a specific function.
    Slot {
        /// Owning function.
        func: FuncId,
        /// Slot within the frame.
        slot: SlotId,
    },
    /// A module global.
    Global(GlobalId),
    /// Any object's field of the given struct type (field-sensitive class).
    Field {
        /// The struct type.
        struct_id: StructId,
        /// The field index.
        field: u32,
    },
    /// Memory reached by dereferencing the pointer stored in the inner
    /// location.
    Pointee(Box<Loc>),
}

impl Loc {
    /// Convenience constructor for [`Loc::Pointee`].
    pub fn pointee(inner: Loc) -> Loc {
        Loc::Pointee(Box::new(inner))
    }
}

/// How one callsite argument is verified (becomes metadata + bindings).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArgSpec {
    /// A compile-time constant; the monitor compares against it directly and
    /// the compiler emits `ctx_bind_const_X`.
    Const(i64),
    /// A memory-backed sensitive variable; the compiler emits
    /// `ctx_bind_mem_X` with the variable's runtime address.
    Mem(Loc),
    /// The address of a global object: statically known after load, checked
    /// like a constant once the loader's slide is applied.
    GlobalAddr(GlobalId),
    /// The address of a stack object: frame-relative, so only its
    /// plausibility is checked at runtime.
    StackAddr,
    /// Not statically resolvable; no argument-integrity check is possible
    /// for this position.
    Opaque,
}

impl ArgSpec {
    /// Whether this spec produces a `ctx_bind_mem` instrumentation.
    pub fn is_mem(&self) -> bool {
        matches!(self, ArgSpec::Mem(_))
    }

    /// Whether this spec produces a `ctx_bind_const` instrumentation.
    pub fn is_const(&self) -> bool {
        matches!(self, ArgSpec::Const(_) | ArgSpec::GlobalAddr(_))
    }
}

/// A store instruction that must be followed by `ctx_write_mem`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreSite {
    /// Location of the store instruction.
    pub loc: InstLoc,
    /// The sensitive location class it writes.
    pub target: Loc,
    /// Store width (shadow entry size).
    pub width: Width,
}

/// A sensitive system call callsite and the verification spec of each
/// argument position (1-based positions; index 0 of `args` is position 1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyscallSite {
    /// The call instruction invoking the stub.
    pub callsite: InstLoc,
    /// Syscall number.
    pub nr: u32,
    /// The stub function called.
    pub stub: FuncId,
    /// Per-position argument specs.
    pub args: Vec<ArgSpec>,
}

/// A non-syscall callsite that passes sensitive variables to its callee and
/// therefore also receives bindings (Figure 2's `bar(x1, x2, flags)`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropSite {
    /// The call instruction.
    pub callsite: InstLoc,
    /// The callee receiving sensitive arguments.
    pub callee: FuncId,
    /// `(position, spec)` pairs for the sensitive positions only.
    pub args: Vec<(u8, ArgSpec)>,
}

/// The complete result of sensitive-variable analysis.
#[derive(Debug, Clone, Default)]
pub struct SensitiveReport {
    /// All sensitive location classes discovered.
    pub sensitive_locs: BTreeSet<Loc>,
    /// Stores requiring `ctx_write_mem`.
    pub store_sites: Vec<StoreSite>,
    /// Sensitive syscall callsites with argument specs.
    pub syscall_sites: Vec<SyscallSite>,
    /// Propagation callsites with their sensitive positions.
    pub prop_sites: Vec<PropSite>,
    /// Sensitive *parameter* slots: the implicit argument spill at function
    /// entry must refresh the shadow copy (Figure 2's `ctx_write_mem(&b2)`
    /// at the top of `bar`).
    pub param_spills: BTreeSet<(FuncId, SlotId)>,
}

impl SensitiveReport {
    /// Runs the analysis for the syscalls in `sensitive_nrs`.
    pub fn build(module: &Module, cg: &CallGraph, sensitive_nrs: &BTreeSet<u32>) -> Self {
        Analyzer::new(module, cg, sensitive_nrs).run()
    }

    /// Number of `ctx_write_mem` instrumentation points (Table 5):
    /// explicit sensitive stores plus implicit parameter spills.
    pub fn write_mem_count(&self) -> usize {
        self.store_sites.len() + self.param_spills.len()
    }

    /// Number of `ctx_bind_mem_X` instrumentation points (Table 5).
    pub fn bind_mem_count(&self) -> usize {
        self.syscall_sites
            .iter()
            .flat_map(|s| s.args.iter())
            .filter(|a| a.is_mem())
            .count()
            + self
                .prop_sites
                .iter()
                .flat_map(|s| s.args.iter())
                .filter(|(_, a)| a.is_mem())
                .count()
    }

    /// Number of `ctx_bind_const_X` instrumentation points (Table 5).
    pub fn bind_const_count(&self) -> usize {
        self.syscall_sites
            .iter()
            .flat_map(|s| s.args.iter())
            .filter(|a| a.is_const())
            .count()
            + self
                .prop_sites
                .iter()
                .flat_map(|s| s.args.iter())
                .filter(|(_, a)| a.is_const())
                .count()
    }
}

/// What a value chain resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ValSpec {
    Const(i64),
    Mem(Loc),
    AddrOf(Loc),
    GlobalAddr(GlobalId),
    Opaque,
}

struct FuncIndex<'m> {
    /// Single-definition map indexed by register (builder-produced IR
    /// defines each reg once; a redefinition keeps the last).
    defs: Vec<Option<&'m Inst>>,
    /// All stores: (loc, addr operand, src operand, width, resolved target).
    stores: Vec<(InstLoc, Operand, Operand, Width, Option<Loc>)>,
}

struct Analyzer<'m> {
    module: &'m Module,
    cg: &'m CallGraph,
    sensitive_nrs: &'m BTreeSet<u32>,
    idx: Vec<FuncIndex<'m>>,
    /// Store index: location class → (func, store index) pairs.
    store_index: BTreeMap<Loc, Vec<(FuncId, usize)>>,
    /// &L passed as a call argument: L → (callee, parameter slot) pairs.
    addr_taken_args: BTreeMap<Loc, Vec<(FuncId, SlotId)>>,
    /// Pointer parameters whose pointee stores are instrumented (the
    /// instrumentation-only closure of the forward aliasing rule —
    /// deliberately *not* re-propagated to every caller, which would
    /// taint unrelated hot code).
    instr_params: BTreeSet<(FuncId, SlotId)>,
    sensitive: BTreeSet<Loc>,
    queue: VecDeque<Loc>,
    report: SensitiveReport,
    /// (callsite, position) pairs already recorded as propagation bindings.
    prop_seen: BTreeSet<(InstLoc, u8)>,
    /// Stores already emitted as instrumentation points.
    stores_seen: BTreeSet<InstLoc>,
}

impl<'m> Analyzer<'m> {
    fn new(module: &'m Module, cg: &'m CallGraph, sensitive_nrs: &'m BTreeSet<u32>) -> Self {
        let mut idx = Vec::with_capacity(module.functions.len());
        for (_fid, f) in module.iter_funcs() {
            let mut defs = vec![None; f.reg_count as usize];
            for b in &f.blocks {
                for inst in &b.insts {
                    if let Some(d) = inst.def() {
                        if d.index() >= defs.len() {
                            defs.resize(d.index() + 1, None);
                        }
                        defs[d.index()] = Some(inst);
                    }
                }
            }
            idx.push(FuncIndex {
                defs,
                stores: Vec::new(),
            });
        }
        let mut a = Analyzer {
            module,
            cg,
            sensitive_nrs,
            idx,
            store_index: BTreeMap::new(),
            addr_taken_args: BTreeMap::new(),
            instr_params: BTreeSet::new(),
            sensitive: BTreeSet::new(),
            queue: VecDeque::new(),
            report: SensitiveReport::default(),
            prop_seen: BTreeSet::new(),
            stores_seen: BTreeSet::new(),
        };
        a.index_stores();
        a.index_addr_args();
        a
    }

    /// The instruction defining register `r` of function `f`.
    fn def(&self, f: FuncId, r: Reg) -> Option<&'m Inst> {
        self.idx[f.index()].defs.get(r.index()).copied().flatten()
    }

    /// Indexes `&L` (or `&global`) passed directly as a call argument, so
    /// forward aliasing into callee pointer parameters is discoverable.
    fn index_addr_args(&mut self) {
        for (fid, f) in self.module.iter_funcs() {
            for b in &f.blocks {
                for inst in &b.insts {
                    let Inst::Call {
                        callee: Callee::Direct(target),
                        args,
                        ..
                    } = inst
                    else {
                        continue;
                    };
                    for (i, arg) in args.iter().enumerate() {
                        if i >= self.module.func(*target).params.len() {
                            break;
                        }
                        let loc = match self.addr_value(fid, *arg) {
                            Some(l) => l,
                            None => continue,
                        };
                        self.addr_taken_args
                            .entry(loc)
                            .or_default()
                            .push((*target, SlotId(i as u32)));
                    }
                }
            }
        }
    }

    /// Resolves an operand that *is* an address (&slot / &global / field
    /// address) to the location it names, without enqueueing anything.
    fn addr_value(&self, f: FuncId, op: Operand) -> Option<Loc> {
        let r = op.as_reg()?;
        match self.def(f, r)? {
            Inst::FrameAddr { slot, .. } => Some(Loc::Slot {
                func: f,
                slot: *slot,
            }),
            Inst::GlobalAddr { global, .. } => Some(Loc::Global(*global)),
            Inst::FieldAddr {
                struct_id, field, ..
            } => Some(Loc::Field {
                struct_id: *struct_id,
                field: *field,
            }),
            _ => None,
        }
    }

    fn index_stores(&mut self) {
        for (fid, f) in self.module.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for (i, inst) in b.insts.iter().enumerate() {
                    if let Inst::Store { addr, src, width } = inst {
                        let loc = InstLoc {
                            func: fid,
                            block: bid,
                            inst: i,
                        };
                        let resolved = self.resolve_addr(fid, *addr, 0);
                        let sidx = self.idx[fid.index()].stores.len();
                        self.idx[fid.index()].stores.push((
                            loc,
                            *addr,
                            *src,
                            *width,
                            resolved.clone(),
                        ));
                        if let Some(l) = resolved {
                            self.store_index.entry(l).or_default().push((fid, sidx));
                        }
                    }
                }
            }
        }
    }

    /// Resolves the location class an address operand points at.
    fn resolve_addr(&self, f: FuncId, op: Operand, depth: u32) -> Option<Loc> {
        if depth > 16 {
            return None;
        }
        let r = op.as_reg()?;
        let def = self.def(f, r)?;
        match def {
            Inst::FrameAddr { slot, .. } => Some(Loc::Slot {
                func: f,
                slot: *slot,
            }),
            Inst::GlobalAddr { global, .. } => Some(Loc::Global(*global)),
            Inst::FieldAddr {
                struct_id, field, ..
            } => Some(Loc::Field {
                struct_id: *struct_id,
                field: *field,
            }),
            Inst::IndexAddr { base, .. } => self.resolve_addr(f, *base, depth + 1),
            Inst::Mov { src, .. } => self.resolve_addr(f, *src, depth + 1),
            Inst::Bin {
                op: BinOp::Add | BinOp::Sub,
                a,
                ..
            } => self.resolve_addr(f, *a, depth + 1),
            Inst::Load { addr, .. } => {
                let ploc = self.resolve_addr(f, *addr, depth + 1)?;
                Some(Loc::pointee(ploc))
            }
            _ => None,
        }
    }

    /// Traces a value chain to a spec, enqueueing discovered sensitive locs.
    fn trace_value(&mut self, f: FuncId, op: Operand, depth: u32) -> ValSpec {
        if depth > 16 {
            return ValSpec::Opaque;
        }
        let r = match op {
            Operand::Imm(v) => return ValSpec::Const(v),
            Operand::Reg(r) => r,
        };
        let Some(def) = self.def(f, r) else {
            return ValSpec::Opaque;
        };
        match def {
            Inst::Mov { src, .. } => self.trace_value(f, *src, depth + 1),
            Inst::Load { addr, .. } => match self.resolve_addr(f, *addr, 0) {
                Some(loc) => ValSpec::Mem(loc),
                None => ValSpec::Opaque,
            },
            Inst::Bin { a, b, op, .. } => {
                // Constant-foldable chains become constants; otherwise both
                // operands join the sensitive set and the value is computed.
                let sa = self.trace_value(f, *a, depth + 1);
                let sb = self.trace_value(f, *b, depth + 1);
                if let (ValSpec::Const(x), ValSpec::Const(y)) = (&sa, &sb) {
                    if let Some(v) = fold(*op, *x, *y) {
                        return ValSpec::Const(v);
                    }
                }
                for s in [sa, sb] {
                    if let ValSpec::Mem(l) = s {
                        self.enqueue(l);
                    }
                }
                ValSpec::Opaque
            }
            Inst::Cmp { .. } => ValSpec::Opaque,
            Inst::FrameAddr { slot, .. } => ValSpec::AddrOf(Loc::Slot {
                func: f,
                slot: *slot,
            }),
            Inst::GlobalAddr { global, .. } => ValSpec::GlobalAddr(*global),
            Inst::FieldAddr {
                struct_id, field, ..
            } => ValSpec::AddrOf(Loc::Field {
                struct_id: *struct_id,
                field: *field,
            }),
            Inst::IndexAddr { base, .. } => match self.resolve_addr(f, *base, 0) {
                Some(l) => ValSpec::AddrOf(l),
                None => ValSpec::Opaque,
            },
            Inst::FuncAddr { .. } => ValSpec::Opaque,
            Inst::Call { callee, .. } => {
                // Trace into the callee's returned values (one level of the
                // §6.3.3 recursion; deeper chains converge via the worklist).
                if let Callee::Direct(callee_id) = callee {
                    if depth < 4 {
                        return self.trace_call_return(*callee_id, depth + 1);
                    }
                }
                ValSpec::Opaque
            }
            Inst::Syscall { .. } | Inst::Store { .. } | Inst::Intrinsic(_) => ValSpec::Opaque,
        }
    }

    fn trace_call_return(&mut self, callee: FuncId, depth: u32) -> ValSpec {
        let f = self.module.func(callee);
        let mut ret_specs = Vec::new();
        for b in &f.blocks {
            if let bastion_ir::Terminator::Ret(Some(v)) = b.term {
                ret_specs.push(self.trace_value(callee, v, depth + 1));
            }
        }
        // All returns must agree on a constant for the value to be constant;
        // memory-backed returns join the sensitive set.
        let mut consts: Vec<i64> = Vec::new();
        for s in &ret_specs {
            match s {
                ValSpec::Const(v) => consts.push(*v),
                ValSpec::Mem(l) => self.enqueue(l.clone()),
                _ => {}
            }
        }
        if ret_specs.len() == 1 {
            return ret_specs.pop().unwrap();
        }
        if !consts.is_empty()
            && consts.len() == ret_specs.len()
            && consts.windows(2).all(|w| w[0] == w[1])
        {
            return ValSpec::Const(consts[0]);
        }
        ValSpec::Opaque
    }

    fn enqueue(&mut self, loc: Loc) {
        if !self.sensitive.contains(&loc) {
            self.queue.push_back(loc);
        }
    }

    fn run(mut self) -> SensitiveReport {
        self.seed_syscall_sites();
        while let Some(loc) = self.queue.pop_front() {
            if !self.sensitive.insert(loc.clone()) {
                continue;
            }
            self.process_loc(&loc);
        }
        self.report.sensitive_locs = self.sensitive;
        self.report
    }

    fn seed_syscall_sites(&mut self) {
        let mut sites = Vec::new();
        for (fid, f) in self.module.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for (i, inst) in b.insts.iter().enumerate() {
                    let Inst::Call {
                        callee: Callee::Direct(target),
                        args,
                        ..
                    } = inst
                    else {
                        continue;
                    };
                    let Some(nr) = self.module.func(*target).syscall_nr() else {
                        continue;
                    };
                    if !self.sensitive_nrs.contains(&nr) {
                        continue;
                    }
                    sites.push((
                        InstLoc {
                            func: fid,
                            block: bid,
                            inst: i,
                        },
                        fid,
                        nr,
                        *target,
                        args.clone(),
                    ));
                }
            }
        }
        for (callsite, fid, nr, stub, args) in sites {
            let extended = bastion_ir::sysno::extended_positions(nr);
            let mut specs = Vec::with_capacity(args.len());
            for (i, arg) in args.iter().enumerate() {
                let pos = (i + 1) as u8;
                let v = self.trace_value(fid, *arg, 0);
                let is_ext = extended.contains(&pos);
                let spec = match v {
                    ValSpec::Const(c) => ArgSpec::Const(c),
                    ValSpec::Mem(l) => {
                        self.enqueue(l.clone());
                        if is_ext {
                            // The pointer is sensitive *and* its pointee
                            // buffer must be shadowed.
                            self.enqueue(Loc::pointee(l.clone()));
                        }
                        ArgSpec::Mem(l)
                    }
                    ValSpec::GlobalAddr(g) => {
                        if is_ext {
                            self.enqueue(Loc::Global(g));
                        }
                        ArgSpec::GlobalAddr(g)
                    }
                    ValSpec::AddrOf(l) => {
                        if is_ext {
                            self.enqueue(l);
                        }
                        ArgSpec::StackAddr
                    }
                    ValSpec::Opaque => ArgSpec::Opaque,
                };
                specs.push(spec);
            }
            self.report.syscall_sites.push(SyscallSite {
                callsite,
                nr,
                stub,
                args: specs,
            });
        }
    }

    fn process_loc(&mut self, loc: &Loc) {
        // 1. Instrument every store writing this class and trace its source.
        let hits: Vec<(FuncId, usize)> = self.store_index.get(loc).cloned().unwrap_or_default();
        for (fid, sidx) in hits {
            let (sloc, _addr, src, width, _) = &self.idx[fid.index()].stores[sidx];
            let (sloc, src, width) = (*sloc, *src, *width);
            if self.stores_seen.insert(sloc) {
                self.report.store_sites.push(StoreSite {
                    loc: sloc,
                    target: loc.clone(),
                    width,
                });
            }
            if let ValSpec::Mem(l) = self.trace_value(fid, src, 0) {
                self.enqueue(l);
            }
        }

        // 2. Inter-procedural propagation.
        match loc {
            Loc::Slot { func, slot } if slot.index() < self.module.func(*func).params.len() => {
                // A parameter slot: values flow in from each direct caller.
                self.propagate_param(*func, *slot);
            }
            Loc::Pointee(inner) => {
                if let Loc::Slot { func, slot } = inner.as_ref() {
                    if slot.index() < self.module.func(*func).params.len() {
                        // A pointer parameter: the pointee objects live in
                        // callers; discover them from each call argument.
                        self.propagate_pointer_param(*func, *slot);
                    }
                }
                // Identify the pointee objects named by pointers stored
                // into `inner`: `ctx->path = upgrade_path` makes the
                // upgrade_path buffer itself sensitive (its bytes back an
                // extended argument).
                let inner_hits: Vec<(FuncId, usize)> = self
                    .store_index
                    .get(inner.as_ref())
                    .cloned()
                    .unwrap_or_default();
                for (fid, sidx) in inner_hits {
                    let src = self.idx[fid.index()].stores[sidx].2;
                    match self.trace_value(fid, src, 0) {
                        ValSpec::GlobalAddr(g) => self.enqueue(Loc::Global(g)),
                        ValSpec::AddrOf(l) => self.enqueue(l),
                        _ => {}
                    }
                }
            }
            _ => {}
        }

        // 3. Forward aliasing through address-of arguments: if &L is passed
        // to a callee, writes through that callee's pointer parameter can
        // write L, so those stores are instrumented ("Bastion instruments
        // all possible use-def chains", §6.3.3) — covering
        // `strcpy(sensitive_buf, src)`-style initialization. The marking is
        // instrumentation-only: it keeps the sensitive-variable worklist
        // untouched so unrelated callers of the same helper do not become
        // sensitive transitively.
        if !matches!(loc, Loc::Pointee(_)) {
            for (callee, param) in self.addr_taken_args.get(loc).cloned().unwrap_or_default() {
                self.instrument_ptr_param(callee, param);
            }
        }
    }

    /// Instruments every store reached through pointer parameter `slot` of
    /// `f`, following the pointer transitively into further callees
    /// (`strcat(dst, ..)` → `strcpy(dst + n, ..)`).
    fn instrument_ptr_param(&mut self, f: FuncId, slot: SlotId) {
        if !self.instr_params.insert((f, slot)) {
            return;
        }
        let key = Loc::pointee(Loc::Slot { func: f, slot });
        let hits: Vec<(FuncId, usize)> = self.store_index.get(&key).cloned().unwrap_or_default();
        for (fid, sidx) in hits {
            let (sloc, _addr, _src, width, _) = &self.idx[fid.index()].stores[sidx];
            let (sloc, width) = (*sloc, *width);
            if self.stores_seen.insert(sloc) {
                self.report.store_sites.push(StoreSite {
                    loc: sloc,
                    target: key.clone(),
                    width,
                });
            }
        }
        // Transitive hand-off of the pointer to further callees.
        let func = self.module.func(f);
        let mut forwards = Vec::new();
        for b in &func.blocks {
            for inst in &b.insts {
                let Inst::Call {
                    callee: Callee::Direct(target),
                    args,
                    ..
                } = inst
                else {
                    continue;
                };
                for (i, arg) in args.iter().enumerate() {
                    if i >= self.module.func(*target).params.len() {
                        break;
                    }
                    if self.derives_from_param(f, *arg, slot, 0) {
                        forwards.push((*target, SlotId(i as u32)));
                    }
                }
            }
        }
        for (callee, param) in forwards {
            self.instrument_ptr_param(callee, param);
        }
    }

    /// Whether `op`'s value derives from the pointer parameter `slot` of
    /// `f` (possibly with an offset).
    fn derives_from_param(&self, f: FuncId, op: Operand, slot: SlotId, depth: u32) -> bool {
        if depth > 16 {
            return false;
        }
        let Some(r) = op.as_reg() else { return false };
        match self.def(f, r) {
            Some(Inst::Load { addr, .. }) => {
                self.addr_value(f, *addr) == Some(Loc::Slot { func: f, slot })
            }
            Some(Inst::Mov { src, .. }) => self.derives_from_param(f, *src, slot, depth + 1),
            Some(Inst::Bin { a, .. }) => self.derives_from_param(f, *a, slot, depth + 1),
            Some(Inst::IndexAddr { base, .. }) => {
                self.derives_from_param(f, *base, slot, depth + 1)
            }
            _ => false,
        }
    }

    /// A parameter slot is sensitive: trace each caller's argument
    /// expression and record a propagation binding at the callsite.
    fn propagate_param(&mut self, callee: FuncId, slot: SlotId) {
        self.report.param_spills.insert((callee, slot));
        let pos = (slot.index() + 1) as u8;
        let callers: Vec<InstLoc> = self.cg.callers_of(callee).to_vec();
        for site in callers {
            let arg = self.call_arg_at(site, slot.index());
            let Some(arg) = arg else { continue };
            let v = self.trace_value(site.func, arg, 0);
            let spec = match v {
                ValSpec::Const(c) => ArgSpec::Const(c),
                ValSpec::Mem(l) => {
                    self.enqueue(l.clone());
                    ArgSpec::Mem(l)
                }
                ValSpec::GlobalAddr(g) => ArgSpec::GlobalAddr(g),
                ValSpec::AddrOf(_) => ArgSpec::StackAddr,
                ValSpec::Opaque => ArgSpec::Opaque,
            };
            if self.prop_seen.insert((site, pos)) {
                if let Some(ps) = self
                    .report
                    .prop_sites
                    .iter_mut()
                    .find(|p| p.callsite == site)
                {
                    ps.args.push((pos, spec));
                    ps.args.sort_by_key(|(p, _)| *p);
                } else {
                    self.report.prop_sites.push(PropSite {
                        callsite: site,
                        callee,
                        args: vec![(pos, spec)],
                    });
                }
            }
        }
    }

    /// The pointee of pointer parameter `slot` is sensitive: find what
    /// callers pass and mark those objects sensitive.
    fn propagate_pointer_param(&mut self, callee: FuncId, slot: SlotId) {
        let callers: Vec<InstLoc> = self.cg.callers_of(callee).to_vec();
        for site in callers {
            let Some(arg) = self.call_arg_at(site, slot.index()) else {
                continue;
            };
            match self.trace_value(site.func, arg, 0) {
                ValSpec::AddrOf(l) => self.enqueue(l),
                ValSpec::GlobalAddr(g) => self.enqueue(Loc::Global(g)),
                ValSpec::Mem(l) => self.enqueue(Loc::pointee(l)),
                _ => {}
            }
        }
    }

    fn call_arg_at(&self, site: InstLoc, idx: usize) -> Option<Operand> {
        let f = self.module.func(site.func);
        let inst = &f.blocks[site.block.index()].insts[site.inst];
        if let Inst::Call { args, .. } = inst {
            args.get(idx).copied()
        } else {
            None
        }
    }
}

fn fold(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => ((a as u64) << (b as u64 & 63)) as i64,
        BinOp::Shr => ((a as u64) >> (b as u64 & 63)) as i64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::sysno;
    use bastion_ir::Ty;

    /// Reproduces the shape of Figure 2:
    ///
    /// ```c
    /// void foo() { int flags = MAP_ANONYMOUS|MAP_SHARED; bar(1, 2, flags); }
    /// void bar(int b0, int b1, int b2) {
    ///     int prots = PROT_READ|PROT_WRITE;
    ///     mmap(NULL, gsize, prots, b2, -1, 0);
    /// }
    /// ```
    fn figure2_module() -> Module {
        let mut mb = ModuleBuilder::new("fig2");
        let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let gsize = mb.global("gsize", Ty::I64, bastion_ir::GlobalInit::Words(vec![4096]));
        let bar = mb.declare(
            "bar",
            &[("b0", Ty::I64), ("b1", Ty::I64), ("b2", Ty::I64)],
            Ty::Void,
        );

        let mut f = mb.function("foo", &[], Ty::Void);
        let flags = f.local("flags", Ty::I64);
        let fa = f.frame_addr(flags);
        f.store(fa, 0x21i64); // MAP_ANONYMOUS|MAP_SHARED
        let fa2 = f.frame_addr(flags);
        let fv = f.load(fa2);
        let _ = f.call_direct(bar, &[1i64.into(), 2i64.into(), fv.into()]);
        f.ret(None);
        f.finish();

        let mut f = mb.define(bar);
        let prots = f.local("prots", Ty::I64);
        let pa = f.frame_addr(prots);
        f.store(pa, 3i64); // PROT_READ|PROT_WRITE
        let ga = f.global_addr(gsize);
        let gv = f.load(ga);
        let pa2 = f.frame_addr(prots);
        let pv = f.load(pa2);
        let b2a = f.frame_addr(f.param_slot(2));
        let b2v = f.load(b2a);
        let _ = f.call_direct(
            mmap,
            &[
                0i64.into(),
                gv.into(),
                pv.into(),
                b2v.into(),
                (-1i64).into(),
                0i64.into(),
            ],
        );
        f.ret(None);
        f.finish();

        let foo = mb.module().func_by_name("foo").unwrap();
        let mut f = mb.function("main", &[], Ty::I64);
        let _ = f.call_direct(foo, &[]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        mb.finish()
    }

    fn analyze(m: &Module) -> SensitiveReport {
        let cg = CallGraph::build(m);
        SensitiveReport::build(m, &cg, &sysno::sensitive_set())
    }

    #[test]
    fn figure2_arg_specs() {
        let m = figure2_module();
        let r = analyze(&m);
        assert_eq!(r.syscall_sites.len(), 1);
        let site = &r.syscall_sites[0];
        assert_eq!(site.nr, sysno::MMAP);
        // NULL, gsize, prots, b2, -1, 0
        assert_eq!(site.args[0], ArgSpec::Const(0));
        assert!(matches!(site.args[1], ArgSpec::Mem(Loc::Global(_))));
        assert!(matches!(site.args[2], ArgSpec::Mem(Loc::Slot { .. })));
        assert!(matches!(site.args[3], ArgSpec::Mem(Loc::Slot { .. })));
        assert_eq!(site.args[4], ArgSpec::Const(-1));
        assert_eq!(site.args[5], ArgSpec::Const(0));
    }

    #[test]
    fn figure2_interprocedural_propagation() {
        let m = figure2_module();
        let r = analyze(&m);
        let foo = m.func_by_name("foo").unwrap();
        // flags in foo is sensitive because b2 <- flags.
        assert!(r
            .sensitive_locs
            .iter()
            .any(|l| matches!(l, Loc::Slot { func, .. } if *func == foo)));
        // The bar() callsite gets a binding for position 3.
        assert_eq!(r.prop_sites.len(), 1);
        let ps = &r.prop_sites[0];
        assert_eq!(ps.callee, m.func_by_name("bar").unwrap());
        assert_eq!(ps.args.len(), 1);
        assert_eq!(ps.args[0].0, 3);
        assert!(ps.args[0].1.is_mem());
    }

    #[test]
    fn figure2_store_instrumentation() {
        let m = figure2_module();
        let r = analyze(&m);
        // Stores to flags (foo) and prots (bar) are instrumented, plus the
        // implicit spill of the sensitive parameter b2 at bar's entry.
        assert_eq!(r.store_sites.len(), 2);
        assert_eq!(r.param_spills.len(), 1);
        assert_eq!(r.write_mem_count(), 3);
        // mmap binds: gsize, prots, b2 are mem; plus the prop-site flags.
        assert_eq!(r.bind_mem_count(), 4);
        // mmap consts: NULL, -1, 0.
        assert_eq!(r.bind_const_count(), 3);
    }

    #[test]
    fn extended_argument_marks_pointee_sensitive() {
        // execve(path_ptr, 0, 0) where path_ptr is loaded from a global
        // pointer variable; its pointee must become sensitive.
        let mut mb = ModuleBuilder::new("ext");
        let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
        let gptr = mb.global("path_ptr", Ty::ptr(Ty::I8), bastion_ir::GlobalInit::Zero);
        let mut f = mb.function("main", &[], Ty::I64);
        let ga = f.global_addr(gptr);
        let p = f.load(ga);
        let _ = f.call_direct(execve, &[p.into(), 0i64.into(), 0i64.into()]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let m = mb.finish();
        let r = analyze(&m);
        assert!(r.sensitive_locs.contains(&Loc::pointee(Loc::Global(gptr))));
        assert!(r.sensitive_locs.contains(&Loc::Global(gptr)));
    }

    #[test]
    fn field_sensitive_class_catches_all_field_writes() {
        // struct ctx { i64 path; }; two functions write ctx.path through
        // different pointers; a syscall reads it through a third. All writes
        // are instrumented because the class is (struct, field).
        let mut mb = ModuleBuilder::new("fields");
        let st = mb.struct_def(bastion_ir::StructDef::new(
            "ctx",
            vec![("path".into(), Ty::I64)],
        ));
        let chmod = mb.declare_syscall_stub("chmod", sysno::CHMOD, 2);
        let gobj = mb.global("obj", Ty::Struct(st), bastion_ir::GlobalInit::Zero);

        let mut f = mb.function("writer", &[("c", Ty::ptr(Ty::Struct(st)))], Ty::Void);
        let ca = f.frame_addr(f.param_slot(0));
        let c = f.load(ca);
        let fld = f.field_addr(c, st, 0);
        f.store(fld, 0x1234i64);
        f.ret(None);
        f.finish();

        let mut f = mb.function("main", &[], Ty::I64);
        let oa = f.global_addr(gobj);
        let fld = f.field_addr(oa, st, 0);
        let v = f.load(fld);
        let _ = f.call_direct(chmod, &[v.into(), 0o755i64.into()]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let m = mb.finish();
        let r = analyze(&m);
        assert!(r.sensitive_locs.contains(&Loc::Field {
            struct_id: st,
            field: 0
        }));
        // The store in `writer` (through a pointer) is instrumented.
        let writer_id = m.func_by_name("writer").unwrap();
        assert!(r.store_sites.iter().any(|s| s.loc.func == writer_id));
    }

    #[test]
    fn opaque_when_unresolvable() {
        // A syscall argument computed from two loaded values is opaque, but
        // both source variables still join the sensitive set.
        let mut mb = ModuleBuilder::new("opq");
        let setuid = mb.declare_syscall_stub("setuid", sysno::SETUID, 1);
        let mut f = mb.function("main", &[], Ty::I64);
        let a = f.local("a", Ty::I64);
        let b = f.local("b", Ty::I64);
        let aa = f.frame_addr(a);
        f.store(aa, 1i64);
        let ba = f.frame_addr(b);
        f.store(ba, 2i64);
        let aa2 = f.frame_addr(a);
        let av = f.load(aa2);
        let ba2 = f.frame_addr(b);
        let bv = f.load(ba2);
        let sum = f.bin(BinOp::Add, av, bv);
        let _ = f.call_direct(setuid, &[sum.into()]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let m = mb.finish();
        let r = analyze(&m);
        assert_eq!(r.syscall_sites[0].args[0], ArgSpec::Opaque);
        assert_eq!(r.write_mem_count(), 2);
    }
}
