//! # bastion-compiler
//!
//! The BASTION compiler pass (paper §6): given a [`bastion_ir::Module`], it
//!
//! 1. runs the call-type, control-flow, and sensitive-variable analyses
//!    from `bastion-analysis`;
//! 2. instruments the module with the Table 2 runtime-library intrinsics
//!    ([`instrument`]);
//! 3. lays the instrumented module out and emits the
//!    [`metadata::ContextMetadata`] bundle the runtime monitor loads —
//!    call-type permissions, callee→valid-caller lists, per-callsite
//!    argument specs, function frame geometry, and the Table 5 statistics.
//!
//! ```
//! use bastion_compiler::BastionCompiler;
//! use bastion_ir::build::ModuleBuilder;
//! use bastion_ir::{sysno, Operand, Ty};
//!
//! # fn main() -> Result<(), bastion_ir::ValidateError> {
//! let mut mb = ModuleBuilder::new("app");
//! let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
//! let path = mb.global_str("upgrade", "/bin/upgrade");
//! let mut f = mb.function("main", &[], Ty::I64);
//! let p = f.global_addr(path);
//! let r = f.call_direct(execve, &[p.into(), Operand::Imm(0), Operand::Imm(0)]);
//! f.ret(Some(r.into()));
//! f.finish();
//!
//! let out = BastionCompiler::new().compile(mb.finish())?;
//! assert_eq!(out.metadata.stats.sensitive_callsites, 1);
//! # Ok(())
//! # }
//! ```

pub mod instrument;
pub mod metadata;

pub use instrument::{instrument_with_breadth, Instrumented, LocMap};
pub use metadata::{
    ArgMeta, CallsiteKind, CallsiteMeta, ContextMetadata, FuncMeta, InstrStats, SyscallSiteMeta,
};

use bastion_analysis::sensitive::ArgSpec;
use bastion_analysis::{CallGraph, CallTypeReport, ControlFlowReport, SensitiveReport};
use bastion_ir::module::GlobalInit;
use bastion_ir::{sysno, CodeLayout, Module, ValidateError};
use std::collections::{BTreeMap, BTreeSet};

/// How widely stores are instrumented with `ctx_write_mem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstrumentationBreadth {
    /// BASTION's design: only sensitive variables' stores (paper §3.3).
    #[default]
    SensitiveOnly,
    /// DFI-style: every store maintains a shadow copy. Used by the
    /// `ablation` benches to quantify the paper's claim that argument
    /// integrity is "magnitudes smaller" than application-wide DFI.
    AllStores,
}

/// The compiler pass configuration.
#[derive(Debug, Clone)]
pub struct BastionCompiler {
    sensitive: BTreeSet<u32>,
    breadth: InstrumentationBreadth,
}

impl Default for BastionCompiler {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of compiling a module under BASTION.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The instrumented module (load this, not the original).
    pub module: Module,
    /// The context metadata bundle for the runtime monitor.
    pub metadata: ContextMetadata,
}

impl BastionCompiler {
    /// A compiler protecting the paper's default 20 sensitive syscalls
    /// (Table 1).
    pub fn new() -> Self {
        BastionCompiler {
            sensitive: sysno::sensitive_set(),
            breadth: InstrumentationBreadth::SensitiveOnly,
        }
    }

    /// A compiler protecting an explicit sensitive set (e.g. the extended
    /// filesystem set of §11.2 / Table 7).
    pub fn with_sensitive(sensitive: BTreeSet<u32>) -> Self {
        BastionCompiler {
            sensitive,
            breadth: InstrumentationBreadth::SensitiveOnly,
        }
    }

    /// Selects the store-instrumentation breadth (DFI-style ablation).
    pub fn with_breadth(mut self, breadth: InstrumentationBreadth) -> Self {
        self.breadth = breadth;
        self
    }

    /// The sensitive set in effect.
    pub fn sensitive(&self) -> &BTreeSet<u32> {
        &self.sensitive
    }

    /// Analyzes, instruments, and generates metadata.
    ///
    /// # Errors
    /// Fails if the input (or, defensively, the instrumented output) does
    /// not validate.
    pub fn compile(&self, module: Module) -> Result<CompileOutput, ValidateError> {
        module.validate()?;
        let cg = CallGraph::build(&module);
        let ct = CallTypeReport::build(&module, &cg);
        let cf = ControlFlowReport::build(&module, &cg, &self.sensitive);
        let sens = SensitiveReport::build(&module, &cg, &self.sensitive);
        // Flow is call-structural, so the pre-instrumentation module (the
        // pass only inserts straight-line intrinsics) gives the same
        // automaton as the instrumented one.
        let syscall_flow = bastion_analysis::sysflow::analyze(&module, &cg, &self.sensitive);

        let inst = instrument_with_breadth(module, &sens, self.breadth);
        inst.module.validate()?;

        let layout = CodeLayout::new(&inst.module);
        let addr_of = |loc| layout.addr_of(inst.loc_map.get(loc)).raw();

        // Callsite table of the instrumented module. The pass inserts only
        // intrinsics, so its calls, address-taken functions and callsite
        // counts are the input's, each call at its `loc_map` location.
        let mut callsites = BTreeMap::new();
        for c in &cg.callsites {
            let kind = match c.kind {
                bastion_analysis::CallsiteKind::Direct(t) => {
                    CallsiteKind::Direct(layout.func_entry(t).raw())
                }
                bastion_analysis::CallsiteKind::Indirect => CallsiteKind::Indirect,
            };
            callsites.insert(
                addr_of(c.loc),
                CallsiteMeta {
                    kind,
                    in_func: layout.func_entry(c.loc.func).raw(),
                    argc: c.argc as u8,
                },
            );
        }

        // Control-flow context: callee entry → caller callsite addresses.
        let valid_callers = cf
            .valid_callers
            .iter()
            .map(|(callee, sites)| {
                (
                    layout.func_entry(*callee).raw(),
                    sites.iter().map(|s| addr_of(*s)).collect::<BTreeSet<u64>>(),
                )
            })
            .collect();

        let functions = inst
            .module
            .iter_funcs()
            .map(|(fid, f)| {
                let entry = layout.func_entry(fid).raw();
                (
                    entry,
                    FuncMeta {
                        entry,
                        end: layout.func_end(fid).raw(),
                        name: f.name.clone(),
                        frame_size: f.frame_size(&inst.module.structs),
                        slot_offsets: f.slot_offsets(&inst.module.structs),
                        param_count: f.params.len() as u8,
                        stub_nr: f.syscall_nr(),
                        address_taken: cg.is_address_taken(fid),
                    },
                )
            })
            .collect();

        let arg_meta = |callsite, pos: u8, spec: &ArgSpec, nr: Option<u32>| -> ArgMeta {
            let extended = nr.is_some_and(|n| sysno::extended_positions(n).contains(&pos));
            match spec {
                ArgSpec::Const(v) => ArgMeta::Const(*v),
                ArgSpec::Mem(_) => {
                    if inst.placed_mem_binds.contains(&(callsite, pos)) {
                        ArgMeta::Mem
                    } else {
                        ArgMeta::Opaque
                    }
                }
                ArgSpec::GlobalAddr(g) => {
                    let gd = &inst.module.globals[g.index()];
                    let expected = if extended {
                        init_bytes(&gd.init, gd.ty.size(&inst.module.structs))
                    } else {
                        None
                    };
                    ArgMeta::Global {
                        name: gd.name.clone(),
                        expected,
                    }
                }
                ArgSpec::StackAddr => ArgMeta::StackAddr,
                ArgSpec::Opaque => ArgMeta::Opaque,
            }
        };

        let mut syscall_sites = BTreeMap::new();
        for s in &sens.syscall_sites {
            let args = s
                .args
                .iter()
                .enumerate()
                .map(|(i, spec)| arg_meta(s.callsite, (i + 1) as u8, spec, Some(s.nr)))
                .collect();
            syscall_sites.insert(addr_of(s.callsite), SyscallSiteMeta { nr: s.nr, args });
        }

        let mut prop_sites: BTreeMap<u64, Vec<(u8, ArgMeta)>> = BTreeMap::new();
        for s in &sens.prop_sites {
            let v = s
                .args
                .iter()
                .map(|(pos, spec)| (*pos, arg_meta(s.callsite, *pos, spec, None)))
                .collect();
            prop_sites.insert(addr_of(s.callsite), v);
        }

        let stats = InstrStats {
            total_callsites: cg.total_callsites(),
            direct_callsites: cg.direct_callsites(),
            indirect_callsites: cg.indirect_callsites(),
            sensitive_callsites: sens.syscall_sites.len(),
            sensitive_indirect: ct.sensitive_indirect_count(),
            ctx_write_mem: inst.write_mems,
            ctx_bind_mem: inst.placed_mem_binds.len(),
            ctx_bind_const: inst.const_binds,
        };

        let main_entry = inst
            .module
            .func_by_name("main")
            .map_or(0, |f| layout.func_entry(f).raw());

        let metadata = ContextMetadata {
            module_name: inst.module.name.clone(),
            link_base: layout.code_base().raw(),
            sensitive_nrs: self.sensitive.clone(),
            syscall_classes: ct.classes.clone(),
            callsites,
            valid_callers,
            indirect_entries: cf
                .indirect_entries
                .iter()
                .map(|f| layout.func_entry(*f).raw())
                .collect(),
            main_entry,
            functions,
            syscall_sites,
            prop_sites,
            syscall_flow,
            stats,
        };

        Ok(CompileOutput {
            module: inst.module,
            metadata,
        })
    }
}

fn init_bytes(init: &GlobalInit, size: u64) -> Option<Vec<u8>> {
    match init {
        GlobalInit::Bytes(b) => Some(b.clone()),
        GlobalInit::Words(ws) => Some(ws.iter().flat_map(|w| w.to_le_bytes()).collect()),
        GlobalInit::Zero => Some(vec![0u8; size.min(256) as usize]),
        GlobalInit::Relocated(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::{Operand, Ty};

    /// nginx-Listing-1-like module: execve called directly from a helper
    /// reached from main; plus an unrelated indirect call.
    fn listing1_module() -> Module {
        let mut mb = ModuleBuilder::new("l1");
        let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
        let path = mb.global_str("upgrade_path", "/usr/sbin/new");
        let exec_proc = mb.declare("ngx_execute_proc", &[], Ty::Void);
        let filter = mb.declare("output_filter", &[("x", Ty::I64)], Ty::I64);

        let mut f = mb.define(exec_proc);
        let p = f.global_addr(path);
        let _ = f.call_direct(execve, &[p.into(), 0i64.into(), 0i64.into()]);
        f.ret(None);
        f.finish();

        let mut f = mb.define(filter);
        f.ret(Some(Operand::Imm(0)));
        f.finish();

        let mut f = mb.function("main", &[], Ty::I64);
        let _ = f.call_direct(exec_proc, &[]);
        let fp = f.func_addr(filter);
        let _ = f.call_indirect(fp, &[Operand::Imm(1)]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        mb.finish()
    }

    #[test]
    fn compile_produces_consistent_metadata() {
        let out = BastionCompiler::new().compile(listing1_module()).unwrap();
        let md = &out.metadata;
        assert_eq!(
            md.syscall_classes[&sysno::EXECVE],
            bastion_analysis::CallTypeClass::DirectOnly
        );
        assert_eq!(md.stats.sensitive_callsites, 1);
        assert_eq!(md.stats.sensitive_indirect, 0);
        assert_eq!(md.stats.indirect_callsites, 1);
        // The execve callsite address is a recorded direct callsite.
        let (addr, site) = md.syscall_sites.iter().next().unwrap();
        assert_eq!(site.nr, sysno::EXECVE);
        let cs = &md.callsites[addr];
        assert!(matches!(cs.kind, CallsiteKind::Direct(_)));
        // Pathname is a global with embedded expected bytes (extended arg).
        match &site.args[0] {
            ArgMeta::Global { name, expected } => {
                assert_eq!(name, "upgrade_path");
                assert_eq!(expected.as_deref(), Some(b"/usr/sbin/new\0".as_slice()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(site.args[1], ArgMeta::Const(0));
    }

    #[test]
    fn metadata_carries_the_syscall_flow_automaton() {
        let out = BastionCompiler::new().compile(listing1_module()).unwrap();
        let flow = &out.metadata.syscall_flow;
        // execve (via ngx_execute_proc) is the only sensitive trap: it can
        // come first and nothing can follow it.
        assert_eq!(
            flow.initial.iter().copied().collect::<Vec<_>>(),
            vec![sysno::EXECVE]
        );
        assert!(flow.edges.is_empty());
        // The automaton survives JSON and rebasing untouched (nr-based).
        let back = ContextMetadata::from_json(&out.metadata.to_json().unwrap()).unwrap();
        assert_eq!(&back.syscall_flow, flow);
        assert_eq!(&out.metadata.rebased(0x2000).syscall_flow, flow);
    }

    #[test]
    fn callsite_addresses_resolve_in_instrumented_layout() {
        let out = BastionCompiler::new().compile(listing1_module()).unwrap();
        let layout = CodeLayout::new(&out.module);
        for &addr in out.metadata.callsites.keys() {
            let loc = layout.loc_of(bastion_ir::CodeAddr(addr)).unwrap();
            let f = &out.module.functions[loc.func.index()];
            let inst = &f.blocks[loc.block.index()].insts[loc.inst];
            assert!(inst.is_call(), "metadata callsite is not a call: {inst:?}");
        }
    }

    #[test]
    fn valid_callers_reference_real_callsites() {
        let out = BastionCompiler::new().compile(listing1_module()).unwrap();
        let md = &out.metadata;
        for (callee, sites) in &md.valid_callers {
            assert!(md.functions.contains_key(callee));
            for s in sites {
                assert!(md.callsites.contains_key(s));
            }
        }
        // execve's valid caller is inside ngx_execute_proc.
        let execve_entry = md
            .functions
            .values()
            .find(|f| f.stub_nr == Some(sysno::EXECVE))
            .unwrap()
            .entry;
        let callers = &md.valid_callers[&execve_entry];
        assert_eq!(callers.len(), 1);
        let site = md.callsites[callers.iter().next().unwrap()];
        assert_eq!(md.functions[&site.in_func].name, "ngx_execute_proc");
    }

    #[test]
    fn metadata_roundtrips_and_rebases() {
        let out = BastionCompiler::new().compile(listing1_module()).unwrap();
        let json = out.metadata.to_json().unwrap();
        let back = ContextMetadata::from_json(&json).unwrap();
        assert_eq!(back, out.metadata);
        let shifted = out.metadata.rebased(0x2000);
        assert_eq!(shifted.main_entry, out.metadata.main_entry + 0x2000);
        assert_eq!(
            shifted.syscall_sites.len(),
            out.metadata.syscall_sites.len()
        );
    }

    #[test]
    fn extended_sensitive_set_changes_scope() {
        let mut mb = ModuleBuilder::new("fsapp");
        let open = mb.declare_syscall_stub("open", sysno::OPEN, 3);
        let p = mb.global_str("conf", "/etc/conf");
        let mut f = mb.function("main", &[], Ty::I64);
        let pa = f.global_addr(p);
        let r = f.call_direct(open, &[pa.into(), 0i64.into(), 0i64.into()]);
        f.ret(Some(r.into()));
        f.finish();
        let m = mb.finish();

        let default = BastionCompiler::new().compile(m.clone()).unwrap();
        assert_eq!(default.metadata.stats.sensitive_callsites, 0);

        let extended = BastionCompiler::with_sensitive(sysno::extended_sensitive_set())
            .compile(m)
            .unwrap();
        assert_eq!(extended.metadata.stats.sensitive_callsites, 1);
    }
}
