//! Tier-1 seccomp-time prefilter (DESIGN.md §6g–§6h).
//!
//! At monitor-attach time the CT table, the main-rooted syscall-flow
//! automaton, and the argument predicates are compiled into a **flat
//! check program**: dense tables indexed by sensitive-syscall index and by
//! the monitor-tracked flow state, plus sorted flat rows for callsites,
//! functions, valid callers, and argument predicates. The kernel's trap
//! path evaluates the program at seccomp-classify time — in the tracee's
//! own address space, without a ptrace stop — and either proves the trap
//! equivalent to a full-monitor Allow or escalates.
//!
//! **Tier 1 never denies.** Every check below mirrors one check of
//! [`crate::verify`] and has exactly two outcomes: pass, or escalate to
//! the authoritative monitor (which re-derives the verdict from scratch
//! and owns every deny string). Anything tier 1 cannot replicate cheaply
//! — retry/backoff policy, the degradation ladder, injected faults —
//! escalates unconditionally, so detection power and deny provenance are
//! byte-identical with the prefilter off.
//!
//! Extended-pointee positions are handled by per-site **probe rows**
//! (§6h): a bounded, page-boundary-aware scan of the pointee against its
//! shadow entries via the in-address-space kernel accessors, escalating
//! wherever the monitor's [`crate::verify`] probe would deny and on any
//! read anomaly. The flow check is an **edge-precise automaton** over the
//! compiler's [`bastion_compiler::metadata::ContextMetadata::syscall_flow`]
//! (one compact state word per pid); metadata without flow information
//! has an empty automaton, so every trap escalates as a flow miss.

use crate::verify::const_to_u64;
use crate::{ContextConfig, LaunchInfo};
use bastion_compiler::metadata::{ArgMeta, CallsiteKind, ContextMetadata};
use bastion_ir::CALL_SIZE;
use bastion_kernel::{EscalateReason as R, Pid, PrefilterVerdict, Tracee};
use bastion_obs as obs;
use bastion_vm::shadow::Binding;
use bastion_vm::ShadowTable;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// CT flag bits in [`CheckProgram::ct_flags`].
const CT_DIRECT: u8 = 1 << 0;
const CT_INDIRECT: u8 = 1 << 1;

/// One compiled callsite row (sorted by `addr`).
#[derive(Debug, Clone, Copy)]
struct CsRow {
    addr: u64,
    /// `u64::MAX` encodes an indirect callsite; anything else is the
    /// direct target's entry.
    target: u64,
    in_func: u64,
}

impl CsRow {
    fn is_indirect(&self) -> bool {
        self.target == u64::MAX
    }
}

/// One compiled function row (sorted by `entry`).
#[derive(Debug, Clone)]
struct FnRow {
    entry: u64,
    end: u64,
    frame_size: u64,
    slot_offsets: Vec<u64>,
}

/// A direct-argument predicate, pre-resolved so evaluation touches no
/// maps and no symbol tables.
#[derive(Debug, Clone)]
enum ArgPred {
    /// Expected register bit pattern (signed constants already widened
    /// through [`const_to_u64`] — the one normalization rule).
    Const(u64),
    /// Shadow-binding-backed argument.
    Mem,
    /// Pre-resolved global symbol address plus expected pointee bytes.
    Global {
        addr: u64,
        expected: Option<Vec<u8>>,
    },
    /// Stack-range plausibility.
    StackAddr,
    /// Unverifiable position: always passes, exactly like the monitor.
    Opaque,
}

/// One compiled sensitive-syscall-site row (sorted by `callsite`).
#[derive(Debug, Clone)]
struct SiteRow {
    callsite: u64,
    nr: u32,
    args: Vec<ArgPred>,
    /// Per-position extended-pointee flag (index 0 = position 1): the
    /// probe row runs after the direct predicate passes, exactly where
    /// the monitor runs its pointee probe.
    ext: Vec<bool>,
}

/// A propagation-site predicate (re-validated per walked frame).
#[derive(Debug, Clone)]
enum PropPred {
    Mem,
    Const(u64),
}

/// The compiled flat check program: read-only after compilation, so every
/// clone of a [`Prefilter`] (one per world snapshot) shares it by `Arc`.
#[derive(Debug, Default)]
struct CheckProgram {
    // Which contexts the program replicates (copied from the config so
    // tier 1 checks exactly what tier 2 would).
    call_type: bool,
    control_flow: bool,
    arg_integrity: bool,

    /// Sorted sensitive syscall numbers — the dense index for every
    /// `nr`-keyed table below.
    nrs: Vec<u32>,
    /// CT flag byte per nr index.
    ct_flags: Vec<u8>,
    /// Whether `nrs[i]` may be a pid's **first** sensitive trap.
    flow_initial: Vec<bool>,
    /// Dense transition table: `flow_edges[i * nrs.len() + j]` says
    /// whether `nrs[j]` may trap when the pid's last trapped nr was
    /// `nrs[i]`. Any transition outside the table escalates (never
    /// denies — flow precision only trades escalations).
    flow_edges: Vec<bool>,

    /// Flat callsite table, sorted by address.
    callsites: Vec<CsRow>,
    /// Flat function table, sorted by entry.
    funcs: Vec<FnRow>,
    /// Valid direct callers per callee entry (both levels sorted).
    valid_callers: Vec<(u64, Vec<u64>)>,
    /// Legitimate indirect-entry functions, sorted.
    indirect_entries: Vec<u64>,
    /// Sensitive syscall sites with argument predicates, sorted by
    /// callsite.
    sites: Vec<SiteRow>,
    /// Propagation sites, sorted by callsite.
    prop: Vec<(u64, Vec<(u8, PropPred)>)>,

    main_entry: u64,
    stack: (u64, u64),
}

/// The shared check program plus the per-pid flow state it tracks.
#[derive(Debug, Clone, Default)]
pub struct Prefilter {
    prog: Arc<CheckProgram>,
    /// Monitor-tracked automaton position per pid: 0 = no sensitive trap
    /// yet, `i + 1` = last trapped nr was `nrs[i]`.
    state: HashMap<Pid, usize>,
}

impl Prefilter {
    /// Compiles the flat check program from rebased metadata and
    /// launch-time symbol/stack information.
    pub fn compile(md: &ContextMetadata, info: &LaunchInfo, cfg: &ContextConfig) -> Prefilter {
        let nrs: Vec<u32> = md.sensitive_nrs.iter().copied().collect();
        let nr_idx: BTreeMap<u32, usize> = nrs.iter().enumerate().map(|(i, &n)| (n, i)).collect();

        let ct_flags = nrs
            .iter()
            .map(|nr| {
                md.syscall_classes.get(nr).map_or(0, |c| {
                    (u8::from(c.allows_direct()) * CT_DIRECT)
                        | (u8::from(c.allows_indirect()) * CT_INDIRECT)
                })
            })
            .collect();
        // ---- syscall-flow automaton ----
        // The compiler's main-rooted flow analysis gives the edge-precise
        // automaton: which nrs may trap first, and which nr-to-nr
        // transitions the program can actually produce. The table only
        // trades escalations, never allows: a flow miss hands the trap to
        // the monitor, which has no flow check at all.
        let flow_initial = nrs
            .iter()
            .map(|nr| md.syscall_flow.initial.contains(nr))
            .collect();
        let mut flow_edges = vec![false; nrs.len() * nrs.len()];
        for &(a, b) in &md.syscall_flow.edges {
            if let (Some(&i), Some(&j)) = (nr_idx.get(&a), nr_idx.get(&b)) {
                flow_edges[i * nrs.len() + j] = true;
            }
        }

        let callsites = md
            .callsites
            .iter()
            .map(|(&addr, m)| CsRow {
                addr,
                target: match m.kind {
                    CallsiteKind::Direct(t) => t,
                    CallsiteKind::Indirect => u64::MAX,
                },
                in_func: m.in_func,
            })
            .collect();
        let funcs = md
            .functions
            .values()
            .map(|f| FnRow {
                entry: f.entry,
                end: f.end,
                frame_size: f.frame_size,
                slot_offsets: f.slot_offsets.clone(),
            })
            .collect();
        let valid_callers = md
            .valid_callers
            .iter()
            .map(|(&callee, s)| (callee, s.iter().copied().collect()))
            .collect();
        let indirect_entries = md.indirect_entries.iter().copied().collect();

        let compile_arg = |am: &ArgMeta| match am {
            ArgMeta::Const(v) => ArgPred::Const(const_to_u64(*v)),
            ArgMeta::Mem => ArgPred::Mem,
            ArgMeta::Global { name, expected } => ArgPred::Global {
                addr: info.globals[name.as_str()],
                expected: expected.clone(),
            },
            ArgMeta::StackAddr => ArgPred::StackAddr,
            ArgMeta::Opaque => ArgPred::Opaque,
        };
        let sites = md
            .syscall_sites
            .iter()
            .map(|(&callsite, s)| {
                let ext_pos = bastion_ir::sysno::extended_positions(s.nr);
                SiteRow {
                    callsite,
                    nr: s.nr,
                    args: s.args.iter().map(compile_arg).collect(),
                    ext: (1..=s.args.len() as u8)
                        .map(|p| ext_pos.contains(&p))
                        .collect(),
                }
            })
            .collect();
        let prop = md
            .prop_sites
            .iter()
            .map(|(&cs, specs)| {
                let compiled = specs
                    .iter()
                    .filter_map(|(pos, am)| match am {
                        ArgMeta::Mem => Some((*pos, PropPred::Mem)),
                        ArgMeta::Const(v) => Some((*pos, PropPred::Const(const_to_u64(*v)))),
                        // The monitor skips these at prop sites; compiling
                        // them out keeps the row dense.
                        ArgMeta::Global { .. } | ArgMeta::StackAddr | ArgMeta::Opaque => None,
                    })
                    .collect();
                (cs, compiled)
            })
            .collect();

        let prog = CheckProgram {
            call_type: cfg.call_type,
            control_flow: cfg.control_flow,
            arg_integrity: cfg.arg_integrity,
            nrs,
            ct_flags,
            flow_initial,
            flow_edges,
            callsites,
            funcs,
            valid_callers,
            indirect_entries,
            sites,
            prop,
            main_entry: md.main_entry,
            stack: info.stack,
        };
        Prefilter {
            prog: Arc::new(prog),
            state: HashMap::new(),
        }
    }

    /// Rough compile cost in virtual cycles (charged to monitor init).
    pub fn compile_cycles(&self) -> u64 {
        let p = &self.prog;
        8 * (p.callsites.len() + p.funcs.len() + p.sites.len()) as u64 + 4 * p.nrs.len() as u64
    }

    /// Seeds the child's automaton position from the parent at fork: the
    /// child resumes at the same program point, so its next trap follows
    /// the parent's last trapped nr in the static flow graph.
    pub fn inherit_state(&mut self, parent: Pid, child: Pid) {
        if let Some(&st) = self.state.get(&parent) {
            self.state.insert(child, st);
        }
    }

    /// The flow-automaton state word for `pid`: 0 = no sensitive trap
    /// seen yet, `i + 1` = the last trapped nr was `nrs[i]`. Host-side
    /// observability (flight-recorder entries); charges nothing.
    pub fn state_word(&self, pid: Pid) -> u64 {
        self.state.get(&pid).map_or(0, |&s| s as u64)
    }

    /// Evaluates the check program for the trap the tracee is stopped at.
    ///
    /// Mode/quarantine/fault gates are the caller's job
    /// ([`crate::Monitor`]); this is the pure table program.
    pub fn check(&mut self, tracee: &mut Tracee<'_>) -> PrefilterVerdict {
        let esc = PrefilterVerdict::Escalate;
        let p = &*self.prog;
        let regs = tracee.kernel_regs();
        let nr = regs.nr;

        // ---- flow automaton (state word × transition table) ----
        let Some(ni) = p.nr_pos(nr) else {
            return esc(R::FlowMiss);
        };
        let st = self.state.get(&tracee.pid()).copied().unwrap_or(0);
        // The tracked state is "last trapped nr" regardless of which tier
        // handles the trap — tier 2 sees the same sequence, so the
        // automaton position stays synchronized across escalations.
        self.state.insert(tracee.pid(), ni + 1);
        let allowed = if st == 0 {
            p.flow_initial[ni]
        } else {
            p.flow_edges[(st - 1) * p.nrs.len() + ni]
        };
        if !allowed {
            return esc(R::FlowMiss);
        }

        // ---- stub + frame head (mirrors verify_trap's entry) ----
        // A trap's rip lies in a stub of the image (`verify::stub_entry`).
        let stub_entry = p.func_of(regs.rip).expect("trap rip in a stub").entry;
        let Ok((saved0, ret0)) = tracee.kernel_read_frame(regs.fp) else {
            return esc(R::ReadFailure);
        };
        let callsite0 = ret0.wrapping_sub(CALL_SIZE);

        // ---- Call-Type (dense flag byte per nr index) ----
        if p.call_type {
            let flags = p.ct_flags[ni];
            match p.callsite(callsite0) {
                Some(cs) if cs.is_indirect() => {
                    if flags & CT_INDIRECT == 0 {
                        return esc(R::CtMismatch);
                    }
                }
                Some(_) => {
                    if flags & CT_DIRECT == 0 {
                        return esc(R::CtMismatch);
                    }
                }
                None => return esc(R::CtMismatch),
            }
        }

        if !p.control_flow && !p.arg_integrity {
            return PrefilterVerdict::Allow;
        }

        // ---- frame-pointer chain (mirrors read_chain + validate_chain) ----
        let cf = p.control_flow;
        // (func_entry, creating callsite, fp) per frame, like FrameRec.
        let mut frames: Vec<(u64, Option<u64>, u64)> = Vec::new();
        let mut cur_entry = stub_entry;
        let mut cur_fp = regs.fp;
        let mut pre = Some((saved0, ret0));
        let mut strict = true;
        let mut done = false;
        for _ in 0..128 {
            let (saved, ret) = match pre.take() {
                Some(fr) => fr,
                None => match tracee.kernel_read_frame(cur_fp) {
                    Ok(fr) => fr,
                    Err(_) => return esc(R::ReadFailure),
                },
            };
            if ret == 0 {
                // Bottom: only main may terminate the walk under CF.
                if cf && cur_entry != p.main_entry {
                    return esc(R::ChainAnomaly);
                }
                frames.push((cur_entry, None, cur_fp));
                done = true;
                break;
            }
            let callsite = ret.wrapping_sub(CALL_SIZE);
            let Some(cs) = p.callsite(callsite) else {
                // Unknown callsite: a CF violation, or (CF off) the end of
                // the walkable chain.
                if cf {
                    return esc(R::ChainAnomaly);
                }
                frames.push((cur_entry, None, cur_fp));
                done = true;
                break;
            };
            if cs.is_indirect() {
                if cf && p.indirect_entries.binary_search(&cur_entry).is_err() {
                    return esc(R::ChainAnomaly);
                }
                strict = false;
            } else if cf {
                if cs.target != cur_entry {
                    return esc(R::ChainAnomaly);
                }
                if strict && !p.is_valid_caller(cur_entry, callsite) {
                    return esc(R::ChainAnomaly);
                }
            }
            frames.push((cur_entry, Some(callsite), cur_fp));
            cur_entry = cs.in_func;
            cur_fp = saved;
        }
        if !done {
            // Depth limit: tier 2 denies unconditionally.
            return esc(R::ChainAnomaly);
        }

        // ---- Argument Integrity (direct predicates + probe rows) ----
        if p.arg_integrity {
            let Some(&(_, Some(syscall_cs), _)) = frames.first() else {
                // Tier 2 denies NoSyscallCallsite.
                return esc(R::ArgMismatch);
            };
            let Some(site) = p.site(syscall_cs) else {
                return esc(R::ArgMismatch);
            };
            if site.nr != nr {
                return esc(R::ArgMismatch);
            }
            let shadow = ShadowTable::new(tracee.gs_base());
            for (i, pred) in site.args.iter().enumerate() {
                let actual = regs.args[i];
                let pos = (i + 1) as u8;
                match pred {
                    ArgPred::Const(c) => {
                        if actual != *c {
                            return esc(R::ArgMismatch);
                        }
                    }
                    ArgPred::Mem => {
                        if let PrefilterVerdict::Escalate(r) =
                            check_mem_binding(tracee, &shadow, syscall_cs, pos, actual)
                        {
                            return esc(r);
                        }
                        // Probe row: the monitor runs its pointee probe
                        // right here, after the binding checks pass.
                        if site.ext[i] {
                            if let Err(r) = probe_pointee(tracee, &shadow, actual) {
                                return esc(r);
                            }
                        }
                    }
                    ArgPred::Global { addr, expected } => {
                        if actual != *addr {
                            return esc(R::ArgMismatch);
                        }
                        if let Some(exp) = expected {
                            let mut buf = vec![0u8; exp.len()];
                            if tracee.kernel_read_mem(actual, &mut buf).is_err() {
                                return esc(R::ReadFailure);
                            }
                            if &buf != exp {
                                return esc(R::ArgMismatch);
                            }
                        }
                    }
                    ArgPred::StackAddr => {
                        let (lo, hi) = p.stack;
                        if actual != 0 && !(lo..hi).contains(&actual) {
                            return esc(R::ArgMismatch);
                        }
                    }
                    ArgPred::Opaque => {}
                }
            }

            // Prop-site re-validation up the walked chain.
            for &(entry, created_by, fp) in &frames {
                let Some(created_by) = created_by else {
                    continue;
                };
                let Some(specs) = p.prop_specs(created_by) else {
                    continue;
                };
                for (pos, pred) in specs {
                    match pred {
                        PropPred::Mem => {
                            // A prop-site Mem check has no trapped register
                            // to compare; the monitor checks shadow copy vs
                            // current memory only. Reuse the binding check
                            // with the shadow value as the expected actual.
                            match shadow_mem_current(tracee, &shadow, created_by, *pos) {
                                Ok(()) => {}
                                Err(r) => return esc(r),
                            }
                        }
                        PropPred::Const(c) => {
                            let Some(fm) = p.func_by_entry(entry) else {
                                continue;
                            };
                            let idx = *pos as usize - 1;
                            if idx >= fm.slot_offsets.len() {
                                continue;
                            }
                            let slot = fp - fm.frame_size + fm.slot_offsets[idx];
                            let Ok(cur) = tracee.kernel_read_u64(slot) else {
                                return esc(R::ReadFailure);
                            };
                            if cur != *c {
                                return esc(R::ArgMismatch);
                            }
                        }
                    }
                }
            }
        }

        PrefilterVerdict::Allow
    }
}

impl CheckProgram {
    fn nr_pos(&self, nr: u32) -> Option<usize> {
        self.nrs.binary_search(&nr).ok()
    }

    fn callsite(&self, addr: u64) -> Option<&CsRow> {
        self.callsites
            .binary_search_by_key(&addr, |r| r.addr)
            .ok()
            .map(|i| &self.callsites[i])
    }

    /// Range lookup mirroring [`ContextMetadata::func_of`].
    fn func_of(&self, addr: u64) -> Option<&FnRow> {
        let i = self.funcs.partition_point(|f| f.entry <= addr);
        let f = self.funcs.get(i.checked_sub(1)?)?;
        (addr < f.end).then_some(f)
    }

    fn func_by_entry(&self, entry: u64) -> Option<&FnRow> {
        self.funcs
            .binary_search_by_key(&entry, |f| f.entry)
            .ok()
            .map(|i| &self.funcs[i])
    }

    fn is_valid_caller(&self, callee: u64, callsite: u64) -> bool {
        self.valid_callers
            .binary_search_by_key(&callee, |(c, _)| *c)
            .ok()
            .is_some_and(|i| self.valid_callers[i].1.binary_search(&callsite).is_ok())
    }

    fn site(&self, callsite: u64) -> Option<&SiteRow> {
        self.sites
            .binary_search_by_key(&callsite, |s| s.callsite)
            .ok()
            .map(|i| &self.sites[i])
    }

    fn prop_specs(&self, callsite: u64) -> Option<&[(u8, PropPred)]> {
        self.prop
            .binary_search_by_key(&callsite, |(c, _)| *c)
            .ok()
            .map(|i| self.prop[i].1.as_slice())
    }
}

/// Tier-1 probe row: mirrors the monitor's extended-pointee verification
/// (`verify_pointee_shadow`) byte for byte, escalating wherever it would
/// deny. The bounded window is read with the flat-charged in-address-space
/// prefix accessor, so a pointee stopping at a page boundary is observed
/// exactly like the monitor's batched prefix read — page-boundary aware,
/// never faulting, never denying.
fn probe_pointee(tracee: &mut Tracee<'_>, shadow: &ShadowTable, ptr: u64) -> Result<(), R> {
    let mut buf = [0u8; 256];
    let mapped = tracee.kernel_read_mem_prefix(ptr, &mut buf);
    let nul = buf[..mapped].iter().position(|&b| b == 0);
    let (n, nul_found) = (nul.map_or(mapped, |z| z + 1), nul.is_some());
    obs::sketch_observe("prefilter.pointee_probe_len", n as u64);
    for (i, &byte) in buf[..n].iter().enumerate() {
        match shadow.read_value_checked(&tracee.shared_shadow(), ptr + i as u64) {
            Ok(Some((legit, size))) => {
                // Tier 2 denies PointeeByteCorrupted.
                if size == 1 && (legit & 0xff) as u8 != byte {
                    return Err(R::ExtendedArgs);
                }
            }
            Ok(_) => {}
            Err(_) => return Err(R::ReadFailure),
        }
    }
    // Non-terminated string ending mid-window: tier 2 denies
    // PointeeRunsOffMapping (real bytes ran off the mapping) — a
    // deterministic property of tracee memory, so hand it over.
    if !nul_found && n > 0 && n < buf.len() {
        return Err(R::ExtendedArgs);
    }
    // Nothing readable at all: if any window byte is shadow-backed, tier 2
    // denies PointeeTailUnverifiable.
    if !nul_found && n < buf.len() {
        for i in n..buf.len() {
            match shadow.read_value_checked(&tracee.shared_shadow(), ptr + i as u64) {
                Ok(Some(_)) => return Err(R::ExtendedArgs),
                Ok(None) => {}
                Err(_) => return Err(R::ReadFailure),
            }
        }
    }
    Ok(())
}

/// Mirrors the monitor's `ArgMeta::Mem` direct-argument check: binding →
/// shadow copy → trapped register → current memory, escalating where the
/// monitor would deny. Shadow integrity failures escalate **without**
/// quarantining — only the authoritative monitor mutates resilience state,
/// so the re-observation in tier 2 produces the canonical deny.
fn check_mem_binding(
    tracee: &mut Tracee<'_>,
    shadow: &ShadowTable,
    callsite: u64,
    pos: u8,
    actual: u64,
) -> PrefilterVerdict {
    let esc = PrefilterVerdict::Escalate;
    let binding = match shadow.get_binding_checked(&tracee.shared_shadow(), callsite, pos) {
        Ok(b) => b,
        Err(_) => return esc(R::ReadFailure),
    };
    match binding {
        Some(Binding::Mem(addr)) => {
            let legit = match shadow.read_value_checked(&tracee.shared_shadow(), addr) {
                Ok(Some((v, _))) => v,
                Ok(None) => return esc(R::ArgMismatch),
                Err(_) => return esc(R::ReadFailure),
            };
            if actual != legit {
                return esc(R::ArgMismatch);
            }
            let Ok(current) = tracee.kernel_read_u64(addr) else {
                return esc(R::ReadFailure);
            };
            if current != legit {
                return esc(R::ArgMismatch);
            }
            PrefilterVerdict::Allow
        }
        Some(Binding::Const(c)) => {
            if actual != const_to_u64(c) {
                return esc(R::ArgMismatch);
            }
            PrefilterVerdict::Allow
        }
        None => esc(R::ArgMismatch),
    }
}

/// Prop-site `Mem` re-validation: shadow copy vs the variable's current
/// memory (there is no trapped register at a propagation site).
fn shadow_mem_current(
    tracee: &mut Tracee<'_>,
    shadow: &ShadowTable,
    callsite: u64,
    pos: u8,
) -> Result<(), R> {
    let binding = shadow
        .get_binding_checked(&tracee.shared_shadow(), callsite, pos)
        .map_err(|_| R::ReadFailure)?;
    match binding {
        Some(Binding::Mem(addr)) => {
            let legit = match shadow
                .read_value_checked(&tracee.shared_shadow(), addr)
                .map_err(|_| R::ReadFailure)?
            {
                Some((v, _)) => v,
                // Tier 2 denies NoShadowCopy.
                None => return Err(R::ArgMismatch),
            };
            let current = tracee.kernel_read_u64(addr).map_err(|_| R::ReadFailure)?;
            if current != legit {
                return Err(R::ArgMismatch);
            }
            Ok(())
        }
        // Tier 2 denies MissingMemBinding.
        Some(Binding::Const(_)) | None => Err(R::ArgMismatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_compiler::BastionCompiler;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::{sysno, Operand, Ty};
    use bastion_vm::{CostModel, Image, Machine, MemIo};

    /// `main` → `execve(0, 0, 0)`: one clean sensitive trap.
    fn fixture() -> (Arc<Image>, ContextMetadata) {
        let mut mb = ModuleBuilder::new("fx");
        let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
        let mut f = mb.function("main", &[], Ty::I64);
        let z = Operand::Imm(0);
        let _ = f.call_direct(execve, &[z, z, z]);
        f.ret(Some(z));
        f.finish();
        let out = BastionCompiler::new().compile(mb.finish()).unwrap();
        (Arc::new(Image::load(out.module).unwrap()), out.metadata)
    }

    fn machine() -> Machine {
        Machine::new(fixture().0, CostModel::default())
    }

    /// The flow automaton is the only flow table: metadata without one
    /// permits no trap at tier 1, so the clean execve the compiled
    /// automaton allows escalates as a flow miss and the monitor decides.
    #[test]
    fn empty_flow_automaton_escalates_every_trap() {
        let (image, md) = fixture();
        let mut m = Machine::new(image.clone(), CostModel::default());
        let ev = bastion_vm::interp::run(&mut m, 1_000_000).event();
        assert!(
            matches!(ev, bastion_vm::Event::Syscall { nr, .. } if nr == sysno::EXECVE),
            "{ev:?}"
        );
        let info = LaunchInfo::from_image(&image, &md);
        let mut flowless = md.clone();
        flowless.syscall_flow = Default::default();
        for (md, want) in [
            (md, PrefilterVerdict::Allow),
            (flowless, PrefilterVerdict::Escalate(R::FlowMiss)),
        ] {
            let md = md.rebased(info.load_bias);
            let mut pf = Prefilter::compile(&md, &info, &ContextConfig::full());
            let mut charge = 0u64;
            let mut tracee = Tracee::new(&m, 1, &mut charge);
            assert_eq!(pf.check(&mut tracee), want);
        }
    }

    /// A clone (the world-snapshot path) shares the compiled tables and
    /// copies only the per-pid flow state, which then evolves per clone.
    #[test]
    fn clones_share_the_program_and_copy_flow_state() {
        let (image, md) = fixture();
        let mut m = Machine::new(image.clone(), CostModel::default());
        let _ = bastion_vm::interp::run(&mut m, 1_000_000);
        let info = LaunchInfo::from_image(&image, &md);
        let md = md.rebased(info.load_bias);
        let original = Prefilter::compile(&md, &info, &ContextConfig::full());
        let mut fork = original.clone();
        assert!(Arc::ptr_eq(&original.prog, &fork.prog));
        let mut charge = 0u64;
        let mut tracee = Tracee::new(&m, 1, &mut charge);
        assert_eq!(fork.check(&mut tracee), PrefilterVerdict::Allow);
        assert_ne!(fork.state_word(1), 0);
        assert_eq!(original.state_word(1), 0);
    }

    // ---- classify-time mapping-boundary probe (ports the tier-2
    // `PointeeRunsOffMapping` fixtures to seccomp-classify time) ----

    /// An unterminated string running to the end of its mapping makes the
    /// probe **escalate** — tier 1 has no deny path by construction (the
    /// return type is an `EscalateReason`); the monitor then re-observes
    /// the same deterministic memory and issues the canonical
    /// `PointeeRunsOffMapping` deny.
    #[test]
    fn probe_escalates_never_denies_on_last_byte_unmapped() {
        let mut m = machine();
        let base = 0x6100_0000_0000u64;
        m.mem.map_region(base, 0x1000);
        let tail = base + 0x1000 - 16;
        m.mem.write_unchecked(tail, &[b'A'; 16]);
        let mut charge = 0u64;
        let mut tracee = Tracee::new(&m, 1, &mut charge);
        let shadow = ShadowTable::new(tracee.gs_base());
        assert_eq!(
            probe_pointee(&mut tracee, &shadow, tail),
            Err(R::ExtendedArgs)
        );
    }

    /// Control: the same placement with a NUL inside the mapping passes
    /// tier 1, and the bounded window costs exactly one flat
    /// `prefilter_read` charge (shadow reads are free).
    #[test]
    fn probe_passes_terminated_string_at_mapping_edge() {
        let mut m = machine();
        let base = 0x6200_0000_0000u64;
        m.mem.map_region(base, 0x1000);
        let tail = base + 0x1000 - 16;
        let mut bytes = [b'A'; 16];
        bytes[15] = 0;
        m.mem.write_unchecked(tail, &bytes);
        let mut charge = 0u64;
        let mut tracee = Tracee::new(&m, 1, &mut charge);
        let shadow = ShadowTable::new(tracee.gs_base());
        assert_eq!(probe_pointee(&mut tracee, &shadow, tail), Ok(()));
        assert_eq!(charge, CostModel::default().prefilter_read);
    }

    /// A completely unmapped pointer reads zero bytes; with no
    /// shadow-backed bytes in the window the probe passes (mirroring the
    /// monitor, which only denies the empty window when a recorded byte
    /// escaped verification).
    #[test]
    fn probe_mirrors_empty_window_policy() {
        let m = machine();
        let mut charge = 0u64;
        let mut tracee = Tracee::new(&m, 1, &mut charge);
        let shadow = ShadowTable::new(tracee.gs_base());
        assert_eq!(probe_pointee(&mut tracee, &shadow, 0x10), Ok(()));
    }

    // ---- one check alone decides: tier 1 escalates exactly where the
    // monitor denies, on a trap state that only that check tells apart
    // from a clean one ----

    /// `main` → `x` →(indirect) `y` → `w(0)` →
    /// `execveat(-100, path, &argv, envp, 0)`, and `main` also calls `z`.
    /// The site has Const, Global-pointee, StackAddr and Mem predicates;
    /// `envp` is `w`'s parameter, so `y`'s call to `w` is a prop site with
    /// a Const predicate; above the indirect edge the walk is no longer
    /// strict, so the valid-caller table is not consulted for `x`'s frame.
    fn one_of_each_app() -> bastion_ir::Module {
        let mut mb = ModuleBuilder::new("each");
        let execveat = mb.declare_syscall_stub("execveat", sysno::EXECVEAT, 5);
        let path = mb.global_str("path", "/bin/true");
        let w = mb.declare("w", &[("envp", Ty::I64)], Ty::Void);
        let mut f = mb.define(w);
        let argv = f.local("argv", Ty::I64);
        let (p, a) = (f.global_addr(path), f.frame_addr(argv));
        let envp = f.frame_addr(f.param_slot(0));
        let envp = f.load(envp);
        let args = [
            (-100i64).into(),
            p.into(),
            a.into(),
            envp.into(),
            0i64.into(),
        ];
        let _ = f.call_direct(execveat, &args);
        f.ret(None);
        f.finish();
        let y = mb.declare("y", &[], Ty::Void);
        let mut f = mb.define(y);
        let _ = f.call_direct(w, &[0i64.into()]);
        f.ret(None);
        f.finish();
        let x = mb.declare("x", &[], Ty::Void);
        let mut f = mb.define(x);
        let target = f.func_addr(y);
        let _ = f.call_indirect(target, &[]);
        f.ret(None);
        f.finish();
        let z = mb.declare("z", &[], Ty::Void);
        let mut f = mb.define(z);
        f.ret(None);
        f.finish();
        let mut f = mb.function("main", &[], Ty::I64);
        let _ = f.call_direct(x, &[]);
        let _ = f.call_direct(z, &[]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        mb.finish()
    }

    /// [`one_of_each_app`] stopped at its trap, with its tier-1 program
    /// and the monitor that owns its verdicts.
    struct Stopped {
        m: Machine,
        pf: Prefilter,
        mon: crate::Monitor,
    }

    impl Stopped {
        fn new() -> Self {
            let out = BastionCompiler::new().compile(one_of_each_app()).unwrap();
            let image = Arc::new(Image::load(out.module).unwrap());
            let mut m = Machine::new(image.clone(), CostModel::default());
            let ev = bastion_vm::interp::run(&mut m, 1_000_000).event();
            assert!(matches!(ev, bastion_vm::Event::Syscall { .. }), "{ev:?}");
            let info = LaunchInfo::from_image(&image, &out.metadata);
            let md = out.metadata.rebased(info.load_bias);
            let pf = Prefilter::compile(&md, &info, &ContextConfig::full());
            let mon = crate::Monitor::new(&out.metadata, ContextConfig::full(), info);
            Stopped { m, pf, mon }
        }

        /// `(saved fp, return address)` of the frame at `fp`.
        fn frame(&self, fp: u64) -> (u64, u64) {
            let word = |a| self.m.mem.read_u64(a).unwrap();
            (word(fp), word(fp + 8))
        }

        /// The trapped syscall's callsite.
        fn site(&self) -> u64 {
            self.frame(self.m.fp).1 - CALL_SIZE
        }

        fn shadow(&self) -> ShadowTable {
            ShadowTable::new(self.m.gs_base)
        }

        /// Tier 1's verdict (from a fresh flow state) and the rule the
        /// monitor denies the same stopped state by, if any.
        fn verdicts(&self) -> (PrefilterVerdict, Option<bastion_obs::DenyRule>) {
            let mut charge = 0u64;
            let mut tracee = Tracee::new(&self.m, 1, &mut charge);
            let tier1 = self.pf.clone().check(&mut tracee);
            let regs = tracee.getregs();
            let tier2 = crate::verify::verify_trap(&self.mon, &mut tracee, &regs);
            (tier1, tier2.err().map(|v| v.rule))
        }
    }

    /// Tampers with a stopped state so that exactly one check fails.
    type Forge = fn(&mut Stopped);

    #[test]
    fn each_check_alone_escalates_what_the_monitor_denies() {
        use bastion_obs::DenyRule as D;
        assert_eq!(Stopped::new().verdicts(), (PrefilterVerdict::Allow, None));
        let forge: [(&str, R, D, Forge); 10] = [
            ("Const", R::ArgMismatch, D::ConstArgMismatch, |s| {
                s.m.trap_args[4] = 1;
            }),
            ("StackAddr", R::ArgMismatch, D::StackAddrImplausible, |s| {
                s.m.trap_args[2] = 0x10;
            }),
            (
                "Global pointee",
                R::ArgMismatch,
                D::GlobalPointeeCorrupted,
                |s| {
                    let path = s.m.trap_args[1];
                    s.m.mem.write_unchecked(path + 1, b"s");
                },
            ),
            (
                "Global unmapped",
                R::ReadFailure,
                D::PointeeUnreadable,
                |s| {
                    s.m.mem.unmap_region(s.m.trap_args[1] & !0xfff, 0x1000);
                },
            ),
            // `envp` (a Mem argument) rebound: to a constant, to a variable
            // with no shadow copy, to an unmapped variable whose shadow
            // copy matches the register.
            (
                "Mem bound to a constant",
                R::ArgMismatch,
                D::BoundConstMismatch,
                |s| {
                    let site = s.site();
                    s.shadow().bind_const(&mut s.m.mem, site, 4, 99).unwrap();
                },
            ),
            (
                "Mem bound unshadowed",
                R::ArgMismatch,
                D::NoShadowCopy,
                |s| {
                    let site = s.site();
                    s.shadow().bind_mem(&mut s.m.mem, site, 4, 0x10).unwrap();
                },
            ),
            (
                "Mem variable unmapped",
                R::ReadFailure,
                D::BoundVarUnreadable,
                |s| {
                    let (site, shadow) = (s.site(), s.shadow());
                    shadow.bind_mem(&mut s.m.mem, site, 4, 0x10).unwrap();
                    shadow.write_value(&mut s.m.mem, 0x10, 0, 8).unwrap();
                },
            ),
            // The app can unmap its own shadow region (`munmap`).
            ("shadow unmapped", R::ReadFailure, D::ShadowReadFault, |s| {
                let base = s.m.gs_base;
                s.m.mem
                    .unmap_region(base, bastion_vm::shadow::SHADOW_REGION_SIZE);
            }),
            // `envp` overwritten before `w` binds it: the register, the
            // variable and its shadow copy all agree on the forged value.
            (
                "prop-site Const",
                R::ArgMismatch,
                D::ConstParamCorrupted,
                |s| {
                    let (w_fp, ret) = s.frame(s.m.fp);
                    let w = s.pf.prog.func_of(ret).unwrap().clone();
                    let slot = w_fp - w.frame_size + w.slot_offsets[0];
                    s.m.mem.write_unchecked(slot, &7u64.to_le_bytes());
                    let shadow = ShadowTable::new(s.m.gs_base);
                    shadow.write_value(&mut s.m.mem, slot, 7, 8).unwrap();
                    s.m.trap_args[3] = 7;
                },
            ),
            // `x` returns to just after `main`'s call to `z`: a real
            // callsite in the right caller, but of another callee.
            ("callee mismatch", R::ChainAnomaly, D::CalleeMismatch, |s| {
                let (y_fp, _) = s.frame(s.frame(s.m.fp).0);
                let (x_fp, _) = s.frame(y_fp);
                let into_x = *s.pf.prog.callsite(s.frame(x_fp).1 - CALL_SIZE).unwrap();
                let into_z = s.pf.prog.callsites.iter().find(|c| {
                    c.in_func == into_x.in_func && !c.is_indirect() && c.target != into_x.target
                });
                let ret = into_z.unwrap().addr + CALL_SIZE;
                s.m.mem.write_unchecked(x_fp + 8, &ret.to_le_bytes());
            }),
        ];
        for (what, reason, rule, f) in forge {
            let mut s = Stopped::new();
            f(&mut s);
            assert_eq!(
                s.verdicts(),
                (PrefilterVerdict::Escalate(reason), Some(rule)),
                "{what}"
            );
        }
    }
}
