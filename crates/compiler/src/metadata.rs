//! BASTION context metadata (paper §6.1, §6.2, §6.3.4).
//!
//! Everything the runtime monitor needs, keyed by *link-time* virtual
//! addresses. At launch the monitor learns the load bias (the ASLR slide,
//! as if reading `/proc/pid/maps`) and calls [`ContextMetadata::rebased`]
//! to translate the whole table — BASTION is relative-addressing based and
//! fully ASLR-compatible (paper §9.2).

use bastion_analysis::{CallTypeClass, SyscallFlow};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How a callsite invokes its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallsiteKind {
    /// Direct call; the target's entry address.
    Direct(u64),
    /// Indirect call through a code pointer.
    Indirect,
}

/// One call instruction in the protected binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallsiteMeta {
    /// Direct/indirect and target.
    pub kind: CallsiteKind,
    /// Entry address of the function containing the callsite.
    pub in_func: u64,
    /// Number of arguments passed.
    pub argc: u8,
}

/// Per-function geometry the monitor needs to interpret stack frames
/// (the DWARF analogue).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuncMeta {
    /// Entry address.
    pub entry: u64,
    /// One past the last instruction address.
    pub end: u64,
    /// Symbol name.
    pub name: String,
    /// Slot-area size in bytes.
    pub frame_size: u64,
    /// Slot offsets (parameters first).
    pub slot_offsets: Vec<u64>,
    /// Number of parameters.
    pub param_count: u8,
    /// Syscall number if this is a libc stub.
    pub stub_nr: Option<u32>,
    /// Whether the function's address is taken (may be an indirect target).
    pub address_taken: bool,
}

/// Verification spec for one argument position (compiler §6.3.4: "argument
/// types — constant vs. memory-backed").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArgMeta {
    /// Statically-known constant; compare directly.
    Const(i64),
    /// Memory-backed; a runtime binding in shadow memory names the variable.
    Mem,
    /// The address of a named global object (the monitor resolves the
    /// symbol against the loaded image); for extended arguments the
    /// expected pointee bytes are embedded too.
    Global {
        /// Symbol name of the global.
        name: String,
        /// Expected initial pointee bytes (extended args on constant data).
        expected: Option<Vec<u8>>,
    },
    /// A stack address; only plausibility is checkable.
    StackAddr,
    /// Unverifiable position.
    Opaque,
}

/// A sensitive syscall callsite entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyscallSiteMeta {
    /// Syscall number invoked here.
    pub nr: u32,
    /// Spec per argument position (index 0 = position 1).
    pub args: Vec<ArgMeta>,
}

/// Instrumentation statistics — the rows of Table 5.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrStats {
    /// Total application callsites.
    pub total_callsites: usize,
    /// Direct callsites.
    pub direct_callsites: usize,
    /// Indirect callsites.
    pub indirect_callsites: usize,
    /// Sensitive system call callsites.
    pub sensitive_callsites: usize,
    /// Sensitive syscalls callable indirectly.
    pub sensitive_indirect: usize,
    /// `ctx_write_mem` instrumentation points.
    pub ctx_write_mem: usize,
    /// `ctx_bind_mem_X` instrumentation points.
    pub ctx_bind_mem: usize,
    /// `ctx_bind_const_X` instrumentation points.
    pub ctx_bind_const: usize,
}

impl InstrStats {
    /// Total instrumentation sites (Table 5 last row).
    pub fn total_instrumentation(&self) -> usize {
        self.ctx_write_mem + self.ctx_bind_mem + self.ctx_bind_const
    }
}

/// The complete metadata bundle the compiler hands the monitor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ContextMetadata {
    /// Protected module name.
    pub module_name: String,
    /// Code base the addresses below are relative to.
    pub link_base: u64,
    /// The sensitive syscall set this metadata was built for.
    pub sensitive_nrs: BTreeSet<u32>,
    /// Call-type class per syscall number present in the image.
    pub syscall_classes: BTreeMap<u32, CallTypeClass>,
    /// Every callsite in the binary.
    pub callsites: BTreeMap<u64, CallsiteMeta>,
    /// Control-flow context: callee entry → valid caller callsites.
    pub valid_callers: BTreeMap<u64, BTreeSet<u64>>,
    /// Functions at which a stack walk may legitimately terminate
    /// (address-taken functions inside the reaching subgraph).
    pub indirect_entries: BTreeSet<u64>,
    /// Entry of `main` (the other legitimate walk terminator).
    pub main_entry: u64,
    /// Function table (by entry address).
    pub functions: BTreeMap<u64, FuncMeta>,
    /// Sensitive syscall callsites with argument specs.
    pub syscall_sites: BTreeMap<u64, SyscallSiteMeta>,
    /// Non-syscall callsites passing sensitive arguments:
    /// callsite → (position, spec) pairs.
    pub prop_sites: BTreeMap<u64, Vec<(u8, ArgMeta)>>,
    /// Main-rooted syscall-flow automaton over the sensitive alphabet
    /// (initial nrs + ordered adjacency edges); nr-based, so rebasing is
    /// the identity. Empty only when the analysis finds no feasible
    /// sensitive trap; an empty automaton permits no trap at tier 1.
    pub syscall_flow: SyscallFlow,
    /// Table 5 statistics.
    pub stats: InstrStats,
}

impl ContextMetadata {
    /// The function containing `addr`, if any.
    pub fn func_of(&self, addr: u64) -> Option<&FuncMeta> {
        let (_, f) = self.functions.range(..=addr).next_back()?;
        (addr < f.end).then_some(f)
    }

    /// Translates every address by `delta` (runtime base − link base).
    pub fn rebased(&self, delta: i64) -> ContextMetadata {
        let r = |a: u64| a.wrapping_add(delta as u64);
        ContextMetadata {
            module_name: self.module_name.clone(),
            link_base: r(self.link_base),
            sensitive_nrs: self.sensitive_nrs.clone(),
            syscall_classes: self.syscall_classes.clone(),
            callsites: self
                .callsites
                .iter()
                .map(|(&a, m)| {
                    (
                        r(a),
                        CallsiteMeta {
                            kind: match m.kind {
                                CallsiteKind::Direct(t) => CallsiteKind::Direct(r(t)),
                                CallsiteKind::Indirect => CallsiteKind::Indirect,
                            },
                            in_func: r(m.in_func),
                            argc: m.argc,
                        },
                    )
                })
                .collect(),
            valid_callers: self
                .valid_callers
                .iter()
                .map(|(&callee, sites)| (r(callee), sites.iter().map(|&s| r(s)).collect()))
                .collect(),
            indirect_entries: self.indirect_entries.iter().map(|&a| r(a)).collect(),
            main_entry: r(self.main_entry),
            functions: self
                .functions
                .iter()
                .map(|(&e, f)| {
                    (
                        r(e),
                        FuncMeta {
                            entry: r(f.entry),
                            end: r(f.end),
                            ..f.clone()
                        },
                    )
                })
                .collect(),
            syscall_sites: self
                .syscall_sites
                .iter()
                .map(|(&a, s)| (r(a), rebase_site(s, delta)))
                .collect(),
            prop_sites: self
                .prop_sites
                .iter()
                .map(|(&a, v)| {
                    (
                        r(a),
                        v.iter().map(|(p, m)| (*p, rebase_arg(m, delta))).collect(),
                    )
                })
                .collect(),
            syscall_flow: self.syscall_flow.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Serializes to JSON (the "metadata file" shipped with the binary).
    ///
    /// # Errors
    /// Propagates serializer errors (practically infallible).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a metadata file.
    ///
    /// # Errors
    /// Fails on malformed JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

fn rebase_arg(m: &ArgMeta, _delta: i64) -> ArgMeta {
    // Symbol-named globals need no rebasing; constants are position-free.
    m.clone()
}

fn rebase_site(s: &SyscallSiteMeta, delta: i64) -> SyscallSiteMeta {
    SyscallSiteMeta {
        nr: s.nr,
        args: s.args.iter().map(|a| rebase_arg(a, delta)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ContextMetadata {
        let mut functions = BTreeMap::new();
        functions.insert(
            0x40_0000,
            FuncMeta {
                entry: 0x40_0000,
                end: 0x40_0040,
                name: "main".into(),
                frame_size: 16,
                slot_offsets: vec![0, 8],
                param_count: 0,
                stub_nr: None,
                address_taken: false,
            },
        );
        let mut syscall_sites = BTreeMap::new();
        syscall_sites.insert(
            0x40_0010,
            SyscallSiteMeta {
                nr: 59,
                args: vec![
                    ArgMeta::Global {
                        name: "upgrade_path".into(),
                        expected: Some(b"/bin/upgrade\0".to_vec()),
                    },
                    ArgMeta::Const(0),
                ],
            },
        );
        ContextMetadata {
            module_name: "t".into(),
            link_base: 0x40_0000,
            sensitive_nrs: [59].into(),
            syscall_classes: [(59, CallTypeClass::DirectOnly)].into(),
            callsites: BTreeMap::new(),
            valid_callers: BTreeMap::new(),
            indirect_entries: BTreeSet::new(),
            main_entry: 0x40_0000,
            functions,
            syscall_sites,
            prop_sites: BTreeMap::new(),
            syscall_flow: SyscallFlow::default(),
            stats: InstrStats::default(),
        }
    }

    #[test]
    fn func_of_range_lookup() {
        let m = tiny();
        assert_eq!(m.func_of(0x40_0000).unwrap().name, "main");
        assert_eq!(m.func_of(0x40_003c).unwrap().name, "main");
        assert!(m.func_of(0x40_0040).is_none());
        assert!(m.func_of(0x3f_ffff).is_none());
    }

    #[test]
    fn rebase_translates_everything() {
        let m = tiny().rebased(0x1000);
        assert_eq!(m.main_entry, 0x40_1000);
        assert!(m.functions.contains_key(&0x40_1000));
        let site = &m.syscall_sites[&0x40_1010];
        match &site.args[0] {
            ArgMeta::Global { name, expected } => {
                assert_eq!(name, "upgrade_path");
                assert!(expected.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Constants are untouched.
        assert_eq!(site.args[1], ArgMeta::Const(0));
    }

    #[test]
    fn json_roundtrip() {
        let m = tiny();
        let s = m.to_json().unwrap();
        let back = ContextMetadata::from_json(&s).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn stats_total() {
        let s = InstrStats {
            ctx_write_mem: 10,
            ctx_bind_mem: 4,
            ctx_bind_const: 3,
            ..InstrStats::default()
        };
        assert_eq!(s.total_instrumentation(), 17);
    }
}
