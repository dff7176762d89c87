//! Syscall-flow automaton (SFIP-style edge-precise ordering).
//!
//! Computes, over the *sensitive* syscall alphabet, which syscall numbers
//! can be the **first** sensitive trap of a `main`-rooted execution and
//! which ordered **pairs** `(a, b)` can appear as consecutive sensitive
//! traps. The tier-1 prefilter evaluates the result as a per-pid state
//! machine: any trap whose transition is not in the table escalates to
//! the full monitor (never denies), so over-approximation here only
//! trades escalations — soundness requires covering every *feasible*
//! clean-path sequence, which the analysis guarantees by unioning over
//! all branches, fixpointing over loops and recursion, and fanning
//! indirect calls out to every address-taken function.
//!
//! The analysis is a standard interprocedural summary fixpoint: each
//! function gets a [`FlowSummary`] — the sensitive nrs its execution can
//! emit first, the nrs it can emit last, and whether it can complete
//! without emitting any (`eps`) — and each basic block is a sequence of
//! callee-summary "events" folded left to right. Internal consecutive
//! pairs are accumulated globally into the edge set.

use crate::callgraph::CallGraph;
use bastion_ir::module::FuncKind;
use bastion_ir::{Callee, Inst, Module, Terminator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The main-rooted syscall-flow automaton over the sensitive alphabet.
///
/// Serialized into the compiler's context metadata; an empty value (the
/// `Default`) permits no trap, so the tier-1 prefilter escalates every one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SyscallFlow {
    /// Sensitive nrs that can be the first trap of a `main` execution.
    pub initial: BTreeSet<u32>,
    /// Ordered pairs `(a, b)`: trap `b` can immediately follow trap `a`.
    pub edges: BTreeSet<(u32, u32)>,
}

/// Per-function summary: first/last emittable sensitive nrs plus whether
/// the function can run to completion emitting nothing.
#[derive(Debug, Clone, Default, PartialEq)]
struct FlowSummary {
    first: BTreeSet<u32>,
    last: BTreeSet<u32>,
    eps: bool,
}

/// Block dataflow state: the set of nrs that may have been emitted last
/// so far, plus whether "nothing emitted yet" is still possible (`bot`).
#[derive(Debug, Clone, PartialEq)]
struct BlockState {
    last: BTreeSet<u32>,
    bot: bool,
}

impl BlockState {
    fn entry() -> Self {
        BlockState {
            last: BTreeSet::new(),
            bot: true,
        }
    }

    fn join(&mut self, other: &BlockState) -> bool {
        let before = (self.last.len(), self.bot);
        self.last.extend(other.last.iter().copied());
        self.bot |= other.bot;
        (self.last.len(), self.bot) != before
    }
}

/// Computes the syscall-flow automaton of `module`, rooted at `main`.
///
/// `sensitive` is the alphabet: only these nrs appear in the result.
/// Run this on the **pre-instrumentation** module — the BASTION pass
/// only inserts straight-line intrinsics, so call structure (and thus
/// flow) is identical either way, but the pre-pass module is smaller.
pub fn analyze(module: &Module, cg: &CallGraph, sensitive: &BTreeSet<u32>) -> SyscallFlow {
    let nfuncs = module.functions.len();
    let mut summaries: Vec<FlowSummary> = vec![FlowSummary::default(); nfuncs];
    let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();

    // Syscall stubs have a fixed summary; everything else starts at
    // bottom (∅/∅/eps=false) so recursion converges to the least
    // fixpoint from below.
    for (fid, f) in module.iter_funcs() {
        match f.kind {
            FuncKind::SyscallStub(nr) if sensitive.contains(&nr) => {
                let s = &mut summaries[fid.index()];
                s.first.insert(nr);
                s.last.insert(nr);
                s.eps = false;
            }
            FuncKind::SyscallStub(_) => summaries[fid.index()].eps = true,
            FuncKind::Normal => {}
        }
    }

    // The event emitted by calling `callee`: the union of possible
    // target summaries for indirect calls (every address-taken
    // function), the target's summary for direct calls.
    let callee_event = |summaries: &[FlowSummary], callee: &Callee| -> FlowSummary {
        match callee {
            Callee::Direct(t) => summaries[t.index()].clone(),
            Callee::Indirect(_) => {
                let mut ev = FlowSummary::default();
                for &t in &cg.address_taken {
                    let s = &summaries[t.index()];
                    ev.first.extend(s.first.iter().copied());
                    ev.last.extend(s.last.iter().copied());
                    ev.eps |= s.eps;
                }
                if cg.address_taken.is_empty() {
                    ev.eps = true;
                }
                ev
            }
        }
    };

    // Module-level fixpoint: recompute every defined function's summary
    // (and the global edge set) until nothing changes. Monotone in both,
    // so termination is bounded by |sensitive|² + |funcs|·|sensitive|.
    loop {
        let mut changed = false;
        for (fid, f) in module.iter_funcs() {
            if f.kind != FuncKind::Normal {
                continue;
            }
            if f.blocks.is_empty() {
                // Declared-only function: treat as emitting nothing.
                if !summaries[fid.index()].eps {
                    summaries[fid.index()].eps = true;
                    changed = true;
                }
                continue;
            }
            let mut new = FlowSummary {
                first: summaries[fid.index()].first.clone(),
                last: BTreeSet::new(),
                eps: false,
            };
            // Per-block dataflow over the CFG, iterated locally to a
            // fixpoint (loops feed block entry states back around).
            let mut states: Vec<Option<BlockState>> = vec![None; f.blocks.len()];
            states[0] = Some(BlockState::entry());
            let mut exit: Option<BlockState> = None;
            loop {
                let mut local_changed = false;
                for (bid, b) in f.iter_blocks() {
                    let Some(mut st) = states[bid.index()].clone() else {
                        continue;
                    };
                    for inst in &b.insts {
                        let ev = match inst {
                            Inst::Call { callee, .. } => callee_event(&summaries, callee),
                            _ => continue,
                        };
                        if ev.first.is_empty() && ev.last.is_empty() {
                            // Pure-eps event: no emission possible.
                            continue;
                        }
                        for &nf in &ev.first {
                            if st.bot && new.first.insert(nf) {
                                changed = true;
                            }
                            for &l in &st.last {
                                if edges.insert((l, nf)) {
                                    changed = true;
                                }
                            }
                        }
                        if ev.eps {
                            st.last.extend(ev.last.iter().copied());
                        } else {
                            st.last = ev.last.clone();
                            st.bot = false;
                        }
                    }
                    match &b.term {
                        Terminator::Ret(_) => match &mut exit {
                            Some(e) => local_changed |= e.join(&st),
                            None => {
                                exit = Some(st.clone());
                                local_changed = true;
                            }
                        },
                        t => {
                            for succ in t.successors() {
                                match &mut states[succ.index()] {
                                    Some(e) => local_changed |= e.join(&st),
                                    slot @ None => {
                                        *slot = Some(st.clone());
                                        local_changed = true;
                                    }
                                }
                            }
                        }
                    }
                }
                if !local_changed {
                    break;
                }
            }
            if let Some(exit) = exit {
                new.last = exit.last;
                new.eps = exit.bot;
            }
            if summaries[fid.index()] != new {
                summaries[fid.index()] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let initial = module
        .func_by_name("main")
        .map(|m| summaries[m.index()].first.clone())
        .unwrap_or_default();
    SyscallFlow { initial, edges }
}

/// Convenience: analyze with a fresh call graph.
pub fn analyze_module(module: &Module, sensitive: &BTreeSet<u32>) -> SyscallFlow {
    analyze(module, &CallGraph::build(module), sensitive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::{sysno, Operand, Ty};

    fn sensitive() -> BTreeSet<u32> {
        sysno::sensitive_set()
    }

    /// main calls mmap then execve: initial = {mmap}, one edge.
    #[test]
    fn straight_line_sequence() {
        let mut mb = ModuleBuilder::new("t");
        let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
        let mut f = mb.function("main", &[], Ty::I64);
        let _ = f.call_direct(mmap, &[0i64.into(); 6]);
        let _ = f.call_direct(execve, &[0i64.into(); 3]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let flow = analyze_module(&mb.finish(), &sensitive());
        assert_eq!(flow.initial, BTreeSet::from([sysno::MMAP]));
        assert_eq!(flow.edges, BTreeSet::from([(sysno::MMAP, sysno::EXECVE)]));
    }

    /// A branch makes both orders' first-traps initial, but only taken
    /// orders become edges.
    #[test]
    fn branches_union_but_preserve_order() {
        let mut mb = ModuleBuilder::new("t");
        let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
        let mut f = mb.function("main", &[("c", Ty::I64)], Ty::I64);
        let then_b = f.new_block();
        let else_b = f.new_block();
        let done = f.new_block();
        let ca = f.frame_addr(f.param_slot(0));
        let cv = f.load(ca);
        f.br(cv, then_b, else_b);
        f.switch_to(then_b);
        let _ = f.call_direct(mmap, &[0i64.into(); 6]);
        f.jmp(done);
        f.switch_to(else_b);
        let _ = f.call_direct(execve, &[0i64.into(); 3]);
        f.jmp(done);
        f.switch_to(done);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let flow = analyze_module(&mb.finish(), &sensitive());
        assert_eq!(flow.initial, BTreeSet::from([sysno::MMAP, sysno::EXECVE]));
        // The branches never chain mmap→execve or back.
        assert!(flow.edges.is_empty());
    }

    /// A loop re-entering the same call produces a self-edge.
    #[test]
    fn loops_produce_self_edges() {
        let mut mb = ModuleBuilder::new("t");
        let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let mut f = mb.function("main", &[("n", Ty::I64)], Ty::I64);
        let head = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        f.jmp(head);
        f.switch_to(head);
        let na = f.frame_addr(f.param_slot(0));
        let nv = f.load(na);
        f.br(nv, body, done);
        f.switch_to(body);
        let _ = f.call_direct(mmap, &[0i64.into(); 6]);
        f.jmp(head);
        f.switch_to(done);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let flow = analyze_module(&mb.finish(), &sensitive());
        assert_eq!(flow.initial, BTreeSet::from([sysno::MMAP]));
        assert!(flow.edges.contains(&(sysno::MMAP, sysno::MMAP)));
    }

    /// Flow threads through helper functions via their summaries.
    #[test]
    fn interprocedural_sequencing() {
        let mut mb = ModuleBuilder::new("t");
        let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
        let helper = mb.declare("helper", &[], Ty::Void);
        {
            let mut f = mb.define(helper);
            let _ = f.call_direct(mmap, &[0i64.into(); 6]);
            f.ret(None);
            f.finish();
        }
        let mut f = mb.function("main", &[], Ty::I64);
        let _ = f.call_direct(helper, &[]);
        let _ = f.call_direct(execve, &[0i64.into(); 3]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let flow = analyze_module(&mb.finish(), &sensitive());
        assert_eq!(flow.initial, BTreeSet::from([sysno::MMAP]));
        assert_eq!(flow.edges, BTreeSet::from([(sysno::MMAP, sysno::EXECVE)]));
    }

    /// Non-sensitive stubs are invisible to the automaton: they neither
    /// start sequences nor break adjacency.
    #[test]
    fn non_sensitive_traps_are_transparent() {
        let mut mb = ModuleBuilder::new("t");
        let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let getpid = mb.declare_syscall_stub("getpid", sysno::GETPID, 0);
        let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
        let mut f = mb.function("main", &[], Ty::I64);
        let _ = f.call_direct(getpid, &[]);
        let _ = f.call_direct(mmap, &[0i64.into(); 6]);
        let _ = f.call_direct(getpid, &[]);
        let _ = f.call_direct(execve, &[0i64.into(); 3]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let flow = analyze_module(&mb.finish(), &sensitive());
        assert_eq!(flow.initial, BTreeSet::from([sysno::MMAP]));
        assert_eq!(flow.edges, BTreeSet::from([(sysno::MMAP, sysno::EXECVE)]));
    }

    /// Indirect calls fan out to every address-taken function.
    #[test]
    fn indirect_calls_union_address_taken_targets() {
        let mut mb = ModuleBuilder::new("t");
        let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let handler = mb.declare("handler", &[], Ty::Void);
        {
            let mut f = mb.define(handler);
            let _ = f.call_direct(mmap, &[0i64.into(); 6]);
            f.ret(None);
            f.finish();
        }
        let mut f = mb.function("main", &[], Ty::I64);
        let fp = f.func_addr(handler);
        let _ = f.call_indirect(fp, &[]);
        let _ = f.call_indirect(fp, &[]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let flow = analyze_module(&mb.finish(), &sensitive());
        assert_eq!(flow.initial, BTreeSet::from([sysno::MMAP]));
        assert!(flow.edges.contains(&(sysno::MMAP, sysno::MMAP)));
    }

    /// Recursion converges (least fixpoint from bottom).
    #[test]
    fn recursion_terminates_and_is_sound() {
        let mut mb = ModuleBuilder::new("t");
        let mmap = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let rec = mb.declare("rec", &[("n", Ty::I64)], Ty::Void);
        {
            let mut f = mb.define(rec);
            let stop = f.new_block();
            let go = f.new_block();
            let na = f.frame_addr(f.param_slot(0));
            let nv = f.load(na);
            f.br(nv, go, stop);
            f.switch_to(go);
            let _ = f.call_direct(mmap, &[0i64.into(); 6]);
            let _ = f.call_direct(rec, &[0i64.into()]);
            f.ret(None);
            f.switch_to(stop);
            f.ret(None);
            f.finish();
        }
        let mut f = mb.function("main", &[], Ty::I64);
        let _ = f.call_direct(rec, &[3i64.into()]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let flow = analyze_module(&mb.finish(), &sensitive());
        assert_eq!(flow.initial, BTreeSet::from([sysno::MMAP]));
        assert!(flow.edges.contains(&(sysno::MMAP, sysno::MMAP)));
    }

    /// Modules without main produce the empty automaton.
    #[test]
    fn no_main_is_empty() {
        let mut mb = ModuleBuilder::new("t");
        let _ = mb.declare_syscall_stub("mmap", sysno::MMAP, 6);
        let flow = analyze_module(&mb.finish(), &sensitive());
        assert_eq!(flow, SyscallFlow::default());
    }

    #[test]
    fn serializes_roundtrip() {
        let flow = SyscallFlow {
            initial: BTreeSet::from([1, 2]),
            edges: BTreeSet::from([(1, 2), (2, 2)]),
        };
        let json = serde_json::to_string(&flow).unwrap();
        let back: SyscallFlow = serde_json::from_str(&json).unwrap();
        assert_eq!(flow, back);
    }
}
