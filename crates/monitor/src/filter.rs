//! seccomp filter construction from call-type metadata (paper §7.1).
//!
//! This is the **authoritative default-action policy** (the mechanism in
//! `kernel/src/seccomp.rs` is caller-agnostic): the filter is built with
//! a fail-closed `Kill` default, and every `Allow` is an explicit
//! per-number rule —
//!
//! * syscalls absent from the CT table, plus present-but-not-callable
//!   ones → `SECCOMP_RET_KILL` (the default; no rule needed);
//! * callable **sensitive** syscalls → `SECCOMP_RET_TRACE` (monitor
//!   verifies the three contexts), or the prefiltered variant when a
//!   tier-1 check program is installed (DESIGN.md §6g);
//! * callable non-sensitive syscalls → `SECCOMP_RET_ALLOW`.

use bastion_compiler::ContextMetadata;
use bastion_kernel::{SeccompAction, SeccompFilter};

/// Builds the per-application filter from metadata.
///
/// `trace = false` produces the paper's Table 7 row-1 configuration
/// ("seccomp hook only"): not-callable syscalls are still killed, but
/// callable sensitive syscalls run without stopping for the monitor —
/// isolating the pure BPF-evaluation cost.
///
/// `prefilter = true` marks traced syscalls for tier-1 prefiltering: the
/// world then evaluates the attached tracer's compiled check program at
/// classify time and only stops the process on escalation. The allow/kill
/// structure is identical either way — the prefilter only changes *how* a
/// trace verdict is served.
pub fn build_filter_with_mode(md: &ContextMetadata, trace: bool, prefilter: bool) -> SeccompFilter {
    let mut f = SeccompFilter::new(SeccompAction::Kill);
    let trap = if prefilter {
        SeccompAction::TracePrefiltered
    } else {
        SeccompAction::Trace
    };
    for (&nr, class) in &md.syscall_classes {
        if !class.callable() {
            continue; // stays at the Kill default
        }
        if trace && md.sensitive_nrs.contains(&nr) {
            f.set(nr, trap);
        } else {
            f.set(nr, SeccompAction::Allow);
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_compiler::BastionCompiler;
    use bastion_ir::build::ModuleBuilder;
    use bastion_ir::{sysno, Operand, Ty};

    fn metadata() -> ContextMetadata {
        let mut mb = ModuleBuilder::new("t");
        let execve = mb.declare_syscall_stub("execve", sysno::EXECVE, 3);
        let write = mb.declare_syscall_stub("write", sysno::WRITE, 3);
        let _mprotect = mb.declare_syscall_stub("mprotect", sysno::MPROTECT, 3);
        let mut f = mb.function("main", &[], Ty::I64);
        let z = Operand::Imm(0);
        let _ = f.call_direct(execve, &[z, z, z]);
        let _ = f.call_direct(write, &[z, z, z]);
        f.ret(Some(z));
        f.finish();
        BastionCompiler::new()
            .compile(mb.finish())
            .expect("three-stub filter fixture compiles")
            .metadata
    }

    #[test]
    fn filter_actions_follow_call_type_classes() {
        let f = build_filter_with_mode(&metadata(), true, false);
        // Used sensitive syscall → trace.
        assert_eq!(f.eval(sysno::EXECVE), SeccompAction::Trace);
        // Used non-sensitive syscall → allow.
        assert_eq!(f.eval(sysno::WRITE), SeccompAction::Allow);
        // Present-but-unused stub → not-callable → kill.
        assert_eq!(f.eval(sysno::MPROTECT), SeccompAction::Kill);
        // Absent syscall → kill by default.
        assert_eq!(f.eval(sysno::PTRACE), SeccompAction::Kill);
        assert_eq!(f.eval(sysno::SETUID), SeccompAction::Kill);
    }

    #[test]
    fn prefiltered_filter_only_swaps_the_trace_action() {
        // The prefilter must not change the allow/kill surface: syscalls
        // the CT table never heard of die at the fail-closed Kill default
        // in both modes, and non-sensitive allows stay explicit rules.
        let md = metadata();
        let plain = build_filter_with_mode(&md, true, false);
        let pre = build_filter_with_mode(&md, true, true);
        assert_eq!(pre.eval(sysno::EXECVE), SeccompAction::TracePrefiltered);
        assert_eq!(plain.eval(sysno::EXECVE), SeccompAction::Trace);
        for nr in [
            sysno::WRITE,
            sysno::MPROTECT,
            sysno::PTRACE,
            sysno::SETUID,
            0xFFFF,
        ] {
            assert_eq!(pre.eval(nr), plain.eval(nr), "nr {nr} diverged");
        }
        assert_eq!(
            pre.eval(0xFFFF),
            SeccompAction::Kill,
            "absent nr fails closed"
        );
        assert_eq!(pre.rule_count(), plain.rule_count());
    }
}
