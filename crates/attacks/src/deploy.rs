//! The one boot path: compile → load → spawn → protect → boot.
//!
//! Every production run of a program under a defense configuration goes
//! through [`Deployment`]: build it, make a world with
//! [`Deployment::world`], run the caller's VFS set-up on that world, then
//! [`Deployment::boot`] it under a [`Protection`]. The budget stays the
//! caller's: an idle world advances its clock to the next sleeper, so the
//! budget is part of the result.

use bastion_compiler::{BastionCompiler, ContextMetadata};
use bastion_defenses::HardeningConfig;
use bastion_kernel::{Pid, RunStatus, World};
use bastion_monitor::ContextConfig;
use bastion_vm::{CostModel, Image, Machine};
use std::fmt;
use std::sync::Arc;

/// A complete defense configuration for one run — the x-axis of Figure 3
/// and Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protection {
    /// Short label as printed in the paper's figures.
    pub label: &'static str,
    /// Baseline hardware/software mitigations.
    pub hardening: HardeningConfig,
    /// BASTION monitor configuration, if attached.
    pub monitor: Option<ContextConfig>,
}

impl Protection {
    /// Unprotected vanilla baseline.
    pub fn vanilla() -> Self {
        Protection {
            label: "Vanilla",
            hardening: HardeningConfig::vanilla(),
            monitor: None,
        }
    }

    /// LLVM CFI alone (coarse forward-edge CFI).
    pub fn llvm_cfi() -> Self {
        Protection {
            label: "LLVM CFI",
            hardening: HardeningConfig::llvm_cfi(),
            monitor: None,
        }
    }

    /// CET alone (hardware shadow stack).
    pub fn cet() -> Self {
        Protection {
            label: "CET",
            hardening: HardeningConfig::cet(),
            monitor: None,
        }
    }

    /// CET + Call-Type context.
    pub fn cet_ct() -> Self {
        Protection {
            label: "CET+CT",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::ct()),
        }
    }

    /// CET + Call-Type + Control-Flow contexts.
    pub fn cet_ct_cf() -> Self {
        Protection {
            label: "CET+CT+CF",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::ct_cf()),
        }
    }

    /// Full BASTION: CET + all three contexts.
    pub fn full() -> Self {
        Protection {
            label: "CET+CT+CF+AI",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::full()),
        }
    }

    /// BASTION without CET (for the §10.1 "older processors" discussion).
    pub fn bastion_no_cet() -> Self {
        Protection {
            label: "BASTION (no CET)",
            hardening: HardeningConfig::vanilla(),
            monitor: Some(ContextConfig::full()),
        }
    }

    /// Table 7 row 1: seccomp hook only.
    pub fn hook_only() -> Self {
        Protection {
            label: "seccomp hook only",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::hook_only()),
        }
    }

    /// Table 7 row 2: hook + fetch process state, no verification.
    pub fn fetch_state() -> Self {
        Protection {
            label: "fetch process state",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::fetch_state()),
        }
    }

    /// The Figure 3 column set, in paper order.
    pub fn figure3() -> [Protection; 5] {
        [
            Protection::llvm_cfi(),
            Protection::cet(),
            Protection::cet_ct(),
            Protection::cet_ct_cf(),
            Protection::full(),
        ]
    }

    /// The Table 7 row set, in paper order.
    ///
    /// Table 7 decomposes the *ptrace* monitor's trap cost (§11.2: hook →
    /// state fetch → full verification), so its full row runs with the
    /// tier-1 prefilter disabled — the prefilter's stop-free clean path
    /// would hide exactly the state-fetch increment the table measures.
    pub fn table7() -> [Protection; 3] {
        let mut full = Protection::full();
        full.monitor = Some(ContextConfig::full().with_prefilter(false));
        [Protection::hook_only(), Protection::fetch_state(), full]
    }

    /// Extended-scope two-tier companion to Table 7 (§11.2): the same
    /// filesystem-extended sensitive set, full verification, with the
    /// tier-1/tier-2 split **on**. Table 7 itself stays ptrace-only —
    /// this row is the counterpart showing what the prefilter buys once
    /// the sensitive surface grows.
    pub fn extended_two_tier() -> Self {
        Protection {
            label: "extended two-tier",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::full()),
        }
    }

    /// Extended-scope tier-2-only baseline: identical verification to
    /// [`Protection::extended_two_tier`] with the prefilter off — the
    /// denominator of the §11.2 two-tier speedup.
    pub fn extended_tier2_only() -> Self {
        Protection {
            label: "extended tier-2 only",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::full().with_prefilter(false)),
        }
    }

    /// Whether a BASTION monitor is attached.
    pub fn has_monitor(&self) -> bool {
        self.monitor.is_some()
    }
}

/// Any pipeline error.
#[derive(Debug)]
pub enum Error {
    /// MiniC front-end failure.
    Front(bastion_minic::FrontError),
    /// IR validation failure.
    Validate(bastion_ir::ValidateError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Front(e) => write!(f, "front-end: {e}"),
            Error::Validate(e) => write!(f, "validation: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<bastion_minic::FrontError> for Error {
    fn from(e: bastion_minic::FrontError) -> Self {
        Error::Front(e)
    }
}

impl From<bastion_ir::ValidateError> for Error {
    fn from(e: bastion_ir::ValidateError) -> Self {
        Error::Validate(e)
    }
}

/// A program compiled under BASTION and ready to launch.
///
/// Holds both the instrumented image and the context metadata; launching
/// installs the seccomp filter and attaches the runtime monitor according
/// to the chosen [`Protection`]. A caller that needs a different image
/// (an ASLR slide, or the uninstrumented baseline binary) builds the
/// struct literally; launching with no monitor never reads `metadata`.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The loaded (instrumented) program image.
    pub image: Arc<Image>,
    /// The compiler-generated context metadata.
    pub metadata: ContextMetadata,
    /// Cost model used for machines and worlds.
    pub cost: CostModel,
}

impl Deployment {
    /// Compiles MiniC sources (libc prelude included) under the default
    /// sensitive set.
    ///
    /// # Errors
    /// Propagates front-end and validation errors.
    pub fn from_minic(name: &str, sources: &[&str]) -> Result<Self, Error> {
        let module = bastion_minic::compile_program(name, sources)?;
        Self::from_module(module)
    }

    /// Compiles an IR module under the default sensitive set.
    ///
    /// # Errors
    /// Propagates validation errors.
    pub fn from_module(module: bastion_ir::Module) -> Result<Self, Error> {
        Self::with_compiler(module, &BastionCompiler::new())
    }

    /// Compiles with an explicit compiler configuration (e.g. the Table 7
    /// extended sensitive set).
    ///
    /// # Errors
    /// Propagates validation errors.
    pub fn with_compiler(
        module: bastion_ir::Module,
        compiler: &BastionCompiler,
    ) -> Result<Self, Error> {
        let out = compiler.compile(module)?;
        let image = Arc::new(Image::load(out.module)?);
        Ok(Deployment {
            image,
            metadata: out.metadata,
            cost: CostModel::default(),
        })
    }

    /// Overrides the cost model (e.g. the §11.2 in-kernel monitor ablation).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// A fresh world with this deployment's cost model.
    pub fn world(&self) -> World {
        World::new(self.cost)
    }

    /// Spawns the program in `world` with the given protection: applies
    /// CET / LLVM-CFI hardening to the machine, and (when configured)
    /// installs the BASTION seccomp filter and monitor.
    pub fn launch(&self, world: &mut World, protection: &Protection) -> Pid {
        let mut machine = Machine::new(self.image.clone(), self.cost);
        protection.hardening.apply(&mut machine);
        let pid = world.spawn(machine);
        if let Some(cfg) = protection.monitor {
            bastion_monitor::protect(world, pid, &self.image, &self.metadata, cfg);
        }
        pid
    }

    /// [`Deployment::launch`]es the program, then runs `world` for at
    /// most `budget` cycles (servers park in `accept`, short programs
    /// exit). Returns the program's pid and how the run stopped.
    pub fn boot(
        &self,
        world: &mut World,
        protection: &Protection,
        budget: u64,
    ) -> (Pid, RunStatus) {
        let pid = self.launch(world, protection);
        (pid, world.run(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_kernel::ExitReason;

    #[test]
    fn deployment_pipeline_end_to_end() {
        let d = Deployment::from_minic("t", &["long main() { return getpid(); }"]).unwrap();
        let mut world = d.world();
        let (pid, status) = d.boot(&mut world, &Protection::full(), 10_000_000);
        assert_eq!(status, RunStatus::AllExited);
        // getpid is not sensitive: allowed without a trap.
        assert_eq!(world.trap_count, 0);
        let p = world.proc(pid).unwrap();
        assert_eq!(p.exit, Some(ExitReason::Exited(1)));
    }

    #[test]
    fn two_unit_program_with_literals_in_both_lands_its_exec() {
        // Each unit interns a string literal; the monitor knows globals by
        // name, so the exec's path must not share its name with `main`'s.
        let a = r#"long run_ok() { return execve("/bin/ok", 0, 0); }"#;
        let b = r#"long main() { puts("go\n"); return run_ok(); }"#;
        let d = Deployment::from_minic("two-units", &[a, b]).unwrap();
        let mut world = d.world();
        world.kernel.vfs.put_file("/bin/ok", Vec::new(), 0o755);
        let (pid, status) = d.boot(&mut world, &Protection::full(), 10_000_000);
        assert_eq!(status, RunStatus::AllExited);
        assert_eq!(world.proc(pid).unwrap().exit, Some(ExitReason::Exited(0)));
        assert_eq!(world.kernel.exec_log.len(), 1);
        assert_eq!(world.kernel.exec_log[0].1, "/bin/ok");
        assert_eq!(world.kernel.console, b"go\n");
    }

    #[test]
    fn vanilla_launch_has_no_monitor() {
        let d = Deployment::from_minic("t", &["long main() { return 0; }"]).unwrap();
        let mut world = d.world();
        let (pid, _) = d.boot(&mut world, &Protection::vanilla(), 10_000_000);
        assert!(world.proc(pid).unwrap().seccomp.is_none());
    }

    #[test]
    fn sensitive_syscall_traps_under_full_protection() {
        let d = Deployment::from_minic("t", &["long main() { return socket(2, 1, 0); }"]).unwrap();
        let mut world = d.world();
        let (pid, _) = d.boot(&mut world, &Protection::full(), 10_000_000);
        assert_eq!(world.trap_count, 1);
        let p = world.proc(pid).unwrap();
        assert!(matches!(p.exit, Some(ExitReason::Exited(_))));
    }

    #[test]
    fn figure3_order_matches_paper() {
        let cols = Protection::figure3();
        assert_eq!(cols[0].label, "LLVM CFI");
        assert_eq!(cols[4].label, "CET+CT+CF+AI");
        assert!(!cols[0].has_monitor());
        assert!(cols[2].has_monitor());
        // All BASTION columns layer on CET, per the paper.
        for c in &cols[2..] {
            assert!(c.hardening.cet);
            assert!(!c.hardening.llvm_cfi);
        }
    }

    #[test]
    fn table7_rows_escalate() {
        let rows = Protection::table7();
        assert!(!rows[0].monitor.unwrap().fetch_state);
        assert!(rows[1].monitor.unwrap().fetch_state);
        assert!(!rows[1].monitor.unwrap().verifies());
        assert!(rows[2].monitor.unwrap().verifies());
        // Table 7 decomposes ptrace costs: its full row must stay
        // prefilter-free even now that an extended two-tier preset exists.
        assert!(!rows[2].monitor.unwrap().prefilter);
    }

    #[test]
    fn extended_scope_pair_differs_only_in_prefilter() {
        let two_tier = Protection::extended_two_tier().monitor.unwrap();
        let t2 = Protection::extended_tier2_only().monitor.unwrap();
        assert!(two_tier.prefilter);
        assert!(!t2.prefilter);
        assert_eq!(
            ContextConfig {
                prefilter: false,
                ..two_tier
            },
            t2
        );
    }
}
