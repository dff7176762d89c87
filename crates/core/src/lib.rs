//! # bastion — System Call Integrity
//!
//! A full reproduction of *"Protect the System Call, Protect (Most of) the
//! World with BASTION"* (ASPLOS 2023) as a self-contained Rust library.
//!
//! BASTION enforces the legitimate use of sensitive system calls through
//! three contexts — **Call-Type**, **Control-Flow**, and **Argument
//! Integrity** — implemented as a compiler pass plus a runtime monitor.
//! This crate ties the whole reproduction together:
//!
//! * [`Deployment`] — compile a program (MiniC source or IR) under the
//!   BASTION compiler and boot it, protected, in a simulated world; every
//!   entry point boots through it (defined in [`attacks::deploy`]);
//! * [`Protection`] — the defense configurations of Figure 3 (vanilla,
//!   LLVM CFI, CET, CET+CT, CET+CT+CF, CET+CT+CF+AI) plus the Table 7
//!   extended-scope variants;
//! * [`harness`] — runs the paper's three workload applications under any
//!   protection and reports the paper's metrics;
//! * [`fleet`] — deterministic parallel runner sharding the chaos matrix,
//!   Table 6, and the benchmarks across OS threads with byte-identical
//!   aggregate reports for any worker count;
//! * [`paper`] — every evaluation table and figure of the paper as text,
//!   the one front end behind `bastion paper <name>`;
//! * [`serve`] — `bastiond`, the persistent supervisor multiplexing
//!   hundreds of protected tenant worlds under a round-robin quantum
//!   scheduler with live fleet-level telemetry;
//! * re-exports of every layer (`ir`, `minic`, `analysis`, `compiler`,
//!   `vm`, `kernel`, `monitor`, `defenses`, `apps`, `attacks`).
//!
//! ## Quickstart
//!
//! ```
//! use bastion::{Deployment, Protection};
//!
//! # fn main() -> Result<(), bastion::Error> {
//! let src = r#"
//!     long main() {
//!         long arena;
//!         arena = mmap(0, 4096, 3, 0x21, 0 - 1, 0);
//!         return arena > 0;
//!     }
//! "#;
//! let deployment = Deployment::from_minic("demo", &[src])?;
//! let mut world = deployment.world();
//! let (pid, _status) = deployment.boot(&mut world, &Protection::full(), 10_000_000);
//! let proc = world.proc(pid).unwrap();
//! assert!(matches!(
//!     proc.exit,
//!     Some(bastion::kernel::ExitReason::Exited(1))
//! ));
//! # Ok(())
//! # }
//! ```

pub mod chaos;
pub mod fleet;
pub mod gate;
pub mod harness;
pub mod paper;
pub mod serve;

pub use bastion_attacks::deploy::{Deployment, Error, Protection};
pub use chaos::{
    attack_chaos, attack_chaos_mode, benign_chaos, benign_chaos_suite, AttackChaosReport,
    BenignChaosReport,
};
pub use fleet::{run_ordered, ChaosMatrixOutcome};
pub use gate::{GateCheck, GateReport};
pub use harness::{run_app_benchmark, run_extended_scope_pair, AppBenchmark, WorkloadSize};
pub use serve::{run_serve, serve_with_specs, ServeConfig, ServeReport, ServeRun, TenantKind};

/// Re-export: static analyses.
pub use bastion_analysis as analysis;
/// Re-export: the workload applications.
pub use bastion_apps as apps;
/// Re-export: the attack framework.
pub use bastion_attacks as attacks;
/// Re-export: the BASTION compiler pass.
pub use bastion_compiler as compiler;
/// Re-export: baseline defenses.
pub use bastion_defenses as defenses;
/// Re-export: the IR layer.
pub use bastion_ir as ir;
/// Re-export: the simulated kernel.
pub use bastion_kernel as kernel;
/// Re-export: the MiniC front-end.
pub use bastion_minic as minic;
/// Re-export: the runtime monitor.
pub use bastion_monitor as monitor;
/// Re-export: the telemetry layer (span tracing, metrics, deny audit log).
pub use bastion_obs as obs;
/// Re-export: the process VM.
pub use bastion_vm as vm;
