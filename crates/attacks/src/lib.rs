//! # bastion-attacks
//!
//! The security-evaluation half of the reproduction (paper §10, Table 6):
//! 32 real-world and synthesized exploits — ROP payloads, CVE-shaped
//! memory-corruption attacks, and the advanced NEWTON / AOCR / COOP /
//! Control Jujutsu strategies — implemented as executable payloads against
//! the workload applications (plus an Apache-shaped victim).
//!
//! Each attack is evaluated four ways:
//!
//! 1. **unprotected** — the ground-truth run must *succeed* (the exploit
//!    is real, not a strawman);
//! 2. **CT-only / CF-only / AI-only** — which single context blocks it,
//!    reproducing Table 6's ✓/× matrix;
//! 3. **full BASTION** — all three contexts together must block it.
//!
//! Victims, generated programs and workloads all boot through
//! [`Deployment`], the one compile → load → spawn → protect → boot path.
//!
//! ```no_run
//! let results = bastion_attacks::table6::evaluate_all();
//! println!("{}", bastion_attacks::table6::render(&results));
//! assert!(results.iter().all(|r| r.matches_paper()));
//! ```

pub mod catalog;
pub mod deploy;
pub mod env;
pub mod generate;
pub mod scenario;
pub mod table6;
pub mod victim;

pub use catalog::catalog;
pub use deploy::{Deployment, Error, Protection};
pub use env::{AttackEnv, Defense, RunOutcome};
pub use generate::{AttackProgram, GenReport, Generator, Verdict};
pub use scenario::{Category, Expected, Scenario};
pub use table6::{evaluate, evaluate_all, render, ScenarioResult};
pub use victim::Victim;
