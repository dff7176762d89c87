//! Table 6 evaluation: run every attack under each context in isolation
//! and compare the block matrix against the paper's.

use crate::env::{AttackEnv, Defense, RunOutcome};
use crate::scenario::{Expected, Scenario};
use bastion_monitor::ContextConfig;

/// The isolated single-context configurations the matrix is built from.
fn ct_only() -> ContextConfig {
    ContextConfig {
        call_type: true,
        control_flow: false,
        arg_integrity: false,
        fetch_state: false,
        resilience: bastion_monitor::Resilience::default(),
        prefilter: false,
    }
}

fn cf_only() -> ContextConfig {
    ContextConfig {
        call_type: false,
        control_flow: true,
        arg_integrity: false,
        fetch_state: false,
        resilience: bastion_monitor::Resilience::default(),
        prefilter: false,
    }
}

fn ai_only() -> ContextConfig {
    ContextConfig {
        call_type: false,
        control_flow: false,
        arg_integrity: true,
        fetch_state: false,
        resilience: bastion_monitor::Resilience::default(),
        prefilter: false,
    }
}

/// The result of evaluating one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Row id.
    pub id: u32,
    /// Scenario name.
    pub name: String,
    /// Citation markers.
    pub citation: &'static str,
    /// Section.
    pub category: crate::scenario::Category,
    /// Paper's expected verdicts.
    pub expected: Expected,
    /// Observed verdicts (blocked under CT-only / CF-only / AI-only).
    pub observed: Expected,
    /// The unprotected ground-truth run succeeded (the attack is real).
    pub ground_truth: bool,
    /// Whether full BASTION (all three contexts) blocks it.
    pub full_blocked: bool,
    /// Per-config detail strings for diagnostics.
    pub details: Vec<String>,
}

impl ScenarioResult {
    /// Whether observed verdicts match the paper's matrix and the attack
    /// is demonstrably real.
    pub fn matches_paper(&self) -> bool {
        self.ground_truth && self.full_blocked && self.observed == self.expected
    }
}

/// Runs one attack under one configuration.
fn run_one(s: &Scenario, cfg: Option<ContextConfig>) -> RunOutcome {
    let mut env = AttackEnv::deploy(s.victim, cfg, s.extended_set, false);
    (s.attack)(&mut env);
    env.settle();
    RunOutcome {
        defense: env.defense_fired(),
        succeeded: (s.success)(&env),
    }
}

/// Evaluates a scenario: ground truth plus the three-context matrix plus
/// the full-BASTION verdict.
pub fn evaluate(s: &Scenario) -> ScenarioResult {
    let truth = run_one(s, None);
    let mut observed = Expected {
        ct: false,
        cf: false,
        ai: false,
    };
    let mut details = vec![format!(
        "unprotected: defense={:?} succeeded={}",
        truth.defense, truth.succeeded
    )];
    for (label, cfg, slot) in [
        ("CT", ct_only(), 0usize),
        ("CF", cf_only(), 1),
        ("AI", ai_only(), 2),
    ] {
        let out = run_one(s, Some(cfg));
        let blocked = out.blocked();
        match slot {
            0 => observed.ct = blocked,
            1 => observed.cf = blocked,
            _ => observed.ai = blocked,
        }
        details.push(format!(
            "{label}-only: defense={:?} succeeded={} blocked={blocked}",
            out.defense, out.succeeded
        ));
    }
    let full = run_one(s, Some(ContextConfig::full()));
    details.push(format!(
        "full: defense={:?} succeeded={}",
        full.defense, full.succeeded
    ));
    ScenarioResult {
        id: s.id,
        name: s.name.clone(),
        citation: s.citation,
        category: s.category,
        expected: s.expected,
        observed,
        ground_truth: truth.succeeded && truth.defense == Defense::None,
        full_blocked: full.blocked(),
        details,
    }
}

/// Evaluates the entire catalog.
pub fn evaluate_all() -> Vec<ScenarioResult> {
    crate::catalog::catalog().iter().map(evaluate).collect()
}

fn mark(b: bool) -> &'static str {
    if b {
        "OK"
    } else {
        "x "
    }
}

/// Renders the results as a paper-style Table 6.
pub fn render(results: &[ScenarioResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 6: Real-world and synthesized exploits blocked by BASTION"
    );
    let _ = writeln!(
        out,
        "(OK = context blocks the exploit, x = exploit bypasses the context)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<74} {:>3} {:>3} {:>3}   {:>3} {:>3} {:>3}  match",
        "Attack (category & type)", "CT", "CF", "AI", "oCT", "oCF", "oAI"
    );
    let mut last_cat = None;
    for r in results {
        if last_cat != Some(r.category) {
            let _ = writeln!(out, "--- {} ---", r.category.label());
            last_cat = Some(r.category);
        }
        let _ = writeln!(
            out,
            "{:<74} {:>3} {:>3} {:>3}   {:>3} {:>3} {:>3}  {}",
            format!("{} {}", r.name, r.citation),
            mark(r.expected.ct),
            mark(r.expected.cf),
            mark(r.expected.ai),
            mark(r.observed.ct),
            mark(r.observed.cf),
            mark(r.observed.ai),
            if r.matches_paper() { "yes" } else { "NO" },
        );
    }
    let ok = results.iter().filter(|r| r.matches_paper()).count();
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{ok}/{} rows match the paper's matrix; all attacks verified live against unprotected victims.",
        results.len()
    );
    out
}
