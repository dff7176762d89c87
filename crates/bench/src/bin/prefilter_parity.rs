//! Prefilter parity smoke test (CI `prefilter-parity` step).
//!
//! Runs each app (webserve/dbkv/ftpd, quick workload) under full
//! protection twice — tier-1 prefilter on (the default) and forced
//! tier-2-only (the CLI's `--no-prefilter`) — renders the
//! verdict-relevant surface of each run to a stats/deny report, and
//! **byte-diffs** the two reports. Any difference in traps, syscall
//! counts, retired steps, violation tallies, the allow/deny log, or a
//! structured deny record is a parity break and exits non-zero. The same
//! pairing runs again under the filesystem-extended sensitive scope
//! (§11.2), so scope growth cannot silently break parity either.
//!
//! Cycle totals are deliberately *excluded* from the report: a tier-1 hit
//! skips the ptrace stop, so time differs by design. Instead the clean
//! -path win is asserted separately: the prefiltered run must spend less
//! monitor time per trap (the ≥2× acceptance bound lives in
//! `tests/prefilter_differential.rs` and EXPERIMENTS.md), and per-app
//! tier-1 hit-rate floors (webserve ≥ 99%, dbkv ≥ 95%, ftpd ≥ 95%) catch
//! escalation-tail regressions.
//!
//! A final run under `ContextConfig::with_differential` re-proves every
//! tier-1 Allow against the full monitor in-process (panics on
//! divergence), so the smoke test also fails if the check program and the
//! monitor ever disagree on a webserve trap.

use bastion::apps::App;
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use bastion::ir::sysno;
use bastion::monitor::ContextConfig;
use bastion::vm::CostModel;
use bastion::Protection;
use std::fmt::Write as _;

fn run(app: App, prot: &Protection, compiler: &BastionCompiler) -> AppBenchmark {
    run_app_benchmark(
        app,
        prot,
        &WorkloadSize::quick(),
        compiler,
        CostModel::default(),
    )
}

/// Renders everything two modes must agree on, byte for byte.
fn verdict_report(b: &AppBenchmark) -> String {
    let stats = b.monitor.as_ref().expect("monitor attached");
    let mut s = String::new();
    let _ = writeln!(s, "app={} protection={}", b.app.id(), b.protection);
    let _ = writeln!(s, "traps={} steps={}", b.traps, b.steps);
    let _ = writeln!(s, "syscall_counts={:?}", b.syscall_counts);
    let _ = writeln!(
        s,
        "violations: ct={} cf={} ai={} fc={} watchdog={}",
        stats.ct_violations,
        stats.cf_violations,
        stats.ai_violations,
        stats.fc_violations,
        stats.watchdog_denies
    );
    let _ = writeln!(s, "ladder rung={}", stats.mode.label());
    s
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// Runs one app with tier 1 on and off under `compiler`, byte-diffs the
/// verdict reports, asserts the tier-1 hit-rate floor and the per-trap
/// win, and returns the prefiltered run's hit rate.
fn parity_pair(app: App, compiler: &BastionCompiler, scope: &str, hit_floor: f64) -> f64 {
    let prot = if scope == "extended" {
        Protection::extended_two_tier()
    } else {
        Protection::full()
    };
    let mut tier2_only = prot;
    tier2_only.monitor = prot.monitor.map(|cfg| cfg.with_prefilter(false));
    let pf = run(app, &prot, compiler);
    let t2 = run(app, &tier2_only, compiler);
    let (pf_stats, t2_stats) = (
        pf.monitor.as_ref().expect("monitor"),
        t2.monitor.as_ref().expect("monitor"),
    );
    if t2_stats.prefilter_checks != 0 {
        fail("--no-prefilter mode still classified traps at tier 1");
    }
    if pf_stats.prefilter_hits == 0 {
        fail(&format!(
            "prefilter never hit on the {} {scope} clean path",
            app.id()
        ));
    }

    let (rep_pf, rep_t2) = (verdict_report(&pf), verdict_report(&t2));
    if rep_pf != rep_t2 {
        eprintln!("--- prefilter on ---\n{rep_pf}");
        eprintln!("--- no-prefilter ---\n{rep_t2}");
        fail(&format!(
            "{} {scope}: verdict reports diverged between tiers",
            app.id()
        ));
    }
    println!(
        "{} {scope}: verdict reports byte-identical ({} traps)",
        app.id(),
        pf.traps
    );
    let rate = pf_stats.prefilter_hit_rate();
    println!(
        "{} {scope}: {}/{} tier-1 hits ({:.1}%), {} escalations {:?}",
        app.id(),
        pf_stats.prefilter_hits,
        pf_stats.prefilter_checks,
        rate * 100.0,
        pf_stats.prefilter_escalations,
        pf_stats.escalations_by_reason(),
    );
    if rate < hit_floor {
        fail(&format!(
            "{} {scope}: tier-1 hit rate {:.1}% fell below the {:.0}% floor",
            app.id(),
            rate * 100.0,
            hit_floor * 100.0
        ));
    }

    let (c_pf, c_t2) = (pf.steady_cycles_per_trap(), t2.steady_cycles_per_trap());
    if c_pf >= c_t2 {
        fail(&format!(
            "{} {scope}: prefiltered run is not cheaper per trap: {c_pf:.0} vs {c_t2:.0}",
            app.id()
        ));
    }
    println!(
        "{} {scope}: clean-path cycles/trap {c_pf:.0} (tier 1) vs {c_t2:.0} (tier 2 only)",
        app.id()
    );
    rate
}

fn main() {
    // Per-app tier-1 hit-rate floors, Table-1 scope. The probe rows and
    // the edge-precise flow automaton drove every clean-path structural
    // escalation to zero; the floors keep it that way.
    let table1 = BastionCompiler::new();
    for (app, floor) in [(App::Webserve, 0.99), (App::Dbkv, 0.95), (App::Ftpd, 0.95)] {
        parity_pair(app, &table1, "table1", floor);
    }

    // Extended filesystem scope (§11.2): same parity and floors must hold
    // when the sensitive surface grows.
    let extended = BastionCompiler::with_sensitive(sysno::extended_sensitive_set());
    for (app, floor) in [(App::Webserve, 0.99), (App::Dbkv, 0.95), (App::Ftpd, 0.95)] {
        parity_pair(app, &extended, "extended", floor);
    }

    // Differential oracle: every tier-1 Allow re-verified by the full
    // monitor in the same trap; panics (→ non-zero exit) on divergence.
    let mut diff_prot = Protection::full();
    diff_prot.monitor = Some(ContextConfig::full().with_differential());
    let diff = run(App::Webserve, &diff_prot, &table1);
    let ds = diff.monitor.as_ref().expect("monitor");
    if ds.prefilter_hits == 0 {
        fail("differential run never exercised a tier-1 Allow");
    }
    println!(
        "differential mode: {} tier-1 Allows re-proved against the full monitor",
        ds.prefilter_hits
    );
    println!("prefilter-parity OK");
}
