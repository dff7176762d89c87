//! Deterministic parallel fleet runner (DESIGN.md §6f).
//!
//! Every evaluation surface — the 32-attack × 6-fault chaos matrix, the
//! Table 6 catalog, the Figure 3 app benchmarks — is a list of *independent*
//! tasks: each builds its own [`World`]s from scratch and reads nothing but
//! its inputs. The fleet shards those tasks across OS threads with a
//! work-stealing index and re-assembles the results **in task order**, so
//! the aggregate report is a pure function of the task list: byte-identical
//! whether it ran on one worker or eight.
//!
//! ## Determinism contract
//!
//! * Tasks share no mutable state; each constructs its own worlds, monitors
//!   and fault injectors, and the simulation clock is virtual.
//! * Workers steal *indices*, results are reordered by index before any
//!   aggregation — scheduling decides only *when* a task runs, never where
//!   its result lands.
//! * Thread-local substrate state (the legacy-interp default) is scoped
//!   per task with an RAII guard ([`LegacyInterpGuard`]), so a reused pool
//!   thread leaks nothing into the next task.
//!
//! Wall-clock numbers (and only those) vary run to run; nothing derived
//! from them enters a fleet report.

use crate::chaos::{
    attack_chaos_shared, benign_chaos_suite, warm_checkpoint, AttackChaosReport, BenignChaosReport,
};
use crate::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use crate::Protection;
use bastion_apps::App;
use bastion_attacks::env::DeployCheckpoint;
use bastion_attacks::{catalog, evaluate, generate, Scenario, ScenarioResult};
use bastion_compiler::BastionCompiler;
use bastion_kernel::{LegacyInterpGuard, Tracer, World, WorldSnapshot};
use bastion_monitor::{ContextConfig, Monitor};
use bastion_vm::{CostModel, Memory};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

// The Send-audit, enforced at compile time: a World (with an attached
// monitor) and the monitor itself must be movable across the fleet's
// worker threads, and so must a snapshot and a deploy checkpoint, whose
// processes the restored worlds share behind `Arc`s; that needs guest
// memory to be `Sync`.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<World>();
    assert_send::<WorldSnapshot>();
    assert_send::<DeployCheckpoint>();
    assert_send::<Monitor>();
    assert_send::<Box<dyn Tracer>>();
    assert_sync::<Memory>();
};

/// Worker-count default: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `jobs` worker threads and returns
/// the results **in item order** regardless of scheduling. Workers steal
/// the next unclaimed index from a shared counter, so a slow task never
/// idles the rest of the pool. `jobs <= 1` degenerates to a plain serial
/// map on the calling thread (no pool, no channels).
///
/// # Panics
/// A panicking task propagates to the caller once the pool drains (the
/// scoped-thread join re-raises it), so assertion failures inside tasks
/// surface exactly as they would serially.
pub fn run_ordered<I, R, F>(jobs: usize, items: Vec<I>, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let (next, items, f) = (&next, &items, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index was claimed and completed"))
            .collect()
    })
}

/// Seeds of the benign half of the chaos matrix (one app each).
pub const BENIGN_SEEDS: &[(App, u64)] = &[
    (App::Webserve, 0x0B5E_0001),
    (App::Dbkv, 0x0B5E_0002),
    (App::Ftpd, 0x0B5E_0003),
];

/// Attack-replay seeds of the chaos matrix (pinned; CI replays bit-for-bit).
pub const ATTACK_SEEDS: &[u64] = &[0xA77C_0001, 0xA77C_0002];

/// Aggregate outcome of a fleet chaos-matrix run. `report` is the full
/// human-readable matrix — the determinism artifact CI's chaos snapshot
/// step byte-compares across worker counts.
#[derive(Debug, Clone)]
pub struct ChaosMatrixOutcome {
    /// The rendered matrix (benign table, attack table, provenance tail).
    pub report: String,
    /// Attacks that flipped to Allow under some fault schedule (must be 0).
    pub flipped: u32,
    /// Faults that actually fired across the whole matrix (must be > 0).
    pub faults_fired: u64,
    /// Structured deny records collected.
    pub deny_total: u64,
    /// Fault→deny provenance joins observed.
    pub join_total: u64,
    /// Generated attack programs whose malicious effect landed under full
    /// protection (must be 0; counted into `flipped` as well).
    pub generated_flipped: u32,
    /// Deny records *not* carrying a flight-recorder dump of the denied
    /// trap (must be 0: every deny joins its ring dump).
    pub flight_missing: u64,
    /// Victim deploys (compile, boot) the run paid for: warm, one per
    /// distinct attack victim configuration plus one per benign app; cold,
    /// one per cell (calibration runs included). Not part of `report`,
    /// which is byte-identical warm vs cold.
    pub deploys: u64,
    /// Attack cells (calibration runs aside) whose park was served from
    /// their checkpoint's parked snapshot instead of running; 0 cold. Not
    /// part of `report` either.
    pub snapshot_parks: u64,
}

impl ChaosMatrixOutcome {
    /// The chaos pass rule, stated once for every front end: at least one
    /// fault fired, no attack (catalog or generated) flipped to Allow, and
    /// every deny record carries a flight-recorder dump of the denied
    /// trap. Returns one message per broken condition; empty means pass.
    #[must_use]
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.faults_fired == 0 {
            out.push("chaos matrix never injected a fault".to_string());
        }
        if self.flipped > 0 {
            out.push(format!(
                "{} attack(s) flipped to Allow under faults",
                self.flipped
            ));
        }
        if self.flight_missing > 0 {
            out.push(format!(
                "{} deny record(s) missing a flight-recorder dump of the denied trap",
                self.flight_missing
            ));
        }
        out
    }
}

/// Runs the full chaos matrix with warm copy-on-write cell forking (see
/// [`chaos_matrix_mode`]).
pub fn chaos_matrix(jobs: usize, seeds: &[u64], filter: Option<&[u32]>) -> ChaosMatrixOutcome {
    chaos_matrix_mode(jobs, seeds, filter, false)
}

/// Runs the full chaos matrix — benign degradation for the three apps
/// under each schedule family, every catalog attack replayed under each
/// fault class and seed, plus the generated adversarial-program corpus —
/// sharded over `jobs` workers, and renders the canonical report.
/// `filter` limits the attack half to the given scenario ids (tests use a
/// small subset). `cold` forces every cell to re-deploy from scratch
/// instead of forking the warmed checkpoint; the rendered report is
/// byte-identical either way (that identity is CI-gated).
pub fn chaos_matrix_mode(
    jobs: usize,
    seeds: &[u64],
    filter: Option<&[u32]>,
    cold: bool,
) -> ChaosMatrixOutcome {
    use std::fmt::Write as _;

    let benign: Vec<Vec<(&'static str, BenignChaosReport)>> =
        run_ordered(jobs, BENIGN_SEEDS.to_vec(), |_, &(app, seed)| {
            let _interp = LegacyInterpGuard::set(false);
            benign_chaos_suite(app, ContextConfig::full(), seed, 6, cold)
        });

    let cfg = ContextConfig::full();
    let scenarios: Vec<Scenario> = catalog()
        .into_iter()
        .filter(|s| filter.is_none_or(|ids| ids.contains(&s.id)))
        .collect();
    // Warm: one deploy per distinct victim configuration, its checkpoint
    // shared by every scenario (and worker) that attacks it.
    let config = |s: &Scenario| (s.victim, s.extended_set);
    let mut keys: Vec<&Scenario> = Vec::new();
    for s in &scenarios {
        if !keys.iter().any(|k| config(k) == config(s)) {
            keys.push(s);
        }
    }
    let checkpoints: Vec<Mutex<DeployCheckpoint>> = if cold {
        Vec::new()
    } else {
        run_ordered(jobs, keys.clone(), |_, s| {
            let _interp = LegacyInterpGuard::set(false);
            Mutex::new(warm_checkpoint(s, cfg))
        })
    };
    let per_scenario: Vec<Vec<AttackChaosReport>> =
        run_ordered(jobs, scenarios.iter().collect(), |_, &scenario| {
            let _interp = LegacyInterpGuard::set(false);
            let checkpoint = (!cold).then(|| {
                let key = keys
                    .iter()
                    .position(|k| config(k) == config(scenario))
                    .expect("every scenario's configuration was deployed");
                &checkpoints[key]
            });
            attack_chaos_shared(scenario, cfg, seeds, checkpoint)
        });
    let deploys = if cold {
        let benign_cells: usize = benign.iter().map(Vec::len).sum();
        let attack_cells: usize = per_scenario.iter().map(|r| r.len() + 1).sum();
        benign_cells + attack_cells
    } else {
        benign.len() + keys.len()
    } as u64;
    let snapshot_parks = per_scenario
        .iter()
        .flatten()
        .filter(|r| r.parked_from_snapshot)
        .count() as u64;

    let corpus = generate::corpus();
    let generated: Vec<(&'static str, &'static str, generate::GenReport)> =
        run_ordered(jobs, corpus, |_, &(family, expect, source)| {
            let _interp = LegacyInterpGuard::set(false);
            (family, expect, generate::run_protected(source))
        });

    // ---- ordered aggregation: everything below is scheduling-blind ----
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "benign chaos (per-app schedule families, 6 requests each)"
    );
    let _ = writeln!(
        w,
        "{:<10} {:<9} {:>6} {:>9} {:>7} {:>8} {:>8}  mode",
        "app", "schedule", "served", "attempted", "faults", "strikes", "survived"
    );
    for suite in &benign {
        for (label, r) in suite {
            let stats = r.stats.as_ref().expect("monitor attached");
            let _ = writeln!(
                w,
                "{:<10} {:<9} {:>6} {:>9} {:>7} {:>8} {:>8}  {:?}",
                r.app.id(),
                label,
                r.served,
                r.attempted,
                r.faults_fired,
                stats.substrate_strikes,
                r.survived,
                stats.mode
            );
        }
    }

    let _ = writeln!(
        w,
        "\nattack chaos matrix (blocked attacks under targeted faults)"
    );
    let _ = writeln!(
        w,
        "{:<4} {:<34} {:>6} {:>7} {:>10}  outcome",
        "id", "attack", "traps", "faults", "contained"
    );
    let mut flipped = 0u32;
    let mut faults_fired = 0u64;
    let mut deny_total = 0u64;
    let mut join_total = 0u64;
    let mut flight_missing = 0u64;
    let mut flight_dump_total = 0u64;
    let mut joins_by_class: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for reports in &per_scenario {
        let fired: u64 = reports.iter().map(|r| r.faults_fired).sum();
        faults_fired += fired;
        for r in reports {
            deny_total += r.deny_records.len() as u64;
            join_total += r.fault_deny_joins.len() as u64;
            flight_dump_total += r.flight_dumps.len() as u64;
            if !r.denies_carry_flight() {
                flight_missing += r
                    .deny_records
                    .iter()
                    .filter(|d| {
                        d.flight
                            .last()
                            .is_none_or(|e| e.trap != d.trap_seq || e.tier != 2)
                    })
                    .count() as u64;
            }
            for &(_, class) in &r.fault_deny_joins {
                *joins_by_class.entry(class).or_insert(0) += 1;
            }
        }
        let contained = reports.iter().all(|r| r.attack_contained());
        let worst = reports
            .iter()
            .find(|r| !r.attack_contained())
            .or_else(|| reports.iter().max_by_key(|r| r.faults_fired))
            .expect("at least one replay per scenario");
        let _ = writeln!(
            w,
            "{:<4} {:<34} {:>6} {:>7} {:>10}  {:?}",
            worst.id, worst.name, worst.clean_traps, fired, contained, worst.outcome.defense
        );
        if !contained {
            flipped += 1;
        }
    }
    if flipped == 0 && faults_fired > 0 {
        let _ = writeln!(
            w,
            "\nall attacks contained under every fault schedule ({faults_fired} faults fired)"
        );
    }
    let _ = writeln!(
        w,
        "\ndeny provenance: {deny_total} structured deny records, {join_total} fault->deny joins"
    );
    let _ = writeln!(
        w,
        "flight recorder: {}/{deny_total} deny records carry a ring dump of the denied trap, \
         {flight_dump_total} triggered dump(s)",
        deny_total - flight_missing
    );
    for (class, n) in &joins_by_class {
        let _ = writeln!(
            w,
            "  substrate access {class:<12} implicated in {n} deny(s)"
        );
    }

    let _ = writeln!(
        w,
        "\ngenerated attack corpus ({} programs, one per deny-rule family)",
        generated.len()
    );
    let _ = writeln!(
        w,
        "{:<20} {:<28} {:<28}  outcome",
        "family", "expected", "observed"
    );
    let mut generated_flipped = 0u32;
    for (family, expect, rep) in &generated {
        let observed = rep.verdict.key();
        let ok = !rep.flipped_to_allow() && observed == *expect;
        let _ = writeln!(
            w,
            "{:<20} {:<28} {:<28}  {}",
            family,
            expect,
            observed,
            if rep.flipped_to_allow() {
                "FLIPPED-TO-ALLOW"
            } else if ok {
                "denied"
            } else {
                "off-family"
            }
        );
        if rep.flipped_to_allow() {
            generated_flipped += 1;
            flipped += 1;
        }
    }
    if generated_flipped == 0 && !generated.is_empty() {
        let _ = writeln!(w, "all generated programs stopped (zero flips to Allow)");
    }

    ChaosMatrixOutcome {
        report: out,
        flipped,
        faults_fired,
        deny_total,
        join_total,
        generated_flipped,
        flight_missing,
        deploys,
        snapshot_parks,
    }
}

/// Evaluates the Table 6 catalog sharded over `jobs` workers, in catalog
/// order. Render with [`bastion_attacks::render`] for the paper-style
/// table — identical to a serial `evaluate_all()`.
pub fn table6_matrix(jobs: usize) -> Vec<ScenarioResult> {
    run_ordered(jobs, catalog(), |_, s| {
        let _interp = LegacyInterpGuard::set(false);
        evaluate(s)
    })
}

/// Runs the three workload apps under vanilla and full protection sharded
/// over `jobs` workers (six independent benchmark worlds).
pub fn bench_matrix(jobs: usize, size: &WorkloadSize) -> Vec<AppBenchmark> {
    let tasks: Vec<(App, Protection)> = [App::Webserve, App::Dbkv, App::Ftpd]
        .into_iter()
        .flat_map(|app| [(app, Protection::vanilla()), (app, Protection::full())])
        .collect();
    run_ordered(jobs, tasks, |_, (app, protection)| {
        let _interp = LegacyInterpGuard::set(false);
        run_app_benchmark(
            *app,
            protection,
            size,
            &BastionCompiler::new(),
            CostModel::default(),
        )
    })
}

/// Renders the deterministic columns of a benchmark matrix (virtual-cycle
/// quantities only; wall-clock throughput never enters a fleet report).
pub fn render_bench(rows: &[AppBenchmark]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>12} {:>14} {:>8}  metric",
        "app", "protection", "cycles", "steps", "traps"
    );
    for b in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:>12} {:>14} {:>8}  {:.3}",
            b.app.id(),
            b.protection,
            b.cycles,
            b.steps,
            b.traps,
            b.metric
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::chaos::chaos_schedules;

    #[test]
    fn run_ordered_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = run_ordered(1, items.clone(), |i, &x| (i as u64, x * x));
        let pooled = run_ordered(8, items, |i, &x| (i as u64, x * x));
        assert_eq!(serial, pooled);
        assert_eq!(pooled[37], (37, 37 * 37));
    }

    #[test]
    fn chaos_failures_name_each_broken_condition() {
        let pass = ChaosMatrixOutcome {
            report: String::new(),
            flipped: 0,
            faults_fired: 12,
            deny_total: 4,
            join_total: 2,
            generated_flipped: 0,
            flight_missing: 0,
            deploys: 8,
            snapshot_parks: 182,
        };
        assert!(pass.failures().is_empty());

        let no_faults = ChaosMatrixOutcome {
            faults_fired: 0,
            ..pass.clone()
        };
        assert_eq!(
            no_faults.failures(),
            vec!["chaos matrix never injected a fault"]
        );

        // A generated flip is counted into `flipped` as well.
        let flipped = ChaosMatrixOutcome {
            flipped: 1,
            generated_flipped: 1,
            ..pass.clone()
        };
        assert_eq!(
            flipped.failures(),
            vec!["1 attack(s) flipped to Allow under faults"]
        );

        let no_dump = ChaosMatrixOutcome {
            flight_missing: 3,
            ..pass
        };
        assert_eq!(
            no_dump.failures(),
            vec!["3 deny record(s) missing a flight-recorder dump of the denied trap"]
        );
    }

    /// Warm, the full catalog deploys each of its five distinct victim
    /// configurations once (plus one boot per benign app), on any number
    /// of workers, and 26 of its 32 scenarios take every cell's park from
    /// the parked snapshot: all but the five ftpd ones and the extended
    /// webserve one (#20), whose fault windows reach into park's traps.
    /// Cold, no cell does.
    #[test]
    fn warm_matrix_deploys_and_parks_once_per_victim_configuration() {
        let cells = chaos_schedules(0, 1).len() as u64;
        for jobs in [1, 2] {
            let warm = chaos_matrix_mode(jobs, &ATTACK_SEEDS[..1], None, false);
            assert_eq!(warm.deploys, 5 + 3, "jobs={jobs}");
            assert_eq!(warm.snapshot_parks, 26 * cells, "jobs={jobs}");
        }
        let cold = chaos_matrix_mode(1, &ATTACK_SEEDS[..1], Some(&[1, 10]), true);
        assert_eq!(cold.snapshot_parks, 0);
        let warm = chaos_matrix_mode(1, &ATTACK_SEEDS[..1], Some(&[1, 10]), false);
        assert_eq!(warm.snapshot_parks, cells);
    }

    #[test]
    fn run_ordered_handles_empty_and_oversized_pools() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_ordered(4, empty, |_, _: &u8| 0u8).is_empty());
        assert_eq!(run_ordered(64, vec![5u64], |_, &x| x + 1), vec![6]);
    }
}
