//! Fleet scaling benchmark: runs the chaos matrix at increasing worker
//! counts, asserts every run passes the chaos rule
//! (`ChaosMatrixOutcome::failures`) and renders a report **byte-identical**
//! to the serial one (the fleet determinism contract, DESIGN.md §6f), and
//! writes jobs-vs-wall-clock records to `BENCH_fleet.json` (or the path
//! given as the first argument). The matrix shape is virtual; every wall
//! time, speedup and the host's `available_parallelism` are host records.
//!
//! The default ladder is powers of two capped at the host's
//! `available_parallelism` — worker counts past the core count only add
//! scheduler churn and read as phantom regressions on small hosts.
//! `--jobs-list=1,2,4,8` overrides the ladder explicitly.
//! A worker count above `available_parallelism` is oversubscribed: its
//! speedup measures scheduler contention, not fleet scaling.

use bastion::chaos::chaos_schedules;
use bastion::fleet;
use bastion::gate::{self, Record};
use std::time::Instant;

/// Powers of two up to (and including the nearest below) the host's
/// available parallelism, always starting at the serial run.
fn default_ladder(ap: usize) -> Vec<usize> {
    let mut ladder = vec![1];
    let mut j = 2;
    while j <= ap {
        ladder.push(j);
        j *= 2;
    }
    ladder
}

fn main() {
    let mut out_path = "BENCH_fleet.json".to_string();
    let ap = fleet::default_jobs();
    let mut ladder: Vec<usize> = default_ladder(ap);
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--jobs-list=") {
            ladder = v
                .split(',')
                .map(|n| n.parse().expect("--jobs-list takes integers"))
                .collect();
        } else {
            out_path = a;
        }
    }
    assert_eq!(
        ladder.first(),
        Some(&1),
        "ladder must start at the serial run"
    );

    let seeds = fleet::ATTACK_SEEDS;
    let mut records = Vec::new();
    let mut serial_report = String::new();
    let mut serial_secs = 0.0f64;
    // (jobs, wall) of the widest ladder entry within the host's cores.
    let mut widest = (1, 0.0f64);
    for &jobs in &ladder {
        eprintln!("chaos matrix, jobs={jobs}...");
        let t0 = Instant::now();
        let outcome = fleet::chaos_matrix(jobs, seeds, None);
        let wall_secs = t0.elapsed().as_secs_f64();
        let failures = outcome.failures();
        assert!(failures.is_empty(), "jobs={jobs}: {}", failures.join("; "));
        if jobs == 1 {
            serial_report = outcome.report.clone();
            serial_secs = wall_secs;
            // The attack table has one row per scenario.
            let scenarios = outcome
                .report
                .lines()
                .skip_while(|l| !l.starts_with("id "))
                .skip(1)
                .take_while(|l| !l.is_empty())
                .count();
            records.extend([
                Record::virt("fleet.scenarios", scenarios as f64, "count"),
                Record::virt("fleet.seeds", seeds.len() as f64, "count"),
                Record::virt(
                    "fleet.fault_classes",
                    chaos_schedules(0, 1).len() as f64,
                    "count",
                ),
                Record::virt(
                    "fleet.benign_apps",
                    fleet::BENIGN_SEEDS.len() as f64,
                    "count",
                ),
                Record::host("fleet.available_parallelism", ap as f64, "count"),
            ]);
        }
        assert!(
            outcome.report == serial_report,
            "jobs={jobs} report diverged from the serial run"
        );
        let speedup = serial_secs / wall_secs.max(1e-9);
        let oversubscribed = jobs > ap;
        eprintln!(
            "  {wall_secs:.2}s ({speedup:.2}x vs serial), byte-identical{}",
            if oversubscribed {
                ", oversubscribed"
            } else {
                ""
            }
        );
        // Speedup: serial wall time over this run's wall time.
        records.extend([
            Record::host(format!("fleet.jobs_{jobs}.wall_secs"), wall_secs, "s"),
            Record::host(format!("fleet.jobs_{jobs}.speedup"), speedup, "x"),
        ]);
        if !oversubscribed {
            widest = (jobs, wall_secs);
        }
    }

    // Warm vs cold (DESIGN.md §6i): the ladder above runs warm-forked (the
    // default); one extra cold run at the widest non-oversubscribed worker
    // count prices the checkpoint.
    let (wide, warm_wide) = widest;
    eprintln!("chaos matrix, jobs={wide}, cold cells...");
    let t0 = Instant::now();
    let cold = fleet::chaos_matrix_mode(wide, seeds, None, true);
    let cold_secs = t0.elapsed().as_secs_f64();
    assert!(
        cold.report == serial_report,
        "cold report diverged from the warm run"
    );
    // Cold wall time over warm wall time (the checkpoint payoff).
    let warm_speedup = cold_secs / warm_wide.max(1e-9);
    eprintln!(
        "  cold {cold_secs:.2}s vs warm {warm_wide:.2}s ({warm_speedup:.2}x), byte-identical"
    );
    records.extend([
        Record::host("fleet.snapshot.jobs", wide as f64, "count"),
        Record::host("fleet.snapshot.warm_secs", warm_wide, "s"),
        Record::host("fleet.snapshot.cold_secs", cold_secs, "s"),
        Record::host("fleet.snapshot.warm_speedup", warm_speedup, "x"),
    ]);

    std::fs::write(&out_path, gate::records_json("fleet", &records)).expect("write report");
    eprintln!("wrote {out_path}");
}
