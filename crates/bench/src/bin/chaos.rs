//! Chaos matrix: the full Table 6 catalog and the three workload
//! applications replayed under seeded deterministic fault schedules
//! (DESIGN.md §6d), sharded over the fleet runner (DESIGN.md §6f).
//!
//! Every attack is calibrated fault-free, then replayed under each fault
//! class targeted at the verification of its own sensitive syscalls. The
//! invariant checked is fail-closure: **no fault schedule may flip a
//! blocked attack to Allow**. The benign half reports how each
//! application degrades (mode ladder, strikes, service kept) under
//! unfocused mixed faults.
//!
//! Seeds are pinned so CI failures replay bit-for-bit, and the rendered
//! report is byte-identical for any `--jobs` value — `--jobs 1` (the
//! default) and `--jobs 8` may only differ in wall-clock time.

use bastion::attacks::catalog;
use bastion::chaos::chaos_schedules;
use bastion::fleet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cold = args.iter().any(|a| a == "--cold");
    let jobs = args
        .iter()
        .find_map(|a| {
            a.strip_prefix("--jobs=")
                .map(str::to_string)
                .or_else(|| (a == "--jobs").then(String::new))
        })
        .map_or(1, |v| {
            if v.is_empty() {
                // Bare `--jobs`: one worker per core.
                fleet::default_jobs()
            } else {
                v.parse().expect("--jobs=N takes a positive integer")
            }
        });

    eprintln!(
        "replaying {} attacks x {} fault classes x {} seeds on {jobs} worker(s), {} cells...",
        catalog().len(),
        chaos_schedules(0, 1).len(),
        fleet::ATTACK_SEEDS.len(),
        if cold { "cold-deployed" } else { "warm-forked" }
    );
    let outcome = fleet::chaos_matrix_mode(jobs, fleet::ATTACK_SEEDS, None, cold);
    print!("{}", outcome.report);

    if outcome.faults_fired == 0 {
        eprintln!("FAIL: chaos matrix never injected a fault");
        std::process::exit(1);
    }
    if outcome.flipped > 0 {
        eprintln!(
            "FAIL: {} attack(s) flipped to Allow under faults",
            outcome.flipped
        );
        std::process::exit(1);
    }
    if outcome.flight_missing > 0 {
        eprintln!(
            "FAIL: {} deny record(s) missing a flight-recorder dump of the denied trap",
            outcome.flight_missing
        );
        std::process::exit(1);
    }
}
