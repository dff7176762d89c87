//! `bastiond` serving benchmark: runs the multi-tenant supervisor over
//! the standard seeded mix, proves the schedule is **byte-identical** at
//! every worker count in the ladder (per-tenant worlds are independent
//! and sharding is jobs-invariant), and writes the fleet aggregates and
//! per-app latency lanes as records to `BENCH_serve.json` (or the path
//! given as the first argument). Per-tenant rows stay out of the file;
//! `bastion serve --json` writes the full per-tenant report.
//!
//! Every record is virtual — no wall-clock fields — so `--check`
//! re-measures and diffs **exactly** against the baseline through
//! `bastion::gate::check` (CI's serve gate): any drift in an aggregate,
//! a latency quartet or a per-app lane fails the run.
//!
//! Flags: `--tenants=N` (default 256), `--requests=N` (default 24),
//! `--seed=N` (default 0), `--jobs-list=1,4`, `--check`.

use bastion::gate::{self, Record};
use bastion::serve::{run_serve, LatencyLane, ServeConfig, ServeReport};
use std::time::Instant;

/// `{prefix}.count` and the cycle percentiles of one latency lane.
fn lane_records(out: &mut Vec<Record>, prefix: &str, lane: &LatencyLane) {
    out.push(Record::virt(
        format!("{prefix}.count"),
        lane.count as f64,
        "count",
    ));
    for (q, v) in [
        ("p50", lane.p50),
        ("p95", lane.p95),
        ("p99", lane.p99),
        ("p999", lane.p999),
    ] {
        out.push(Record::virt(format!("{prefix}.{q}"), v as f64, "cycles"));
    }
}

/// The fleet aggregates and per-app lanes of a serve report.
fn serve_records(r: &ServeReport) -> Vec<Record> {
    let count = |name: &str, v: u64| Record::virt(format!("serve.{name}"), v as f64, "count");
    let mut out = vec![
        count("tenants", r.tenants),
        Record::virt("serve.seed", r.seed as f64, "seed"),
        Record::virt("serve.quantum", r.quantum as f64, "cycles"),
        count("admitted", r.admitted),
        count("rejected", r.rejected.len() as u64),
        count("completed", r.completed),
        count("evicted", r.evicted),
        count("total_requests", r.total_requests),
        Record::virt("serve.total_bytes", r.total_bytes as f64, "bytes"),
        count("total_turns", r.total_turns),
        count("total_traps", r.total_traps),
        count("total_denies", r.total_denies),
        Record::virt("serve.fleet_cycles", r.fleet_cycles as f64, "cycles"),
    ];
    lane_records(&mut out, "serve.request_latency", &r.request_latency);
    lane_records(&mut out, "serve.verify_latency", &r.verify_latency);
    for lane in &r.apps {
        out.push(count(&format!("{}.tenants", lane.app), lane.tenants));
        lane_records(
            &mut out,
            &format!("serve.{}.latency", lane.app),
            &lane.latency,
        );
    }
    out
}

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut tenants = 256usize;
    let mut requests = 24u64;
    let mut seed = 0u64;
    let ap = bastion::fleet::default_jobs();
    let mut ladder: Vec<usize> = vec![1, ap.max(2)];
    let mut check = false;
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--tenants=") {
            tenants = v.parse().expect("--tenants takes an integer");
        } else if let Some(v) = a.strip_prefix("--requests=") {
            requests = v.parse().expect("--requests takes an integer");
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed takes an integer");
        } else if let Some(v) = a.strip_prefix("--jobs-list=") {
            ladder = v
                .split(',')
                .map(|n| n.parse().expect("--jobs-list takes integers"))
                .collect();
        } else if a == "--check" {
            check = true;
        } else {
            out_path = a;
        }
    }
    assert_eq!(
        ladder.first(),
        Some(&1),
        "ladder must start at the serial run"
    );

    let mut cfg = ServeConfig::new(tenants, seed);
    cfg.requests_per_tenant = requests;

    let mut reference: Option<(String, String, ServeReport)> = None;
    for &jobs in &ladder {
        eprintln!("bastiond, tenants={tenants}, jobs={jobs}...");
        let t0 = Instant::now();
        let r = run_serve(&cfg.clone().with_jobs(jobs));
        let wall = t0.elapsed().as_secs_f64();
        let rendered = r.report.render();
        let json = serde_json::to_string_pretty(&r.report).expect("report serializes");
        if let Some((ref_render, ref_json, _)) = &reference {
            assert!(
                rendered == *ref_render && json == *ref_json,
                "jobs={jobs} report diverged from the serial run"
            );
        }
        eprintln!(
            "  {wall:.2}s, {} served / {} traps, byte-identical",
            r.report.total_requests, r.report.total_traps
        );
        if reference.is_none() {
            reference = Some((rendered, json, r.report));
        }
    }
    let (rendered, _, report) = reference.expect("ladder is non-empty");
    eprint!("{rendered}");
    let measured = serve_records(&report);

    if check {
        let baseline = std::fs::read_to_string(&out_path)
            .map_err(|e| format!("{e} (generate the baseline first)"))
            .and_then(|t| gate::parse_records(&t))
            .unwrap_or_else(|e| panic!("{out_path}: {e}"));
        let g = gate::check(&baseline, &measured);
        print!("{}", g.render());
        assert!(g.passed(), "serve gate failed against {out_path}");
    } else {
        std::fs::write(&out_path, gate::records_json("serve", &measured)).expect("write report");
        println!("wrote {out_path}");
    }
}
