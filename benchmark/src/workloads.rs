//! The four workloads: seeded inputs, one untraced repetition through the
//! program's top-level public API, set-up, and correctness checks.
//!
//! Every workload is a closed loop driven from one thread (`jobs = 1`):
//! each bastiond tenant has two client connections that each wait for
//! their reply, the grid's blocking load generators wait for every
//! response, and the chaos matrix runs its cells one after another.

use crate::stats::{resolvable_tail, SplitMix};
use bastion::apps::{App, ALL_APPS};
use bastion::attacks::{catalog, generate};
use bastion::chaos::{benign_schedules, chaos_schedules};
use bastion::compiler::BastionCompiler;
use bastion::fleet::{chaos_matrix, BENIGN_SEEDS};
use bastion::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use bastion::monitor::ContextConfig;
use bastion::serve::{
    serve_with_specs, LatencyLane, ServeConfig, TenantKind, TenantReport, TenantSpec,
};
use bastion::vm::CostModel;
use bastion::Protection;

/// bastiond tenants per serve-web repetition.
pub const WEB_TENANTS: u32 = 32;
/// Keep-alive requests per webserve tenant (mean 96).
pub const WEB_REQUESTS: (u64, u64) = (64, 128);
/// bastiond tenants per serve-ftp repetition.
pub const FTP_TENANTS: u32 = 8;
/// Sequential 16 MiB `RETR`s per ftpd tenant (mean 8).
pub const FTP_DOWNLOADS: (u64, u64) = (4, 12);
/// Fault-schedule seeds the chaos matrix replays every attack under.
pub const CHAOS_SEEDS: usize = 8;

/// Latency lanes a serve report resolves, in percent.
pub const LANES: [f64; 4] = [50.0, 95.0, 99.0, 99.9];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeWeb,
    ServeFtp,
    PaperGrid,
    Chaos,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeWeb,
        Workload::ServeFtp,
        Workload::PaperGrid,
        Workload::Chaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWeb => "serve-web",
            Workload::ServeFtp => "serve-ftp",
            Workload::PaperGrid => "paper-grid",
            Workload::Chaos => "chaos",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one operation of `ops_per_s` is on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ServeWeb => "HTTP request",
            Workload::ServeFtp => "16 MiB FTP download",
            Workload::PaperGrid => "app x protection run",
            Workload::Chaos => "chaos cell",
        }
    }
}

/// The inputs a seed expands to. The program under test sees only these.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// A bastiond tenant list.
    Serve(Vec<TenantSpec>),
    /// The paper grid runs every app at the standard workload size; its
    /// inputs do not depend on the seed.
    Grid,
    /// Fault-schedule seeds for the chaos matrix.
    Chaos(Vec<u64>),
}

impl Inputs {
    pub fn from_seed(w: Workload, seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed);
        let tenants = |app, requests: Vec<u64>| {
            Inputs::Serve(
                (0..)
                    .zip(requests)
                    .map(|(id, requests)| TenantSpec {
                        id,
                        kind: TenantKind::App(app),
                        requests,
                    })
                    .collect(),
            )
        };
        match w {
            Workload::ServeWeb => {
                let (lo, hi) = WEB_REQUESTS;
                let requests = (0..WEB_TENANTS).map(|_| rng.range(lo, hi)).collect();
                tenants(App::Webserve, requests)
            }
            Workload::ServeFtp => tenants(
                App::Ftpd,
                shuffled_counts(&mut rng, FTP_TENANTS, FTP_DOWNLOADS),
            ),
            Workload::PaperGrid => Inputs::Grid,
            Workload::Chaos => Inputs::Chaos((0..CHAOS_SEEDS).map(|_| rng.next_u64()).collect()),
        }
    }
}

/// `n` counts spaced evenly over `lo..=hi`, in a seeded order.
///
/// serve-ftp uses this rather than independent draws: a finished
/// download leaves its data connection's buffer allocated until its
/// tenant exits, so the fleet's memory peak follows the smallest of the
/// tenants' counts, and the smallest of only eight draws changes from
/// seed to seed. Shuffled fixed counts keep the range and the mean and
/// let the seed choose only which tenant gets which.
fn shuffled_counts(rng: &mut SplitMix, n: u32, (lo, hi): (u64, u64)) -> Vec<u64> {
    let n = u64::from(n);
    let gaps = (n - 1).max(1);
    let mut counts: Vec<u64> = (0..n)
        .map(|k| lo + (2 * k * (hi - lo) + gaps) / (2 * gaps))
        .collect();
    for i in (1..counts.len()).rev() {
        counts.swap(i, rng.range(0, i as u64) as usize);
    }
    counts
}

/// What one untraced repetition produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Operations completed.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (unserved, evicted, flipped, died).
    pub failed: u64,
    /// Named correctness checks.
    pub checks: Vec<(&'static str, bool)>,
    /// Virtual-clock metrics: `(name, value, unit)`.
    pub virt: Vec<(&'static str, f64, &'static str)>,
    /// Every virtual total of the run, one `key=value` per line; equal
    /// across repetitions of one input and equal to the traced replica.
    pub fingerprint: Vec<String>,
}

/// The bastiond configuration every serve repetition uses.
pub fn serve_config(tenants: usize) -> ServeConfig {
    // ServeConfig::new already fixes 2 connections per tenant, the
    // 200k-cycle quantum and one worker; the seed only feeds
    // `tenant_mix`, which an explicit tenant list bypasses.
    ServeConfig::new(tenants, 0)
}

/// Runs one repetition on `inputs`.
pub fn run_rep(inputs: &Inputs) -> Rep {
    match inputs {
        Inputs::Serve(specs) => serve_rep(specs),
        Inputs::Grid => grid_rep(),
        Inputs::Chaos(seeds) => chaos_rep(seeds),
    }
}

fn serve_rep(specs: &[TenantSpec]) -> Rep {
    let run = serve_with_specs(&serve_config(specs.len()), specs.to_vec());
    let r = &run.report;
    let attempted: u64 = specs.iter().map(|s| s.requests).sum();
    let failed = attempted - r.total_requests.min(attempted);
    let lane = &r.request_latency;
    let tail = resolvable_tail(lane.count, &LANES);
    let tail_cyc = match tail {
        t if t >= 99.9 => lane.p999,
        t if t >= 99.0 => lane.p99,
        t if t >= 95.0 => lane.p95,
        _ => lane.p50,
    };
    Rep {
        ops: r.total_requests,
        attempted,
        failed,
        checks: vec![
            ("serve.no_evictions", r.evicted == 0),
            (
                "serve.every_tenant_served_its_target",
                r.rows.len() == specs.len()
                    && r.rows
                        .iter()
                        .all(|t| t.served == t.target && t.status == "completed"),
            ),
        ],
        virt: vec![
            ("req_p50_cyc", lane.p50 as f64, "cycles"),
            ("req_tail_cyc", tail_cyc as f64, "cycles"),
            ("req_tail_pct", tail, "%"),
            ("req_count", lane.count as f64, "count"),
            (
                "fail_frac",
                failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ],
        fingerprint: serve_fingerprint(&r.rows, r.total_bytes, &r.request_latency),
    }
}

/// The virtual totals of a bastiond run the traced replica must match:
/// fleet totals, the request-latency lane, and every tenant's row.
pub fn serve_fingerprint(rows: &[TenantReport], bytes: u64, l: &LatencyLane) -> Vec<String> {
    let sum = |f: fn(&TenantReport) -> u64| rows.iter().map(f).sum::<u64>();
    let mut out = vec![
        format!("requests={}", sum(|t| t.served)),
        format!("bytes={bytes}"),
        format!("traps={}", sum(|t| t.traps)),
        format!("turns={}", sum(|t| t.turns)),
        format!("fleet_cycles={}", sum(|t| t.cycles)),
        format!("denies={}", sum(|t| t.denies)),
        format!(
            "latency={}/{}/{}/{}/{}",
            l.count, l.p50, l.p95, l.p99, l.p999
        ),
    ];
    out.extend(rows.iter().map(|t| {
        format!(
            "tenant{}={} {}/{} turns={} parked={} cycles={} traps={} tier1={} denies={}",
            t.id,
            t.status,
            t.served,
            t.target,
            t.turns,
            t.parked,
            t.cycles,
            t.traps,
            t.tier1_hits,
            t.denies
        )
    }));
    out
}

/// The grid's three protection columns: vanilla, two-tier BASTION, and
/// BASTION with the tier-1 prefilter off (the paper's ptrace design).
pub fn grid_protections() -> [Protection; 3] {
    let mut tier2_only = Protection::full();
    tier2_only.label = "CET+CT+CF+AI tier-2-only";
    tier2_only.monitor = Some(ContextConfig::full().with_prefilter(false));
    [Protection::vanilla(), Protection::full(), tier2_only]
}

/// One grid run's virtual totals, as the fingerprint records them.
pub fn grid_line(
    app: App,
    label: &str,
    cycles: u64,
    steps: u64,
    traps: u64,
    trace_cycles: u64,
    metric: f64,
) -> String {
    format!(
        "{}/{label} cycles={cycles} steps={steps} traps={traps} trace_cycles={trace_cycles} metric={:016x}",
        app.id(),
        metric.to_bits()
    )
}

fn grid_rep() -> Rep {
    let size = WorkloadSize::standard();
    let mut rows = Vec::new();
    for app in ALL_APPS {
        for p in grid_protections() {
            // A run that dies during boot or stalls under load panics
            // inside the harness, which fails the benchmark.
            rows.push(run_app_benchmark(
                app,
                &p,
                &size,
                &BastionCompiler::new(),
                CostModel::default(),
            ));
        }
    }
    // Rows are app-major: vanilla, two-tier, tier-2-only per app.
    let per_app: Vec<&[AppBenchmark]> = rows.chunks(3).collect();
    let mean_overhead = |col: usize| {
        per_app
            .iter()
            .map(|r| r[col].overhead_vs(&r[0]))
            .sum::<f64>()
            / per_app.len() as f64
    };
    Rep {
        ops: rows.len() as u64,
        attempted: rows.len() as u64,
        failed: 0,
        checks: vec![(
            "grid.tiers_agree_on_steps_and_traps",
            per_app
                .iter()
                .all(|r| r[1].steps == r[2].steps && r[1].traps == r[2].traps),
        )],
        virt: vec![
            ("overhead_pct", mean_overhead(1), "%"),
            ("t2_overhead_pct", mean_overhead(2), "%"),
            ("fail_frac", 0.0, "ratio"),
        ],
        fingerprint: rows
            .iter()
            .map(|b| {
                grid_line(
                    b.app,
                    b.protection,
                    b.cycles,
                    b.steps,
                    b.traps,
                    b.trace_cycles,
                    b.metric,
                )
            })
            .collect(),
    }
}

/// Chaos cells per repetition: every benign schedule, every attack under
/// every fault class and seed, and every generated-corpus program.
fn chaos_cells(seeds: usize) -> u64 {
    let benign = BENIGN_SEEDS.len() * benign_schedules(0).len();
    let attacks = catalog().len() * chaos_schedules(0, 1).len() * seeds;
    (benign + attacks + generate::corpus().len()) as u64
}

/// The aggregate a chaos matrix reports, which the traced replica
/// rebuilds from the matrix's public parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosTotals {
    pub flipped: u64,
    pub faults_fired: u64,
    pub deny_total: u64,
    pub join_total: u64,
    pub generated_flipped: u64,
    pub flight_missing: u64,
}

/// Fingerprint of a chaos run: its totals plus the rendered benign table.
pub fn chaos_fingerprint(t: &ChaosTotals, benign_lines: &[String]) -> Vec<String> {
    let mut out = vec![format!(
        "flipped={} faults={} denies={} joins={} generated_flipped={} flight_missing={}",
        t.flipped,
        t.faults_fired,
        t.deny_total,
        t.join_total,
        t.generated_flipped,
        t.flight_missing
    )];
    out.extend(benign_lines.iter().cloned());
    out
}

/// The benign-table rows of a rendered chaos report: the lines between
/// the table header and the first blank line.
pub fn benign_rows(report: &str) -> Vec<String> {
    report
        .lines()
        .skip(2)
        .take_while(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

fn chaos_rep(seeds: &[u64]) -> Rep {
    let o = chaos_matrix(1, seeds, None);
    let cells = chaos_cells(seeds.len());
    let totals = ChaosTotals {
        flipped: u64::from(o.flipped),
        faults_fired: o.faults_fired,
        deny_total: o.deny_total,
        join_total: o.join_total,
        generated_flipped: u64::from(o.generated_flipped),
        flight_missing: o.flight_missing,
    };
    let failed = totals.flipped + totals.flight_missing;
    Rep {
        ops: cells,
        attempted: cells,
        failed,
        checks: vec![
            ("chaos.zero_flips_to_allow", o.flipped == 0),
            ("chaos.faults_fired", o.faults_fired > 0),
            ("chaos.every_deny_has_a_flight_dump", o.flight_missing == 0),
        ],
        virt: vec![
            ("chaos_faults", o.faults_fired as f64, "count"),
            ("chaos_denies", o.deny_total as f64, "count"),
            ("fail_frac", failed as f64 / cells as f64, "ratio"),
        ],
        fingerprint: chaos_fingerprint(&totals, &benign_rows(&o.report)),
    }
}

/// Runs the workload's set-up once — the work a repetition pays before
/// its first operation — and returns whether every world booted.
///
/// * serve-*: the same tenant list with zero requests — compile, boot to
///   accept, teardown;
/// * paper-grid: build and boot all nine app x protection worlds;
/// * chaos: build, boot and checkpoint every warm world the matrix forks
///   its cells from.
pub fn run_setup(inputs: &Inputs) -> bool {
    match inputs {
        Inputs::Serve(specs) => {
            let idle: Vec<TenantSpec> = specs
                .iter()
                .map(|s| TenantSpec {
                    requests: 0,
                    ..s.clone()
                })
                .collect();
            let r = serve_with_specs(&serve_config(idle.len()), idle).report;
            r.evicted == 0 && r.completed == specs.len() as u64
        }
        Inputs::Grid => crate::replica::grid_boot_all(),
        Inputs::Chaos(_) => crate::replica::chaos_warm_all(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_expands_to_the_same_tenant_list() {
        let key = |i: &Inputs| match i {
            Inputs::Serve(s) => s
                .iter()
                .map(|t| (t.id, t.kind.key(), t.requests))
                .collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        let a = key(&Inputs::from_seed(Workload::ServeWeb, 0));
        let b = key(&Inputs::from_seed(Workload::ServeWeb, 0));
        assert_eq!(a, b);
        assert_eq!(a.len(), WEB_TENANTS as usize);
        assert!(a
            .iter()
            .all(|(_, k, r)| k == "webserve" && (64..=128).contains(r)));
        let c = key(&Inputs::from_seed(Workload::ServeWeb, 1));
        assert_ne!(a, c, "another seed draws another tenant list");
        let ftp = |s| key(&Inputs::from_seed(Workload::ServeFtp, s));
        assert!(ftp(3).iter().all(|(_, k, _)| k == "ftpd"));
        assert_eq!(ftp(3), ftp(3));
        assert_ne!(ftp(3), ftp(4), "another seed shuffles the counts");
        for s in 0..16 {
            let mut counts: Vec<u64> = ftp(s).iter().map(|t| t.2).collect();
            counts.sort_unstable();
            assert_eq!(counts, [4, 5, 6, 7, 9, 10, 11, 12], "seed {s}");
        }
        let seeds = |s| match Inputs::from_seed(Workload::Chaos, s) {
            Inputs::Chaos(v) => v,
            _ => unreachable!(),
        };
        assert_eq!(seeds(5), seeds(5));
        assert_eq!(seeds(5).len(), CHAOS_SEEDS);
        assert_ne!(seeds(5), seeds(6));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve"), None);
    }

    #[test]
    fn benign_rows_stop_at_the_blank_line() {
        let report = "title\nheader\nrow a\nrow b\n\nattack table\n";
        assert_eq!(benign_rows(report), ["row a", "row b"]);
    }
}
