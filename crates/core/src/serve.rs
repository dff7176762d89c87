//! `bastiond` — the persistent multi-tenant serving supervisor behind
//! `bastion serve`.
//!
//! The [`harness`](crate::harness) runs one protected application to
//! completion; production BASTION (§10) sits under long-lived servers that
//! host *many* protected processes at once. This module is that deployment
//! shape: a supervisor that
//!
//! 1. admits tenants through a bounded [`AdmissionQueue`] (overflow is
//!    rejected deterministically, before any world boots),
//! 2. compiles and boots each distinct program once per shard: the
//!    [`Deployment`] (instrumented image + context metadata) is compiled
//!    once and shared by every tenant that runs it, the shard's first
//!    tenant of a program boots it, and every later one forks from a
//!    copy-on-write checkpoint of that booted world (warm admission),
//! 3. drives hundreds of concurrent protected worlds with a round-robin
//!    run queue — each runnable tenant gets a fixed cycle quantum
//!    ([`ServeConfig::quantum`]), yields on [`RunStatus::Budget`] or
//!    [`RunStatus::Idle`], and re-enters the queue; sleeping worlds park
//!    until their earliest wake inside [`World::run`] (see
//!    `World::next_wake`), and net-idle worlds park until the next client
//!    pump,
//! 4. merges each tenant's per-turn [`MetricsRegistry`] (latency
//!    [`QuantileSketch`] lanes included) into a live fleet-level view that
//!    exports through the existing Prometheus / JSONL surfaces.
//!
//! Tenants whose program a defense kills (seccomp, monitor deny, CET
//! fault) are **evicted**: finalized and removed from the run queue
//! without perturbing any neighbor — every tenant owns a private world,
//! so eviction is O(1) and contention-free.
//!
//! The whole schedule is a pure function of [`ServeConfig`]: the tenant
//! mix is drawn from a seeded xorshift generator, every world is
//! deterministic, and per-tenant results do not depend on which worker
//! shard ran them — so reports are byte-identical for any `jobs` count.

use crate::fleet;
use crate::{Deployment, Protection};
use bastion_apps::loadgen::REQUEST_CYCLES_SKETCH;
use bastion_apps::{traffic::Traffic, App, ALL_APPS};
use bastion_kernel::{ExitReason, LegacyInterpGuard, RunStatus, World, WorldSnapshot};
use bastion_obs::{
    MetricsRegistry, MetricsSnapshot, QuantileSketch, SketchSnapshot, TelemetryGuard,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Sketch lane carrying per-trap verification cycles (observed by the
/// kernel's trap path and captured per tenant turn).
pub const VERIFY_CYCLES_SKETCH: &str = "trap.verify_cycles";

/// Cycle budget for booting one tenant to its accept loop.
const BOOT_BUDGET: u64 = 1_000_000_000;

/// Span-ring capacity per tenant turn (spans are discarded; only the
/// metrics registry is kept, so this stays small).
const TURN_SPANS: usize = 64;

/// Consecutive no-progress idle turns before a tenant is evicted as
/// stalled. Healthy protocol round-trips alternate progress/no-progress,
/// so a genuine deadlock is flagged within `STALL_LIMIT` quanta.
const STALL_LIMIT: u32 = 64;

/// Supervisor configuration; the entire schedule is a pure function of it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Tenants submitted to the admission queue.
    pub tenants: usize,
    /// Seed for the tenant-mix generator.
    pub seed: u64,
    /// Requests (HTTP) / transactions (TPC-C) per tenant; FTP tenants
    /// download `max(1, requests/8)` files (a session is ~8 round trips).
    pub requests_per_tenant: u64,
    /// Client connections per tenant (FTP is sequential by protocol).
    pub concurrency: usize,
    /// Admission-queue capacity; submissions past it are rejected.
    pub admission_capacity: usize,
    /// Scheduler quantum in cycles: how long one tenant runs per turn.
    pub quantum: u64,
    /// Worker threads (tenant shards). Any value yields byte-identical
    /// reports; it only changes wall-clock time.
    pub jobs: usize,
}

impl ServeConfig {
    /// The standard configuration for `tenants` tenants under `seed`.
    pub fn new(tenants: usize, seed: u64) -> Self {
        ServeConfig {
            tenants,
            seed,
            requests_per_tenant: 24,
            concurrency: 2,
            admission_capacity: tenants,
            quantum: 200_000,
            jobs: 1,
        }
    }

    /// Worker-thread override (builder style).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// What a tenant runs.
#[derive(Debug, Clone)]
pub enum TenantKind {
    /// One of the three paper applications, driven by its traffic mix.
    App(App),
    /// An arbitrary MiniC program (no client traffic) — how tests inject
    /// rogue tenants that the monitor must evict.
    Custom {
        /// Display / program name.
        name: String,
        /// MiniC source.
        source: String,
    },
}

impl TenantKind {
    /// Program key: tenants with equal keys share one compiled image.
    pub fn key(&self) -> String {
        match self {
            TenantKind::App(a) => a.id().to_string(),
            TenantKind::Custom { name, .. } => format!("custom:{name}"),
        }
    }
}

/// One tenant submission.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Stable tenant id (report order).
    pub id: u32,
    /// Program to run.
    pub kind: TenantKind,
    /// Workload size (requests / transactions / downloads).
    pub requests: u64,
}

/// The bounded admission queue: submissions beyond `capacity` are
/// rejected immediately (recorded by id), never booted, and never touch
/// the scheduler.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    queue: VecDeque<TenantSpec>,
    rejected: Vec<u32>,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` pending tenants.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            queue: VecDeque::new(),
            rejected: Vec::new(),
        }
    }

    /// Submits a tenant; returns whether it was admitted.
    pub fn submit(&mut self, spec: TenantSpec) -> bool {
        if self.queue.len() >= self.capacity {
            self.rejected.push(spec.id);
            return false;
        }
        self.queue.push_back(spec);
        true
    }

    /// Pending (admitted, not yet scheduled) tenants.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drains the queue for scheduling, yielding `(admitted, rejected)`.
    pub fn drain(self) -> (Vec<TenantSpec>, Vec<u32>) {
        (self.queue.into_iter().collect(), self.rejected)
    }
}

/// The seeded tenant mix: ~1/2 webserve, ~1/3 dbkv, ~1/6 ftpd (heaviest
/// workload gets the smallest share), drawn from xorshift64 over
/// [`ServeConfig::seed`].
pub fn tenant_mix(cfg: &ServeConfig) -> Vec<TenantSpec> {
    let mut s = cfg.seed ^ 0x9E37_79B9_7F4A_7C15;
    if s == 0 {
        s = 1;
    }
    (0..cfg.tenants as u32)
        .map(|id| {
            let r = xorshift(&mut s);
            let app = match r % 6 {
                0..=2 => App::Webserve,
                3..=4 => App::Dbkv,
                _ => App::Ftpd,
            };
            let requests = match app {
                App::Ftpd => (cfg.requests_per_tenant / 8).max(1),
                _ => cfg.requests_per_tenant,
            };
            TenantSpec {
                id,
                kind: TenantKind::App(app),
                requests,
            }
        })
        .collect()
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Quantile quartet of one latency lane.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyLane {
    /// Observations in the lane.
    pub count: u64,
    /// Median (cycles).
    pub p50: u64,
    /// 95th percentile (cycles).
    pub p95: u64,
    /// 99th percentile (cycles).
    pub p99: u64,
    /// 99.9th percentile (cycles).
    pub p999: u64,
}

impl LatencyLane {
    fn from_snapshot(s: Option<&SketchSnapshot>) -> Self {
        s.map_or_else(LatencyLane::default, |s| LatencyLane {
            count: s.count,
            p50: s.p50,
            p95: s.p95,
            p99: s.p99,
            p999: s.p999,
        })
    }

    fn from_sketch(sk: &QuantileSketch) -> Self {
        LatencyLane {
            count: sk.count(),
            p50: sk.quantile(0.50),
            p95: sk.quantile(0.95),
            p99: sk.quantile(0.99),
            p999: sk.quantile(0.999),
        }
    }
}

/// Per-application aggregate across the fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppLane {
    /// Program key (`webserve`, `dbkv`, `ftpd`, `custom:*`).
    pub app: String,
    /// Tenants running this program.
    pub tenants: u64,
    /// Merged request-latency lane.
    pub latency: LatencyLane,
}

/// Final state of one tenant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant id (submission order).
    pub id: u32,
    /// Program key.
    pub app: String,
    /// `completed`, `exited[c]`, `denied[nr:reason]`, `seccomp[nr]`,
    /// `faulted`, `stalled`, or `compile-error: …`.
    pub status: String,
    /// Requests / transactions / downloads served.
    pub served: u64,
    /// Workload target.
    pub target: u64,
    /// Scheduler quanta consumed.
    pub turns: u64,
    /// Quanta that ended [`RunStatus::Idle`] (world parked on input).
    pub parked: u64,
    /// Virtual cycles of the tenant's world at finalization.
    pub cycles: u64,
    /// Traps delivered to this tenant's monitor.
    pub traps: u64,
    /// Traps settled by the tier-1 prefilter (no full walk).
    pub tier1_hits: u64,
    /// Deny-audit records the monitor emitted.
    pub denies: u64,
    /// Per-tenant request latency.
    pub latency: LatencyLane,
}

/// The full serve report `bastion serve --json` writes: fleet
/// aggregates, per-app lanes and one row per tenant (`serve_bench` writes
/// only the aggregates and lanes, as records, to `BENCH_serve.json`).
/// Deliberately excludes `jobs` and wall-clock time so the same config is
/// byte-identical at any parallelism.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Report discriminator (`"serve"`).
    pub bench: String,
    /// Tenants submitted.
    pub tenants: u64,
    /// Mix / schedule seed.
    pub seed: u64,
    /// Scheduler quantum (cycles).
    pub quantum: u64,
    /// Tenants admitted by the queue.
    pub admitted: u64,
    /// Ids rejected by the admission queue (submission order).
    pub rejected: Vec<u32>,
    /// Tenants that finished their whole workload.
    pub completed: u64,
    /// Tenants evicted early (denied / seccomp / faulted / stalled).
    pub evicted: u64,
    /// Requests served across the fleet.
    pub total_requests: u64,
    /// Response payload bytes across the fleet.
    pub total_bytes: u64,
    /// Scheduler quanta issued across the fleet.
    pub total_turns: u64,
    /// Traps across the fleet.
    pub total_traps: u64,
    /// Monitor deny records across the fleet.
    pub total_denies: u64,
    /// Sum of tenant world clocks (virtual fleet work).
    pub fleet_cycles: u64,
    /// Fleet-wide request latency.
    pub request_latency: LatencyLane,
    /// Fleet-wide per-trap verification latency.
    pub verify_latency: LatencyLane,
    /// Per-application aggregates (sorted by key).
    pub apps: Vec<AppLane>,
    /// One row per admitted tenant, id order.
    pub rows: Vec<TenantReport>,
}

impl ServeReport {
    /// `bastion top`-style fixed-width table: fleet summary plus one row
    /// per tenant. Deterministic byte-for-byte for a given config.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bastiond: {} submitted, {} admitted, {} rejected | completed {} evicted {}",
            self.tenants,
            self.admitted,
            self.rejected.len(),
            self.completed,
            self.evicted,
        );
        let _ = writeln!(
            out,
            "fleet: {} requests, {} traps, {} denies, {} cycles | req p50/p95/p99/p999 = {}/{}/{}/{}",
            self.total_requests,
            self.total_traps,
            self.total_denies,
            self.fleet_cycles,
            self.request_latency.p50,
            self.request_latency.p95,
            self.request_latency.p99,
            self.request_latency.p999,
        );
        for lane in &self.apps {
            let _ = writeln!(
                out,
                "  app {:<14} tenants {:>4}  requests {:>7}  p50 {:>8}  p95 {:>8}  p99 {:>8}  p999 {:>8}",
                lane.app,
                lane.tenants,
                lane.latency.count,
                lane.latency.p50,
                lane.latency.p95,
                lane.latency.p99,
                lane.latency.p999,
            );
        }
        let _ = writeln!(
            out,
            "{:>5} {:<14} {:<28} {:>7} {:>6} {:>6} {:>9} {:>6} {:>8} {:>8} {:>8}",
            "id",
            "app",
            "status",
            "served",
            "turns",
            "park",
            "cycles",
            "traps",
            "p50",
            "p99",
            "p999",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>5} {:<14} {:<28} {:>3}/{:<3} {:>6} {:>6} {:>9} {:>6} {:>8} {:>8} {:>8}",
                r.id,
                r.app,
                r.status,
                r.served,
                r.target,
                r.turns,
                r.parked,
                r.cycles,
                r.traps,
                r.latency.p50,
                r.latency.p99,
                r.latency.p999,
            );
        }
        out
    }
}

/// A finished serve run: the serializable report plus the merged fleet
/// metrics snapshot (for Prometheus / JSONL export).
#[derive(Debug)]
pub struct ServeRun {
    /// The full per-tenant report.
    pub report: ServeReport,
    /// Fleet-level merged metrics (tenant registries merged in id order).
    pub fleet: MetricsSnapshot,
}

/// Runs the supervisor over the standard seeded tenant mix.
pub fn run_serve(cfg: &ServeConfig) -> ServeRun {
    serve_with_specs(cfg, tenant_mix(cfg))
}

/// Runs the supervisor over an explicit tenant list (tests inject rogue
/// tenants this way).
pub fn serve_with_specs(cfg: &ServeConfig, specs: Vec<TenantSpec>) -> ServeRun {
    let mut queue = AdmissionQueue::new(cfg.admission_capacity);
    for spec in specs {
        queue.submit(spec);
    }
    let (admitted, rejected) = queue.drain();
    let programs = compile_programs(&admitted);
    let shards = shard(admitted, cfg.jobs);
    let per_shard = fleet::run_ordered(shards.len().max(1), shards, |_, sh| {
        run_shard(sh, &programs, cfg)
    });

    let mut fleet_reg = MetricsRegistry::new();
    let mut per_app: BTreeMap<String, (u64, QuantileSketch)> = BTreeMap::new();
    let mut rows = Vec::new();
    let mut total_bytes = 0u64;
    for (row, bytes, reg) in per_shard.into_iter().flatten() {
        let entry = per_app.entry(row.app.clone()).or_default();
        entry.0 += 1;
        if let Some(sk) = reg.sketch(REQUEST_CYCLES_SKETCH) {
            entry.1.merge(sk);
        }
        total_bytes += bytes;
        rows.push(row);
        fleet_reg.merge(reg);
    }
    let fleet = fleet_reg.snapshot();

    let completed = rows.iter().filter(|r| r.status == "completed").count() as u64;
    let evicted = rows
        .iter()
        .filter(|r| {
            r.status.starts_with("denied")
                || r.status.starts_with("seccomp")
                || r.status.starts_with("faulted")
                || r.status.starts_with("stalled")
                || r.status.starts_with("compile-error")
        })
        .count() as u64;
    let report = ServeReport {
        bench: "serve".to_string(),
        tenants: cfg.tenants as u64,
        seed: cfg.seed,
        quantum: cfg.quantum,
        admitted: rows.len() as u64,
        rejected,
        completed,
        evicted,
        total_requests: rows.iter().map(|r| r.served).sum(),
        total_bytes,
        total_turns: rows.iter().map(|r| r.turns).sum(),
        total_traps: rows.iter().map(|r| r.traps).sum(),
        total_denies: rows.iter().map(|r| r.denies).sum(),
        fleet_cycles: rows.iter().map(|r| r.cycles).sum(),
        request_latency: LatencyLane::from_snapshot(fleet.sketch(REQUEST_CYCLES_SKETCH)),
        verify_latency: LatencyLane::from_snapshot(fleet.sketch(VERIFY_CYCLES_SKETCH)),
        apps: per_app
            .into_iter()
            .map(|(app, (tenants, sk))| AppLane {
                app,
                tenants,
                latency: LatencyLane::from_sketch(&sk),
            })
            .collect(),
        rows,
    };
    ServeRun { report, fleet }
}

/// Compiles each distinct program once; tenants share the deployment.
fn compile_programs(specs: &[TenantSpec]) -> BTreeMap<String, Result<Deployment, String>> {
    let mut programs = BTreeMap::new();
    for spec in specs {
        let key = spec.kind.key();
        if programs.contains_key(&key) {
            continue;
        }
        let built = match &spec.kind {
            TenantKind::App(app) => app
                .module()
                .map_err(|e| e.to_string())
                .and_then(|m| Deployment::from_module(m).map_err(|e| e.to_string())),
            TenantKind::Custom { name, source } => {
                Deployment::from_minic(name, &[source.as_str()]).map_err(|e| e.to_string())
            }
        };
        programs.insert(key, built);
    }
    programs
}

/// Contiguous shards, as equal as possible, preserving id order.
fn shard(specs: Vec<TenantSpec>, jobs: usize) -> Vec<Vec<TenantSpec>> {
    if specs.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, specs.len());
    let n = specs.len();
    let (base, extra) = (n / jobs, n % jobs);
    let mut it = specs.into_iter();
    (0..jobs)
        .map(|i| {
            let take = base + usize::from(i < extra);
            it.by_ref().take(take).collect()
        })
        .collect()
}

/// One live tenant in a shard's run queue.
struct Tenant {
    spec: TenantSpec,
    world: World,
    traffic: Option<Traffic>,
    registry: MetricsRegistry,
    turns: u64,
    parked: u64,
    stall: u32,
}

impl Tenant {
    /// A booted tenant with a fresh client for its own request count (no
    /// client for a custom program or a world that died during boot).
    fn new(spec: TenantSpec, world: World, registry: MetricsRegistry, cfg: &ServeConfig) -> Self {
        let traffic = match &spec.kind {
            TenantKind::App(app) if world.alive_count() > 0 => {
                Some(Traffic::for_app(*app, spec.requests, cfg.concurrency))
            }
            _ => None,
        };
        Tenant {
            spec,
            world,
            traffic,
            registry,
            turns: 0,
            parked: 0,
            stall: 0,
        }
    }
}

enum Turn {
    /// Quantum expired or world parked; re-enter the run queue.
    Yield,
    /// Workload finished or tenant evicted, with its final status.
    Finished(String),
}

/// Admits every tenant of the shard, then round-robins the run queue
/// until it drains. Returns `(row, payload_bytes, registry)` per tenant in
/// submission order.
///
/// Warm admission: the first tenant of each program key boots cold; the
/// shard then checkpoints its world and boot registry, and every later
/// tenant with that key forks from the checkpoint copy-on-write. A boot
/// depends only on the key, and a restore replays a cold run bit for bit,
/// so each forked tenant is the world a cold boot would have built. The
/// checkpoints are dropped before the first turn.
fn run_shard(
    specs: &[TenantSpec],
    programs: &BTreeMap<String, Result<Deployment, String>>,
    cfg: &ServeConfig,
) -> Vec<(TenantReport, u64, MetricsRegistry)> {
    let _interp = LegacyInterpGuard::set(false);
    let mut done: BTreeMap<u32, (TenantReport, u64, MetricsRegistry)> = BTreeMap::new();
    let mut queue: VecDeque<Tenant> = VecDeque::new();
    let mut warm = WarmBoots::new();
    for spec in specs {
        match admit(spec, programs, cfg, &mut warm) {
            // A world dead straight out of boot never enters the queue.
            Ok(t) if t.world.alive_count() == 0 => {
                let status = classify(&t.world);
                done.insert(spec.id, finalize(t, status));
            }
            Ok(t) => queue.push_back(t),
            Err(status) => {
                done.insert(spec.id, reject_row(spec, status));
            }
        }
    }
    drop(warm);
    while let Some(mut t) = queue.pop_front() {
        match turn(&mut t, cfg.quantum) {
            Turn::Yield => queue.push_back(t),
            Turn::Finished(status) => {
                done.insert(t.spec.id, finalize(t, status));
            }
        }
    }
    specs
        .iter()
        .map(|s| done.remove(&s.id).expect("every tenant finalized"))
        .collect()
}

/// A shard's boot checkpoints: per program key, the booted world and the
/// registry its boot filled.
type WarmBoots = BTreeMap<String, (WorldSnapshot, MetricsRegistry)>;

/// Admits one tenant: forks it from its program's checkpoint if the shard
/// holds one, else boots it cold and checkpoints the booted world. A
/// program that failed to compile is never checkpointed.
fn admit(
    spec: &TenantSpec,
    programs: &BTreeMap<String, Result<Deployment, String>>,
    cfg: &ServeConfig,
    warm: &mut WarmBoots,
) -> Result<Tenant, String> {
    let key = spec.kind.key();
    if let Some((snap, registry)) = warm.get(&key) {
        let world = World::restore(snap);
        return Ok(Tenant::new(spec.clone(), world, registry.clone(), cfg));
    }
    let mut t = boot(spec.clone(), programs, cfg)?;
    warm.insert(key, (t.world.snapshot(), t.registry.clone()));
    Ok(t)
}

/// Boots one tenant: fresh world, VFS fixtures, protected launch, run to
/// the accept loop. Boot telemetry (monitor init, boot traps) lands in
/// the tenant's registry.
fn boot(
    spec: TenantSpec,
    programs: &BTreeMap<String, Result<Deployment, String>>,
    cfg: &ServeConfig,
) -> Result<Tenant, String> {
    let d = match programs.get(&spec.kind.key()) {
        Some(Ok(d)) => d,
        Some(Err(e)) => return Err(format!("compile-error: {e}")),
        None => return Err("compile-error: program missing".to_string()),
    };
    let mut world = d.world();
    if let TenantKind::App(app) = &spec.kind {
        app.setup_vfs(&mut world);
    }
    let guard = TelemetryGuard::enable(TURN_SPANS);
    d.boot(&mut world, &Protection::full(), BOOT_BUDGET);
    let (_, registry) = guard.finish();
    Ok(Tenant::new(spec, world, registry, cfg))
}

/// One scheduler quantum: pump the tenant's client side, run the world
/// for `quantum` cycles, fold the turn's telemetry into the tenant.
fn turn(t: &mut Tenant, quantum: u64) -> Turn {
    let guard = TelemetryGuard::enable(TURN_SPANS);
    let progressed = t.traffic.as_mut().is_some_and(|tr| tr.pump(&mut t.world));
    let status = t.world.run(quantum);
    let (_, reg) = guard.finish();
    t.registry.merge(reg);
    t.turns += 1;
    match status {
        RunStatus::AllExited => Turn::Finished(classify(&t.world)),
        RunStatus::Budget => {
            t.stall = 0;
            Turn::Yield
        }
        RunStatus::Idle => {
            // Parked: nothing runnable and no sleeper pending (sleepers are
            // absorbed inside `World::run` via its next-wake fast-forward).
            // Progress can only come from a later client pump.
            t.parked += 1;
            if t.traffic.as_ref().is_some_and(Traffic::done) {
                return Turn::Finished("completed".to_string());
            }
            if progressed {
                t.stall = 0;
                Turn::Yield
            } else {
                t.stall += 1;
                if t.stall >= STALL_LIMIT {
                    Turn::Finished("stalled".to_string())
                } else {
                    Turn::Yield
                }
            }
        }
    }
}

/// Status string for a fully exited world. A defense kill on any process
/// marks the tenant denied/seccomp/faulted; otherwise the first process's
/// exit code is reported.
fn classify(world: &World) -> String {
    for p in &world.procs {
        match &p.exit {
            Some(ExitReason::MonitorKill { nr, reason }) => {
                return format!("denied[{nr}:{reason}]")
            }
            Some(ExitReason::SeccompKill { nr }) => return format!("seccomp[{nr}]"),
            Some(ExitReason::Fault(_)) => return "faulted".to_string(),
            _ => {}
        }
    }
    match world.procs.first().and_then(|p| p.exit.as_ref()) {
        Some(ExitReason::Exited(c)) => format!("exited[{c}]"),
        _ => "exited".to_string(),
    }
}

/// Finalizes a tenant: detach the monitor for its stats, snapshot its
/// registry, and build the report row.
fn finalize(mut t: Tenant, status: String) -> (TenantReport, u64, MetricsRegistry) {
    let (tier1_hits, denies) = crate::chaos::monitor_report(&mut t.world)
        .map_or((0, 0), |(stats, log)| {
            (stats.prefilter_hits, log.len() as u64)
        });
    let snap = t.registry.snapshot();
    let row = TenantReport {
        id: t.spec.id,
        app: t.spec.kind.key(),
        status,
        served: t.traffic.as_ref().map_or(0, Traffic::served),
        target: t.traffic.as_ref().map_or(0, Traffic::target),
        turns: t.turns,
        parked: t.parked,
        cycles: t.world.now(),
        traps: t.world.trap_count,
        tier1_hits,
        denies,
        latency: LatencyLane::from_snapshot(snap.sketch(REQUEST_CYCLES_SKETCH)),
    };
    let bytes = t.traffic.as_ref().map_or(0, Traffic::bytes);
    (row, bytes, t.registry)
}

/// Row for a tenant that never booted (compile failure).
fn reject_row(spec: &TenantSpec, status: String) -> (TenantReport, u64, MetricsRegistry) {
    (
        TenantReport {
            id: spec.id,
            app: spec.kind.key(),
            status,
            served: 0,
            target: spec.requests,
            turns: 0,
            parked: 0,
            cycles: 0,
            traps: 0,
            tier1_hits: 0,
            denies: 0,
            latency: LatencyLane::default(),
        },
        0,
        MetricsRegistry::new(),
    )
}

/// All three applications appear in any mix of ≥ 8 tenants (used by smoke
/// checks to assert coverage).
pub fn mix_covers_all_apps(specs: &[TenantSpec]) -> bool {
    ALL_APPS.iter().all(|app| {
        specs
            .iter()
            .any(|s| matches!(&s.kind, TenantKind::App(a) if a == app))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_queue_rejects_overflow_in_order() {
        let mut q = AdmissionQueue::new(2);
        for id in 0..4 {
            q.submit(TenantSpec {
                id,
                kind: TenantKind::App(App::Webserve),
                requests: 1,
            });
        }
        assert_eq!(q.len(), 2);
        let (admitted, rejected) = q.drain();
        assert_eq!(admitted.iter().map(|s| s.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(rejected, [2, 3]);
    }

    #[test]
    fn tenant_mix_is_seed_deterministic_and_covering() {
        let cfg = ServeConfig::new(32, 7);
        let a = tenant_mix(&cfg);
        let b = tenant_mix(&cfg);
        assert_eq!(a.len(), 32);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind.key(), y.kind.key());
            assert_eq!(x.requests, y.requests);
        }
        assert!(mix_covers_all_apps(&a));
        let other = tenant_mix(&ServeConfig::new(32, 8));
        assert!(
            a.iter()
                .zip(&other)
                .any(|(x, y)| x.kind.key() != y.kind.key()),
            "different seeds must draw different mixes"
        );
    }

    #[test]
    fn sharding_is_contiguous_and_exhaustive() {
        let cfg = ServeConfig::new(10, 0);
        let specs = tenant_mix(&cfg);
        let shards = shard(specs, 4);
        assert_eq!(shards.len(), 4);
        let sizes: Vec<usize> = shards.iter().map(Vec::len).collect();
        assert_eq!(sizes, [3, 3, 2, 2]);
        let ids: Vec<u32> = shards.iter().flatten().map(|s| s.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert!(shard(Vec::new(), 4).is_empty());
    }

    #[test]
    fn single_tenant_serves_its_whole_workload() {
        let mut cfg = ServeConfig::new(1, 3);
        cfg.requests_per_tenant = 6;
        let run = run_serve(&cfg);
        let r = &run.report;
        assert_eq!(r.admitted, 1);
        assert_eq!(r.completed, 1);
        assert_eq!(r.evicted, 0);
        assert_eq!(r.rows[0].served, r.rows[0].target);
        assert!(r.rows[0].turns > 1, "quantum must force multiple turns");
        assert!(r.total_traps > 0, "protected tenant must trap");
        assert_eq!(r.request_latency.count, r.total_requests);
        assert!(run.fleet.sketch(REQUEST_CYCLES_SKETCH).is_some());
    }

    /// The `vm.steps` counter (`bastion_vm_steps` in `bastion serve
    /// --prom`) counts every guest step, syscall traps included: per
    /// tenant it equals the world's own step count, and the serve run's
    /// fleet counter equals their sum.
    #[test]
    fn vm_steps_counter_equals_world_steps_on_a_serve_run() {
        let _interp = LegacyInterpGuard::set(false);
        let mut cfg = ServeConfig::new(3, 2);
        cfg.requests_per_tenant = 4;
        let specs = tenant_mix(&cfg);
        let programs = compile_programs(&specs);
        let mut steps = 0;
        for spec in &specs {
            let mut t = boot(spec.clone(), &programs, &cfg).expect("mix compiles");
            while t.world.alive_count() > 0 {
                if let Turn::Finished(_) = turn(&mut t, cfg.quantum) {
                    break;
                }
            }
            let counted = t.registry.snapshot().counter("vm.steps");
            assert_eq!(counted, Some(t.world.steps), "tenant {}", spec.id);
            steps += t.world.steps;
        }
        let run = serve_with_specs(&cfg, specs);
        assert_eq!(run.fleet.counter("vm.steps"), Some(steps));
    }

    #[test]
    fn custom_exit_tenant_finishes_without_traffic() {
        let cfg = ServeConfig::new(1, 0);
        let spec = TenantSpec {
            id: 0,
            kind: TenantKind::Custom {
                name: "ret7".to_string(),
                source: "long main() { return 7; }".to_string(),
            },
            requests: 0,
        };
        let run = serve_with_specs(&cfg, vec![spec]);
        assert_eq!(run.report.rows[0].status, "exited[7]");
        assert_eq!(run.report.completed, 0);
        assert_eq!(run.report.evicted, 0);
    }

    /// The cold reference for warm admission: every tenant boots its own
    /// world through `boot` and runs to completion alone (tenants are
    /// independent, so the round-robin order cannot change a row). Returns
    /// the rows, the payload bytes and the fleet registry merged in id
    /// order.
    fn cold_reference(
        cfg: &ServeConfig,
        specs: &[TenantSpec],
    ) -> (Vec<TenantReport>, u64, MetricsSnapshot) {
        let _interp = LegacyInterpGuard::set(false);
        let programs = compile_programs(specs);
        let (mut rows, mut bytes, mut fleet) = (Vec::new(), 0, MetricsRegistry::new());
        for spec in specs {
            let (row, b, reg) = match boot(spec.clone(), &programs, cfg) {
                Err(status) => reject_row(spec, status),
                Ok(t) if t.world.alive_count() == 0 => {
                    let status = classify(&t.world);
                    finalize(t, status)
                }
                Ok(mut t) => loop {
                    if let Turn::Finished(status) = turn(&mut t, cfg.quantum) {
                        break finalize(t, status);
                    }
                },
            };
            rows.push(row);
            bytes += b;
            fleet.merge(reg);
        }
        (rows, bytes, fleet.snapshot())
    }

    /// Asserts a serve run equals the cold reference row for row, in its
    /// fleet totals and in its merged fleet metrics.
    fn assert_matches_cold(cfg: &ServeConfig, specs: &[TenantSpec]) -> ServeReport {
        let (rows, bytes, fleet) = cold_reference(cfg, specs);
        let run = serve_with_specs(cfg, specs.to_vec());
        let r = &run.report;
        assert_eq!(
            r.rows, rows,
            "jobs={}: rows differ from cold boots",
            cfg.jobs
        );
        let sum = |f: fn(&TenantReport) -> u64| rows.iter().map(f).sum::<u64>();
        assert_eq!(r.total_requests, sum(|t| t.served));
        assert_eq!(r.total_bytes, bytes);
        assert_eq!(r.total_turns, sum(|t| t.turns));
        assert_eq!(r.total_traps, sum(|t| t.traps));
        assert_eq!(r.total_denies, sum(|t| t.denies));
        assert_eq!(r.fleet_cycles, sum(|t| t.cycles));
        assert_eq!(run.fleet, fleet, "jobs={}: fleet metrics differ", cfg.jobs);
        run.report
    }

    fn spec(id: u32, kind: TenantKind, requests: u64) -> TenantSpec {
        TenantSpec { id, kind, requests }
    }

    fn custom(name: &str, source: &str) -> TenantKind {
        TenantKind::Custom {
            name: name.to_string(),
            source: source.to_string(),
        }
    }

    #[test]
    fn warm_admission_matches_cold_boots() {
        let web = || TenantKind::App(App::Webserve);
        let specs = vec![
            spec(0, web(), 3),
            spec(1, web(), 5),
            spec(2, TenantKind::App(App::Dbkv), 4),
            spec(3, web(), 4),
            spec(4, web(), 2),
            spec(5, TenantKind::App(App::Ftpd), 1),
            spec(6, custom("ret7", "long main() { return 7; }"), 0),
            spec(7, web(), 6),
        ];
        // jobs = 3 shards 3/3/2: two shards fork webserve tenants from
        // checkpoints of their own.
        for jobs in [1, 3] {
            let cfg = ServeConfig::new(specs.len(), 0).with_jobs(jobs);
            let r = assert_matches_cold(&cfg, &specs);
            assert_eq!(r.completed, 7, "{}", r.render());
            assert_eq!(r.rows[6].status, "exited[7]");
        }

        // A second tenant of a program forks from the first one's
        // checkpoint and shares its unwritten pages.
        let _interp = LegacyInterpGuard::set(false);
        let cfg = ServeConfig::new(2, 0);
        let programs = compile_programs(&specs);
        let mut warm = WarmBoots::new();
        let first = admit(&specs[0], &programs, &cfg, &mut warm).expect("boots");
        assert_eq!(warm.len(), 1, "the first tenant is checkpointed");
        let second = admit(&specs[1], &programs, &cfg, &mut warm).expect("forks");
        assert_eq!(warm.len(), 1, "a forked tenant adds no checkpoint");
        assert!(
            second.world.page_stats().1 > 0,
            "a forked tenant shares its pages"
        );
        assert_eq!(second.world.now(), first.world.now());
        assert_eq!(second.world.trap_count, first.world.trap_count);
        assert_eq!(second.traffic.as_ref().map(Traffic::target), Some(5));
    }

    #[test]
    fn tenants_dying_or_denied_in_boot_fork_the_same_rows() {
        let family = bastion_attacks::generate::FAMILIES
            .iter()
            .find(|f| f.name == "ct-indirect-execve")
            .expect("family table");
        let rogue = bastion_attacks::generate::Generator::new(5)
            .program(family)
            .source;
        let exits = "long main() { return 3; }";
        let specs: Vec<TenantSpec> = (0..3)
            .map(|id| spec(id, custom("exits", exits), 0))
            .chain((3..6).map(|id| spec(id, custom("rogue", &rogue), 0)))
            .collect();
        let cfg = ServeConfig::new(specs.len(), 0);
        let r = assert_matches_cold(&cfg, &specs);
        for row in &r.rows[..3] {
            assert_eq!(row.status, "exited[3]");
        }
        for row in &r.rows[3..] {
            assert!(row.status.starts_with("denied["), "{}", r.render());
            assert!(row.denies > 0);
        }
        assert_eq!(r.evicted, 3);
    }

    #[test]
    fn compile_error_key_is_rejected_per_tenant_and_never_checkpointed() {
        let specs: Vec<TenantSpec> = (0..3)
            .map(|id| spec(id, custom("broken", "long main( {"), 0))
            .collect();
        let cfg = ServeConfig::new(specs.len(), 0);
        let r = assert_matches_cold(&cfg, &specs);
        assert!(r.rows.iter().all(|t| t.status.starts_with("compile-error")));
        assert_eq!(r.evicted, 3);

        let programs = compile_programs(&specs);
        let mut warm = WarmBoots::new();
        for s in &specs {
            assert!(admit(s, &programs, &cfg, &mut warm).is_err());
        }
        assert!(warm.is_empty(), "a compile error must not be checkpointed");
    }

    #[test]
    fn compile_error_tenant_is_reported_not_booted() {
        let cfg = ServeConfig::new(1, 0);
        let spec = TenantSpec {
            id: 0,
            kind: TenantKind::Custom {
                name: "broken".to_string(),
                source: "long main( {".to_string(),
            },
            requests: 0,
        };
        let run = serve_with_specs(&cfg, vec![spec]);
        assert!(run.report.rows[0].status.starts_with("compile-error"));
        assert_eq!(run.report.evicted, 1);
    }
}
