//! Traced replicas of the three top-level entry points, built only from public
//! calls, with a span around every call into a layer.
//!
//! `serve_with_specs`, `run_app_benchmark` and `chaos_matrix` hide their
//! layer calls, so the traced run re-drives the same calls in the same
//! order from here. Each replica returns the same virtual fingerprint the
//! untraced run reports; [`crate::main`] refuses a trace whose fingerprint
//! differs, so a replica that drifted from the program cannot go unseen.

use crate::trace::{child, span, Timed};
use crate::workloads::{
    chaos_fingerprint, grid_line, grid_protections, serve_config, serve_fingerprint, ChaosTotals,
    Inputs,
};
use bastion::apps::traffic::Traffic;
use bastion::apps::{ftpd, loadgen, App, ALL_APPS};
use bastion::attacks::{catalog, generate, AttackEnv};
use bastion::chaos::{attack_chaos_mode, benign_schedules, monitor_report, monitor_stats};
use bastion::compiler::BastionCompiler;
use bastion::fleet::BENIGN_SEEDS;
use bastion::harness::WorkloadSize;
use bastion::kernel::{ExitReason, FaultSchedule, LegacyInterpGuard, RunStatus, World};
use bastion::monitor::{ContextConfig, Monitor};
use bastion::obs::{MetricsRegistry, TelemetryGuard};
use bastion::serve::{LatencyLane, TenantKind, TenantReport, TenantSpec};
use bastion::vm::{CostModel, Image, Machine};
use bastion::{Deployment, Protection};
use std::collections::VecDeque;
use std::sync::Arc;

// Constants of the entry points replayed here; a change to any of them shows
// up as a fingerprint mismatch, not as a silently different workload.
/// `serve`: cycle budget for booting a tenant to its accept loop.
const SERVE_BOOT_BUDGET: u64 = 1_000_000_000;
/// `serve`: span-ring capacity per tenant turn.
const TURN_SPANS: usize = 64;
/// `serve`: consecutive no-progress idle turns before a stall eviction.
const STALL_LIMIT: u32 = 64;
/// `harness` and `chaos`: boot budget of a grid or benign-chaos world.
const BOOT_BUDGET: u64 = 1_000_000_000;
/// `chaos`: cycle slice between the lenient client's polls.
const SLICE: u64 = 250_000;
/// `chaos`: requests per benign cell.
const BENIGN_REQUESTS: u64 = 6;

/// Virtual totals a traced run gathers for the per-layer metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Guest instructions the traced worlds executed.
    pub steps: u64,
    /// Monitor traps those worlds delivered.
    pub traps: u64,
    /// Monitor cycles spent on traps (trace cycles minus monitor init).
    pub verify_cycles: u64,
    /// Monitors attached, and their summed init and prefilter-compile
    /// cycles.
    pub attaches: u64,
    pub init_cycles: u64,
    pub prefilter_compile_cycles: u64,
    /// Payload bytes the clients received.
    pub payload_bytes: u64,
    /// bastiond scheduler turns, and the ones that ended parked.
    pub turns: u64,
    pub parked: u64,
    /// Pages resident in, and shared copy-on-write by, each finished
    /// world, summed.
    pub resident_pages: u64,
    pub shared_pages: u64,
    /// Chaos: faults fired, as the matrix counts them.
    pub faults_fired: u64,
}

impl Totals {
    /// Adds a finished world's counters, less what it already held when
    /// it was forked from a checkpoint (`base`).
    fn add_world(&mut self, world: &World, base: (u64, u64, u64)) {
        let (resident, shared) = world.page_stats();
        self.steps += world.steps - base.0;
        self.traps += world.trap_count - base.1;
        self.verify_cycles += world.trace_cycles - base.2;
        self.resident_pages += resident;
        self.shared_pages += shared;
    }

    fn add_monitor(&mut self, init_cycles: u64, prefilter_compile_cycles: u64) {
        self.attaches += 1;
        self.init_cycles += init_cycles;
        self.prefilter_compile_cycles += prefilter_compile_cycles;
        self.verify_cycles -= init_cycles;
    }
}

/// What a traced repetition produced.
#[derive(Debug)]
pub struct Replica {
    pub fingerprint: Vec<String>,
    pub totals: Totals,
}

/// Runs the traced replica of `inputs`' workload.
pub fn run(inputs: &Inputs) -> Replica {
    let _interp = LegacyInterpGuard::set(false);
    match inputs {
        Inputs::Serve(specs) => span("core.serve", 0, || serve(specs)),
        Inputs::Grid => span("core.grid", 0, grid),
        Inputs::Chaos(seeds) => span("core.chaos", 0, || chaos(seeds)),
    }
}

fn app_of(spec: &TenantSpec) -> App {
    match spec.kind {
        TenantKind::App(app) => app,
        TenantKind::Custom { .. } => unreachable!("the benchmark only submits app tenants"),
    }
}

/// Compiles `app` the way every entry point does: front end, then (when a
/// monitor will attach) the BASTION pass, then the image loader.
fn build(
    app: App,
    compiler: Option<&BastionCompiler>,
) -> (Arc<Image>, Option<bastion::compiler::ContextMetadata>) {
    let module = child("minic.front", || {
        app.module().expect("shipped apps compile")
    });
    match compiler {
        Some(c) => {
            let out = child("compiler.instrument", || {
                c.compile(module).expect("instrumentation succeeds")
            });
            let image = child("vm.image_load", || {
                Image::load(out.module).expect("image loads")
            });
            (Arc::new(image), Some(out.metadata))
        }
        None => {
            let image = child("vm.image_load", || {
                Image::load(module).expect("image loads")
            });
            (Arc::new(image), None)
        }
    }
}

// ---------------------------------------------------------------- serve

/// One live tenant of the replayed supervisor.
struct Tenant {
    spec: TenantSpec,
    world: World,
    traffic: Option<Traffic>,
    registry: MetricsRegistry,
    turns: u64,
    parked: u64,
    stall: u32,
}

/// `serve_with_specs` at one worker: compile once, boot every tenant,
/// round-robin the run queue, finalize in id order.
fn serve(specs: &[TenantSpec]) -> Replica {
    let cfg = serve_config(specs.len());
    let app = app_of(&specs[0]);
    assert!(
        specs.iter().all(|s| app_of(s) == app),
        "one program per fleet"
    );
    let (image, metadata) = build(app, Some(&BastionCompiler::new()));
    let d = Deployment {
        image,
        metadata: metadata.expect("instrumented build carries metadata"),
        cost: CostModel::default(),
    };

    let mut done: Vec<Option<(TenantReport, u64, MetricsRegistry)>> =
        specs.iter().map(|_| None).collect();
    let mut totals = Totals::default();
    let mut queue = VecDeque::new();
    for (slot, spec) in specs.iter().enumerate() {
        let t = span("core.boot", spec.id, || boot(spec, &d, cfg.concurrency));
        if t.world.alive_count() == 0 {
            let status = classify(&t.world);
            done[slot] = Some(span("core.finalize", spec.id, || {
                finalize(t, status, &mut totals)
            }));
        } else {
            queue.push_back((slot, t));
        }
    }
    while let Some((slot, mut t)) = queue.pop_front() {
        match span("core.turn", t.spec.id, || turn(&mut t, cfg.quantum)) {
            None => queue.push_back((slot, t)),
            Some(status) => {
                let id = t.spec.id;
                done[slot] = Some(span("core.finalize", id, || {
                    finalize(t, status, &mut totals)
                }));
            }
        }
    }

    let mut fleet = MetricsRegistry::new();
    let mut rows = Vec::new();
    for (row, bytes, reg) in done.into_iter().map(|d| d.expect("every tenant finalized")) {
        totals.payload_bytes += bytes;
        fleet.merge(reg);
        rows.push(row);
    }
    let lane = request_lane(&fleet);
    Replica {
        fingerprint: serve_fingerprint(&rows, totals.payload_bytes, &lane),
        totals,
    }
}

/// A registry's request-latency lane, as bastiond reports it.
fn request_lane(reg: &MetricsRegistry) -> LatencyLane {
    let snap = reg.snapshot();
    snap.sketch(loadgen::REQUEST_CYCLES_SKETCH)
        .map_or_else(LatencyLane::default, |s| LatencyLane {
            count: s.count,
            p50: s.p50,
            p95: s.p95,
            p99: s.p99,
            p999: s.p999,
        })
}

fn boot(spec: &TenantSpec, d: &Deployment, concurrency: usize) -> Tenant {
    let app = app_of(spec);
    let mut world = d.world();
    child("apps.setup_vfs", || app.setup_vfs(&mut world));
    let guard = child("obs.telemetry_boot", || TelemetryGuard::enable(TURN_SPANS));
    child("monitor.attach", || {
        d.launch(&mut world, &Protection::full())
    });
    Timed::wrap(&mut world);
    child("kernel.boot_run", || world.run(SERVE_BOOT_BUDGET));
    let (_, registry) = child("obs.telemetry_boot", || guard.finish());
    let traffic =
        (world.alive_count() > 0).then(|| Traffic::for_app(app, spec.requests, concurrency));
    Tenant {
        spec: spec.clone(),
        world,
        traffic,
        registry,
        turns: 0,
        parked: 0,
        stall: 0,
    }
}

/// One quantum; `Some(status)` when the tenant is finished.
fn turn(t: &mut Tenant, quantum: u64) -> Option<String> {
    let guard = child("obs.telemetry", || TelemetryGuard::enable(TURN_SPANS));
    let progressed = child("apps.pump", || {
        t.traffic.as_mut().is_some_and(|tr| tr.pump(&mut t.world))
    });
    let status = child("kernel.run", || t.world.run(quantum));
    child("obs.telemetry", || {
        let (_, reg) = guard.finish();
        t.registry.merge(reg);
    });
    t.turns += 1;
    match status {
        RunStatus::AllExited => Some(classify(&t.world)),
        RunStatus::Budget => {
            t.stall = 0;
            None
        }
        RunStatus::Idle => {
            t.parked += 1;
            if t.traffic.as_ref().is_some_and(Traffic::done) {
                return Some("completed".to_string());
            }
            if progressed {
                t.stall = 0;
                None
            } else {
                t.stall += 1;
                (t.stall >= STALL_LIMIT).then(|| "stalled".to_string())
            }
        }
    }
}

/// bastiond's status string for a fully exited world.
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

fn finalize(
    mut t: Tenant,
    status: String,
    totals: &mut Totals,
) -> (TenantReport, u64, MetricsRegistry) {
    totals.add_world(&t.world, (0, 0, 0));
    totals.turns += t.turns;
    totals.parked += t.parked;
    let (tier1_hits, denies) = monitor_report(&mut t.world).map_or((0, 0), |(stats, log)| {
        totals.add_monitor(stats.init_cycles, stats.prefilter_compile_cycles);
        (stats.prefilter_hits, log.len() as u64)
    });
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
        latency: request_lane(&t.registry),
    };
    let bytes = t.traffic.as_ref().map_or(0, Traffic::bytes);
    (row, bytes, t.registry)
}

// ---------------------------------------------------------------- grid

/// Builds and boots one grid world the way `run_app_benchmark` does.
fn grid_world(app: App, p: &Protection) -> World {
    let compiler = BastionCompiler::new();
    let (image, metadata) = build(app, p.has_monitor().then_some(&compiler));
    let cost = CostModel::default();
    let mut world = World::new(cost);
    child("apps.setup_vfs", || app.setup_vfs(&mut world));
    let mut machine = Machine::new(image.clone(), cost);
    p.hardening.apply(&mut machine);
    let pid = world.spawn(machine);
    if let (Some(cfg), Some(md)) = (p.monitor, metadata.as_ref()) {
        child("monitor.attach", || {
            bastion::monitor::protect(&mut world, pid, &image, md, cfg)
        });
        Timed::wrap(&mut world);
    }
    child("kernel.boot_run", || world.run(BOOT_BUDGET));
    world
}

/// The grid's set-up: build and boot all nine worlds, with no load.
/// Returns whether every world survived boot.
pub fn grid_boot_all() -> bool {
    ALL_APPS
        .into_iter()
        .flat_map(|app| grid_protections().map(|p| (app, p)))
        .all(|(app, p)| grid_world(app, &p).alive_count() > 0)
}

fn grid() -> Replica {
    let size = WorkloadSize::standard();
    let mut totals = Totals::default();
    let mut fingerprint = Vec::new();
    let cells = ALL_APPS
        .into_iter()
        .flat_map(|app| grid_protections().map(|p| (app, p)));
    for (i, (app, p)) in cells.enumerate() {
        let line = span("core.grid_cell", i as u32, || {
            let mut world = grid_world(app, &p);
            assert!(world.alive_count() > 0, "{} died during boot", app.id());
            let cost = CostModel::default();
            let (metric, bytes) = child("apps.loadgen", || match app {
                App::Webserve => {
                    let s = loadgen::http_load(
                        &mut world,
                        app.port(),
                        size.http_concurrency,
                        size.http_requests,
                    );
                    (s.throughput_mb_s(cost.cpu_hz), s.bytes)
                }
                App::Dbkv => {
                    let s = loadgen::tpcc_load(
                        &mut world,
                        app.port(),
                        size.tpcc_sessions,
                        size.tpcc_tx,
                    );
                    (s.notpm(cost.cpu_hz), 0)
                }
                App::Ftpd => {
                    let s = loadgen::ftp_load(
                        &mut world,
                        app.port(),
                        size.ftp_downloads,
                        ftpd::FILE_PATH,
                    );
                    (s.seconds_for(100_000_000, cost.cpu_hz), s.bytes)
                }
            });
            totals.payload_bytes += bytes;
            totals.add_world(&world, (0, 0, 0));
            let stats = world.take_tracer().and_then(|t| {
                t.as_any()
                    .downcast_ref::<Monitor>()
                    .map(|m| m.stats.clone())
            });
            if let Some(s) = stats {
                totals.add_monitor(s.init_cycles, s.prefilter_compile_cycles);
            }
            grid_line(
                app,
                p.label,
                world.now(),
                world.steps,
                world.trap_count,
                world.trace_cycles,
                metric,
            )
        });
        fingerprint.push(line);
    }
    Replica {
        fingerprint,
        totals,
    }
}

// ---------------------------------------------------------------- chaos

/// Builds and boots `app` for benign chaos (no hardening, full monitor).
fn benign_world(app: App) -> World {
    let (image, metadata) = build(app, Some(&BastionCompiler::new()));
    let cost = CostModel::default();
    let mut world = World::new(cost);
    child("apps.setup_vfs", || app.setup_vfs(&mut world));
    let pid = world.spawn(Machine::new(image.clone(), cost));
    let md = metadata.expect("instrumented build carries metadata");
    child("monitor.attach", || {
        bastion::monitor::protect(&mut world, pid, &image, &md, ContextConfig::full())
    });
    Timed::wrap(&mut world);
    child("kernel.boot_run", || world.run(BOOT_BUDGET));
    assert!(
        world.alive_count() > 0,
        "{} died during clean boot",
        app.id()
    );
    world
}

/// The chaos set-up: every warm checkpoint the matrix forks cells from.
pub fn chaos_warm_all() -> bool {
    for &(app, _) in BENIGN_SEEDS {
        let _ = benign_world(app).snapshot();
    }
    for s in catalog() {
        let _ = AttackEnv::deploy(s.victim, Some(ContextConfig::full()), s.extended_set, false)
            .checkpoint();
    }
    true
}

/// One benign cell: fault schedule installed after boot, then lenient
/// requests that tolerate a degraded or killed server.
fn drive_benign(world: &mut World, app: App, schedule: FaultSchedule) -> (u64, u64, u64) {
    world.install_faults(schedule);
    let request: &[u8] = match app {
        App::Webserve => b"GET /index.html HTTP/1.1\r\nHost: chaos\r\n\r\n",
        App::Dbkv => b"NEWORDER 1 17 3\n",
        App::Ftpd => b"USER chaos\n",
    };
    let (mut served, mut attempted, mut bytes) = (0, 0, 0u64);
    child("apps.chaos_client", || {
        for _ in 0..BENIGN_REQUESTS {
            if world.alive_count() == 0 {
                break;
            }
            attempted += 1;
            let Some(conn) = world.net_connect(app.port()) else {
                child("kernel.run", || world.run(SLICE));
                continue;
            };
            world.net_send(conn, request);
            let mut got = false;
            for _ in 0..32 {
                child("kernel.run", || world.run(SLICE));
                let chunk = world.net_recv(conn);
                if !chunk.is_empty() {
                    bytes += chunk.len() as u64;
                    got = true;
                    break;
                }
                if world.alive_count() == 0 {
                    break;
                }
            }
            served += u64::from(got);
            world.net_close(conn);
        }
    });
    child("kernel.run", || world.run(20_000_000));
    (served, attempted, bytes)
}

fn chaos(seeds: &[u64]) -> Replica {
    let mut totals = Totals::default();
    let mut benign_lines = Vec::new();
    for (i, &(app, seed)) in BENIGN_SEEDS.iter().enumerate() {
        span("chaos.benign", i as u32, || {
            let mut booted = benign_world(app);
            // Cells fork from the booted world, so each cell counts only
            // what it ran past the checkpoint.
            let base = (booted.steps, booted.trap_count, booted.trace_cycles);
            let ck = child("kernel.snapshot", || booted.snapshot());
            totals.add_world(&booted, (0, 0, 0));
            if let Some((s, _)) = monitor_report(&mut booted) {
                totals.add_monitor(s.init_cycles, s.prefilter_compile_cycles);
            }
            for (label, schedule) in benign_schedules(seed) {
                let mut world = child("kernel.restore", || World::restore(&ck));
                let (served, attempted, bytes) = drive_benign(&mut world, app, schedule);
                totals.payload_bytes += bytes;
                let faults = world.fault_log().len() as u64;
                let survived = world.alive_count() > 0;
                totals.add_world(&world, base);
                let stats = monitor_stats(&mut world).expect("monitor attached");
                benign_lines.push(format!(
                    "{:<10} {:<9} {:>6} {:>9} {:>7} {:>8} {:>8}  {:?}",
                    app.id(),
                    label,
                    served,
                    attempted,
                    faults,
                    stats.substrate_strikes,
                    survived,
                    stats.mode
                ));
            }
        });
    }

    let mut t = ChaosTotals::default();
    for (i, scenario) in catalog().iter().enumerate() {
        let reports = span("chaos.attack", i as u32, || {
            attack_chaos_mode(scenario, ContextConfig::full(), seeds, false)
        });
        for r in &reports {
            t.faults_fired += r.faults_fired;
            t.deny_total += r.deny_records.len() as u64;
            t.join_total += r.fault_deny_joins.len() as u64;
            if !r.denies_carry_flight() {
                t.flight_missing += r
                    .deny_records
                    .iter()
                    .filter(|d| {
                        d.flight
                            .last()
                            .is_none_or(|e| e.trap != d.trap_seq || e.tier != 2)
                    })
                    .count() as u64;
            }
        }
        t.flipped += u64::from(!reports.iter().all(|r| r.attack_contained()));
    }
    for (i, (_, _, source)) in generate::corpus().into_iter().enumerate() {
        let rep = span("chaos.generated", i as u32, || {
            generate::run_protected(source)
        });
        if rep.flipped_to_allow() {
            t.generated_flipped += 1;
            t.flipped += 1;
        }
    }
    totals.faults_fired = t.faults_fired;
    Replica {
        fingerprint: chaos_fingerprint(&t, &benign_lines),
        totals,
    }
}

// ---------------------------------------------------------------- probe

/// Times `World::snapshot` and `World::restore` on a booted, protected
/// world of each app the workload runs (three of each), outside the
/// traced repetition.
pub fn probe_snapshots(inputs: &Inputs) {
    let apps: Vec<App> = match inputs {
        Inputs::Serve(specs) => vec![app_of(&specs[0])],
        Inputs::Grid | Inputs::Chaos(_) => ALL_APPS.to_vec(),
    };
    span("core.probe", 0, || {
        for app in apps {
            let mut world = benign_world(app);
            for _ in 0..3 {
                let snap = child("kernel.snapshot", || world.snapshot());
                drop(child("kernel.restore", || World::restore(&snap)));
            }
        }
    });
}
