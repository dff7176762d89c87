//! Chaos harness: seeded deterministic fault injection against live
//! deployments (DESIGN.md §6d).
//!
//! Two drivers share the [`bastion_kernel::FaultSchedule`] machinery:
//!
//! * **benign chaos** — boots a workload application under a monitor
//!   configuration, installs a fault schedule, and drives traffic with a
//!   *lenient* load generator that tolerates a degraded or killed server
//!   (the stock `loadgen` drivers assert liveness, which is exactly what a
//!   chaos run must not do);
//! * **attack chaos** — replays Table 6 scenarios with faults targeted at
//!   the traps the attack itself produces, asserting the monitor's
//!   fail-closed invariant: **no fault may flip a blocked attack to
//!   Allow**.
//!
//! Fault placement is calibrated, not guessed: the same deterministic
//! world replays identically, so a clean reference run's trap count pins
//! the window where the attack's sensitive syscalls trap, and the chaos
//! run re-targets exactly those traps. Priming traffic (connection
//! set-up, priming requests) stays fault-free, which keeps the attack
//! payload itself deliverable — the faults hit the *verification* of the
//! malicious syscall, the worst case for the monitor.
//!
//! Both drivers fork their cells from a warm copy-on-write checkpoint
//! ([`bastion_kernel::World::snapshot`]) taken right after the fault-free
//! boot, instead of recompiling and rebooting the victim per cell; the
//! fleet's matrix deploys each victim configuration once and shares that
//! checkpoint across every scenario that attacks it. A `cold` flag forces
//! the full replay, and reports are byte-identical either way (CI gates
//! the diff). The schedule families cover the monitor-substrate faults
//! (DESIGN.md §6d) plus the `app-flip` family: SFP-style bit flips in the
//! *application's* registers, stack frames and shadow-bound locals at
//! trap entry, which the monitor must survive without ever approving
//! corrupted state.

use crate::{Deployment, Protection};
use bastion_apps::App;
use bastion_attacks::env::{AttackEnv, DeployCheckpoint, RunOutcome};
use bastion_attacks::scenario::Scenario;
use bastion_kernel::{ExitReason, FaultKind, FaultSchedule, Trigger, World};
use bastion_monitor::{ContextConfig, MonitorStats};
use bastion_obs::{flight::verdict as flight_verdict, DenyRecord, FlightDump};
use std::cell::Cell;
use std::sync::{Mutex, Once};

/// Cycle slice between net-poll rounds of the lenient driver.
const SLICE: u64 = 250_000;

/// Recovers monitor statistics from a finished world (detaches the
/// tracer). `None` when no monitor was attached.
pub fn monitor_stats(world: &mut World) -> Option<MonitorStats> {
    monitor_report(world).map(|(stats, _)| stats)
}

/// Recovers monitor statistics *and* the world's deny records from a
/// finished world (detaches the tracer). `None` when no monitor was
/// attached. Every deny kills exactly one process, so the records are the
/// reasons of its `MonitorKill` exits, in trap order; they join against
/// the world's fault log via `DenyRecord::trap_seq` ==
/// `InjectedFault::world_trap`.
pub fn monitor_report(world: &mut World) -> Option<(MonitorStats, Vec<DenyRecord>)> {
    let (resident, shared) = world.page_stats();
    let tracer = world.take_tracer()?;
    let m = tracer.as_any().downcast_ref::<bastion_monitor::Monitor>()?;
    let mut stats = m.stats.clone();
    stats.resident_pages = resident;
    stats.snapshot_shared_pages = shared;
    let mut denies: Vec<DenyRecord> = world
        .procs
        .iter()
        .filter_map(|p| match &p.exit {
            Some(ExitReason::MonitorKill { reason, .. }) => Some(DenyRecord::clone(reason)),
            _ => None,
        })
        .collect();
    denies.sort_by_key(|d| d.trap_seq);
    Some((stats, denies))
}

/// Outcome of one benign chaos run.
#[derive(Debug, Clone)]
pub struct BenignChaosReport {
    /// Application driven.
    pub app: App,
    /// Requests that received at least one response byte.
    pub served: u64,
    /// Requests attempted.
    pub attempted: u64,
    /// Faults that actually fired.
    pub faults_fired: u64,
    /// Whether any victim process was still alive at the end.
    pub survived: bool,
    /// Final monitor statistics (mode, strikes, denies...).
    pub stats: Option<MonitorStats>,
}

/// Boots `app` under `cfg` to the point where the server listens (boot is
/// always fault-free: the chaos clock starts afterwards).
///
/// # Panics
/// Panics only if the application fails to compile or boot *without*
/// faults (shipped apps are tested to do both).
fn deploy_benign(app: App, cfg: ContextConfig) -> World {
    let d = Deployment::from_module(app.module().expect("app compiles"))
        .expect("instrumentation succeeds");
    let mut world = d.world();
    app.setup_vfs(&mut world);
    let protection = Protection {
        monitor: Some(cfg),
        ..Protection::bastion_no_cet()
    };
    d.boot(&mut world, &protection, 1_000_000_000);
    assert!(
        world.alive_count() > 0,
        "{} died during clean boot",
        app.id()
    );
    world
}

/// Boots `app` under `cfg`, installs `schedule` *after* a clean boot, and
/// drives `requests` lenient requests. Never panics on a dead or
/// degraded server — that is the outcome being measured.
///
/// # Panics
/// Panics only if the application fails to compile or boot *without*
/// faults (shipped apps are tested to do both).
pub fn benign_chaos(
    app: App,
    cfg: ContextConfig,
    schedule: FaultSchedule,
    requests: u64,
) -> BenignChaosReport {
    drive_benign(deploy_benign(app, cfg), app, schedule, requests)
}

/// Runs the benign half's full schedule family for one app: one fault-free
/// deploy, then one cell per [`benign_schedules`] entry. Warm cells fork
/// the booted world from a copy-on-write checkpoint; `cold` forces a full
/// re-deploy per cell (byte-identical reports either way).
pub fn benign_chaos_suite(
    app: App,
    cfg: ContextConfig,
    seed: u64,
    requests: u64,
    cold: bool,
) -> Vec<(&'static str, BenignChaosReport)> {
    let mut checkpoint = (!cold).then(|| deploy_benign(app, cfg).snapshot());
    benign_schedules(seed)
        .into_iter()
        .map(|(label, schedule)| {
            let world = match &mut checkpoint {
                Some(ck) => World::restore(ck),
                None => deploy_benign(app, cfg),
            };
            (label, drive_benign(world, app, schedule, requests))
        })
        .collect()
}

/// The benign half's schedule families: the sparse substrate chaos mix
/// plus the app-state flip family (the SFP dual — one bit of the app's
/// own state flips at every monitor trap).
pub fn benign_schedules(seed: u64) -> Vec<(&'static str, FaultSchedule)> {
    vec![
        ("mix", FaultSchedule::chaos(seed, 7)),
        (
            "app-flip",
            FaultSchedule::new(seed).with(
                FaultKind::AppStateFlip,
                Trigger::TrapRange {
                    from: 1,
                    to: u64::MAX,
                },
            ),
        ),
    ]
}

/// Drives `requests` lenient requests against a booted world, with
/// `schedule` installed before the first request.
fn drive_benign(
    mut world: World,
    app: App,
    schedule: FaultSchedule,
    requests: u64,
) -> BenignChaosReport {
    world.install_faults(schedule);

    let request: &[u8] = match app {
        App::Webserve => b"GET /index.html HTTP/1.1\r\nHost: chaos\r\n\r\n",
        App::Dbkv => b"NEWORDER 1 17 3\n",
        // The ftpd control banner + USER round-trip exercises the same
        // accept/read/write trap mix as a download preamble.
        App::Ftpd => b"USER chaos\n",
    };
    let mut served = 0u64;
    let mut attempted = 0u64;
    for _ in 0..requests {
        if world.alive_count() == 0 {
            break;
        }
        attempted += 1;
        let Some(conn) = world.net_connect(app.port()) else {
            // Listener gone or backlog full: give the world a slice and
            // move on; a killed server simply stops serving.
            world.run(SLICE);
            continue;
        };
        world.net_send(conn, request);
        let mut got = false;
        for _ in 0..32 {
            world.run(SLICE);
            if !world.net_recv(conn).is_empty() {
                got = true;
                break;
            }
            if world.alive_count() == 0 {
                break;
            }
        }
        if got {
            served += 1;
        }
        world.net_close(conn);
    }
    // Let in-flight denials and exits settle.
    world.run(20_000_000);

    BenignChaosReport {
        app,
        served,
        attempted,
        faults_fired: world.fault_log().len() as u64,
        survived: world.alive_count() > 0,
        stats: monitor_stats(&mut world),
    }
}

/// Outcome of one attack-under-faults run.
#[derive(Debug, Clone)]
pub struct AttackChaosReport {
    /// Table 6 row id.
    pub id: u32,
    /// Scenario name.
    pub name: String,
    /// Schedule label (fault class driven).
    pub schedule: &'static str,
    /// PRNG seed of the schedule.
    pub seed: u64,
    /// Trap count of the calibration (fault-free) run.
    pub clean_traps: u64,
    /// Faults that actually fired.
    pub faults_fired: u64,
    /// Defense/success classification of the faulted run.
    pub outcome: RunOutcome,
    /// Final monitor statistics.
    pub stats: Option<MonitorStats>,
    /// Structured deny records from the faulted run, for fault↔deny joins.
    pub deny_records: Vec<DenyRecord>,
    /// `(world_trap, access class label)` of every fault that fired inside
    /// a trap that also produced a deny record — the provenance join the
    /// chaos assertions consume.
    pub fault_deny_joins: Vec<(u64, &'static str)>,
    /// Flight-recorder dumps the world captured on ladder-rung
    /// transitions and escalation bursts during the faulted run.
    pub flight_dumps: Vec<FlightDump>,
    /// Whether the cell's park was served from its checkpoint's parked
    /// snapshot (always `false` cold). Everything else in the report is
    /// the same either way.
    pub parked_from_snapshot: bool,
}

impl AttackChaosReport {
    /// The fail-closed invariant: the malicious effect must not have
    /// happened. (The *defense label* may legitimately change — e.g. an
    /// AI deny becoming an FC deny when the substrate is down — but a
    /// fault must never buy the attacker a success.)
    pub fn attack_contained(&self) -> bool {
        !self.outcome.succeeded
    }

    /// The flight-recorder join invariant: every deny record carries a
    /// non-empty ring dump whose newest entry is the denied trap itself,
    /// still marked in-flight (the ring settles the final verdict only
    /// after the monitor returns).
    pub fn denies_carry_flight(&self) -> bool {
        self.deny_records.iter().all(|d| {
            d.flight.last().is_some_and(|e| {
                e.trap == d.trap_seq && e.tier == 2 && e.verdict == flight_verdict::PENDING
            })
        })
    }
}

/// The attack scripts' own liveness expectations (`attacks::env`): each
/// assumes the victim is still serving while the attack stages. A faulted
/// trap *denies* — i.e. kills — the process it interrupts, so a chaos
/// replay can legitimately pull a worker out from under the script. That
/// is a fully contained outcome (the malicious syscall never ran), not a
/// monitor defect. Any panic **not** in this list propagates: the suite
/// still fails on a genuine monitor panic.
const HARNESS_LIVENESS: &[&str] = &[
    "victim pid",
    "victim listener bound",
    "a worker parked reading our connection",
    "a process parked in accept",
];

thread_local! {
    /// Set while this thread runs [`absorb_liveness_panics`].
    static ABSORBING: Cell<bool> = const { Cell::new(false) };
}

fn is_liveness(msg: &str) -> bool {
    HARNESS_LIVENESS.iter().any(|h| msg.contains(h))
}

/// Installs, once per process, a panic hook that stays silent for a
/// harness-liveness panic raised on a thread inside
/// [`absorb_liveness_panics`] (an absorbed panic would otherwise spray a
/// backtrace per chaos replay) and hands every other panic to the hook
/// that was installed before. Installing once, instead of swapping the
/// process-global hook around every cell, keeps concurrent workers from
/// racing each other's swaps and leaving the silent hook behind.
fn install_absorbing_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let absorbing = ABSORBING.try_with(Cell::get).unwrap_or(false);
            if !(absorbing && info.payload_as_str().is_some_and(is_liveness)) {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, absorbing only harness-liveness panics ([`HARNESS_LIVENESS`]).
/// Returns the panic message when `f` was cut short by one; any other
/// panic propagates, after reaching the previously installed hook.
pub fn absorb_liveness_panics(f: impl FnOnce()) -> Option<String> {
    install_absorbing_hook();
    let outer = ABSORBING.replace(true);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    ABSORBING.set(outer);
    let payload = r.err()?;
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    if is_liveness(&msg) {
        Some(msg)
    } else {
        std::panic::resume_unwind(payload)
    }
}

/// Everything one attack replay produced.
struct AttackRun {
    outcome: RunOutcome,
    traps: u64,
    fired: u64,
    stats: Option<MonitorStats>,
    deny_records: Vec<DenyRecord>,
    fault_deny_joins: Vec<(u64, &'static str)>,
    flight_dumps: Vec<FlightDump>,
    parked_from_snapshot: bool,
}

/// Runs `scenario` under `cfg` with an optional fault schedule installed
/// right after boot (one cold deploy per call).
fn run_attack(
    scenario: &Scenario,
    cfg: ContextConfig,
    schedule: Option<FaultSchedule>,
) -> AttackRun {
    let env = AttackEnv::deploy(scenario.victim, Some(cfg), scenario.extended_set, false);
    run_attack_in(scenario, env, schedule)
}

/// Stages and settles `scenario` against an already-deployed environment
/// — freshly booted or warm-forked from a [`bastion_attacks::env::DeployCheckpoint`].
fn run_attack_in(
    scenario: &Scenario,
    mut env: AttackEnv,
    schedule: Option<FaultSchedule>,
) -> AttackRun {
    // Install even for calibration: an empty schedule injects nothing but
    // counts traps, pinning the window for the chaos replay.
    env.world
        .install_faults(schedule.unwrap_or_else(|| FaultSchedule::new(0)));
    let staging_failure = absorb_liveness_panics(|| (scenario.attack)(&mut env));
    env.settle();
    let outcome = RunOutcome {
        defense: env.defense_fired(),
        // An attack whose staging was cut short by a fault never issued
        // its malicious syscall; evaluating the success probe against the
        // half-staged world could only mis-report.
        succeeded: staging_failure.is_none() && (scenario.success)(&env),
    };
    let traps = env.world.fault_trap_count();
    let faults: Vec<_> = env.world.fault_log().to_vec();
    let flight_dumps = env.world.flight_dumps().to_vec();
    let (stats, deny_records) = match monitor_report(&mut env.world) {
        Some((s, d)) => (Some(s), d),
        None => (None, Vec::new()),
    };
    // Join: faults that fired inside a trap that was then denied.
    let fault_deny_joins = faults
        .iter()
        .filter(|f| deny_records.iter().any(|d| d.trap_seq == f.world_trap))
        .map(|f| (f.world_trap, f.class.label()))
        .collect();
    AttackRun {
        outcome,
        traps,
        fired: faults.len() as u64,
        stats,
        deny_records,
        fault_deny_joins,
        flight_dumps,
        parked_from_snapshot: env.parked_from_snapshot(),
    }
}

/// The per-fault-class schedules of the chaos matrix, all targeting the
/// calibrated final-trap window (where the attack's own syscalls trap).
pub fn chaos_schedules(seed: u64, clean_traps: u64) -> Vec<(&'static str, FaultSchedule)> {
    // Centre the window on the clean run's final trap: for a blocked
    // attack that is the verification of the malicious syscall itself —
    // the worst case for the monitor. The trap before it is included so
    // schedules also exercise staging-infrastructure faults (a denied
    // serving worker, which the driver tolerates as a contained outcome).
    let to = clean_traps.max(1);
    let from = to.saturating_sub(1).max(1);
    let window = |kind| FaultSchedule::new(seed).with(kind, Trigger::TrapRange { from, to });
    vec![
        ("mix", window(FaultKind::Mix)),
        ("read-error", window(FaultKind::ReadError)),
        ("torn-read", window(FaultKind::TornRead)),
        ("frame-corrupt", window(FaultKind::FrameCorrupt)),
        ("shadow-flip", window(FaultKind::ShadowBitFlip)),
        ("stall", window(FaultKind::Stall { cycles: 120_000 })),
        ("app-flip", window(FaultKind::AppStateFlip)),
    ]
}

/// Runs the full chaos matrix for one scenario, warm-forked: one cold
/// deploy, then calibration and every `seeds` × [`chaos_schedules`] cell
/// restores from the copy-on-write checkpoint. See [`attack_chaos_mode`]
/// for the cold variant (byte-identical reports, one deploy per cell).
pub fn attack_chaos(
    scenario: &Scenario,
    cfg: ContextConfig,
    seeds: &[u64],
) -> Vec<AttackChaosReport> {
    attack_chaos_mode(scenario, cfg, seeds, false)
}

/// [`attack_chaos`] with an explicit replay mode: `cold` re-deploys the
/// victim for every cell (the pre-checkpoint behaviour), warm forks every
/// cell from one post-boot checkpoint. Reports are byte-identical across
/// modes — worlds are deterministic and the checkpoint is taken exactly
/// where a cold deploy hands the world to the cell — which CI gates.
pub fn attack_chaos_mode(
    scenario: &Scenario,
    cfg: ContextConfig,
    seeds: &[u64],
    cold: bool,
) -> Vec<AttackChaosReport> {
    let checkpoint = (!cold).then(|| Mutex::new(warm_checkpoint(scenario, cfg)));
    attack_chaos_shared(scenario, cfg, seeds, checkpoint.as_ref())
}

/// Deploys `scenario`'s victim under `cfg`, checkpoints it and parks it
/// once ([`DeployCheckpoint::park_once`]): the warm start of every cell
/// whose scenario has the same `(victim, extended_set)` and
/// configuration. A cell whose fault window lies past park's traps skips
/// park by restoring the parked world.
pub fn warm_checkpoint(scenario: &Scenario, cfg: ContextConfig) -> DeployCheckpoint {
    let mut ck =
        AttackEnv::deploy(scenario.victim, Some(cfg), scenario.extended_set, false).checkpoint();
    ck.park_once();
    ck
}

/// The chaos matrix of one scenario: calibration, then every `seeds` ×
/// [`chaos_schedules`] cell. Each cell forks from `checkpoint` — a
/// [`warm_checkpoint`] of the same victim configuration, possibly shared
/// with other scenarios and workers, locked only while a cell restores
/// from it — or, when `None`, re-deploys cold.
pub fn attack_chaos_shared(
    scenario: &Scenario,
    cfg: ContextConfig,
    seeds: &[u64],
    checkpoint: Option<&Mutex<DeployCheckpoint>>,
) -> Vec<AttackChaosReport> {
    let cell = |schedule: Option<FaultSchedule>| match checkpoint {
        Some(ck) => {
            let env = AttackEnv::restore(&ck.lock().expect("no cell panics mid-restore"));
            assert_eq!(env.victim, scenario.victim, "checkpoint of another victim");
            run_attack_in(scenario, env, schedule)
        }
        None => run_attack(scenario, cfg, schedule),
    };
    let clean_traps = cell(None).traps;
    let mut reports = Vec::new();
    for &seed in seeds {
        for (label, schedule) in chaos_schedules(seed, clean_traps) {
            let run = cell(Some(schedule));
            reports.push(AttackChaosReport {
                id: scenario.id,
                name: scenario.name.clone(),
                schedule: label,
                seed,
                clean_traps,
                faults_fired: run.fired,
                outcome: run.outcome,
                stats: run.stats,
                deny_records: run.deny_records,
                fault_deny_joins: run.fault_deny_joins,
                flight_dumps: run.flight_dumps,
                parked_from_snapshot: run.parked_from_snapshot,
            });
        }
    }
    reports
}
