//! # bastion-monitor
//!
//! The BASTION runtime monitor (paper §7): a separate "process" attached to
//! the protected application through the kernel's seccomp/ptrace layer,
//! enforcing the three system call contexts at every trapped sensitive
//! syscall:
//!
//! 1. **Call-Type** (§7.2) — the syscall number must be callable at all,
//!    and the callsite reaching the stub (recovered by decoding the call
//!    instruction before the return address, i.e. `retaddr - CALL_SIZE`)
//!    must use a permitted calling convention (direct vs indirect);
//! 2. **Control-Flow** (§7.3) — the frame-pointer chain is unwound and
//!    every callee→caller pair is checked against compiler metadata, until
//!    `main` or a legitimate indirect entry terminates the walk;
//! 3. **Argument Integrity** (§7.4) — trapped argument registers are
//!    compared against constants and shadow-memory copies; extended
//!    arguments additionally have their pointee bytes verified; frames up
//!    the stack have their bound sensitive variables re-validated.
//!
//! The monitor implements [`bastion_kernel::Tracer`] and pays virtual-cycle
//! costs for every `ptrace`/`process_vm_readv` access, so its overhead is
//! measurable exactly as in the paper. Shadow-table reads are free (the
//! shadow region is a shared mapping, §7.1).

pub mod cache;
pub mod filter;
pub mod prefilter;
pub mod verify;

use bastion_compiler::ContextMetadata;
use bastion_kernel::{EscalateReason, Pid, PrefilterVerdict, TraceVerdict, Tracee, Tracer};
use bastion_obs::{self as obs, DenyContext, DenyRecord, FaultCtx, FlightEntry, Phase};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Resilience policy: how the monitor reacts when its *substrate* (ptrace
/// register fetches, `process_vm_readv` remote reads, the shared shadow
/// mapping) misbehaves. Everything here is zero-cost on the clean path:
/// retries and backoff only run after a failed access, and the deadline is
/// off by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resilience {
    /// Retries per substrate access before the error is terminal (covers
    /// transient `ESRCH`/`EAGAIN`-style failures).
    pub max_retries: u32,
    /// Virtual-cycle backoff charged before the first retry; doubles each
    /// further attempt.
    pub retry_backoff_cycles: u64,
    /// Per-trap verification deadline (watchdog) in virtual cycles;
    /// `None` disables the watchdog.
    pub deadline_cycles: Option<u64>,
    /// Deny the trap when the deadline is exceeded (`true`, fail-closed)
    /// or merely record the overrun (`false`, observe-only).
    pub deny_on_timeout: bool,
    /// Substrate strikes (exhausted retries, watchdog overruns, shadow
    /// corruption) before the monitor drops to `Degraded`.
    pub degrade_after: u32,
    /// Strikes before the monitor drops to `FailClosed`.
    pub fail_closed_after: u32,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            max_retries: 2,
            retry_backoff_cycles: 500,
            deadline_cycles: None,
            deny_on_timeout: true,
            degrade_after: 3,
            fail_closed_after: 6,
        }
    }
}

impl Resilience {
    /// A watchdogged policy: like the default but with a per-trap
    /// verification deadline.
    pub fn with_deadline(cycles: u64) -> Self {
        Resilience {
            deadline_cycles: Some(cycles),
            ..Resilience::default()
        }
    }
}

/// The monitor's degradation ladder. Ordered: a monitor only ever moves
/// *down* the ladder (toward fail-closed), never back up within a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MonitorMode {
    /// All configured contexts verified normally.
    #[default]
    Full,
    /// The substrate is unreliable: contexts that depend on deep remote
    /// reads (CF walks, AI shadow checks) are denied outright; Call-Type —
    /// which needs only the one frame-head read — is still verified.
    Degraded,
    /// The substrate is untrusted: every trapped sensitive syscall is
    /// denied without touching the tracee.
    FailClosed,
}

impl MonitorMode {
    /// Human-readable rung name for stats output.
    pub fn label(self) -> &'static str {
        match self {
            MonitorMode::Full => "full",
            MonitorMode::Degraded => "degraded",
            MonitorMode::FailClosed => "fail-closed",
        }
    }

    /// Stable small-integer rung for compact surfaces (flight-recorder
    /// entries, `bastion top`): 0 = full, 1 = degraded, 2 = fail-closed.
    pub fn rung(self) -> u8 {
        match self {
            MonitorMode::Full => 0,
            MonitorMode::Degraded => 1,
            MonitorMode::FailClosed => 2,
        }
    }
}

/// Which contexts the monitor enforces (the Figure 3 ablation axis:
/// CT / CT+CF / CT+CF+AI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextConfig {
    /// Enforce the Call-Type context.
    pub call_type: bool,
    /// Enforce the Control-Flow context.
    pub control_flow: bool,
    /// Enforce the Argument Integrity context.
    pub arg_integrity: bool,
    /// Fetch registers and walk the stack without verifying anything —
    /// Table 7's "fetch process state" row, isolating the ptrace cost.
    pub fetch_state: bool,
    /// Substrate-failure policy (retry/backoff, watchdog, degradation
    /// ladder).
    pub resilience: Resilience,
    /// Evaluate the compiled tier-1 prefilter at seccomp-classify time
    /// (DESIGN.md §6g): clean traps are proven equivalent to a monitor
    /// Allow without a ptrace stop; everything else escalates to the
    /// authoritative monitor. Default-on only for the full configuration;
    /// [`protect`] additionally disables it under a watchdog deadline
    /// (tier-1 traps charge almost nothing, which would hollow out the
    /// deadline semantics). `with_prefilter(false)` is the tier-2-only
    /// differential oracle (the CLI's `--no-prefilter`).
    pub prefilter: bool,
}

impl ContextConfig {
    /// All three contexts (full BASTION).
    pub fn full() -> Self {
        ContextConfig {
            call_type: true,
            control_flow: true,
            arg_integrity: true,
            fetch_state: true,
            resilience: Resilience::default(),
            prefilter: true,
        }
    }

    /// Call-Type only. The prefilter stays off outside the full
    /// configuration: ablation rows measure monitor-side trap costs, and
    /// tier-1 hits would hollow out exactly the quantity they isolate.
    pub fn ct() -> Self {
        ContextConfig {
            call_type: true,
            control_flow: false,
            arg_integrity: false,
            fetch_state: true,
            resilience: Resilience::default(),
            prefilter: false,
        }
    }

    /// Call-Type + Control-Flow (prefilter off, like [`ContextConfig::ct`]).
    pub fn ct_cf() -> Self {
        ContextConfig {
            call_type: true,
            control_flow: true,
            arg_integrity: false,
            fetch_state: true,
            resilience: Resilience::default(),
            prefilter: false,
        }
    }

    /// Monitor attached but verifying nothing (hook-cost measurement,
    /// Table 7 row 1).
    pub fn hook_only() -> Self {
        ContextConfig {
            call_type: false,
            control_flow: false,
            arg_integrity: false,
            fetch_state: false,
            resilience: Resilience::default(),
            prefilter: false,
        }
    }

    /// Fetch registers and stack state without verification (Table 7
    /// row 2 — the context-switch cost in isolation).
    pub fn fetch_state() -> Self {
        ContextConfig {
            call_type: false,
            control_flow: false,
            arg_integrity: false,
            fetch_state: true,
            resilience: Resilience::default(),
            prefilter: false,
        }
    }

    /// Whether any context is verified.
    pub fn verifies(&self) -> bool {
        self.call_type || self.control_flow || self.arg_integrity
    }

    /// The same configuration with the tier-1 prefilter forced on or off.
    pub fn with_prefilter(mut self, on: bool) -> Self {
        self.prefilter = on;
        self
    }

    /// The same configuration with a different resilience policy.
    pub fn with_resilience(mut self, r: Resilience) -> Self {
        self.resilience = r;
        self
    }
}

/// Counters the monitor accumulates (depth statistics back §9.2's
/// "average call-depth is only 5.2 frames").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Traps delivered.
    pub traps: u64,
    /// Violations detected, by context.
    pub ct_violations: u64,
    /// Control-flow violations.
    pub cf_violations: u64,
    /// Argument-integrity violations.
    pub ai_violations: u64,
    /// Total frames walked across all traps.
    pub frames_walked: u64,
    /// Minimum walk depth seen; 0 until a real stack walk has run (walks
    /// are always ≥ 1 frame deep, so 0 unambiguously means "no walk yet").
    pub min_depth: u64,
    /// Maximum walk depth seen.
    pub max_depth: u64,
    /// Virtual cycles spent initializing (metadata load, §9.2 "≈21 ms").
    pub init_cycles: u64,
    /// Portion of `init_cycles` spent compiling the tier-1 check program
    /// (0 when the prefilter is off) — reported separately so steady-state
    /// per-trap cost can be read without the one-time compile charge.
    pub prefilter_compile_cycles: u64,
    /// Call-Type verdicts served from the verification cache.
    pub ct_cache_hits: u64,
    /// Stack-walk verdicts served from the verification cache (full chain
    /// key confirmed equal, not just the 64-bit hash).
    pub walk_cache_hits: u64,
    /// Walk-cache lookups whose hash matched but whose stored chain
    /// differed — aliasing caught by full-key confirmation and served as
    /// misses instead of sharing a verdict across chains.
    pub walk_cache_collisions: u64,
    /// Frame heads fetched, each with one batched remote read.
    pub batched_frame_reads: u64,
    /// Pointee buffers fetched, each with one bounded prefix read.
    pub batched_pointee_reads: u64,
    /// Fail-closed denies: traps denied because the monitor's substrate
    /// failed, not because the tracee violated a context.
    pub fc_violations: u64,
    /// Substrate-access retries performed.
    pub retries: u64,
    /// Retries that recovered the access (transient faults survived).
    pub retry_successes: u64,
    /// Traps denied by the verification-deadline watchdog.
    pub watchdog_denies: u64,
    /// Watchdog overruns observed (counted even when `deny_on_timeout` is
    /// off).
    pub watchdog_overruns: u64,
    /// Substrate strikes accumulated (retry exhaustion, watchdog overruns,
    /// shadow corruption) — the degradation-ladder driver.
    pub substrate_strikes: u64,
    /// Shadow-table entries that failed their integrity checksum.
    pub shadow_quarantines: u64,
    /// Current degradation-ladder rung.
    pub mode: MonitorMode,
    /// Ladder transitions taken (Full→Degraded and Degraded→FailClosed
    /// each count one).
    pub mode_transitions: u64,
    /// Tier-1 prefilter evaluations (every classify of a
    /// `TracePrefiltered` syscall; `traps` still counts all of them).
    pub prefilter_checks: u64,
    /// Tier-1 hits: traps proven clean at classify time, no monitor stop.
    pub prefilter_hits: u64,
    /// Tier-1 escalations to the full monitor.
    pub prefilter_escalations: u64,
    /// Escalations broken down by [`EscalateReason::code`] (grown on
    /// first use; `Vec` because the serde shim has no fixed-array impls).
    pub prefilter_escalations_by_reason: Vec<u64>,
    /// Backing pages resident across the world's page tables when the
    /// stats were collected (snapshot hygiene: all-zero pages are pruned
    /// at checkpoint time, so this tracks live data only).
    pub resident_pages: u64,
    /// Resident pages still shared copy-on-write with a live
    /// [`bastion_kernel::WorldSnapshot`] or fork sibling — memory a warm
    /// restore did not have to copy.
    pub snapshot_shared_pages: u64,
}

impl MonitorStats {
    /// Average stack-walk depth per *monitor-walked* trap. Tier-1 hits
    /// never walk (that is the point), so they are excluded from the §9.2
    /// depth denominator.
    pub fn avg_depth(&self) -> f64 {
        let walked_traps = self.traps.saturating_sub(self.prefilter_hits);
        if walked_traps == 0 {
            0.0
        } else {
            self.frames_walked as f64 / walked_traps as f64
        }
    }

    /// Tier-1 hit rate over all delivered traps (0 when no trap ran).
    pub fn prefilter_hit_rate(&self) -> f64 {
        if self.traps == 0 {
            0.0
        } else {
            self.prefilter_hits as f64 / self.traps as f64
        }
    }

    /// Per-reason escalation counts as `(label, count)` rows, non-zero
    /// entries only, in stable code order.
    pub fn escalations_by_reason(&self) -> Vec<(&'static str, u64)> {
        use EscalateReason as R;
        [
            R::NoPrefilter,
            R::FaultsInstalled,
            R::NonFullMode,
            R::ShadowQuarantine,
            R::FlowMiss,
            R::CtMismatch,
            R::ChainAnomaly,
            R::ArgMismatch,
            R::ExtendedArgs,
            R::ReadFailure,
        ]
        .into_iter()
        .map(|r| {
            let n = self
                .prefilter_escalations_by_reason
                .get(r.code() as usize)
                .copied()
                .unwrap_or(0);
            (r.label(), n)
        })
        .filter(|&(_, n)| n > 0)
        .collect()
    }

    /// Total violations across contexts (fail-closed denies included:
    /// they kill the application just like context violations).
    pub fn violations(&self) -> u64 {
        self.ct_violations + self.cf_violations + self.ai_violations + self.fc_violations
    }
}

/// Mutable resilience state (interior mutability: verification runs behind
/// a shared borrow of the monitor, like the cache).
#[derive(Debug, Clone, Default)]
pub struct ResilienceState {
    /// Current degradation-ladder rung.
    pub mode: MonitorMode,
    /// Substrate strikes accumulated.
    pub strikes: u32,
    /// Whether the shadow table failed integrity checking and is
    /// quarantined (AI unverifiable until restart).
    pub shadow_quarantined: bool,
    /// Retries performed.
    pub retries: u64,
    /// Retries that recovered the access.
    pub retry_successes: u64,
    /// Watchdog denies issued.
    pub watchdog_denies: u64,
    /// Watchdog overruns observed.
    pub watchdog_overruns: u64,
    /// Corrupt shadow entries seen.
    pub quarantines: u64,
    /// Ladder transitions taken.
    pub transitions: u64,
}

/// Information the monitor learns at launch time about the loaded image
/// (symbol addresses and memory geometry — the paper's "ELF, DWARF, and
/// linked library file information").
#[derive(Debug, Clone, Default)]
pub struct LaunchInfo {
    /// Load bias: runtime code base − metadata link base.
    pub load_bias: i64,
    /// Global symbol name → runtime address.
    pub globals: HashMap<String, u64>,
    /// Valid stack range `[base, top)`.
    pub stack: (u64, u64),
    /// Data segment range `[base, end)`.
    pub data: (u64, u64),
}

impl LaunchInfo {
    /// Gathers launch info from a loaded image (the monitor "retrieves
    /// ELF, DWARF, and linked library file information to recover symbol
    /// addresses", §7.1).
    pub fn from_image(image: &bastion_vm::Image, metadata: &ContextMetadata) -> Self {
        let load_bias = image.layout.code_base().raw() as i64 - metadata.link_base as i64;
        let globals = image
            .module
            .globals
            .iter()
            .enumerate()
            .map(|(i, g)| (g.name.clone(), image.global_addrs[i]))
            .collect();
        LaunchInfo {
            load_bias,
            globals,
            stack: (image.stack_base, image.stack_top),
            data: (image.data_base, image.data_end),
        }
    }
}

/// Launches BASTION protection for `pid` in `world`: builds the seccomp
/// filter from call-type metadata, attaches a [`Monitor`] as the tracer,
/// and charges the monitor's initialization cost (§9.2 measures ≈21 ms)
/// to the world clock.
pub fn protect(
    world: &mut bastion_kernel::World,
    pid: bastion_kernel::Pid,
    image: &bastion_vm::Image,
    metadata: &ContextMetadata,
    cfg: ContextConfig,
) {
    // "Hook only" (Table 7 row 1) measures the seccomp cost in isolation:
    // the filter is installed (not-callable syscalls still die) but
    // sensitive syscalls are not stopped for the monitor.
    let trace = cfg.verifies() || cfg.fetch_state;
    let info = LaunchInfo::from_image(image, metadata);
    let mut monitor = Monitor::new(metadata, cfg, info);
    // Tier-1 prefilter: only for verifying configurations, and never under
    // a watchdog deadline (tier-1 traps charge almost nothing, which would
    // change what the deadline measures).
    let prefiltered =
        trace && cfg.verifies() && cfg.prefilter && cfg.resilience.deadline_cycles.is_none();
    if prefiltered {
        monitor.enable_prefilter();
    }
    world.trace_cycles += monitor.stats.init_cycles;
    let filter = filter::build_filter_with_mode(metadata, trace, prefiltered);
    world.install_seccomp(pid, filter.shared(), trace);
    if trace {
        world.attach_tracer(Box::new(monitor));
    }
}

/// The BASTION runtime monitor. `Clone` is the world-snapshot path
/// ([`bastion_kernel::Tracer::snapshot_box`]). The tables loaded at launch
/// and only read afterwards — rebased metadata, launch info, the compiled
/// tier-1 program — are shared by `Arc`; stats, logs, caches, resilience
/// rung and the prefilter's per-pid flow state are structural copies, so
/// a restored world resumes verification exactly where the checkpoint
/// left it (DESIGN.md §6i).
#[derive(Debug, Clone)]
pub struct Monitor {
    /// Rebased metadata (runtime addresses), read-only after launch.
    pub md: Arc<ContextMetadata>,
    /// Enabled contexts.
    pub cfg: ContextConfig,
    /// Launch-time image information, read-only after launch.
    pub info: Arc<LaunchInfo>,
    /// Statistics.
    pub stats: MonitorStats,
    /// Trap log: (nr, verdict ok?) for diagnostics and tests.
    pub log: Vec<(u32, bool)>,
    /// Verification cache (interior mutability: verification
    /// runs behind a shared borrow of the monitor).
    pub cache: std::cell::RefCell<cache::VerifyCache>,
    /// Resilience state: degradation-ladder rung, strikes, retry/watchdog
    /// counters.
    pub res: std::cell::RefCell<ResilienceState>,
    /// Compiled tier-1 check program (`None` until
    /// [`Monitor::enable_prefilter`]).
    pf: Option<prefilter::Prefilter>,
    /// Set when the last prefilter verdict was an escalation, so the
    /// following `on_trap` does not double-count the trap.
    pending_escalation: bool,
}

impl Monitor {
    /// Creates a monitor from compiler metadata and launch-time info.
    ///
    /// Initialization cost is proportional to the metadata size (the paper
    /// measures ≈21 ms for NGINX); it is recorded in
    /// [`MonitorStats::init_cycles`] and added to the world clock by the
    /// harness at attach time.
    pub fn new(metadata: &ContextMetadata, cfg: ContextConfig, info: LaunchInfo) -> Self {
        let md = metadata.rebased(info.load_bias);
        let init_cycles = 200
            + 10 * (md.callsites.len() as u64)
            + 20 * (md.functions.len() as u64)
            + 15 * (md.syscall_sites.len() as u64);
        Monitor {
            md: Arc::new(md),
            cfg,
            info: Arc::new(info),
            stats: MonitorStats {
                init_cycles,
                ..MonitorStats::default()
            },
            log: Vec::new(),
            cache: std::cell::RefCell::new(cache::VerifyCache::new()),
            res: std::cell::RefCell::new(ResilienceState::default()),
            pf: None,
            pending_escalation: false,
        }
    }

    /// Compiles the tier-1 check program from the (already rebased)
    /// metadata and launch info. Compilation cost joins
    /// [`MonitorStats::init_cycles`] — call before the harness charges it.
    pub fn enable_prefilter(&mut self) {
        let pf = prefilter::Prefilter::compile(&self.md, &self.info, &self.cfg);
        self.stats.prefilter_compile_cycles = pf.compile_cycles();
        self.stats.init_cycles += pf.compile_cycles();
        self.pf = Some(pf);
    }

    /// The current degradation-ladder rung.
    pub fn mode(&self) -> MonitorMode {
        self.res.borrow().mode
    }

    /// Records one substrate strike and walks the degradation ladder if
    /// the configured thresholds are crossed. Monotone: the mode only ever
    /// moves toward `FailClosed`.
    pub(crate) fn substrate_strike(&self) {
        let r = &mut *self.res.borrow_mut();
        r.strikes += 1;
        let pol = self.cfg.resilience;
        let target = if r.strikes >= pol.fail_closed_after {
            MonitorMode::FailClosed
        } else if r.strikes >= pol.degrade_after {
            MonitorMode::Degraded
        } else {
            r.mode
        };
        if target > r.mode {
            let steps =
                1 + u64::from(target == MonitorMode::FailClosed && r.mode == MonitorMode::Full);
            r.transitions += steps;
            obs::counter_add("monitor.ladder_transitions", steps);
            r.mode = target;
        }
        obs::counter_add("monitor.substrate_strikes", 1);
    }

    /// Quarantines the shadow table after an integrity failure: AI becomes
    /// unverifiable for the rest of the run, and the corruption counts as
    /// a substrate strike.
    pub(crate) fn quarantine_shadow(&self) {
        {
            let r = &mut *self.res.borrow_mut();
            r.shadow_quarantined = true;
            r.quarantines += 1;
        }
        self.substrate_strike();
    }

    /// Copies cache and resilience counters into the public stats block.
    fn sync_counters(&mut self) {
        let c = self.cache.borrow();
        self.stats.ct_cache_hits = c.ct_hits;
        self.stats.walk_cache_hits = c.walk_hits;
        self.stats.walk_cache_collisions = c.walk_collisions;
        self.stats.batched_frame_reads = c.batched_frame_reads;
        self.stats.batched_pointee_reads = c.batched_pointee_reads;
        drop(c);
        let r = self.res.borrow();
        self.stats.retries = r.retries;
        self.stats.retry_successes = r.retry_successes;
        self.stats.watchdog_denies = r.watchdog_denies;
        self.stats.watchdog_overruns = r.watchdog_overruns;
        self.stats.substrate_strikes = u64::from(r.strikes);
        self.stats.shadow_quarantines = r.quarantines;
        self.stats.mode = r.mode;
        self.stats.mode_transitions = r.transitions;
    }

    /// Converts a structured violation into the kill verdict: the
    /// [`DenyRecord`] streamed to any installed sink and handed to the
    /// kernel as the killed process's exit reason. Its `Display` is the
    /// `"{label}: {msg}"` kill-reason text.
    fn deny(
        &mut self,
        nr: u32,
        v: verify::Violation,
        vcycles: u64,
        flight: Vec<FlightEntry>,
    ) -> TraceVerdict {
        match v.ctx {
            DenyContext::CallType => self.stats.ct_violations += 1,
            DenyContext::ControlFlow => self.stats.cf_violations += 1,
            DenyContext::ArgIntegrity => self.stats.ai_violations += 1,
            DenyContext::FailClosed => self.stats.fc_violations += 1,
        }
        self.log.push((nr, false));
        let rec = {
            let r = self.res.borrow();
            DenyRecord {
                trap_seq: self.stats.traps,
                sysno: nr,
                context: v.ctx,
                rule: v.rule,
                expected: v.expected,
                observed: v.observed,
                fault_ctx: FaultCtx {
                    retries: r.retries,
                    strikes: u64::from(r.strikes),
                    watchdog_overruns: r.watchdog_overruns,
                    shadow_quarantined: r.shadow_quarantined,
                },
                ladder_rung: r.mode.label(),
                message: v.msg,
                flight,
            }
        };
        obs::instant(Phase::Deny, rec.trap_seq, vcycles, 0);
        obs::counter_add("monitor.denies", 1);
        obs::emit_deny(&rec);
        TraceVerdict::Deny(Box::new(rec))
    }

    /// Tier-1 gates plus check-program evaluation for one classify. The
    /// gate order is part of the §6g contract: faults and non-`Full`
    /// rungs escalate before tier 1 reads anything, so injected faults
    /// always land on the monitor's resilience ladder.
    fn tier1_verdict(
        &mut self,
        tracee: &mut Tracee<'_>,
        faults_installed: bool,
    ) -> PrefilterVerdict {
        use EscalateReason as R;
        if self.pf.is_none() {
            return PrefilterVerdict::Escalate(R::NoPrefilter);
        }
        if faults_installed {
            return PrefilterVerdict::Escalate(R::FaultsInstalled);
        }
        {
            let r = self.res.borrow();
            if r.mode != MonitorMode::Full {
                return PrefilterVerdict::Escalate(R::NonFullMode);
            }
            if r.shadow_quarantined {
                return PrefilterVerdict::Escalate(R::ShadowQuarantine);
            }
        }
        self.pf.as_mut().expect("checked above").check(tracee)
    }
}

impl Tracer for Monitor {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn snapshot_box(&self) -> Option<Box<dyn bastion_kernel::Tracer>> {
        Some(Box::new(self.clone()))
    }

    fn on_fork(&mut self, parent: Pid, child: Pid) {
        // The child resumes at the parent's program point, so its flow
        // automaton starts from the parent's position.
        if let Some(pf) = self.pf.as_mut() {
            pf.inherit_state(parent, child);
        }
    }

    fn flow_word(&self, pid: Pid) -> u64 {
        self.pf.as_ref().map_or(0, |pf| pf.state_word(pid))
    }

    fn ladder_rung(&self) -> u8 {
        self.res.borrow().mode.rung()
    }

    fn prefilter(&mut self, tracee: &mut Tracee<'_>, faults_installed: bool) -> PrefilterVerdict {
        // Every classify counts as a trap, whichever tier settles it —
        // `traps` stays comparable with prefilter off, and a deny record's
        // `trap_seq` stays aligned with the world's trap counter.
        self.stats.traps += 1;
        self.stats.prefilter_checks += 1;
        let verdict = self.tier1_verdict(tracee, faults_installed);
        match verdict {
            PrefilterVerdict::Allow => {
                self.pending_escalation = false;
                self.stats.prefilter_hits += 1;
                self.log.push((tracee.kernel_regs().nr, true));
            }
            PrefilterVerdict::Escalate(r) => {
                self.pending_escalation = true;
                self.stats.prefilter_escalations += 1;
                let idx = r.code() as usize;
                if self.stats.prefilter_escalations_by_reason.len() <= idx {
                    self.stats
                        .prefilter_escalations_by_reason
                        .resize(idx + 1, 0);
                }
                self.stats.prefilter_escalations_by_reason[idx] += 1;
            }
        }
        verdict
    }

    fn on_trap(&mut self, tracee: &mut Tracee<'_>) -> TraceVerdict {
        if self.pending_escalation {
            // This stop is the tier-2 half of a classify already counted
            // (and reason-tallied) by `prefilter`.
            self.pending_escalation = false;
        } else {
            self.stats.traps += 1;
        }

        // Non-verifying configurations do not enforce anything, so the
        // degradation ladder does not apply to them.
        if !self.cfg.verifies() {
            let regs = tracee.getregs();
            let nr = regs.nr;
            if self.cfg.fetch_state {
                // Fetch-state configuration: pay for register and stack
                // fetches without verifying (Table 7 row 2).
                let _ = verify::fetch_only(self, tracee, &regs);
            }
            self.log.push((nr, true));
            return TraceVerdict::Allow;
        }

        let mode = self.res.borrow().mode;

        // Fail-closed rung: the substrate is untrusted — deny without
        // touching the tracee at all.
        if mode == MonitorMode::FailClosed {
            let v = self.deny(
                0,
                verify::Violation::new(
                    DenyContext::FailClosed,
                    obs::DenyRule::FailClosedMode,
                    "monitor fail-closed: tracee state untrusted after repeated substrate failures",
                ),
                tracee.charged(),
                tracee.flight_dump(),
            );
            self.sync_counters();
            return v;
        }

        obs::span_begin(Phase::GetRegs, self.stats.traps, tracee.charged());
        let got = verify::getregs_resilient(self, tracee);
        obs::span_end(
            Phase::GetRegs,
            self.stats.traps,
            tracee.charged(),
            u64::from(got.is_err()),
        );
        let regs = match got {
            Ok(r) => r,
            Err(v) => {
                let verdict = self.deny(0, v, tracee.charged(), tracee.flight_dump());
                self.sync_counters();
                return verdict;
            }
        };
        let nr = regs.nr;

        // Degraded rung: contexts needing deep remote reads cannot be
        // trusted; configs that require them fail closed, while Call-Type
        // — one frame-head read — keeps being verified below.
        if mode == MonitorMode::Degraded && (self.cfg.control_flow || self.cfg.arg_integrity) {
            let v = self.deny(
                nr,
                verify::Violation::new(
                    DenyContext::FailClosed,
                    obs::DenyRule::DegradedMode,
                    "monitor degraded: control-flow/argument contexts unverifiable",
                ),
                tracee.charged(),
                tracee.flight_dump(),
            );
            self.sync_counters();
            return v;
        }

        let verdict = match verify::verify_trap(self, tracee, &regs) {
            Ok(depth) => {
                // Depth 0 is a walk-free verdict (CT-only traps); it must
                // not pollute the §9.2 depth statistics.
                if depth > 0 {
                    self.stats.frames_walked += depth;
                    if self.stats.min_depth == 0 || depth < self.stats.min_depth {
                        self.stats.min_depth = depth;
                    }
                    self.stats.max_depth = self.stats.max_depth.max(depth);
                    obs::sketch_observe("monitor.walk_depth", depth);
                }
                self.log.push((nr, true));
                TraceVerdict::Allow
            }
            Err(v) => self.deny(nr, v, tracee.charged(), tracee.flight_dump()),
        };
        self.sync_counters();
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        assert!(ContextConfig::full().arg_integrity);
        assert!(!ContextConfig::ct().control_flow);
        assert!(ContextConfig::ct_cf().control_flow);
        let h = ContextConfig::hook_only();
        assert!(!h.call_type && !h.control_flow && !h.arg_integrity);
    }

    #[test]
    fn stats_avg_depth() {
        let mut s = MonitorStats::default();
        assert_eq!(s.avg_depth(), 0.0);
        s.traps = 4;
        s.frames_walked = 20;
        assert_eq!(s.avg_depth(), 5.0);
        s.ct_violations = 1;
        s.ai_violations = 2;
        assert_eq!(s.violations(), 3);
    }

    #[test]
    fn min_depth_is_zero_before_any_walk() {
        // A freshly created monitor (and one that only ever sees walk-free
        // CT verdicts) must report min_depth 0, not a u64::MAX sentinel —
        // including through serialization.
        let md = bastion_compiler::ContextMetadata::default();
        let m = Monitor::new(&md, ContextConfig::ct(), LaunchInfo::default());
        assert_eq!(m.stats.min_depth, 0);
        let json = serde_json::to_string(&m.stats).expect("MonitorStats serializes");
        assert!(
            !json.contains("18446744073709551615"),
            "sentinel leaked: {json}"
        );
    }
}
