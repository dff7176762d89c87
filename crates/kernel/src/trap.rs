//! The trap pipeline (paper §7.1, DESIGN.md §7): seccomp, then tier 1 for
//! a prefiltered number (§6g), then tier 2 unless tier 1 allowed, then the
//! sinks (§6j). Seccomp charges `kernel.cycles`, every later stage
//! `trace_cycles`. The sinks cost zero virtual cycles and read only the
//! [`TrapRecord`], so every trap writes its span, sketches and flight
//! entry in one place, whichever tier settled it.

use crate::seccomp::SeccompAction;
use crate::trace::{EscalateReason, PrefilterVerdict, TraceVerdict, Tracee};
use crate::world::World;
use bastion_obs::flight::verdict;
use bastion_obs::{self as obs, FlightDump, FlightEntry, FlightRecorder, FlightTrigger, Phase};
use std::cell::RefCell;

/// Upper bound on retained [`FlightDump`]s per world.
const MAX_FLIGHT_DUMPS: usize = 32;

/// Escalation-burst trigger: at least this many of the last 16
/// prefiltered traps escalated to tier 2.
const ESC_BURST_THRESHOLD: u32 = 12;

/// What the pipeline decided for one syscall.
pub(crate) enum Gate {
    /// seccomp allowed it without a trap: dispatch.
    Allow,
    /// seccomp `Kill`.
    Kill,
    /// A traced number, but no tracer is attached to the process: Linux
    /// returns ENOSYS to the caller.
    NoTracer,
    /// The tracer settled a trap: dispatch unless the record denies.
    Trapped(TrapRecord),
}

/// One trap as its stages settled it: what the sinks read.
pub(crate) struct TrapRecord {
    /// World trap ordinal (1-based).
    seq: u64,
    sysno: u32,
    /// seccomp returned `TracePrefiltered` (only these enter the
    /// escalation-burst window).
    prefiltered: bool,
    /// 1 = tier-1 prefilter allow, 2 = monitor stop.
    tier: u8,
    /// [`EscalateReason::code`] that sent the trap to tier 2 (`u8::MAX`
    /// when tier 1 settled it).
    esc: u8,
    /// The monitor's deny reason.
    pub(crate) deny: Option<String>,
    /// The prefilter's flow word for the pid after tier 1.
    flow: u64,
    /// `trace_cycles` when the trap opened.
    start: u64,
    /// Monitor-side cycles the trap cost: tier 1, the stop and tier 2.
    verify: u64,
    /// Ring slot of tier 2's `PENDING` flight entry.
    slot: Option<usize>,
}

impl TrapRecord {
    fn flight_entry(&self, verdict: u8, vcycles: u64) -> FlightEntry {
        FlightEntry {
            trap: self.seq,
            sysno: self.sysno,
            tier: self.tier,
            verdict,
            esc: self.esc,
            vcycles,
            flow: self.flow,
        }
    }
}

/// The always-on flight recorder and its two dump triggers. Recording is
/// host-side memory writes only — zero virtual cycles — so clean-path
/// cycle counts are byte-identical with and without anyone reading it.
#[derive(Clone, Default)]
pub(crate) struct Flight {
    /// A bounded ring of compact per-trap summaries (a `RefCell` so the
    /// monitor's deny path can read it through the [`Tracee`]).
    pub(crate) ring: RefCell<FlightRecorder>,
    /// Dumps captured on ladder-rung transitions and escalation bursts,
    /// oldest first, capped at [`MAX_FLIGHT_DUMPS`].
    pub(crate) dumps: Vec<FlightDump>,
    /// Tracer resilience-ladder rung observed after the last trap.
    last_rung: u8,
    /// Sliding window over prefiltered traps: one bit each, 1 = the trap
    /// escalated to tier 2.
    esc_window: u16,
    /// How many of `esc_window`'s bits are populated (saturates at 16).
    esc_window_len: u8,
    /// Trap ordinal before which no further burst dump is captured
    /// (cooldown so a sustained burst yields one dump, not one per trap).
    burst_cooldown: u64,
}

impl Flight {
    /// The sinks: closes the `trap` span and writes the sketches, the
    /// flight entry and the dump triggers from `rec`, at the trap's end on
    /// the monitor-time axis. `rung` is the tracer's ladder rung after
    /// the verdict.
    fn settle(&mut self, rec: &TrapRecord, rung: u8) {
        let end = rec.start + rec.verify;
        obs::span_end(Phase::Trap, rec.seq, end, u64::from(rec.deny.is_some()));
        obs::sketch_observe("trap.verify_cycles", rec.verify);
        let tier_sketch = match rec.tier {
            1 => "trap.tier1_cycles",
            _ => "trap.tier2_cycles",
        };
        obs::sketch_observe(tier_sketch, rec.verify);
        let settled = match rec.deny {
            Some(_) => verdict::DENY,
            None => verdict::ALLOW,
        };
        let ring = self.ring.get_mut();
        match rec.slot {
            Some(slot) => ring.finalize(slot, settled, rec.verify),
            None => {
                ring.record(rec.flight_entry(settled, rec.verify));
            }
        }
        if rung != self.last_rung {
            self.last_rung = rung;
            self.capture(FlightTrigger::LadderRung, rec.seq);
        }
        if rec.prefiltered {
            self.esc_window = (self.esc_window << 1) | u16::from(rec.tier == 2);
            self.esc_window_len = (self.esc_window_len + 1).min(16);
            if self.esc_window_len == 16
                && self.esc_window.count_ones() >= ESC_BURST_THRESHOLD
                && rec.seq >= self.burst_cooldown
            {
                self.burst_cooldown = rec.seq + 16;
                self.capture(FlightTrigger::EscalationBurst, rec.seq);
            }
        }
    }

    /// Captures the ring into the dump log.
    fn capture(&mut self, trigger: FlightTrigger, trap: u64) {
        if self.dumps.len() >= MAX_FLIGHT_DUMPS {
            self.dumps.remove(0);
        }
        self.dumps.push(FlightDump {
            trigger,
            trap,
            entries: self.ring.get_mut().dump(),
        });
    }
}

impl World {
    /// Runs the pipeline for syscall `nr` entered by process `idx`.
    pub(crate) fn trap(&mut self, idx: usize, nr: u32) -> Gate {
        let World {
            kernel,
            procs,
            tracer,
            trace_cycles: charge,
            trap_count,
            faults,
            flight,
            ..
        } = self;
        let p = &mut procs[idx];
        let action = match &p.seccomp {
            Some(f) => {
                kernel.cycles += kernel.cost.seccomp;
                obs::counter_add("kernel.seccomp_evals", 1);
                f.eval(nr)
            }
            None => SeccompAction::Allow,
        };
        let prefiltered = match action {
            SeccompAction::Allow => return Gate::Allow,
            SeccompAction::Kill => return Gate::Kill,
            SeccompAction::Trace => false,
            SeccompAction::TracePrefiltered => true,
        };
        let (true, Some(tracer)) = (p.traced, tracer.as_deref_mut()) else {
            return Gate::NoTracer;
        };
        *trap_count += 1;
        let (seq, start) = (*trap_count, *charge);
        // The trap span opens on the monitor-time axis before the
        // ptrace-stop cost lands, so per-trap durations sum to exactly
        // `trace_cycles - init_cycles`.
        obs::span_begin(Phase::Trap, seq, start);
        obs::instant(Phase::SeccompClassify, seq, start, u64::from(nr));
        let mut escalated = Some(EscalateReason::NoPrefilter);
        if prefiltered {
            // Tier 1: the compiled check program, in-kernel. It never sees
            // injected faults: any installed schedule escalates, so faults
            // always land on the monitor's fail-closed resilience ladder.
            obs::span_begin(Phase::PrefilterCheck, seq, *charge);
            *charge += kernel.cost.prefilter_eval;
            let mut tracee = Tracee::new(&p.machine, p.pid, charge);
            escalated = match tracer.prefilter(&mut tracee, faults.is_some()) {
                PrefilterVerdict::Allow => None,
                PrefilterVerdict::Escalate(reason) => Some(reason),
            };
            let hit = u64::from(escalated.is_none());
            obs::span_end(Phase::PrefilterCheck, seq, *charge, hit);
            if let Some(reason) = escalated {
                obs::instant(Phase::PrefilterEscalate, seq, *charge, reason.code());
            }
        }
        let mut rec = TrapRecord {
            seq,
            sysno: nr,
            prefiltered,
            tier: 1,
            esc: u8::MAX,
            deny: None,
            flow: tracer.flow_word(p.pid),
            start,
            verify: 0,
            slot: None,
        };
        if let Some(reason) = escalated {
            // Tier 2: the authoritative monitor stop. App-state faults flip
            // the app's registers, stack or shadow locals first, so the
            // monitor verifies the post-fault state, never approves it.
            (rec.tier, rec.esc) = (2, reason.code() as u8);
            *charge += kernel.cost.ptrace_stop;
            if let Some(f) = faults {
                let flips = {
                    let mut inj = f.borrow_mut();
                    inj.begin_trap(seq);
                    inj.app_state_flips()
                };
                for (a, b) in flips {
                    obs::counter_add(p.machine.chaos_flip(a, b), 1);
                }
            }
            // Recorded `PENDING` before the monitor runs, so a deny dump
            // always includes the trap being denied.
            let pending = rec.flight_entry(verdict::PENDING, 0);
            rec.slot = Some(flight.ring.get_mut().record(pending));
            let mut tracee = Tracee::with_faults(&p.machine, p.pid, charge, faults.as_ref());
            tracee.attach_flight(&flight.ring);
            if let TraceVerdict::Deny(reason) = tracer.on_trap(&mut tracee) {
                rec.deny = Some(reason);
            }
        }
        rec.verify = *charge - start;
        flight.settle(&rec, tracer.ladder_rung());
        Gate::Trapped(rec)
    }
}
