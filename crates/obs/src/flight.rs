//! Always-on flight recorder: a bounded ring of compact per-trap
//! summaries, dumped when something goes wrong.
//!
//! Post-hoc span tracing (`bastion trace`) answers "what did this run
//! do", but only when telemetry was enabled up front. *SFP* (PAPERS.md)
//! shows fault-induced denies are only diagnosable with the state
//! *leading up to* the violation — so the kernel records a few words per
//! trap into this ring unconditionally: syscall number, verification
//! tier, verdict, escalation-reason code, charged virtual cycles, and
//! the prefilter's flow-automaton word. Recording is host-side memory
//! writes only; **zero virtual cycles** are ever charged, so clean-path
//! cycle counts stay byte-identical with the recorder running (`perf_gate`
//! re-proves this against `BENCH_interp.json`).
//!
//! The ring is dumped and joined to its [`crate::DenyRecord`] on every
//! deny, and captured as a labelled [`FlightDump`] on ladder-rung
//! transitions and tier-1 escalation bursts. The instance lives in the
//! simulated kernel's `World` (not a thread-local) so fleet workers,
//! checkpoint forks, and warm/cold chaos cells all see per-world,
//! schedule-independent contents — the same determinism contract as the
//! metrics registry.

use serde::{Deserialize, Serialize};

/// Default ring capacity: enough context to read the run-up to a deny
/// without bloating `WorldSnapshot` checkpoints.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 16;

/// Verdict byte of a [`FlightEntry`].
pub mod verdict {
    /// Trap allowed (either tier).
    pub const ALLOW: u8 = 0;
    /// Trap denied by the monitor.
    pub const DENY: u8 = 1;
    /// Trap entered tier 2 and the verdict is not in yet (the in-flight
    /// entry a deny dump captures for the trap being denied).
    pub const PENDING: u8 = 2;
}

/// One compact per-trap summary — a few machine words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEntry {
    /// World trap ordinal (1-based), the join key against
    /// [`crate::DenyRecord::trap_seq`] and the fault log.
    pub trap: u64,
    /// Trapped syscall number.
    pub sysno: u32,
    /// Verification tier that settled the trap: 1 = seccomp-time
    /// prefilter allow, 2 = full monitor stop.
    pub tier: u8,
    /// One of [`verdict`]'s codes.
    pub verdict: u8,
    /// `EscalateReason::code()` that sent the trap to tier 2
    /// (`u8::MAX` for tier-1 allows — nothing escalated).
    pub esc: u8,
    /// Virtual cycles charged to this trap's verification.
    pub vcycles: u64,
    /// The prefilter's flow-automaton state word for the trapping pid at
    /// classify time (0 when no prefilter tracks this pid).
    pub flow: u64,
}

/// Why a [`FlightDump`] was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightTrigger {
    /// The monitor's resilience ladder changed rungs.
    LadderRung,
    /// A burst of tier-1 escalations (possible probe/attack churn).
    EscalationBurst,
}

impl FlightTrigger {
    /// Stable snake_case label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlightTrigger::LadderRung => "ladder_rung",
            FlightTrigger::EscalationBurst => "escalation_burst",
        }
    }
}

/// A captured ring dump with the trap that triggered it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    /// What tripped the capture.
    pub trigger: FlightTrigger,
    /// World trap ordinal at capture time.
    pub trap: u64,
    /// Ring contents, oldest first (the triggering trap is last).
    pub entries: Vec<FlightEntry>,
}

/// The bounded ring. Preallocated at construction; recording after
/// warm-up never allocates, mirroring `SpanTracer`'s ring discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    entries: Vec<FlightEntry>,
    cap: usize,
    /// Slot the next record overwrites once the ring is full.
    next: usize,
    /// Total records ever made (can exceed `cap`).
    total: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A ring holding the most recent `capacity` entries (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder {
            entries: Vec::with_capacity(cap),
            cap,
            next: 0,
            total: 0,
        }
    }

    /// Records one entry, overwriting the oldest when full. Returns the
    /// slot index so the caller can [`FlightRecorder::finalize`] the same
    /// entry once the verdict is in.
    pub fn record(&mut self, entry: FlightEntry) -> usize {
        self.total += 1;
        if self.entries.len() < self.cap {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let slot = self.next;
            self.entries[slot] = entry;
            self.next = (self.next + 1) % self.cap;
            slot
        }
    }

    /// Settles a previously recorded in-flight entry: final verdict and
    /// the cycles the trap ended up costing.
    pub fn finalize(&mut self, slot: usize, verdict: u8, vcycles: u64) {
        if let Some(e) = self.entries.get_mut(slot) {
            e.verdict = verdict;
            e.vcycles = vcycles;
        }
    }

    /// Ring contents, oldest first. Non-destructive — a dump is a copy,
    /// the ring keeps rolling.
    #[must_use]
    pub fn dump(&self) -> Vec<FlightEntry> {
        let mut out = Vec::with_capacity(self.entries.len());
        out.extend_from_slice(&self.entries[self.next..]);
        out.extend_from_slice(&self.entries[..self.next]);
        out
    }

    /// Total entries ever recorded.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trap: u64) -> FlightEntry {
        FlightEntry {
            trap,
            sysno: 1,
            tier: 1,
            verdict: verdict::ALLOW,
            esc: u8::MAX,
            vcycles: 10 * trap,
            flow: trap,
        }
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut r = FlightRecorder::new(4);
        for t in 1..=10 {
            r.record(entry(t));
        }
        let d = r.dump();
        assert_eq!(d.iter().map(|e| e.trap).collect::<Vec<_>>(), [7, 8, 9, 10]);
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn partial_ring_dumps_in_insertion_order() {
        let mut r = FlightRecorder::new(8);
        r.record(entry(1));
        r.record(entry(2));
        assert_eq!(r.dump().iter().map(|e| e.trap).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn finalize_settles_the_inflight_entry() {
        let mut r = FlightRecorder::new(2);
        let mut e = entry(1);
        e.verdict = verdict::PENDING;
        e.vcycles = 0;
        let slot = r.record(e);
        r.finalize(slot, verdict::DENY, 777);
        let d = r.dump();
        assert_eq!(d[0].verdict, verdict::DENY);
        assert_eq!(d[0].vcycles, 777);
    }

    #[test]
    fn dump_is_nondestructive_and_serializable() {
        let mut r = FlightRecorder::new(3);
        r.record(entry(1));
        let before = r.dump();
        assert_eq!(r.dump(), before);
        let dump = FlightDump {
            trigger: FlightTrigger::EscalationBurst,
            trap: 1,
            entries: before,
        };
        let json = serde_json::to_string(&dump).unwrap();
        assert!(json.contains("\"trigger\""), "{json}");
        assert_eq!(FlightTrigger::LadderRung.label(), "ladder_rung");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = FlightRecorder::new(0);
        r.record(entry(1));
        r.record(entry(2));
        assert_eq!(r.dump().len(), 1);
        assert_eq!(r.dump()[0].trap, 2);
    }
}
