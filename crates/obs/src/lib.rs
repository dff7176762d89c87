//! # bastion-obs
//!
//! End-to-end telemetry for the BASTION stack: per-trap span tracing, a
//! metrics registry with mergeable quantile sketches, the deny-provenance
//! audit log, an always-on flight recorder, and exporters (Chrome
//! `trace_event` JSON, metrics JSON/JSONL, Prometheus text exposition).
//! Zero external dependencies beyond the in-repo serde shims.
//!
//! ## Overhead policy
//!
//! Instrumentation lives on the monitor trap pipeline, so the disabled path
//! must be unmeasurable: every recording entry point checks a thread-local
//! `Cell<bool>` first and returns after that **single branch** when
//! telemetry is off. Nothing is allocated, no clock is read, and — crucially
//! for the deterministic benchmarks — no virtual cycles are ever charged by
//! this crate, so clean-path cycle counts are bit-identical with telemetry
//! on *or* off; only wall-clock time differs.
//!
//! ## Clock model
//!
//! Events carry two timestamps: `vcycles`, the world's monitor-time clock
//! (`World::trace_cycles`, which is the only clock that advances while a
//! tracee is stopped in a trap), and `wall_ns`, a monotonic wall-clock
//! anchored when tracing was enabled. `vcycles` is deterministic and is what
//! exporters use as the Chrome-trace timeline; `wall_ns` is diagnostic.
//!
//! ## Deny provenance
//!
//! [`DenyRecord`] is *not* gated by the enable flag: denies are terminal
//! (the tracee is killed), so the monitor always builds the record, and it
//! becomes the kill reason of the killed process's `MonitorKill` exit,
//! where tests, the chaos harness and the CLI read it.

pub mod deny;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod sketch;
pub mod span;

pub use deny::{DenyContext, DenyRecord, DenyRule, FaultCtx};
pub use export::{
    chrome_trace_json, metrics_json, metrics_jsonl_line, phase_totals, prometheus_text,
    validate_chrome_trace, validate_prometheus, PhaseTotal, PromShape, TraceShape,
};
pub use flight::{FlightDump, FlightEntry, FlightRecorder, FlightTrigger};
pub use metrics::{CounterSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sketch::{QuantileSketch, SketchBucket, SketchSnapshot};
pub use span::{EventKind, Phase, SpanTracer, TraceEvent};

use std::cell::{Cell, RefCell};

thread_local! {
    /// The single branch the disabled path pays.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<SpanTracer>> = const { RefCell::new(None) };
    static METRICS: RefCell<Option<MetricsRegistry>> = const { RefCell::new(None) };
}

/// Whether telemetry is enabled on this thread.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// RAII scope for the thread-local telemetry state, and the only way to
/// turn telemetry on: swaps in a fresh span ring (preallocated up front;
/// recording never allocates afterwards) + metrics registry and restores
/// whatever was installed before on drop (including on panic), so
/// telemetry cannot leak into later tests or into fleet workers that
/// reuse the same OS thread.
///
/// Call [`TelemetryGuard::finish`] to harvest the scope's events and
/// registry (the fleet runner merges them across workers); merely dropping
/// the guard discards them.
#[derive(Debug)]
pub struct TelemetryGuard {
    prev: Option<(bool, Option<SpanTracer>, Option<MetricsRegistry>)>,
}

impl TelemetryGuard {
    /// Enables telemetry on this thread with a fresh ring of `capacity`
    /// events and a fresh metrics registry, saving the previous state.
    #[must_use = "dropping the guard immediately restores the previous telemetry state"]
    pub fn enable(capacity: usize) -> Self {
        let prev_enabled = ENABLED.with(Cell::get);
        let prev_tracer = TRACER.with(|t| t.borrow_mut().replace(SpanTracer::new(capacity)));
        let prev_metrics = METRICS.with(|m| m.borrow_mut().replace(MetricsRegistry::new()));
        ENABLED.with(|e| e.set(true));
        TelemetryGuard {
            prev: Some((prev_enabled, prev_tracer, prev_metrics)),
        }
    }

    /// Drains this scope's events and takes its registry, then restores
    /// the previous telemetry state.
    pub fn finish(mut self) -> (Vec<TraceEvent>, MetricsRegistry) {
        let events = take_events();
        let registry = METRICS.with(|m| m.borrow_mut().take()).unwrap_or_default();
        self.restore();
        (events, registry)
    }

    fn restore(&mut self) {
        if let Some((enabled, tracer, metrics)) = self.prev.take() {
            ENABLED.with(|e| e.set(enabled));
            TRACER.with(|t| *t.borrow_mut() = tracer);
            METRICS.with(|m| *m.borrow_mut() = metrics);
        }
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        self.restore();
    }
}

/// Total events recorded in the current [`TelemetryGuard`] scope
/// (including any overwritten by ring wraparound). 0 when telemetry is
/// off.
pub fn event_count() -> u64 {
    TRACER.with(|t| t.borrow().as_ref().map_or(0, |s| s.total_recorded()))
}

/// Drains the ring buffer, returning its events in chronological order.
fn take_events() -> Vec<TraceEvent> {
    TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map_or_else(Vec::new, SpanTracer::take)
    })
}

/// Opens a span. A no-op (single branch) when telemetry is disabled.
#[inline]
pub fn span_begin(phase: Phase, trap: u64, vcycles: u64) {
    if !ENABLED.with(Cell::get) {
        return;
    }
    record(TraceEvent::new(EventKind::Begin, phase, trap, vcycles, 0));
}

/// Closes a span; `arg` carries a phase-specific payload (walk depth,
/// pointee bytes, deny flag). A no-op when telemetry is disabled.
#[inline]
pub fn span_end(phase: Phase, trap: u64, vcycles: u64, arg: u64) {
    if !ENABLED.with(Cell::get) {
        return;
    }
    record(TraceEvent::new(EventKind::End, phase, trap, vcycles, arg));
}

/// Records an instantaneous event (cache hit, retry, deny marker). A no-op
/// when telemetry is disabled.
#[inline]
pub fn instant(phase: Phase, trap: u64, vcycles: u64, arg: u64) {
    if !ENABLED.with(Cell::get) {
        return;
    }
    record(TraceEvent::new(
        EventKind::Instant,
        phase,
        trap,
        vcycles,
        arg,
    ));
}

fn record(ev: TraceEvent) {
    TRACER.with(|t| {
        if let Some(s) = t.borrow_mut().as_mut() {
            s.record(ev);
        }
    });
}

/// Adds `delta` to the named counter. A no-op when telemetry is disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !ENABLED.with(Cell::get) {
        return;
    }
    METRICS.with(|m| {
        if let Some(r) = m.borrow_mut().as_mut() {
            r.counter_add(name, delta);
        }
    });
}

/// Records `value` into the named quantile sketch (log-bucketed, see
/// [`sketch::QuantileSketch`]). A no-op when telemetry is disabled.
#[inline]
pub fn sketch_observe(name: &'static str, value: u64) {
    if !ENABLED.with(Cell::get) {
        return;
    }
    METRICS.with(|m| {
        if let Some(r) = m.borrow_mut().as_mut() {
            r.sketch_observe(name, value);
        }
    });
}

/// Snapshots the metrics registry as a plain serializable struct. Empty
/// when telemetry is disabled.
pub fn metrics_snapshot() -> MetricsSnapshot {
    METRICS.with(|m| {
        m.borrow()
            .as_ref()
            .map_or_else(MetricsSnapshot::default, MetricsRegistry::snapshot)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_records_nothing() {
        assert!(!is_enabled());
        span_begin(Phase::Trap, 1, 100);
        span_end(Phase::Trap, 1, 200, 0);
        instant(Phase::Retry, 1, 150, 1);
        counter_add("x", 1);
        sketch_observe("z", 9);
        assert_eq!(event_count(), 0);
        assert!(take_events().is_empty());
        assert!(metrics_snapshot().counters.is_empty());
        assert!(metrics_snapshot().sketches.is_empty());
    }

    #[test]
    fn enabled_roundtrip() {
        let guard = TelemetryGuard::enable(16);
        span_begin(Phase::Trap, 1, 100);
        span_begin(Phase::CtCheck, 1, 110);
        span_end(Phase::CtCheck, 1, 150, 0);
        span_end(Phase::Trap, 1, 200, 0);
        counter_add("monitor.traps", 1);
        sketch_observe("monitor.walk_depth", 3);
        assert_eq!(event_count(), 4);
        let (evs, registry) = guard.finish();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].phase, Phase::Trap);
        assert_eq!(evs[0].kind, EventKind::Begin);
        let snap = registry.snapshot();
        assert_eq!(snap.counters[0].value, 1);
        assert_eq!(snap.sketch("monitor.walk_depth").unwrap().count, 1);
        assert!(!is_enabled());
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn telemetry_guard_restores_outer_state() {
        // Outer telemetry with one recorded event.
        let outer = TelemetryGuard::enable(8);
        span_begin(Phase::Trap, 1, 10);
        {
            let g = TelemetryGuard::enable(8);
            assert!(is_enabled());
            assert_eq!(event_count(), 0, "guard starts a fresh ring");
            instant(Phase::Retry, 9, 20, 0);
            counter_add("worker.only", 3);
            let (events, reg) = g.finish();
            assert_eq!(events.len(), 1);
            assert_eq!(reg.snapshot().counter("worker.only"), Some(3));
        }
        // Outer ring and registry are back, untouched by the scope.
        assert!(is_enabled());
        assert_eq!(event_count(), 1);
        assert_eq!(metrics_snapshot().counter("worker.only"), None);
        let (events, _) = outer.finish();
        assert_eq!(events[0].phase, Phase::Trap);
        assert!(!is_enabled());
        // A dropped (unfinished) guard also restores: disabled stays
        // disabled afterwards.
        {
            let _g = TelemetryGuard::enable(4);
            assert!(is_enabled());
        }
        assert!(!is_enabled());
        assert_eq!(event_count(), 0);
    }
}
