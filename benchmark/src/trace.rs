//! Host-time spans recorded from the benchmark's own files.
//!
//! A span wraps one call into a layer's public API. Spans nest on one
//! thread, stay in memory while a traced repetition runs, and are folded
//! into per-layer self times afterwards: a span's self time is its
//! duration minus the part of it that its children cover. Tier-1 and
//! tier-2 verification are timed by [`Timed`], a delegating tracer slipped
//! between the world and the monitor.
//!
//! Recording is per thread and off by default: outside
//! [`record`] every span helper just runs its closure.

use bastion::kernel::{PrefilterVerdict, TraceVerdict, Tracee, Tracer, World};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel: the span inherits its parent's unit.
const INHERIT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// The tenant (serve) or cell (grid, chaos) the span works for.
    pub unit: u32,
    /// Outcome bit: a tier-1 hit, a tier-2 deny.
    pub flag: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Runs `f` with span recording on and returns its result with every span
/// it closed, in opening order.
///
/// # Panics
/// Panics if recording is already on, or if `f` leaves a span open.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<Span>) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.is_none(), "span recording is already on");
        *r = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
    let out = f();
    let rec = REC
        .with(|r| r.borrow_mut().take())
        .expect("recorder installed above");
    assert!(rec.open.is_empty(), "a span was left open");
    (out, rec.spans)
}

fn recording() -> bool {
    REC.with(|r| r.borrow().is_some())
}

fn enter(name: &'static str, unit: u32) -> Option<usize> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let parent = rec.open.last().copied();
        let unit = match (unit, parent) {
            (INHERIT, Some(p)) => rec.spans[p].unit,
            (INHERIT, None) => 0,
            (u, _) => u,
        };
        let id = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            parent,
            name,
            unit,
            flag: false,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        Some(id)
    })
}

fn exit(id: Option<usize>, flag: bool) {
    let Some(id) = id else { return };
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("span closed after recording ended");
        let end_ns = rec.origin.elapsed().as_nanos() as u64;
        assert_eq!(rec.open.pop(), Some(id), "spans must close in LIFO order");
        let s = &mut rec.spans[id];
        s.end_ns = end_ns;
        s.flag = flag;
    });
}

/// Times `f` as span `name` working for `unit`.
pub fn span<R>(name: &'static str, unit: u32, f: impl FnOnce() -> R) -> R {
    let id = enter(name, unit);
    let r = f();
    exit(id, false);
    r
}

/// Times `f` as span `name` on behalf of the enclosing span's unit.
pub fn child<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span(name, INHERIT, f)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Children may overlap one another
/// (they never do on one thread, but the fold must not double-count if
/// they did).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub flagged: u64,
    pub incl_ns: u64,
    pub self_ns: u64,
}

/// Spans folded by name, plus the raw durations of every span (for
/// per-call percentiles).
#[derive(Debug, Default)]
pub struct Profile {
    pub by_name: BTreeMap<&'static str, Agg>,
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// Sum of all self times: equals the root spans' total duration when
    /// the fold is consistent.
    pub self_total_ns: u64,
}

impl Profile {
    pub fn of(spans: &[Span]) -> Profile {
        let selfs = self_times(spans);
        let mut p = Profile::default();
        for (s, own) in spans.iter().zip(selfs) {
            let a = p.by_name.entry(s.name).or_default();
            a.count += 1;
            a.flagged += u64::from(s.flag);
            a.incl_ns += s.dur_ns();
            a.self_ns += own;
            p.self_total_ns += own;
            p.durations
                .entry(s.name)
                .or_default()
                .push(s.dur_ns() as f64);
        }
        p
    }

    pub fn get(&self, name: &str) -> Agg {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of every span whose name starts with `prefix`.
    pub fn self_ns_of(&self, prefix: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, a)| a.self_ns)
            .sum()
    }
}

/// Writes spans as JSON lines `{id, parent, name, unit, flag, start_ns,
/// end_ns}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"unit\":{},\"flag\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.unit, s.flag, s.start_ns, s.end_ns
        );
    }
    out
}

/// A delegating tracer that times each tier-1 and tier-2 decision of the
/// tracer it wraps. It charges no virtual cycles and forwards everything
/// else — including [`Tracer::as_any`], so harness code that downcasts to
/// the monitor still finds it, and [`Tracer::snapshot_box`], so a
/// snapshot of a wrapped world restores wrapped.
pub struct Timed {
    inner: Box<dyn Tracer>,
}

impl Timed {
    /// Wraps `world`'s tracer while spans are being recorded; otherwise
    /// leaves the world untouched.
    pub fn wrap(world: &mut World) {
        if !recording() {
            return;
        }
        if let Some(inner) = world.take_tracer() {
            world.attach_tracer(Box::new(Timed { inner }));
        }
    }
}

impl Tracer for Timed {
    fn on_trap(&mut self, tracee: &mut Tracee<'_>) -> TraceVerdict {
        let id = enter("monitor.tier2", INHERIT);
        let v = self.inner.on_trap(tracee);
        exit(id, matches!(v, TraceVerdict::Deny(_)));
        v
    }

    fn prefilter(&mut self, tracee: &mut Tracee<'_>, faults_installed: bool) -> PrefilterVerdict {
        let id = enter("monitor.tier1", INHERIT);
        let v = self.inner.prefilter(tracee, faults_installed);
        exit(id, matches!(v, PrefilterVerdict::Allow));
        v
    }

    fn on_fork(&mut self, parent: bastion::kernel::Pid, child: bastion::kernel::Pid) {
        self.inner.on_fork(parent, child);
    }

    fn flow_word(&self, pid: bastion::kernel::Pid) -> u64 {
        self.inner.flow_word(pid)
    }

    fn ladder_rung(&self) -> u8 {
        self.inner.ladder_rung()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn snapshot_box(&self) -> Option<Box<dyn Tracer>> {
        self.inner
            .snapshot_box()
            .map(|inner| Box::new(Timed { inner }) as Box<dyn Tracer>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: "t.x",
            unit: 0,
            flag: false,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            sp(None, 0, 100),
            // Two children overlapping on 20..30, one poking past the end.
            sp(Some(0), 10, 30),
            sp(Some(0), 20, 40),
            sp(Some(0), 90, 120),
            // A grandchild counts against its parent only.
            sp(Some(1), 12, 18),
        ];
        let s = self_times(&spans);
        // Root: 100 - (10..40 = 30) - (90..100 = 10) = 60.
        assert_eq!(s[0], 60);
        assert_eq!(s[1], 20 - 6);
        assert_eq!(s[2], 20);
        assert_eq!(s[3], 30);
        assert_eq!(s[4], 6);
    }

    #[test]
    fn recorded_spans_nest_and_fold_to_the_root_duration() {
        let ((), spans) = record(|| {
            span("core.root", 7, || {
                child("kernel.run", || std::hint::black_box(1 + 1));
                child("apps.pump", || child("kernel.run", || ()));
            })
        });
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[3].parent, Some(2));
        assert!(
            spans.iter().all(|s| s.unit == 7),
            "children inherit the unit"
        );
        let p = Profile::of(&spans);
        assert_eq!(p.self_total_ns, spans[0].dur_ns());
        assert_eq!(p.get("kernel.run").count, 2);
        assert!(!recording());
        // Outside `record` the helpers are plain calls.
        assert_eq!(span("core.root", 0, || 5), 5);
    }

    #[test]
    fn wrapped_monitor_still_downcasts_for_the_chaos_report() {
        use bastion::{Deployment, Protection};
        let d = Deployment::from_minic("t", &["long main() { return socket(2, 1, 0); }"])
            .expect("test program compiles");
        let (stats, spans) = record(|| {
            let mut world = d.world();
            d.launch(&mut world, &Protection::full());
            Timed::wrap(&mut world);
            span("kernel.run", 0, || world.run(10_000_000));
            assert_eq!(world.trap_count, 1);
            bastion::chaos::monitor_report(&mut world).map(|(s, _)| s)
        });
        let stats = stats.expect("monitor_report sees the Monitor through the wrapper");
        assert_eq!(stats.traps, 1);
        let p = Profile::of(&spans);
        let tiers = p.get("monitor.tier1").count + p.get("monitor.tier2").count;
        assert!(tiers >= 1, "the trap was timed: {:?}", p.by_name);
    }
}
