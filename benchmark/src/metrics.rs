//! The metric catalogue — names, units, direction, bounds — and how each
//! metric is computed from a run. `BENCHMARK.json` lists the same two
//! tables; a unit test keeps them equal.

use crate::reference::Timed;
use crate::replica::Totals;
use crate::stats::{percentile, Quartiles};
use crate::trace::Profile;
use crate::workloads::Rep;
use bastion::vm::mem::PAGE_SIZE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A host-clock metric a user of the simulator sees, with the share of
/// its median by which it may worsen before a change counts as a
/// regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every end-to-end metric (untraced runs). Host
/// times are at the nominal host speed (see `reference.rs`).
pub const END_TO_END: [EndToEnd; 3] = [
    // Median of the run's set-ups. Short sections of compile, boot and
    // teardown jitter most, so this bound is the widest (shared with
    // ops_per_s: on a shared 2-vCPU host, 20-second medians of
    // copy-bound work still drift ~7% after normalization).
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Operations per host second over whole repetitions (set-up
    // included): HTTP requests, FTP downloads, grid runs or chaos cells.
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Median over repetitions of the most heap bytes live at once (see
    // heap.rs): the same tenant list allocates the same bytes, so this
    // moves only with the program and the seed.
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric of a traced run (no bound). Which direction is
/// better is recorded in `BENCHMARK.json` only: nothing here judges it.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit }
}

/// Every workload reports every per-layer metric (traced runs); a layer a
/// workload never enters reads 0.
pub const PER_LAYER: [Layer; 38] = [
    layer("minic.front_ms", "ms"),
    layer("compiler.instrument_ms", "ms"),
    layer("vm.image_load_ms", "ms"),
    layer("apps.setup_vfs_ms", "ms"),
    layer("monitor.attach_us", "us"),
    layer("kernel.boot_run_ms", "ms"),
    layer("kernel.run_self_s", "s"),
    layer("kernel.run_calls", "count"),
    layer("vm.msteps_per_s", "Msteps/s"),
    layer("apps.client_self_s", "s"),
    layer("apps.client_calls", "count"),
    layer("apps.payload_mb_per_s", "MB/s"),
    layer("monitor.tier1_calls", "count"),
    layer("monitor.tier1_hit_rate", "ratio"),
    layer("monitor.tier1_ns_per_call", "ns"),
    layer("monitor.tier2_calls", "count"),
    layer("monitor.tier2_us_per_call", "us"),
    layer("monitor.tier2_denies", "count"),
    layer("monitor.host_share", "ratio"),
    layer("monitor.verify_cyc_per_trap", "cycles"),
    layer("monitor.init_cycles", "cycles"),
    layer("monitor.prefilter_compile_cycles", "cycles"),
    layer("obs.turn_us", "us"),
    layer("serve.turns", "count"),
    layer("serve.parked_frac", "ratio"),
    layer("serve.turn_us_p50", "us"),
    layer("serve.turn_us_p99", "us"),
    layer("core.self_s", "s"),
    layer("kernel.snapshot_us", "us"),
    layer("kernel.restore_us", "us"),
    layer("kernel.resident_mb", "MiB"),
    layer("kernel.shared_pages", "count"),
    layer("chaos.benign_s", "s"),
    layer("chaos.attack_s", "s"),
    layer("chaos.generated_s", "s"),
    layer("chaos.faults_fired", "count"),
    layer("trace.overhead_pct", "%"),
    layer("trace.residual_pct", "%"),
];

/// The bound of an end-to-end metric, `None` for any other name.
pub fn bound_of(name: &str) -> Option<(f64, Better)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.bound, m.better))
}

/// End-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(setups: &[Timed], reps: &[(Rep, Timed)], heap_peaks: &[f64]) -> [Quartiles; 3] {
    let setup: Vec<f64> = setups.iter().map(Timed::normalized_s).collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|(r, t)| r.ops as f64 / t.normalized_s())
        .collect();
    [
        Quartiles::of(&setup),
        Quartiles::of(&rates),
        Quartiles::of(heap_peaks),
    ]
}

/// The same host quantities before normalization, and the slowdown that
/// scaled them, for the detail line: `(name, unit, quartiles)`.
pub fn raw_host(
    setups: &[Timed],
    reps: &[(Rep, Timed)],
) -> [(&'static str, &'static str, Quartiles); 3] {
    let setup: Vec<f64> = setups.iter().map(|t| t.wall_s).collect();
    let rates: Vec<f64> = reps.iter().map(|(r, t)| r.ops as f64 / t.wall_s).collect();
    let slowdown: Vec<f64> = setups
        .iter()
        .chain(reps.iter().map(|(_, t)| t))
        .map(|t| t.slowdown)
        .collect();
    [
        ("raw_setup_s", "s", Quartiles::of(&setup)),
        ("raw_ops_per_s", "1/s", Quartiles::of(&rates)),
        ("host_slowdown", "ratio", Quartiles::of(&slowdown)),
    ]
}

/// What one traced repetition measured, for [`per_layer`].
#[derive(Debug)]
pub struct TracedRep<'a> {
    /// Spans of the replica, folded.
    pub profile: &'a Profile,
    /// Snapshot/restore spans of the probe run outside the repetition.
    pub probe: &'a Profile,
    pub totals: Totals,
    /// The traced replica and the untraced repetition of the same inputs.
    pub traced: Timed,
    pub untraced: Timed,
}

/// Per-layer metrics of one traced repetition, in [`PER_LAYER`] order.
pub fn per_layer(r: &TracedRep<'_>) -> [f64; PER_LAYER.len()] {
    let p = r.profile;
    let t = &r.totals;
    let secs = |ns: u64| ns as f64 / 1e9;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mean_ns = |name: &str| {
        let a = p.get(name);
        ratio(a.incl_ns as f64, a.count as f64)
    };
    let both = |name: &str| {
        let (a, b) = (p.get(name), r.probe.get(name));
        ratio((a.incl_ns + b.incl_ns) as f64, (a.count + b.count) as f64)
    };
    let run_self = p.get("kernel.run").self_ns + p.get("kernel.boot_run").self_ns;
    let clients = ["apps.pump", "apps.loadgen", "apps.chaos_client"];
    let client_self: u64 = clients.iter().map(|c| p.get(c).self_ns).sum();
    let client_calls: u64 = clients.iter().map(|c| p.get(c).count).sum();
    // Loadgen owns its scheduler loop, so its self time is interpreter
    // time too.
    let interp_ns = run_self + p.get("apps.loadgen").self_ns;
    let (t1, t2) = (p.get("monitor.tier1"), p.get("monitor.tier2"));
    let turns = p.get("core.turn");
    let turn_ns: &[f64] = p.durations.get("core.turn").map_or(&[], Vec::as_slice);
    let wall_ns = r.traced.wall_s * 1e9;
    [
        secs(p.get("minic.front").incl_ns) * 1e3,
        secs(p.get("compiler.instrument").incl_ns) * 1e3,
        secs(p.get("vm.image_load").incl_ns) * 1e3,
        mean_ns("apps.setup_vfs") / 1e6,
        mean_ns("monitor.attach") / 1e3,
        mean_ns("kernel.boot_run") / 1e6,
        secs(run_self),
        (p.get("kernel.run").count + p.get("kernel.boot_run").count) as f64,
        ratio(t.steps as f64 / 1e6, secs(interp_ns)),
        secs(client_self),
        client_calls as f64,
        ratio(t.payload_bytes as f64 / 1e6, secs(client_self + run_self)),
        t1.count as f64,
        ratio(t1.flagged as f64, t1.count as f64),
        ratio(t1.incl_ns as f64, t1.count as f64),
        t2.count as f64,
        ratio(t2.incl_ns as f64, t2.count as f64) / 1e3,
        t2.flagged as f64,
        ratio((t1.incl_ns + t2.incl_ns) as f64, wall_ns),
        ratio(t.verify_cycles as f64, t.traps as f64),
        ratio(t.init_cycles as f64, t.attaches as f64),
        ratio(t.prefilter_compile_cycles as f64, t.attaches as f64),
        ratio(p.get("obs.telemetry").incl_ns as f64, turns.count as f64) / 1e3,
        turns.count as f64,
        ratio(t.parked as f64, t.turns as f64),
        percentile(turn_ns, 50.0) / 1e3,
        percentile(turn_ns, 99.0) / 1e3,
        secs(p.self_ns_of("core.")),
        both("kernel.snapshot") / 1e3,
        both("kernel.restore") / 1e3,
        (t.resident_pages * PAGE_SIZE) as f64 / (1024.0 * 1024.0),
        t.shared_pages as f64,
        secs(p.get("chaos.benign").incl_ns),
        secs(p.get("chaos.attack").incl_ns),
        secs(p.get("chaos.generated").incl_ns),
        t.faults_fired as f64,
        (r.traced.normalized_s() / r.untraced.normalized_s() - 1.0) * 100.0,
        ratio(wall_ns - p.self_total_ns as f64, wall_ns) * 100.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;
    use serde::Value;

    /// Whether `name` is a valid metric or workload name: starts with a
    /// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str::<Json>(&text)
            .expect("BENCHMARK.json parses")
            .0
    }

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn str_of(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.field(key).expect("key present") {
            Value::Array(a) => a,
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
        let doc = benchmark_json();
        let e2e = items(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(str_of(j.field("name").unwrap()), m.name);
            assert_eq!(str_of(j.field("unit").unwrap()), m.unit);
            assert_eq!(str_of(j.field("better").unwrap()), direction(m.better));
            assert_eq!(
                j.field("bound").unwrap(),
                &Value::Float(m.bound),
                "{}",
                m.name
            );
        }
        let layers = items(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(str_of(j.field("name").unwrap()), m.name);
            assert_eq!(str_of(j.field("unit").unwrap()), m.unit);
            assert!(matches!(
                str_of(j.field("better").unwrap()),
                "higher" | "lower"
            ));
        }
        let workloads: Vec<&str> = items(&doc, "workloads")
            .iter()
            .map(|w| str_of(w.field("name").unwrap()))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn every_workload_emits_every_metric() {
        for w in Workload::ALL {
            let rep = Rep {
                ops: 10,
                attempted: 10,
                failed: 0,
                checks: Vec::new(),
                virt: Vec::new(),
                fingerprint: Vec::new(),
            };
            let t = Timed {
                wall_s: 2.0,
                slowdown: 1.0,
            };
            assert_eq!(
                end_to_end(&[t], &[(rep, t)], &[100.0]).len(),
                END_TO_END.len(),
                "{}",
                w.name()
            );
            let empty = Profile::default();
            let traced = TracedRep {
                profile: &empty,
                probe: &empty,
                totals: Totals::default(),
                traced: t,
                untraced: t,
            };
            let v = per_layer(&traced);
            assert_eq!(v.len(), PER_LAYER.len(), "{}", w.name());
            assert!(
                v.iter().all(|x| x.is_finite()),
                "an idle layer reads 0, never NaN"
            );
        }
    }
}
