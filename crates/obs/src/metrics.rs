//! The metrics registry: named counters and quantile sketches,
//! snapshotable as a plain serializable struct.
//!
//! Registration is lazy — the first `counter_add`/`sketch_observe` against
//! a name creates it. Distributions are [`QuantileSketch`]es only: values
//! below 128 keep an exact bucket each, and count/sum/min/max are exact,
//! so a sketch is strictly finer than power-of-two buckets for the small
//! integers (walk depth, probe lengths) the stack records. All storage is
//! owned by the registry; recording allocates only on first use of a name.

use crate::sketch::{QuantileSketch, SketchSnapshot};
use serde::Serialize;
use std::collections::BTreeMap;

/// Counters + quantile sketches for one thread of execution.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    sketches: BTreeMap<&'static str, QuantileSketch>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero on first use.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Records `value` into the named quantile sketch, creating it on
    /// first use (sketches have no bounds to declare).
    pub fn sketch_observe(&mut self, name: &'static str, value: u64) {
        self.sketches.entry(name).or_default().observe(value);
    }

    /// Read access to a named sketch (percentile queries mid-run).
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches.get(name)
    }

    /// Merges another registry into this one: counters add, sketches fold
    /// per log-bucket (always safe — the bucket mapping is global, not
    /// per-instance). Merging per-worker registries in a fixed order
    /// yields the same registry regardless of how work was scheduled
    /// across threads, because all maps are name-keyed and every operation
    /// commutes.
    pub fn merge(&mut self, other: MetricsRegistry) {
        for (name, value) in other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, s) in other.sketches {
            match self.sketches.entry(name) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(s);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&s),
            }
        }
    }

    /// Snapshots every counter and sketch into a plain struct.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(&name, &value)| CounterSnapshot {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            sketches: self
                .sketches
                .iter()
                .map(|(&name, s)| s.snapshot(name))
                .collect(),
        }
    }
}

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CounterSnapshot {
    /// Counter name (dotted, e.g. `monitor.retries`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// The whole registry as a plain struct (the metrics JSON dump).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MetricsSnapshot {
    /// All counters, name-sorted.
    pub counters: Vec<CounterSnapshot>,
    /// All quantile sketches, name-sorted.
    pub sketches: Vec<SketchSnapshot>,
}

impl MetricsSnapshot {
    /// Looks a counter up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks a quantile sketch up by name.
    pub fn sketch(&self, name: &str) -> Option<&SketchSnapshot> {
        self.sketches.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.counter_add("b", 1);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), Some(5));
        assert_eq!(s.counter("b"), Some(1));
        assert_eq!(s.counter("c"), None);
    }

    #[test]
    fn sketches_register_merge_and_snapshot() {
        let mut a = MetricsRegistry::new();
        for v in [10u64, 20, 3000] {
            a.sketch_observe("lat", v);
        }
        let mut b = MetricsRegistry::new();
        b.sketch_observe("lat", 40);
        b.sketch_observe("other", 7);
        a.merge(b);
        let s = a.snapshot();
        let lat = s.sketch("lat").unwrap();
        assert_eq!(lat.count, 4);
        assert_eq!(lat.min, 10);
        assert!(lat.p999 >= lat.p50);
        assert_eq!(s.sketch("other").unwrap().count, 1);
        assert!(a.sketch("lat").is_some());
        // Single-stream equivalence of the merged registry sketch.
        let mut single = MetricsRegistry::new();
        for v in [10u64, 20, 3000, 40] {
            single.sketch_observe("lat", v);
        }
        assert_eq!(
            serde_json::to_string(lat).unwrap(),
            serde_json::to_string(single.snapshot().sketch("lat").unwrap()).unwrap()
        );
    }

    #[test]
    fn merge_order_is_immaterial() {
        let build = |vals: &[u64]| {
            let mut r = MetricsRegistry::new();
            for &v in vals {
                r.counter_add("c", v);
                r.sketch_observe("h", v);
            }
            r
        };
        let mut ab = build(&[1, 2]);
        ab.merge(build(&[30, 40]));
        let mut ba = build(&[30, 40]);
        ba.merge(build(&[1, 2]));
        assert_eq!(
            serde_json::to_string(&ab.snapshot()).unwrap(),
            serde_json::to_string(&ba.snapshot()).unwrap()
        );
    }

    #[test]
    fn snapshot_serializes() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a", 1);
        r.sketch_observe("h", 2);
        let json = serde_json::to_string(&r.snapshot()).unwrap();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"sketches\""));
    }
}
