//! Deterministic mergeable quantile sketch (DDSketch-style, zero-dep).
//!
//! The registry's one distribution type. A serving system wants p50/p95/
//! p99/p999 lanes with a bounded relative error, mergeable across fleet
//! workers without losing accuracy, and the small-integer distributions
//! (walk depth, probe lengths) want exact values. This sketch maps every
//! `u64` observation to a log-bucketed index with **pure integer
//! arithmetic**:
//!
//! * values `< 128` index themselves (the linear region — exact);
//! * larger values take a base-2 exponent plus the top [`SUB_BITS`]
//!   mantissa bits, i.e. 64 sub-buckets per octave, so the worst-case
//!   relative half-width of any bucket is `2^-7 ≈ 0.78%` — comfortably
//!   inside the 2% accuracy contract `BENCH_obs.json` gates.
//!
//! Because the bucket index of a value is a pure function of the value
//! (no floats, no insertion-order effects) and [`QuantileSketch::merge`]
//! is a per-index counter sum, merging per-worker sketches in task order
//! is **bit-for-bit identical** to observing the single interleaved
//! stream — the same determinism contract the fleet runner's registry
//! merge already guarantees (DESIGN.md §6f), proven by the proptests
//! below and the fleet integration tests.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Mantissa bits kept per octave: 64 sub-buckets, ≤0.78% relative error.
pub const SUB_BITS: u32 = 6;
/// First index of the logarithmic region (values below this are exact).
const LINEAR_CUTOFF: u64 = 1 << (SUB_BITS + 1);

/// Bucket index for an observation. Deterministic integer math only.
#[must_use]
pub fn bucket_index(v: u64) -> u32 {
    if v < LINEAR_CUTOFF {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as u32;
    ((msb - SUB_BITS) << SUB_BITS) + sub + LINEAR_CUTOFF as u32 / 2
}

/// The representative (midpoint) value reported for a bucket index.
#[must_use]
pub fn bucket_value(index: u32) -> u64 {
    if u64::from(index) < LINEAR_CUTOFF {
        return u64::from(index);
    }
    let i = index - LINEAR_CUTOFF as u32 / 2;
    let msb = (i >> SUB_BITS) + SUB_BITS;
    let sub = u64::from(i & ((1 << SUB_BITS) - 1));
    let lo = (1u64 << msb) + (sub << (msb - SUB_BITS));
    lo + (1u64 << (msb - SUB_BITS)) / 2
}

/// A deterministic log-bucketed quantile sketch over `u64` observations.
///
/// Buckets are held sparse (`BTreeMap`), so an idle sketch costs a few
/// words and a trap-latency sketch a few dozen entries. All state is
/// canonically ordered, making serialized snapshots byte-comparable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Folds another sketch in: per-index counter sums plus min/max/count.
    /// Order-independent and associative, so any fleet merge tree yields
    /// the same sketch as the single-stream observation order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (wrapping).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, `0` when empty (no `u64::MAX` sentinel —
    /// the bug class PR 1 fixed for `min_depth`).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, `0` when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` (nearest-rank, bucket midpoint), clamped
    /// to the observed `[min, max]`; `0` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64) as u64;
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen > rank {
                return bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fixed percentile lane (p50/p95/p99/p999) snapshot.
    #[must_use]
    pub fn snapshot(&self, name: &str) -> SketchSnapshot {
        SketchSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            buckets: self
                .buckets
                .iter()
                .map(|(&index, &count)| SketchBucket { index, count })
                .collect(),
        }
    }
}

/// One sparse bucket in a serialized sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchBucket {
    /// Log-bucket index (see [`bucket_index`]).
    pub index: u32,
    /// Observations landing in this bucket.
    pub count: u64,
}

/// Serializable sketch state: percentile lanes plus the raw sparse
/// buckets (the buckets make merge byte-identity provable end-to-end,
/// not just at the percentile level).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchSnapshot {
    /// Sketch name (registry key).
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Sparse bucket counters, ascending by index.
    pub buckets: Vec<SketchBucket>,
}

impl SketchSnapshot {
    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The four percentile lanes as `(label, value)` pairs.
    #[must_use]
    pub fn lanes(&self) -> [(&'static str, u64); 4] {
        [
            ("0.5", self.p50),
            ("0.95", self.p95),
            ("0.99", self.p99),
            ("0.999", self.p999),
        ]
    }
}

/// Exact nearest-rank percentile over a raw sample list — the oracle the
/// accuracy gate compares sketch lanes against (`BENCH_obs.json`).
#[must_use]
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64) as usize;
    sorted[rank]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Sampled sweep across the full range: the reported midpoint is
        // always within 1% of the true value.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for off in [0, 1, v / 3, v / 2] {
                let x = v + off;
                let rep = bucket_value(bucket_index(x));
                let err = rep.abs_diff(x) as f64 / x as f64;
                assert!(err <= 0.01, "value {x} reported {rep} ({err:.4} rel)");
            }
            v = v.saturating_mul(2);
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = bucket_index(0);
        let mut v = 1u64;
        while v < u64::MAX / 2 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            prev = idx;
            v += (v / 7).max(1);
        }
    }

    #[test]
    fn empty_sketch_reports_zeroes() {
        let s = QuantileSketch::new();
        assert_eq!(s.min(), 0, "no u64::MAX sentinel may escape");
        assert_eq!(s.quantile(0.99), 0);
        let snap = s.snapshot("idle");
        assert_eq!((snap.min, snap.p50, snap.p999), (0, 0, 0));
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn quantiles_track_exact_within_contract() {
        let mut s = QuantileSketch::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 17u64;
        for _ in 0..10_000 {
            // Deterministic xorshift stream spanning several octaves.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 2_000_000;
            s.observe(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.95, 0.99, 0.999] {
            let truth = exact_quantile(&exact, q);
            let got = s.quantile(q);
            let err = got.abs_diff(truth) as f64 / truth.max(1) as f64;
            assert!(err <= 0.02, "q={q}: sketch {got} vs exact {truth}");
        }
        assert_eq!(s.count(), 10_000);
    }

    #[test]
    fn merge_equals_single_stream() {
        let vals: Vec<u64> = (0..999).map(|i| (i * i * 31 + 7) % 100_000).collect();
        let mut single = QuantileSketch::new();
        for &v in &vals {
            single.observe(v);
        }
        for workers in [1usize, 2, 4, 7] {
            let mut shards = vec![QuantileSketch::new(); workers];
            for (i, &v) in vals.iter().enumerate() {
                shards[i % workers].observe(v);
            }
            let mut merged = QuantileSketch::new();
            for sh in &shards {
                merged.merge(sh);
            }
            assert_eq!(merged, single, "{workers} workers diverged");
            assert_eq!(
                serde_json::to_string(&merged.snapshot("s")).unwrap(),
                serde_json::to_string(&single.snapshot("s")).unwrap(),
                "serialized snapshot diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn merge_into_empty_and_of_empty() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        b.observe(42);
        b.observe(7);
        a.merge(&b);
        assert_eq!(a, b);
        let before = a.clone();
        a.merge(&QuantileSketch::new());
        assert_eq!(a, before, "merging an empty sketch must be a no-op");
        assert_eq!(a.min(), 7);
    }

    proptest::proptest! {
        /// Sharding any value stream over 1/2/4 workers and merging the
        /// per-worker sketches is bit-for-bit the single-stream sketch.
        #[test]
        fn prop_merge_is_shard_invariant(
            vals in proptest::collection::vec(proptest::any::<u64>(), 0..200),
        ) {
            let mut single = QuantileSketch::new();
            for &v in &vals {
                single.observe(v);
            }
            for workers in [1usize, 2, 4] {
                let mut shards = vec![QuantileSketch::new(); workers];
                for (i, &v) in vals.iter().enumerate() {
                    shards[i % workers].observe(v);
                }
                let mut merged = QuantileSketch::new();
                for sh in &shards {
                    merged.merge(sh);
                }
                proptest::prop_assert_eq!(&merged, &single);
            }
        }

        /// Every value's reported bucket midpoint stays inside the 1%
        /// relative-error bound, across the whole u64 range.
        #[test]
        fn prop_bucket_error_bounded(v in proptest::any::<u64>()) {
            let rep = bucket_value(bucket_index(v));
            let err = rep.abs_diff(v) as f64 / (v.max(1)) as f64;
            proptest::prop_assert!(err <= 0.01, "{v} -> {rep}");
        }
    }
}
