//! Order statistics and the benchmark's own seeded generator.

/// Median, first and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by the rule of Python's `statistics.quantiles(values,
    /// n=4)` (the "exclusive" method), so spreads printed here match what
    /// an external script computes from the same values. A single value is
    /// its own median and quartiles.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        if v.len() == 1 {
            return Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let ld = v.len();
        let m = ld + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of `candidates` (percentiles, ascending) that leaves at
/// least ten of `count` samples strictly beyond it — the tail a sample of
/// this size can resolve. Falls back to the lowest candidate.
pub fn resolvable_tail(count: u64, candidates: &[f64]) -> f64 {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|p| {
            let at_or_below = (p / 100.0 * count as f64).ceil() as u64;
            count.saturating_sub(at_or_below) >= 10
        })
        .unwrap_or(candidates[0])
}

/// splitmix64: the benchmark's own generator, so the inputs a seed
/// expands to never depend on a generator inside the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(Quartiles::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let lanes = [50.0, 95.0, 99.0, 99.9];
        // 12288 requests: 12 lie beyond p99.9.
        assert_eq!(resolvable_tail(12_288, &lanes), 99.9);
        // 9999 requests: only 9 beyond p99.9, 99 beyond p99.
        assert_eq!(resolvable_tail(9_999, &lanes), 99.0);
        // 256 downloads: 12 beyond p95, 2 beyond p99.
        assert_eq!(resolvable_tail(256, &lanes), 95.0);
        // 199: p95 leaves 9 beyond, so only the median is resolvable.
        assert_eq!(resolvable_tail(199, &lanes), 50.0);
        assert_eq!(resolvable_tail(5, &lanes), 50.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn splitmix_is_seed_deterministic_and_seed_zero_works() {
        let draws = |seed| {
            let mut r = SplitMix::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        let a = draws(0);
        assert_eq!(a, draws(0));
        assert!(a.iter().all(|&x| x != 0));
        let mut r = SplitMix::new(9);
        assert!((0..1000)
            .map(|_| r.range(64, 128))
            .all(|x| (64..=128).contains(&x)));
    }
}
