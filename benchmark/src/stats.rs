//! Medians and a fixed log-bucketed histogram owned by the benchmark.
//!
//! The open-loop latency population is one sample per join result
//! (`fig7_10q_fanout` emits millions per run), so samples go into buckets,
//! not into a vector. Buckets are atomics so the histogram can be shared
//! with a `Send` result-sink closure without a lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Median of a non-empty slice (mean of the two middle values for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Sub-buckets per octave: 2^7 = 128, so a bucket is at most 1/128 (0.8 %)
/// of its lower bound wide.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below 2^44 (ns: about 4.9 hours).
const MAX_BITS: u32 = 44;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) << SUB_BITS;

/// Log-bucketed histogram of `u64` samples (nanoseconds throughout the
/// benchmark). Counts are statistics that publish no other data, hence
/// `Relaxed`.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max: AtomicU64::new(0),
        }
    }

    fn index(value: u64) -> usize {
        let v = value.min((1 << MAX_BITS) - 1);
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> shift) & (SUB - 1);
        ((u64::from(shift) + 1) * SUB + sub) as usize
    }

    /// Smallest value of a bucket and the number of values it spans.
    fn bounds(index: usize) -> (f64, f64) {
        let index = index as u64;
        if index < SUB {
            return (index as f64, 1.0);
        }
        let shift = index / SUB - 1;
        (
            ((SUB + index % SUB) << shift) as f64,
            (1u64 << shift) as f64,
        )
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value (missing results at the cap).
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index(value)].fetch_add(n, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Largest sample recorded (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of the samples between the `lo`- and `hi`-quantile ranks (the
    /// interquartile mean for 0.25 and 0.75), each taken at its bucket's
    /// midpoint; 0 when empty. Unlike a single percentile it moves smoothly
    /// when the distribution has two modes and the percentile sits between
    /// them.
    pub fn trimmed_mean(&self, lo: f64, hi: f64) -> f64 {
        let count = self.count() as f64;
        let (first, last) = (lo * count, hi * count);
        if last <= first {
            return 0.0;
        }
        let (mut seen, mut sum) = (0.0, 0.0);
        for (index, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed) as f64;
            let taken = (seen + in_bucket).min(last) - seen.max(first);
            if taken > 0.0 {
                let (low, width) = Self::bounds(index);
                sum += taken * (low + (width - 1.0) / 2.0);
            }
            seen += in_bucket;
            if seen >= last {
                break;
            }
        }
        sum / (last - first)
    }

    /// Nearest-rank quantile: the `ceil(q * count)`-th smallest sample,
    /// placed inside its bucket as if the bucket's samples were spread
    /// evenly over it; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (index, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if seen + in_bucket >= rank {
                let (low, width) = Self::bounds(index);
                let within = ((rank - seen) as f64 - 0.5) / in_bucket as f64;
                return (low + (width - 1.0) * within).min(self.max() as f64);
            }
            seen += in_bucket;
        }
        self.max() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantiles_stay_within_half_a_percent() {
        let h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        assert_eq!(h.count(), 100_000);
        for (q, exact) in [(0.5, 50_000.0 * 37.0), (0.99, 99_000.0 * 37.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.005,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.max(), 3_700_000);
    }

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in [5, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 5.0);
        assert_eq!(h.quantile(1.0), 9.0);
    }

    #[test]
    fn missing_results_at_the_cap_move_the_tail_then_the_median() {
        let cap = 10_000_000_000u64; // 10 s in ns
        let h = LogHistogram::new();
        for _ in 0..980 {
            h.record(50_000);
        }
        // 2 % missing: the median is a real sample, p99 is the cap.
        h.record_n(cap, 20);
        assert!((h.quantile(0.5) - 50_000.0).abs() / 50_000.0 < 0.005);
        assert!((h.quantile(0.99) - cap as f64).abs() / (cap as f64) < 0.005);
        // Mostly missing: the median is the cap as well.
        h.record_n(cap, 2_000);
        assert!((h.quantile(0.5) - cap as f64).abs() / (cap as f64) < 0.005);
        assert_eq!(h.count(), 3_000);
    }

    #[test]
    fn interquartile_mean_ignores_both_tails_and_crosses_modes_smoothly() {
        let h = LogHistogram::new();
        for v in 1..=1_000u64 {
            h.record(v * 100);
        }
        // Middle half of 100..=100_000 in steps of 100: mean 50_050.
        let iqm = h.trimmed_mean(0.25, 0.75);
        assert!((iqm - 50_050.0).abs() / 50_050.0 < 0.005, "{iqm}");
        // Outliers in either tail do not move it.
        h.record_n(1, 10);
        h.record_n(10_000_000_000, 10);
        let with_tails = h.trimmed_mean(0.25, 0.75);
        assert!((with_tails - iqm).abs() / iqm < 0.005, "{with_tails}");

        // Two modes, the median between them: moving 2 % of the mass from
        // one mode to the other flips the median, the IQM moves by 6 %.
        let two_modes = |cheap: u64| {
            let h = LogHistogram::new();
            h.record_n(20_000, cheap);
            h.record_n(120_000, 100 - cheap);
            (h.quantile(0.5), h.trimmed_mean(0.25, 0.75))
        };
        let ((p50_a, iqm_a), (p50_b, iqm_b)) = (two_modes(49), two_modes(51));
        assert!(p50_a > 5.0 * p50_b, "the median jumps: {p50_a} vs {p50_b}");
        assert!((iqm_a - iqm_b) / iqm_b < 0.07, "{iqm_a} vs {iqm_b}");
    }

    #[test]
    fn oversized_samples_are_clamped_not_lost() {
        let h = LogHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) > 1e13);
    }
}
