//! Log2-bucketed latency histograms.
//!
//! Latency distributions span orders of magnitude (a queue-wait is tens of
//! nanoseconds uncontended, milliseconds under backpressure), so linear
//! buckets waste either resolution or memory. The classic answer — used by
//! HdrHistogram-style recorders and the kernel's BPF tooling alike — is
//! power-of-two buckets: value `v` lands in the bucket of its bit length,
//! giving constant relative error (within 2×) over the full `u64` range
//! with a fixed, tiny footprint.
//!
//! [`HistogramSnapshot`] is the one representation: plain counters with a
//! merge/quantile algebra (a commutative monoid;
//! `crates/telemetry/tests/props.rs` pins it). A recorder owns one per
//! registered series and merges them into the registry's totals when it
//! flushes.

/// Bucket count: bucket 0 holds the value 0, bucket `i ≥ 1` holds values
/// with bit length `i` (`2^(i-1) ..= 2^i - 1`), so every `u64` has exactly
/// one bucket and boundaries are monotone.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index of `value`: its bit length (0 for 0). Total over `u64`
/// and monotone in `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `index` holds: 0 for bucket 0, `2^index − 1`
/// for the rest (saturating at `u64::MAX` for the final bucket).
///
/// # Panics
///
/// Panics if `index ≥ HISTOGRAM_BUCKETS`.
pub fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A log2 histogram: per-bucket counts plus exact count, sum and max of the
/// recorded samples. Merging is element-wise addition (max of maxes) — a
/// commutative monoid with the empty histogram as identity, so recording
/// per recorder and merging equals serial recording of the same samples in
/// any order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of recorded values (wrapping add — overflow takes
    /// ~5 × 10⁵ years of nanosecond samples).
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::new()
    }
}

impl HistogramSnapshot {
    /// The empty histogram (the merge identity).
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile sample
    /// (`q` clamped to `0.0..=1.0`; 0 when empty). Log2 bucketing bounds
    /// the estimate within 2× of the true order statistic; the final
    /// bucket's report is additionally capped at [`max`](Self::max), which
    /// also makes `quantile(1.0)` exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the wanted sample, 1-based, at least 1 so q=0 is the min
        // bucket and q=1 the max bucket.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_total_and_monotone_at_the_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert!(bucket_upper_bound(i) < bucket_upper_bound(i + 1));
        }
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = HistogramSnapshot::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.max, 1000);
        assert_eq!(h.quantile(1.0), 1000);
        // The true p50 is 500; the log2 estimate is its bucket's upper
        // bound (within 2×).
        let p50 = h.quantile(0.5);
        assert!((500..=1023).contains(&p50), "p50 estimate {p50}");
        assert!(h.quantile(0.0) >= 1);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = HistogramSnapshot::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
