//! Property tests for the log2-histogram algebra.
//!
//! Every number `gx-telemetry` reports rests on two facts: bucketing is a
//! total, monotone map from `u64` to a fixed bucket set, and snapshot
//! merging is a commutative monoid — so per-recorder recording followed
//! by a merge equals serial recording of the same samples in any
//! order (the same contract `BackendStats`/`PipelineStats` shards rely
//! on, pinned the same way in `crates/backend/tests/stats_props.rs`).
//!
//! Samples are drawn across all magnitudes (`raw >> shift`, shift 0..64),
//! so small latencies, mid-range ones and the saturating top bucket are
//! all exercised — a plain uniform `u64` draw would land in the top few
//! buckets almost every time.

use gx_telemetry::{
    bucket_index, bucket_upper_bound, HistogramSnapshot, Telemetry, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;

/// One latency sample, magnitude-stratified over the full `u64` range.
fn sample() -> impl Strategy<Value = u64> {
    (0u64..=u64::MAX, 0u32..64).prop_map(|(v, s)| v >> s)
}

/// A histogram built by recording `values` serially.
fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bucketing is total (every `u64` maps into range) and each value
    /// falls strictly inside its bucket's bounds: above the previous
    /// bucket's upper bound, at or below its own.
    #[test]
    fn bucketing_is_total_and_bounds_hold(v in sample()) {
        let i = bucket_index(v);
        prop_assert!(i < HISTOGRAM_BUCKETS);
        prop_assert!(v <= bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(v > bucket_upper_bound(i - 1));
        }
    }

    /// Bucketing is monotone in the value, as the boundary sequence is in
    /// the index — larger samples never land in smaller buckets.
    #[test]
    fn bucketing_is_monotone(a in sample(), b in sample()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        prop_assert!(bucket_upper_bound(bucket_index(lo)) <= bucket_upper_bound(bucket_index(hi)));
    }

    /// Merge is commutative on every field: publish order never matters.
    #[test]
    fn merge_is_commutative(
        xs in prop::collection::vec(sample(), 0..64),
        ys in prop::collection::vec(sample(), 0..64),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// Merge is associative: folding recorders pairwise in any grouping
    /// yields the same totals.
    #[test]
    fn merge_is_associative(
        xs in prop::collection::vec(sample(), 0..48),
        ys in prop::collection::vec(sample(), 0..48),
        zs in prop::collection::vec(sample(), 0..48),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The empty histogram is the merge identity, in either position.
    #[test]
    fn empty_is_the_merge_identity(xs in prop::collection::vec(sample(), 0..64)) {
        let a = hist_of(&xs);
        let mut left = HistogramSnapshot::new();
        left.merge(&a);
        prop_assert_eq!(left, a);
        let mut right = a;
        right.merge(&HistogramSnapshot::new());
        prop_assert_eq!(right, a);
    }

    /// Recorded-then-merged equals serial, through the public handle:
    /// partitioning the sample stream across any number of
    /// [`Recorder`](gx_telemetry::Recorder)s, dropping them (which
    /// publishes their histograms) and snapshotting the [`Telemetry`]
    /// matches serial recording, and quantiles agree bucket-exactly.
    #[test]
    fn telemetry_snapshot_matches_serial(
        values in prop::collection::vec((sample(), 0usize..4), 1..96),
        n_shards in 1usize..5,
    ) {
        let telemetry = Telemetry::enabled();
        let h = telemetry.histogram("gx_prop_ns", "property-test histogram");
        let mut recorders: Vec<_> =
            (0..n_shards).map(|i| telemetry.recorder(i as u32)).collect();
        let mut serial = HistogramSnapshot::new();
        for &(v, slot) in &values {
            recorders[slot % n_shards].record(h, v);
            serial.record(v);
        }
        drop(recorders);
        let snap = telemetry.snapshot().unwrap();
        let merged = snap.histogram("gx_prop_ns").unwrap();
        prop_assert_eq!(*merged, serial);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), serial.quantile(q));
        }
        prop_assert_eq!(merged.quantile(1.0), serial.max);
    }
}
