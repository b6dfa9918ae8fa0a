//! Property tests for the [`BackendStats`] merge algebra.
//!
//! The pipeline merges per-worker shards "lock-free at join" and, since the
//! shared warm device, also folds a backend-level flush into the total —
//! correctness of every reported number rests on `merge` being a plain
//! commutative monoid over all counter fields. These properties pin that
//! down, plus the documented field invariant (`exposed_transfer_seconds ≤
//! transfer_seconds`) and the derived-metric ordering it implies
//! (`modeled_system_seconds ≤ sim_seconds + transfer_seconds`: overlap
//! hides link time, never invents it) being *preserved under merge*.
//!
//! Float fields are generated as integer multiples of 2⁻⁴ with small
//! magnitude, so every sum in these tests is exactly representable and
//! associativity can be asserted with `==`, not a tolerance: the algebra is
//! tested, not float rounding. (The production pipeline gets bit-stable
//! totals a different way — the shared device fixes the accumulation
//! *order* — but the monoid laws are what make shard merging correct at
//! all.)

use gx_backend::BackendStats;
use proptest::prelude::*;

/// Builds one stats shard from raw integers: u64 counters used as-is,
/// floats as exact multiples of 2⁻⁴. `exposed ≤ transfer` holds by
/// construction, as every real backend guarantees.
fn stats_from(raw: &[u64]) -> BackendStats {
    let f = |v: u64| (v % (1 << 20)) as f64 * 0.0625;
    let (t1, t2) = (f(raw[10]), f(raw[11]));
    BackendStats {
        batches: raw[0] % 1_000,
        pairs: raw[1] % 1_000_000,
        busy_ns: raw[2],
        sim_cycles: raw[3],
        sim_seconds: f(raw[4]),
        energy_pj: f(raw[5]),
        dram_bytes: raw[6],
        dram_requests: raw[7],
        seed_cycles: raw[8],
        seed_energy_pj: f(raw[9]),
        // The slower of two draws is the raw transfer, the faster the
        // exposed residue: exposed ≤ transfer by construction.
        transfer_seconds: t1.max(t2),
        exposed_transfer_seconds: t1.min(t2),
        fallback_cycles: raw[12],
        fallback_seconds: f(raw[13]),
        fallback_energy_pj: f(raw[14]),
        input_bytes: raw[15],
        output_bytes: raw[16],
    }
}

fn shard_strategy() -> impl Strategy<Value = BackendStats> {
    prop::collection::vec(0u64..u32::MAX as u64, 17).prop_map(|raw| stats_from(&raw))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merge is commutative on every field: shard order never matters.
    #[test]
    fn merge_is_commutative(
        a in shard_strategy(),
        b in shard_strategy(),
    ) {
        let ab = BackendStats::merged([&a, &b]);
        let ba = BackendStats::merged([&b, &a]);
        prop_assert_eq!(ab, ba);
    }

    /// Merge is associative on every field (exact by construction of the
    /// generated floats): folding shards pairwise, in tree order, or via
    /// one `merged` call all agree.
    #[test]
    fn merge_is_associative(
        a in shard_strategy(),
        b in shard_strategy(),
        c in shard_strategy(),
    ) {
        let mut left = a;
        left.merge(&b);
        left.merge(&c);

        let mut right_tail = b;
        right_tail.merge(&c);
        let mut right = a;
        right.merge(&right_tail);

        prop_assert_eq!(left, right);
        prop_assert_eq!(left, BackendStats::merged([&a, &b, &c]));
    }

    /// The zero shard is the identity, in either position.
    #[test]
    fn zero_is_the_merge_identity(a in shard_strategy()) {
        let mut left = BackendStats::new();
        left.merge(&a);
        prop_assert_eq!(left, a);
        let mut right = a;
        right.merge(&BackendStats::new());
        prop_assert_eq!(right, a);
    }

    /// The documented invariant `exposed_transfer_seconds ≤
    /// transfer_seconds` is preserved under any merge of shards that each
    /// satisfy it — so the run-total invariant follows from the per-shard
    /// one, which every backend guarantees locally.
    #[test]
    fn exposed_le_transfer_is_merge_closed(
        shards in prop::collection::vec(shard_strategy(), 1..8),
    ) {
        for s in &shards {
            prop_assert!(s.exposed_transfer_seconds <= s.transfer_seconds);
        }
        let total = BackendStats::merged(shards.iter());
        prop_assert!(total.exposed_transfer_seconds <= total.transfer_seconds);
    }

    /// The derived timeline ordering is as documented and merge-closed:
    /// overlapped system time never exceeds compute plus the fully
    /// serialized link (`sim_seconds + transfer_seconds`) — before and
    /// after merging.
    #[test]
    fn system_timelines_stay_ordered_under_merge(
        a in shard_strategy(),
        b in shard_strategy(),
    ) {
        let total = BackendStats::merged([&a, &b]);
        for s in [&a, &b, &total] {
            prop_assert!(s.exposed_transfer_seconds <= s.transfer_seconds);
            prop_assert!(s.modeled_system_seconds() <= s.sim_seconds + s.transfer_seconds);
        }
        // Merging only adds time: both timelines are monotone in the
        // shard set.
        prop_assert!(total.sim_seconds + total.transfer_seconds
            >= a.sim_seconds + a.transfer_seconds);
        prop_assert!(total.sim_seconds + total.transfer_seconds
            >= b.sim_seconds + b.transfer_seconds);
        prop_assert!(total.modeled_system_seconds() >= a.modeled_system_seconds());
    }
}
