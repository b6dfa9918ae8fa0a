//! Property-based tests for the SeedMap index.

use gx_genome::random::RandomGenomeBuilder;
use gx_seedmap::{merge_sorted_with_offsets_into, SeedMap, SeedMapConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every indexed reference window must be findable by querying its own
    /// sequence, regardless of genome shape or seed length.
    #[test]
    fn own_windows_always_found(seed in 0u64..10_000, seed_len in 6usize..24) {
        let genome = RandomGenomeBuilder::new(2_000).seed(seed).build();
        let cfg = SeedMapConfig { seed_len, filter_threshold: u32::MAX, ..SeedMapConfig::default() };
        let map = SeedMap::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        for pos in (0..seq.len() - seed_len).step_by(173) {
            let codes = seq.subseq(pos..pos + seed_len).to_codes();
            prop_assert!(map.query(&codes).contains(&(pos as u32)), "pos {pos} missing");
        }
    }

    /// The two-table layout invariant: Seed Table entries are monotone end
    /// offsets bounded by the Location Table length.
    #[test]
    fn seed_table_offsets_monotone(seed in 0u64..10_000) {
        let genome = RandomGenomeBuilder::new(3_000).seed(seed).build();
        let map = SeedMap::build(&genome, &SeedMapConfig { seed_len: 12, ..Default::default() });
        let mut prev_end = 0u64;
        for h in 0..map.num_buckets() as u32 {
            let (bucket, start, end) = map.bucket_range(h);
            prop_assert_eq!(bucket, h);
            prop_assert_eq!(start, prev_end);
            prop_assert!(start <= end);
            prev_end = end;
        }
        prop_assert_eq!(prev_end, map.stats().stored_locations);
        // Every bucket slice is sorted (checked through the public query on
        // sampled hashes).
        for h in (0u32..5_000).step_by(37) {
            let slice = map.locations_for_hash(h);
            prop_assert!(slice.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    /// Merging with offsets equals the naive sort+dedup of adjusted values.
    #[test]
    fn merge_matches_naive(
        lists in prop::collection::vec(
            (prop::collection::vec(0u32..10_000, 0..40), 0u32..200),
            0..4
        )
    ) {
        let sorted: Vec<(Vec<u32>, u32)> = lists
            .into_iter()
            .map(|(mut l, off)| {
                l.sort_unstable();
                (l, off)
            })
            .collect();
        let lists: Vec<_> = sorted.iter().map(|(l, off)| (l.as_slice(), *off)).collect();
        let mut merged = Vec::new();
        merge_sorted_with_offsets_into(&lists, &mut merged, &mut Vec::new());
        let mut naive: Vec<u32> = sorted
            .iter()
            .flat_map(|(l, off)| l.iter().filter(|&&v| v >= *off).map(move |&v| v - off))
            .collect();
        naive.sort_unstable();
        naive.dedup();
        prop_assert_eq!(merged, naive);
    }

    /// The filter threshold never *adds* locations, and a disabled filter is
    /// a superset of any enabled one.
    #[test]
    fn filter_is_monotone(seed in 0u64..5_000, threshold in 1u32..64) {
        let genome = RandomGenomeBuilder::new(2_000)
            .seed(seed)
            .repeat_family(gx_genome::random::RepeatFamily { unit_len: 64, copies: 40, divergence: 0.0 })
            .build();
        let base = SeedMapConfig { seed_len: 10, filter_threshold: u32::MAX, ..Default::default() };
        let full = SeedMap::build(&genome, &base);
        let filtered = SeedMap::build(&genome, &base.with_filter_threshold(threshold));
        prop_assert!(filtered.stats().stored_locations <= full.stats().stored_locations);
        for h in (0u32..2_000).step_by(29) {
            let f = filtered.locations_for_hash(h);
            let u = full.locations_for_hash(h);
            prop_assert!(f.is_empty() || f.len() == u.len(), "partial bucket at {h}");
        }
    }
}
