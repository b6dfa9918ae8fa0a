//! Property-based tests for the GenPair pipeline stages.

use gx_align::{align, AlignMode, Scoring};
use gx_core::light::{light_align, LightConfig};
use gx_core::pafilter::{
    paired_adjacency_filter, paired_adjacency_filter_ranked_into, PaFilterResult,
};
use gx_core::seeding::ReadCandidates;
use gx_genome::DnaSeq;
use proptest::prelude::*;

fn arb_dna(len: usize) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, len..=len).prop_map(|c| DnaSeq::from_codes(&c))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The PA filter equals a naive cross-product filter on arbitrary
    /// sorted inputs.
    #[test]
    fn pa_filter_matches_naive(
        mut l1 in prop::collection::vec(0u32..100_000, 0..60),
        mut l2 in prop::collection::vec(0u32..100_000, 0..60),
        delta in 1u32..2_000
    ) {
        l1.sort_unstable();
        l1.dedup();
        l2.sort_unstable();
        l2.dedup();
        let res = paired_adjacency_filter(&l1, &l2, delta, usize::MAX);
        let mut naive = Vec::new();
        for &a in &l1 {
            for &b in &l2 {
                if (a as i64 - b as i64).abs() <= delta as i64 {
                    naive.push((a, b));
                }
            }
        }
        let got: Vec<(u32, u32)> = res.candidates.iter().map(|c| (c.start1, c.start2)).collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        naive.sort_unstable();
        prop_assert_eq!(got_sorted, naive);
    }

    /// The ranked PA filter keeps exactly the first `cap` of all pairs
    /// within Δ, stable-sorted by pair support, highest first, at caps 0,
    /// 1, 4 and 64; the early stop (every kept pair at the reads' highest
    /// support) never changes that output, only shortens the scan.
    #[test]
    fn ranked_pa_filter_is_the_stable_support_sort(
        l1 in prop::collection::vec((0u32..20_000, 1u8..=3), 0..60),
        l2 in prop::collection::vec((0u32..20_000, 1u8..=3), 0..60),
        delta in 1u32..2_000,
        cap in prop::sample::select(vec![0usize, 1, 4, 64]),
    ) {
        let read = |mut l: Vec<(u32, u8)>, seeds_total| {
            l.sort_unstable_by_key(|&(start, _)| start);
            l.dedup_by_key(|&mut (start, _)| start);
            let mut c = ReadCandidates::default();
            c.starts = l.iter().map(|&(start, _)| start).collect();
            c.support = l.iter().map(|&(_, s)| s).collect();
            c.seeds_total = seeds_total;
            c
        };
        let (c1, c2) = (read(l1, 3), read(l2, 3));
        let mut all = Vec::new();
        for (&a, &s1) in c1.starts.iter().zip(&c1.support) {
            for (&b, &s2) in c2.starts.iter().zip(&c2.support) {
                if (a as i64 - b as i64).abs() <= delta as i64 {
                    all.push((a, b, s1 + s2));
                }
            }
        }
        all.sort_by_key(|&(_, _, s)| std::cmp::Reverse(s));
        let truncated = all.len() > cap;
        all.truncate(cap);

        let mut res = PaFilterResult::default();
        paired_adjacency_filter_ranked_into(&c1, &c2, delta, cap, &mut res);
        let got: Vec<(u32, u32, u8)> = res
            .candidates
            .iter()
            .zip(&res.support)
            .map(|(c, &s)| (c.start1, c.start2, s))
            .collect();
        prop_assert_eq!(&got, &all);
        prop_assert_eq!(res.truncated, truncated);

        // Reads claiming more seeds than they have can never reach their
        // highest support: the scan then runs to the end, to the same output.
        let (mut u1, mut u2) = (c1.clone(), c2.clone());
        (u1.seeds_total, u2.seeds_total) = (100, 100);
        let mut full = PaFilterResult::default();
        paired_adjacency_filter_ranked_into(&u1, &u2, delta, cap, &mut full);
        prop_assert_eq!(&full.candidates, &res.candidates);
        prop_assert_eq!(&full.support, &res.support);
        prop_assert_eq!(full.truncated, res.truncated);
        prop_assert!(res.iterations <= full.iterations);
    }

    /// Light alignment is *sound*: whenever it returns an alignment, the
    /// score never exceeds the DP optimum, and the CIGAR consumes the read.
    #[test]
    fn light_align_sound_on_arbitrary_windows(
        window in arb_dna(170),
        read in arb_dna(150),
    ) {
        let scoring = Scoring::short_read();
        let cfg = LightConfig::default();
        if let Some(light) = light_align(&read, &window, 5, &cfg, &scoring) {
            prop_assert_eq!(light.cigar.query_len(), 150);
            let dp = align(&read, &window, &scoring, AlignMode::Fit);
            prop_assert!(light.score <= dp.score, "light {} > dp {}", light.score, dp.score);
        }
    }

    /// Light alignment is *complete* on its promise class: a read equal to a
    /// window slice with up to `max_mismatches` substitutions is always
    /// accepted, scoring at least the planted-mismatch interpretation and at
    /// most the DP optimum. (On low-complexity windows DP may beat any
    /// single-edit-type alignment by mixing edit types, so equality with DP
    /// is not guaranteed — only the sandwich.)
    #[test]
    fn light_align_complete_on_mismatch_class(
        window in arb_dna(170),
        positions in prop::collection::hash_set(0usize..150, 0..=8),
    ) {
        let scoring = Scoring::short_read();
        let cfg = LightConfig::default();
        let mut read = window.subseq(5..155);
        for &p in &positions {
            read.set(p, read.get(p).complement());
        }
        let light = light_align(&read, &window, 5, &cfg, &scoring)
            .expect("mismatch-class read rejected");
        let dp = align(&read, &window, &scoring, AlignMode::Fit);
        prop_assert!(light.score >= scoring.ungapped(150, positions.len()));
        prop_assert!(light.score <= dp.score);
    }
}

mod voting_props {
    use super::*;
    use gx_core::voting::location_vote;

    proptest! {
        /// The vote winner's count is the true maximum over all windows.
        #[test]
        fn vote_finds_max_window(
            cands in prop::collection::vec(0u32..50_000, 1..100),
            window in 1u32..5_000
        ) {
            let v = location_vote(&cands, window).expect("non-empty");
            let mut sorted = cands.clone();
            sorted.sort_unstable();
            let mut best = 0u32;
            for i in 0..sorted.len() {
                let count = sorted[i..]
                    .iter()
                    .take_while(|&&x| x - sorted[i] <= window)
                    .count() as u32;
                best = best.max(count);
            }
            prop_assert_eq!(v.votes, best);
        }
    }
}
