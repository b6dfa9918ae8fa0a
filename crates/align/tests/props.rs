//! Property-based tests for the DP aligners.

use gx_align::{align, banded_align_with, AlignMode, AlignScratch, Scoring};
use gx_genome::{CigarOp, DnaSeq};
use proptest::prelude::*;

fn arb_dna(min: usize, max: usize) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, min..=max).prop_map(|codes| DnaSeq::from_codes(&codes))
}

fn banded(q: &DnaSeq, t: &DnaSeq, s: &Scoring, band: usize) -> gx_align::Alignment {
    banded_align_with(q, t, s, band, AlignMode::Fit, &mut AlignScratch::new())
}

/// Recomputes an alignment score from its CIGAR (each gap run pays one
/// open + per-base extension).
fn score_from_cigar(cigar: &gx_genome::Cigar, s: &Scoring) -> i32 {
    cigar
        .runs()
        .iter()
        .map(|&(n, op)| match op {
            CigarOp::Equal => s.match_score * n as i32,
            CigarOp::Diff => -s.mismatch * n as i32,
            CigarOp::Ins | CigarOp::Del => -s.gap_cost(n),
            _ => 0,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fit_consumes_whole_query(q in arb_dna(4, 50), t in arb_dna(20, 120)) {
        let s = Scoring::short_read();
        let a = align(&q, &t, &s);
        prop_assert_eq!(a.cigar.query_len() as usize, q.len());
        prop_assert_eq!(a.target_end - a.target_start, a.cigar.ref_len() as usize);
        prop_assert_eq!(a.score, score_from_cigar(&a.cigar, &s));
    }

    #[test]
    fn fit_score_bounded_by_perfect(q in arb_dna(4, 60), t in arb_dna(4, 120)) {
        let s = Scoring::short_read();
        let a = align(&q, &t, &s);
        prop_assert!(a.score <= s.perfect(q.len()));
    }

    #[test]
    fn identity_alignment_is_perfect(q in arb_dna(4, 80)) {
        let s = Scoring::short_read();
        let a = align(&q, &q, &s);
        prop_assert_eq!(a.score, s.perfect(q.len()));
        prop_assert_eq!(a.cigar.runs().len(), 1);
        prop_assert_eq!((a.target_start, a.target_end), (0, q.len()));
    }

    #[test]
    fn wide_band_equals_full_dp(q in arb_dna(8, 50), t in arb_dna(8, 60)) {
        let s = Scoring::short_read();
        let full = align(&q, &t, &s);
        let band = banded(&q, &t, &s, q.len().max(t.len()));
        prop_assert_eq!(full.score, band.score);
    }

    #[test]
    fn banded_never_beats_full(q in arb_dna(8, 50), t in arb_dna(8, 70)) {
        let s = Scoring::short_read();
        let full = align(&q, &t, &s);
        let band = banded(&q, &t, &s, 4);
        prop_assert!(band.score <= full.score);
    }

    #[test]
    fn alignment_is_symmetric_under_revcomp(q in arb_dna(8, 40), t in arb_dna(8, 80)) {
        // Aligning rc(q) against rc(t) must give the same score as q vs t.
        let s = Scoring::short_read();
        let fwd = align(&q, &t, &s);
        let rev = align(&q.revcomp(), &t.revcomp(), &s);
        prop_assert_eq!(fwd.score, rev.score);
    }
}

mod chain_props {
    use super::*;
    use gx_align::chain::{chain_anchors, Anchor, ChainParams};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chains_are_colinear(
            anchors in prop::collection::vec((0u32..500, 0u64..5_000), 1..80)
        ) {
            let mut anchors: Vec<Anchor> = anchors
                .into_iter()
                .map(|(read_pos, ref_pos)| Anchor { read_pos, ref_pos })
                .collect();
            let res = chain_anchors(&mut anchors, &ChainParams::default());
            for chain in &res.chains {
                for w in chain.anchors.windows(2) {
                    let a = anchors[w[0]];
                    let b = anchors[w[1]];
                    prop_assert!(b.read_pos > a.read_pos, "read positions not increasing");
                    prop_assert!(b.ref_pos > a.ref_pos, "ref positions not increasing");
                }
            }
        }

        #[test]
        fn anchors_used_at_most_once(
            anchors in prop::collection::vec((0u32..300, 0u64..3_000), 1..60)
        ) {
            let mut anchors: Vec<Anchor> = anchors
                .into_iter()
                .map(|(read_pos, ref_pos)| Anchor { read_pos, ref_pos })
                .collect();
            let res = chain_anchors(&mut anchors, &ChainParams::default());
            let mut seen = std::collections::HashSet::new();
            for chain in &res.chains {
                for &i in &chain.anchors {
                    prop_assert!(seen.insert(i), "anchor {i} in two chains");
                }
            }
        }
    }
}
