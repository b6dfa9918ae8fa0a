//! Paired-Adjacency Filtering (paper §4.5).
//!
//! Both reads of a proper pair map within a dataset-defined distance Δ of
//! each other. The filter walks the two sorted candidate-start lists with
//! two pointers — exactly what the hardware module does with two FIFOs and a
//! comparator — and emits candidate pairs whose distance is at most Δ. The
//! number of comparator iterations is recorded; it drives the module's
//! throughput requirement in the paper's Table 3.
//!
//! The output buffer is bounded (`max_candidates`), and in a repeat family
//! more pairs lie within Δ than it holds. The mapper's filter
//! ([`paired_adjacency_filter_ranked_into`]) therefore keeps the pairs with
//! the most *seed support* — how many of the two reads' seeds place them
//! there ([`ReadCandidates::support`]) — with ties in genome order: the
//! copy the reads came from is the one all their seeds hit, so it survives
//! the cut wherever it sits in the family. Once the buffer is full a new
//! pair replaces the weakest kept one only if it has strictly more
//! support, and the scan stops as soon as every kept pair has the most
//! support the two reads can reach.

use crate::seeding::ReadCandidates;
use gx_genome::GlobalPos;

/// A candidate placement of a read pair (global read-start coordinates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairCandidate {
    /// Candidate start of read 1 (in its query orientation).
    pub start1: GlobalPos,
    /// Candidate start of read 2.
    pub start2: GlobalPos,
}

/// Result of paired-adjacency filtering.
#[derive(Clone, Debug, Default)]
pub struct PaFilterResult {
    /// Surviving candidate pairs, at most `max_candidates`, in decreasing
    /// pair support, ties in genome order.
    pub candidates: Vec<PairCandidate>,
    /// Pair support of each candidate, parallel to `candidates`: the sum of
    /// its two starts' seed support (2 to 6 for 150 bp reads), or 0 from
    /// [`paired_adjacency_filter_into`], which ranks nothing.
    pub support: Vec<u8>,
    /// Comparator iterations performed (hardware cycle accounting), up to
    /// the scan's stop.
    pub iterations: u64,
    /// Whether at least one pair within Δ was dropped at `max_candidates`.
    pub truncated: bool,
}

/// Filters the sorted candidate lists of the two reads, keeping pairs with
/// `|start2 - start1| <= delta`.
pub fn paired_adjacency_filter(
    list1: &[GlobalPos],
    list2: &[GlobalPos],
    delta: u32,
    max_candidates: usize,
) -> PaFilterResult {
    let mut res = PaFilterResult::default();
    paired_adjacency_filter_into(list1, list2, delta, max_candidates, &mut res);
    res
}

/// [`paired_adjacency_filter`] writing into a caller-owned result (cleared
/// first). Every pair has the same support here, so the buffer keeps the
/// first `max_candidates` pairs in genome order and the scan stops at the
/// first pair past them.
pub fn paired_adjacency_filter_into(
    list1: &[GlobalPos],
    list2: &[GlobalPos],
    delta: u32,
    max_candidates: usize,
    res: &mut PaFilterResult,
) {
    scan(list1, list2, |_, _| 0, 0, delta, max_candidates, res);
}

/// The mapper's filter: the pairs of `c1.starts` and `c2.starts` within
/// `delta`, at most `max_candidates` of them, ranked by pair support (the
/// sum of the two starts' [`ReadCandidates::support`]) with ties in genome
/// order — exactly the first `max_candidates` of all pairs within `delta`
/// stable-sorted by support, highest first. Writes into a caller-owned
/// result (cleared first).
pub fn paired_adjacency_filter_ranked_into(
    c1: &ReadCandidates,
    c2: &ReadCandidates,
    delta: u32,
    max_candidates: usize,
    res: &mut PaFilterResult,
) {
    let best = (c1.seeds_total + c2.seeds_total).min(u32::from(u8::MAX)) as u8;
    let support = |i: usize, j: usize| c1.support[i].saturating_add(c2.support[j]);
    scan(
        &c1.starts,
        &c2.starts,
        support,
        best,
        delta,
        max_candidates,
        res,
    );
}

/// The two-pointer scan behind both entry points. `support(i, j)` is the
/// pair support of `list1[i]` and `list2[j]`, and `best` the highest it
/// can be. Below the cap every pair is pushed; at the cap a pair replaces
/// the weakest kept one (the lowest support, latest in genome order) only
/// if its support is strictly higher, so the buffer always holds, in
/// genome order, the best pairs of the scan so far. A full buffer whose
/// weakest pair has `best` support cannot change: the scan stops there.
fn scan(
    list1: &[GlobalPos],
    list2: &[GlobalPos],
    support: impl Fn(usize, usize) -> u8,
    best: u8,
    delta: u32,
    max_candidates: usize,
    res: &mut PaFilterResult,
) {
    res.candidates.clear();
    res.support.clear();
    res.iterations = 0;
    res.truncated = false;
    // Index of the weakest kept pair, once the buffer is full.
    let mut weakest = 0usize;
    let mut j0 = 0usize;
    for (i, &a) in list1.iter().enumerate() {
        // Advance j0 past candidates too far left of a.
        while j0 < list2.len() && (list2[j0] as u64) + (delta as u64) < a as u64 {
            j0 += 1;
            res.iterations += 1;
        }
        let mut j = j0;
        while j < list2.len() && (list2[j] as u64) <= (a as u64) + delta as u64 {
            res.iterations += 1;
            let cand = PairCandidate {
                start1: a,
                start2: list2[j],
            };
            let s = support(i, j);
            if res.candidates.len() < max_candidates {
                res.candidates.push(cand);
                res.support.push(s);
                if res.candidates.len() == max_candidates {
                    weakest = weakest_of(&res.support);
                }
            } else {
                res.truncated = true;
                let Some(&low) = res.support.get(weakest).filter(|&&low| low < best) else {
                    // Every kept pair has `best` support: already in order.
                    return;
                };
                if s > low {
                    res.candidates.remove(weakest);
                    res.support.remove(weakest);
                    res.candidates.push(cand);
                    res.support.push(s);
                    weakest = weakest_of(&res.support);
                }
            }
            j += 1;
        }
        res.iterations += 1; // the comparison that terminated the scan
    }
    // Stable insertion sort by support, highest first: ties keep genome
    // order. At most `max_candidates` entries.
    for k in 1..res.support.len() {
        let mut m = k;
        while m > 0 && res.support[m - 1] < res.support[m] {
            res.support.swap(m - 1, m);
            res.candidates.swap(m - 1, m);
            m -= 1;
        }
    }
}

/// The index of the lowest support, the last of equals: the kept pair a
/// stronger one displaces.
fn weakest_of(support: &[u8]) -> usize {
    (0..support.len())
        .rev()
        .min_by_key(|&k| support[k])
        .expect("a full buffer holds at least one pair")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_pairs_survive() {
        let l1 = [1000u32, 50_000];
        let l2 = [1200u32, 90_000];
        let res = paired_adjacency_filter(&l1, &l2, 500, 64);
        assert_eq!(
            res.candidates,
            vec![PairCandidate {
                start1: 1000,
                start2: 1200
            }]
        );
        assert!(!res.truncated);
    }

    #[test]
    fn distance_exactly_delta_survives() {
        let res = paired_adjacency_filter(&[100], &[600], 500, 64);
        assert_eq!(res.candidates.len(), 1);
        let res = paired_adjacency_filter(&[100], &[601], 500, 64);
        assert!(res.candidates.is_empty());
    }

    #[test]
    fn reverse_order_within_delta_survives() {
        // start2 slightly *before* start1 is still adjacent.
        let res = paired_adjacency_filter(&[1000], &[900], 500, 64);
        assert_eq!(res.candidates.len(), 1);
    }

    #[test]
    fn matches_naive_cross_product() {
        let l1: Vec<u32> = (0..60).map(|i| i * 137 % 5000).collect();
        let l2: Vec<u32> = (0..60).map(|i| i * 211 % 5000).collect();
        let mut l1s = l1.clone();
        let mut l2s = l2.clone();
        l1s.sort_unstable();
        l2s.sort_unstable();
        l1s.dedup();
        l2s.dedup();
        let delta = 300u32;
        let res = paired_adjacency_filter(&l1s, &l2s, delta, usize::MAX);
        let mut naive = Vec::new();
        for &a in &l1s {
            for &b in &l2s {
                if (a as i64 - b as i64).abs() <= delta as i64 {
                    naive.push(PairCandidate {
                        start1: a,
                        start2: b,
                    });
                }
            }
        }
        let mut got = res.candidates.clone();
        got.sort_by_key(|c| (c.start1, c.start2));
        naive.sort_by_key(|c| (c.start1, c.start2));
        assert_eq!(got, naive);
    }

    #[test]
    fn truncation_caps_output() {
        let l1: Vec<u32> = (0..100).map(|i| 1000 + i).collect();
        let l2 = l1.clone();
        let res = paired_adjacency_filter(&l1, &l2, 600, 10);
        assert_eq!(res.candidates.len(), 10);
        assert!(res.truncated);
    }

    #[test]
    fn empty_lists_yield_nothing() {
        assert!(paired_adjacency_filter(&[], &[1], 100, 8)
            .candidates
            .is_empty());
        assert!(paired_adjacency_filter(&[1], &[], 100, 8)
            .candidates
            .is_empty());
    }

    #[test]
    fn a_full_buffer_at_the_highest_support_stops_the_scan() {
        let starts: Vec<u32> = (0..100).collect();
        // Equal support: ten pairs pushed, the eleventh comparison finds
        // the buffer full and ends the scan.
        let res = paired_adjacency_filter(&starts, &starts, 600, 10);
        assert_eq!((res.candidates.len(), res.iterations), (10, 11));
        assert!(res.truncated);
        // Ranked, every start hit by all three seeds: the same stop. Reads
        // that claim more seeds than hit can never fill the buffer with
        // their highest support, so their scan runs on, to the same pairs.
        let mut c = ReadCandidates::default();
        c.starts = starts.clone();
        c.support = vec![3; starts.len()];
        c.seeds_total = 3;
        let mut ranked = PaFilterResult::default();
        paired_adjacency_filter_ranked_into(&c, &c, 600, 10, &mut ranked);
        assert_eq!(ranked.candidates, res.candidates);
        assert_eq!((ranked.iterations, ranked.support[0]), (11, 6));
        c.seeds_total = 4;
        paired_adjacency_filter_ranked_into(&c, &c, 600, 10, &mut ranked);
        assert_eq!(ranked.candidates, res.candidates);
        assert!(ranked.truncated && ranked.iterations > 100 * 100);
    }

    #[test]
    fn iterations_are_counted() {
        let l1: Vec<u32> = (0..50).map(|i| i * 1000).collect();
        let l2: Vec<u32> = (0..50).map(|i| i * 1000 + 100_000).collect();
        let res = paired_adjacency_filter(&l1, &l2, 100, 64);
        assert!(res.iterations >= 50);
    }
}
