//! Pre-alignment filters from the prior work GenPair builds on and compares
//! against (paper §8): a SneakySnake-style edit filter and a FastHASH-style
//! single-end adjacency filter.
//!
//! These exist for ablation: the paper motivates the *paired*-adjacency
//! filter by the weakness of single-end filters on paired-end data, and
//! names a light-alignment + SneakySnake combination as promising future
//! work. The `ablation_filters` bench binary quantifies both on our
//! substrate.

use gx_genome::{DnaSeq, GlobalPos};

/// SneakySnake-style pre-alignment filter: decides whether `read` can align
/// to `window` (anchored at `anchor`, with free starting shifts up to `±e`)
/// with at most `e` edits.
///
/// Implemented as the exact Landau–Vishkin diagonal-frontier computation
/// that SneakySnake's "snake" traversal approximates in hardware: frontier
/// `t` holds, per diagonal, the furthest read position reachable with `t`
/// edits; each step spends one edit (mismatch, insertion or deletion) and
/// extends along exact matches. The filter therefore *never* rejects an
/// alignment with edit distance ≤ `e` (one-sided error), the guarantee
/// pre-alignment filters need.
pub fn sneaky_snake_filter(read: &DnaSeq, window: &DnaSeq, anchor: usize, e: u32) -> bool {
    let rcodes = read.to_codes();
    let wcodes = window.to_codes();
    let l = rcodes.len() as i64;
    if l == 0 {
        return true;
    }
    let e = e as i64;
    let ndiag = (2 * e + 1) as usize;
    // extend(i, d): slide along matches on diagonal d from read position i.
    let extend = |mut i: i64, d: i64| -> i64 {
        loop {
            if i >= l {
                return l;
            }
            let wi = anchor as i64 + d + i;
            if wi < 0 || wi >= wcodes.len() as i64 {
                return i;
            }
            if rcodes[i as usize] != wcodes[wi as usize] {
                return i;
            }
            i += 1;
        }
    };
    // t = 0: the starting diagonal is free (the anchor position is only
    // approximate, exactly as in light alignment).
    let mut frontier: Vec<i64> = (0..ndiag).map(|di| extend(0, di as i64 - e)).collect();
    if frontier.iter().any(|&f| f >= l) {
        return true;
    }
    for _t in 1..=e {
        let prev = frontier.clone();
        for di in 0..ndiag {
            let d = di as i64 - e;
            // Mismatch: advance on the same diagonal.
            let mut best = prev[di] + 1;
            // Insertion (read base skipped): diagonal decreases.
            if di + 1 < ndiag {
                best = best.max(prev[di + 1] + 1);
            }
            // Deletion (window base skipped): diagonal increases.
            if di > 0 {
                best = best.max(prev[di - 1]);
            }
            frontier[di] = extend(best.min(l), d);
        }
        if frontier.iter().any(|&f| f >= l) {
            return true;
        }
    }
    false
}

/// FastHASH-style *single-end* adjacency filter: given each seed's
/// candidate read-start list (already normalized by seed offset), keep the
/// starts supported by at least `min_seeds` of the read's own seeds within
/// `slack` bases. This is the intra-read analogue of GenPair's
/// paired-adjacency filter.
pub fn single_end_adjacency(
    per_seed_starts: &[&[GlobalPos]],
    slack: u32,
    min_seeds: usize,
) -> Vec<GlobalPos> {
    let mut all: Vec<(GlobalPos, usize)> = per_seed_starts
        .iter()
        .enumerate()
        .flat_map(|(si, list)| list.iter().map(move |&p| (p, si)))
        .collect();
    all.sort_unstable();
    let mut out = Vec::new();
    let mut lo = 0usize;
    for hi in 0..all.len() {
        while all[hi].0 - all[lo].0 > slack {
            lo += 1;
        }
        let mut seeds_seen = [false; 8];
        let mut distinct = 0usize;
        for &(_, si) in &all[lo..=hi] {
            if si < 8 && !seeds_seen[si] {
                seeds_seen[si] = true;
                distinct += 1;
            }
        }
        if distinct >= min_seeds && out.last() != Some(&all[lo].0) {
            out.push(all[lo].0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::Base;

    fn window() -> DnaSeq {
        (0..200u64)
            .map(|i| Base::from_code((((i * 1103515245) >> 9) % 4) as u8))
            .collect()
    }

    #[test]
    fn accepts_exact_read() {
        let w = window();
        let read = w.subseq(5..155);
        assert!(sneaky_snake_filter(&read, &w, 5, 0));
    }

    #[test]
    fn accepts_read_within_edit_budget() {
        let w = window();
        let mut read = w.subseq(5..155);
        for p in [20usize, 80, 140] {
            read.set(p, read.get(p).complement());
        }
        assert!(sneaky_snake_filter(&read, &w, 5, 3));
        assert!(!sneaky_snake_filter(&read, &w, 5, 2));
    }

    #[test]
    fn accepts_indel_within_budget() {
        let w = window();
        let mut read = w.subseq(5..65);
        read.extend_from_seq(&w.subseq(68..158)); // 3bp deletion
        assert!(sneaky_snake_filter(&read, &w, 5, 3));
    }

    #[test]
    fn rejects_random_read() {
        let w = window();
        let read: DnaSeq = (0..150u64)
            .map(|i| Base::from_code((((i * 2654435761) >> 13) % 4) as u8))
            .collect();
        assert!(!sneaky_snake_filter(&read, &w, 5, 5));
    }

    /// One-sided error: the filter must never reject a read the DP aligner
    /// can place within the edit budget.
    #[test]
    fn never_rejects_true_positives() {
        use gx_align::{align, Scoring};
        let w = window();
        for p in (10..140).step_by(17) {
            // Single deletions and mismatches at varying positions.
            let mut read = w.subseq(5..5 + p);
            read.extend_from_seq(&w.subseq(5 + p + 1..156 + 5));
            let dp = align(&read, &w, &Scoring::short_read());
            let edits = dp.cigar.gap_bases() + dp.mismatches();
            if edits <= 5 {
                assert!(
                    sneaky_snake_filter(&read, &w, 5, 5),
                    "rejected a {edits}-edit read at p={p}"
                );
            }
        }
    }

    /// Exactness against a brute-force banded edit-distance computation on
    /// short random strings: accept iff edit distance (with free starting
    /// shift within ±e) is at most e.
    #[test]
    fn matches_bruteforce_edit_distance() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..300 {
            let wl = rng.random_range(12..28usize);
            let rl = rng.random_range(6..(wl - 4));
            let w: DnaSeq = (0..wl)
                .map(|_| Base::from_code(rng.random_range(0..4)))
                .collect();
            let r: DnaSeq = if rng.random_bool(0.7) {
                // Derive from the window with some mutations to get
                // interesting distances.
                let start = rng.random_range(0..wl - rl);
                let mut r = w.subseq(start..start + rl);
                for _ in 0..rng.random_range(0..4) {
                    let p = rng.random_range(0..r.len());
                    r.set(p, Base::from_code(rng.random_range(0..4)));
                }
                r
            } else {
                (0..rl)
                    .map(|_| Base::from_code(rng.random_range(0..4)))
                    .collect()
            };
            let e = rng.random_range(0..4u32);
            let anchor = rng.random_range(0..6usize);
            let accept = sneaky_snake_filter(&r, &w, anchor, e);
            let truth = bruteforce_within(&r, &w, anchor, e);
            assert_eq!(accept, truth, "read={r} window={w} anchor={anchor} e={e}");
        }
    }

    /// Banded edit-distance oracle over the same model as the snake filter:
    /// the alignment path lives on diagonals `anchor - e ..= anchor + e`,
    /// the starting diagonal is free, window end is free. `D[i][d]` = least
    /// edits to consume `read[..i]` ending on diagonal `d`.
    fn bruteforce_within(read: &DnaSeq, window: &DnaSeq, anchor: usize, e: u32) -> bool {
        let l = read.len();
        let e = e as i64;
        let ndiag = (2 * e + 1) as usize;
        let inf = 1_000_000i64;
        let wchar = |i: usize, d: i64| -> Option<u8> {
            let wi = anchor as i64 + d + i as i64;
            if wi >= 0 && (wi as usize) < window.len() {
                Some(window.code_at(wi as usize))
            } else {
                None
            }
        };
        let mut cur = vec![0i64; ndiag]; // D[0][*] = 0: free starting diagonal
        for i in 0..l {
            // Intra-row deletions: moving to a higher diagonal at the same
            // read position costs one edit each.
            let mut row = cur.clone();
            for di in 1..ndiag {
                row[di] = row[di].min(row[di - 1] + 1);
            }
            let mut next = vec![inf; ndiag];
            for di in 0..ndiag {
                let d = di as i64 - e;
                // Match/mismatch on diagonal d.
                let sub = if wchar(i, d) == Some(read.code_at(i)) {
                    0
                } else {
                    1
                };
                next[di] = next[di].min(row[di] + sub);
                // Insertion: read advances, diagonal decreases.
                if di + 1 < ndiag {
                    next[di] = next[di].min(row[di + 1].saturating_add(1));
                }
            }
            cur = next;
        }
        // Final intra-row deletions cannot help (window end is free).
        cur.into_iter().any(|c| c <= e)
    }

    #[test]
    fn single_end_adjacency_requires_agreement() {
        // Seed 0 and seed 1 agree near 1000; seed 2 is elsewhere.
        let s0 = [1000u32, 5000];
        let s1 = [1003u32, 9000];
        let s2 = [40_000u32];
        let hits = single_end_adjacency(&[&s0, &s1, &s2], 10, 2);
        assert_eq!(hits, vec![1000]);
        let strict = single_end_adjacency(&[&s0, &s1, &s2], 10, 3);
        assert!(strict.is_empty());
    }

    #[test]
    fn single_end_adjacency_empty_inputs() {
        assert!(single_end_adjacency(&[], 10, 1).is_empty());
        let empty: [GlobalPos; 0] = [];
        assert!(single_end_adjacency(&[&empty], 10, 1).is_empty());
    }
}
