//! Minimap2-style chaining of seed anchors.
//!
//! Chaining is the stage that dominates paired-end mapping time in the
//! software baseline (paper Fig. 1, >65% of execution). The DP here follows
//! minimap2's formulation: anchors sorted by reference position are chained
//! with a concave gap cost, looking back at most [`ChainParams::max_lookback`]
//! predecessors. Evaluated predecessor pairs are counted as *cell updates*
//! so the GenDP fallback accelerator can be sized from measured work.

/// A seed match between read and reference (one strand; callers keep
/// separate anchor sets per strand).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Anchor {
    /// Position of the seed start on the read.
    pub read_pos: u32,
    /// Position of the seed start on the reference (chromosome-local or
    /// global, as long as it is consistent).
    pub ref_pos: u64,
}

/// A chain of anchors with its DP score.
#[derive(Clone, Debug)]
pub struct Chain {
    /// Indices into the anchor slice passed to [`chain_anchors`], in
    /// read-order.
    pub anchors: Vec<usize>,
    /// Chaining score.
    pub score: i32,
    /// Read span covered (start of first anchor .. start of last + k).
    pub read_start: u32,
    /// Reference span start.
    pub ref_start: u64,
    /// Reference span end (start of last anchor + k).
    pub ref_end: u64,
}

/// Chaining parameters.
///
/// `Default` is the setting the chaining tests of this crate use
/// (`min_score` 40, `min_anchors` 2). The one production caller, the
/// baseline's `gx_baseline::Mm2Mapper`, chains with its own constants
/// (`min_score` 25, `min_anchors` 1, `kmer` its minimizer length).
#[derive(Clone, Copy, Debug)]
pub struct ChainParams {
    /// Seed (k-mer) length used to produce the anchors.
    pub kmer: u32,
    /// Maximum reference/read distance between chainable anchors.
    pub max_dist: u32,
    /// Maximum |gap| (difference between read and reference advance).
    pub max_gap: u32,
    /// How many predecessors each anchor examines.
    pub max_lookback: usize,
    /// Minimum score for a chain to be reported.
    pub min_score: i32,
    /// Minimum number of anchors for a chain to be reported.
    pub min_anchors: usize,
}

impl Default for ChainParams {
    fn default() -> ChainParams {
        ChainParams {
            kmer: 21,
            max_dist: 500,
            max_gap: 100,
            max_lookback: 50,
            min_score: 40,
            min_anchors: 2,
        }
    }
}

/// Result of chaining: the chains (best first) and the number of DP cell
/// updates evaluated.
#[derive(Clone, Debug, Default)]
pub struct ChainResult {
    /// Chains sorted by descending score.
    pub chains: Vec<Chain>,
    /// Predecessor evaluations performed (chaining "cell updates").
    pub cells: u64,
}

/// Chains `anchors` (will be sorted in place by (ref_pos, read_pos)).
///
/// Returns chains sorted by descending score. Anchors can belong to at most
/// one reported chain (greedy extraction, like minimap2's primary chains).
pub fn chain_anchors(anchors: &mut [Anchor], params: &ChainParams) -> ChainResult {
    if anchors.is_empty() {
        return ChainResult::default();
    }
    anchors.sort_unstable_by_key(|a| (a.ref_pos, a.read_pos));
    let n = anchors.len();
    let mut f = vec![0i32; n]; // best score ending at i
    let mut parent = vec![usize::MAX; n];
    let mut cells = 0u64;

    for i in 0..n {
        f[i] = params.kmer as i32;
        let lo = i.saturating_sub(params.max_lookback);
        for j in (lo..i).rev() {
            cells += 1;
            let a = &anchors[i];
            let b = &anchors[j];
            let dr = a.ref_pos - b.ref_pos; // >= 0 by sort order
            if dr > params.max_dist as u64 {
                break; // sorted by ref_pos: all earlier j are farther
            }
            if a.read_pos <= b.read_pos || dr == 0 {
                continue;
            }
            let dq = (a.read_pos - b.read_pos) as u64;
            if dq > params.max_dist as u64 {
                continue;
            }
            let gap = dr.abs_diff(dq);
            if gap > params.max_gap as u64 {
                continue;
            }
            let matched = dq.min(dr).min(params.kmer as u64) as i32;
            let cost = if gap == 0 {
                0
            } else {
                let g = gap as f64;
                (0.01 * params.kmer as f64 * g + 0.5 * g.log2()).ceil() as i32
            };
            let sc = f[j] + matched - cost;
            if sc > f[i] {
                f[i] = sc;
                parent[i] = j;
            }
        }
    }

    // Greedy chain extraction by descending end score.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse(f[i]));
    let mut used = vec![false; n];
    let mut chains = Vec::new();
    for &end in &order {
        if used[end] || f[end] < params.min_score {
            continue;
        }
        let mut members = Vec::new();
        let mut cur = end;
        loop {
            if used[cur] {
                break; // ran into an anchor claimed by a better chain
            }
            members.push(cur);
            used[cur] = true;
            if parent[cur] == usize::MAX {
                break;
            }
            cur = parent[cur];
        }
        if members.len() < params.min_anchors {
            continue;
        }
        members.reverse();
        let first = anchors[members[0]];
        let last = anchors[*members.last().expect("members non-empty")];
        chains.push(Chain {
            score: f[end],
            read_start: first.read_pos,
            ref_start: first.ref_pos,
            ref_end: last.ref_pos + params.kmer as u64,
            anchors: members,
        });
    }
    chains.sort_by_key(|c| std::cmp::Reverse(c.score));
    ChainResult { chains, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ChainParams {
        ChainParams::default()
    }

    #[test]
    fn colinear_anchors_form_one_chain() {
        let mut anchors: Vec<Anchor> = (0..5)
            .map(|i| Anchor {
                read_pos: i * 30,
                ref_pos: 1000 + (i as u64) * 30,
            })
            .collect();
        let res = chain_anchors(&mut anchors, &params());
        assert_eq!(res.chains.len(), 1);
        assert_eq!(res.chains[0].anchors.len(), 5);
        assert_eq!(res.chains[0].ref_start, 1000);
        assert!(res.cells > 0);
    }

    #[test]
    fn distant_anchors_split_chains() {
        let mut anchors = vec![
            Anchor {
                read_pos: 0,
                ref_pos: 1000,
            },
            Anchor {
                read_pos: 30,
                ref_pos: 1030,
            },
            Anchor {
                read_pos: 0,
                ref_pos: 900_000,
            },
            Anchor {
                read_pos: 30,
                ref_pos: 900_030,
            },
        ];
        let res = chain_anchors(&mut anchors, &params());
        assert_eq!(res.chains.len(), 2);
    }

    #[test]
    fn gap_penalty_prefers_consistent_diagonal() {
        // Two candidate predecessors: one on-diagonal, one with a 50bp gap.
        let mut anchors = vec![
            Anchor {
                read_pos: 0,
                ref_pos: 1000,
            }, // on-diagonal
            Anchor {
                read_pos: 0,
                ref_pos: 1050,
            }, // off-diagonal (gap 50)
            Anchor {
                read_pos: 100,
                ref_pos: 1100,
            }, // target
        ];
        let res = chain_anchors(&mut anchors, &params());
        let best = &res.chains[0];
        // Chain should go through the on-diagonal anchor (index of (0,1000)).
        assert!(best.anchors.contains(&0), "chains: {:?}", res.chains);
    }

    #[test]
    fn empty_input() {
        let res = chain_anchors(&mut [], &params());
        assert!(res.chains.is_empty());
        assert_eq!(res.cells, 0);
    }

    #[test]
    fn min_score_filters_singletons() {
        let mut anchors = vec![Anchor {
            read_pos: 0,
            ref_pos: 5,
        }];
        let res = chain_anchors(&mut anchors, &params());
        assert!(res.chains.is_empty()); // single 21-mer scores 21 < 40
    }
}
