//! Canonical (k,w)-minimizers, minimap2-style.
//!
//! A window of `w` consecutive k-mers contributes its smallest hashed
//! canonical k-mer. The hash is minimap2's invertible 64-bit mix, which
//! de-correlates lexicographic order from selection order.

use gx_genome::DnaSeq;

/// minimap2's invertible integer hash (Thomas Wang mix restricted to
/// `mask`).
#[inline]
pub fn hash64(key: u64, mask: u64) -> u64 {
    let mut k = key;
    k = (!k).wrapping_add(k << 21) & mask;
    k ^= k >> 24;
    k = (k.wrapping_add(k << 3)).wrapping_add(k << 8) & mask;
    k ^= k >> 14;
    k = (k.wrapping_add(k << 2)).wrapping_add(k << 4) & mask;
    k ^= k >> 28;
    k = k.wrapping_add(k << 31) & mask;
    k
}

/// A selected minimizer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Minimizer {
    /// Start position of the k-mer in the sequence.
    pub pos: u32,
    /// Hash of the canonical k-mer.
    pub hash: u64,
    /// Whether the forward k-mer is the canonical one.
    pub forward: bool,
}

/// Extracts the canonical (k,w)-minimizers of `seq`.
///
/// Strand-symmetric: a sequence and its reverse complement select the same
/// canonical k-mers (with flipped `forward` flags), which is what lets one
/// index serve both strands.
///
/// # Panics
///
/// Panics if `k` is 0 or greater than 28, or `w` is 0.
pub fn extract_minimizers(seq: &DnaSeq, k: usize, w: usize) -> Vec<Minimizer> {
    assert!(k > 0 && k <= 28, "k out of range");
    assert!(w > 0, "w out of range");
    let n = seq.len();
    if n < k {
        return Vec::new();
    }
    let mask = (1u64 << (2 * k)) - 1;
    let n_kmers = n - k + 1;

    // Hash every canonical k-mer with a rolling update.
    let mut hashes = Vec::with_capacity(n_kmers);
    let mut fwd = 0u64;
    let mut rev = 0u64;
    for i in 0..n {
        let c = seq.code_at(i) as u64;
        fwd = ((fwd << 2) | c) & mask;
        rev = (rev >> 2) | ((c ^ 3) << (2 * (k - 1)));
        if i + 1 >= k {
            let (canon, forward) = if fwd <= rev {
                (fwd, true)
            } else {
                (rev, false)
            };
            hashes.push((hash64(canon, mask), forward));
        }
    }

    // Sliding window minimum via monotonic deque of indices.
    let mut out: Vec<Minimizer> = Vec::with_capacity(n_kmers / w * 2 + 4);
    let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for i in 0..n_kmers {
        while let Some(&back) = deque.back() {
            if hashes[back].0 >= hashes[i].0 {
                deque.pop_back();
            } else {
                break;
            }
        }
        deque.push_back(i);
        if i + 1 >= w {
            let win_lo = i + 1 - w;
            while *deque.front().expect("deque non-empty") < win_lo {
                deque.pop_front();
            }
            let m = *deque.front().expect("deque non-empty");
            let cand = Minimizer {
                pos: m as u32,
                hash: hashes[m].0,
                forward: hashes[m].1,
            };
            if out.last() != Some(&cand) {
                out.push(cand);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn minimizers_cover_sequence() {
        let s = seq(&"ACGTTGCATGCAACGGATCC".repeat(20));
        let ms = extract_minimizers(&s, 15, 10);
        assert!(!ms.is_empty());
        // Adjacent selected positions are at most w apart.
        for w in ms.windows(2) {
            assert!(w[1].pos - w[0].pos <= 10 + 15);
        }
    }

    #[test]
    fn strand_symmetry() {
        let s = seq("ACGGTTACGGTAGACCATTACGGTAGCAGTTACCGGA");
        let k = 11;
        let w = 5;
        let fwd: Vec<u64> = extract_minimizers(&s, k, w)
            .iter()
            .map(|m| m.hash)
            .collect();
        let rev: Vec<u64> = extract_minimizers(&s.revcomp(), k, w)
            .iter()
            .map(|m| m.hash)
            .collect();
        let mut f = fwd.clone();
        let mut r = rev.clone();
        f.sort_unstable();
        r.sort_unstable();
        assert_eq!(f, r, "canonical minimizer sets must match across strands");
    }

    #[test]
    fn short_sequence_yields_nothing() {
        assert!(extract_minimizers(&seq("ACGT"), 15, 10).is_empty());
    }

    #[test]
    fn hash64_is_injective_on_small_domain() {
        let mask = (1u64 << 16) - 1;
        let mut seen = std::collections::HashSet::new();
        for x in 0..=mask {
            assert!(seen.insert(hash64(x, mask)), "collision at {x}");
        }
    }
}
