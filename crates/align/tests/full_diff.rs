//! Differential suite for [`align`], the banded kernel at a band that covers
//! the whole matrix: full [`Alignment`] equality (score, CIGAR, both target
//! coordinates, `cells`) against the scalar full-matrix kernel it replaced
//! (`full_oracle`), over seeded random query/target pairs.
//!
//! Lengths run 1..=200 on both sides independently, so the target is
//! shorter than the query in about half the pairs; half the queries are
//! read-like (an edited slice of their target); a two-letter alphabet in
//! half the pairs makes ties, where two correct kernels can disagree,
//! common. Every pair is aligned under four scorings, two of which tie a
//! gap move with a substitution.
//!
//! Debug builds run a reduced case count; CI runs this crate's tests in
//! release mode at the full count.

mod full_oracle;

use full_oracle::align_full;
use gx_align::{align, Scoring};
use gx_genome::DnaSeq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Short-read and long-read presets, a `gap_open = 0` scheme (every E
/// extension ties with an opening), and a unit-cost scheme with free
/// extension (mismatch, gap open and two matches tie constantly).
fn scorings() -> [Scoring; 4] {
    [
        Scoring::short_read(),
        Scoring::long_read(),
        Scoring {
            match_score: 2,
            mismatch: 4,
            gap_open: 0,
            gap_ext: 2,
        },
        Scoring {
            match_score: 1,
            mismatch: 1,
            gap_open: 1,
            gap_ext: 0,
        },
    ]
}

/// Cases per randomized test.
fn cases(full: usize) -> usize {
    if cfg!(debug_assertions) {
        full / 20
    } else {
        full
    }
}

const MAX_LEN: usize = 200;

/// A sequence length in 1..=MAX_LEN, one time in eight at most four.
fn length(rng: &mut StdRng) -> usize {
    if rng.random_range(0..8) == 0 {
        rng.random_range(1..=4)
    } else {
        rng.random_range(1..=MAX_LEN)
    }
}

fn random_codes(rng: &mut StdRng, len: usize, alphabet: u8) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0..alphabet)).collect()
}

/// A copy of `src` with substitutions, insertions and deletions at per-base
/// rate `rate` each, over the same alphabet, 1..=MAX_LEN bases long.
fn mutate(rng: &mut StdRng, src: &[u8], rate: f64, alphabet: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() + 8);
    for &b in src {
        if rng.random_bool(rate) {
            continue; // deletion
        }
        if rng.random_bool(rate) {
            out.push(rng.random_range(0..alphabet)); // insertion
        }
        out.push(if rng.random_bool(rate) {
            rng.random_range(0..alphabet)
        } else {
            b
        });
    }
    if out.is_empty() {
        out.push(src[0]);
    }
    out.truncate(MAX_LEN);
    out
}

#[test]
fn align_is_the_full_matrix_kernel() {
    let mut rng = StdRng::seed_from_u64(0xF011_0001);
    let (mut read_like, mut shorter_target) = (0, 0);
    for case in 0..cases(20_000) {
        let alphabet = if case % 2 == 0 { 2 } else { 4 };
        let m = length(&mut rng);
        let t = random_codes(&mut rng, m, alphabet);
        let q = if case % 4 < 2 {
            // A read in its window: an edited slice of the target.
            read_like += 1;
            let lo = rng.random_range(0..t.len());
            let hi = rng.random_range(lo + 1..=t.len());
            let rate = [0.0, 0.01, 0.05, 0.15][case / 4 % 4];
            mutate(&mut rng, &t[lo..hi], rate, alphabet)
        } else {
            let n = length(&mut rng);
            random_codes(&mut rng, n, alphabet)
        };
        shorter_target += usize::from(t.len() < q.len());
        let (qs, ts) = (DnaSeq::from_codes(&q), DnaSeq::from_codes(&t));
        for scoring in scorings() {
            assert_eq!(
                align(&qs, &ts, &scoring),
                align_full(&qs, &ts, &scoring),
                "q={q:?} t={t:?} scoring={scoring:?}"
            );
        }
    }
    // The case mix the suite claims.
    let all = cases(20_000);
    assert_eq!(read_like, all / 2);
    assert!(shorter_target > all / 5, "{shorter_target} of {all}");
}
