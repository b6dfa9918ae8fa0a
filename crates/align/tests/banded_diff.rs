//! Differential suite for the banded kernel: full [`Alignment`] equality
//! (score, CIGAR, all four coordinates, `cells`) against the row-wise kernel
//! it replaced (`banded_oracle`), over seeded random and adversarial inputs.
//!
//! Ties are where two correct kernels can disagree, so the inputs lean on
//! them: homopolymers, tandem repeats, a two-letter alphabet, and scorings
//! in which a gap move and a substitution cost the same. One
//! [`AlignScratch`] is reused across every case of a test, so a row buffer
//! leaking state from one call into the next shows up as a mismatch too.
//!
//! The kernel picks 16- or 32-bit cells per call from a bound on the lengths
//! and the [`Scoring`]; the last two families sweep a length or a penalty
//! through that bound one step at a time, so both instantiations, the
//! dispatch between them and the scratch they share are held to the oracle
//! on either side of it.
//!
//! Debug builds run a reduced case count; CI runs this crate's tests in
//! release mode at the full count.

mod banded_oracle;

use banded_oracle::banded_align_rowwise;
use gx_align::{banded_align_with, banded_cells, AlignMode, AlignScratch, Scoring};
use gx_genome::DnaSeq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODES: [AlignMode; 2] = [AlignMode::Global, AlignMode::Fit];

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

fn check(
    q: &[u8],
    t: &[u8],
    scoring: &Scoring,
    band: usize,
    mode: AlignMode,
    scratch: &mut AlignScratch,
) {
    let (qs, ts) = (DnaSeq::from_codes(q), DnaSeq::from_codes(t));
    let want = banded_align_rowwise(&qs, &ts, scoring, band, mode);
    let got = banded_align_with(&qs, &ts, scoring, band, mode, scratch);
    assert_eq!(
        got, want,
        "q={q:?} t={t:?} band={band} mode={mode:?} scoring={scoring:?}"
    );
    assert_eq!(
        banded_cells(q.len(), t.len(), band),
        want.cells,
        "banded_cells({}, {}, {band})",
        q.len(),
        t.len()
    );
}

/// Checks one sequence pair under every scoring and both modes.
fn check_all(q: &[u8], t: &[u8], band: usize, scratch: &mut AlignScratch) {
    for scoring in scorings() {
        for mode in MODES {
            check(q, t, &scoring, band, mode, scratch);
        }
    }
}

fn random_codes(rng: &mut StdRng, len: usize, alphabet: u8) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0..alphabet)).collect()
}

/// `len` bases of a tandem repeat whose unit is 1–6 bases long (unit length
/// 1 is a homopolymer).
fn tandem(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let unit_len = rng.random_range(1..=6);
    let unit = random_codes(rng, unit_len, 4);
    (0..len).map(|k| unit[k % unit.len()]).collect()
}

/// A copy of `src` with substitutions, insertions and deletions sprinkled
/// in at per-base rate `rate` each (never empty).
fn mutate(rng: &mut StdRng, src: &[u8], rate: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() + 8);
    for &b in src {
        if rng.random_bool(rate) {
            continue; // deletion
        }
        if rng.random_bool(rate) {
            out.push(rng.random_range(0..4)); // insertion
        }
        out.push(if rng.random_bool(rate) {
            rng.random_range(0..4)
        } else {
            b
        });
    }
    if out.is_empty() {
        out.push(src[0]);
    }
    out
}

#[test]
fn exhaustive_two_letter_sequences_up_to_length_5() {
    // Every pair of sequences over {A, C} with 1..=5 bases: tiny matrices in
    // which nearly every cell is a tie, including all length-1 cases.
    let seqs: Vec<Vec<u8>> = (1..=5usize)
        .flat_map(|len| {
            (0..1u32 << len).map(move |bits| (0..len).map(|k| (bits >> k & 1) as u8).collect())
        })
        .collect();
    let mut scratch = AlignScratch::new();
    for q in &seqs {
        for t in &seqs {
            for band in 1..=3 {
                check_all(q, t, band, &mut scratch);
            }
        }
    }
}

#[test]
fn random_sequences_all_shapes() {
    // Unrelated sequences of independent lengths: n > m, m >> n and
    // length-1 queries and targets all occur; bands 1..=40.
    let mut rng = StdRng::seed_from_u64(0xBA4D_0001);
    let mut scratch = AlignScratch::new();
    for case in 0..cases(6_000) {
        let alphabet = if case % 3 == 0 { 2 } else { 4 };
        let n = match case % 7 {
            0 => 1,
            1 => rng.random_range(1..=4),
            _ => rng.random_range(1..=90),
        };
        let m = match case % 5 {
            0 => rng.random_range(1..=4),
            1 => rng.random_range(n..=n + 200), // m >> n
            _ => rng.random_range(1..=120),
        };
        let q = random_codes(&mut rng, n, alphabet);
        let t = random_codes(&mut rng, m, alphabet);
        check_all(&q, &t, rng.random_range(1..=40), &mut scratch);
    }
}

#[test]
fn mutated_reads_in_their_windows() {
    // The mapper's shape: a read carrying a few edits against the reference
    // window it came from, margins of 0..=30 either side.
    let mut rng = StdRng::seed_from_u64(0xBA4D_0002);
    let mut scratch = AlignScratch::new();
    for case in 0..cases(3_000) {
        let m = rng.random_range(20..=220);
        let t = random_codes(&mut rng, m, 4);
        let lo = rng.random_range(0..=30.min(m - 10));
        let hi = m - rng.random_range(0..=30.min(m - lo - 10));
        let rate = [0.005, 0.02, 0.08][case % 3];
        let q = mutate(&mut rng, &t[lo..hi], rate);
        check_all(&q, &t, rng.random_range(1..=40), &mut scratch);
    }
}

#[test]
fn homopolymers_and_tandem_repeats() {
    // Low-complexity sequence makes whole anti-diagonals score the same, so
    // every tie-break (open over extend, diag over E over F, leftmost end
    // column) decides the CIGAR.
    let mut rng = StdRng::seed_from_u64(0xBA4D_0003);
    let mut scratch = AlignScratch::new();
    for case in 0..cases(4_000) {
        let m = rng.random_range(1..=150);
        let t = tandem(&mut rng, m);
        let q = match case % 4 {
            // the same repeat at another length (n > m included)
            0 => {
                let n = rng.random_range(1..=150);
                (0..n).map(|k| t[k % t.len()]).collect()
            }
            // a slice of it with edits
            1 | 2 => {
                let lo = rng.random_range(0..m);
                mutate(&mut rng, &t[lo..], 0.05)
            }
            // an unrelated repeat
            _ => {
                let n = rng.random_range(1..=100);
                tandem(&mut rng, n)
            }
        };
        check_all(&q, &t, rng.random_range(1..=40), &mut scratch);
    }
}

#[test]
fn long_queries_across_the_cell_width_bound() {
    // Short-read scoring, band 16, n = m: the deepest reachable score is
    // bounded by 12 + 2 * 16 + 8 n + 14, which passes 16-bit "minus
    // infinity" (-16384) between n = 2040 and n = 2041. Unrelated sequences
    // (H = -8 n on the main diagonal when every base mismatches) are the
    // inputs nearest that bound; a read against its own window is the shape
    // that is actually mapped.
    let mut rng = StdRng::seed_from_u64(0xBA4D_0004);
    let mut scratch = AlignScratch::new();
    let spread = if cfg!(debug_assertions) { 1 } else { 12 };
    for n in 2040 - spread..=2041 + spread {
        let all_a = vec![0u8; n];
        let all_c = vec![1u8; n];
        check_all(&all_a, &all_c, 16, &mut scratch);
        let t = random_codes(&mut rng, n, 4);
        let q = random_codes(&mut rng, n, 4);
        check_all(&q, &t, 16, &mut scratch);
        let q = mutate(&mut rng, &t, 0.01);
        check_all(&q, &t, 16, &mut scratch);
    }
}

#[test]
fn heavy_scorings_across_the_cell_width_bound() {
    // Short sequences, scores in the thousands. A 100-base perfect match
    // ramps to 100 * match + 3 (band 1, gap_ext 1), which passes the 16-bit
    // maximum between match = 327 and 328; ten mismatches at ~1360 each
    // with gaps as dear pass "minus infinity" from the other side.
    let mut rng = StdRng::seed_from_u64(0xBA4D_0005);
    let mut scratch = AlignScratch::new();
    let same = random_codes(&mut rng, 100, 4);
    for match_score in 300..=360 {
        let scoring = Scoring {
            match_score,
            mismatch: 1,
            gap_open: 0,
            gap_ext: 1,
        };
        for mode in MODES {
            check(&same, &same, &scoring, 1, mode, &mut scratch);
        }
    }
    for penalty in 1300..=1420 {
        let scoring = Scoring {
            match_score: 1,
            mismatch: penalty,
            gap_open: penalty,
            gap_ext: 3,
        };
        let q = random_codes(&mut rng, 10, 4);
        let t = random_codes(&mut rng, 14, 4);
        for mode in MODES {
            check(&[0; 10], &[1; 10], &scoring, 2, mode, &mut scratch);
            check(&q, &t, &scoring, 3, mode, &mut scratch);
            check(
                &q,
                &mutate(&mut rng, &q, 0.1),
                &scoring,
                3,
                mode,
                &mut scratch,
            );
        }
    }
}

#[test]
fn banded_cells_is_the_corridor_area() {
    // The closed form against the per-row column count it summarises.
    for n in 1..=40usize {
        for m in 1..=60usize {
            for band in 1..=12usize {
                let lo_shift = (m as i64 - n as i64).min(0) - band as i64;
                let hi_shift = (m as i64 - n as i64).max(0) + band as i64;
                let by_rows: i64 = (1..=n as i64)
                    .map(|i| (i + hi_shift).min(m as i64) - (i + lo_shift).max(1) + 1)
                    .sum();
                assert_eq!(
                    banded_cells(n, m, band),
                    by_rows as u64,
                    "n={n} m={m} band={band}"
                );
            }
        }
    }
}
