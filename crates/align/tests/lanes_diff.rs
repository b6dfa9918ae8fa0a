//! Differential suite for the lane kernel: every lane's [`Alignment`]
//! (score, CIGAR, both target coordinates, `cells`) against
//! [`banded_align_with`] on the same job.
//!
//! The inputs are `banded_diff.rs`'s families under its four scorings, cut
//! to one shape a group: every two-letter pair up to length 5, unrelated
//! random sequences, mutated reads in their windows (the mapper's shape,
//! and the DP fallback's own 150-base mate in a 166-base window at band 8),
//! homopolymers and tandem repeats, and lengths and penalties swept through
//! the bound past which a shape leaves 16-bit cells (and the lanes hand it
//! to the row kernel). Groups hold 1 to 8 jobs whose contents are unrelated
//! to each other, so a lane reading its neighbour shows up as a mismatch,
//! and one [`AlignScratch`] serves every group of a test, dirty from the
//! last one, while the reference gets its own.
//!
//! Debug builds run a reduced case count; CI runs this crate's tests in
//! release mode at the full count.

use gx_align::{
    banded_align_lanes, banded_align_with, AlignMode, AlignScratch, Alignment, Scoring, LANES,
};
use gx_genome::DnaSeq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `banded_diff.rs`'s four scorings.
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

/// The lane kernel's buffers (reused dirty across a test), the reference's,
/// and the output vector.
#[derive(Default)]
struct Harness {
    lanes: AlignScratch,
    rows: AlignScratch,
    out: Vec<Alignment>,
    /// Alignments checked.
    checked: usize,
}

impl Harness {
    /// Aligns `jobs` (one shape) together and holds each lane to
    /// `banded_align_with` on its own sequences.
    fn check(&mut self, jobs: &[(Vec<u8>, Vec<u8>)], scoring: &Scoring, band: usize) {
        let refs: Vec<(&[u8], &[u8])> = jobs
            .iter()
            .map(|(q, t)| (q.as_slice(), t.as_slice()))
            .collect();
        self.out.clear();
        banded_align_lanes(&refs, scoring, band, &mut self.lanes, &mut self.out);
        assert_eq!(self.out.len(), jobs.len());
        for (lane, ((q, t), got)) in jobs.iter().zip(&self.out).enumerate() {
            let (qs, ts) = (DnaSeq::from_codes(q), DnaSeq::from_codes(t));
            let want = banded_align_with(&qs, &ts, scoring, band, AlignMode::Fit, &mut self.rows);
            assert_eq!(
                got,
                &want,
                "lane {lane} of {}: q={q:?} t={t:?} band={band} scoring={scoring:?}",
                jobs.len()
            );
        }
        self.checked += jobs.len();
    }

    fn check_all(&mut self, jobs: &[(Vec<u8>, Vec<u8>)], band: usize) {
        for scoring in scorings() {
            self.check(jobs, &scoring, band);
        }
    }
}

fn random_codes(rng: &mut StdRng, len: usize, alphabet: u8) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0..alphabet)).collect()
}

/// `len` bases of a tandem repeat whose unit is 1–6 bases long.
fn tandem(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let unit_len = rng.random_range(1..=6);
    let unit = random_codes(rng, unit_len, 4);
    (0..len).map(|k| unit[k % unit.len()]).collect()
}

/// A copy of `src` with substitutions, insertions and deletions at per-base
/// rate `rate` each, cut or padded (with random bases) to `len`.
fn mutate_to(rng: &mut StdRng, src: &[u8], rate: f64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    for &b in src {
        if rng.random_bool(rate) {
            continue;
        }
        if rng.random_bool(rate) {
            out.push(rng.random_range(0..4));
        }
        out.push(if rng.random_bool(rate) {
            rng.random_range(0..4)
        } else {
            b
        });
    }
    out.resize_with(len, || rng.random_range(0..4));
    out.truncate(len);
    out
}

/// Group sizes cycling through 1..=LANES.
fn group_size(case: usize) -> usize {
    case % LANES + 1
}

#[test]
fn exhaustive_two_letter_sequences_up_to_length_5() {
    // Every pair of sequences over {A, C} with 1..=5 bases, grouped by
    // shape into runs of 1..=8 lanes.
    let mut h = Harness::default();
    let words = |len: usize| {
        (0..1u32 << len).map(move |bits| (0..len).map(|k| (bits >> k & 1) as u8).collect())
    };
    let mut case = 0;
    for n in 1..=5 {
        for m in 1..=5 {
            let jobs: Vec<(Vec<u8>, Vec<u8>)> = words(n)
                .flat_map(|q: Vec<u8>| words(m).map(move |t| (q.clone(), t)))
                .collect();
            let mut rest = &jobs[..];
            while !rest.is_empty() {
                let (group, tail) = rest.split_at(group_size(case).min(rest.len()));
                for band in 1..=3 {
                    h.check_all(group, band);
                }
                (rest, case) = (tail, case + 1);
            }
        }
    }
    assert_eq!(h.checked, 62 * 62 * 3 * 4);
}

#[test]
fn unrelated_random_sequences_all_shapes() {
    // Independent lengths (n > m, m >> n, length 1), bands 1..=40, and lane
    // contents unrelated to each other.
    let mut rng = StdRng::seed_from_u64(0x1A4E_0001);
    let mut h = Harness::default();
    for case in 0..cases(2_000) {
        let alphabet = if case % 3 == 0 { 2 } else { 4 };
        let n = match case % 7 {
            0 => 1,
            1 => rng.random_range(1..=4),
            _ => rng.random_range(1..=90),
        };
        let m = match case % 5 {
            0 => rng.random_range(1..=4),
            1 => rng.random_range(n..=n + 200),
            _ => rng.random_range(1..=120),
        };
        let jobs: Vec<_> = (0..group_size(case))
            .map(|_| {
                (
                    random_codes(&mut rng, n, alphabet),
                    random_codes(&mut rng, m, alphabet),
                )
            })
            .collect();
        h.check_all(&jobs, rng.random_range(1..=40));
    }
}

#[test]
fn mutated_reads_in_their_windows() {
    // The mapper's shape: reads with a few edits in the windows they came
    // from, beside one unrelated lane per group; every fourth group is the
    // DP fallback's own 150-base mate, 166-base window, band 8.
    let mut rng = StdRng::seed_from_u64(0x1A4E_0002);
    let mut h = Harness::default();
    for case in 0..cases(1_500) {
        let fallback = case % 4 == 0;
        let (n, m, band) = if fallback {
            (150, 166, 8)
        } else {
            let m = rng.random_range(20..=220);
            (rng.random_range(10..=m), m, rng.random_range(1..=40))
        };
        let rate = [0.005, 0.02, 0.08][case % 3];
        let jobs: Vec<_> = (0..group_size(case))
            .map(|lane| {
                let t = random_codes(&mut rng, m, 4);
                let q = if lane == 1 {
                    random_codes(&mut rng, n, 4)
                } else {
                    let lo = rng.random_range(0..=m - n);
                    mutate_to(&mut rng, &t[lo..], rate, n)
                };
                (q, t)
            })
            .collect();
        h.check_all(&jobs, band);
    }
}

#[test]
fn homopolymers_and_tandem_repeats() {
    // Whole anti-diagonals tie, so every tie-break decides the CIGAR, in
    // every lane at once.
    let mut rng = StdRng::seed_from_u64(0x1A4E_0003);
    let mut h = Harness::default();
    for case in 0..cases(1_500) {
        let (n, m) = (rng.random_range(1..=150), rng.random_range(1..=150));
        let jobs: Vec<_> = (0..group_size(case))
            .map(|lane| {
                let t = tandem(&mut rng, m);
                let q = match (case + lane) % 3 {
                    0 => (0..n).map(|k| t[k % t.len()]).collect(),
                    1 => {
                        let lo = rng.random_range(0..m);
                        mutate_to(&mut rng, &t[lo..], 0.05, n)
                    }
                    _ => tandem(&mut rng, n),
                };
                (q, t)
            })
            .collect();
        h.check_all(&jobs, rng.random_range(1..=40));
    }
}

#[test]
fn long_queries_across_the_cell_width_bound() {
    // Short-read scoring, band 16, n = m: 16-bit cells hold up to n = 2040,
    // past which the lanes hand the shape to the row kernel.
    let mut rng = StdRng::seed_from_u64(0x1A4E_0004);
    let mut h = Harness::default();
    let spread = if cfg!(debug_assertions) { 1 } else { 6 };
    for (case, n) in (2040 - spread..=2041 + spread).enumerate() {
        let jobs: Vec<_> = (0..group_size(case + 2))
            .map(|lane| {
                let t = random_codes(&mut rng, n, 4);
                let q = match lane % 3 {
                    0 => vec![(t[0] + 1) % 4; n],
                    1 => random_codes(&mut rng, n, 4),
                    _ => mutate_to(&mut rng, &t, 0.01, n),
                };
                (q, t)
            })
            .collect();
        h.check(&jobs, &Scoring::short_read(), 16);
    }
}

#[test]
fn heavy_scorings_across_the_cell_width_bound() {
    // Match scores and penalties swept one step at a time through the
    // 16-bit bound, as in banded_diff.rs.
    let mut rng = StdRng::seed_from_u64(0x1A4E_0005);
    let mut h = Harness::default();
    for (case, match_score) in (300..=360).enumerate() {
        let scoring = Scoring {
            match_score,
            mismatch: 1,
            gap_open: 0,
            gap_ext: 1,
        };
        let jobs: Vec<_> = (0..group_size(case))
            .map(|_| {
                let q = random_codes(&mut rng, 100, 4);
                (q.clone(), q)
            })
            .collect();
        h.check(&jobs, &scoring, 1);
    }
    for (case, penalty) in (1300..=1420).enumerate() {
        let scoring = Scoring {
            match_score: 1,
            mismatch: penalty,
            gap_open: penalty,
            gap_ext: 3,
        };
        let jobs: Vec<_> = (0..group_size(case))
            .map(|_| {
                let q = random_codes(&mut rng, 10, 4);
                let t = mutate_to(&mut rng, &q, 0.1, 14);
                (q, t)
            })
            .collect();
        h.check(&jobs, &scoring, 3);
    }
}
