//! Light Alignment (paper §4.6): alignment without dynamic programming.
//!
//! The key idea: 69.9% of read pairs carry edits of a *single type* — some
//! mismatches, or one run of consecutive insertions, or one run of
//! consecutive deletions (Observation 3). Such alignments can be recovered
//! with bit-parallel Hamming masks between the read and shifted copies of the
//! reference (the Shifted Hamming Distance idea), extended here from a filter
//! into a full aligner that produces the alignment score *and* CIGAR.
//!
//! For a maximum run length `e` there are `2e+1` shifted comparisons (shifts
//! `-e..=e`). A run of `k` deletions manifests as a long prefix of matches
//! at shift `s` and a long suffix at shift `s+k`; insertions symmetrically at
//! `s-k`. Pure mismatch alignments are read off one comparison's Hamming
//! distance. The best-scoring feasible pattern is returned — within the
//! single-edit-type class this is provably the optimal alignment, which the
//! hardware module exploits to skip DP entirely.
//!
//! # What the hardware computes, and what this module computes
//!
//! The hardware module builds all `2e+1` masks in one cycle and walks them
//! from both ends; [`light_align_cycles`] is that cost and does not depend
//! on anything below. In software the comparisons are serial, so this module
//! stores no mask at all. One shifted comparison is a `Lanes` view over the
//! 2-bit-packed words ([`DnaSeq::words`]): XOR 32 bases at a time and fold
//! each lane to one mismatch bit. Hamming distance is a popcount, the
//! matching prefix and suffix are trailing and leading zero counts, and each
//! is scanned only until it is decided. Shift 0 goes first; every other
//! pattern is looked at only as far as it can still change the result, and
//! only the winner's CIGAR is built, one push per run.
//!
//! The result is exactly that of scoring every pattern in the fixed order
//! (ungapped `s = -e..=e`; then `s`, `k = 1..=e`, deletion, insertion) and
//! keeping a pattern only when it scores strictly higher than the incumbent:
//!
//! * under that rule a pattern whose score cannot exceed the incumbent's
//!   never replaces it, so it may be skipped, in any evaluation order;
//! * among ungapped patterns fewer mismatches is a strictly higher score
//!   ([`Scoring`]'s penalties are positive), so the winner is the smallest
//!   `(mismatches, shift)` pair — shift 0 may go first as long as shifts
//!   before it are held to `<= h0` and shifts after it to `< h0`;
//! * an indel pattern's score depends on `k`, the read length and the
//!   [`Scoring`] alone, so it is compared with the incumbent *before* any
//!   prefix or suffix is counted (by score, never by mismatch count: under
//!   [`Scoring::long_read`] a one-base deletion outscores one mismatch).
//!
//! `tests/light_diff.rs` holds this to the eager, mask-storing aligner it
//! replaced on every field of [`LightAlignment`].

use gx_align::Scoring;
use gx_genome::{Cigar, CigarOp, DnaSeq};

/// Configuration of the light aligner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LightConfig {
    /// Maximum indel run length `e` (Table 1 reaches 5-deletion runs; the
    /// hardware computes masks for all shifts in `-e..=e`).
    pub max_indel_run: u32,
    /// Maximum number of mismatches accepted in an ungapped alignment.
    pub max_mismatches: u32,
}

impl Default for LightConfig {
    fn default() -> LightConfig {
        LightConfig {
            max_indel_run: 5,
            max_mismatches: 8,
        }
    }
}

/// A successful light alignment.
#[derive(Clone, Debug)]
pub struct LightAlignment {
    /// Alignment score under the scoring scheme supplied to [`light_align`].
    pub score: i32,
    /// CIGAR in read orientation (`=`/`X`/`I`/`D`).
    pub cigar: Cigar,
    /// Offset of the alignment start relative to the *anchor* position in
    /// the window (see [`light_align`]); the mapped reference position is
    /// `candidate + shift`.
    pub shift: i32,
    /// Number of mismatching bases.
    pub mismatches: u32,
    /// Length of the insertion run (0 when none).
    pub ins_run: u32,
    /// Length of the deletion run (0 when none).
    pub del_run: u32,
}

/// Reusable buffer for [`light_align_with`]: the matching-suffix length of
/// each shift, counted at most once per attempt and only when an indel
/// pattern asks for it. `2e+1` entries; no heap allocation after the first
/// attempt that reaches the indel stage.
#[derive(Default)]
pub struct LightScratch {
    suffix: Vec<Option<usize>>,
}

impl LightScratch {
    /// An empty scratch; the buffer grows to its steady-state size on first
    /// use.
    pub fn new() -> LightScratch {
        LightScratch::default()
    }
}

/// The packed word containing lane `idx`, or an all-zero word out of range
/// (callers force the resulting junk lanes to mismatch via the validity
/// range).
#[inline]
fn word_at(words: &[u64], idx: i64) -> u64 {
    if idx < 0 || idx as usize >= words.len() {
        0
    } else {
        words[idx as usize]
    }
}

/// Extracts 32 consecutive 2-bit lanes starting at (possibly negative or
/// past-the-end) base index `pos`, funnel-shifting across the word boundary.
#[inline]
fn extract_lanes(words: &[u64], pos: i64) -> u64 {
    let w0 = pos.div_euclid(32);
    let sh = (pos.rem_euclid(32) as u32) * 2;
    let lo = word_at(words, w0);
    if sh == 0 {
        lo
    } else {
        (lo >> sh) | (word_at(words, w0 + 1) << (64 - sh))
    }
}

/// The low bit of each of a word's 32 lanes.
const LANE_LSB: u64 = 0x5555_5555_5555_5555;

/// [`LANE_LSB`] restricted to lanes `0..n` (`n` may be negative or past 32).
#[inline]
fn lanes_below(n: i64) -> u64 {
    match n {
        ..=0 => 0,
        1..=31 => LANE_LSB & ((1u64 << (2 * n)) - 1),
        _ => LANE_LSB,
    }
}

/// One shifted comparison, never materialised: read base `i` against window
/// base `start + i`, 32 bases per [`word`](Lanes::word).
#[derive(Clone, Copy)]
struct Lanes<'a> {
    read: &'a [u64],
    window: &'a [u64],
    /// Read length in bases.
    len: usize,
    /// Window index under read base 0; negative when the shift reaches in
    /// front of the window.
    start: i64,
    /// Read positions `lo..hi` have a window base under them; the others
    /// count as mismatches.
    lo: usize,
    hi: usize,
}

impl<'a> Lanes<'a> {
    fn new(read: &'a DnaSeq, window: &'a DnaSeq, start: i64) -> Lanes<'a> {
        let len = read.len();
        let hi = (window.len() as i64 - start).clamp(0, len as i64) as usize;
        Lanes {
            read: read.words(),
            window: window.words(),
            len,
            start,
            lo: ((-start).max(0) as usize).min(hi),
            hi,
        }
    }

    /// Mismatch lanes of read bases `32j..32j + 32`: bit `2i` is set iff
    /// base `32j + i` differs from the window base under it or has none;
    /// lanes at and past the read's end are clear.
    #[inline]
    fn word(&self, j: usize) -> u64 {
        let base = 32 * j as i64;
        let x = self.read[j] ^ extract_lanes(self.window, self.start + base);
        let inside = lanes_below(self.hi as i64 - base) & !lanes_below(self.lo as i64 - base);
        (x | x >> 1 | !inside) & lanes_below(self.len as i64 - base)
    }

    fn words(&self) -> std::ops::Range<usize> {
        0..self.len.div_ceil(32)
    }

    /// The Hamming distance if it is at most `cap`; gives up at the first
    /// word that takes the count past it.
    fn hamming_within(&self, cap: u32) -> Option<u32> {
        let mut total = 0;
        for j in self.words() {
            total += self.word(j).count_ones();
            if total > cap {
                return None;
            }
        }
        Some(total)
    }

    /// Number of matching bases before the first mismatch.
    fn prefix(&self) -> usize {
        for j in self.words() {
            let m = self.word(j);
            if m != 0 {
                return 32 * j + (m.trailing_zeros() / 2) as usize;
            }
        }
        self.len
    }

    /// Number of matching bases after the last mismatch.
    fn suffix(&self) -> usize {
        for j in self.words().rev() {
            let m = self.word(j);
            if m != 0 {
                let last = 32 * j + 31 - (m.leading_zeros() / 2) as usize;
                return self.len - 1 - last;
            }
        }
        self.len
    }

    /// The `=`/`X` CIGAR of this comparison, one push per run.
    fn cigar(&self) -> Cigar {
        let mut cigar = Cigar::new();
        let (mut run_op, mut run) = (CigarOp::Equal, 0u32);
        for j in self.words() {
            let m = self.word(j);
            let lanes = (self.len - 32 * j).min(32) as u32;
            let mut lane = 0;
            while lane < lanes {
                let rest = m >> (2 * lane);
                // Lanes up to the next change of state, from the zeros below
                // the lowest set bit of `rest` (matches) or of its inverse.
                let (op, next) = if rest & 1 == 0 {
                    (CigarOp::Equal, rest)
                } else {
                    (CigarOp::Diff, !rest & LANE_LSB)
                };
                let n = (next.trailing_zeros() / 2).min(lanes - lane);
                if op != run_op {
                    cigar.push(run_op, run);
                    (run_op, run) = (op, 0);
                }
                run += n;
                lane += n;
            }
        }
        cigar.push(run_op, run);
        cigar
    }
}

/// Aligns `read` inside `window` around `anchor` using Hamming masks.
///
/// `anchor` is the window index where the candidate mapping places `read[0]`
/// (the Paired-Adjacency filter's normalized read-start). The aligner
/// explores shifts `-e..=e` around the anchor and accepts:
///
/// * ungapped alignments with at most `config.max_mismatches` mismatches, or
/// * alignments with exactly one run of at most `config.max_indel_run`
///   insertions or deletions and no mismatches.
///
/// The best-scoring feasible alignment is returned; `None` means the read
/// needs DP (the 13.06% fallback arrow in the paper's Fig. 10).
///
/// The caller should extract `window` with `e` bases of margin on both sides
/// of the candidate placement; truncated windows are handled (out-of-window
/// comparisons count as mismatches).
///
/// Allocates a fresh [`LightScratch`] per call; hot paths use
/// [`light_align_with`] with a session-owned scratch instead.
pub fn light_align(
    read: &DnaSeq,
    window: &DnaSeq,
    anchor: usize,
    config: &LightConfig,
    scoring: &Scoring,
) -> Option<LightAlignment> {
    light_align_with(
        read,
        window,
        anchor,
        config,
        scoring,
        &mut LightScratch::new(),
    )
}

/// The incumbent pattern — its CIGAR not built yet — and the length of its
/// leading match run.
type Incumbent = Option<(LightAlignment, usize)>;

/// Whether `score` would replace the incumbent: strictly higher, or first.
#[inline]
fn beats(best: &Incumbent, score: i32) -> bool {
    best.as_ref().is_none_or(|(b, _)| score > b.score)
}

/// [`light_align`] reusing a caller-owned [`LightScratch`]: identical
/// results, no steady-state allocation (the arena variant the mapper's
/// [`MapScratch`](crate::MapScratch) threads through the pipeline).
pub fn light_align_with(
    read: &DnaSeq,
    window: &DnaSeq,
    anchor: usize,
    config: &LightConfig,
    scoring: &Scoring,
    scratch: &mut LightScratch,
) -> Option<LightAlignment> {
    let l = read.len();
    if l == 0 || window.is_empty() {
        return None;
    }
    let e = config.max_indel_run as i64;
    let lanes = |s: i64| Lanes::new(read, window, anchor as i64 + s);
    let pattern = |score, shift: i64, mismatches, ins_run: i64, del_run: i64| LightAlignment {
        score,
        cigar: Cigar::new(),
        shift: shift as i32,
        mismatches,
        ins_run: ins_run as u32,
        del_run: del_run as u32,
    };

    // 1. Ungapped (mismatch-only) alignments: the smallest (mismatches,
    //    shift) within the limit. Shift 0 first; each other shift is counted
    //    only up to what would still displace the incumbent — a tie does if
    //    the shift comes earlier in `-e..=e`.
    let mut ungapped: Option<(u32, i64)> = None;
    for s in std::iter::once(0).chain(-e..0).chain(1..=e) {
        let cap = match ungapped {
            None => config.max_mismatches,
            Some((h, held)) if s < held => h,
            // Every shift still to come is a later one too.
            Some((0, _)) => break,
            Some((h, _)) => h - 1,
        };
        if let Some(h) = lanes(s).hamming_within(cap) {
            ungapped = Some((h, s));
        }
    }
    let mut best: Incumbent =
        ungapped.map(|(h, s)| (pattern(scoring.ungapped(l, h as usize), s, h, 0, 0), 0));

    // 2. Single indel runs: prefix from shift s, suffix from shift s±k. A
    //    pattern's score is known before its masks are: nothing is counted
    //    for one that could not replace the incumbent.
    let del_score = |k: i64| scoring.perfect(l) - scoring.gap_cost(k as u32);
    let ins_score = |k: i64| scoring.perfect(l - k as usize) - scoring.gap_cost(k as u32);
    let ceiling = (1..=e)
        .flat_map(|k| [Some(del_score(k)), (k as usize <= l).then(|| ins_score(k))])
        .flatten()
        .max();
    if let Some(ceiling) = ceiling.filter(|&c| beats(&best, c)) {
        scratch.suffix.clear();
        scratch.suffix.resize((2 * e + 1) as usize, None);
        let mut suffix_at =
            |s: i64| *scratch.suffix[(s + e) as usize].get_or_insert_with(|| lanes(s).suffix());
        for s in -e..=e {
            if !beats(&best, ceiling) {
                break;
            }
            let prefix = lanes(s).prefix();
            if prefix == 0 && s != 0 {
                continue;
            }
            for k in 1..=e {
                // Deletion of k: suffix at shift s+k, needs prefix+suffix >= L.
                if s + k <= e && beats(&best, del_score(k)) && prefix + suffix_at(s + k) >= l {
                    best = Some((pattern(del_score(k), s, 0, 0, k), prefix));
                }
                // Insertion of k: suffix at shift s-k, needs prefix+suffix >= L-k.
                if s - k >= -e
                    && k as usize <= l
                    && beats(&best, ins_score(k))
                    && prefix + suffix_at(s - k) >= l - k as usize
                {
                    best = Some((
                        pattern(ins_score(k), s, 0, k, 0),
                        prefix.min(l - k as usize),
                    ));
                }
            }
        }
    }

    // Build the CIGAR of the single winning pattern (of an indel winner's
    // two runs one is empty, and an empty push does nothing).
    let (mut won, p) = best?;
    match (won.ins_run, won.del_run) {
        (0, 0) => won.cigar = lanes(won.shift as i64).cigar(),
        (ins, del) => {
            won.cigar.push(CigarOp::Equal, p as u32);
            won.cigar.push(CigarOp::Ins, ins);
            won.cigar.push(CigarOp::Del, del);
            won.cigar.push(CigarOp::Equal, (l - p) as u32 - ins);
        }
    }
    Some(won)
}

/// Number of clock cycles the Light Alignment hardware module needs for one
/// alignment of `read_len` bases (paper §5.4/Table 3: masks are computed in
/// one cycle, then traversed from both ends over the read length, plus a
/// small comparison epilogue — 156 cycles for 150 bp reads).
pub fn light_align_cycles(read_len: usize) -> u64 {
    read_len as u64 + 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_align::{align, AlignMode};
    use gx_genome::Base;

    fn window() -> DnaSeq {
        // Deterministic pseudo-random window, 220 bases.
        (0..220u64)
            .map(|i| Base::from_code((((i * 2654435761u64) >> 7) % 4) as u8))
            .collect()
    }

    fn cfg() -> LightConfig {
        LightConfig::default()
    }

    const E: usize = 5;

    /// Per-base reference for one shifted comparison: whether read base `i`
    /// mismatches window base `start + i` (a missing window base does).
    fn mismatch_reference(read: &DnaSeq, window: &DnaSeq, start: i64) -> Vec<bool> {
        let wcodes = window.to_codes();
        let codes = read.to_codes();
        let at = |i: usize| usize::try_from(start + i as i64).ok();
        (0..codes.len())
            .map(|i| at(i).and_then(|w| wcodes.get(w)) != Some(&codes[i]))
            .collect()
    }

    fn arb_seq(len: usize, mut state: u64) -> DnaSeq {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Base::from_code((state & 3) as u8)
            })
            .collect()
    }

    #[test]
    fn packed_mask_matches_per_base_reference() {
        for (rlen, wlen, seed) in [
            (150usize, 220usize, 1u64),
            (64, 64, 2),
            (63, 70, 3),
            (65, 40, 4),
            (1, 1, 5),
            (200, 130, 6),
        ] {
            let read = arb_seq(rlen, seed);
            let win = arb_seq(wlen, seed.wrapping_mul(977));
            for start in [-10i64, -1, 0, 1, 5, 31, 32, 33, 63, 64, 100, 300] {
                let lanes = Lanes::new(&read, &win, start);
                let expect = mismatch_reference(&read, &win, start);
                let ctx = format!("rlen={rlen} wlen={wlen} start={start}");
                let got: Vec<bool> = (0..rlen)
                    .map(|i| lanes.word(i / 32) >> (2 * (i % 32)) & 1 == 1)
                    .collect();
                assert_eq!(got, expect, "{ctx}");
                for j in lanes.words() {
                    let in_read = lanes_below(rlen as i64 - 32 * j as i64);
                    assert_eq!(lanes.word(j) & !in_read, 0, "{ctx}: stray bits in word {j}");
                }
                let hamming = expect.iter().filter(|&&m| m).count() as u32;
                assert_eq!(lanes.hamming_within(hamming), Some(hamming), "{ctx}");
                assert_eq!(lanes.hamming_within(u32::MAX), Some(hamming), "{ctx}");
                if hamming > 0 {
                    assert_eq!(lanes.hamming_within(hamming - 1), None, "{ctx}");
                }
                let prefix = expect.iter().take_while(|&&m| !m).count();
                let suffix = expect.iter().rev().take_while(|&&m| !m).count();
                assert_eq!((lanes.prefix(), lanes.suffix()), (prefix, suffix), "{ctx}");
                let per_base = Cigar::from_runs(expect.iter().map(|&m| {
                    let op = if m { CigarOp::Diff } else { CigarOp::Equal };
                    (1, op)
                }));
                assert_eq!(lanes.cigar(), per_base, "{ctx}");
            }
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        let w = window();
        let scoring = Scoring::short_read();
        let mut scratch = LightScratch::new();
        for (start, mutate) in [(0usize, false), (3, true), (7, false), (1, true)] {
            let mut read = w.subseq(E + start..E + start + 150);
            if mutate {
                read.set(40, read.get(40).complement());
            }
            let fresh = light_align(&read, &w, E, &cfg(), &scoring);
            let reused = light_align_with(&read, &w, E, &cfg(), &scoring, &mut scratch);
            match (fresh, reused) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.score, b.score);
                    assert_eq!(a.shift, b.shift);
                    assert_eq!(a.cigar, b.cigar);
                    assert_eq!(a.mismatches, b.mismatches);
                }
                (None, None) => {}
                other => panic!("fresh/reused disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn perfect_read_scores_perfect() {
        let w = window();
        let read = w.subseq(E..E + 150);
        let a = light_align(&read, &w, E, &cfg(), &Scoring::short_read()).unwrap();
        assert_eq!(a.score, 300);
        assert_eq!(a.cigar.to_string(), "150=");
        assert_eq!(a.shift, 0);
    }

    #[test]
    fn mismatches_detected() {
        let w = window();
        let mut read = w.subseq(E..E + 150);
        read.set(30, read.get(30).complement());
        read.set(90, read.get(90).complement());
        let a = light_align(&read, &w, E, &cfg(), &Scoring::short_read()).unwrap();
        assert_eq!(a.score, 280);
        assert_eq!(a.mismatches, 2);
        assert_eq!(a.cigar.query_len(), 150);
    }

    #[test]
    fn deletion_run_detected() {
        let w = window();
        // Read skips 3 window bases at read position 60.
        let mut read = w.subseq(E..E + 60);
        read.extend_from_seq(&w.subseq(E + 63..E + 63 + 90));
        let a = light_align(&read, &w, E, &cfg(), &Scoring::short_read()).unwrap();
        assert_eq!(a.del_run, 3);
        assert_eq!(a.score, 300 - 18);
        assert_eq!(a.cigar.to_string(), "60=3D90=");
    }

    #[test]
    fn insertion_run_detected() {
        let w = window();
        let mut read = w.subseq(E..E + 70);
        // Insert 2 bases that differ from the next window base.
        let next = w.get(E + 70);
        read.push(next.complement());
        read.push(next.complement());
        read.extend_from_seq(&w.subseq(E + 70..E + 70 + 78));
        assert_eq!(read.len(), 150);
        let a = light_align(&read, &w, E, &cfg(), &Scoring::short_read()).unwrap();
        assert_eq!(a.ins_run, 2);
        assert_eq!(a.score, 2 * 148 - 16);
        assert_eq!(a.cigar.query_len(), 150);
    }

    #[test]
    fn anchor_offset_is_recovered() {
        // Candidate position off by +2 (e.g. normalization error): read
        // actually starts 2 bases later in the window.
        let w = window();
        let read = w.subseq(E + 2..E + 2 + 150);
        let a = light_align(&read, &w, E, &cfg(), &Scoring::short_read()).unwrap();
        assert_eq!(a.score, 300);
        assert_eq!(a.shift, 2);
    }

    #[test]
    fn too_many_mismatches_rejected() {
        let w = window();
        let mut read = w.subseq(E..E + 150);
        for i in 0..12 {
            let p = 5 + i * 12;
            read.set(p, read.get(p).complement());
        }
        assert!(light_align(&read, &w, E, &cfg(), &Scoring::short_read()).is_none());
    }

    #[test]
    fn mixed_edits_rejected() {
        let w = window();
        // A deletion AND a mismatch: not a single edit type.
        let mut read = w.subseq(E..E + 60);
        read.extend_from_seq(&w.subseq(E + 63..E + 63 + 90));
        read.set(10, read.get(10).complement());
        assert!(light_align(&read, &w, E, &cfg(), &Scoring::short_read()).is_none());
    }

    #[test]
    fn matches_dp_score_on_single_edit_types() {
        let w = window();
        let scoring = Scoring::short_read();
        // Deletions 1..=5
        for k in 1..=5usize {
            let mut read = w.subseq(E..E + 60);
            read.extend_from_seq(&w.subseq(E + 60 + k..E + 60 + k + 90));
            let light = light_align(&read, &w, E, &cfg(), &scoring).unwrap();
            let dp = align(&read, &w, &scoring, AlignMode::Fit);
            assert_eq!(light.score, dp.score, "deletion run {k}");
        }
        // Insertions 1..=5
        for k in 1..=5usize {
            let mut read = w.subseq(E..E + 60);
            let next = w.get(E + 60);
            for _ in 0..k {
                read.push(next.complement());
            }
            read.extend_from_seq(&w.subseq(E + 60..E + 60 + (90 - k)));
            let light = light_align(&read, &w, E, &cfg(), &scoring).unwrap();
            let dp = align(&read, &w, &scoring, AlignMode::Fit);
            assert_eq!(light.score, dp.score, "insertion run {k}");
            assert_eq!(light.score, 2 * (150 - k as i32) - (12 + 2 * k as i32));
            assert_eq!(light.cigar.to_string(), format!("60={k}I{}=", 90 - k));
            assert_eq!((light.shift, light.ins_run), (0, k as u32));
        }
    }

    #[test]
    fn cycles_model() {
        assert_eq!(light_align_cycles(150), 156);
    }
}
