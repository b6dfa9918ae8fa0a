//! Test-only oracle: the eager light aligner `gx-core` shipped before the
//! lazy rewrite, moved here verbatim with its `Mask` machinery — all
//! `2e + 1` Hamming masks computed and stored for every attempt, one match
//! bit per base, every pattern scored in `(ungapped s; s, k, Del, Ins)`
//! order under a strict `>`. `tests/light_diff.rs` holds the library aligner
//! to it on all six [`LightAlignment`] fields and on `None`-ness.
//!
//! One edit: the insertion arm tests `l >= k` before it subtracts. The
//! shipped code subtracted first, which on a read shorter than the run
//! overflowed — a panic in debug builds, in release a wrapped bound no
//! `prefix + suffix` reaches, i.e. the same refusal.

use gx_align::Scoring;
use gx_core::light::{LightAlignment, LightConfig};
use gx_genome::{Cigar, CigarOp, DnaSeq};

/// Reusable buffers for [`light_align_with`]: the `2e+1` Hamming masks,
/// each keeping its word vector across calls. After the first few calls at a
/// given read length the aligner performs no heap allocation.
#[derive(Default)]
pub struct LightScratch {
    masks: Vec<Mask>,
}

impl LightScratch {
    /// An empty scratch; buffers grow to their steady-state size on first
    /// use.
    pub fn new() -> LightScratch {
        LightScratch::default()
    }
}

/// One Hamming mask: match bits of the read against a shifted window copy.
#[derive(Default)]
struct Mask {
    words: Vec<u64>,
    len: usize,
    prefix_ones: usize,
    suffix_ones: usize,
    hamming: u32,
}

/// The packed word containing lane `idx`, or an all-zero word out of range
/// (callers mask away the resulting junk lanes via the validity range).
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

/// Gathers the even-position bits of `w` into the low 32 bits (the inverse
/// of Morton interleaving one axis).
#[inline]
fn even_bits(mut w: u64) -> u32 {
    w &= 0x5555_5555_5555_5555;
    w = (w | (w >> 1)) & 0x3333_3333_3333_3333;
    w = (w | (w >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    w = (w | (w >> 4)) & 0x00ff_00ff_00ff_00ff;
    w = (w | (w >> 8)) & 0x0000_ffff_0000_ffff;
    w = (w | (w >> 16)) & 0x0000_0000_ffff_ffff;
    w as u32
}

/// Compares 32 packed 2-bit lanes of read vs window at once: bit `i` of the
/// result is set iff lane `i` holds the same code in both words.
#[inline]
fn lane_match(r: u64, w: u64) -> u32 {
    let x = r ^ w;
    let mism = (x | (x >> 1)) & 0x5555_5555_5555_5555;
    even_bits(!mism & 0x5555_5555_5555_5555)
}

/// Zeroes every bit outside `[lo, hi)` across the mask words.
fn keep_range(words: &mut [u64], lo: usize, hi: usize) {
    for (wi, w) in words.iter_mut().enumerate() {
        let wlo = wi * 64;
        let whi = wlo + 64;
        if hi <= wlo || lo >= whi {
            *w = 0;
            continue;
        }
        let mut m = u64::MAX;
        if lo > wlo {
            m &= u64::MAX << (lo - wlo);
        }
        if hi < whi {
            m &= (1u64 << (hi - wlo)) - 1;
        }
        *w &= m;
    }
}

impl Mask {
    /// Recomputes this mask in place, word-parallel over the packed
    /// sequences: read base `i` is compared against window base `start + i`
    /// (out-of-window comparisons count as mismatches). Reuses the word
    /// vector across calls.
    fn compute_packed(
        &mut self,
        read_words: &[u64],
        len: usize,
        window_words: &[u64],
        window_len: usize,
        start: i64,
    ) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
        // Read positions whose window index lands inside [0, window_len).
        let hi = (window_len as i64 - start).clamp(0, len as i64) as usize;
        let lo = ((-start).max(0) as usize).min(hi);
        if lo < hi {
            for (mi, mw) in self.words.iter_mut().enumerate() {
                let base0 = (mi as i64) * 64;
                let w_lo = extract_lanes(window_words, start + base0);
                let w_hi = extract_lanes(window_words, start + base0 + 32);
                let r_lo = word_at(read_words, mi as i64 * 2);
                let r_hi = word_at(read_words, mi as i64 * 2 + 1);
                *mw = (lane_match(r_lo, w_lo) as u64) | ((lane_match(r_hi, w_hi) as u64) << 32);
            }
            keep_range(&mut self.words, lo, hi);
        }
        self.prefix_ones = self.count_prefix();
        self.suffix_ones = self.count_suffix();
        self.hamming = len as u32 - self.words.iter().map(|w| w.count_ones()).sum::<u32>();
    }

    fn count_prefix(&self) -> usize {
        let mut total = 0usize;
        for (wi, &w) in self.words.iter().enumerate() {
            let bits_here = (self.len - wi * 64).min(64);
            let ones = w.trailing_ones() as usize;
            total += ones.min(bits_here);
            if ones < bits_here {
                break;
            }
        }
        total.min(self.len)
    }

    fn count_suffix(&self) -> usize {
        let mut total = 0usize;
        for wi in (0..self.words.len()).rev() {
            let bits_here = (self.len - wi * 64).min(64);
            // Shift the word so its top valid bit is at bit 63.
            let w = self.words[wi] << (64 - bits_here);
            let ones = w.leading_ones() as usize;
            total += ones.min(bits_here);
            if ones < bits_here {
                break;
            }
        }
        total.min(self.len)
    }

    fn bit(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// The best feasible single-edit-type pattern found so far; the CIGAR is
/// only materialized for the final winner.
#[derive(Clone, Copy)]
enum Pattern {
    Ungapped { shift: i64 },
    Del { shift: i64, k: i64, p: usize },
    Ins { shift: i64, k: i64, p: usize },
}

/// The eager `gx_core::light::light_align_with`: same arguments, its own
/// (mask-holding) [`LightScratch`].
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

    // Masks for shifts -e..=e; masks[k] = shift (k - e).
    let n_masks = (2 * e + 1) as usize;
    if scratch.masks.len() != n_masks {
        scratch.masks.resize_with(n_masks, Mask::default);
    }
    for (i, m) in scratch.masks.iter_mut().enumerate() {
        let s = i as i64 - e;
        m.compute_packed(
            read.words(),
            l,
            window.words(),
            window.len(),
            anchor as i64 + s,
        );
    }
    let masks = &scratch.masks;
    let mask_at = |s: i64| -> &Mask { &masks[(s + e) as usize] };

    let mut best: Option<(i32, Pattern)> = None;
    let mut consider = |score: i32, pattern: Pattern| {
        if best.as_ref().is_none_or(|(bs, _)| score > *bs) {
            best = Some((score, pattern));
        }
    };

    // 1. Ungapped (mismatch-only) alignments at every shift.
    for s in -e..=e {
        let m = mask_at(s);
        if m.hamming <= config.max_mismatches {
            let score = scoring.ungapped(l, m.hamming as usize);
            consider(score, Pattern::Ungapped { shift: s });
        }
    }

    // 2. Single indel runs: prefix from shift s, suffix from shift s±k.
    for s in -e..=e {
        let prefix = mask_at(s).prefix_ones;
        if prefix == 0 && s != 0 {
            continue;
        }
        for k in 1..=config.max_indel_run as i64 {
            // Deletion of k: suffix mask at shift s+k, needs prefix+suffix >= L.
            if s + k <= e {
                let suffix = mask_at(s + k).suffix_ones;
                if prefix + suffix >= l {
                    let p = prefix.min(l);
                    // p bases, k deleted, l-p bases; ensure suffix covers.
                    let p = p.min(l).max(l - suffix);
                    let score = scoring.perfect(l) - scoring.gap_cost(k as u32);
                    consider(score, Pattern::Del { shift: s, k, p });
                }
            }
            // Insertion of k: suffix mask at shift s-k, needs prefix+suffix >= L-k.
            if s - k >= -e {
                let suffix = mask_at(s - k).suffix_ones;
                if l >= k as usize && prefix + suffix >= l - k as usize {
                    let p = prefix
                        .min(l - k as usize)
                        .max(l - k as usize - suffix.min(l - k as usize));
                    let score = scoring.perfect(l - k as usize) - scoring.gap_cost(k as u32);
                    consider(score, Pattern::Ins { shift: s, k, p });
                }
            }
        }
    }

    // Materialize the CIGAR for the single winning pattern (its masks are
    // still alive in the scratch).
    let (score, pattern) = best?;
    Some(match pattern {
        Pattern::Ungapped { shift } => {
            let m = mask_at(shift);
            LightAlignment {
                score,
                cigar: mask_to_cigar(m),
                shift: shift as i32,
                mismatches: m.hamming,
                ins_run: 0,
                del_run: 0,
            }
        }
        Pattern::Del { shift, k, p } => {
            let mut cigar = Cigar::new();
            cigar.push(CigarOp::Equal, p as u32);
            cigar.push(CigarOp::Del, k as u32);
            cigar.push(CigarOp::Equal, (l - p) as u32);
            LightAlignment {
                score,
                cigar,
                shift: shift as i32,
                mismatches: 0,
                ins_run: 0,
                del_run: k as u32,
            }
        }
        Pattern::Ins { shift, k, p } => {
            let mut cigar = Cigar::new();
            cigar.push(CigarOp::Equal, p as u32);
            cigar.push(CigarOp::Ins, k as u32);
            cigar.push(CigarOp::Equal, (l - p - k as usize) as u32);
            LightAlignment {
                score,
                cigar,
                shift: shift as i32,
                mismatches: 0,
                ins_run: k as u32,
                del_run: 0,
            }
        }
    })
}

/// Builds an `=`/`X` CIGAR from a mask's match bits.
fn mask_to_cigar(mask: &Mask) -> Cigar {
    let mut cigar = Cigar::new();
    for i in 0..mask.len {
        cigar.push(
            if mask.bit(i) {
                CigarOp::Equal
            } else {
                CigarOp::Diff
            },
            1,
        );
    }
    cigar
}
