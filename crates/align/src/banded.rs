//! Banded affine-gap fit alignment: the DP fallback, the long-read path and,
//! at a band covering the whole matrix, `align`.
//!
//! # What GenDP computes, and what this module computes
//!
//! The paper hands the pairs light alignment refuses to GenDP, a DP
//! accelerator that fills the corridor with its own array of cell units; in
//! the model that cost is a cell count — [`banded_cells`], which is
//! [`Alignment::cells`] and what `gx-accel` prices — and depends on nothing
//! below. In software the same corridor is filled one row at a time by one
//! core, so this module is written for the width of that core's vector
//! registers, in safe Rust the compiler vectorises at the default target.
//! Nothing here can move a score, a CIGAR or `cells`: the row-wise kernel
//! this one replaced is the oracle of `tests/banded_diff.rs`.
//!
//! This is the *row kernel*. The DP fallback runs its jobs on the lane
//! kernel (`lanes.rs`), which fills 8 or 16 same-shape alignments at once
//! because this one's 33-diagonal rows are too short for in-row SIMD to
//! pay; the row kernel runs `align`, long reads and the fallback shapes
//! whose scores do not fit 16-bit cells. Both end in one traceback,
//! [`traced`].
//!
//! # Rows in band coordinates, three passes a row
//!
//! A cell `(i, j)` lives at `off = j - i - lo_shift` of its row, so in the
//! previous row "up" is `off + 1` and "diagonal" is `off`. `fill_row` makes
//! three passes over equally long slices: (1) from the previous row only,
//! `F`, its extend flag, the diagonal candidate — one add of the *target
//! profile*, four rows of substitution scores over the window built once a
//! call, so no base is compared inside the loop — and `c = max(diag, F) -
//! open`; (2) `E[k] = max(E[k-1] - ext, c[k-1])`, the only pass in which a
//! cell depends on its neighbour; (3) `H`, its `diag > E > F` choice, the
//! `E` extend flag and the traceback byte.
//!
//! # Pass 2 as a scan
//!
//! Put `E` on a ramp: `P[k] = E[k] + (k + 1) * ext`. The recurrence becomes
//! `P[k] = max(P[k-1], c[k-1] + (k + 1) * ext)` — a running maximum, seeded
//! with the `E` left of the row. `gap_scan` ramps `c`, takes the running
//! maximum (log-step maxima inside eight-cell chunks, one carried maximum
//! from chunk to chunk) and takes the ramp off again. These are the integers
//! the recurrence produces, not an approximation of them, so every `E_EXT`
//! flag and every tie falls where it fell.
//!
//! # Sixteen-bit cells, and when not
//!
//! The kernel is generic over its cell type and instantiated at `i16` and
//! `i32`; a call takes `i16` — eight cells a 128-bit register, with a native
//! signed maximum — when `fits` proves every value it will compute is in
//! range, and `i32` otherwise (kilobase reads, penalties in the thousands).
//! "Minus infinity" is half the type's minimum, `NEG_INF = -LIMIT`. With
//! non-negative gap penalties, `open = gap_open + gap_ext` and `reach = |m -
//! n| + band` the widest shift in the band:
//!
//! * *Nothing reachable falls to `NEG_INF`.* Every in-band `H[i][j]` is at
//!   least the score of walking its own diagonal from the boundary: a
//!   boundary value `>= -(gap_open + reach * gap_ext)` and at most `n`
//!   substitutions. A reachable `E`, `F` or `c` is one `open` below some
//!   `H`. So `deepest = gap_open + reach * gap_ext + n * worst_substitution +
//!   open` bounds them all, and `deepest < LIMIT` keeps them strictly above
//!   every value derived from `NEG_INF` (which only ever has penalties
//!   subtracted from it): comparisons between the two classes come out as
//!   they do with any other sentinel, and comparisons inside a class do not
//!   depend on the sentinel at all.
//! * *Nothing wraps.* A value derived from `NEG_INF` has had at most `2 *
//!   open <= deepest < LIMIT` subtracted, so stays above the type's minimum.
//!   Scores rise by at most the best substitution a row, and the ramp adds at
//!   most `width * gap_ext`: `highest = n * best_substitution + width *
//!   gap_ext` must stay below `2 * LIMIT`, one past the type's maximum.
//!
//! The 150-base fallback (166-base window, band 8, short-read scoring: reach
//! 24, width 33) has `deepest = 1274` and `highest = 366` against `LIMIT =
//! 16384`.

use crate::dp::{AlignMode, AlignScratch, Alignment, CigarScratch, RowScratch, ScoreRows};
use crate::Scoring;
use gx_genome::{CigarOp, DnaSeq};
use std::ops::{Add, Sub};

// Traceback encoding, one byte per cell:
//   bits 0-1: H-matrix choice: 0 = diagonal, 1 = E (deletion), 2 = F
//             (insertion), 3 = stop (row 0, or outside the band)
//   bit 2:    E extended from E (set) vs opened from H (clear)
//   bit 3:    F extended from F (set) vs opened from H (clear)
pub(crate) const H_DIAG: u8 = 0;
pub(crate) const H_E: u8 = 1;
pub(crate) const H_F: u8 = 2;
pub(crate) const H_STOP: u8 = 3;
pub(crate) const E_EXT: u8 = 1 << 2;
pub(crate) const F_EXT: u8 = 1 << 3;

/// The corridor of a banded alignment of an `n`-base query against an
/// `m`-base target: row `i` holds the columns `j` whose shift `j - i` lies in
/// `lo_shift..=hi_shift`, clamped to `0..=m`. A cell's *band coordinate* is
/// `off = j - i - lo_shift`, so the cell above `(i, j)` sits at `off + 1` of
/// the previous row, the diagonal one at `off` and the left one at `off - 1`.
#[derive(Clone, Copy)]
pub(crate) struct Corridor {
    m: usize,
    lo_shift: i64,
    hi_shift: i64,
    /// Number of diagonals, `hi_shift - lo_shift + 1`.
    pub(crate) width: usize,
    /// The largest `|j - i|` of an in-band cell, `|m - n| + band`.
    reach: usize,
}

impl Corridor {
    pub(crate) fn new(n: usize, m: usize, band: usize) -> Corridor {
        let skew = m as i64 - n as i64;
        let lo_shift = skew.min(0) - band as i64;
        let hi_shift = skew.max(0) + band as i64;
        Corridor {
            m,
            lo_shift,
            hi_shift,
            width: (hi_shift - lo_shift + 1) as usize,
            reach: hi_shift.max(-lo_shift) as usize,
        }
    }

    /// First in-band column of row `i`.
    pub(crate) fn jmin(&self, i: usize) -> usize {
        (i as i64 + self.lo_shift).max(0) as usize
    }

    /// Last in-band column of row `i`.
    pub(crate) fn jmax(&self, i: usize) -> usize {
        ((i as i64 + self.hi_shift) as usize).min(self.m)
    }

    /// Band coordinate of in-band cell `(i, j)`.
    pub(crate) fn off(&self, i: usize, j: usize) -> usize {
        let off = j as i64 - i as i64 - self.lo_shift;
        debug_assert!((0..self.width as i64).contains(&off), "cell outside band");
        off as usize
    }
}

/// Number of DP cells [`banded_align_with`] computes for an `n`-base query, an
/// `m`-base target and half-width `band` — the corridor area, boundary row
/// and column excluded. Equals [`Alignment::cells`] of that call; the GenDP
/// fallback model prices exactly this count.
pub fn banded_cells(n: usize, m: usize, band: usize) -> u64 {
    let c = Corridor::new(n, m, band);
    let (n, m) = (n as i64, m as i64);
    // Row i spans columns max(i + lo_shift, 1) ..= min(i + hi_shift, m).
    // The upper end is unclamped for the first `p` rows, the lower end is
    // clamped (to column 1) for the first `r` rows.
    let p = (m - c.hi_shift).clamp(0, n);
    let r = (-c.lo_shift).clamp(0, n);
    let upper = p * (p + 1) / 2 + p * c.hi_shift + (n - p) * m;
    let lower = r + (n * (n + 1) - r * (r + 1)) / 2 + (n - r) * c.lo_shift;
    (upper - lower + n) as u64
}

/// A DP cell: `i16` for calls whose scores provably fit, `i32` otherwise.
pub(crate) trait Cell: Copy + Ord + Add<Output = Self> + Sub<Output = Self> {
    /// "Minus infinity": the value of everything outside the band. Half of
    /// the type's minimum, so a few penalties can be subtracted from it
    /// without wrapping.
    const NEG_INF: Self;
    /// `-NEG_INF`; the type's maximum is `2 * LIMIT - 1`.
    const LIMIT: i64;
    fn from_i32(v: i32) -> Self;
    fn to_i32(self) -> i32;
}

macro_rules! cell {
    ($t:ty) => {
        impl Cell for $t {
            const NEG_INF: $t = <$t>::MIN / 2;
            const LIMIT: i64 = -(<$t>::MIN as i64 / 2);
            fn from_i32(v: i32) -> $t {
                debug_assert!(<$t>::try_from(v).is_ok(), "{v} outside the cell type");
                v as $t
            }
            fn to_i32(self) -> i32 {
                self as i32
            }
        }
    };
}
cell!(i16);
cell!(i32);

/// Whether every value the kernel computes for an `n`-base query in
/// `corridor` under `scoring` fits a cell of type `C` — the bound of the
/// module docs: nothing reachable falls to `NEG_INF`, nothing ramped rises
/// past the type's maximum.
pub(crate) fn fits<C: Cell>(n: usize, corridor: &Corridor, scoring: &Scoring) -> bool {
    let [matched, mismatch, gap_open, ext] = [
        scoring.match_score,
        scoring.mismatch,
        scoring.gap_open,
        scoring.gap_ext,
    ]
    .map(i64::from);
    if gap_open < 0 || ext < 0 {
        return false;
    }
    let (n, open) = (n as i64, gap_open + ext);
    let deepest = gap_open + ext * corridor.reach as i64 + n * mismatch.max(-matched).max(0) + open;
    let highest = n * matched.max(-mismatch).max(0) + ext * corridor.width as i64;
    deepest < C::LIMIT && highest < 2 * C::LIMIT
}

/// Gap costs of one alignment call, as subtracted from a cell.
#[derive(Clone, Copy)]
struct Costs<C> {
    /// Cost of the first base of a gap (`gap_open + gap_ext`).
    open: C,
    /// Cost of each further gap base.
    ext: C,
}

/// Cells per step of the pass-2 scan: one 128-bit register of 16-bit cells.
const CHUNK: usize = 8;

/// `ramp[k] = (k + 1) * ext` for the `width` cells of the widest row.
fn ramp_into<C: Cell>(ext: i32, width: usize, ramp: &mut Vec<C>) {
    ramp.clear();
    ramp.extend((1..=width as i32).map(|k| C::from_i32(k * ext)));
}

/// Pass 2 of [`fill_row`]: `e[k] = max(e[k - 1] - ext, c[k])` with
/// `e[-1] = seed`, as a scan. The ramped `p[k] = e[k] + ramp[k]` obeys
/// `p[k] = max(p[k - 1], c[k] + ramp[k])` with `p[-1] = seed`, so `p` is the
/// running maximum of `c + ramp` seeded with `seed`, and `e` is `p` with the
/// ramp taken off again.
fn gap_scan<C: Cell>(seed: C, c: &[C], ramp: &[C], e: &mut [C]) {
    let len = e.len();
    let (c, ramp) = (&c[..len], &ramp[..len]);
    for k in 0..len {
        e[k] = c[k] + ramp[k];
    }
    running_max(seed, e);
    for k in 0..len {
        e[k] = e[k] - ramp[k];
    }
}

/// Replaces `p` with its running maximum seeded with `seed`: `p[k] =
/// max(seed, p[0], ..., p[k])`. Log-step maxima inside each chunk, one
/// carried maximum between chunks.
fn running_max<C: Cell>(seed: C, p: &mut [C]) {
    let mut carry = seed;
    let mut chunks = p.chunks_exact_mut(CHUNK);
    for chunk in &mut chunks {
        for step in [1, 2, 4] {
            for i in (step..CHUNK).rev() {
                chunk[i] = chunk[i].max(chunk[i - step]);
            }
        }
        for cell in chunk.iter_mut() {
            *cell = (*cell).max(carry);
        }
        carry = chunk[CHUNK - 1];
    }
    for cell in chunks.into_remainder() {
        carry = carry.max(*cell);
        *cell = carry;
    }
}

/// Fills one DP row of `len = h_cur.len()` consecutive cells in three
/// straight passes over equally long slices.
///
/// `h_prev` holds the previous row's `H` for the cells diagonally above
/// (`h_prev[k]`) and directly above (`h_prev[k + 1]`) cell `k`; `f_prev_up`
/// its `F` directly above. Between passes 1 and 3 `h_cur` holds the diagonal
/// candidate. `e_row` and `c_row` are `len + 1` long and enter
/// with slot 0 describing the cell left of the first one: its `E` and its
/// `H - open`. `subs` is the target-profile row of the query base — the
/// substitution scores under the cells — and `ramp[k] = (k + 1) * ext`.
#[allow(clippy::too_many_arguments)] // one noalias slice per DP array keeps the passes vectorisable
fn fill_row<C: Cell>(
    subs: &[C],
    ramp: &[C],
    costs: Costs<C>,
    h_prev: &[C],
    f_prev_up: &[C],
    h_cur: &mut [C],
    f_cur: &mut [C],
    e_row: &mut [C],
    c_row: &mut [C],
    tb: &mut [u8],
) {
    let len = h_cur.len();
    let Costs { open, ext } = costs;
    let (h_diag, h_up) = (&h_prev[..len], &h_prev[1..=len]);
    let (subs, f_prev_up) = (&subs[..len], &f_prev_up[..len]);
    let (f_cur, tb) = (&mut f_cur[..len], &mut tb[..len]);

    // Pass 1 (previous row only, no dependency between cells): F with its
    // extend flag, the diagonal candidate, and `c` — what opening a deletion
    // from this cell would give its right neighbour if `H` came from the
    // diagonal or F.
    let c_out = &mut c_row[1..=len];
    for k in 0..len {
        let f_open = h_up[k] - open;
        let f_extend = f_prev_up[k] - ext;
        let extended = f_extend > f_open;
        let f = if extended { f_extend } else { f_open };
        let diag = h_diag[k] + subs[k];
        f_cur[k] = f;
        h_cur[k] = diag;
        c_out[k] = diag.max(f) - open;
        tb[k] = if extended { F_EXT } else { 0 };
    }

    // Pass 2, the only one with a dependency between cells: E[k] =
    // max(E[k-1] - ext, c[k-1]). The full recurrence opens from H[k-1] =
    // max(diag, E, F)[k-1]; the E term of that maximum gives E[k-1] - open
    // <= E[k-1] - ext (gap_open >= 0), which extending already covers, so
    // it is dropped and what is left is a running maximum.
    let (e_left, e_here) = e_row[..=len].split_at_mut(1);
    gap_scan(e_left[0], c_row, ramp, e_here);

    // Pass 3 (no dependency between cells): the E extend flag, H and its
    // choice. E counts as extended only if extending strictly beats opening
    // from the left cell's H, whose `- open` is max(c, E - open) — never for
    // gap_open == 0, where the two gap moves cost the same.
    let (e_left, e_here) = (&e_row[..len], &e_row[1..=len]);
    let c_left = &c_row[..len];
    for k in 0..len {
        let extended = e_left[k] - ext > c_left[k].max(e_left[k] - open);
        let (mut h, mut choice) = (h_cur[k], H_DIAG);
        if e_here[k] > h {
            h = e_here[k];
            choice = H_E;
        }
        if f_cur[k] > h {
            h = f_cur[k];
            choice = H_F;
        }
        h_cur[k] = h;
        tb[k] |= choice | if extended { E_EXT } else { 0 };
    }
}

/// Fills the corridor's score rows and `tb` (`(n + 1) * width` stop codes on
/// entry) in cells of type `C`; returns the score and the end column.
fn fill<C: Cell>(
    qcodes: &[u8],
    tcodes: &[u8],
    scoring: &Scoring,
    corridor: &Corridor,
    rows: &mut ScoreRows<C>,
    tb: &mut [u8],
) -> (i32, usize) {
    let (n, m, width) = (qcodes.len(), tcodes.len(), corridor.width);
    debug_assert!(fits::<C>(n, corridor, scoring), "scores overflow the cell");
    let costs = Costs {
        open: C::from_i32(scoring.gap_open + scoring.gap_ext),
        ext: C::from_i32(scoring.gap_ext),
    };
    let ScoreRows {
        h_prev,
        h_cur,
        f_prev,
        f_cur,
        e_row,
        c_row,
        profile,
        ramp,
    } = rows;
    // H and F rows live in band coordinates with one NEG_INF sentinel past
    // the last diagonal: the "up" neighbour of the widest cell. Rows only
    // ever shrink at the right and grow by the boundary column at the left,
    // so no cell reads a slot its previous row did not write.
    // `e_row` and `c_row` are per-row temporaries of the same size.
    for row in [
        &mut *h_prev,
        &mut *h_cur,
        &mut *f_prev,
        &mut *f_cur,
        &mut *e_row,
        &mut *c_row,
    ] {
        row.clear();
        row.resize(width + 1, C::NEG_INF);
    }
    profile.clear();
    for q in 0..4 {
        let sub = |&t| C::from_i32(scoring.substitution(q, t));
        profile.extend(tcodes.iter().map(sub));
    }
    ramp_into(scoring.gap_ext, width, ramp);

    // Row 0: the target's free start overhang, all stop codes already.
    for j in 0..=corridor.jmax(0) {
        h_prev[corridor.off(0, j)] = C::from_i32(0);
    }

    for i in 1..=n {
        let (lo, hi) = (corridor.jmin(i), corridor.jmax(i));
        let start = lo.max(1);
        let first = corridor.off(i, start);
        let len = hi - start + 1;
        // The cell left of the first computed one: the boundary column
        // (whose F no cell reads: nothing is computed below it), or nothing
        // at all, just outside the band.
        e_row[0] = C::NEG_INF;
        c_row[0] = C::NEG_INF - costs.open;
        if lo == 0 {
            let h = C::from_i32(-scoring.gap_cost(i as u32));
            h_cur[first - 1] = h;
            tb[i * width + first - 1] = H_F | F_EXT;
            c_row[0] = h - costs.open;
        }
        let subs = &profile[qcodes[i - 1] as usize * m..][..m];
        fill_row(
            &subs[start - 1..hi],
            ramp,
            costs,
            &h_prev[first..=first + len],
            &f_prev[first + 1..=first + len],
            &mut h_cur[first..first + len],
            &mut f_cur[first..first + len],
            e_row,
            c_row,
            &mut tb[i * width + first..i * width + first + len],
        );
        std::mem::swap(h_prev, h_cur);
        std::mem::swap(f_prev, f_cur);
    }

    // The end column: the leftmost best of the last row.
    let (mut end_j, mut score) = (corridor.jmin(n), C::NEG_INF);
    for j in corridor.jmin(n)..=corridor.jmax(n) {
        let h = h_prev[corridor.off(n, j)];
        if h > score {
            (end_j, score) = (j, h);
        }
    }
    (score.to_i32(), end_j)
}

/// Banded affine-gap fit alignment: the query end to end, the target with
/// free start and end overhangs.
///
/// Only cells within `band` diagonals of the corridor spanned by the two
/// sequence lengths are computed, bounding both time and traceback memory to
/// `O(|q| * (|t| - |q| + 2 * band))`. This is the aligner of the long-read
/// path and [`align`](crate::align) (at a band that covers the whole
/// matrix), and the DP fallback's lane kernel returns exactly its answers —
/// GenDP accelerates exactly this banded fit shape. `scratch` is
/// caller-owned, so once it has grown to the workload's high-water mark a
/// call allocates nothing but its CIGAR.
///
/// Alignments whose optimal path leaves the band return the best in-band
/// path, which is the same behaviour as minimap2's banded extension.
///
/// Ties are broken the same way everywhere: opening a gap is preferred over
/// extending one, a diagonal step over a deletion over an insertion, and the
/// leftmost best end column wins. `scoring.gap_open` and `scoring.gap_ext`
/// must not be negative ([`Scoring`] stores penalties as positive
/// magnitudes). `AlignMode` has one value, [`AlignMode::Fit`].
///
/// # Panics
///
/// Panics if either sequence is empty or `band == 0`.
pub fn banded_align_with(
    query: &DnaSeq,
    target: &DnaSeq,
    scoring: &Scoring,
    band: usize,
    _mode: AlignMode,
    scratch: &mut AlignScratch,
) -> Alignment {
    let AlignScratch {
        qcodes,
        tcodes,
        rows,
        cigars,
        ..
    } = scratch;
    query.codes_into(0..query.len(), qcodes);
    target.codes_into(0..target.len(), tcodes);
    align_rows(qcodes, tcodes, scoring, band, rows, cigars)
}

/// The row kernel: fills the corridor in cells of the narrowest type that
/// [`fits`], then traces the alignment back.
pub(crate) fn align_rows(
    qcodes: &[u8],
    tcodes: &[u8],
    scoring: &Scoring,
    band: usize,
    rows: &mut RowScratch,
    cigars: &mut CigarScratch,
) -> Alignment {
    assert!(
        !qcodes.is_empty() && !tcodes.is_empty(),
        "cannot align empty sequences"
    );
    assert!(band > 0, "band must be positive");
    let corridor = Corridor::new(qcodes.len(), tcodes.len(), band);
    let RowScratch { tb, narrow, wide } = rows;
    tb.clear();
    tb.resize((qcodes.len() + 1) * corridor.width, H_STOP);
    let (score, end_j) = if fits::<i16>(qcodes.len(), &corridor, scoring) {
        fill(qcodes, tcodes, scoring, &corridor, narrow, tb)
    } else {
        fill(qcodes, tcodes, scoring, &corridor, wide, tb)
    };
    traced(tb, 1, &corridor, qcodes, tcodes, score, end_j, band, cigars)
}

/// The [`Alignment`] whose last row ends at column `end_j` with `score`,
/// traced back through the corridor's traceback bytes: cell `(i, off)` at
/// `tb[(i * width + off) * stride]`, so one traceback serves the row kernel
/// (stride 1) and a lane of the lane kernel (`tb` starting at the lane,
/// stride [`LaneTier::width`](crate::LaneTier::width)).
///
/// The walk keeps the cell's index in `tb` and steps it: a diagonal move
/// keeps the band offset (one row back), a deletion lowers it by one, an
/// insertion raises it by one a row back. No deletion extends out of column
/// 1 (column 0 has no E to extend), and row 0 is the free target prefix.
#[allow(clippy::too_many_arguments)]
pub(crate) fn traced(
    tb: &[u8],
    stride: usize,
    corridor: &Corridor,
    qcodes: &[u8],
    tcodes: &[u8],
    score: i32,
    end_j: usize,
    band: usize,
    cigars: &mut CigarScratch,
) -> Alignment {
    let (n, width) = (qcodes.len(), corridor.width);
    let (diag_step, del_step, ins_step) = (width * stride, stride, (width - 1) * stride);
    enum State {
        H,
        E,
        F,
    }
    let runs = &mut cigars.runs;
    runs.clear();
    let mut push = |op: CigarOp| match runs.last_mut() {
        Some((len, last)) if *last == op => *len += 1,
        _ => runs.push((1, op)),
    };
    let (mut i, mut j) = (n, end_j);
    let mut at = (n * width + corridor.off(n, end_j)) * stride;
    let mut state = State::H;
    while i > 0 {
        match state {
            State::H => match tb[at] & 3 {
                H_DIAG => {
                    let op = if qcodes[i - 1] == tcodes[j - 1] {
                        CigarOp::Equal
                    } else {
                        CigarOp::Diff
                    };
                    push(op);
                    i -= 1;
                    j -= 1;
                    at -= diag_step;
                }
                H_E => state = State::E,
                H_F => state = State::F,
                _ => break,
            },
            State::E => {
                if tb[at] & E_EXT == 0 {
                    state = State::H;
                }
                push(CigarOp::Del);
                j -= 1;
                at -= del_step;
            }
            State::F => {
                if tb[at] & F_EXT == 0 {
                    state = State::H;
                }
                push(CigarOp::Ins);
                i -= 1;
                at -= ins_step;
            }
        }
    }

    Alignment {
        score,
        cigar: cigars.build(),
        target_start: j,
        target_end: end_j,
        cells: banded_cells(n, corridor.m, band),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_ascii(s.as_bytes()).unwrap()
    }

    fn banded(q: &DnaSeq, t: &DnaSeq, s: &Scoring, band: usize) -> Alignment {
        banded_align_with(q, t, s, band, AlignMode::Fit, &mut AlignScratch::new())
    }

    #[test]
    fn matches_full_dp_on_fit() {
        let q = seq("ACGTACGTACGTTACG");
        let t = seq("GGACGTACGTTACGTTACGGG");
        let s = Scoring::short_read();
        let full = align(&q, &t, &s);
        let band = banded(&q, &t, &s, 8);
        assert_eq!(full.score, band.score);
        assert_eq!(full.cigar.query_len(), band.cigar.query_len());
    }

    #[test]
    fn computes_fewer_cells() {
        let q = seq(&"ACGT".repeat(50));
        let t = seq(&"ACGT".repeat(60));
        let s = Scoring::short_read();
        let full = align(&q, &t, &s);
        let band = banded(&q, &t, &s, 5);
        assert!(
            band.cells < full.cells / 2,
            "band {} full {}",
            band.cells,
            full.cells
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // One scratch driven across differently-shaped problems (growing,
        // shrinking, banded and full-matrix) must reproduce the
        // fresh-allocation result bit for bit — this is the property that
        // lets a mapping session keep a single workspace alive across pairs.
        let s = Scoring::short_read();
        let mut scratch = AlignScratch::new();
        let cases = [
            ("ACGTACGTACGTTACG", "GGACGTACGTTACGTTACGGG"),
            ("ACGGTTACGGTAGACCAACGGTTAC", "ACGGTTACGGTATTTGACCAACGGTTAC"),
            ("ACGT", "TACGTT"),
            ("ACGTACGGGTACGTTACG", "ACGTACGTACGTTACG"),
        ];
        for (q, t) in cases {
            let (q, t) = (seq(q), seq(t));
            for band in [8, q.len().min(t.len())] {
                let fresh = banded(&q, &t, &s, band);
                let reused = banded_align_with(&q, &t, &s, band, AlignMode::Fit, &mut scratch);
                assert_eq!(fresh, reused);
            }
        }
    }

    /// What one instantiation computes: score, end column and every
    /// traceback byte — together they determine the [`Alignment`].
    fn filled<C: Cell + Default>(
        q: &[u8],
        t: &[u8],
        scoring: &Scoring,
        band: usize,
    ) -> (i32, usize, Vec<u8>) {
        let corridor = Corridor::new(q.len(), t.len(), band);
        let mut tb = vec![H_STOP; (q.len() + 1) * corridor.width];
        let rows = &mut ScoreRows::<C>::default();
        let (score, end_j) = fill(q, t, scoring, &corridor, rows, &mut tb);
        (score, end_j, tb)
    }

    #[test]
    fn both_cell_widths_fill_the_same_traceback() {
        let scorings = [
            Scoring::short_read(),
            Scoring::long_read(),
            Scoring {
                match_score: 1,
                mismatch: 1,
                gap_open: 0,
                gap_ext: 1,
            },
        ];
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..300 {
            let alphabet: u8 = if case % 2 == 0 { 2 } else { 4 };
            let (n, m) = (rng.random_range(1..=40), rng.random_range(1..=60));
            let mut codes =
                |len| -> Vec<u8> { (0..len).map(|_| rng.random_range(0..alphabet)).collect() };
            let (q, t) = (codes(n), codes(m));
            let band = rng.random_range(1..=12);
            for scoring in &scorings {
                assert_eq!(
                    filled::<i16>(&q, &t, scoring, band),
                    filled::<i32>(&q, &t, scoring, band),
                    "q={q:?} t={t:?} band={band} {scoring:?}"
                );
            }
        }
    }

    /// `gap_scan` against the recurrence it replaces, over every chunk
    /// remainder, with `NEG_INF`-valued entries and seeds among real ones.
    fn scan_matches_recurrence<C: Cell + std::fmt::Debug>() {
        let mut rng = StdRng::seed_from_u64(11);
        let (mut ramp, mut e) = (Vec::new(), Vec::new());
        for len in 0..=200usize {
            for ext in [0, 1, 2, 7] {
                let mut value = || match rng.random_range(0..5) {
                    0 => C::NEG_INF,
                    1 => C::NEG_INF - C::from_i32(14),
                    _ => C::from_i32(rng.random_range(-300..300)),
                };
                let seed = value();
                let c: Vec<C> = (0..len).map(|_| value()).collect();
                ramp_into(ext, len + 3, &mut ramp);
                e.clear();
                e.resize(len, C::from_i32(0));
                gap_scan(seed, &c, &ramp, &mut e);
                let mut want = seed;
                for k in 0..len {
                    want = (want - C::from_i32(ext)).max(c[k]);
                    assert_eq!(e[k], want, "len={len} ext={ext} k={k}");
                }
            }
        }
    }

    #[test]
    fn gap_scan_is_the_scalar_recurrence() {
        scan_matches_recurrence::<i16>();
        scan_matches_recurrence::<i32>();
    }

    #[test]
    fn narrow_cells_are_taken_exactly_up_to_the_bound() {
        let narrow = |n, m, band, scoring| fits::<i16>(n, &Corridor::new(n, m, band), &scoring);
        // The mapper's fallback call, an 81-diagonal corridor, and a long
        // read's.
        assert!(narrow(150, 166, 8, Scoring::short_read()));
        assert!(narrow(150, 198, 16, Scoring::short_read()));
        assert!(!narrow(5_000, 5_100, 64, Scoring::long_read()));
        // deepest = gap_open + reach * ext + n * mismatch + open
        //         = 12 + 2 * 16 + 8 n + 14 < 16384  <=>  n <= 2040.
        assert!(narrow(2_040, 2_040, 16, Scoring::short_read()));
        assert!(!narrow(2_041, 2_041, 16, Scoring::short_read()));
        // ... and a wider reach counts: 12 + 2 * (10 + 16) + 8 n + 14.
        assert!(narrow(2_038, 2_048, 16, Scoring::short_read()));
        assert!(!narrow(2_039, 2_049, 16, Scoring::short_read()));
        // highest = n * match + width * ext = 100 match + 3 < 32768.
        let rich = |match_score| Scoring {
            match_score,
            mismatch: 1,
            gap_open: 0,
            gap_ext: 1,
        };
        assert!(narrow(100, 100, 1, rich(327)));
        assert!(!narrow(100, 100, 1, rich(328)));
        // Penalties are magnitudes: a negative one is never narrow.
        let mut odd = Scoring::short_read();
        odd.gap_ext = -1;
        assert!(!narrow(10, 10, 2, odd));
    }

    #[test]
    fn band_wide_enough_recovers_indel() {
        let q = seq("ACGGTTACGGTAGACCAACGGTTAC");
        // insert 3 bases in target mid-way, inside a window with margins
        let t = seq("TTACGGTTACGGTATTTGACCAACGGTTACTT");
        let s = Scoring::short_read();
        let full = align(&q, &t, &s);
        assert_eq!(full.cigar.to_string(), "12=3D13=");
        assert_eq!((full.target_start, full.target_end), (2, 30));
        let band = banded(&q, &t, &s, 6);
        assert_eq!(full.score, band.score);
        assert_eq!(full.cigar, band.cigar);
    }
}
