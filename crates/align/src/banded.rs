use crate::dp::{AlignMode, AlignScratch, Alignment, NEG_INF};
use crate::Scoring;
use gx_genome::{Cigar, CigarOp, DnaSeq};

const H_DIAG: u8 = 0;
const H_E: u8 = 1;
const H_F: u8 = 2;
const H_STOP: u8 = 3;
const E_EXT: u8 = 1 << 2;
const F_EXT: u8 = 1 << 3;

/// Banded affine-gap alignment (global or fit mode).
///
/// Only cells within `band` diagonals of the corridor spanned by the two
/// sequence lengths are computed, bounding both time and traceback memory to
/// `O(|q| * (|t| - |q| + 2 * band))`. This is the aligner the DP fallback and
/// long-read paths use — GenDP accelerates exactly this banded
/// Smith–Waterman shape.
///
/// Alignments whose optimal path leaves the band return the best in-band
/// path, which is the same behaviour as minimap2's banded extension.
///
/// Ties are broken the same way everywhere: opening a gap is preferred over
/// extending one, a diagonal step over a deletion over an insertion, and in
/// fit mode the leftmost best end column wins. `scoring.gap_open` must not
/// be negative ([`Scoring`] stores penalties as positive magnitudes).
///
/// # Panics
///
/// Panics if either sequence is empty, `band == 0`, or `mode` is
/// [`AlignMode::Local`] (local mode has no meaningful corridor).
pub fn banded_align(
    query: &DnaSeq,
    target: &DnaSeq,
    scoring: &Scoring,
    band: usize,
    mode: AlignMode,
) -> Alignment {
    banded_align_with(query, target, scoring, band, mode, &mut AlignScratch::new())
}

/// The corridor of a banded alignment of an `n`-base query against an
/// `m`-base target: row `i` holds the columns `j` whose shift `j - i` lies in
/// `lo_shift..=hi_shift`, clamped to `0..=m`. A cell's *band coordinate* is
/// `off = j - i - lo_shift`, so the cell above `(i, j)` sits at `off + 1` of
/// the previous row, the diagonal one at `off` and the left one at `off - 1`.
#[derive(Clone, Copy)]
struct Corridor {
    m: usize,
    lo_shift: i64,
    hi_shift: i64,
    /// Number of diagonals, `hi_shift - lo_shift + 1`.
    width: usize,
}

impl Corridor {
    fn new(n: usize, m: usize, band: usize) -> Corridor {
        let skew = m as i64 - n as i64;
        let lo_shift = skew.min(0) - band as i64;
        let hi_shift = skew.max(0) + band as i64;
        Corridor {
            m,
            lo_shift,
            hi_shift,
            width: (hi_shift - lo_shift + 1) as usize,
        }
    }

    /// First in-band column of row `i`.
    fn jmin(&self, i: usize) -> usize {
        (i as i64 + self.lo_shift).max(0) as usize
    }

    /// Last in-band column of row `i`.
    fn jmax(&self, i: usize) -> usize {
        ((i as i64 + self.hi_shift) as usize).min(self.m)
    }

    /// Band coordinate of in-band cell `(i, j)`.
    fn off(&self, i: usize, j: usize) -> usize {
        let off = j as i64 - i as i64 - self.lo_shift;
        debug_assert!((0..self.width as i64).contains(&off), "cell outside band");
        off as usize
    }
}

/// Number of DP cells [`banded_align`] computes for an `n`-base query, an
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

/// Gap and substitution scores of one alignment call, as added to a cell.
#[derive(Clone, Copy)]
struct Costs {
    /// Cost of the first base of a gap (`gap_open + gap_ext`).
    open: i32,
    /// Cost of each further gap base.
    ext: i32,
    matched: i32,
    mismatched: i32,
}

/// Fills one DP row of `len = h_cur.len()` consecutive cells in three
/// straight passes over equally long slices.
///
/// `h_prev` holds the previous row's `H` for the cells diagonally above
/// (`h_prev[k]`) and directly above (`h_prev[k + 1]`) cell `k`; `f_prev_up`
/// its `F` directly above. Between passes 1 and 3 `h_cur` holds the diagonal
/// candidate. `e_row` and `c_row` are `len + 1` long and enter
/// with slot 0 describing the cell left of the first one: its `E` and its
/// `H - open`. `tcodes` are the target bases under the cells, `q` the
/// query base of the row.
#[allow(clippy::too_many_arguments)] // one noalias slice per DP array keeps the passes vectorisable
fn fill_row(
    q: u8,
    tcodes: &[u8],
    costs: Costs,
    h_prev: &[i32],
    f_prev_up: &[i32],
    h_cur: &mut [i32],
    f_cur: &mut [i32],
    e_row: &mut [i32],
    c_row: &mut [i32],
    tb: &mut [u8],
) {
    let len = h_cur.len();
    let Costs {
        open,
        ext,
        matched,
        mismatched,
    } = costs;
    let (h_diag, h_up) = (&h_prev[..len], &h_prev[1..=len]);
    let (tcodes, f_prev_up) = (&tcodes[..len], &f_prev_up[..len]);
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
        let sub = if tcodes[k] == q { matched } else { mismatched };
        let diag = h_diag[k] + sub;
        f_cur[k] = f;
        h_cur[k] = diag;
        c_out[k] = diag.max(f) - open;
        tb[k] = if extended { F_EXT } else { 0 };
    }

    // Pass 2, the only loop-carried one: E[k] = max(E[k-1] - ext, c[k-1]).
    // The full recurrence opens from H[k-1] = max(diag, E, F)[k-1]; the E
    // term of that maximum gives E[k-1] - open <= E[k-1] - ext (gap_open >=
    // 0), which extending already covers, so it is dropped and the chain
    // is one subtract and one max long.
    let mut e = e_row[0];
    for (e_out, &c) in e_row[1..=len].iter_mut().zip(&c_row[..len]) {
        e = (e - ext).max(c);
        *e_out = e;
    }

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

/// [`banded_align`] using caller-owned scratch buffers — identical result,
/// no allocation once `scratch` has grown to the workload's high-water mark.
pub fn banded_align_with(
    query: &DnaSeq,
    target: &DnaSeq,
    scoring: &Scoring,
    band: usize,
    mode: AlignMode,
    scratch: &mut AlignScratch,
) -> Alignment {
    assert!(
        !query.is_empty() && !target.is_empty(),
        "cannot align empty sequences"
    );
    assert!(band > 0, "band must be positive");
    assert!(
        mode != AlignMode::Local,
        "banded alignment supports Global and Fit modes"
    );
    debug_assert!(scoring.gap_open >= 0, "penalties are positive magnitudes");
    let n = query.len();
    let m = target.len();
    let costs = Costs {
        open: scoring.gap_open + scoring.gap_ext,
        ext: scoring.gap_ext,
        matched: scoring.match_score,
        mismatched: -scoring.mismatch,
    };
    let corridor = Corridor::new(n, m, band);
    let width = corridor.width;

    let AlignScratch {
        tb,
        h_prev,
        h_cur,
        f_col: f_prev,
        f_cur,
        e_row,
        c_row,
        qcodes,
        tcodes,
    } = scratch;
    tb.clear();
    tb.resize((n + 1) * width, H_STOP);
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
        row.resize(width + 1, NEG_INF);
    }

    // Row 0.
    for j in 0..=corridor.jmax(0) {
        let off = corridor.off(0, j);
        (h_prev[off], tb[off]) = match mode {
            AlignMode::Global if j > 0 => (-scoring.gap_cost(j as u32), H_E | E_EXT),
            _ => (0, H_STOP),
        };
    }

    query.codes_into(0..n, qcodes);
    target.codes_into(0..m, tcodes);

    for i in 1..=n {
        let (lo, hi) = (corridor.jmin(i), corridor.jmax(i));
        let start = lo.max(1);
        let first = corridor.off(i, start);
        let len = hi - start + 1;
        // The cell left of the first computed one: the boundary column
        // (whose F no cell reads: nothing is computed below it), or nothing
        // at all, just outside the band.
        e_row[0] = NEG_INF;
        c_row[0] = NEG_INF - costs.open;
        if lo == 0 {
            let h = -scoring.gap_cost(i as u32);
            h_cur[first - 1] = h;
            tb[i * width + first - 1] = H_F | F_EXT;
            c_row[0] = h - costs.open;
        }
        fill_row(
            qcodes[i - 1],
            &tcodes[start - 1..hi],
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

    let last_row = |j: usize| h_prev[corridor.off(n, j)];
    let (score, end_j) = match mode {
        AlignMode::Global => (last_row(m), m),
        _ => {
            let (mut bj, mut bs) = (corridor.jmin(n), NEG_INF);
            for j in corridor.jmin(n)..=corridor.jmax(n) {
                if last_row(j) > bs {
                    bs = last_row(j);
                    bj = j;
                }
            }
            (bs, bj)
        }
    };

    // Traceback within the band.
    let tb_at = |i: usize, j: usize| tb[i * width + corridor.off(i, j)];
    #[derive(PartialEq)]
    enum State {
        H,
        E,
        F,
    }
    let mut rev = Cigar::new();
    let (mut i, mut j) = (n, end_j);
    let mut state = State::H;
    loop {
        match state {
            State::H => match tb_at(i, j) & 3 {
                H_DIAG => {
                    let op = if qcodes[i - 1] == tcodes[j - 1] {
                        CigarOp::Equal
                    } else {
                        CigarOp::Diff
                    };
                    rev.push(op, 1);
                    i -= 1;
                    j -= 1;
                }
                H_E => state = State::E,
                H_F => state = State::F,
                _ => break,
            },
            State::E => {
                let extended = tb_at(i, j) & E_EXT != 0;
                rev.push(CigarOp::Del, 1);
                j -= 1;
                if !extended {
                    state = State::H;
                }
                if j == 0 && state == State::E {
                    break;
                }
            }
            State::F => {
                let extended = tb_at(i, j) & F_EXT != 0;
                rev.push(CigarOp::Ins, 1);
                i -= 1;
                if !extended {
                    state = State::H;
                }
                if i == 0 && state == State::F {
                    break;
                }
            }
        }
        if i == 0 && j == 0 {
            break;
        }
        if i == 0 && matches!(state, State::H) && tb_at(0, j) & 3 == H_STOP {
            break;
        }
    }

    Alignment {
        score,
        cigar: rev.reversed(),
        query_start: i,
        query_end: n,
        target_start: j,
        target_end: end_j,
        cells: banded_cells(n, m, band),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align;

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn matches_full_dp_on_fit() {
        let q = seq("ACGTACGTACGTTACG");
        let t = seq("GGACGTACGTTACGTTACGGG");
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Fit);
        let band = banded_align(&q, &t, &s, 8, AlignMode::Fit);
        assert_eq!(full.score, band.score);
        assert_eq!(full.cigar.query_len(), band.cigar.query_len());
    }

    #[test]
    fn matches_full_dp_on_global() {
        let q = seq("ACGTACGGGTACGTTACG");
        let t = seq("ACGTACGTACGTTACG");
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Global);
        let band = banded_align(&q, &t, &s, 8, AlignMode::Global);
        assert_eq!(full.score, band.score);
    }

    #[test]
    fn computes_fewer_cells() {
        let q = seq(&"ACGT".repeat(50));
        let t = seq(&"ACGT".repeat(60));
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Fit);
        let band = banded_align(&q, &t, &s, 5, AlignMode::Fit);
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
        // shrinking, global and fit) must reproduce the fresh-allocation
        // result bit for bit — this is the property that lets a mapping
        // session keep a single workspace alive across pairs.
        let s = Scoring::short_read();
        let mut scratch = AlignScratch::new();
        let cases = [
            ("ACGTACGTACGTTACG", "GGACGTACGTTACGTTACGGG", AlignMode::Fit),
            (
                "ACGGTTACGGTAGACCAACGGTTAC",
                "ACGGTTACGGTATTTGACCAACGGTTAC",
                AlignMode::Global,
            ),
            ("ACGT", "TACGTT", AlignMode::Fit),
            ("ACGTACGGGTACGTTACG", "ACGTACGTACGTTACG", AlignMode::Global),
        ];
        for (q, t, mode) in cases {
            let (q, t) = (seq(q), seq(t));
            let fresh = banded_align(&q, &t, &s, 8, mode);
            let reused = banded_align_with(&q, &t, &s, 8, mode, &mut scratch);
            assert_eq!(fresh.score, reused.score);
            assert_eq!(fresh.cigar, reused.cigar);
            assert_eq!(fresh.target_start, reused.target_start);
            assert_eq!(fresh.cells, reused.cells);
            let full_fresh = align(&q, &t, &s, mode);
            let full_reused = crate::align_with(&q, &t, &s, mode, &mut scratch);
            assert_eq!(full_fresh.score, full_reused.score);
            assert_eq!(full_fresh.cigar, full_reused.cigar);
        }
    }

    #[test]
    fn band_wide_enough_recovers_indel() {
        let q = seq("ACGGTTACGGTAGACCAACGGTTAC");
        // insert 3 bases in target mid-way
        let t = seq("ACGGTTACGGTATTTGACCAACGGTTAC");
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Global);
        let band = banded_align(&q, &t, &s, 6, AlignMode::Global);
        assert_eq!(full.score, band.score);
        assert_eq!(full.cigar.to_string(), band.cigar.to_string());
    }
}
