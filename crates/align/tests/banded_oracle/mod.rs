//! Test-only oracle: the row-wise banded affine-gap kernel `gx-align`
//! shipped before the band-coordinate rewrite, moved here in its fit mode
//! (it owns its buffers instead of borrowing an `AlignScratch`, whose fields
//! are crate-private). `tests/banded_diff.rs` holds the library kernel to it
//! on score, CIGAR, both target coordinates and `cells`.

use gx_align::{Alignment, Scoring};
use gx_genome::{Cigar, CigarOp, DnaSeq};

/// "Minus infinity", far enough from `i32::MIN` that subtracting penalties
/// cannot overflow.
const NEG_INF: i32 = i32::MIN / 4;

const H_DIAG: u8 = 0;
const H_E: u8 = 1;
const H_F: u8 = 2;
const H_STOP: u8 = 3;
const E_EXT: u8 = 1 << 2;
const F_EXT: u8 = 1 << 3;

pub fn banded_align_rowwise(
    query: &DnaSeq,
    target: &DnaSeq,
    scoring: &Scoring,
    band: usize,
) -> Alignment {
    assert!(
        !query.is_empty() && !target.is_empty(),
        "cannot align empty sequences"
    );
    assert!(band > 0, "band must be positive");
    let n = query.len();
    let m = target.len();
    let open = scoring.gap_open + scoring.gap_ext;
    let ext = scoring.gap_ext;

    // Allowed shift (j - i) range: the natural corridor plus the band.
    let lo_shift = (m as i64 - n as i64).min(0) - band as i64;
    let hi_shift = (m as i64 - n as i64).max(0) + band as i64;
    let width = (hi_shift - lo_shift + 1) as usize;

    let jmin = |i: usize| -> usize { (i as i64 + lo_shift).max(0) as usize };
    let jmax = |i: usize| -> usize { ((i as i64 + hi_shift) as usize).min(m) };

    let (tb, h_prev, h_cur, f_col) = (
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Vec::new(),
    );
    let (qcodes, tcodes) = (&mut Vec::new(), &mut Vec::new());
    tb.clear();
    tb.resize((n + 1) * width, H_STOP);
    let tb_idx = |i: usize, j: usize| -> usize {
        let off = j as i64 - (i as i64 + lo_shift);
        debug_assert!((0..width as i64).contains(&off), "traceback outside band");
        i * width + off as usize
    };

    h_prev.clear();
    h_prev.resize(m + 2, NEG_INF);
    h_cur.clear();
    h_cur.resize(m + 2, NEG_INF);
    f_col.clear();
    f_col.resize(m + 2, NEG_INF);

    // Row 0: the target's free start overhang.
    for j in jmin(0)..=jmax(0) {
        h_prev[j] = 0;
        tb[tb_idx(0, j)] = H_STOP;
    }

    query.codes_into(0..n, qcodes);
    target.codes_into(0..m, tcodes);
    let mut cells = 0u64;

    for i in 1..=n {
        let (lo, hi) = (jmin(i), jmax(i));
        let mut e_row = NEG_INF;
        if lo == 0 {
            h_cur[0] = -scoring.gap_cost(i as u32);
            tb[tb_idx(i, 0)] = H_F | F_EXT;
        }
        let qi = qcodes[i - 1];
        let start = lo.max(1);
        for j in start..=hi {
            cells += 1;
            let mut flags = 0u8;

            let h_left = if j > lo { h_cur[j - 1] } else { NEG_INF };
            let e_open = h_left.saturating_add(-open);
            let e_extend = e_row - ext;
            e_row = if e_extend > e_open {
                flags |= E_EXT;
                e_extend
            } else {
                e_open
            };

            // h_prev[j] / f_col[j] are valid only if j was inside row i-1's band.
            let in_prev = j >= jmin(i - 1) && j <= jmax(i - 1);
            let h_up = if in_prev { h_prev[j] } else { NEG_INF };
            let f_up = if in_prev { f_col[j] } else { NEG_INF };
            let f_open = h_up.saturating_add(-open);
            let f_extend = f_up - ext;
            f_col[j] = if f_extend > f_open {
                flags |= F_EXT;
                f_extend
            } else {
                f_open
            };

            let in_prev_diag = j > jmin(i - 1) && j - 1 <= jmax(i - 1);
            let h_diag = if in_prev_diag { h_prev[j - 1] } else { NEG_INF };
            let diag = h_diag.saturating_add(scoring.substitution(qi, tcodes[j - 1]));

            let (mut h, mut choice) = (diag, H_DIAG);
            if e_row > h {
                h = e_row;
                choice = H_E;
            }
            if f_col[j] > h {
                h = f_col[j];
                choice = H_F;
            }
            h_cur[j] = h;
            tb[tb_idx(i, j)] = flags | choice;
        }
        // Invalidate cells just outside the band so the next row cannot read
        // stale values.
        if hi < m + 1 {
            h_cur[hi + 1] = NEG_INF;
            f_col[hi + 1] = NEG_INF;
        }
        if start > 0 {
            h_cur[start - 1] = if start > lo {
                h_cur[start - 1]
            } else {
                NEG_INF
            };
        }
        std::mem::swap(h_prev, h_cur);
    }

    // The leftmost best column of the last row ends the alignment.
    let (mut end_j, mut score) = (jmin(n), NEG_INF);
    #[allow(clippy::needless_range_loop)] // j is a column, not just an index
    for j in jmin(n)..=jmax(n) {
        if h_prev[j] > score {
            (end_j, score) = (j, h_prev[j]);
        }
    }

    // Traceback within the band.
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
            State::H => match tb[tb_idx(i, j)] & 3 {
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
                let extended = tb[tb_idx(i, j)] & E_EXT != 0;
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
                let extended = tb[tb_idx(i, j)] & F_EXT != 0;
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
        if i == 0 && matches!(state, State::H) && tb[tb_idx(0, j)] & 3 == H_STOP {
            break;
        }
    }

    Alignment {
        score,
        cigar: rev.reversed(),
        target_start: j,
        target_end: end_j,
        cells,
    }
}
