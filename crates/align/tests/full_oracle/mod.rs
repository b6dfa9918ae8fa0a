//! Test-only oracle: the scalar full-matrix affine-gap kernel `gx-align`
//! shipped as `align` before it became the banded kernel at a covering band,
//! moved here in its fit mode only (it owns its buffers instead of borrowing
//! an `AlignScratch`, whose fields are crate-private). `tests/full_diff.rs`
//! holds `gx_align::align` to it on score, CIGAR, both target coordinates
//! and `cells`.

use gx_align::{Alignment, Scoring};
use gx_genome::{Cigar, CigarOp, DnaSeq};

/// Score value treated as minus infinity (kept far from `i32::MIN` so that
/// subtracting penalties cannot overflow).
const NEG_INF: i32 = i32::MIN / 4;

// Traceback encoding, one byte per cell:
//   bits 0-1: H-matrix choice: 0 = diagonal, 1 = E (deletion), 2 = F
//             (insertion), 3 = stop (row 0)
//   bit 2:    E extended from E (set) vs opened from H (clear)
//   bit 3:    F extended from F (set) vs opened from H (clear)
const H_DIAG: u8 = 0;
const H_E: u8 = 1;
const H_F: u8 = 2;
const H_STOP: u8 = 3;
const E_EXT: u8 = 1 << 2;
const F_EXT: u8 = 1 << 3;

/// Fit-aligns `query` against `target` over the full DP matrix.
pub fn align_full(query: &DnaSeq, target: &DnaSeq, scoring: &Scoring) -> Alignment {
    assert!(
        !query.is_empty() && !target.is_empty(),
        "cannot align empty sequences"
    );
    let n = query.len();
    let m = target.len();
    let open = scoring.gap_open + scoring.gap_ext;
    let ext = scoring.gap_ext;

    let mut tb = vec![0u8; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;

    // Rolling rows for H and per-row E; column array for F. Row 0 is the
    // target's free start overhang.
    let mut h_prev = vec![0i32; m + 1];
    let mut h_cur = vec![0i32; m + 1];
    let mut f_col = vec![NEG_INF; m + 1];
    for j in 0..=m {
        tb[idx(0, j)] = H_STOP;
    }

    let mut cells = 0u64;
    let (mut qcodes, mut tcodes) = (Vec::new(), Vec::new());
    query.codes_into(0..n, &mut qcodes);
    target.codes_into(0..m, &mut tcodes);

    for i in 1..=n {
        // Column 0: the query's leading bases as one insertion.
        h_cur[0] = -scoring.gap_cost(i as u32);
        tb[idx(i, 0)] = H_F | F_EXT;
        let mut e_row = NEG_INF;
        let qi = qcodes[i - 1];
        for j in 1..=m {
            cells += 1;
            let mut flags = 0u8;

            // E: gap consuming target (deletion w.r.t. the query).
            let e_open = h_cur[j - 1] - open;
            let e_extend = e_row - ext;
            e_row = if e_extend > e_open {
                flags |= E_EXT;
                e_extend
            } else {
                e_open
            };

            // F: gap consuming query (insertion w.r.t. the query).
            let f_open = h_prev[j] - open;
            let f_extend = f_col[j] - ext;
            f_col[j] = if f_extend > f_open {
                flags |= F_EXT;
                f_extend
            } else {
                f_open
            };

            let diag = h_prev[j - 1] + scoring.substitution(qi, tcodes[j - 1]);

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
            tb[idx(i, j)] = flags | choice;
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
    }
    // h_prev now holds row n: the leftmost best column ends the alignment.
    let (mut end_j, mut score) = (0usize, NEG_INF);
    for (j, &h) in h_prev.iter().enumerate() {
        if h > score {
            (end_j, score) = (j, h);
        }
    }

    // Traceback to row 0.
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
            State::H => match tb[idx(i, j)] & 3 {
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
                _ => break, // H_STOP
            },
            State::E => {
                let extended = tb[idx(i, j)] & E_EXT != 0;
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
                let extended = tb[idx(i, j)] & F_EXT != 0;
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
        if i == 0 && state == State::H && tb[idx(0, j)] & 3 == H_STOP {
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
