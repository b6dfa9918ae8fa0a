//! The lane kernel: up to eight banded fit alignments of one shape filled
//! together, one per 16-bit lane of a 128-bit register.
//!
//! The row kernel ([`banded_align_codes`](crate::banded_align_codes))
//! vectorises *along* a row, and the DP fallback's 33-diagonal rows are too
//! short for that to pay: its pass-2 scan and per-row setup cost about as
//! much as the cells. Jobs of
//! one shape (query length, target length, band and scoring) share their
//! corridor cell for cell, so here lane `l` runs job `l`'s plain row-wise
//! recurrence and every cell of the corridor is one step on `[i16; 8]`
//! values. Nothing crosses lanes, so the compiler vectorises each step at
//! the default target without a scan.
//!
//! Per cell `(i, j)`, with `open = gap_open + gap_ext`:
//!
//! * `F = max(H↑ - open, F↑ - ext)`, extended when `F↑ - ext` is strictly
//!   larger;
//! * `E = max(H← - open, E← - ext)`, extended likewise — the row kernel's
//!   pass 2 computes exactly these integers, so every flag falls the same
//!   way;
//! * `H = max(H↖ + sub, E, F)`, preferring the diagonal, then `E`, then `F`.
//!
//! The boundary column, the end-column choice and the traceback are the row
//! kernel's ([`traced`] reads the interleaved traceback bytes of one lane).
//! A shape whose scores do not fit 16-bit cells
//! ([`fits`](crate::banded::fits)) runs job by job on the row kernel
//! instead.

use crate::banded::{align_rows, traced, Cell, Corridor, E_EXT, F_EXT, H_DIAG, H_E, H_F, H_STOP};
use crate::dp::{AlignScratch, Alignment};
use crate::Scoring;

/// Jobs the lane kernel fills together: eight 16-bit lanes, one 128-bit
/// register.
pub const LANES: usize = 8;

/// Fewest same-shape jobs worth a lane call: below this, the DP fallback
/// runs them one by one on the row kernel. A lane call costs about the
/// same at any fill, and for 150-base mates in their 166-base windows
/// (band 8) it took 26.0, 25.2 and 30.3 µs with 1, 3 and 8 jobs against
/// 11.8 µs a row-kernel call: two jobs are cheaper on the row kernel,
/// three on the lanes (release build at the default target, one core of a
/// 2-vCPU x86-64 host).
pub const LANE_CROSSOVER: usize = 3;

type Lane<T> = [T; LANES];

/// The lane kernel's buffers: lane-interleaved score rows, base codes and
/// traceback bytes.
#[derive(Default, Debug)]
pub(crate) struct LaneScratch {
    h_prev: Vec<Lane<i16>>,
    h_cur: Vec<Lane<i16>>,
    f_prev: Vec<Lane<i16>>,
    f_cur: Vec<Lane<i16>>,
    /// Query codes by row, target codes by column.
    q: Vec<Lane<i16>>,
    t: Vec<Lane<i16>>,
    tb: Vec<Lane<u8>>,
}

/// Fit-aligns each job `(query codes, target codes)` in `band` diagonals,
/// appending one [`Alignment`] per job to `out`, in job order — each equal
/// to what [`banded_align_with`](crate::banded_align_with) returns for the
/// job's sequences (score, CIGAR, both target coordinates and `cells`).
///
/// Codes are 2-bit bases (`0..4`, as
/// [`DnaSeq::codes_into`](gx_genome::DnaSeq::codes_into) writes them). The
/// jobs fill together, one per lane, so a call costs about the same for one
/// job as for [`LANES`]; see [`LANE_CROSSOVER`].
///
/// # Panics
///
/// Panics unless there are 1 to [`LANES`] jobs of one shape (equal query
/// lengths, equal target lengths), with neither sequence empty and
/// `band > 0`.
pub fn banded_align_lanes(
    jobs: &[(&[u8], &[u8])],
    scoring: &Scoring,
    band: usize,
    scratch: &mut AlignScratch,
    out: &mut Vec<Alignment>,
) {
    assert!(
        (1..=LANES).contains(&jobs.len()),
        "1 to {LANES} jobs a call"
    );
    let (n, m) = (jobs[0].0.len(), jobs[0].1.len());
    assert!(
        jobs.iter().all(|(q, t)| (q.len(), t.len()) == (n, m)),
        "jobs of one shape"
    );
    assert!(n > 0 && m > 0, "cannot align empty sequences");
    assert!(band > 0, "band must be positive");
    let corridor = Corridor::new(n, m, band);
    if !crate::banded::fits::<i16>(n, &corridor, scoring) {
        out.extend(
            jobs.iter().map(|(q, t)| {
                align_rows(q, t, scoring, band, &mut scratch.rows, &mut scratch.cigars)
            }),
        );
        return;
    }
    let ends = fill_lanes(jobs, scoring, &corridor, &mut scratch.lanes);
    let tb = scratch.lanes.tb.as_flattened();
    for (l, &(q, t)) in jobs.iter().enumerate() {
        let (score, end_j) = ends[l];
        let cigars = &mut scratch.cigars;
        out.push(traced(
            &tb[l..],
            LANES,
            &corridor,
            q,
            t,
            score,
            end_j,
            band,
            cigars,
        ));
    }
}

/// Fills the corridor for every lane; returns each lane's score and end
/// column. Lanes past `jobs.len()` align code-0 sequences nothing reads.
fn fill_lanes(
    jobs: &[(&[u8], &[u8])],
    scoring: &Scoring,
    corridor: &Corridor,
    lanes: &mut LaneScratch,
) -> Lane<(i32, usize)> {
    let (n, m, width) = (jobs[0].0.len(), jobs[0].1.len(), corridor.width);
    let neg_inf = <i16 as Cell>::NEG_INF;
    let cell = <i16 as Cell>::from_i32;
    let (open, ext) = (
        cell(scoring.gap_open + scoring.gap_ext),
        cell(scoring.gap_ext),
    );
    let (matched, mismatched) = (cell(scoring.match_score), cell(-scoring.mismatch));
    let LaneScratch {
        h_prev,
        h_cur,
        f_prev,
        f_cur,
        q,
        t,
        tb,
    } = lanes;
    for row in [&mut *h_prev, &mut *h_cur, &mut *f_prev, &mut *f_cur] {
        row.clear();
        row.resize(width + 1, [neg_inf; LANES]);
    }
    q.clear();
    q.resize(n, [0; LANES]);
    t.clear();
    t.resize(m, [0; LANES]);
    for (l, &(qcodes, tcodes)) in jobs.iter().enumerate() {
        for (row, &code) in q.iter_mut().zip(qcodes) {
            row[l] = i16::from(code);
        }
        for (col, &code) in t.iter_mut().zip(tcodes) {
            col[l] = i16::from(code);
        }
    }
    tb.clear();
    tb.resize((n + 1) * width, [H_STOP; LANES]);

    // Row 0: the target's free start overhang.
    for j in 0..=corridor.jmax(0) {
        h_prev[corridor.off(0, j)] = [0; LANES];
    }

    for i in 1..=n {
        let (lo, hi) = (corridor.jmin(i), corridor.jmax(i));
        let start = lo.max(1);
        let first = corridor.off(i, start);
        let len = hi - start + 1;
        // The cell left of the first computed one: the boundary column, or
        // nothing at all, just outside the band.
        let mut h_left = [neg_inf; LANES];
        let mut e_left = [neg_inf; LANES];
        if lo == 0 {
            h_left = [cell(-scoring.gap_cost(i as u32)); LANES];
            h_cur[first - 1] = h_left;
            tb[i * width + first - 1] = [H_F | F_EXT; LANES];
        }
        let qi = q[i - 1];
        let cols = &t[start - 1..hi];
        let (diag, up) = (
            &h_prev[first..first + len],
            &h_prev[first + 1..=first + len],
        );
        let f_up = &f_prev[first + 1..=first + len];
        let h_out = &mut h_cur[first..first + len];
        let f_out = &mut f_cur[first..first + len];
        let tb_out = &mut tb[i * width + first..i * width + first + len];
        for k in 0..len {
            let (tj, diag, up, f_up) = (cols[k], diag[k], up[k], f_up[k]);
            let (mut h, mut f, mut e, mut bits) = ([0; LANES], [0; LANES], [0; LANES], [0; LANES]);
            for l in 0..LANES {
                let f_open = up[l] - open;
                let f_extend = f_up[l] - ext;
                let f_extended = f_extend > f_open;
                f[l] = if f_extended { f_extend } else { f_open };
                let e_open = h_left[l] - open;
                let e_extend = e_left[l] - ext;
                let e_extended = e_extend > e_open;
                e[l] = if e_extended { e_extend } else { e_open };
                let sub = if qi[l] == tj[l] { matched } else { mismatched };
                let d = diag[l] + sub;
                let (mut best, mut choice) = (d, H_DIAG);
                if e[l] > best {
                    best = e[l];
                    choice = H_E;
                }
                if f[l] > best {
                    best = f[l];
                    choice = H_F;
                }
                h[l] = best;
                bits[l] = choice
                    | if e_extended { E_EXT } else { 0 }
                    | if f_extended { F_EXT } else { 0 };
            }
            h_out[k] = h;
            f_out[k] = f;
            tb_out[k] = bits;
            (h_left, e_left) = (h, e);
        }
        std::mem::swap(h_prev, h_cur);
        std::mem::swap(f_prev, f_cur);
    }

    // Each lane's end column: the leftmost best of the last row.
    let mut ends = [(neg_inf, corridor.jmin(n)); LANES];
    for j in corridor.jmin(n)..=corridor.jmax(n) {
        let h = h_prev[corridor.off(n, j)];
        for (end, &h) in ends.iter_mut().zip(&h) {
            if h > end.0 {
                *end = (h, j);
            }
        }
    }
    ends.map(|(score, j)| (i32::from(score), j))
}
