//! The lane kernel: same-shape banded fit alignments filled together, one
//! per 16-bit lane of a vector register. It is the DP fallback's one kernel:
//! every group of same-shape jobs, one job or a full register, runs here.
//!
//! The row kernel (`align_rows`, behind
//! [`banded_align_with`](crate::banded_align_with)) vectorises *along* a
//! row, and the DP fallback's 33-diagonal rows are too short for that to
//! pay: its pass-2 scan and per-row setup cost about as much as the cells.
//! Jobs of one shape (query length, target length, band and scoring) share
//! their corridor cell for cell, so here lane `l` runs job `l`'s plain
//! row-wise recurrence and every cell of the corridor is one step on
//! `[i16; L]` values. Nothing crosses lanes, so the compiler vectorises each
//! step without a scan.
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
//! # Tiers
//!
//! The fill is one body, generic over its lane count `L`, compiled once per
//! [`LaneTier`]: portable at 8 lanes (one 128-bit register at the default
//! target), and on x86-64 at 16 lanes for AVX-512BW+VL. Sixteen `i16` lanes
//! fill one 256-bit register: what AVX-512VL adds is compares into mask
//! registers and masked blends on those registers, not width, so the
//! corridor loop uses no `zmm` register (the compiler uses one only for a
//! few stores and code conversions in a call's setup). [`LaneTier::host`]
//! picks the widest tier the CPU reports at run time. A CPU with AVX2 but
//! not AVX-512BW+VL runs the portable tier: a 16-lane AVX2 compilation,
//! timed on an AVX-512 CPU, was slower than it for groups of one to three
//! jobs, and no benchmark host lacks AVX-512 to judge it end to end. A tier
//! is a width and a name: a new one, such as an AVX2 ×16, needs its fill,
//! its detection and its width, and nothing else, as every group size runs
//! here.
//! Every tier runs the same integers with the same strict-`>` ties, so the
//! tier moves no result.
//!
//! A call costs about the same for one job as for a full register (only
//! the tracebacks grow with the jobs), so a lone job pays for idle lanes.
//! The benchmark's batches rarely make one: mapping each workload's pairs
//! in 256-pair batches on the `avx512bw+vl` tier, at seeds 20260930 /
//! 7741001, `clean_sw` planned 4 / 6 one-job groups among 402 / 438 jobs,
//! `noisy_sw` 1 / 1 among 3 784 / 3 805, and `foreign_sw` none among
//! 1 344 / 1 356 (its groups hold 2 to 16 jobs).
//!
//! The boundary column, the end-column choice and the traceback are the row
//! kernel's ([`traced`] reads the interleaved traceback bytes of one lane).
//! A shape whose scores do not fit 16-bit cells
//! ([`fits`](crate::banded::fits)) runs job by job on the row kernel
//! instead.

use crate::banded::{align_rows, traced, Cell, Corridor, E_EXT, F_EXT, H_DIAG, H_E, H_F};
use crate::dp::{AlignScratch, Alignment};
use crate::Scoring;

/// One compilation of the lane kernel's fill: how many jobs a call takes
/// and which instructions it runs.
///
/// Only [`LaneTier::host`] and [`LaneTier::supported`] make one, and they
/// make only tiers this CPU runs.
#[derive(Clone, Copy, Debug)]
pub struct LaneTier(Tier);

#[derive(Clone, Copy, Debug)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Every tier, narrowest first.
const TIERS: &[Tier] = &[
    Tier::Portable,
    #[cfg(target_arch = "x86_64")]
    Tier::Avx512,
];

impl LaneTier {
    /// The widest tier's lane count.
    pub const MAX_WIDTH: usize = 16;

    /// The tier the DP fallback runs on: the widest one this CPU runs.
    pub fn host() -> LaneTier {
        LaneTier::supported()
            .last()
            .expect("the portable tier runs everywhere")
    }

    /// Every tier this CPU runs, narrowest first: the portable one, then
    /// each wide tier whose instructions the CPU reports.
    pub fn supported() -> impl Iterator<Item = LaneTier> {
        TIERS.iter().map(|&t| LaneTier(t)).filter(|t| t.detected())
    }

    fn detected(self) -> bool {
        match self.0 {
            Tier::Portable => true,
            // Every feature `fill_avx512`'s `target_feature` lets the
            // compiler use: the two it names and the four they imply.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                    && std::arch::is_x86_feature_detected!("f16c")
            }
        }
    }

    /// Jobs a call takes: the lanes of one register.
    pub fn width(self) -> usize {
        self.0.spec().0
    }

    /// The tier's name: `portable` or `avx512bw+vl`.
    pub fn name(self) -> &'static str {
        self.0.spec().1
    }
}

impl Tier {
    /// The tier's width and name.
    fn spec(self) -> (usize, &'static str) {
        match self {
            Tier::Portable => (8, "portable"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => (16, "avx512bw+vl"),
        }
    }
}

/// The lane kernel's buffers, lane-interleaved at the stride of the tier
/// that last used them: score rows, base codes and traceback bytes. Each
/// grows to the longest call it has served and is never shrunk.
#[derive(Default, Debug)]
pub(crate) struct LaneScratch {
    h_prev: Vec<i16>,
    h_cur: Vec<i16>,
    f_prev: Vec<i16>,
    f_cur: Vec<i16>,
    /// Query codes by row, target codes by column.
    q: Vec<i16>,
    t: Vec<i16>,
    tb: Vec<u8>,
}

/// The first `len` elements of `buf`, which grows only when it is shorter.
fn grown<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// The first `rows` lane rows of `buf`, `L` lanes a row.
fn lane_rows<T: Copy + Default, const L: usize>(buf: &mut Vec<T>, rows: usize) -> &mut [[T; L]] {
    grown(buf, rows * L).as_chunks_mut().0
}

/// Fit-aligns each job `(query codes, target codes)` in `band` diagonals on
/// `tier`, appending one [`Alignment`] per job to `out`, in job order —
/// each equal to what [`banded_align_with`](crate::banded_align_with)
/// returns for the job's sequences (score, CIGAR, both target coordinates
/// and `cells`), whatever the tier.
///
/// Codes are 2-bit bases (`0..4`, as
/// [`DnaSeq::codes_into`](gx_genome::DnaSeq::codes_into) writes them). The
/// jobs fill together, one per lane, so a call costs about the same for one
/// job as for [`LaneTier::width`].
///
/// # Panics
///
/// Panics unless there are 1 to `tier.width()` jobs of one shape (equal
/// query lengths, equal target lengths), with neither sequence empty and
/// `band > 0`.
pub fn banded_align_lanes(
    tier: LaneTier,
    jobs: &[(&[u8], &[u8])],
    scoring: &Scoring,
    band: usize,
    scratch: &mut AlignScratch,
    out: &mut Vec<Alignment>,
) {
    let width = tier.width();
    assert!(
        (1..=width).contains(&jobs.len()),
        "1 to {width} jobs a call"
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
    let lanes = &mut scratch.lanes;
    let ends: &[(i32, usize)] = match tier.0 {
        Tier::Portable => &fill_lanes::<8>(jobs, scoring, &corridor, lanes),
        // SAFETY: a `LaneTier` holds `Avx512` only when `LaneTier::supported`
        // saw `is_x86_feature_detected!` report "avx512bw", "avx512vl",
        // "avx512f", "avx2", "fma" and "f16c": the two features
        // `fill_avx512` enables and the four the compiler takes them to
        // imply, so the CPU runs every instruction it may contain.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => &unsafe { fill_avx512(jobs, scoring, &corridor, lanes) },
    };
    let tb = &scratch.lanes.tb;
    for (l, &(q, t)) in jobs.iter().enumerate() {
        let (score, end_j) = ends[l];
        let cigars = &mut scratch.cigars;
        out.push(traced(
            &tb[l..],
            width,
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

impl AlignScratch {
    /// Test support: overwrites every element of the lane kernel's buffers
    /// (score rows, codes, traceback) that [`banded_align_lanes`] on `tier`
    /// uses for jobs of an `n`-base query and an `m`-base target in `band`
    /// diagonals with copies of `poison` (at least two bytes), so a test can
    /// show that a call reads nothing an earlier call left behind.
    #[doc(hidden)]
    pub fn poison_lanes(&mut self, tier: LaneTier, n: usize, m: usize, band: usize, poison: &[u8]) {
        assert!(poison.len() >= 2, "poison of at least one cell");
        let (lanes, width) = (tier.width(), Corridor::new(n, m, band).width);
        let LaneScratch {
            h_prev,
            h_cur,
            f_prev,
            f_cur,
            q,
            t,
            tb,
        } = &mut self.lanes;
        let rows = [h_prev, h_cur, f_prev, f_cur].map(|row| (row, width + 1));
        for (buf, len) in rows.into_iter().chain([(q, n), (t, m)]) {
            let cells = grown(buf, len * lanes);
            for (cell, bytes) in cells.iter_mut().zip(poison.chunks_exact(2).cycle()) {
                *cell = i16::from_le_bytes([bytes[0], bytes[1]]);
            }
        }
        for chunk in grown(tb, (n + 1) * width * lanes).chunks_mut(poison.len()) {
            chunk.copy_from_slice(&poison[..chunk.len()]);
        }
    }
}

/// The fill at 16 lanes with AVX-512BW+VL instructions on 256-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw,avx512vl")]
fn fill_avx512(
    jobs: &[(&[u8], &[u8])],
    scoring: &Scoring,
    corridor: &Corridor,
    lanes: &mut LaneScratch,
) -> [(i32, usize); 16] {
    fill_lanes::<16>(jobs, scoring, corridor, lanes)
}

/// Fills the corridor for every lane; returns each lane's score and end
/// column. Lanes past `jobs.len()` align code-0 sequences nothing reads.
///
/// The traceback buffer is not reset: [`traced`] reads only corridor cells
/// of rows `1..=n` and the boundary column of the rows that reach it, and
/// this fill writes every one of those, so nothing a traceback reads is
/// left over from an earlier call. The score rows and codes are reset, as
/// the fill reads cells of the previous row outside its range.
#[inline(always)]
fn fill_lanes<const L: usize>(
    jobs: &[(&[u8], &[u8])],
    scoring: &Scoring,
    corridor: &Corridor,
    lanes: &mut LaneScratch,
) -> [(i32, usize); L] {
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
    let [mut h_prev, mut h_cur, mut f_prev, mut f_cur] =
        [h_prev, h_cur, f_prev, f_cur].map(|row| {
            let row = lane_rows::<_, L>(row, width + 1);
            row.fill([neg_inf; L]);
            row
        });
    let q = lane_rows::<_, L>(q, n);
    q.fill([0; L]);
    let t = lane_rows::<_, L>(t, m);
    t.fill([0; L]);
    for (l, &(qcodes, tcodes)) in jobs.iter().enumerate() {
        for (row, &code) in q.iter_mut().zip(qcodes) {
            row[l] = i16::from(code);
        }
        for (col, &code) in t.iter_mut().zip(tcodes) {
            col[l] = i16::from(code);
        }
    }
    let tb = lane_rows::<_, L>(tb, (n + 1) * width);

    // Row 0: the target's free start overhang.
    for j in 0..=corridor.jmax(0) {
        h_prev[corridor.off(0, j)] = [0; L];
    }

    for i in 1..=n {
        let (lo, hi) = (corridor.jmin(i), corridor.jmax(i));
        let start = lo.max(1);
        let first = corridor.off(i, start);
        let len = hi - start + 1;
        // The cell left of the first computed one: the boundary column, or
        // nothing at all, just outside the band.
        let mut h_left = [neg_inf; L];
        let mut e_left = [neg_inf; L];
        if lo == 0 {
            h_left = [cell(-scoring.gap_cost(i as u32)); L];
            h_cur[first - 1] = h_left;
            tb[i * width + first - 1] = [H_F | F_EXT; L];
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
            let (mut h, mut f, mut e, mut bits) = ([0; L], [0; L], [0; L], [0; L]);
            for l in 0..L {
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
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
    }

    // Each lane's end column: the leftmost best of the last row.
    let mut ends = [(neg_inf, corridor.jmin(n)); L];
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
