use crate::Scoring;
use gx_genome::{Cigar, CigarOp, DnaSeq};

/// Score value treated as minus infinity (kept far from `i32::MIN` so that
/// subtracting penalties cannot overflow).
pub(crate) const NEG_INF: i32 = i32::MIN / 4;

/// Boundary conditions of the affine-gap aligner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlignMode {
    /// Both sequences aligned end to end (Needleman–Wunsch).
    Global,
    /// The query aligns end to end; the target has free (unpenalized) start
    /// and end overhangs. This is the "fit" alignment a read mapper performs
    /// against a reference window.
    Fit,
    /// Best-scoring local alignment (Smith–Waterman).
    Local,
}

/// Result of a pairwise alignment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Alignment {
    /// Alignment score under the [`Scoring`] used.
    pub score: i32,
    /// CIGAR in query orientation using `=`/`X`/`I`/`D` ops. `I` consumes
    /// query, `D` consumes target.
    pub cigar: Cigar,
    /// First aligned query position (non-zero only in local mode).
    pub query_start: usize,
    /// One past the last aligned query position.
    pub query_end: usize,
    /// First aligned target position.
    pub target_start: usize,
    /// One past the last aligned target position.
    pub target_end: usize,
    /// Number of DP cells computed — the paper's "cell updates", used to
    /// express fallback work in MCUPS for GenDP sizing.
    pub cells: u64,
}

impl Alignment {
    /// Number of mismatching bases (from `X` runs).
    pub fn mismatches(&self) -> u64 {
        self.cigar.mismatch_bases()
    }
}

/// Reusable DP workspace for [`align`] and
/// [`banded_align`](crate::banded_align): the traceback matrix, the unpacked
/// base codes, and one set of score rows per cell width — 16-bit for the
/// banded kernel's short-read calls, 32-bit for its long ones and for
/// [`align`]. Buffers grow to the high-water mark of the alignments they have
/// seen and are re-filled (never reallocated) on subsequent calls, so a
/// scratch owned per mapping session makes the DP fallback allocation-free
/// in steady state.
#[derive(Default, Debug)]
pub struct AlignScratch {
    pub(crate) tb: Vec<u8>,
    pub(crate) qcodes: Vec<u8>,
    pub(crate) tcodes: Vec<u8>,
    pub(crate) narrow: ScoreRows<i16>,
    pub(crate) wide: ScoreRows<i32>,
}

impl AlignScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }
}

/// The score rows of one alignment call in cells of type `C`. [`align`] uses
/// the first three (`f_prev` as its F column); the banded kernel all of them.
#[derive(Default, Debug)]
pub(crate) struct ScoreRows<C> {
    pub(crate) h_prev: Vec<C>,
    pub(crate) h_cur: Vec<C>,
    pub(crate) f_prev: Vec<C>,
    pub(crate) f_cur: Vec<C>,
    /// Per-row temporaries: E, and what opening a deletion from each cell
    /// would give its right neighbour.
    pub(crate) e_row: Vec<C>,
    pub(crate) c_row: Vec<C>,
    /// Target profile: four rows of substitution scores over the window,
    /// row `q` at `q * m`.
    pub(crate) profile: Vec<C>,
    /// `ramp[k] = (k + 1) * gap_ext`, one entry per diagonal.
    pub(crate) ramp: Vec<C>,
}

// Traceback encoding, one byte per cell:
//   bits 0-1: H-matrix choice: 0 = diagonal, 1 = E (deletion), 2 = F
//             (insertion), 3 = stop (local-zero or boundary)
//   bit 2:    E extended from E (set) vs opened from H (clear)
//   bit 3:    F extended from F (set) vs opened from H (clear)
const H_DIAG: u8 = 0;
const H_E: u8 = 1;
const H_F: u8 = 2;
const H_STOP: u8 = 3;
const E_EXT: u8 = 1 << 2;
const F_EXT: u8 = 1 << 3;

/// Aligns `query` against `target` with affine gap penalties and full
/// traceback.
///
/// Returns the best [`Alignment`] under `mode`'s boundary conditions. The
/// full DP matrix is computed: memory is `O(|q| * |t|)` for traceback, so
/// use [`banded_align`](crate::banded_align) for long sequences.
///
/// # Panics
///
/// Panics if either sequence is empty.
pub fn align(query: &DnaSeq, target: &DnaSeq, scoring: &Scoring, mode: AlignMode) -> Alignment {
    align_with(query, target, scoring, mode, &mut AlignScratch::new())
}

/// [`align`] using caller-owned scratch buffers — identical result, no
/// allocation once `scratch` has grown to the workload's high-water mark.
pub fn align_with(
    query: &DnaSeq,
    target: &DnaSeq,
    scoring: &Scoring,
    mode: AlignMode,
    scratch: &mut AlignScratch,
) -> Alignment {
    assert!(
        !query.is_empty() && !target.is_empty(),
        "cannot align empty sequences"
    );
    let n = query.len();
    let m = target.len();
    let open = scoring.gap_open + scoring.gap_ext;
    let ext = scoring.gap_ext;

    let AlignScratch {
        tb,
        qcodes,
        tcodes,
        wide,
        ..
    } = scratch;
    let ScoreRows {
        h_prev,
        h_cur,
        f_prev: f_col,
        ..
    } = wide;
    tb.clear();
    tb.resize((n + 1) * (m + 1), 0u8);
    let idx = |i: usize, j: usize| i * (m + 1) + j;

    // Rolling rows for H and per-row E; column array for F.
    h_prev.clear();
    h_prev.resize(m + 1, 0i32);
    h_cur.clear();
    h_cur.resize(m + 1, 0i32);
    f_col.clear();
    f_col.resize(m + 1, NEG_INF);

    // Row 0 boundary.
    for j in 0..=m {
        h_prev[j] = match mode {
            AlignMode::Global => {
                if j == 0 {
                    0
                } else {
                    -scoring.gap_cost(j as u32)
                }
            }
            AlignMode::Fit | AlignMode::Local => 0,
        };
        tb[idx(0, j)] = if mode == AlignMode::Global && j > 0 {
            H_E | E_EXT // walk left along row 0
        } else {
            H_STOP
        };
    }

    let mut best = (NEG_INF, 0usize, 0usize); // (score, i, j) for local
    let mut cells = 0u64;
    query.codes_into(0..n, qcodes);
    target.codes_into(0..m, tcodes);

    for i in 1..=n {
        // Column 0 boundary.
        h_cur[0] = match mode {
            AlignMode::Global | AlignMode::Fit => -scoring.gap_cost(i as u32),
            AlignMode::Local => 0,
        };
        tb[idx(i, 0)] = match mode {
            AlignMode::Global | AlignMode::Fit => H_F | F_EXT,
            AlignMode::Local => H_STOP,
        };
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
            if mode == AlignMode::Local && h < 0 {
                h = 0;
                choice = H_STOP;
            }
            h_cur[j] = h;
            tb[idx(i, j)] = flags | choice;

            if mode == AlignMode::Local && h > best.0 {
                best = (h, i, j);
            }
        }
        std::mem::swap(h_prev, h_cur);
    }
    // h_prev now holds row n.

    let (score, end_i, end_j) = match mode {
        AlignMode::Global => (h_prev[m], n, m),
        AlignMode::Fit => {
            let (mut bj, mut bs) = (0usize, NEG_INF);
            #[allow(clippy::needless_range_loop)] // j is a coordinate, not just an index
            for j in 0..=m {
                if h_prev[j] > bs {
                    bs = h_prev[j];
                    bj = j;
                }
            }
            (bs, n, bj)
        }
        AlignMode::Local => (best.0.max(0), best.1, best.2),
    };

    let (cigar, start_i, start_j) = traceback(tb, m, end_i, end_j, qcodes, tcodes);
    Alignment {
        score,
        cigar,
        query_start: start_i,
        query_end: end_i,
        target_start: start_j,
        target_end: end_j,
        cells,
    }
}

/// Walks the traceback matrix from `(end_i, end_j)` back to a stop cell,
/// returning the CIGAR (query orientation) and the start coordinates.
fn traceback(
    tb: &[u8],
    m: usize,
    end_i: usize,
    end_j: usize,
    qcodes: &[u8],
    tcodes: &[u8],
) -> (Cigar, usize, usize) {
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    #[derive(PartialEq)]
    enum State {
        H,
        E,
        F,
    }
    let mut rev = Cigar::new();
    let (mut i, mut j) = (end_i, end_j);
    let mut state = State::H;
    loop {
        match state {
            State::H => {
                let choice = tb[idx(i, j)] & 3;
                match choice {
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
                }
            }
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
        if i == 0 && matches!(state, State::H) {
            // Remaining leftward movement is only meaningful in global mode
            // (handled by the stored H_E/E_EXT boundary codes) or means we
            // reached the free target prefix (fit/local): stop.
            if tb[idx(0, j)] & 3 == H_STOP {
                break;
            }
        }
    }
    (rev.reversed(), i, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn global_identity() {
        let a = align(
            &seq("ACGTACGT"),
            &seq("ACGTACGT"),
            &Scoring::short_read(),
            AlignMode::Global,
        );
        assert_eq!(a.score, 16);
        assert_eq!(a.cigar.to_string(), "8=");
        assert_eq!(a.cells, 64);
    }

    #[test]
    fn global_one_mismatch() {
        let a = align(
            &seq("ACGTACGT"),
            &seq("ACGAACGT"),
            &Scoring::short_read(),
            AlignMode::Global,
        );
        assert_eq!(a.score, 14 - 8);
        assert_eq!(a.cigar.to_string(), "3=1X4=");
    }

    #[test]
    fn global_deletion() {
        // target has 2 extra bases -> deletion (consumes target)
        let a = align(
            &seq("ACGTACGT"),
            &seq("ACGTGGACGT"),
            &Scoring::short_read(),
            AlignMode::Global,
        );
        assert_eq!(a.score, 16 - 16); // 8 matches - (12 + 2*2)
        assert_eq!(a.cigar.to_string(), "4=2D4=");
    }

    #[test]
    fn global_insertion() {
        let a = align(
            &seq("ACGTGGACGT"),
            &seq("ACGTACGT"),
            &Scoring::short_read(),
            AlignMode::Global,
        );
        assert_eq!(a.score, 16 - 16);
        assert_eq!(a.cigar.to_string(), "4=2I4=");
    }

    #[test]
    fn fit_finds_offset() {
        let a = align(
            &seq("ACGTACGT"),
            &seq("TTTTACGTACGTTTTT"),
            &Scoring::short_read(),
            AlignMode::Fit,
        );
        assert_eq!(a.score, 16);
        assert_eq!(a.target_start, 4);
        assert_eq!(a.target_end, 12);
        assert_eq!(a.cigar.to_string(), "8=");
        assert_eq!(a.cigar.query_len(), 8);
    }

    #[test]
    fn fit_with_indel() {
        // read has 2 inserted bases in the middle of a window context
        let a = align(
            &seq("ACGTACGTGGTTACTTAC"),
            &seq("CCCCACGTACGTTTACTTACCCC"),
            &Scoring::short_read(),
            AlignMode::Fit,
        );
        // 16 matching bases * 2 ... verify query fully consumed
        assert_eq!(a.cigar.query_len(), 18);
        assert!(a.cigar.gap_bases() >= 2);
    }

    #[test]
    fn local_extracts_core() {
        let a = align(
            &seq("TTTTACGTACGTTTTT"),
            &seq("GGGGACGTACGTGGGG"),
            &Scoring::short_read(),
            AlignMode::Local,
        );
        assert_eq!(a.score, 16);
        assert_eq!(a.cigar.to_string(), "8=");
        assert_eq!(a.query_start, 4);
        assert_eq!(a.target_start, 4);
    }

    #[test]
    fn local_never_negative() {
        let a = align(
            &seq("AAAA"),
            &seq("TTTT"),
            &Scoring::short_read(),
            AlignMode::Local,
        );
        assert_eq!(a.score, 0);
    }

    #[test]
    fn fit_cigar_consumes_whole_query() {
        let q = seq("ACGGTTACGGTAGACCA");
        let t = seq("TTACGGTTACGGTAGACCATT");
        let a = align(&q, &t, &Scoring::short_read(), AlignMode::Fit);
        assert_eq!(a.cigar.query_len() as usize, q.len());
        assert_eq!(a.target_end - a.target_start, a.cigar.ref_len() as usize);
    }

    #[test]
    fn global_score_matches_cigar_reconstruction() {
        let s = Scoring::short_read();
        let q = seq("ACGTACGTACGTAC");
        let t = seq("ACGTACCGTACGTC");
        let a = align(&q, &t, &s, AlignMode::Global);
        // Recompute score from CIGAR.
        let mut score = 0i32;
        for &(n, op) in a.cigar.runs() {
            score += match op {
                gx_genome::CigarOp::Equal => s.match_score * n as i32,
                gx_genome::CigarOp::Diff => -s.mismatch * n as i32,
                gx_genome::CigarOp::Ins | gx_genome::CigarOp::Del => -s.gap_cost(n),
                _ => 0,
            };
        }
        assert_eq!(score, a.score);
    }
}
