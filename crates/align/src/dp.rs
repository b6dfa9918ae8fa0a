use crate::lanes::LaneScratch;
use crate::{banded_align_with, Scoring};
use gx_genome::{Cigar, CigarOp, DnaSeq};

/// Boundary conditions of the affine-gap aligner. Fit is the only one: the
/// query aligns end to end and the target has free (unpenalized) start and
/// end overhangs — the alignment a read mapper performs against a reference
/// window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlignMode {
    /// Query-global, target-free.
    Fit,
}

/// Result of a pairwise fit alignment. The whole query is aligned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Alignment {
    /// Alignment score under the [`Scoring`] used.
    pub score: i32,
    /// CIGAR in query orientation using `=`/`X`/`I`/`D` ops. `I` consumes
    /// query, `D` consumes target.
    pub cigar: Cigar,
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

/// Reusable DP workspace for [`banded_align_with`] and its two code-level
/// entries: the unpacked base codes, the row kernel's traceback matrix and
/// score rows (one set per cell width — 16-bit for short-read calls, 32-bit
/// for long ones), and the lane kernel's interleaved rows. Buffers grow to
/// the high-water mark of the alignments they have seen and are re-filled
/// (never reallocated) on subsequent calls, so a scratch owned per mapping
/// session makes the DP fallback allocation-free in steady state.
#[derive(Default, Debug)]
pub struct AlignScratch {
    pub(crate) qcodes: Vec<u8>,
    pub(crate) tcodes: Vec<u8>,
    pub(crate) rows: RowScratch,
    pub(crate) lanes: LaneScratch,
    pub(crate) cigars: CigarScratch,
}

/// Most CIGARs [`AlignScratch::recycle`] keeps: a batch's worth of DP
/// jobs; beyond it, a given-back CIGAR is dropped.
const SPARE_CIGARS: usize = 64;

/// Where tracebacks build their CIGARs: the runs of the one being traced,
/// back to front, and CIGARs whose heap memory the caller gave back.
#[derive(Default, Debug)]
pub(crate) struct CigarScratch {
    pub(crate) runs: Vec<(u32, CigarOp)>,
    pub(crate) spare: Vec<Cigar>,
}

impl CigarScratch {
    /// A CIGAR of `runs`, back to front. One longer than the inline buffer
    /// reuses a spare's heap memory when there is one.
    pub(crate) fn build(&mut self) -> Cigar {
        let mut cigar = if self.runs.len() > Cigar::INLINE_RUNS {
            self.spare.pop().unwrap_or_default()
        } else {
            Cigar::new()
        };
        cigar.clear();
        for &(n, op) in self.runs.iter().rev() {
            cigar.push(op, n);
        }
        cigar
    }
}

/// The row kernel's buffers.
#[derive(Default, Debug)]
pub(crate) struct RowScratch {
    pub(crate) tb: Vec<u8>,
    pub(crate) narrow: ScoreRows<i16>,
    pub(crate) wide: ScoreRows<i32>,
}

impl AlignScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }

    /// Gives back the CIGAR of an alignment the caller no longer needs. One
    /// that holds heap memory (more runs than a CIGAR keeps inline) is kept,
    /// up to a batch's worth, for the next long traceback, so a loop that
    /// gives back its losing alignments allocates no CIGAR in steady state.
    pub fn recycle(&mut self, cigar: Cigar) {
        if cigar.has_heap_capacity() && self.cigars.spare.len() < SPARE_CIGARS {
            self.cigars.spare.push(cigar);
        }
    }
}

/// The score rows of one alignment call in cells of type `C`.
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

/// Fit-aligns `query` against `target` with affine gap penalties and full
/// traceback, over the whole DP matrix: the banded kernel at band
/// `min(|query|, |target|)`, which covers every cell. Traceback memory is
/// `O(|q| * (|q| + |t|))`, so long sequences belong to
/// [`banded_align_with`] at a narrower band.
///
/// # Panics
///
/// Panics if either sequence is empty. `scoring.gap_open` and
/// `scoring.gap_ext` must not be negative.
pub fn align(query: &DnaSeq, target: &DnaSeq, scoring: &Scoring) -> Alignment {
    let band = query.len().min(target.len());
    banded_align_with(
        query,
        target,
        scoring,
        band,
        AlignMode::Fit,
        &mut AlignScratch::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn fit_finds_offset() {
        let a = align(
            &seq("ACGTACGT"),
            &seq("TTTTACGTACGTTTTT"),
            &Scoring::short_read(),
        );
        assert_eq!(a.score, 16);
        assert_eq!(a.target_start, 4);
        assert_eq!(a.target_end, 12);
        assert_eq!(a.cigar.to_string(), "8=");
        assert_eq!(a.cigar.query_len(), 8);
        assert_eq!(a.cells, 8 * 16);
    }

    #[test]
    fn fit_with_indel() {
        // read has 2 inserted bases in the middle of a window context
        let a = align(
            &seq("ACGTACGTGGTTACTTAC"),
            &seq("CCCCACGTACGTTTACTTACCCC"),
            &Scoring::short_read(),
        );
        // 16 matching bases * 2 ... verify query fully consumed
        assert_eq!(a.cigar.query_len(), 18);
        assert!(a.cigar.gap_bases() >= 2);
    }

    #[test]
    fn fit_cigar_consumes_whole_query() {
        let q = seq("ACGGTTACGGTAGACCA");
        let t = seq("TTACGGTTACGGTAGACCATT");
        let a = align(&q, &t, &Scoring::short_read());
        assert_eq!(a.cigar.query_len() as usize, q.len());
        assert_eq!(a.target_end - a.target_start, a.cigar.ref_len() as usize);
    }
}
