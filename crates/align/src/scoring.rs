/// An affine-gap scoring scheme.
///
/// Penalties (`mismatch`, `gap_open`, `gap_ext`) are stored as positive
/// magnitudes; a gap of length `k` costs `gap_open + k * gap_ext`. The
/// default [`Scoring::short_read`] scheme is minimap2's `sr` preset
/// (`-A2 -B8 -O12 -E2`), under which a perfect 150 bp read scores 300 and
/// the paper's Table 1 scores fall out exactly:
///
/// ```
/// use gx_align::Scoring;
/// let s = Scoring::short_read();
/// assert_eq!(s.perfect(150), 300);
/// assert_eq!(s.perfect(150) - s.mismatch_loss(), 290);  // 1 mismatch
/// assert_eq!(s.perfect(150) - s.gap_cost(1), 286);      // 1 deletion
/// assert_eq!(s.perfect(149) - s.gap_cost(1), 284);      // 1 insertion
/// ```
///
/// minimap2's second affine function (`-O2 32 -E2 1`) only changes gap costs
/// for runs longer than 20 bases, which never occur in the light-alignment
/// regime; we use the single affine function throughout for consistency
/// between the analytic scores and the DP aligners.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Scoring {
    /// Score added per matching base (positive).
    pub match_score: i32,
    /// Penalty per mismatching base (positive magnitude).
    pub mismatch: i32,
    /// Gap opening penalty (positive magnitude).
    pub gap_open: i32,
    /// Gap extension penalty per base, applied to every gap base including
    /// the first (positive magnitude).
    pub gap_ext: i32,
}

impl Scoring {
    /// minimap2 short-read preset: `+2 / -8 / 12 / 2`.
    pub const fn short_read() -> Scoring {
        Scoring {
            match_score: 2,
            mismatch: 8,
            gap_open: 12,
            gap_ext: 2,
        }
    }

    /// minimap2 long-read (map-pb-like) preset: `+2 / -5 / 4 / 2`. Used for
    /// the §4.7 long-read pipeline where higher error rates make the
    /// short-read penalties too harsh.
    pub fn long_read() -> Scoring {
        Scoring {
            match_score: 2,
            mismatch: 5,
            gap_open: 4,
            gap_ext: 2,
        }
    }

    /// Score of a perfect (all-match) alignment of `len` bases.
    #[inline]
    pub fn perfect(&self, len: usize) -> i32 {
        self.match_score * len as i32
    }

    /// Cost of a gap run of `len` bases (positive magnitude). A zero-length
    /// gap costs nothing.
    #[inline]
    pub fn gap_cost(&self, len: u32) -> i32 {
        if len == 0 {
            0
        } else {
            self.gap_open + self.gap_ext * len as i32
        }
    }

    /// Score delta of turning one match into a mismatch.
    #[inline]
    pub fn mismatch_loss(&self) -> i32 {
        self.match_score + self.mismatch
    }

    /// Score of substituting base `a` with base `b` (match bonus or mismatch
    /// penalty).
    #[inline]
    pub fn substitution(&self, a: u8, b: u8) -> i32 {
        if a == b {
            self.match_score
        } else {
            -self.mismatch
        }
    }

    /// Analytic score of an ungapped alignment of `len` bases with
    /// `mismatches` mismatching positions.
    #[inline]
    pub fn ungapped(&self, len: usize, mismatches: usize) -> i32 {
        debug_assert!(mismatches <= len);
        self.match_score * (len - mismatches) as i32 - self.mismatch * mismatches as i32
    }
}

impl Default for Scoring {
    /// The short-read preset.
    fn default() -> Scoring {
        Scoring::short_read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_from_analytic_scores() {
        // Reproduces the paper's Table 1 for 150 bp reads.
        let s = Scoring::short_read();
        let perfect = s.perfect(150);
        assert_eq!(perfect, 300);
        // 1 mismatch
        assert_eq!(s.ungapped(150, 1), 290);
        // 1 deletion (all 150 read bases still match)
        assert_eq!(perfect - s.gap_cost(1), 286);
        // 1 insertion (149 read bases match)
        assert_eq!(s.perfect(149) - s.gap_cost(1), 284);
        // 2..5 consecutive deletions
        assert_eq!(perfect - s.gap_cost(2), 284);
        assert_eq!(perfect - s.gap_cost(3), 282);
        assert_eq!(perfect - s.gap_cost(4), 280);
        assert_eq!(perfect - s.gap_cost(5), 278);
        // 2 mismatches
        assert_eq!(s.ungapped(150, 2), 280);
        // 2 consecutive insertions
        assert_eq!(s.perfect(148) - s.gap_cost(2), 280);
        // 1 mismatch & 1 deletion
        assert_eq!(s.ungapped(150, 1) - s.gap_cost(1), 276);
    }

    #[test]
    fn gap_cost_zero_is_free() {
        assert_eq!(Scoring::short_read().gap_cost(0), 0);
    }

    #[test]
    fn substitution_signs() {
        let s = Scoring::short_read();
        assert_eq!(s.substitution(1, 1), 2);
        assert_eq!(s.substitution(1, 2), -8);
    }
}
