use crate::GenomeError;

/// A single CIGAR operation kind, following SAM semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CigarOp {
    /// Alignment match or mismatch (`M`): consumes query and reference.
    Match,
    /// Sequence match (`=`): consumes query and reference.
    Equal,
    /// Sequence mismatch (`X`): consumes query and reference.
    Diff,
    /// Insertion to the reference (`I`): consumes query only.
    Ins,
    /// Deletion from the reference (`D`): consumes reference only.
    Del,
    /// Soft clip (`S`): consumes query only.
    SoftClip,
}

impl CigarOp {
    /// SAM single-character code.
    pub fn to_char(self) -> char {
        match self {
            CigarOp::Match => 'M',
            CigarOp::Equal => '=',
            CigarOp::Diff => 'X',
            CigarOp::Ins => 'I',
            CigarOp::Del => 'D',
            CigarOp::SoftClip => 'S',
        }
    }

    /// Parses a SAM op character.
    pub fn from_char(c: char) -> Option<CigarOp> {
        Some(match c {
            'M' => CigarOp::Match,
            '=' => CigarOp::Equal,
            'X' => CigarOp::Diff,
            'I' => CigarOp::Ins,
            'D' => CigarOp::Del,
            'S' => CigarOp::SoftClip,
            _ => return None,
        })
    }

    /// Whether the op advances through the query (read).
    pub fn consumes_query(self) -> bool {
        !matches!(self, CigarOp::Del)
    }

    /// Whether the op advances through the reference.
    pub fn consumes_ref(self) -> bool {
        matches!(
            self,
            CigarOp::Match | CigarOp::Equal | CigarOp::Diff | CigarOp::Del
        )
    }
}

/// A CIGAR string: run-length encoded alignment operations.
///
/// Adjacent pushes of the same op coalesce, so building a CIGAR column by
/// column during DP traceback yields the canonical compact form.
///
/// ```
/// use gx_genome::{Cigar, CigarOp};
///
/// let mut c = Cigar::new();
/// c.push(CigarOp::Match, 50);
/// c.push(CigarOp::Match, 10);
/// c.push(CigarOp::Ins, 2);
/// c.push(CigarOp::Match, 90);
/// assert_eq!(c.to_string(), "60M2I90M");
/// assert_eq!(c.query_len(), 152);
/// assert_eq!(c.ref_len(), 150);
/// ```
#[derive(Clone)]
pub struct Cigar {
    /// Runs live inline until they outgrow the fixed buffer, then move to
    /// `spill` for good (runs only ever grow). Steady-state mapping emits
    /// short `=`/`X`/indel CIGARs, so the mapper hot path never touches the
    /// allocator when building, cloning or dropping one.
    inline: [(u32, CigarOp); Cigar::INLINE_RUNS],
    inline_len: u8,
    spill: Vec<(u32, CigarOp)>,
}

impl Cigar {
    /// Runs held without a heap allocation. A read with up to three
    /// mismatches (`=X=X=X=`) or one indel still fits inline.
    pub const INLINE_RUNS: usize = 8;

    /// Creates an empty CIGAR.
    pub fn new() -> Cigar {
        Cigar::default()
    }

    /// Builds a CIGAR from `(len, op)` runs, coalescing adjacent equal ops.
    pub fn from_runs<I: IntoIterator<Item = (u32, CigarOp)>>(runs: I) -> Cigar {
        let mut c = Cigar::new();
        for (n, op) in runs {
            c.push(op, n);
        }
        c
    }

    /// Parses a SAM CIGAR string such as `"60M2I90M"`.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidCigar`] on malformed input.
    pub fn parse(s: &str) -> Result<Cigar, GenomeError> {
        let mut c = Cigar::new();
        let mut num = 0u32;
        let mut have_num = false;
        for ch in s.chars() {
            if let Some(d) = ch.to_digit(10) {
                num = num
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(d))
                    .ok_or_else(|| GenomeError::InvalidCigar(s.to_string()))?;
                have_num = true;
            } else {
                let op = CigarOp::from_char(ch)
                    .ok_or_else(|| GenomeError::InvalidCigar(s.to_string()))?;
                if !have_num || num == 0 {
                    return Err(GenomeError::InvalidCigar(s.to_string()));
                }
                c.push(op, num);
                num = 0;
                have_num = false;
            }
        }
        if have_num {
            return Err(GenomeError::InvalidCigar(s.to_string()));
        }
        Ok(c)
    }

    /// Appends `n` copies of `op`, coalescing with the previous run when the
    /// ops match. Pushing `n == 0` is a no-op.
    pub fn push(&mut self, op: CigarOp, n: u32) {
        if n == 0 {
            return;
        }
        if !self.spill.is_empty() {
            if let Some(last) = self.spill.last_mut() {
                if last.1 == op {
                    last.0 += n;
                    return;
                }
            }
            self.spill.push((n, op));
            return;
        }
        let len = self.inline_len as usize;
        if len > 0 && self.inline[len - 1].1 == op {
            self.inline[len - 1].0 += n;
        } else if len < Cigar::INLINE_RUNS {
            self.inline[len] = (n, op);
            self.inline_len += 1;
        } else {
            self.spill.reserve(Cigar::INLINE_RUNS + 1);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push((n, op));
        }
    }

    /// Removes every run. Heap memory a longer CIGAR left is kept, so a
    /// cleared CIGAR takes as many runs again without allocating.
    pub fn clear(&mut self) {
        self.inline_len = 0;
        self.spill.clear();
    }

    /// Whether the CIGAR holds heap memory: its runs outgrew the inline
    /// buffer at some point (and [`clear`](Cigar::clear) kept the memory).
    pub fn has_heap_capacity(&self) -> bool {
        self.spill.capacity() > 0
    }

    /// The `(len, op)` runs.
    pub fn runs(&self) -> &[(u32, CigarOp)] {
        if self.spill.is_empty() {
            &self.inline[..self.inline_len as usize]
        } else {
            &self.spill
        }
    }

    /// Whether no operations are recorded.
    pub fn is_empty(&self) -> bool {
        self.runs().is_empty()
    }

    /// Number of query (read) bases consumed.
    pub fn query_len(&self) -> u64 {
        self.runs()
            .iter()
            .filter(|(_, op)| op.consumes_query())
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Number of reference bases consumed.
    pub fn ref_len(&self) -> u64 {
        self.runs()
            .iter()
            .filter(|(_, op)| op.consumes_ref())
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Total inserted + deleted bases (gap bases).
    pub fn gap_bases(&self) -> u64 {
        self.runs()
            .iter()
            .filter(|(_, op)| matches!(op, CigarOp::Ins | CigarOp::Del))
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Number of mismatch bases, if the CIGAR distinguishes `=`/`X`.
    /// `M` runs are counted as matches, so callers that need exact mismatch
    /// counts should emit `=`/`X` CIGARs.
    pub fn mismatch_bases(&self) -> u64 {
        self.runs()
            .iter()
            .filter(|(_, op)| matches!(op, CigarOp::Diff))
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Collapses `=`/`X` runs into `M` runs (SAM's classic form).
    pub fn to_m_form(&self) -> Cigar {
        let mut out = Cigar::new();
        for &(n, op) in self.runs() {
            let op = match op {
                CigarOp::Equal | CigarOp::Diff => CigarOp::Match,
                other => other,
            };
            out.push(op, n);
        }
        out
    }

    /// Reverses the run order (for alignments built back-to-front).
    pub fn reversed(&self) -> Cigar {
        let mut out = Cigar::new();
        for &(n, op) in self.runs().iter().rev() {
            out.push(op, n);
        }
        out
    }
}

impl Default for Cigar {
    fn default() -> Cigar {
        Cigar {
            inline: [(0, CigarOp::Match); Cigar::INLINE_RUNS],
            inline_len: 0,
            spill: Vec::new(),
        }
    }
}

impl PartialEq for Cigar {
    fn eq(&self, other: &Cigar) -> bool {
        self.runs() == other.runs()
    }
}

impl Eq for Cigar {}

impl std::hash::Hash for Cigar {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.runs().hash(state);
    }
}

impl std::fmt::Debug for Cigar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cigar(\"{self}\")")
    }
}

impl std::fmt::Display for Cigar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let runs = self.runs();
        if runs.is_empty() {
            return write!(f, "*");
        }
        for &(n, op) in runs {
            write!(f, "{n}{}", op.to_char())?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Cigar {
    type Err = GenomeError;

    fn from_str(s: &str) -> Result<Cigar, GenomeError> {
        Cigar::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        let c = Cigar::parse("10M2I3D1X50=5S").unwrap();
        assert_eq!(c.to_string(), "10M2I3D1X50=5S");
    }

    #[test]
    fn push_coalesces() {
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 5);
        c.push(CigarOp::Match, 5);
        c.push(CigarOp::Ins, 0); // no-op
        c.push(CigarOp::Ins, 1);
        assert_eq!(c.to_string(), "10M1I");
        assert_eq!(c.runs().len(), 2);
    }

    #[test]
    fn lengths() {
        let c = Cigar::parse("10M2I3D5M").unwrap();
        assert_eq!(c.query_len(), 17);
        assert_eq!(c.ref_len(), 18);
        assert_eq!(c.gap_bases(), 5);
    }

    #[test]
    fn soft_clip_consumes_query_only() {
        let c = Cigar::parse("5S10M").unwrap();
        assert_eq!(c.query_len(), 15);
        assert_eq!(c.ref_len(), 10);
    }

    #[test]
    fn m_form_collapse() {
        let c = Cigar::parse("5=1X4=2I5=").unwrap();
        assert_eq!(c.to_m_form().to_string(), "10M2I5M");
        assert_eq!(c.mismatch_bases(), 1);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Cigar::parse("M").is_err());
        assert!(Cigar::parse("10").is_err());
        assert!(Cigar::parse("0M").is_err());
        assert!(Cigar::parse("10Q").is_err());
        assert!(Cigar::parse("99999999999M").is_err());
    }

    #[test]
    fn empty_displays_star() {
        assert_eq!(Cigar::new().to_string(), "*");
    }

    #[test]
    fn spill_past_inline_capacity_preserves_runs() {
        // 2 * INLINE_RUNS + 1 alternating runs forces the heap spill; the
        // observable run list must be identical to a reference built the
        // same way, and equality/hashing must not care which storage a
        // cigar's runs live in.
        let mut big = Cigar::new();
        let mut expect = Vec::new();
        for i in 0..(2 * 8 + 1) {
            let op = if i % 2 == 0 {
                CigarOp::Equal
            } else {
                CigarOp::Diff
            };
            big.push(op, i + 1);
            expect.push((i + 1, op));
        }
        assert_eq!(big.runs(), expect.as_slice());
        assert_eq!(
            big.query_len(),
            expect.iter().map(|&(n, _)| n as u64).sum::<u64>()
        );
        let reparsed = Cigar::parse(&big.to_string()).unwrap();
        assert_eq!(reparsed, big);
        assert_eq!(big.reversed().reversed(), big);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |c: &Cigar| {
            let mut s = DefaultHasher::new();
            c.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&reparsed), h(&big));
    }
}
