use crate::{Bitset, DnaSeq, GenomeError, GlobalPos};

/// A named chromosome: a packed sequence plus an optional ambiguity mask
/// marking positions that were `N` in the source FASTA.
#[derive(Clone, Debug)]
pub struct Chromosome {
    name: String,
    seq: DnaSeq,
    n_mask: Option<Bitset>,
}

impl Chromosome {
    /// Creates a chromosome without ambiguous positions.
    pub fn new(name: impl Into<String>, seq: DnaSeq) -> Chromosome {
        Chromosome {
            name: name.into(),
            seq,
            n_mask: None,
        }
    }

    /// Creates a chromosome with an ambiguity mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the sequence length.
    pub fn with_n_mask(name: impl Into<String>, seq: DnaSeq, n_mask: Bitset) -> Chromosome {
        assert_eq!(
            n_mask.len(),
            seq.len(),
            "N mask length must equal sequence length"
        );
        Chromosome {
            name: name.into(),
            seq,
            n_mask: Some(n_mask),
        }
    }

    /// Chromosome name (FASTA header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The packed sequence.
    pub fn seq(&self) -> &DnaSeq {
        &self.seq
    }

    /// Sequence length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the chromosome is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Whether any position in `[start, end)` was ambiguous (`N`) in the
    /// source. Seed extraction skips such windows, as GenPair does.
    pub fn has_n_in(&self, start: usize, end: usize) -> bool {
        match &self.n_mask {
            Some(mask) => mask.any_in_range(start, end),
            None => false,
        }
    }
}

/// A reference location: chromosome index plus 0-based position.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Locus {
    /// Index into [`ReferenceGenome::chromosomes`].
    pub chrom: u32,
    /// 0-based offset within the chromosome.
    pub pos: u64,
}

impl std::fmt::Display for Locus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chr{}:{}", self.chrom, self.pos)
    }
}

/// A multi-chromosome reference genome with a flat global coordinate space.
///
/// The SeedMap location table stores 32-bit *global positions*: offsets into
/// the concatenation of all chromosomes. [`ReferenceGenome::locate`] maps a
/// global position back to a [`Locus`]; a locus sits at global position
/// [`chrom_start`](ReferenceGenome::chrom_start)`(chrom) + pos`.
///
/// ```
/// use gx_genome::{Chromosome, DnaSeq, ReferenceGenome};
///
/// # fn main() -> Result<(), gx_genome::GenomeError> {
/// let genome = ReferenceGenome::from_chromosomes(vec![
///     Chromosome::new("chr1", DnaSeq::from_ascii(b"ACGTACGT")?),
///     Chromosome::new("chr2", DnaSeq::from_ascii(b"TTTT")?),
/// ]);
/// assert_eq!(genome.total_len(), 12);
/// let locus = genome.locate(9);
/// assert_eq!((locus.chrom, locus.pos), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ReferenceGenome {
    chroms: Vec<Chromosome>,
    /// Global start offset of each chromosome; last element = total length.
    starts: Vec<u64>,
}

impl ReferenceGenome {
    /// Builds a genome from chromosomes.
    ///
    /// # Panics
    ///
    /// Panics if the total length exceeds `u32::MAX` (the SeedMap location
    /// table stores 32-bit global positions).
    pub fn from_chromosomes(chroms: Vec<Chromosome>) -> ReferenceGenome {
        let mut starts = Vec::with_capacity(chroms.len() + 1);
        let mut acc = 0u64;
        for c in &chroms {
            starts.push(acc);
            acc += c.len() as u64;
        }
        starts.push(acc);
        assert!(
            acc <= u32::MAX as u64,
            "genome too large for 32-bit global positions: {acc}"
        );
        ReferenceGenome { chroms, starts }
    }

    /// The chromosomes, in index order.
    pub fn chromosomes(&self) -> &[Chromosome] {
        &self.chroms
    }

    /// Chromosome by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn chromosome(&self, idx: u32) -> &Chromosome {
        &self.chroms[idx as usize]
    }

    /// Number of chromosomes.
    pub fn num_chromosomes(&self) -> usize {
        self.chroms.len()
    }

    /// Total length across chromosomes.
    pub fn total_len(&self) -> u64 {
        *self.starts.last().expect("starts is never empty")
    }

    /// Global start offset of chromosome `idx`.
    pub fn chrom_start(&self, idx: u32) -> u64 {
        self.starts[idx as usize]
    }

    /// Converts a global position back into a locus.
    ///
    /// # Panics
    ///
    /// Panics if `gpos` is past the end of the genome.
    pub fn locate(&self, gpos: GlobalPos) -> Locus {
        let g = gpos as u64;
        assert!(g < self.total_len(), "global position {g} out of bounds");
        // starts is sorted; find the last chromosome starting at or before g.
        let idx = match self.starts.binary_search(&g) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        // Guard against hitting the sentinel (total length) for g == start of
        // an empty trailing chromosome.
        let idx = idx.min(self.chroms.len() - 1);
        Locus {
            chrom: idx as u32,
            pos: g - self.starts[idx],
        }
    }

    /// Extracts `[start, start+len)` in global coordinates as a sequence.
    /// The window must not cross a chromosome boundary.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::OutOfBounds`] if the window crosses a boundary
    /// or exceeds the genome.
    pub fn global_window(&self, start: GlobalPos, len: usize) -> Result<DnaSeq, GenomeError> {
        if (start as u64) + (len as u64) > self.total_len() {
            return Err(GenomeError::OutOfBounds {
                pos: start as u64 + len as u64,
                len: self.total_len(),
            });
        }
        let locus = self.locate(start);
        let chrom = &self.chroms[locus.chrom as usize];
        let p = locus.pos as usize;
        if p + len > chrom.len() {
            return Err(GenomeError::OutOfBounds {
                pos: (p + len) as u64,
                len: chrom.len() as u64,
            });
        }
        Ok(chrom.seq().subseq(p..p + len))
    }

    /// A window clamped to the chromosome: like [`Self::global_window`] but
    /// truncates at chromosome edges instead of failing, returning the actual
    /// start used. Useful for extracting reference context around a candidate
    /// mapping with margins.
    pub fn clamped_window(&self, chrom: u32, start: i64, len: usize) -> (u64, DnaSeq) {
        let mut out = DnaSeq::new();
        let s = self.clamped_window_into(chrom, start, len, &mut out);
        (s, out)
    }

    /// [`Self::clamped_window`] into a caller-owned buffer (cleared first):
    /// the allocation-free variant the mapper's scratch arena uses when
    /// extracting one reference window per candidate.
    pub fn clamped_window_into(&self, chrom: u32, start: i64, len: usize, out: &mut DnaSeq) -> u64 {
        let c = &self.chroms[chrom as usize];
        let s = start.max(0) as u64;
        let s = s.min(c.len() as u64);
        let e = (s + len as u64).min(c.len() as u64);
        c.seq().copy_range_into(s as usize..e as usize, out);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome() -> ReferenceGenome {
        ReferenceGenome::from_chromosomes(vec![
            Chromosome::new("chr1", DnaSeq::from_ascii(b"ACGTACGTAC").unwrap()),
            Chromosome::new("chr2", DnaSeq::from_ascii(b"GGGG").unwrap()),
            Chromosome::new("chr3", DnaSeq::from_ascii(b"TTTTTT").unwrap()),
        ])
    }

    #[test]
    fn global_roundtrip() {
        let g = genome();
        for chrom in 0..3u32 {
            for pos in 0..g.chromosome(chrom).len() as u64 {
                let gp = (g.chrom_start(chrom) + pos) as GlobalPos;
                assert_eq!(g.locate(gp), Locus { chrom, pos });
            }
        }
    }

    #[test]
    fn total_len_sums() {
        assert_eq!(genome().total_len(), 20);
    }

    #[test]
    fn window_within_chromosome() {
        let g = genome();
        assert_eq!(g.global_window(10, 4).unwrap().to_string(), "GGGG");
    }

    #[test]
    fn window_crossing_boundary_fails() {
        let g = genome();
        assert!(g.global_window(8, 4).is_err());
    }

    #[test]
    fn clamped_window_truncates() {
        let g = genome();
        let (s, w) = g.clamped_window(1, -2, 10);
        assert_eq!(s, 0);
        assert_eq!(w.to_string(), "GGGG");
    }

    #[test]
    fn n_mask_queries() {
        let mut mask = Bitset::new(10);
        mask.set(4);
        let c = Chromosome::with_n_mask("c", DnaSeq::from_ascii(b"ACGTACGTAC").unwrap(), mask);
        assert!(c.has_n_in(0, 10));
        assert!(c.has_n_in(4, 5));
        assert!(!c.has_n_in(5, 10));
        assert!(!c.has_n_in(0, 4));
    }
}
