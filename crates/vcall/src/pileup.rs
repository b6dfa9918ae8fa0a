use gx_genome::{CigarOp, ReferenceGenome, SamRecord};
use std::collections::HashMap;

/// An observed insertion or deletion at a reference anchor.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct IndelKey {
    pub chrom: u32,
    /// Anchor position: first deleted base (DEL) or the base before which
    /// sequence is inserted (INS) — matching
    /// [`gx_genome::variant::Variant`] semantics.
    pub pos: u64,
    /// Positive = insertion of this many bases; negative = deletion.
    pub signed_len: i32,
}

/// Per-position base counts plus indel observations over a genome.
///
/// ```
/// use gx_genome::{random::RandomGenomeBuilder, Cigar, DnaSeq, SamRecord};
/// use gx_vcall::Pileup;
///
/// # fn main() -> Result<(), gx_genome::GenomeError> {
/// let genome = RandomGenomeBuilder::new(1_000).seed(1).build();
/// let mut pile = Pileup::new(&genome);
/// let rec = SamRecord {
///     qname: "r".into(), flags: 0, chrom: 0, pos: 100, mapq: 60,
///     cigar: Cigar::parse("20M")?,
///     seq: genome.chromosome(0).seq().subseq(100..120),
///     score: 40,
/// };
/// pile.add_record(&rec);
/// assert_eq!(pile.depth(0, 110), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Pileup {
    /// Per chromosome: `counts[pos][base_code]`.
    counts: Vec<Vec<[u16; 4]>>,
    pub(crate) indels: HashMap<IndelKey, u32>,
    records: u64,
}

impl Pileup {
    /// Creates an empty pileup sized for `genome`.
    pub fn new(genome: &ReferenceGenome) -> Pileup {
        Pileup {
            counts: genome
                .chromosomes()
                .iter()
                .map(|c| vec![[0u16; 4]; c.len()])
                .collect(),
            indels: HashMap::new(),
            records: 0,
        }
    }

    /// Accumulates one mapped record (unmapped records are ignored).
    pub fn add_record(&mut self, rec: &SamRecord) {
        if !rec.is_mapped() || rec.cigar.is_empty() {
            return;
        }
        self.records += 1;
        let chrom = rec.chrom as usize;
        let cols = &mut self.counts[chrom];
        let mut rpos = rec.pos as usize;
        let mut qpos = 0usize;
        for &(n, op) in rec.cigar.runs() {
            let n = n as usize;
            match op {
                CigarOp::Match | CigarOp::Equal | CigarOp::Diff => {
                    for k in 0..n {
                        if rpos + k < cols.len() && qpos + k < rec.seq.len() {
                            let b = rec.seq.code_at(qpos + k) as usize;
                            cols[rpos + k][b] = cols[rpos + k][b].saturating_add(1);
                        }
                    }
                    rpos += n;
                    qpos += n;
                }
                CigarOp::Ins => {
                    *self
                        .indels
                        .entry(IndelKey {
                            chrom: rec.chrom,
                            pos: rpos as u64,
                            signed_len: n as i32,
                        })
                        .or_insert(0) += 1;
                    qpos += n;
                }
                CigarOp::Del => {
                    *self
                        .indels
                        .entry(IndelKey {
                            chrom: rec.chrom,
                            pos: rpos as u64,
                            signed_len: -(n as i32),
                        })
                        .or_insert(0) += 1;
                    rpos += n;
                }
                CigarOp::SoftClip => {
                    qpos += n;
                }
            }
        }
    }

    /// Read depth (base observations) at a position.
    pub fn depth(&self, chrom: u32, pos: u64) -> u32 {
        self.counts[chrom as usize][pos as usize]
            .iter()
            .map(|&c| c as u32)
            .sum()
    }

    /// Base counts (A,C,G,T) at a position.
    pub fn base_counts(&self, chrom: u32, pos: u64) -> [u16; 4] {
        self.counts[chrom as usize][pos as usize]
    }

    /// Number of records accumulated.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Iterates `(chrom, pos, counts)` over all covered positions.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (u32, u64, [u16; 4])> + '_ {
        self.counts.iter().enumerate().flat_map(|(ci, cols)| {
            cols.iter()
                .enumerate()
                .filter(|(_, c)| c.iter().any(|&x| x > 0))
                .map(move |(p, c)| (ci as u32, p as u64, *c))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::{random::RandomGenomeBuilder, Cigar, DnaSeq};

    fn genome() -> ReferenceGenome {
        RandomGenomeBuilder::new(2_000).seed(3).build()
    }

    fn rec(chrom: u32, pos: u64, cigar: &str, seq: DnaSeq) -> SamRecord {
        SamRecord {
            qname: "r".into(),
            flags: 0,
            chrom,
            pos,
            mapq: 60,
            cigar: Cigar::parse(cigar).unwrap(),
            seq,
            score: 0,
        }
    }

    #[test]
    fn match_columns_counted() {
        let g = genome();
        let mut p = Pileup::new(&g);
        let seq = g.chromosome(0).seq().subseq(50..80);
        p.add_record(&rec(0, 50, "30M", seq.clone()));
        p.add_record(&rec(0, 50, "30M", seq));
        assert_eq!(p.depth(0, 60), 2);
        assert_eq!(p.depth(0, 49), 0);
        assert_eq!(p.depth(0, 80), 0);
    }

    #[test]
    fn insertion_recorded_at_anchor() {
        let g = genome();
        let mut p = Pileup::new(&g);
        let mut seq = g.chromosome(0).seq().subseq(100..110);
        seq.extend_from_seq(&g.chromosome(0).seq().subseq(110..130));
        p.add_record(&rec(0, 100, "10M3I17M", seq));
        assert_eq!(
            p.indels.get(&IndelKey {
                chrom: 0,
                pos: 110,
                signed_len: 3
            }),
            Some(&1)
        );
    }

    #[test]
    fn deletion_recorded_and_ref_advances() {
        let g = genome();
        let mut p = Pileup::new(&g);
        let seq = g.chromosome(0).seq().subseq(200..225);
        p.add_record(&rec(0, 200, "10M5D15M", seq));
        assert_eq!(
            p.indels.get(&IndelKey {
                chrom: 0,
                pos: 210,
                signed_len: -5
            }),
            Some(&1)
        );
        // Deleted region gets no base observations from this read.
        assert_eq!(p.depth(0, 212), 0);
        assert_eq!(p.depth(0, 216), 1);
    }

    #[test]
    fn unmapped_ignored() {
        let g = genome();
        let mut p = Pileup::new(&g);
        p.add_record(&SamRecord::unmapped("u", 0, DnaSeq::new()));
        assert_eq!(p.records(), 0);
    }

    #[test]
    fn soft_clips_skip_query() {
        let g = genome();
        let mut p = Pileup::new(&g);
        let mut seq = DnaSeq::from_ascii(b"AAAAA").unwrap();
        seq.extend_from_seq(&g.chromosome(0).seq().subseq(300..320));
        p.add_record(&rec(0, 300, "5S20M", seq));
        assert_eq!(p.depth(0, 300), 1);
        // The clipped prefix must not pollute the counts with 'AAAAA'.
        let c = p.base_counts(0, 300);
        let refbase = g.chromosome(0).seq().code_at(300) as usize;
        assert_eq!(c[refbase], 1);
    }
}
