//! Minimal FASTA reading.
//!
//! `N` (and any other ambiguity code) in input sequences is stored as `A` in
//! the packed sequence and recorded in the chromosome's ambiguity mask, so
//! downstream seed extraction can skip those windows exactly like GenPair
//! skips seeds containing `N`.

use crate::{Base, Bitset, Chromosome, DnaSeq, GenomeError, ReferenceGenome};
use std::io::BufRead;

/// Reads a FASTA stream into a [`ReferenceGenome`].
///
/// # Errors
///
/// Returns [`GenomeError::ParseFormat`] if the stream does not start with a
/// header or an I/O error occurs.
pub fn read_fasta<R: BufRead>(reader: R) -> Result<ReferenceGenome, GenomeError> {
    let mut chroms = Vec::new();
    let mut name: Option<String> = None;
    let mut seq = DnaSeq::new();
    let mut n_positions: Vec<usize> = Vec::new();

    let mut flush = |name: &mut Option<String>, seq: &mut DnaSeq, n_positions: &mut Vec<usize>| {
        if let Some(n) = name.take() {
            let s = std::mem::take(seq);
            if n_positions.is_empty() {
                chroms.push(Chromosome::new(n, s));
            } else {
                let mut mask = Bitset::new(s.len());
                for &p in n_positions.iter() {
                    mask.set(p);
                }
                chroms.push(Chromosome::with_n_mask(n, s, mask));
                n_positions.clear();
            }
        }
    };

    for line in reader.lines() {
        let line = line.map_err(|e| GenomeError::ParseFormat(format!("io error: {e}")))?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            flush(&mut name, &mut seq, &mut n_positions);
            let id = header.split_whitespace().next().unwrap_or("").to_string();
            if id.is_empty() {
                return Err(GenomeError::ParseFormat("empty FASTA header".into()));
            }
            name = Some(id);
        } else {
            if name.is_none() {
                return Err(GenomeError::ParseFormat(
                    "sequence data before first FASTA header".into(),
                ));
            }
            for &ch in line.as_bytes() {
                match Base::from_ascii(ch) {
                    Some(b) => seq.push(b),
                    None => {
                        n_positions.push(seq.len());
                        seq.push(Base::A);
                    }
                }
            }
        }
    }
    flush(&mut name, &mut seq, &mut n_positions);
    Ok(ReferenceGenome::from_chromosomes(chroms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g2 = read_fasta(&b">chr1\nACGTACGT\n>chr2\nTTTTGGGG\n"[..]).unwrap();
        assert_eq!(g2.num_chromosomes(), 2);
        assert_eq!(g2.chromosome(0).seq().to_string(), "ACGTACGT");
        assert_eq!(g2.chromosome(1).name(), "chr2");
    }

    #[test]
    fn n_goes_to_mask() {
        let fasta = b">c desc here\nACGNNACG\n";
        let g = read_fasta(&fasta[..]).unwrap();
        let c = g.chromosome(0);
        assert_eq!(c.name(), "c");
        assert_eq!(c.len(), 8);
        assert!(c.has_n_in(3, 5));
        assert!(!c.has_n_in(0, 3));
        assert!(!c.has_n_in(5, 8));
    }

    #[test]
    fn rejects_headerless() {
        assert!(read_fasta(&b"ACGT\n"[..]).is_err());
    }

    #[test]
    fn multiline_sequences_concatenate() {
        let g = read_fasta(&b">x\nACGT\nacgt\n"[..]).unwrap();
        assert_eq!(g.chromosome(0).seq().to_string(), "ACGTACGT");
    }
}
