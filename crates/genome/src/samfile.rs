//! SAM file output: header plus records, enough for external tools to
//! consume mapper output (the paper's pipeline produces BAM; plain SAM is
//! the transparent equivalent).

use crate::{ReferenceGenome, SamRecord};
use std::io::Write;

/// Writes a SAM header (`@HD` + one `@SQ` per chromosome + `@PG`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_sam_header<W: Write>(genome: &ReferenceGenome, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "@HD\tVN:1.6\tSO:unsorted")?;
    for chrom in genome.chromosomes() {
        writeln!(writer, "@SQ\tSN:{}\tLN:{}", chrom.name(), chrom.len())?;
    }
    writeln!(writer, "@PG\tID:genpairx\tPN:genpairx")?;
    Ok(())
}

/// Writes records (after a header) resolving chromosome names from
/// `genome`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_sam_records<W: Write>(
    genome: &ReferenceGenome,
    records: &[SamRecord],
    mut writer: W,
) -> std::io::Result<()> {
    let mut line = Vec::new();
    for rec in records {
        let name = if rec.is_mapped() {
            genome.chromosome(rec.chrom).name()
        } else {
            "*"
        };
        line.clear();
        rec.write_sam_line(name, &mut line);
        line.push(b'\n');
        writer.write_all(&line)?;
    }
    Ok(())
}

/// Convenience: header plus records in one call.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_sam<W: Write>(
    genome: &ReferenceGenome,
    records: &[SamRecord],
    mut writer: W,
) -> std::io::Result<()> {
    write_sam_header(genome, &mut writer)?;
    write_sam_records(genome, records, &mut writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flags, Chromosome, Cigar, DnaSeq};

    fn genome() -> ReferenceGenome {
        ReferenceGenome::from_chromosomes(vec![
            Chromosome::new("chr1", DnaSeq::from_ascii(b"ACGTACGT").unwrap()),
            Chromosome::new("chr2", DnaSeq::from_ascii(b"TTTT").unwrap()),
        ])
    }

    #[test]
    fn header_lists_contigs() {
        let mut buf = Vec::new();
        write_sam_header(&genome(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("@SQ\tSN:chr1\tLN:8"));
        assert!(text.contains("@SQ\tSN:chr2\tLN:4"));
    }

    #[test]
    fn records_resolve_names() {
        let g = genome();
        let rec = SamRecord {
            qname: "q/1".into(),
            flags: flags::PAIRED,
            chrom: 1,
            pos: 0,
            mapq: 60,
            cigar: Cigar::parse("4M").unwrap(),
            seq: DnaSeq::from_ascii(b"TTTT").unwrap(),
            score: 8,
        };
        let mut buf = Vec::new();
        write_sam(&g, &[rec], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().last().unwrap().contains("\tchr2\t1\t"));
    }

    #[test]
    fn unmapped_records_use_star() {
        let g = genome();
        let rec = SamRecord::unmapped("u/1", flags::PAIRED, DnaSeq::from_ascii(b"AC").unwrap());
        let mut buf = Vec::new();
        write_sam_records(&g, &[rec], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\t*\t0\t"));
    }
}
