//! SAM file header: enough for external tools to consume mapper output
//! (the paper's pipeline produces BAM; plain SAM is the transparent
//! equivalent). Records are rendered by [`SamRecord::write_sam_line`] and
//! written by the pipeline's text sink.
//!
//! [`SamRecord::write_sam_line`]: crate::SamRecord::write_sam_line

use crate::ReferenceGenome;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chromosome, DnaSeq};

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
}
