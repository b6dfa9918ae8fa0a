//! Output sinks: where the ordered emitter streams [`SamRecord`]s.

use gx_genome::samfile::write_sam_header;
use gx_genome::{ReferenceGenome, SamRecord};
use std::io::{self, Write};

/// A consumer of ordered SAM records.
///
/// The engine calls this on its calling thread (so an engine's sink needs
/// no `Send`), strictly in input order, so a sink never needs to buffer or
/// reorder.
pub trait RecordSink {
    /// Consumes one record.
    ///
    /// # Errors
    ///
    /// I/O failures abort the pipeline run.
    fn write_record(&mut self, rec: &SamRecord) -> io::Result<()>;
}

/// Streams SAM text (header + one line per record) to a writer.
pub struct SamTextSink<W: Write> {
    writer: W,
    chrom_names: Vec<String>,
    /// The current record's line, reused so rendering never allocates in
    /// steady state; handed to the writer in one `write_all` per record.
    line: Vec<u8>,
}

impl<W: Write> SamTextSink<W> {
    /// Writes the SAM header for `genome` and returns a sink that resolves
    /// chromosome names against it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the header write.
    pub fn with_header(genome: &ReferenceGenome, mut writer: W) -> io::Result<SamTextSink<W>> {
        write_sam_header(genome, &mut writer)?;
        Ok(SamTextSink {
            writer,
            chrom_names: genome
                .chromosomes()
                .iter()
                .map(|c| c.name().to_string())
                .collect(),
            line: Vec::new(),
        })
    }

    /// Finishes writing and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Propagates the final flush's I/O error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> RecordSink for SamTextSink<W> {
    fn write_record(&mut self, rec: &SamRecord) -> io::Result<()> {
        let name = if rec.is_mapped() {
            self.chrom_names
                .get(rec.chrom as usize)
                .map_or("*", String::as_str)
        } else {
            "*"
        };
        self.line.clear();
        rec.write_sam_line(name, &mut self.line);
        self.line.push(b'\n');
        self.writer.write_all(&self.line)
    }
}

/// Collects records in memory (tests and small runs).
#[derive(Debug, Default)]
pub struct VecSink {
    /// The collected records, in input order.
    pub records: Vec<SamRecord>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }
}

impl RecordSink for VecSink {
    fn write_record(&mut self, rec: &SamRecord) -> io::Result<()> {
        self.records.push(rec.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::{flags, Chromosome, Cigar, DnaSeq};

    fn genome() -> ReferenceGenome {
        ReferenceGenome::from_chromosomes(vec![
            Chromosome::new("chrT", DnaSeq::from_ascii(b"ACGTACGTACGT").unwrap()),
            Chromosome::new("chr2", DnaSeq::from_ascii(b"TTTT").unwrap()),
        ])
    }

    #[test]
    fn sam_text_sink_writes_header_and_lines() {
        let mut sink = SamTextSink::with_header(&genome(), Vec::new()).unwrap();
        let rec = SamRecord {
            qname: "q/1".into(),
            flags: flags::PAIRED,
            chrom: 0,
            pos: 2,
            mapq: 60,
            cigar: Cigar::parse("4M").unwrap(),
            seq: DnaSeq::from_ascii(b"GTAC").unwrap(),
            score: 8,
        };
        sink.write_record(&rec).unwrap();
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert!(text.starts_with("@HD"));
        assert!(text.contains("@SQ\tSN:chrT\tLN:12"));
        assert!(text.lines().last().unwrap().starts_with("q/1\t"));
    }

    #[test]
    fn records_resolve_names() {
        let mut sink = SamTextSink::with_header(&genome(), Vec::new()).unwrap();
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
        sink.write_record(&rec).unwrap();
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert!(text.lines().last().unwrap().contains("\tchr2\t1\t"));
    }

    #[test]
    fn unmapped_records_use_star() {
        let mut sink = SamTextSink::with_header(&genome(), Vec::new()).unwrap();
        let rec = SamRecord::unmapped("u/1", flags::PAIRED, DnaSeq::from_ascii(b"AC").unwrap());
        sink.write_record(&rec).unwrap();
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert!(text.contains("\t*\t0\t"));
    }

    #[test]
    fn unmapped_and_out_of_range_chroms_render_star() {
        let mut sink = SamTextSink::with_header(&genome(), Vec::new()).unwrap();
        let un = SamRecord::unmapped("u/1", flags::PAIRED, DnaSeq::new());
        sink.write_record(&un).unwrap();
        let mut bogus = un.clone();
        bogus.flags = flags::PAIRED; // mapped flag set, chrom out of range
        bogus.chrom = 99;
        sink.write_record(&bogus).unwrap();
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let rnames: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('@'))
            .map(|l| l.split('\t').nth(2).unwrap())
            .collect();
        assert_eq!(rnames, ["*", "*"], "text: {text}");
        // A mapped flag with no such chromosome keeps its 1-based position.
        let bogus_line = text.lines().last().unwrap();
        assert!(
            bogus_line.starts_with("u/1\t1\t*\t1\t0\t*\t"),
            "{bogus_line}"
        );
    }

    fn mixed_records() -> Vec<SamRecord> {
        let mapped = SamRecord {
            qname: "q/1".into(),
            flags: flags::PAIRED | flags::REVERSE,
            chrom: 0,
            pos: 5,
            mapq: 60,
            cigar: Cigar::parse("2=1X1=").unwrap(),
            seq: DnaSeq::from_ascii(b"CGTA").unwrap(),
            score: -3,
        };
        let unmapped = SamRecord::unmapped(
            "q/2",
            flags::PAIRED,
            DnaSeq::from_ascii(&b"ACGT".repeat(17)).unwrap(),
        );
        vec![mapped, unmapped]
    }

    /// Accepts `budget` more `write` calls, then fails.
    struct FailAfter {
        budget: usize,
        calls: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.budget == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.budget -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_per_record_so_a_failing_writer_surfaces_at_its_record() {
        let writer = FailAfter {
            budget: usize::MAX,
            calls: 0,
        };
        let mut sink = SamTextSink::with_header(&genome(), writer).unwrap();
        let header_calls = sink.writer.calls;
        sink.writer.budget = 1;
        let records = mixed_records();
        sink.write_record(&records[0]).unwrap();
        assert_eq!(sink.writer.calls, header_calls + 1, "one write per record");
        let err = sink.write_record(&records[1]).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn vec_sink_collects() {
        let mut sink = VecSink::new();
        let rec = SamRecord::unmapped("a", 0, DnaSeq::new());
        sink.write_record(&rec).unwrap();
        assert_eq!(sink.records.len(), 1);
    }
}
