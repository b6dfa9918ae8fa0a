use crate::{Cigar, DnaSeq};

/// SAM-style flag bits for [`SamRecord::flags`].
pub mod flags {
    /// Template has multiple segments (paired).
    pub const PAIRED: u16 = 0x1;
    /// Each segment properly aligned according to the aligner.
    pub const PROPER_PAIR: u16 = 0x2;
    /// Segment unmapped.
    pub const UNMAPPED: u16 = 0x4;
    /// Next segment unmapped.
    pub const MATE_UNMAPPED: u16 = 0x8;
    /// Sequence reverse-complemented on the reference.
    pub const REVERSE: u16 = 0x10;
    /// Mate reverse-complemented.
    pub const MATE_REVERSE: u16 = 0x20;
    /// First segment in the template (read 1).
    pub const FIRST_IN_PAIR: u16 = 0x40;
    /// Last segment in the template (read 2).
    pub const SECOND_IN_PAIR: u16 = 0x80;
    /// Secondary alignment.
    pub const SECONDARY: u16 = 0x100;
}

/// A minimal SAM-like alignment record.
///
/// Chromosomes are referenced by index into the genome that produced the
/// alignment (names live in [`ReferenceGenome`](crate::ReferenceGenome)),
/// which keeps pileup construction allocation-free.
///
/// ```
/// use gx_genome::{Cigar, DnaSeq, SamRecord, flags};
///
/// # fn main() -> Result<(), gx_genome::GenomeError> {
/// let rec = SamRecord {
///     qname: "pair0/1".to_string(),
///     flags: flags::PAIRED | flags::FIRST_IN_PAIR,
///     chrom: 0,
///     pos: 1234,
///     mapq: 60,
///     cigar: Cigar::parse("150M")?,
///     seq: DnaSeq::from_ascii(b"ACGT")?,
///     score: 300,
/// };
/// assert!(rec.is_mapped());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SamRecord {
    /// Query (read) name.
    pub qname: String,
    /// Bitwise OR of [`flags`] values.
    pub flags: u16,
    /// Chromosome index (meaningless when unmapped).
    pub chrom: u32,
    /// 0-based leftmost mapping position.
    pub pos: u64,
    /// Mapping quality (0–60).
    pub mapq: u8,
    /// Alignment description. Empty when unmapped.
    pub cigar: Cigar,
    /// The read bases as aligned (already reverse-complemented when the
    /// `REVERSE` flag is set, i.e. in reference orientation).
    pub seq: DnaSeq,
    /// Alignment score (mapper-specific; minimap2 `AS` tag equivalent).
    pub score: i32,
}

impl SamRecord {
    /// Creates an unmapped record for a read.
    pub fn unmapped(qname: impl Into<String>, flags_in: u16, seq: DnaSeq) -> SamRecord {
        SamRecord {
            qname: qname.into(),
            flags: flags_in | flags::UNMAPPED,
            chrom: 0,
            pos: 0,
            mapq: 0,
            cigar: Cigar::new(),
            seq,
            score: 0,
        }
    }

    /// Whether the record represents a mapped read.
    pub fn is_mapped(&self) -> bool {
        self.flags & flags::UNMAPPED == 0
    }

    /// Whether the read aligned to the reverse strand.
    pub fn is_reverse(&self) -> bool {
        self.flags & flags::REVERSE != 0
    }

    /// End of the alignment on the reference (exclusive).
    pub fn ref_end(&self) -> u64 {
        self.pos + self.cigar.ref_len()
    }

    /// Renders a SAM text line (subset of columns; mate fields are left at
    /// their null values). A wrapper over [`SamRecord::write_sam_line`].
    pub fn to_sam_line(&self, chrom_name: &str) -> String {
        let mut line = Vec::new();
        self.write_sam_line(chrom_name, &mut line);
        String::from_utf8(line).expect("qname and chromosome name are UTF-8, the rest ASCII")
    }

    /// Appends the record's SAM text line (no terminator) to `out`. This is
    /// the one SAM renderer: both text paths — [`SamRecord::to_sam_line`]
    /// and the pipeline's text sink — go through it, so they cannot drift
    /// apart.
    /// It works on bytes throughout (no formatter): integers by a local
    /// itoa, CIGAR runs directly, bases unpacked a word at a time.
    pub fn write_sam_line(&self, chrom_name: &str, out: &mut Vec<u8>) {
        let mapped = self.is_mapped();
        out.extend_from_slice(self.qname.as_bytes());
        out.push(b'\t');
        push_uint(out, self.flags as u64);
        out.push(b'\t');
        out.extend_from_slice(if mapped { chrom_name.as_bytes() } else { b"*" });
        out.push(b'\t');
        push_uint(out, if mapped { self.pos + 1 } else { 0 });
        out.push(b'\t');
        push_uint(out, self.mapq as u64);
        out.push(b'\t');
        let runs = self.cigar.runs();
        if runs.is_empty() {
            out.push(b'*');
        }
        for &(n, op) in runs {
            push_uint(out, n as u64);
            out.push(op.to_char() as u8);
        }
        out.extend_from_slice(b"\t*\t0\t0\t");
        self.seq.append_ascii_to(out);
        out.extend_from_slice(b"\t*\tAS:i:");
        if self.score < 0 {
            out.push(b'-');
        }
        push_uint(out, self.score.unsigned_abs() as u64);
    }
}

/// Appends `v` in decimal.
fn push_uint(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_flags() {
        let r = SamRecord::unmapped("q", flags::PAIRED, DnaSeq::new());
        assert!(!r.is_mapped());
        assert!(r.flags & flags::PAIRED != 0);
    }

    #[test]
    fn ref_end_uses_cigar() {
        let r = SamRecord {
            qname: "q".into(),
            flags: 0,
            chrom: 0,
            pos: 100,
            mapq: 60,
            cigar: Cigar::parse("10M2D5M").unwrap(),
            seq: DnaSeq::new(),
            score: 0,
        };
        assert_eq!(r.ref_end(), 117);
    }

    #[test]
    fn sam_line_one_based() {
        let r = SamRecord {
            qname: "q".into(),
            flags: 0,
            chrom: 0,
            pos: 0,
            mapq: 60,
            cigar: Cigar::parse("4M").unwrap(),
            seq: DnaSeq::from_ascii(b"ACGT").unwrap(),
            score: 8,
        };
        let line = r.to_sam_line("chr1");
        assert!(line.contains("\tchr1\t1\t"), "line: {line}");
        assert!(line.ends_with("AS:i:8"));
    }
}
