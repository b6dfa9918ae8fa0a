//! Minimal FASTQ reading and writing for simulated reads.

use crate::{DnaSeq, GenomeError};
use std::io::{BufRead, ErrorKind, Write};

/// A sequencing read: identifier, bases and per-base Phred+33 qualities.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadRecord {
    /// Read identifier (without the leading `@`).
    pub id: String,
    /// Read bases.
    pub seq: DnaSeq,
    /// Phred+33 quality bytes, one per base.
    pub qual: Vec<u8>,
}

impl ReadRecord {
    /// Creates a record with a flat quality of `q` (Phred score).
    pub fn with_flat_quality(id: impl Into<String>, seq: DnaSeq, q: u8) -> ReadRecord {
        let qual = vec![q.saturating_add(33).min(b'~'); seq.len()];
        ReadRecord {
            id: id.into(),
            seq,
            qual,
        }
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the read has zero bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A streaming FASTQ parser: an iterator of [`ReadRecord`]s that reads one
/// record at a time, so arbitrarily large files never need to fit in
/// memory. [`read_fastq`] is the collect-everything wrapper over this, and
/// [`FastqReader::read_into`] the allocation-free core for callers that
/// keep their own record buffers.
///
/// Parsing is zero-copy: lines are scanned directly in the `BufRead`'s
/// internal buffer and decoded in place (2-bit packing a word at a time,
/// quality copy) without an intermediate per-line `String`. Only a line
/// that straddles the buffer boundary is stitched together in a reusable
/// `Vec<u8>` spill buffer. CRLF line endings are accepted (one trailing
/// `\r` is stripped, as with [`BufRead::lines`]).
///
/// Ambiguous bases (`N`) are not representable in [`DnaSeq`]; they are
/// replaced with `A`, matching the common practice of mapping-oriented 2-bit
/// encodings.
///
/// After the first error the reader is fused: it yields no further records
/// (a malformed stream has no trustworthy record boundary to resume from).
///
/// ```
/// use gx_genome::fastq::FastqReader;
///
/// let data = b"@r1\nACGT\n+\nIIII\n@r2\nTTAA\n+\nIIII\n";
/// let ids: Vec<String> = FastqReader::new(&data[..])
///     .map(|r| r.unwrap().id)
///     .collect();
/// assert_eq!(ids, ["r1", "r2"]);
/// ```
pub struct FastqReader<R: BufRead> {
    reader: R,
    spill: Vec<u8>,
    failed: bool,
}

/// One trailing carriage return stripped, matching [`BufRead::lines`].
fn trim_cr(line: &[u8]) -> &[u8] {
    match line {
        [head @ .., b'\r'] => head,
        _ => line,
    }
}

/// Index of the first `\n` in `buf`, scanning eight bytes a step: XOR with
/// a word of newlines turns a match into a zero byte, and
/// `(x - 0x01…) & !x & 0x80…` has its lowest set bit in the first zero byte
/// (borrows can only raise false bits above it). The sub-word remainder is
/// scanned a byte at a time.
fn find_newline(buf: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let words = buf.chunks_exact(8);
    let tail = words.remainder();
    for (i, word) in words.enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ (ONES * 0x0A);
        let zero_bytes = x.wrapping_sub(ONES) & !x & HIGHS;
        if zero_bytes != 0 {
            return Some(8 * i + zero_bytes.trailing_zeros() as usize / 8);
        }
    }
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(buf.len() - tail.len() + at)
}

/// Feeds the next line (without its terminator) to `f` and returns the
/// result, or `Ok(None)` at end of input. The line is borrowed straight
/// from the reader's buffer when it fits; otherwise it is assembled in
/// `spill` across refills. An [`ErrorKind::Interrupted`] refill is retried,
/// as [`BufRead::read_until`] does: a signal landing mid-read on a pipe or
/// socket is not a malformed stream.
fn next_line<R: BufRead, T>(
    reader: &mut R,
    spill: &mut Vec<u8>,
    f: impl FnOnce(&[u8]) -> T,
) -> Result<Option<T>, GenomeError> {
    let mut f = Some(f);
    let mut call = |line: &[u8]| (f.take().expect("one line per next_line call"))(trim_cr(line));
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(GenomeError::ParseFormat(format!("io error: {e}"))),
        };
        if buf.is_empty() {
            if spill.is_empty() {
                return Ok(None);
            }
            let out = call(spill);
            spill.clear();
            return Ok(Some(out));
        }
        match find_newline(buf) {
            Some(nl) => {
                let out = if spill.is_empty() {
                    call(&buf[..nl])
                } else {
                    spill.extend_from_slice(&buf[..nl]);
                    let out = call(spill);
                    spill.clear();
                    out
                };
                reader.consume(nl + 1);
                return Ok(Some(out));
            }
            None => {
                let n = buf.len();
                spill.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

/// Bytes of an offending line an error message repeats.
const ECHO_BYTES: usize = 64;

/// An offending line (or read id) for an error message: whole when short,
/// else its first 64 bytes (`ECHO_BYTES`) and its length, so a huge garbage
/// line does not become an equally huge error string.
pub fn echo(line: &[u8]) -> String {
    let shown = String::from_utf8_lossy(&line[..line.len().min(ECHO_BYTES)]);
    if line.len() <= ECHO_BYTES {
        shown.into_owned()
    } else {
        format!("{shown}... ({} bytes)", line.len())
    }
}

/// Header-line classification. The id itself is written into the caller's
/// record; only the error path owns text.
enum Header {
    Blank,
    Id,
    Bad(String),
}

impl<R: BufRead> FastqReader<R> {
    /// A streaming parser over `reader`.
    pub fn new(reader: R) -> FastqReader<R> {
        FastqReader {
            reader,
            spill: Vec::new(),
            failed: false,
        }
    }

    /// Parses the next record into `rec`, overwriting all three fields and
    /// reusing their buffers — a caller that keeps `rec` across calls pays
    /// no allocation per record once the buffers have seen their high-water
    /// mark. Returns `Ok(false)` at end of input (and forever after an
    /// error: the reader fuses). On `Err`, `rec` holds whatever was parsed
    /// before the fault.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::ParseFormat`] on a truncated or malformed
    /// record, or when the underlying reader fails.
    pub fn read_into(&mut self, rec: &mut ReadRecord) -> Result<bool, GenomeError> {
        if self.failed {
            return Ok(false);
        }
        let result = self.parse_into(rec);
        self.failed = result.is_err();
        result
    }

    fn parse_into(&mut self, rec: &mut ReadRecord) -> Result<bool, GenomeError> {
        let (reader, spill) = (&mut self.reader, &mut self.spill);
        loop {
            let header = next_line(reader, spill, |line| {
                if line.iter().all(|b| b.is_ascii_whitespace()) {
                    Header::Blank
                } else if let Some(rest) = line.strip_prefix(b"@") {
                    let rest = String::from_utf8_lossy(rest);
                    rec.id.clear();
                    rec.id
                        .push_str(rest.split_whitespace().next().unwrap_or(""));
                    Header::Id
                } else {
                    Header::Bad(echo(line))
                }
            })?;
            match header {
                None => return Ok(false),
                Some(Header::Blank) => continue,
                Some(Header::Id) => break,
                Some(Header::Bad(header)) => {
                    return Err(GenomeError::ParseFormat(format!(
                        "expected @header, got {header}"
                    )))
                }
            }
        }
        let truncated = || GenomeError::ParseFormat("truncated FASTQ record".into());
        next_line(reader, spill, |line| {
            rec.seq.clear();
            rec.seq.extend_from_ascii_lossy(line);
        })?
        .ok_or_else(truncated)?;
        let plus =
            next_line(reader, spill, |line| line.first() == Some(&b'+'))?.ok_or_else(truncated)?;
        if !plus {
            return Err(GenomeError::ParseFormat("missing + separator".into()));
        }
        next_line(reader, spill, |line| {
            rec.qual.clear();
            rec.qual.extend_from_slice(line);
        })?
        .ok_or_else(truncated)?;
        if rec.qual.len() != rec.seq.len() {
            return Err(GenomeError::ParseFormat(
                "quality length differs from sequence length".into(),
            ));
        }
        Ok(true)
    }
}

impl<R: BufRead> Iterator for FastqReader<R> {
    type Item = Result<ReadRecord, GenomeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut rec = ReadRecord::default();
        match self.read_into(&mut rec) {
            Ok(true) => Some(Ok(rec)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Reads all records from a FASTQ stream into memory (a thin collect over
/// [`FastqReader`]).
///
/// # Errors
///
/// Returns [`GenomeError::ParseFormat`] on truncated or malformed records.
pub fn read_fastq<R: BufRead>(reader: R) -> Result<Vec<ReadRecord>, GenomeError> {
    FastqReader::new(reader).collect()
}

/// Writes records as FASTQ.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_fastq<W: Write>(records: &[ReadRecord], mut writer: W) -> std::io::Result<()> {
    let mut text = Vec::new();
    for r in records {
        text.clear();
        text.push(b'@');
        text.extend_from_slice(r.id.as_bytes());
        text.push(b'\n');
        r.seq.append_ascii_to(&mut text);
        text.extend_from_slice(b"\n+\n");
        text.extend_from_slice(&r.qual);
        text.push(b'\n');
        writer.write_all(&text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let records = vec![
            ReadRecord::with_flat_quality("r1", DnaSeq::from_ascii(b"ACGT").unwrap(), 30),
            ReadRecord::with_flat_quality("r2", DnaSeq::from_ascii(b"TTAA").unwrap(), 20),
        ];
        let mut buf = Vec::new();
        write_fastq(&records, &mut buf).unwrap();
        let back = read_fastq(buf.as_slice()).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn rejects_truncated() {
        assert!(read_fastq(&b"@r1\nACGT\n+\n"[..]).is_err());
        assert!(read_fastq(&b"@r1\nACGT\n"[..]).is_err());
    }

    #[test]
    fn rejects_quality_mismatch() {
        assert!(read_fastq(&b"@r1\nACGT\n+\nII\n"[..]).is_err());
    }

    #[test]
    fn n_replaced_with_a() {
        let recs = read_fastq(&b"@r\nANGT\n+\nIIII\n"[..]).unwrap();
        assert_eq!(recs[0].seq.to_string(), "AAGT");
    }

    #[test]
    fn streaming_reader_yields_records_incrementally() {
        let data = b"@r1\nACGT\n+\nIIII\n\n@r2\nTTAA\n+\nIIII\n";
        let mut reader = FastqReader::new(&data[..]);
        let first = reader.next().unwrap().unwrap();
        assert_eq!(first.id, "r1");
        let second = reader.next().unwrap().unwrap();
        assert_eq!(second.id, "r2");
        assert!(reader.next().is_none());
    }

    #[test]
    fn streaming_reader_fuses_after_error() {
        let data = b"@r1\nACGT\n+\nII\n@r2\nTTAA\n+\nIIII\n";
        let mut reader = FastqReader::new(&data[..]);
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none(), "reader must fuse after an error");
    }

    #[test]
    fn streaming_matches_collect_wrapper() {
        let data = b"@a\nACGT\n+\nIIII\n@b\nGGCC\n+\nIIII\n@c\nTTTT\n+\nIIII\n";
        let streamed: Vec<ReadRecord> = FastqReader::new(&data[..]).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, read_fastq(&data[..]).unwrap());
    }

    #[test]
    fn crlf_line_endings_accepted() {
        let crlf = b"@r1 extra\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nTTAA\r\n+\r\nII!I\r\n";
        let lf = b"@r1 extra\nACGT\n+\nIIII\n@r2\nTTAA\n+\nII!I\n";
        let got = read_fastq(&crlf[..]).unwrap();
        assert_eq!(got, read_fastq(&lf[..]).unwrap());
        assert_eq!(got[0].id, "r1");
        assert_eq!(got[0].qual, b"IIII");
        assert_eq!(got[1].seq.to_string(), "TTAA");
    }

    #[test]
    fn truncated_record_reports_each_missing_line() {
        for data in [
            &b"@r1\n"[..],
            &b"@r1\nACGT\n"[..],
            &b"@r1\nACGT\n+\n"[..],
            &b"@r1\nACGT\n+"[..],
        ] {
            let err = read_fastq(data).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("truncated FASTQ record") || msg.contains("quality length"),
                "unexpected error for {data:?}: {msg}"
            );
        }
    }

    #[test]
    fn missing_plus_separator_rejected() {
        let err = read_fastq(&b"@r1\nACGT\nIIII\nIIII\n"[..]).unwrap_err();
        assert!(err.to_string().contains("missing + separator"));
    }

    #[test]
    fn non_header_line_rejected() {
        let err = read_fastq(&b"xr1\nACGT\n+\nIIII\n"[..]).unwrap_err();
        assert!(err.to_string().contains("expected @header"));
    }

    #[test]
    fn find_newline_matches_bytewise_scan() {
        let scan = |buf: &[u8]| buf.iter().position(|&b| b == b'\n');
        // The first newline at every offset of a 25-byte buffer (three
        // words and a one-byte remainder), with a second one behind it.
        for at in 0..=24 {
            let mut buf = [b'A'; 25];
            buf[at] = b'\n';
            assert_eq!(find_newline(&buf), Some(at));
            buf[24] = b'\n';
            assert_eq!(find_newline(&buf), Some(at));
            assert_eq!(find_newline(&buf[..at]), None, "none before {at}");
        }
        assert_eq!(find_newline(b""), None);
        assert_eq!(find_newline(b"ACGTACGTACG\n"), Some(11), "remainder only");
        // Near misses that differ from a newline in one bit, or whose
        // subtraction borrows into the next byte, ahead of the real one.
        for near in [0x0Bu8, 0x8A, 0xFF, 0x00, 0x09, 0x1A] {
            for at in 0..8 {
                let mut buf = [b'I'; 19];
                buf[at] = near;
                buf[at + 1] = near;
                buf[at + 9] = b'\n';
                assert_eq!(find_newline(&buf), scan(&buf), "{near:#04x} at {at}");
                assert_eq!(find_newline(&buf), Some(at + 9));
            }
        }
    }

    #[test]
    fn lines_spanning_refill_boundaries_are_stitched() {
        // A 3-byte BufRead buffer forces every line through the spill path.
        let data = b"@read-with-a-long-name descr\nACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIII\n";
        let tiny = std::io::BufReader::with_capacity(3, &data[..]);
        let recs: Vec<ReadRecord> = FastqReader::new(tiny).map(|r| r.unwrap()).collect();
        assert_eq!(recs, read_fastq(&data[..]).unwrap());
        assert_eq!(recs[0].id, "read-with-a-long-name");
        assert_eq!(recs[0].seq.to_string(), "ACGTACGTACGTACGT");
    }

    #[test]
    fn final_record_without_trailing_newline() {
        let recs = read_fastq(&b"@r1\nACGT\n+\nIIII"[..]).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].qual, b"IIII");
    }

    #[test]
    fn id_is_first_whitespace_token() {
        let recs = read_fastq(&b"@  spaced id here\nAC\n+\nII\n"[..]).unwrap();
        assert_eq!(recs[0].id, "spaced");
    }
}
