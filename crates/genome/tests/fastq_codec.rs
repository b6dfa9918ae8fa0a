//! The FASTQ codec against per-base / per-record references: the table
//! packer, the spill path, record-buffer reuse, the error table and the
//! `Interrupted` retry.

use gx_genome::fastq::{read_fastq, FastqReader};
use gx_genome::{Base, DnaSeq, ReadRecord};
use std::io::{self, BufRead, BufReader, Read};

/// xorshift bytes, so every one of the 256 values shows up at every word
/// lane without an RNG dependency.
fn noise(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

fn per_base_lossy(ascii: &[u8]) -> DnaSeq {
    ascii
        .iter()
        .map(|&b| Base::from_ascii(b).unwrap_or(Base::A))
        .collect()
}

#[test]
fn table_packer_equals_per_base_on_every_byte_value() {
    // Every byte value at lane 0, then noise; every length across the
    // 31/32/33 and 63/64/65 word seams.
    let mut text: Vec<u8> = (0..=255).collect();
    text.extend(noise(400, 0x9E37_79B9_7F4A_7C15));
    for start in [0, 1, 3, 97, 255] {
        for len in 0..=200 {
            let ascii = &text[start..start + len];
            let mut packed = DnaSeq::new();
            packed.extend_from_ascii_lossy(ascii);
            assert_eq!(packed, per_base_lossy(ascii), "start {start} len {len}");
        }
    }
    // Appending at an unaligned length funnels across the word boundary.
    for prefix in [1, 5, 31, 32, 33, 63] {
        let (head, tail) = text[..prefix + 130].split_at(prefix);
        let mut packed = DnaSeq::new();
        packed.extend_from_ascii_lossy(head);
        packed.extend_from_ascii_lossy(tail);
        assert_eq!(packed, per_base_lossy(&text[..prefix + 130]), "{prefix}");
    }
}

#[test]
fn strict_from_ascii_names_the_first_bad_byte() {
    let mut ascii = b"ACGTacgt".repeat(9);
    assert_eq!(
        DnaSeq::from_ascii(&ascii).unwrap(),
        per_base_lossy(&ascii),
        "both cases pack"
    );
    ascii[40] = b'N';
    ascii[70] = b'-';
    let err = DnaSeq::from_ascii(&ascii).unwrap_err();
    assert_eq!(
        err.to_string(),
        gx_genome::GenomeError::InvalidBase(b'N').to_string()
    );
}

/// CRLF and LF records, blank separator lines, a 10 kb read and a final
/// record without a newline.
fn corpus() -> Vec<u8> {
    let long: Vec<u8> = noise(10_000, 7)
        .iter()
        .map(|b| b"ACGTNacgtn"[(b % 10) as usize])
        .collect();
    let mut text = Vec::new();
    text.extend_from_slice(b"@r1 first\r\nACGTN\r\n+\r\nIIII!\r\n");
    text.extend_from_slice(b"\n  \n@r2\nTTAA\n+r2 again\nII!I\n\r\n");
    text.extend_from_slice(b"@long\tdesc\n");
    text.extend_from_slice(&long);
    text.extend_from_slice(b"\n+\n");
    text.extend(std::iter::repeat_n(b'F', long.len()));
    text.extend_from_slice(b"\n@empty\n\n+\n\n@last\nGGCC\n+\nIIII");
    text
}

#[test]
fn tiny_buffers_parse_like_the_whole_slice() {
    let text = corpus();
    let whole = read_fastq(&text[..]).unwrap();
    let ids: Vec<&str> = whole.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids, ["r1", "r2", "long", "empty", "last"]);
    assert_eq!(whole[0].seq.to_string(), "ACGTA");
    assert_eq!(whole[0].qual, b"IIII!");
    assert_eq!(whole[2].len(), 10_000);
    assert!(whole[3].is_empty());
    assert_eq!(whole[4].qual, b"IIII");
    for capacity in 1..=9 {
        let tiny = BufReader::with_capacity(capacity, &text[..]);
        assert_eq!(read_fastq(tiny).unwrap(), whole, "capacity {capacity}");
    }
}

fn records_of_lengths(lengths: &[usize]) -> Vec<ReadRecord> {
    lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| ReadRecord {
            id: format!("r{}", "x".repeat(len % 7) + &i.to_string()),
            seq: DnaSeq::from_codes(
                &noise(len, i as u64 + 1)
                    .iter()
                    .map(|b| b & 3)
                    .collect::<Vec<_>>(),
            ),
            qual: noise(len, i as u64 + 99)
                .iter()
                .map(|b| b'!' + b % 90)
                .collect(),
        })
        .collect()
}

#[test]
fn a_reused_record_equals_fresh_ones_as_lengths_shrink_and_grow() {
    let records = records_of_lengths(&[150, 64, 33, 0, 1, 31, 32, 250, 5]);
    let mut text = Vec::new();
    gx_genome::fastq::write_fastq(&records, &mut text).unwrap();
    assert_eq!(read_fastq(&text[..]).unwrap(), records, "write → read");

    let mut reader = FastqReader::new(&text[..]);
    let mut reused = ReadRecord::default();
    for expect in &records {
        assert!(reader.read_into(&mut reused).unwrap());
        assert_eq!(&reused, expect);
        assert_eq!(reused.seq.words().len(), expect.len().div_ceil(32));
    }
    assert!(!reader.read_into(&mut reused).unwrap());
    assert!(!reader.read_into(&mut reused).unwrap(), "EOF is sticky");
}

#[test]
fn every_error_still_fails_at_its_record_with_its_message() {
    let cases: [(&[u8], usize, &str); 8] = [
        (b"@a\nAC\n+\nII\n@r1\n", 1, "truncated FASTQ record"),
        (b"@a\nAC\n+\nII\n@r1\nACGT\n", 1, "truncated FASTQ record"),
        (b"@a\nAC\n+\nII\n@r1\nACGT\n+", 1, "truncated FASTQ record"),
        (
            b"@r1\nACGT\n+\nII\n@b\nAC\n+\nII\n",
            0,
            "quality length differs from sequence length",
        ),
        (
            b"@a\nAC\n+\nII\n@r1\nACGT\n+\nIIIII\n",
            1,
            "quality length differs from sequence length",
        ),
        (
            b"@a\nAC\n+\nII\n@r1\nACGT\nIIII\nIIII\n",
            1,
            "missing + separator",
        ),
        (
            b"@a\nAC\n+\nII\nxr1 \xff\nACGT\n+\nIIII\n",
            1,
            "expected @header, got xr1 \u{FFFD}",
        ),
        (
            b"@a\nAC\n+\nII\n\n@b\nAC\n+\nII\nAC\n",
            2,
            "expected @header, got AC",
        ),
    ];
    for (text, good, message) in cases {
        // Through the iterator…
        let mut iter = FastqReader::new(text);
        for _ in 0..good {
            iter.next().expect("a good record first").unwrap();
        }
        let err = iter.next().expect("then the error").unwrap_err();
        assert!(err.to_string().ends_with(message), "{err} vs {message}");
        assert!(iter.next().is_none(), "fused after: {message}");
        // …and through the reusable-buffer core.
        let mut reader = FastqReader::new(text);
        let mut rec = ReadRecord::default();
        for _ in 0..good {
            assert!(reader.read_into(&mut rec).unwrap());
        }
        let err = reader.read_into(&mut rec).unwrap_err();
        assert!(err.to_string().ends_with(message), "{err} vs {message}");
        assert!(
            !reader.read_into(&mut rec).unwrap(),
            "fused after: {message}"
        );
    }
}

#[test]
fn lossy_utf8_id_is_cut_at_the_first_whitespace() {
    let recs = read_fastq(&b"@id\xff\xfe\xc3\xa9\xe2\x80\x83rest more\nAC\n+\nII\n"[..]).unwrap();
    assert_eq!(
        recs[0].id, "id\u{FFFD}\u{FFFD}é",
        "U+2003 EM SPACE ends the id"
    );
}

/// Hands out its bytes `step` at a time and fails the `fail_at`-th refill
/// once with `kind`.
struct Flaky<'a> {
    data: &'a [u8],
    step: usize,
    refills: usize,
    fail_at: usize,
    kind: io::ErrorKind,
}

impl Read for Flaky<'_> {
    fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
        unreachable!("FastqReader only uses BufRead")
    }
}

impl BufRead for Flaky<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.refills += 1;
        if self.refills == self.fail_at {
            return Err(io::Error::new(self.kind, "signal"));
        }
        Ok(&self.data[..self.step.min(self.data.len())])
    }

    fn consume(&mut self, n: usize) {
        self.data = &self.data[n..];
    }
}

#[test]
fn an_interrupted_refill_is_retried_not_fatal() {
    let text = b"@r1\nACGTACGT\n+\nIIIIIIII\n@r2\nTTAA\n+\nII!I\n";
    let whole = read_fastq(&text[..]).unwrap();
    // Interrupt every refill in turn: header, mid-sequence (a spilled
    // line), separator, quality, and between records.
    for fail_at in 1..=16 {
        let flaky = Flaky {
            data: text,
            step: 3,
            refills: 0,
            fail_at,
            kind: io::ErrorKind::Interrupted,
        };
        let got: Vec<ReadRecord> = FastqReader::new(flaky).map(|r| r.unwrap()).collect();
        assert_eq!(got, whole, "interrupted at refill {fail_at}");
    }
    // Any other I/O error is still fatal, and fuses.
    let broken = Flaky {
        data: text,
        step: 3,
        refills: 0,
        fail_at: 12,
        kind: io::ErrorKind::BrokenPipe,
    };
    let mut reader = FastqReader::new(broken);
    assert_eq!(reader.next().unwrap().unwrap(), whole[0]);
    let err = reader.next().unwrap().unwrap_err();
    assert!(err.to_string().contains("io error: signal"), "{err}");
    assert!(reader.next().is_none());
}
