//! Hostile input: whatever bytes arrive, the FASTQ readers and the index
//! loader give an error or the right answer, never a panic.
//!
//! * FASTQ ([`FastqReader`], [`ReadPairStream`]): records with mixed LF /
//!   CRLF line ends, blank lines between records, non-ACGT bytes, zero-length
//!   reads and reads shorter than a seed, a quality line one byte too long,
//!   mate files of different lengths and disagreeing mate ids, all cut at
//!   any byte. Each is held to a line-by-line reference parser written
//!   here, and every pair that parses is mapped, with each mapped mate's
//!   CIGAR and position checked against its read and its chromosome.
//! * The serialized index ([`read_seedmap`]): a small index with bytes
//!   flipped anywhere, cut short or followed by junk. It loads as an error,
//!   or as an index that writes back the very bytes it was read from and
//!   answers queries. An index that loads but does not fit the genome — a
//!   Location Table entry past its end — is refused by
//!   [`GenPairMapper::with_seedmap`] before any pair is mapped.
//! * An error names an offending line or read id by a short prefix and its
//!   length, so a 10 MB line that is not a header, or two 10 MB mate ids
//!   that disagree, do not become a 10 MB message.
//!
//! Release builds run the full case counts; debug builds 1/20 of them.

use genpairx::core::{GenPairConfig, GenPairMapper, IndexMismatch, MapScratch};
use genpairx::genome::fastq::FastqReader;
use genpairx::genome::random::RandomGenomeBuilder;
use genpairx::genome::{DnaSeq, ReadRecord, ReferenceGenome};
use genpairx::pipeline::{
    JobOutcome, JobSpec, ReadPairStream, ServiceBuilder, SoftwareBackend, VecSink,
};
use genpairx::seedmap::{read_seedmap, write_seedmap, SeedMap, SeedMapConfig};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::io::Cursor;
use std::sync::OnceLock;

/// `full` cases in release builds, 1/20 of them in debug builds.
fn cases(full: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(debug_assertions) {
        full / 20
    } else {
        full
    })
}

/// Sequence-line bytes: the four bases weighted up, then lowercase bases,
/// IUPAC codes and bytes no FASTQ should hold (none is a line end).
const SEQ_BYTES: &[u8] = b"ACGTACGTACGTACGTACGTacgtNnRY.-*0@+ \t\x00\x7f\x80\xff";

/// Read lengths: zero, shorter than the 50-base seed, around it, and the
/// simulated reads' 150.
const LENS: &[usize] = &[
    0, 1, 7, 31, 32, 33, 49, 50, 51, 99, 150, 150, 150, 150, 150, 150,
];

/// A genome for reads to come from, and a mapper over it.
fn mapper() -> &'static GenPairMapper<'static> {
    static MAPPER: OnceLock<GenPairMapper<'static>> = OnceLock::new();
    MAPPER.get_or_init(|| {
        let genome: &'static ReferenceGenome = Box::leak(Box::new(
            RandomGenomeBuilder::new(40_000)
                .chromosomes(2)
                .seed(42)
                .build(),
        ));
        GenPairMapper::build(genome, &GenPairConfig::default())
    })
}

/// One generated record: its sequence-line bytes, its quality line's
/// length beyond the sequence's (1 is malformed), whether each of its four
/// lines ends in CRLF, and the blank line written before it, if any.
#[derive(Clone, Debug)]
struct Record {
    seq: Vec<u8>,
    qual_extra: usize,
    crlf: [bool; 4],
    blank_before: Option<&'static [u8]>,
}

/// A record's quality-line fault, line ends and preceding blank line.
type Layout = (usize, [bool; 4], Option<&'static [u8]>);

fn layout() -> impl Strategy<Value = Layout> {
    let blank = prop::sample::select(vec![
        None,
        None,
        None,
        Some(&b"\n"[..]),
        Some(&b"\r\n"[..]),
        Some(&b" \t\n"[..]),
    ]);
    (0u8..24, prop::collection::vec(0u8..3, 4), blank).prop_map(|(bad, crlf, blank)| {
        let crlf = [0, 1, 2, 3].map(|i| crlf[i] == 0);
        (usize::from(bad == 0), crlf, blank)
    })
}

/// A read's source and damage: its length, junk bytes to use instead of
/// the genome (a quarter of the time), up to 5 substitutions as (offset,
/// code), and a deletion of up to 3 bases at an offset.
type Read = (usize, Option<Vec<u8>>, Vec<(usize, u8)>, (usize, usize));

fn read() -> impl Strategy<Value = Read> {
    let junk = (
        0u8..4,
        prop::collection::vec(prop::sample::select(SEQ_BYTES.to_vec()), 150),
    );
    (
        prop::sample::select(LENS.to_vec()),
        junk.prop_map(|(kind, bytes)| (kind == 0).then_some(bytes)),
        prop::collection::vec((0usize..150, 0u8..4), 0..6),
        (0usize..150, 0usize..4),
    )
}

/// The sequence line of `read`, placed at `at` on `chrom` (forward, or
/// reverse-complemented when `reverse`). A genome slice may run into its
/// chromosome's end and come out short.
fn sequence(read: &Read, chrom: u32, at: usize, reverse: bool) -> Vec<u8> {
    let (len, junk, subs, (del_at, del_len)) = read;
    if let Some(junk) = junk {
        return junk[..*len].to_vec();
    }
    let seq = mapper().genome().chromosome(chrom).seq();
    let at = at % seq.len();
    let mut codes = seq
        .subseq(at..(at + len + del_len).min(seq.len()))
        .to_codes();
    for &(i, code) in subs {
        if let Some(c) = codes.get_mut(i) {
            *c = code;
        }
    }
    let del_at = (*del_at).min(codes.len());
    codes.drain(del_at..(del_at + del_len).min(codes.len()));
    codes.truncate(*len);
    let r = DnaSeq::from_codes(&codes);
    let r = if reverse { r.revcomp() } else { r };
    r.to_string().into_bytes()
}

fn record_of(seq: Vec<u8>, (qual_extra, crlf, blank_before): Layout) -> Record {
    Record {
        seq,
        qual_extra,
        crlf,
        blank_before,
    }
}

/// A record on its own: from anywhere in the genome, either strand.
fn record() -> impl Strategy<Value = Record> {
    (read(), layout(), (0u32..2, 0usize..40_000, 0u8..2)).prop_map(
        |(read, layout, (chrom, at, reverse))| {
            record_of(sequence(&read, chrom, at, reverse == 1), layout)
        },
    )
}

/// The two mates of one fragment: 250 bases apart on one chromosome, one
/// forward and one reverse-complemented (which is which is drawn).
fn mates() -> impl Strategy<Value = (Record, Record)> {
    (
        (read(), layout()),
        (read(), layout()),
        (0u32..2, 0usize..40_000, 0u8..2),
    )
        .prop_map(
            |((read1, layout1), (read2, layout2), (chrom, at, mirror))| {
                let (at1, at2) = if mirror == 0 {
                    (at, at + 250)
                } else {
                    (at + 250, at)
                };
                (
                    record_of(sequence(&read1, chrom, at1, mirror == 1), layout1),
                    record_of(sequence(&read2, chrom, at2, mirror == 0), layout2),
                )
            },
        )
}

/// Writes `records` as FASTQ with ids `p{i}{suffix}`; `rename` gives record
/// `i` the id `q{i}` instead.
fn render(records: &[Record], suffix: &str, rename: Option<usize>) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if let Some(blank) = r.blank_before {
            out.extend_from_slice(blank);
        }
        let stem = if rename == Some(i) { 'q' } else { 'p' };
        let qual: Vec<u8> = (0..r.seq.len() + r.qual_extra)
            .map(|k| b'!' + (k * 7 % 94) as u8)
            .collect();
        let header = format!("@{stem}{i}{suffix} extra words").into_bytes();
        for (line, crlf) in [&header[..], &r.seq, b"+", &qual].into_iter().zip(r.crlf) {
            out.extend_from_slice(line);
            out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
        }
    }
    out
}

/// What a FASTQ byte stream holds, by the format's rules applied line by
/// line: the records before the first fault, and whether there is one.
fn reference_parse(bytes: &[u8]) -> (Vec<ReadRecord>, bool) {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    let mut lines = lines
        .into_iter()
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l));
    let mut records = Vec::new();
    loop {
        let Some(header) = lines.find(|l| !l.iter().all(u8::is_ascii_whitespace)) else {
            return (records, false);
        };
        let Some(id) = header.strip_prefix(b"@") else {
            return (records, true);
        };
        let (Some(seq), Some(plus), Some(qual)) = (lines.next(), lines.next(), lines.next()) else {
            return (records, true);
        };
        if !plus.starts_with(b"+") || qual.len() != seq.len() {
            return (records, true);
        }
        let base = |b: &u8| match b.to_ascii_uppercase() {
            b'C' => 'C',
            b'G' => 'G',
            b'T' => 'T',
            _ => 'A',
        };
        let seq: String = seq.iter().map(base).collect();
        records.push(ReadRecord {
            id: String::from_utf8_lossy(id)
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_string(),
            seq: DnaSeq::from_ascii(seq.as_bytes()).expect("bases"),
            qual: qual.to_vec(),
        });
    }
}

/// Everything a reader yields up to and including its first error, and
/// whether it stays fused after it.
fn drain<T, E>(mut items: impl Iterator<Item = Result<T, E>>) -> (Vec<T>, bool, bool) {
    let mut ok = Vec::new();
    for item in items.by_ref() {
        match item {
            Ok(v) => ok.push(v),
            Err(_) => return (ok, true, items.next().is_none()),
        }
    }
    (ok, false, true)
}

/// What a mate stream offers at record `i`: a record, its fault, or its end.
fn mate_at(parsed: &(Vec<ReadRecord>, bool), i: usize) -> Result<Option<&ReadRecord>, ()> {
    match parsed.0.get(i) {
        Some(rec) => Ok(Some(rec)),
        None if parsed.1 && i == parsed.0.len() => Err(()),
        None => Ok(None),
    }
}

/// A mapped mate's CIGAR spans its read, and its alignment lies inside
/// its chromosome.
fn check_mapped(r1: &DnaSeq, r2: &DnaSeq) -> Result<(), TestCaseError> {
    let mapper = mapper();
    let res = mapper.map_pair_with(&mut MapScratch::new(), r1, r2);
    if let Some(m) = res.mapping {
        let chrom_len = mapper.genome().chromosome(m.chrom).len() as u64;
        for (read, cigar, pos) in [(r1, &m.cigar1, m.pos1), (r2, &m.cigar2, m.pos2)] {
            prop_assert_eq!(cigar.query_len(), read.len() as u64);
            prop_assert!(pos + cigar.ref_len() <= chrom_len, "{} + {}", pos, cigar);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(cases(20_000))]

    #[test]
    fn fastq_reader_matches_the_line_reference_when_cut_anywhere(
        records in prop::collection::vec(record(), 0..6),
        cut in 0.0f64..1.0,
        whole in 0u8..4,
    ) {
        let bytes = render(&records, "/1", None);
        // A quarter of the cases keep the whole stream.
        let cut = if whole == 0 { bytes.len() } else { (cut * bytes.len() as f64) as usize };
        let bytes = &bytes[..cut];
        let (want, want_err) = reference_parse(bytes);
        let (got, got_err, fused) = drain(FastqReader::new(bytes));
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_err, want_err);
        prop_assert!(fused);
        // The same bytes through a 7-byte buffer: every line is stitched.
        let tiny = std::io::BufReader::with_capacity(7, bytes);
        let (stitched, stitched_err, _) = drain(FastqReader::new(tiny));
        prop_assert_eq!(&stitched, &want);
        prop_assert_eq!(stitched_err, want_err);
        // Uncut and well formed, the reference reads back what was written.
        if whole == 0 && records.iter().all(|r| r.qual_extra == 0) {
            prop_assert!(!want_err);
            prop_assert_eq!(want.len(), records.len());
            for (rec, r) in want.iter().zip(&records) {
                prop_assert_eq!(rec.seq.len(), r.seq.len());
            }
        }
    }
}

proptest! {
    #![proptest_config(cases(10_000))]

    #[test]
    fn read_pair_stream_pairs_mates_or_fails_and_every_pair_maps_safely(
        pairs in prop::collection::vec(mates(), 0..5),
        extra in (prop::collection::vec(record(), 1..3), 0u8..3),
        cuts in (0.0f64..1.0, 0.0f64..1.0, 0u8..4),
        rename in (0usize..8, 0u8..4),
    ) {
        let (mut mates1, mut mates2): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        // A third of the cases give one mate file surplus records.
        match extra.1 {
            0 => mates1.extend(extra.0),
            1 => mates2.extend(extra.0),
            _ => {}
        }
        let (cut1, cut2, whole) = cuts;
        let rename = (rename.1 == 0).then_some(rename.0);
        let (f1, f2) = (render(&mates1, "/1", None), render(&mates2, "/2", rename));
        let (f1, f2) = if whole == 0 {
            (&f1[..], &f2[..])
        } else {
            let at = |f: &[u8], c: f64| (c * f.len() as f64) as usize;
            (&f1[..at(&f1, cut1)], &f2[..at(&f2, cut2)])
        };
        let (p1, p2) = (reference_parse(f1), reference_parse(f2));
        let strip = |id: &str| {
            id.strip_suffix("/1").or_else(|| id.strip_suffix("/2")).unwrap_or(id).to_string()
        };
        // The pairs the two streams make, and whether they end in an error.
        let mut want = Vec::new();
        let want_err = loop {
            let i = want.len();
            match (mate_at(&p1, i), mate_at(&p2, i)) {
                (Ok(None), Ok(None)) => break false,
                (Ok(Some(a)), Ok(Some(b))) if strip(&a.id) == strip(&b.id) => {
                    want.push((strip(&a.id), a.seq.clone(), b.seq.clone()));
                }
                _ => break true,
            }
        };
        let (got, got_err, fused) = drain(ReadPairStream::new(f1, f2));
        let got: Vec<_> = got.into_iter().map(|p| (p.id, p.r1, p.r2)).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_err, want_err);
        prop_assert!(fused);
        for (_, r1, r2) in &got {
            check_mapped(r1, r2)?;
        }
    }
}

/// A small index (seed length 10) and its serialized bytes.
fn small_index() -> &'static (SeedMap, Vec<u8>) {
    static INDEX: OnceLock<(SeedMap, Vec<u8>)> = OnceLock::new();
    INDEX.get_or_init(|| {
        let genome = RandomGenomeBuilder::new(3_000).seed(17).build();
        let cfg = SeedMapConfig {
            seed_len: 10,
            bucket_bits: Some(8),
            ..SeedMapConfig::default()
        };
        let map = SeedMap::build(&genome, &cfg);
        let mut bytes = Vec::new();
        write_seedmap(&map, &mut bytes).expect("write to memory");
        (map, bytes)
    })
}

proptest! {
    #![proptest_config(cases(20_000))]

    #[test]
    fn a_damaged_index_loads_as_an_error_or_as_exactly_its_bytes(
        flips in prop::collection::vec((0.0f64..1.0, 1u8..=255), 0..4),
        header_flip in (0usize..68, 1u8..=255, 0u8..3),
        end in (0.0f64..1.0, 0u8..4, prop::collection::vec(0u8..=255, 0..9)),
        queries in prop::collection::vec(0u32..=u32::MAX, 4),
    ) {
        let mut bytes = small_index().1.clone();
        for (at, mask) in flips {
            let at = (at * bytes.len() as f64) as usize;
            bytes[at] ^= mask;
        }
        // A third of the cases also damage the 68-byte header.
        if header_flip.2 == 0 {
            bytes[header_flip.0] ^= header_flip.1;
        }
        // A quarter are cut short, a quarter carry junk after the tables.
        let (cut, how, junk) = end;
        let written = bytes.len();
        match how {
            0 => bytes.truncate((cut * written as f64) as usize),
            1 => bytes.extend_from_slice(&junk),
            _ => {}
        }
        let Ok(map) = read_seedmap(bytes.as_slice()) else {
            return Ok(());
        };
        let mut back = Vec::new();
        write_seedmap(&map, &mut back).expect("write to memory");
        prop_assert!(back.len() <= bytes.len());
        prop_assert!(back[..] == bytes[..back.len()], "loaded index writes other bytes");
        let codes: Vec<u8> = (0..map.config().seed_len).map(|i| (i % 4) as u8).collect();
        let _ = map.query(&codes);
        for hash in queries {
            let (_, start, end) = map.bucket_range(hash);
            prop_assert!(start <= end);
            prop_assert_eq!(map.locations_for_hash(hash).len() as u64, end - start);
        }
    }
}

#[test]
fn an_undamaged_index_round_trips() {
    let (map, bytes) = small_index();
    let back = read_seedmap(bytes.as_slice()).expect("loads");
    assert_eq!(back.stats(), map.stats());
}

#[test]
fn an_index_past_the_genome_end_is_refused_before_mapping() {
    let built = mapper();
    let (genome, config) = (built.genome(), GenPairConfig::default());
    let mut bytes = Vec::new();
    write_seedmap(built.seedmap(), &mut bytes).expect("write to memory");
    let locations = built.seedmap().locations().len();
    let table = bytes.len() - 4 * locations;
    for entry in [0, locations / 2, locations - 1] {
        // The top bit of a little-endian entry: a position past 2^31.
        let mut flipped = bytes.clone();
        flipped[table + 4 * entry + 3] ^= 0x80;
        let map = read_seedmap(flipped.as_slice()).expect("a flipped location still loads");
        match GenPairMapper::with_seedmap(genome, map, &config) {
            Err(IndexMismatch::PastGenomeEnd { genome_len, .. }) => {
                assert_eq!(genome_len, genome.total_len())
            }
            other => panic!("entry {entry}: {:?}", other.map(|_| ())),
        }
    }
    let short = small_index().0.clone();
    assert_eq!(
        GenPairMapper::with_seedmap(genome, short, &config).map(|_| ()),
        Err(IndexMismatch::SeedLen {
            index: 10,
            config: config.seedmap.seed_len
        })
    );
    // The undamaged bytes fit, and map a pair as the index they came from.
    let map = read_seedmap(bytes.as_slice()).expect("loads");
    let loaded = GenPairMapper::with_seedmap(genome, map, &config).expect("the index fits");
    let seq = genome.chromosome(1).seq();
    let (r1, r2) = (seq.subseq(9_000..9_150), seq.subseq(9_300..9_450).revcomp());
    let (want, got) = (built.map_pair(&r1, &r2), loaded.map_pair(&r1, &r2));
    let placed = |res: &genpairx::core::PairMapResult| {
        let m = res.mapping.as_ref().expect("the pair maps");
        (m.chrom, m.pos1, m.pos2, m.cigar1.to_string(), m.mapq)
    };
    let (chrom, pos1, pos2, ..) = placed(&got);
    assert_eq!((chrom, pos1, pos2), (1, 9_000, 9_300));
    assert_eq!(placed(&got), placed(&want));
}

#[test]
fn a_huge_bad_header_is_not_echoed_whole() {
    // A 10 MB line where a record's `@` header belongs.
    let mut line = vec![b'A'; 10 << 20];
    line.push(b'\n');
    let err = FastqReader::new(line.as_slice())
        .next()
        .expect("an item")
        .expect_err("no @ header")
        .to_string();
    assert!(err.len() < 200, "{} bytes: {}", err.len(), &err[..200]);
    assert!(err.contains("expected @header, got AAAA"), "{err}");
    assert!(err.contains(&format!("({} bytes)", 10 << 20)), "{err}");
    let good = b"@r\nACGT\n+\nIIII\n";
    for (r1, r2) in [(&line[..], &good[..]), (&good[..], &line[..])] {
        let err = ReadPairStream::new(r1, r2)
            .next()
            .expect("an item")
            .expect_err("no @ header")
            .to_string();
        assert!(err.len() < 200, "{} bytes", err.len());
    }
}

#[test]
fn huge_disagreeing_mate_ids_are_not_echoed_whole() {
    // Two one-record mate files whose 10 MiB ids differ in their last byte.
    let file = |last: u8| {
        let mut id = vec![b'r'; 10 << 20];
        *id.last_mut().unwrap() = last;
        [&b"@"[..], &id, b"\nACGT\n+\nIIII\n"].concat()
    };
    let (r1, r2) = (file(b'x'), file(b'y'));
    // Each id is echoed as its first 64 bytes and its length (84 bytes).
    let bound = 256;
    let err = ReadPairStream::new(&r1[..], &r2[..])
        .next()
        .expect("an item")
        .expect_err("the ids differ")
        .to_string();
    assert!(err.len() < bound, "{} bytes: {}", err.len(), &err[..bound]);
    assert!(err.contains("mate id mismatch: rrrr"), "{err}");
    assert!(err.contains(&format!("({} bytes)", 10 << 20)), "{err}");

    // The same pair as a service job's input: the reason the job fails
    // with is that error.
    let (job, _) = ServiceBuilder::new()
        .threads(1)
        .serve(SoftwareBackend::new(mapper()), |svc| {
            let input = ReadPairStream::new(Cursor::new(r1), Cursor::new(r2));
            let (job, _) = svc
                .submit(JobSpec::new(), input, VecSink::new())
                .expect("admitted")
                .join();
            job
        });
    assert_eq!(job.outcome, JobOutcome::Failed);
    let reason = job.report.abort_reason.expect("a reason");
    assert!(reason.len() < bound, "{} bytes", reason.len());
    assert!(reason.contains("mate id mismatch"), "{reason}");
}
