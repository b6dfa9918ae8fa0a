//! Differential test of the byte-level SAM renderer
//! ([`SamRecord::write_sam_line`]) against the formatter-based line it
//! replaced, kept here verbatim as a test-only oracle.

use gx_genome::{flags, Base, Cigar, CigarOp, DnaSeq, SamRecord};
use proptest::prelude::*;
use std::fmt;

/// The sequence `Display` the old renderer went through: one `write!` per
/// base.
struct PerBase<'a>(&'a DnaSeq);

impl fmt::Display for PerBase<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// `SamRecord::to_sam_line` as it was before the byte-level renderer.
fn oracle_sam_line(rec: &SamRecord, chrom_name: &str) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t*\t0\t0\t{}\t*\tAS:i:{}",
        rec.qname,
        rec.flags,
        if rec.is_mapped() { chrom_name } else { "*" },
        if rec.is_mapped() { rec.pos + 1 } else { 0 },
        rec.mapq,
        rec.cigar,
        PerBase(&rec.seq),
        rec.score,
    )
}

/// Either one of `edges` or the free-running `any` value, half and half.
fn edge_or<T: Clone + fmt::Debug>(
    edges: Vec<T>,
    any: impl Strategy<Value = T>,
) -> impl Strategy<Value = T> {
    (0u8..2, prop::sample::select(edges), any).prop_map(|(pick, edge, any)| match pick {
        0 => edge,
        _ => any,
    })
}

fn arb_qname() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec!["", "sim", "läs-", "读", "read name ", "p\u{1F9EC}"]),
        0u64..1_000_000,
        prop::sample::select(vec!["", "/1", "/2"]),
    )
        .prop_map(|(stem, n, mate)| format!("{stem}{n}{mate}"))
}

/// 0..=20 runs, so both the empty CIGAR and CIGARs past the 8 inline runs
/// occur; run lengths reach `u32::MAX`'s digit count.
fn arb_cigar() -> impl Strategy<Value = Cigar> {
    let op = prop::sample::select(vec![
        CigarOp::Match,
        CigarOp::Equal,
        CigarOp::Diff,
        CigarOp::Ins,
        CigarOp::Del,
        CigarOp::SoftClip,
    ]);
    let len = edge_or(vec![1, 9, 10, 150, u32::MAX / 32], 1u32..100_000);
    prop::collection::vec((len, op), 0..=20).prop_map(Cigar::from_runs)
}

fn arb_seq() -> impl Strategy<Value = DnaSeq> {
    let len = edge_or(vec![0usize, 1, 31, 32, 33, 64, 65, 150, 200], 0usize..=200);
    (len, prop::collection::vec(0u8..4, 200)).prop_map(|(len, codes)| {
        // Built per base, so the oracle's input does not depend on the
        // word-wise constructors under test elsewhere.
        codes[..len].iter().map(|&c| Base::from_code(c)).collect()
    })
}

fn arb_record() -> impl Strategy<Value = SamRecord> {
    let head = (arb_qname(), 0u16..=u16::MAX, 0u32..=u32::MAX);
    let pos = edge_or(vec![0, 9, 99, u64::MAX - 1], 0u64..=u64::MAX - 1);
    let score = edge_or(
        vec![i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX],
        proptest::any_u64().prop_map(|bits| bits as i32),
    );
    (head, (pos, 0u8..=255, score), arb_cigar(), arb_seq()).prop_map(
        |((qname, flags, chrom), (pos, mapq, score), cigar, seq)| SamRecord {
            qname,
            flags,
            chrom,
            pos,
            mapq,
            cigar,
            seq,
            score,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn write_sam_line_equals_the_formatter_oracle(
        rec in arb_record(),
        chrom_name in prop::sample::select(vec!["chr1", "*", "chrÜ", ""]),
        dirty in 0usize..3,
    ) {
        // Appends, never clears: whatever the buffer held stays in front.
        let mut line = vec![b'#'; dirty];
        rec.write_sam_line(chrom_name, &mut line);
        let expect = oracle_sam_line(&rec, chrom_name);
        prop_assert_eq!(&line[..dirty], &b"##"[..dirty]);
        prop_assert_eq!(std::str::from_utf8(&line[dirty..]).expect("UTF-8 line"), &expect);
        prop_assert_eq!(rec.to_sam_line(chrom_name), expect);
    }
}

#[test]
fn unmapped_and_mapped_forms_of_one_record() {
    let mut rec = SamRecord {
        qname: "q/1".into(),
        flags: flags::PAIRED,
        chrom: 7,
        pos: u64::MAX - 1,
        mapq: 255,
        cigar: Cigar::new(),
        seq: DnaSeq::from_ascii(b"ACGTTGCA").expect("valid bases"),
        score: i32::MIN,
    };
    assert_eq!(
        rec.to_sam_line("chr8"),
        "q/1\t1\tchr8\t18446744073709551615\t255\t*\t*\t0\t0\tACGTTGCA\t*\tAS:i:-2147483648"
    );
    assert_eq!(rec.to_sam_line("chr8"), oracle_sam_line(&rec, "chr8"));
    rec.flags |= flags::UNMAPPED;
    assert_eq!(
        rec.to_sam_line("chr8"),
        "q/1\t5\t*\t0\t255\t*\t*\t0\t0\tACGTTGCA\t*\tAS:i:-2147483648"
    );
}
