//! Property-based tests for the genome substrate.

use gx_genome::{Base, Cigar, CigarOp, DnaSeq};
use proptest::prelude::*;

fn arb_dna(max_len: usize) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, 1..=max_len).prop_map(|codes| DnaSeq::from_codes(&codes))
}

proptest! {
    #[test]
    fn ascii_roundtrip(seq in arb_dna(300)) {
        let ascii = seq.to_ascii();
        let back = DnaSeq::from_ascii(&ascii).expect("valid ascii");
        prop_assert_eq!(back, seq);
    }

    #[test]
    fn revcomp_is_involution(seq in arb_dna(300)) {
        prop_assert_eq!(seq.revcomp().revcomp(), seq);
    }

    #[test]
    fn revcomp_reverses_complements(seq in arb_dna(100)) {
        let rc = seq.revcomp();
        prop_assert_eq!(rc.len(), seq.len());
        for i in 0..seq.len() {
            prop_assert_eq!(rc.get(i), seq.get(seq.len() - 1 - i).complement());
        }
    }

    #[test]
    fn subseq_concatenation(seq in arb_dna(200), split in 0usize..200) {
        let split = split.min(seq.len());
        let mut joined = seq.subseq(0..split);
        joined.extend_from_seq(&seq.subseq(split..seq.len()));
        prop_assert_eq!(joined, seq);
    }

    #[test]
    fn ascii_pack_unpack_roundtrip_at_unaligned_offsets(
        prefix in arb_dna(70),
        bytes in prop::collection::vec(0u8..=255, 0..=200),
    ) {
        // ascii -> pack -> unpack, appended after a prefix of any length so
        // the packer starts mid-word. Non-nucleotides come back as `A`.
        let mut seq = prefix.clone();
        seq.extend_from_ascii_lossy(&bytes);
        let mut expect = prefix.to_ascii();
        expect.extend(bytes.iter().map(|&b| Base::from_ascii(b).unwrap_or(Base::A).to_ascii()));
        prop_assert_eq!(seq.len(), expect.len());
        prop_assert_eq!(seq.to_ascii(), expect.clone());
        prop_assert_eq!(seq.to_string().into_bytes(), expect.clone());
        let mut appended = b"ID\t".to_vec();
        seq.append_ascii_to(&mut appended);
        prop_assert_eq!(&appended[3..], &expect[..]);
        prop_assert_eq!(DnaSeq::from_ascii(&expect).expect("ACGT only"), seq);
    }

    #[test]
    fn extend_from_seq_matches_per_base(head in arb_dna(100), tail in arb_dna(200), cut in 0usize..200) {
        // Both the destination length and the source (a subseq, so its last
        // word is partial) sit at arbitrary offsets within a word.
        let tail = tail.subseq(cut.min(tail.len())..tail.len());
        let mut word_wise = head.clone();
        word_wise.extend_from_seq(&tail);
        let per_base: DnaSeq = head.iter().chain(tail.iter()).collect();
        prop_assert_eq!(word_wise.words().len(), per_base.len().div_ceil(32));
        prop_assert_eq!(word_wise, per_base);
    }

    #[test]
    fn from_codes_matches_per_base(codes in prop::collection::vec(0u8..4, 0..=200)) {
        let per_base: DnaSeq = codes.iter().map(|&c| Base::from_code(c)).collect();
        prop_assert_eq!(DnaSeq::from_codes(&codes), per_base);
    }

    #[test]
    fn kmer_u64_matches_codes(seq in arb_dna(80), pos in 0usize..60, k in 1usize..=16) {
        prop_assume!(pos + k <= seq.len());
        let v = seq.kmer_u64(pos, k);
        for i in 0..k {
            prop_assert_eq!(((v >> (2 * i)) & 3) as u8, seq.code_at(pos + i));
        }
    }

    #[test]
    fn set_then_get(seq in arb_dna(100), pos in 0usize..100, code in 0u8..4) {
        let mut seq = seq;
        let pos = pos.min(seq.len() - 1);
        seq.set(pos, Base::from_code(code));
        prop_assert_eq!(seq.get(pos).code(), code);
    }
}

fn arb_cigar() -> impl Strategy<Value = Cigar> {
    prop::collection::vec(
        (
            1u32..200,
            prop::sample::select(vec![
                CigarOp::Match,
                CigarOp::Equal,
                CigarOp::Diff,
                CigarOp::Ins,
                CigarOp::Del,
                CigarOp::SoftClip,
            ]),
        ),
        1..12,
    )
    .prop_map(Cigar::from_runs)
}

proptest! {
    #[test]
    fn cigar_display_parse_roundtrip(cigar in arb_cigar()) {
        let text = cigar.to_string();
        let back = Cigar::parse(&text).expect("own display parses");
        prop_assert_eq!(back, cigar);
    }

    #[test]
    fn cigar_lengths_consistent(cigar in arb_cigar()) {
        let q: u64 = cigar.runs().iter().filter(|(_, op)| op.consumes_query()).map(|&(n, _)| n as u64).sum();
        let r: u64 = cigar.runs().iter().filter(|(_, op)| op.consumes_ref()).map(|&(n, _)| n as u64).sum();
        prop_assert_eq!(cigar.query_len(), q);
        prop_assert_eq!(cigar.ref_len(), r);
    }

    #[test]
    fn cigar_m_form_preserves_lengths(cigar in arb_cigar()) {
        let m = cigar.to_m_form();
        prop_assert_eq!(m.query_len(), cigar.query_len());
        prop_assert_eq!(m.ref_len(), cigar.ref_len());
    }
}

mod variants {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;
    use gx_genome::variant::{generate_variants, DonorGenome, VariantProfile};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn donor_coordinates_are_monotone(seed in 0u64..5000) {
            let genome = RandomGenomeBuilder::new(20_000).seed(seed).build();
            let vars = generate_variants(&genome, &VariantProfile::default(), seed);
            let donor = DonorGenome::apply(&genome, vars).expect("valid variants");
            let map_len = donor.genome().chromosome(0).len() as u64;
            let mut prev = 0u64;
            for dpos in (0..map_len).step_by(97) {
                let rpos = donor.donor_to_ref(gx_genome::Locus { chrom: 0, pos: dpos }).pos;
                prop_assert!(rpos >= prev, "coordinate map went backwards");
                prev = rpos;
            }
        }

        #[test]
        fn donor_length_reflects_indels(seed in 0u64..5000) {
            let genome = RandomGenomeBuilder::new(20_000).seed(seed).build();
            let vars = generate_variants(&genome, &VariantProfile::default(), seed ^ 1);
            let ins: i64 = vars.iter().map(|v| v.alt.len() as i64 * matches!(v.kind, gx_genome::variant::VariantKind::Ins) as i64).sum();
            let del: i64 = vars.iter().map(|v| v.del_len as i64).sum();
            let snp_alt: i64 = vars.iter().filter(|v| v.kind == gx_genome::variant::VariantKind::Snp).count() as i64;
            let _ = snp_alt;
            let donor = DonorGenome::apply(&genome, vars).expect("valid variants");
            prop_assert_eq!(
                donor.genome().total_len() as i64,
                genome.total_len() as i64 + ins - del
            );
        }
    }
}
