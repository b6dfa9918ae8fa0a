use crate::pileup::Pileup;
use gx_genome::variant::{Variant, VariantKind};
use gx_genome::{Base, DnaSeq, ReferenceGenome};

// Thresholds of the pileup caller (freebayes-substitute values tuned for
// ~30–50× simulated coverage).

/// Minimum read depth at a site.
const MIN_DEPTH: u32 = 8;
/// Minimum fraction of reads supporting the alternate allele.
const MIN_ALT_FRAC: f64 = 0.3;
/// Minimum absolute alternate-supporting reads.
const MIN_ALT_COUNT: u32 = 4;

/// Calls SNPs and INDELs from a pileup against the reference: a site is
/// called when at least 8 reads cover it and at least 4 of them, and at
/// least 0.3 of the depth, support the alternate allele.
///
/// Returns variants sorted by `(chrom, pos)` using the same representation
/// as the truth sets produced by
/// [`gx_genome::variant::generate_variants`].
pub fn call_variants(pileup: &Pileup, genome: &ReferenceGenome) -> Vec<Variant> {
    let mut out = Vec::new();

    // SNPs from base columns.
    for (chrom, pos, counts) in pileup.columns() {
        let depth: u32 = counts.iter().map(|&c| c as u32).sum();
        if depth < MIN_DEPTH {
            continue;
        }
        let ref_code = genome.chromosome(chrom).seq().code_at(pos as usize);
        let (alt_code, alt_count) = counts
            .iter()
            .enumerate()
            .filter(|&(b, _)| b as u8 != ref_code)
            .map(|(b, &c)| (b as u8, c as u32))
            .max_by_key(|&(_, c)| c)
            .unwrap_or((0, 0));
        if alt_count >= MIN_ALT_COUNT && alt_count as f64 / depth as f64 >= MIN_ALT_FRAC {
            out.push(Variant::snp(chrom, pos, Base::from_code(alt_code)));
        }
    }

    // INDELs from gap events, judged against local depth.
    for (key, &support) in pileup.indels.iter() {
        if support < MIN_ALT_COUNT {
            continue;
        }
        let near = key.pos.saturating_sub(1);
        let depth = pileup.depth(key.chrom, near).max(pileup.depth(
            key.chrom,
            key.pos.min(genome.chromosome(key.chrom).len() as u64 - 1),
        ));
        if depth < MIN_DEPTH || (support as f64) < MIN_ALT_FRAC * depth as f64 {
            continue;
        }
        if key.signed_len > 0 {
            // Inserted sequence content is not tracked by the pileup; emit a
            // placeholder of the right length (comparison matches on
            // position + length).
            let seq: DnaSeq = (0..key.signed_len).map(|_| Base::A).collect();
            out.push(Variant::insertion(key.chrom, key.pos, seq));
        } else {
            out.push(Variant::deletion(
                key.chrom,
                key.pos,
                (-key.signed_len) as u32,
            ));
        }
    }

    out.sort_by_key(|v| (v.chrom, v.pos, v.kind == VariantKind::Snp));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;
    use gx_genome::{Cigar, SamRecord};

    fn setup() -> (ReferenceGenome, Pileup) {
        let g = RandomGenomeBuilder::new(3_000).seed(5).build();
        let p = Pileup::new(&g);
        (g, p)
    }

    fn rec(g: &ReferenceGenome, pos: u64, cigar: &str, seq: DnaSeq) -> SamRecord {
        let _ = g;
        SamRecord {
            qname: "r".into(),
            flags: 0,
            chrom: 0,
            pos,
            mapq: 60,
            cigar: Cigar::parse(cigar).unwrap(),
            seq,
            score: 0,
        }
    }

    #[test]
    fn homozygous_snp_called() {
        let (g, mut p) = setup();
        let mut read = g.chromosome(0).seq().subseq(100..140);
        read.set(20, read.get(20).complement());
        let alt = read.get(20);
        for _ in 0..12 {
            p.add_record(&rec(&g, 100, "40M", read.clone()));
        }
        let calls = call_variants(&p, &g);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].pos, 120);
        assert_eq!(calls[0].kind, VariantKind::Snp);
        assert_eq!(calls[0].alt.get(0), alt);
    }

    #[test]
    fn sequencing_noise_not_called() {
        let (g, mut p) = setup();
        let clean = g.chromosome(0).seq().subseq(200..240);
        // 11 clean reads, 1 with an error at one position.
        for _ in 0..11 {
            p.add_record(&rec(&g, 200, "40M", clean.clone()));
        }
        let mut noisy = clean.clone();
        noisy.set(10, noisy.get(10).complement());
        p.add_record(&rec(&g, 200, "40M", noisy));
        let calls = call_variants(&p, &g);
        assert!(calls.is_empty(), "{calls:?}");
    }

    #[test]
    fn deletion_called() {
        let (g, mut p) = setup();
        let mut read = g.chromosome(0).seq().subseq(300..310);
        read.extend_from_seq(&g.chromosome(0).seq().subseq(313..343));
        for _ in 0..10 {
            p.add_record(&rec(&g, 300, "10M3D30M", read.clone()));
        }
        let calls = call_variants(&p, &g);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].kind, VariantKind::Del);
        assert_eq!(calls[0].pos, 310);
        assert_eq!(calls[0].del_len, 3);
    }

    #[test]
    fn low_depth_site_not_called() {
        let (g, mut p) = setup();
        let mut read = g.chromosome(0).seq().subseq(400..440);
        read.set(5, read.get(5).complement());
        for _ in 0..3 {
            p.add_record(&rec(&g, 400, "40M", read.clone()));
        }
        assert!(call_variants(&p, &g).is_empty());
    }

    #[test]
    fn calls_flip_exactly_at_each_threshold() {
        // (case, alt reads, reference reads, called): each pair of rows
        // moves one threshold across its boundary while the other two hold.
        const CASES: [(&str, u32, u32, bool); 6] = [
            ("depth 8", 8, 0, true),
            ("depth 7", 7, 0, false),
            ("4 alt reads", 4, 6, true),
            ("3 alt reads", 3, 5, false),
            ("alt fraction 30/100", 30, 70, true),
            ("alt fraction 30/101", 30, 71, false),
        ];
        let (g, _) = setup();
        let chrom = g.chromosome(0).seq();
        let clean = chrom.subseq(500..540);
        let mut snp = clean.clone();
        snp.set(20, snp.get(20).complement());
        let mut del = chrom.subseq(500..510);
        del.extend_from_seq(&chrom.subseq(513..543));
        let branches = [
            (VariantKind::Snp, 520, "40M", snp),
            (VariantKind::Del, 510, "10M3D30M", del),
        ];
        for (kind, pos, cigar, alt_read) in branches {
            for (case, alt, reference, called) in CASES {
                let mut p = Pileup::new(&g);
                for _ in 0..alt {
                    p.add_record(&rec(&g, 500, cigar, alt_read.clone()));
                }
                for _ in 0..reference {
                    p.add_record(&rec(&g, 500, "40M", clean.clone()));
                }
                let calls = call_variants(&p, &g);
                let found: Vec<_> = calls.iter().map(|v| (v.kind, v.pos)).collect();
                let expected = if called { vec![(kind, pos)] } else { vec![] };
                assert_eq!(found, expected, "{kind:?} at {case}");
            }
        }
    }
}
