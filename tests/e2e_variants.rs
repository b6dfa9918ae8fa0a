//! Integration: end-to-end variant calling through GenPair mapping (the
//! Table 7 pipeline at test scale).

use genpairx::core::{pair_mapping_to_sam, GenPairConfig, GenPairMapper, ReadPair};
use genpairx::genome::variant::{generate_variants, DonorGenome, VariantProfile};
use genpairx::readsim::dataset::standard_genome;
use genpairx::readsim::{ErrorModel, PairedEndSimulator};
use genpairx::vcall::{call_variants, compare_variants, Pileup};

#[test]
fn variants_recovered_through_genpair_mapping() {
    let genome = standard_genome(200_000, 31);
    let truth = generate_variants(&genome, &VariantProfile::default(), 32);
    let donor = DonorGenome::apply(&genome, truth).expect("valid variants");
    assert!(donor.variants().len() > 50);

    let n_pairs = (genome.total_len() as usize * 25) / 300;
    let pairs = PairedEndSimulator::new(donor.genome())
        .seed(33)
        .error_model(ErrorModel::mason_default(0.001))
        .simulate(n_pairs);

    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let mut pile = Pileup::new(&genome);
    for p in &pairs {
        if let Some(m) = mapper.map_pair(&p.r1.seq, &p.r2.seq).mapping {
            let (s1, s2) = pair_mapping_to_sam(
                m,
                ReadPair::new(p.id.as_str(), p.r1.seq.clone(), p.r2.seq.clone()),
            );
            pile.add_record(&s1);
            pile.add_record(&s2);
        }
    }
    let calls = call_variants(&pile, &genome);
    let result = compare_variants(&calls, donor.variants());

    assert!(
        result.snp.f1() > 0.7,
        "SNP F1 {:.3} (tp={} fp={} fn={})",
        result.snp.f1(),
        result.snp.tp,
        result.snp.fp,
        result.snp.fn_
    );
    assert!(
        result.snp.precision() > 0.9,
        "SNP precision {:.3}",
        result.snp.precision()
    );
    // INDEL recovery is harder (light alignment's single-run model), but
    // a meaningful share must survive end to end.
    assert!(
        result.indel.recall() > 0.3,
        "INDEL recall {:.3}",
        result.indel.recall()
    );
}

#[test]
fn filter_threshold_trades_precision_for_recall() {
    // Fig. 13's qualitative claim at test scale: a restrictive threshold
    // must not *reduce* precision, and a permissive one must not *reduce*
    // the number of mapped pairs.
    let genome = standard_genome(200_000, 41);
    let ds_truth = generate_variants(&genome, &VariantProfile::default(), 42);
    let donor = DonorGenome::apply(&genome, ds_truth).expect("valid variants");
    let pairs = PairedEndSimulator::new(donor.genome())
        .seed(43)
        .simulate(200);

    let strict = GenPairMapper::build(&genome, &GenPairConfig::default().with_filter_threshold(50));
    let loose = GenPairMapper::build(
        &genome,
        &GenPairConfig::default().with_filter_threshold(100_000),
    );
    let mapped = |mapper: &GenPairMapper<'_>| -> usize {
        pairs
            .iter()
            .filter(|p| {
                let r = mapper.map_pair(&p.r1.seq, &p.r2.seq);
                r.mapping.is_some() && r.fallback.is_none()
            })
            .count()
    };
    let m_strict = mapped(&strict);
    let m_loose = mapped(&loose);
    assert!(
        m_loose >= m_strict,
        "loose filter mapped fewer pairs: {m_loose} < {m_strict}"
    );
}
