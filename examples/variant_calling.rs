//! End-to-end variant calling (the paper's Table 7 pipeline in miniature):
//! donor genome with known variants → simulated paired reads → GenPair
//! mapping → pileup variant calling → accuracy against the truth set.
//!
//! Run with: `cargo run --release --example variant_calling`

use genpairx::core::{pair_mapping_to_sam, GenPairConfig, GenPairMapper, ReadPair};
use genpairx::genome::random::RandomGenomeBuilder;
use genpairx::genome::variant::{generate_variants, DonorGenome, VariantProfile};
use genpairx::readsim::{ErrorModel, PairedEndSimulator};
use genpairx::vcall::{call_variants, compare_variants, Pileup};

fn main() {
    let genome = RandomGenomeBuilder::new(400_000)
        .humanlike_repeats()
        .seed(11)
        .build();

    // Truth set: SNPs at ~1e-3/bp, INDELs at 2e-4/bp.
    let truth = generate_variants(&genome, &VariantProfile::default(), 99);
    let donor = DonorGenome::apply(&genome, truth).expect("variants apply cleanly");
    println!("donor genome carries {} variants", donor.variants().len());

    // ~25x coverage of 2x150bp pairs from the donor.
    let n_pairs = (genome.total_len() as usize * 25) / 300;
    let pairs = PairedEndSimulator::new(donor.genome())
        .seed(5)
        .error_model(ErrorModel::mason_default(0.001))
        .simulate(n_pairs);
    println!("simulated {} pairs (~25x coverage)", pairs.len());

    // Map against the *reference* and accumulate a pileup.
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let mut pile = Pileup::new(&genome);
    let mut mapped = 0usize;
    for p in &pairs {
        if let Some(m) = mapper.map_pair(&p.r1.seq, &p.r2.seq).mapping {
            let (s1, s2) = pair_mapping_to_sam(
                m,
                ReadPair::new(p.id.as_str(), p.r1.seq.clone(), p.r2.seq.clone()),
            );
            pile.add_record(&s1);
            pile.add_record(&s2);
            mapped += 1;
        }
    }
    println!("GenPair mapped {}/{} pairs", mapped, pairs.len());

    // Call and score.
    let calls = call_variants(&pile, &genome);
    let result = compare_variants(&calls, donor.variants());
    println!("\ncalled {} variants", calls.len());
    println!(
        "SNP   TP={} FP={} FN={}  precision={:.4} recall={:.4} F1={:.4}",
        result.snp.tp,
        result.snp.fp,
        result.snp.fn_,
        result.snp.precision(),
        result.snp.recall(),
        result.snp.f1()
    );
    println!(
        "INDEL TP={} FP={} FN={}  precision={:.4} recall={:.4} F1={:.4}",
        result.indel.tp,
        result.indel.fp,
        result.indel.fn_,
        result.indel.precision(),
        result.indel.recall(),
        result.indel.f1()
    );
}
