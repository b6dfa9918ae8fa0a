//! Table 7: end-to-end variant-calling accuracy — MM2 vs GenPair+MM2 (with
//! and without the index filtering threshold).
//!
//! Pipeline: donor genome with known SNPs/INDELs → simulate paired reads at
//! coverage → map → pileup-call variants → compare to truth.

use gx_baseline::Mm2Mapper;
use gx_bench::{
    bench_genome, env_usize, map_dataset_combo, map_dataset_mm2, render_table, GenPairMm2,
};
use gx_core::GenPairConfig;
use gx_genome::variant::{generate_variants, DonorGenome, VariantProfile};
use gx_genome::SamRecord;
use gx_readsim::{ErrorModel, PairedEndSimulator, SimulatedPair};
use gx_vcall::{call_variants, compare_variants, ComparisonResult, Pileup};

fn call_and_compare(
    sams: &[SamRecord],
    genome: &gx_genome::ReferenceGenome,
    truth: &[gx_genome::variant::Variant],
) -> ComparisonResult {
    let mut pile = Pileup::new(genome);
    for s in sams {
        pile.add_record(s);
    }
    let calls = call_variants(&pile, genome);
    compare_variants(&calls, truth)
}

fn rows_for(name: &str, r: &ComparisonResult) -> Vec<Vec<String>> {
    let fmt = |m: &gx_vcall::AccuracyMetrics| {
        vec![
            m.tp.to_string(),
            m.fp.to_string(),
            format!("{:.4}", m.precision()),
            format!("{:.4}", m.recall()),
            format!("{:.4}", m.f1()),
        ]
    };
    let mut snp = vec![format!("SNP   {name}")];
    snp.extend(fmt(&r.snp));
    let mut indel = vec![format!("INDEL {name}")];
    indel.extend(fmt(&r.indel));
    vec![snp, indel]
}

fn main() {
    let genome = bench_genome();
    let coverage = env_usize("GX_COVERAGE", 30);
    let n_pairs = (genome.total_len() as usize * coverage) / 300;

    // Donor genome with the paper's §7.8 variant rates.
    let variants = generate_variants(&genome, &VariantProfile::default(), 0xA12);
    let donor = DonorGenome::apply(&genome, variants).expect("variants apply");
    println!(
        "=== Table 7: variant calling ({} bp genome, {} truth variants, {}x coverage, {} pairs) ===\n",
        genome.total_len(),
        donor.variants().len(),
        coverage,
        n_pairs
    );

    // Simulate reads from the donor.
    let pairs: Vec<SimulatedPair> = PairedEndSimulator::new(donor.genome())
        .seed(0x7AB7)
        .error_model(ErrorModel::mason_default(0.001))
        .simulate(n_pairs);

    // MM2 baseline.
    let mm2 = Mm2Mapper::build(&genome);
    let (sams, _, _) = map_dataset_mm2(&mm2, &pairs);
    let r_mm2 = call_and_compare(&sams, &genome, donor.variants());

    // GenPair + MM2 (with filter).
    let combo = GenPairMm2::build(&genome);
    let (sams, stats, _, _) = map_dataset_combo(&combo, &pairs);
    let r_combo = call_and_compare(&sams, &genome, donor.variants());

    // GenPair + MM2 without the index filter.
    let combo_nf = GenPairMm2::build_with(
        &genome,
        &GenPairConfig::default().with_filter_threshold(u32::MAX),
    );
    let (sams, _, _, _) = map_dataset_combo(&combo_nf, &pairs);
    let r_nofilter = call_and_compare(&sams, &genome, donor.variants());

    let mut rows = Vec::new();
    rows.extend(rows_for("MM2", &r_mm2));
    rows.extend(rows_for("GenPair+MM2 no filter", &r_nofilter));
    rows.extend(rows_for("GenPair+MM2", &r_combo));
    println!(
        "{}",
        render_table(&["Mapper", "TP", "FP", "Prec.", "Rec.", "F1"], &rows)
    );
    println!(
        "GenPair mapped {:.1}% of pairs itself (light {:.1}%); rest fell back to MM2.",
        stats.mapped_pct(),
        stats.light_mapped_pct()
    );
    println!(
        "\nF1 deltas (GenPair+MM2 minus MM2): SNP {:+.4}, INDEL {:+.4} (paper: -0.0026 both)",
        r_combo.snp.f1() - r_mm2.snp.f1(),
        r_combo.indel.f1() - r_mm2.indel.f1()
    );
}
