//! Integration: the full GenPair pipeline against simulation ground truth,
//! and agreement with the minimap2-style baseline.

use genpairx::baseline::{Mm2Mapper, StageTimings, WorkCounters};
use genpairx::core::{GenPairConfig, GenPairMapper, PipelineStats};
use genpairx::genome::Locus;
use genpairx::readsim::dataset::{simulate_variant_dataset, standard_genome, DATASETS};

#[test]
fn genpair_maps_variant_reads_to_their_origin() {
    let genome = standard_genome(400_000, 1);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let ds = simulate_variant_dataset(&genome, &DATASETS[0], 300);

    let mut stats = PipelineStats::new();
    let mut correct = 0usize;
    let mut mapped = 0usize;
    for p in &ds.pairs {
        let res = mapper.map_pair(&p.r1.seq, &p.r2.seq);
        stats.record(&res);
        if let Some(m) = &res.mapping {
            mapped += 1;
            let t1 = ds.donor.donor_to_ref(Locus {
                chrom: p.truth.chrom,
                pos: p.truth.start1,
            });
            if m.chrom == t1.chrom && m.pos1.abs_diff(t1.pos) <= 25 {
                correct += 1;
            }
        }
    }
    assert!(mapped >= 270, "mapped only {mapped}/300");
    assert!(
        correct as f64 / mapped as f64 > 0.95,
        "only {correct}/{mapped} correct"
    );
    // The light path must carry the bulk of the work (paper: 76.1%).
    assert!(
        stats.light_mapped_pct() > 60.0,
        "{}",
        stats.light_mapped_pct()
    );
}

#[test]
fn genpair_and_baseline_agree_on_positions() {
    let genome = standard_genome(300_000, 2);
    let genpair = GenPairMapper::build(&genome, &GenPairConfig::default());
    let mm2 = Mm2Mapper::build(&genome);
    let ds = simulate_variant_dataset(&genome, &DATASETS[1], 150);

    let mut both = 0usize;
    let mut agree = 0usize;
    let mut t = StageTimings::default();
    let mut w = WorkCounters::default();
    for p in &ds.pairs {
        let g = genpair.map_pair(&p.r1.seq, &p.r2.seq);
        let b = mm2.map_pair(&p.r1.seq, &p.r2.seq, &mut t, &mut w);
        if let (Some(gm), Some(b1)) = (&g.mapping, &b.r1) {
            both += 1;
            if gm.chrom == b1.chrom && gm.pos1.abs_diff(b1.pos) <= 25 {
                agree += 1;
            }
        }
    }
    assert!(both > 100, "too few doubly-mapped pairs: {both}");
    assert!(agree as f64 / both as f64 > 0.9, "agreement {agree}/{both}");
}

#[test]
fn fallback_pairs_are_recovered_by_baseline() {
    // Whatever GenPair cannot map, the baseline should usually handle —
    // that is the premise of the GenPair+MM2 system.
    let genome = standard_genome(300_000, 3);
    let genpair = GenPairMapper::build(&genome, &GenPairConfig::default());
    let mm2 = Mm2Mapper::build(&genome);
    let ds = simulate_variant_dataset(&genome, &DATASETS[2], 200);

    let mut fallbacks = 0usize;
    let mut rescued = 0usize;
    let mut t = StageTimings::default();
    let mut w = WorkCounters::default();
    for p in &ds.pairs {
        let g = genpair.map_pair(&p.r1.seq, &p.r2.seq);
        if g.mapping.is_none() {
            fallbacks += 1;
            let b = mm2.map_pair(&p.r1.seq, &p.r2.seq, &mut t, &mut w);
            if b.r1.is_some() || b.r2.is_some() {
                rescued += 1;
            }
        }
    }
    if fallbacks > 0 {
        assert!(
            rescued * 2 >= fallbacks,
            "baseline rescued only {rescued}/{fallbacks}"
        );
    }
}

#[test]
fn long_read_pipeline_end_to_end() {
    let genome = standard_genome(600_000, 4);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let mut sim = genpairx::readsim::LongReadSimulator::new(&genome)
        .seed(5)
        .mean_len(4_000.0);
    let reads = sim.simulate(5);
    let mut correct = 0usize;
    for r in &reads {
        if let (Some(m), _) = mapper.map_long_read(&r.seq) {
            if m.chrom == r.chrom && m.pos.abs_diff(r.start) <= 200 {
                correct += 1;
            }
        }
    }
    assert!(correct >= 4, "only {correct}/5 long reads correct");
}
