//! Integration: boundary behaviours the unit tests don't reach — reads at
//! chromosome edges, windows truncated by contig ends, multi-chromosome
//! coordinate handling, and end-to-end SAM plumbing.

use genpairx::core::{pair_mapping_to_sam, GenPairConfig, GenPairMapper, ReadPair};
use genpairx::genome::random::RandomGenomeBuilder;
use genpairx::genome::{Chromosome, DnaSeq, ReferenceGenome};
use genpairx::pipeline::{RecordSink, SamTextSink};
use genpairx::seedmap::{SeedMap, SeedMapConfig};

#[test]
fn pair_at_chromosome_start_maps() {
    let genome = RandomGenomeBuilder::new(60_000).seed(61).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    // Read 1 begins at position 0: the light-alignment window is truncated
    // on the left and the anchor sits at the window start.
    let r1 = seq.subseq(0..150);
    let r2 = seq.subseq(250..400).revcomp();
    let res = mapper.map_pair(&r1, &r2);
    let m = res.mapping.expect("edge pair should map");
    assert_eq!(m.pos1, 0);
    assert_eq!(m.pos2, 250);
}

#[test]
fn pair_at_chromosome_end_maps() {
    let genome = RandomGenomeBuilder::new(60_000).seed(62).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    let n = seq.len();
    let r2 = seq.subseq(n - 150..n).revcomp();
    let r1 = seq.subseq(n - 400..n - 250);
    let res = mapper.map_pair(&r1, &r2);
    let m = res.mapping.expect("edge pair should map");
    assert_eq!(m.pos2 as usize, n - 150);
}

#[test]
fn dp_cells_count_a_mate_whose_partner_window_is_too_short() {
    use genpairx::align::banded_cells;
    use genpairx::core::{FallbackStage, DP_FALLBACK_BAND, DP_FALLBACK_MARGIN};
    let genome = RandomGenomeBuilder::new(60_000).seed(62).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    let n = seq.len();
    // Mate 1 carries a 3-base deletion and a mismatch: light alignment
    // refuses it, DP places it.
    let mut r1 = seq.subseq(n - 300..n - 260);
    r1.extend_from_seq(&seq.subseq(n - 257..n - 147));
    r1.set(10, r1.get(10).complement());
    // Mate 2's first seed is the chromosome's last 50 bases and the rest
    // hangs off the end: its DP window (from `DP_FALLBACK_MARGIN` = 8 bases
    // before the candidate to the end) is shorter than half the read.
    let mut fwd2 = seq.subseq(n - 50..n);
    let other = RandomGenomeBuilder::new(1_000).seed(63).build();
    fwd2.extend_from_seq(&other.chromosome(0).seq().subseq(0..100));
    let res = mapper.map_pair(&r1, &fwd2.revcomp());
    assert_eq!(res.fallback, Some(FallbackStage::LightAlign));
    assert!(res.mapping.is_none());
    // Mate 1's DP ran, so its cells are counted.
    let window = 150 + 2 * DP_FALLBACK_MARGIN;
    assert_eq!(
        res.work.dp_cells,
        banded_cells(150, window, DP_FALLBACK_BAND)
    );
}

#[test]
fn cross_chromosome_candidates_rejected() {
    // Two chromosomes laid out adjacently in global coordinates: a pair
    // whose ends land on different chromosomes must not form a mapping,
    // even though the global positions are adjacent.
    let genome = RandomGenomeBuilder::new(120_000)
        .chromosomes(2)
        .seed(63)
        .build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let c0 = genome.chromosome(0).seq();
    let c1 = genome.chromosome(1).seq();
    let r1 = c0.subseq(c0.len() - 150..c0.len()); // end of chr1
    let r2 = c1.subseq(100..250).revcomp(); // start of chr2
    let res = mapper.map_pair(&r1, &r2);
    if let Some(m) = &res.mapping {
        // If something mapped, it must be a within-chromosome placement
        // (e.g. a repeat copy), never a chimera.
        let end1 = m.pos1 as usize + 150;
        assert!(end1 <= genome.chromosome(m.chrom).len());
        let end2 = m.pos2 as usize + 150;
        assert!(end2 <= genome.chromosome(m.chrom).len());
    }
}

#[test]
fn seedmap_handles_tiny_chromosomes() {
    // Chromosomes shorter than the seed length are skipped, not crashed on.
    let genome = ReferenceGenome::from_chromosomes(vec![
        Chromosome::new("tiny", DnaSeq::from_ascii(b"ACGT").unwrap()),
        Chromosome::new(
            "normal",
            RandomGenomeBuilder::new(5_000)
                .seed(64)
                .build()
                .chromosome(0)
                .seq()
                .clone(),
        ),
    ]);
    let map = SeedMap::build(&genome, &SeedMapConfig::default());
    assert!(map.stats().stored_locations > 0);
    // All stored locations must come from the normal chromosome.
    let normal_start = genome.chrom_start(1) as u32;
    for h in (0u32..10_000).step_by(101) {
        for &loc in map.locations_for_hash(h) {
            assert!(loc >= normal_start, "location {loc} from tiny chromosome");
        }
    }
}

#[test]
fn sam_roundtrip_through_pileup() {
    use genpairx::vcall::Pileup;
    let genome = RandomGenomeBuilder::new(50_000).seed(65).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    let r1 = seq.subseq(7_000..7_150);
    let r2 = seq.subseq(7_200..7_350).revcomp();
    let m = mapper.map_pair(&r1, &r2).mapping.expect("maps");
    let (s1, s2) = pair_mapping_to_sam(m, ReadPair::new("edge", r1, r2));

    // SAM text renders with the right contig and 1-based coordinates.
    let mut sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
    sink.write_record(&s1).unwrap();
    sink.write_record(&s2).unwrap();
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    assert!(text.contains(&format!("\tchr1\t{}\t", 7_001)));

    // Pileup sees exactly the aligned columns.
    let mut pile = Pileup::new(&genome);
    pile.add_record(&s1);
    pile.add_record(&s2);
    assert_eq!(pile.depth(0, 7_075), 1);
    assert_eq!(pile.depth(0, 7_175), 0); // the insert gap between the ends
    assert_eq!(pile.depth(0, 7_275), 1);
    // And the bases agree with the reference (perfect reads).
    let c = pile.base_counts(0, 7_300);
    assert_eq!(c[seq.code_at(7_300) as usize], 1);
}

#[test]
fn nmsl_window_larger_than_workload() {
    use genpairx::accel::workload::{PairWorkload, SeedFetch};
    use genpairx::accel::{NmslConfig, NmslSim};
    use genpairx::memsim::DramConfig;
    let ws: Vec<PairWorkload> = (0..5)
        .map(|i| {
            PairWorkload::new([SeedFetch {
                hash: i * 1000,
                loc_start: i as u64 * 10,
                locations: 3,
            }])
        })
        .collect();
    let mut sim = NmslSim::new(
        DramConfig::hbm2e_32ch(),
        NmslConfig {
            window: Some(1_000_000),
            ..NmslConfig::default()
        },
    );
    let res = sim.run(&ws);
    assert_eq!(res.pairs, 5);
    assert!(res.max_inflight_pairs <= 5);
}

#[test]
fn mapper_rejects_short_reads_gracefully() {
    let genome = RandomGenomeBuilder::new(30_000).seed(66).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let short = genome.chromosome(0).seq().subseq(100..130); // < seed_len
    let r2 = genome.chromosome(0).seq().subseq(300..450).revcomp();
    let res = mapper.map_pair(&short, &r2);
    assert!(res.mapping.is_none());
    assert!(res.fallback.is_some());
}
