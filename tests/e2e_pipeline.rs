//! Integration: the parallel mapping engine is a drop-in replacement for
//! serial `map_pair` iteration — its SAM output is **byte-identical** to the
//! serial reference for the same seeded dataset, across thread counts and
//! batch sizes (including batch size 1 and a non-divisible remainder), and
//! its merged statistics equal the serial run's. The cross-backend suite
//! extends the same guarantee to the NMSL accelerator backend: identical
//! SAM bytes, diverging only in reported (simulated) cost.

use genpairx::backend::NmslBackend;
use genpairx::core::{GenPairConfig, GenPairMapper, PipelineStats};
use genpairx::genome::ReferenceGenome;
use genpairx::pipeline::{
    map_serial, FallbackPolicy, PipelineBuilder, ReadPair, ReadPairStream, SamTextSink, VecSink,
};
use genpairx::readsim::dataset::{simulate_dataset, standard_genome, DATASETS};

const N_PAIRS: usize = 230; // deliberately not divisible by any batch size below

fn dataset(genome: &ReferenceGenome) -> Vec<ReadPair> {
    simulate_dataset(genome, &DATASETS[0], N_PAIRS)
        .into_iter()
        .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
        .collect()
}

/// Serial reference bytes: header + records emitted one pair at a time.
fn serial_sam(
    genome: &ReferenceGenome,
    mapper: &GenPairMapper<'_>,
    pairs: &[ReadPair],
    policy: FallbackPolicy,
) -> (Vec<u8>, PipelineStats) {
    let mut sink = SamTextSink::with_header(genome, Vec::new()).unwrap();
    let report = map_serial(mapper, policy, pairs.iter().cloned(), &mut sink).unwrap();
    (sink.into_inner().unwrap(), report.stats)
}

#[test]
fn parallel_sam_is_byte_identical_to_serial() {
    let genome = standard_genome(250_000, 7);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let pairs = dataset(&genome);
    let (expected, serial_stats) =
        serial_sam(&genome, &mapper, &pairs, FallbackPolicy::EmitUnmapped);
    assert_eq!(serial_stats.pairs, N_PAIRS as u64);

    for threads in [1usize, 2, 4, 8] {
        // 1 = degenerate batching, 7 = non-divisible remainder (230 = 32*7+6),
        // 64 = larger than some shards, 512 = one oversized batch.
        for batch_size in [1usize, 7, 64, 512] {
            let engine = PipelineBuilder::new()
                .threads(threads)
                .batch_size(batch_size)
                .engine(&mapper);
            let mut sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
            let report = engine.run(pairs.iter().cloned(), &mut sink).unwrap();
            let got = sink.into_inner().unwrap();
            assert!(
                got == expected,
                "SAM bytes diverge at threads={threads} batch_size={batch_size}"
            );
            assert_eq!(
                report.stats, serial_stats,
                "stats diverge at threads={threads} batch_size={batch_size}"
            );
            let expected_batches = N_PAIRS.div_ceil(batch_size) as u64;
            assert_eq!(report.batches, expected_batches);
        }
    }
}

#[test]
fn nmsl_backend_sam_is_byte_identical_to_software() {
    // The co-design contract: the accelerator backend maps with the same
    // algorithm, so for any thread count and batch size its ordered SAM
    // stream equals the software backend's — only the reported cost model
    // differs. The shared warm device carries simulator state across every
    // batch; this must never influence results. Batch size 1 exercises one
    // admission per pair; 64 gives multi-pair admissions.
    let genome = standard_genome(180_000, 12);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let pairs: Vec<ReadPair> = simulate_dataset(&genome, &DATASETS[0], 70)
        .into_iter()
        .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
        .collect();

    let (expected, software_stats) =
        serial_sam(&genome, &mapper, &pairs, FallbackPolicy::EmitUnmapped);

    for threads in [1usize, 4] {
        for batch_size in [1usize, 64] {
            let engine = PipelineBuilder::new()
                .threads(threads)
                .batch_size(batch_size)
                .backend(NmslBackend::new(&mapper));
            let mut sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
            let report = engine.run(pairs.iter().cloned(), &mut sink).unwrap();
            let got = sink.into_inner().unwrap();
            assert!(
                got == expected,
                "NMSL SAM bytes diverge at threads={threads} batch_size={batch_size}"
            );
            assert_eq!(
                report.stats, software_stats,
                "algorithm stats diverge at threads={threads} batch_size={batch_size}"
            );
            // The accelerator model actually ran: nonzero simulated cost
            // in every stage.
            assert_eq!(report.backend_name, "nmsl");
            assert_eq!(report.backend.batches, report.batches);
            assert_eq!(report.backend.pairs, pairs.len() as u64);
            assert!(
                report.backend.seed_cycles > 0 && report.backend.energy_pj > 0.0,
                "missing simulated cost at threads={threads} batch_size={batch_size}"
            );
            assert_eq!(
                report.backend.sim_cycles,
                report.backend.seed_cycles + report.backend.fallback_cycles
            );
            assert!(
                report.backend.transfer_seconds > 0.0,
                "host transfer unaccounted at threads={threads} batch_size={batch_size}"
            );
            assert!(report.backend.input_bytes > 0 && report.backend.output_bytes > 0);
        }
    }
}

#[test]
fn overlapped_dma_emits_identical_sam_and_never_slows_the_system() {
    // The double-buffered DMA model is timing-only: SAM bytes must equal
    // the serial reference, and the overlapped system timeline can only be
    // at most the serialized one — transfer time is hidden behind compute,
    // never invented. Exercised end to end through the engine
    // (the dispatch queue, the shared warm device) at the acceptance
    // thread counts {1, 4}.
    let genome = standard_genome(200_000, 18);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let pairs: Vec<ReadPair> = simulate_dataset(&genome, &DATASETS[0], 640)
        .into_iter()
        .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
        .collect();
    let (expected, _) = serial_sam(&genome, &mapper, &pairs, FallbackPolicy::EmitUnmapped);

    for threads in [1usize, 4] {
        // Two lanes on the 64-pair quantum: each lane streams ~5 quanta,
        // so real quantum-level DMA overlap occurs on this dataset.
        let engine = PipelineBuilder::new()
            .threads(threads)
            .batch_size(16)
            .backend(NmslBackend::new(&mapper).channels(2));
        let mut sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
        let b = engine
            .run(pairs.iter().cloned(), &mut sink)
            .unwrap()
            .backend;
        assert!(
            sink.into_inner().unwrap() == expected,
            "SAM bytes diverge from serial at threads={threads}"
        );
        assert!(b.transfer_seconds > 0.0 && b.input_bytes > 0);
        // The PR 4 inequality, end to end, on the fields themselves:
        // exposed ≤ raw, so overlapped system time ≤ serialized.
        assert!(
            b.exposed_transfer_seconds <= b.transfer_seconds,
            "exposed {} > raw {} at threads={threads}",
            b.exposed_transfer_seconds,
            b.transfer_seconds
        );
        assert!(
            b.modeled_system_seconds() <= b.sim_seconds + b.transfer_seconds,
            "threads={threads}"
        );
        // Real overlap must occur: every quantum after a lane's first
        // hides (part of) its DMA behind the previous quantum's drain.
        // The shared device makes this deterministic at ANY thread count,
        // where the per-worker model could only promise it at one.
        assert!(
            b.exposed_transfer_seconds < b.transfer_seconds,
            "no transfer was hidden on the shared warm device at threads={threads}"
        );
    }
}

#[test]
fn gendp_charged_exactly_for_the_fallback_share() {
    // Hand-crafted exact pairs stay on the light path: no pair reaches
    // GenDP, so the fallback stage must report zero. Adding a foreign pair
    // (which must fall back) makes it nonzero — the stage accounting
    // follows `fallback.is_some()` exactly.
    let genome = genpairx::genome::random::RandomGenomeBuilder::new(150_000)
        .seed(15)
        .build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    let clean: Vec<ReadPair> = (0..24)
        .map(|i| {
            let s = 2_000 + i * 5_000;
            ReadPair::new(
                format!("c{i}"),
                seq.subseq(s..s + 150),
                seq.subseq(s + 250..s + 400).revcomp(),
            )
        })
        .collect();

    let engine = PipelineBuilder::new()
        .threads(2)
        .batch_size(8)
        .backend(NmslBackend::new(&mapper));
    let (_, clean_report) = engine.run_collect(clean.clone());
    assert_eq!(clean_report.stats.fallback_total(), 0);
    assert_eq!(clean_report.backend.fallback_cycles, 0);
    assert_eq!(clean_report.backend.fallback_seconds, 0.0);
    assert_eq!(clean_report.backend.fallback_energy_pj, 0.0);
    // Seeding and transfer still charged for every pair.
    assert!(clean_report.backend.seed_cycles > 0);
    assert!(clean_report.backend.transfer_seconds > 0.0);

    let foreign = standard_genome(8_000, 0xFEED);
    let oseq = foreign.chromosome(0).seq();
    let mut with_alien = clean;
    with_alien.push(ReadPair::new(
        "alien",
        oseq.subseq(100..250),
        oseq.subseq(300..450).revcomp(),
    ));
    let (_, dirty_report) = engine.run_collect(with_alien);
    assert!(dirty_report.stats.fallback_total() > 0);
    assert!(dirty_report.backend.fallback_cycles > 0);
    assert!(dirty_report.backend.fallback_energy_pj > 0.0);
}

#[test]
fn streaming_fastq_input_matches_materialized_input() {
    // The engine fed by an incremental ReadPairStream (no up-front Vec)
    // produces the same bytes as the collect-wrapper path.
    let genome = standard_genome(150_000, 13);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let pairs = dataset(&genome);

    // Render the dataset as mate-paired FASTQ text.
    let mut r1_text = Vec::new();
    let mut r2_text = Vec::new();
    for p in &pairs {
        use std::io::Write;
        let q1 = "I".repeat(p.r1.len());
        let q2 = "I".repeat(p.r2.len());
        write!(r1_text, "@{}/1\n{}\n+\n{}\n", p.id, p.r1, q1).unwrap();
        write!(r2_text, "@{}/2\n{}\n+\n{}\n", p.id, p.r2, q2).unwrap();
    }

    let engine = PipelineBuilder::new()
        .threads(4)
        .batch_size(16)
        .engine(&mapper);

    let stream =
        ReadPairStream::new(&r1_text[..], &r2_text[..]).map(|p| p.expect("valid FASTQ stream"));
    let mut streamed_sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
    engine.run(stream, &mut streamed_sink).unwrap();

    let materialized =
        genpairx::pipeline::read_pairs_from_fastq(&r1_text[..], &r2_text[..]).unwrap();
    assert_eq!(materialized.len(), pairs.len());
    let mut collected_sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
    engine.run(materialized, &mut collected_sink).unwrap();

    assert!(
        streamed_sink.into_inner().unwrap() == collected_sink.into_inner().unwrap(),
        "streaming and materialized ingestion must produce identical SAM"
    );
}

#[test]
fn drop_policy_is_deterministic_too() {
    let genome = standard_genome(150_000, 8);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let pairs = dataset(&genome);
    let (expected, _) = serial_sam(&genome, &mapper, &pairs, FallbackPolicy::Drop);

    for threads in [2usize, 8] {
        let engine = PipelineBuilder::new()
            .threads(threads)
            .batch_size(9)
            .fallback_policy(FallbackPolicy::Drop)
            .engine(&mapper);
        let mut sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
        engine.run(pairs.iter().cloned(), &mut sink).unwrap();
        assert!(sink.into_inner().unwrap() == expected, "threads={threads}");
    }
}

#[test]
fn engine_matches_per_pair_map_calls() {
    // The engine is not just self-consistent: its records equal what direct
    // `map_pair` + `pair_mapping_to_sam` iteration produces.
    let genome = standard_genome(120_000, 9);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let pairs = dataset(&genome);

    let engine = PipelineBuilder::new()
        .threads(4)
        .batch_size(16)
        .engine(&mapper);
    let mut sink = VecSink::new();
    engine.run(pairs.iter().cloned(), &mut sink).unwrap();

    let mut cursor = sink.records.iter();
    for p in &pairs {
        let res = mapper.map_pair(&p.r1, &p.r2);
        if let Some(m) = &res.mapping {
            let (s1, s2) = genpairx::core::pair_mapping_to_sam(m.clone(), p.clone());
            let g1 = cursor.next().expect("missing record");
            let g2 = cursor.next().expect("missing record");
            assert_eq!((g1.qname.as_str(), g1.pos), (s1.qname.as_str(), s1.pos));
            assert_eq!((g2.qname.as_str(), g2.pos), (s2.qname.as_str(), s2.pos));
        } else {
            let g1 = cursor.next().expect("missing unmapped record");
            let g2 = cursor.next().expect("missing unmapped record");
            assert!(!g1.is_mapped());
            assert!(!g2.is_mapped());
            assert_eq!(g1.qname, format!("{}/1", p.id));
            assert_eq!(g2.qname, format!("{}/2", p.id));
        }
    }
    assert!(cursor.next().is_none(), "extra records emitted");
}
