//! Demonstrates the gx-pipeline throughput engine: simulate a dataset, map
//! it through the parallel engine, and stream ordered SAM to a sink while
//! collecting the paper's pipeline statistics.
//!
//! ```sh
//! cargo run --release --example throughput               # software backend
//! GX_BACKEND=nmsl cargo run --release --example throughput  # accelerator model
//! ```
//!
//! With `GX_BACKEND=nmsl` the engine drives the NMSL accelerator timing
//! model instead of the pure software path: the SAM bytes are identical (the
//! assertion at the end still holds), but the report additionally carries
//! simulated hardware cycles and DRAM energy.

use genpairx::backend::NmslBackend;
use genpairx::core::{GenPairConfig, GenPairMapper};
use genpairx::genome::ReferenceGenome;
use genpairx::pipeline::{
    map_serial, FallbackPolicy, MapBackend, MappingEngine, PipelineBuilder, PipelineReport,
    ReadPair, SamTextSink,
};
use genpairx::readsim::dataset::{simulate_dataset, standard_genome, DATASETS};

fn run_engine<B: MapBackend>(
    engine: &MappingEngine<B>,
    genome: &ReferenceGenome,
    pairs: &[ReadPair],
) -> (Vec<u8>, PipelineReport) {
    let mut sink = SamTextSink::with_header(genome, Vec::new()).unwrap();
    let report = engine.run(pairs.iter().cloned(), &mut sink).unwrap();
    (sink.into_inner().unwrap(), report)
}

fn main() {
    let genome = standard_genome(400_000, 0xF1);
    let pairs: Vec<ReadPair> = simulate_dataset(&genome, &DATASETS[0], 2_000)
        .into_iter()
        .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
        .collect();
    println!(
        "reference: {} bp, {} pairs",
        genome.total_len(),
        pairs.len()
    );

    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());

    // Serial reference first: the engine's output must match it byte for byte.
    let mut serial_sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
    let serial = map_serial(
        &mapper,
        FallbackPolicy::EmitUnmapped,
        pairs.iter().cloned(),
        &mut serial_sink,
    )
    .unwrap();
    let serial_bytes = serial_sink.into_inner().unwrap();

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let builder = PipelineBuilder::new().threads(threads).batch_size(128);

    let backend_kind = std::env::var("GX_BACKEND").unwrap_or_else(|_| "software".into());
    let (parallel_bytes, report) = match backend_kind.as_str() {
        "nmsl" => run_engine(&builder.backend(NmslBackend::new(&mapper)), &genome, &pairs),
        "software" => run_engine(&builder.engine(&mapper), &genome, &pairs),
        other => panic!("unknown GX_BACKEND {other:?} (expected software or nmsl)"),
    };

    println!("backend:          {}", report.backend_name);
    println!("threads:          {}", report.threads);
    println!(
        "batches:          {} × {} pairs",
        report.batches, report.batch_size
    );
    println!("records written:  {}", report.records_written);
    println!("light-mapped:     {:.1}%", report.stats.light_mapped_pct());
    println!("mapped total:     {:.1}%", report.stats.mapped_pct());
    println!("reads/sec (wall): {:.0}", report.reads_per_sec());
    println!(
        "speedup vs serial: {:.2}x",
        serial.elapsed.as_secs_f64() / report.elapsed.as_secs_f64()
    );
    if report.backend.sim_cycles > 0 {
        let b = &report.backend;
        println!("-- modeled accelerator cost, by stage --");
        println!(
            "seeding (NMSL):   {} cycles, {:.1} nJ",
            b.seed_cycles,
            b.seed_energy_pj / 1e3
        );
        println!(
            "fallback (GenDP): {} cycles, {:.3} nJ",
            b.fallback_cycles,
            b.fallback_energy_pj / 1e3
        );
        println!(
            "host transfer:    {:.3} µs raw, {:.3} µs exposed after DMA overlap ({} B in, {} B out)",
            b.transfer_seconds * 1e6,
            b.exposed_transfer_seconds * 1e6,
            b.input_bytes,
            b.output_bytes
        );
        println!(
            "modeled reads/sec: {:.0} (accelerator), {:.0} (system, after DMA overlap)",
            b.modeled_reads_per_sec(),
            b.system_reads_per_sec()
        );
        println!(
            "modeled energy:   {:.1} nJ/pair",
            b.energy_pj_per_pair() / 1e3
        );
    }
    assert_eq!(
        parallel_bytes, serial_bytes,
        "ordered emitter must reproduce the serial byte stream"
    );
    println!("parallel SAM output is byte-identical to the serial reference ✓");
}
