//! Criterion micro-benchmarks: the GenPair pipeline stages, the two
//! software mappers end to end, and the host's two text codecs (FASTQ
//! decode, SAM render).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gx_baseline::{Mm2Config, Mm2Mapper, StageTimings, WorkCounters};
use gx_core::pafilter::paired_adjacency_filter;
use gx_core::seeding::query_read;
use gx_core::{GenPairConfig, GenPairMapper};
use gx_genome::fastq::write_fastq;
use gx_genome::ReadRecord;
use gx_pipeline::{map_serial, FallbackPolicy, ReadPair, ReadPairStream, RecordSink};
use gx_pipeline::{SamTextSink, VecSink};
use gx_readsim::dataset::{simulate_dataset, standard_genome, DATASETS};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let genome = standard_genome(500_000, 0xBE);
    let pairs = simulate_dataset(&genome, &DATASETS[0], 64);
    let genpair = GenPairMapper::build(&genome, &GenPairConfig::default());
    let mm2 = Mm2Mapper::build(&genome, &Mm2Config::default());

    c.bench_function("seedmap_query_one_read", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let p = &pairs[i % pairs.len()];
            i += 1;
            black_box(query_read(&p.r1.seq, genpair.seedmap()).starts.len())
        })
    });

    c.bench_function("pa_filter", |b| {
        let l1: Vec<u32> = (0..48).map(|i| i * 931).collect();
        let l2: Vec<u32> = (0..48).map(|i| i * 931 + 300).collect();
        b.iter(|| black_box(paired_adjacency_filter(&l1, &l2, 600, 64).candidates.len()))
    });

    let mut g = c.benchmark_group("map_pair_e2e");
    g.throughput(Throughput::Elements(1));
    g.bench_function("genpair", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let p = &pairs[i % pairs.len()];
            i += 1;
            black_box(genpair.map_pair(&p.r1.seq, &p.r2.seq).is_mapped())
        })
    });
    g.bench_function("mm2_baseline", |b| {
        let mut i = 0usize;
        let mut t = StageTimings::default();
        let mut w = WorkCounters::default();
        b.iter(|| {
            let p = &pairs[i % pairs.len()];
            i += 1;
            black_box(mm2.map_pair(&p.r1.seq, &p.r2.seq, &mut t, &mut w).proper)
        })
    });
    g.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let genome = standard_genome(200_000, 0xBF);
    c.bench_function("seedmap_build_200kb", |b| {
        b.iter(|| {
            black_box(
                gx_seedmap::SeedMap::build(&genome, &gx_seedmap::SeedMapConfig::default())
                    .stats()
                    .stored_locations,
            )
        })
    });
}

/// The two codecs either side of the mapper, on D1-profile 2 × 150 bp
/// reads: `ReadPairStream` over in-memory FASTQ, and `SamTextSink` over
/// the records those pairs map to.
fn bench_codecs(c: &mut Criterion) {
    let genome = standard_genome(500_000, 0xBE);
    let sim = simulate_dataset(&genome, &DATASETS[0], 1_024);
    let mates = |pick: fn(&gx_readsim::SimulatedPair) -> &ReadRecord, suffix: &str| {
        let records: Vec<ReadRecord> = sim
            .iter()
            .map(|p| ReadRecord {
                id: format!("{}/{suffix}", p.id),
                ..pick(p).clone()
            })
            .collect();
        let mut text = Vec::new();
        write_fastq(&records, &mut text).expect("Vec write cannot fail");
        text
    };
    let (r1, r2) = (mates(|p| &p.r1, "1"), mates(|p| &p.r2, "2"));

    let mut g = c.benchmark_group("codecs");
    g.throughput(Throughput::Bytes((r1.len() + r2.len()) as u64));
    g.bench_function("fastq_decode_2x150", |b| {
        b.iter(|| {
            ReadPairStream::new(&r1[..], &r2[..])
                .map(|p| p.expect("generated FASTQ parses").r1.len())
                .sum::<usize>()
        })
    });

    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let pairs: Vec<ReadPair> = ReadPairStream::new(&r1[..], &r2[..])
        .map(|p| p.expect("generated FASTQ parses"))
        .collect();
    let mut mapped = VecSink::new();
    map_serial(&mapper, FallbackPolicy::EmitUnmapped, pairs, &mut mapped)
        .expect("VecSink is infallible");
    let records = mapped.records;
    assert_eq!(records.len(), 2_048);
    let mut text = Vec::new();
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("sam_render_150", |b| {
        b.iter(|| {
            text.clear();
            let mut sink = SamTextSink::with_header(&genome, &mut text).expect("Vec write");
            for rec in &records {
                sink.write_record(rec).expect("Vec write cannot fail");
            }
            sink.into_inner().expect("Vec flush cannot fail").len()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pipeline, bench_index_build, bench_codecs
}
criterion_main!(benches);
