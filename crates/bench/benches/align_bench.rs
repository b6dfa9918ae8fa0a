//! Criterion micro-benchmarks: the alignment substrate — light alignment vs
//! banded DP vs full DP (the core speedup claim of §4.6), xxh32 hashing and
//! chaining.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gx_align::chain::{chain_anchors, Anchor, ChainParams};
use gx_align::{align, banded_align_with, AlignMode, AlignScratch, Scoring};
use gx_core::light::{light_align, LightConfig};
use gx_core::{DP_FALLBACK_BAND, DP_FALLBACK_MARGIN};
use gx_genome::random::RandomGenomeBuilder;
use gx_seedmap::xxh32;
use std::hint::black_box;

fn bench_aligners(c: &mut Criterion) {
    let genome = RandomGenomeBuilder::new(10_000).seed(1).build();
    let window = genome.chromosome(0).seq().subseq(1_000..1_160);
    // Read with a 3-base deletion: single-edit-type, light-alignable.
    let mut read = window.subseq(5..65);
    read.extend_from_seq(&window.subseq(68..158));
    let scoring = Scoring::short_read();
    let light_cfg = LightConfig::default();

    let mut g = c.benchmark_group("aligners_150bp");
    g.bench_function("light_align", |b| {
        b.iter(|| black_box(light_align(&read, &window, 5, &light_cfg, &scoring)))
    });
    // The DP fallback's real shape (what gxbench's `align.dp_s` replays): a
    // 150 bp read carrying a mismatch and an indel against its window with
    // the fallback margin either side, one scratch reused across calls.
    let dp_window = genome
        .chromosome(0)
        .seq()
        .subseq(2_000..2_150 + 2 * DP_FALLBACK_MARGIN);
    let at = DP_FALLBACK_MARGIN;
    let mut dp_read = dp_window.subseq(at..at + 40);
    dp_read.extend_from_seq(&dp_window.subseq(at + 40..at + 41).revcomp()); // mismatch
    dp_read.extend_from_seq(&dp_window.subseq(at + 41..at + 100));
    dp_read.extend_from_seq(&dp_window.subseq(at + 101..at + 151)); // 1-base deletion
    let mut scratch = AlignScratch::new();
    g.bench_function("banded_dp_fit_b16", |b| {
        b.iter(|| {
            black_box(banded_align_with(
                &dp_read,
                &dp_window,
                &scoring,
                DP_FALLBACK_BAND,
                AlignMode::Fit,
                &mut scratch,
            ))
            .score
        })
    });
    g.bench_function("full_dp_fit", |b| {
        b.iter(|| black_box(align(&read, &window, &scoring, AlignMode::Fit)).score)
    });
    g.finish();
}

fn bench_xxh32(c: &mut Criterion) {
    let codes: Vec<u8> = (0..50u8).map(|i| i % 4).collect();
    c.bench_function("xxh32_50bp_seed", |b| {
        b.iter(|| black_box(xxh32(black_box(&codes), 0)))
    });
}

fn bench_chaining(c: &mut Criterion) {
    // 60 colinear anchors + 60 noise anchors, the shape of a repeat-heavy
    // short-read seeding.
    let mut anchors: Vec<Anchor> = (0..60)
        .map(|i| Anchor {
            read_pos: i * 2,
            ref_pos: 10_000 + (i as u64) * 2,
        })
        .chain((0..60).map(|i| Anchor {
            read_pos: (i * 7) % 150,
            ref_pos: 50_000 + (i as u64) * 997,
        }))
        .collect();
    let params = ChainParams::default();
    c.bench_function("chain_120_anchors", |b| {
        b.iter_batched(
            || anchors.clone(),
            |mut a| black_box(chain_anchors(&mut a, &params).chains.len()),
            BatchSize::SmallInput,
        )
    });
    anchors.clear();
}

criterion_group!(benches, bench_aligners, bench_xxh32, bench_chaining);
criterion_main!(benches);
