//! The layer replay of the traced pass: the same decoded input driven
//! through each crate's public calls, one layer at a time, with a
//! benchmark-side span around every 256-pair group of calls. A layer's
//! seconds are the self time of the spans named after its metric.

use crate::inputs::{Job, Truth};
use crate::spec::BATCH;
use crate::trace::Tracer;
use gx_accel::workload::build_workloads;
use gx_accel::{NmslConfig, NmslSim};
use gx_align::{banded_align_with, AlignMode, AlignScratch, Scoring};
use gx_core::pafilter::{paired_adjacency_filter_into, PaFilterResult};
use gx_core::seeding::{query_read_into, ReadCandidates};
use gx_core::{
    light_align_with, FallbackStage, GenPairConfig, GenPairMapper, LightScratch, MapScratch,
    PairWork, ReadPair,
};
use gx_genome::{DnaSeq, SamRecord};
use gx_memsim::{DramConfig, DramSim, Request};
use gx_pipeline::{ReadPairStream, RecordSink, SamTextSink};
use std::hint::black_box;
use std::time::Instant;

/// Named values the replay produced.
pub type Values = Vec<(&'static str, f64)>;

/// `num / den`, 0 when there is nothing to divide by (a metric that does
/// not apply to the workload).
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `genome.fastq_*`: `ReadPairStream` to exhaustion. Returns the decoded
/// pairs every later replay works on.
pub fn fastq_decode(tracer: &mut Tracer, job: &Job, out: &mut Values) -> Vec<ReadPair> {
    let mut stream = ReadPairStream::new(&job.r1[..], &job.r2[..]);
    let mut pairs = Vec::with_capacity(job.pairs);
    loop {
        let span = tracer.begin("genome.fastq_decode_s");
        let before = pairs.len();
        pairs.extend(
            stream
                .by_ref()
                .take(BATCH)
                .map(|p| p.expect("generated FASTQ parses")),
        );
        tracer.end(span);
        if pairs.len() == before {
            break;
        }
    }
    let secs = tracer.self_seconds_of("genome.fastq_decode_s");
    out.push(("genome.fastq_decode_s", secs));
    out.push((
        "genome.fastq_mb_per_s",
        ratio((job.r1.len() + job.r2.len()) as f64 / 1e6, secs),
    ));
    pairs
}

/// `genome.sam_*`: `SamTextSink::write_record` over the reference
/// records. Returns the bytes written, which must equal the reference.
pub fn sam_emit(
    tracer: &mut Tracer,
    mapper: &GenPairMapper<'_>,
    records: &[SamRecord],
    capacity: usize,
    out: &mut Values,
) -> Vec<u8> {
    let mut sink = SamTextSink::with_header(mapper.genome(), Vec::with_capacity(capacity))
        .expect("Vec write cannot fail");
    for group in records.chunks(2 * BATCH) {
        let span = tracer.begin("genome.sam_emit_s");
        for rec in group {
            sink.write_record(rec).expect("Vec write cannot fail");
        }
        tracer.end(span);
    }
    let bytes = sink.into_inner().expect("Vec flush cannot fail");
    let secs = tracer.self_seconds_of("genome.sam_emit_s");
    out.push(("genome.sam_emit_s", secs));
    out.push(("genome.sam_mb_per_s", ratio(bytes.len() as f64 / 1e6, secs)));
    bytes
}

/// The seed offsets `query_read_into` uses: first, middle, last,
/// deduplicated.
fn seed_offsets(read_len: usize, seed_len: usize) -> Vec<usize> {
    let Some(last) = read_len.checked_sub(seed_len) else {
        return Vec::new();
    };
    let mut offsets = vec![0, last / 2, last];
    offsets.dedup();
    offsets
}

/// `seedmap.query_*`: hash + Seed Table/Location Table lookup of the 12
/// seeds `map_pair_with` queries per pair (both reads, both
/// orientations). Code extraction happens outside the spans.
pub fn seedmap_query(
    tracer: &mut Tracer,
    mapper: &GenPairMapper<'_>,
    config: &GenPairConfig,
    pairs: &[ReadPair],
    out: &mut Values,
) {
    let seedmap = mapper.seedmap();
    let seed_len = config.seedmap.seed_len;
    let (mut queried, mut hit) = (0u64, 0u64);
    let mut rc = DnaSeq::new();
    let mut codes = Vec::new();
    let mut seeds: Vec<u8> = Vec::new();
    for group in pairs.chunks(BATCH) {
        seeds.clear();
        for pair in group {
            for read in [&pair.r1, &pair.r2] {
                read.revcomp_into(&mut rc);
                for seq in [read, &rc] {
                    seq.codes_into(0..seq.len(), &mut codes);
                    for off in seed_offsets(seq.len(), seed_len) {
                        seeds.extend_from_slice(&codes[off..off + seed_len]);
                    }
                }
            }
        }
        let span = tracer.begin("seedmap.query_s");
        for seed in seeds.chunks_exact(seed_len) {
            let locations = seedmap.locations_for_hash(seedmap.hash_seed_codes(seed));
            queried += 1;
            hit += u64::from(!black_box(locations).is_empty());
        }
        tracer.end(span);
    }
    let secs = tracer.self_seconds_of("seedmap.query_s");
    out.push(("seedmap.query_s", secs));
    out.push((
        "seedmap.query_ns_per_seed",
        ratio(secs * 1e9, queried as f64),
    ));
    out.push(("seedmap.seed_hit_ratio", ratio(hit as f64, queried as f64)));
}

/// Seconds and pairs of one `PairMapResult::fallback` class.
#[derive(Clone, Copy, Debug, Default)]
struct Class {
    secs: f64,
    pairs: u64,
}

/// `core.map_*`, `core.pairs.*` and the exact `PairWork` rates:
/// `map_pair_with` over every pair in input order through one
/// `MapScratch`. `core.map_pair_s` is the batch spans' self time; the
/// per-class seconds are per-call sums inside them, so the four add up to
/// `core.map_pair_s` minus the per-call clock reads.
pub fn map_pairs(
    tracer: &mut Tracer,
    mapper: &GenPairMapper<'_>,
    pairs: &[ReadPair],
    out: &mut Values,
) {
    let mut scratch = MapScratch::new();
    let (mut light, mut dp, mut pafilter, mut miss) = <(Class, Class, Class, Class)>::default();
    let mut work = PairWork::default();
    let mut reached_light = 0u64;
    for group in pairs.chunks(BATCH) {
        let span = tracer.begin("core.map_pair_s");
        for pair in group {
            let started = Instant::now();
            let res = mapper.map_pair_with(&mut scratch, &pair.r1, &pair.r2);
            let secs = started.elapsed().as_secs_f64();
            let class = match res.fallback {
                None => &mut light,
                Some(FallbackStage::LightAlign) => &mut dp,
                Some(FallbackStage::PaFilter) => &mut pafilter,
                Some(FallbackStage::SeedMapMiss) => &mut miss,
            };
            class.secs += secs;
            class.pairs += 1;
            reached_light += u64::from(res.work.light_attempts > 0);
            work.seed_locations += res.work.seed_locations;
            work.candidates += res.work.candidates;
            work.light_attempts += res.work.light_attempts;
            work.dp_cells += res.work.dp_cells;
            black_box(res);
        }
        tracer.end(span);
    }
    let n = pairs.len() as f64;
    out.push(("core.map_pair_s", tracer.self_seconds_of("core.map_pair_s")));
    out.push(("core.map_s.light", light.secs));
    out.push(("core.map_s.dp", dp.secs));
    out.push(("core.map_s.pafilter", pafilter.secs));
    out.push(("core.map_s.miss", miss.secs));
    out.push(("core.pairs.light", light.pairs as f64));
    out.push(("core.pairs.dp", dp.pairs as f64));
    out.push(("core.pairs.pafilter", pafilter.pairs as f64));
    out.push(("core.pairs.miss", miss.pairs as f64));
    out.push((
        "core.locations_per_pair",
        ratio(work.seed_locations as f64, n),
    ));
    out.push(("core.candidates_per_pair", ratio(work.candidates as f64, n)));
    out.push((
        "core.light_attempts_per_pair",
        ratio(work.light_attempts as f64, n),
    ));
    out.push(("core.dp_cells_per_pair", ratio(work.dp_cells as f64, n)));
    out.push((
        "core.light_success_ratio",
        ratio(light.pairs as f64, reached_light as f64),
    ));
}

/// `core.seeding_s` (`revcomp_into` + 4 x `query_read_into` per pair) and
/// `core.pafilter_s` (`paired_adjacency_filter_into` on the replayed
/// lists, both orientations), batch by batch.
pub fn seeding_and_pafilter(
    tracer: &mut Tracer,
    mapper: &GenPairMapper<'_>,
    config: &GenPairConfig,
    pairs: &[ReadPair],
    out: &mut Values,
) {
    let seedmap = mapper.seedmap();
    let (mut r1_rc, mut r2_rc) = (DnaSeq::new(), DnaSeq::new());
    let mut codes = Vec::new();
    let mut lists: Vec<[ReadCandidates; 4]> = (0..BATCH).map(|_| Default::default()).collect();
    let mut pa = PaFilterResult::default();
    for group in pairs.chunks(BATCH) {
        let span = tracer.begin("core.seeding_s");
        for (pair, [a1, a2, b1, b2]) in group.iter().zip(lists.iter_mut()) {
            pair.r1.revcomp_into(&mut r1_rc);
            pair.r2.revcomp_into(&mut r2_rc);
            // Orientation A: read 1 forward; orientation B: the mirror.
            query_read_into(&pair.r1, seedmap, &mut codes, a1);
            query_read_into(&r2_rc, seedmap, &mut codes, a2);
            query_read_into(&r1_rc, seedmap, &mut codes, b1);
            query_read_into(&pair.r2, seedmap, &mut codes, b2);
        }
        tracer.end(span);
        let span = tracer.begin("core.pafilter_s");
        for [a1, a2, b1, b2] in &lists[..group.len()] {
            for (first, second) in [(a1, a2), (b1, b2)] {
                paired_adjacency_filter_into(
                    &first.starts,
                    &second.starts,
                    config.delta,
                    config.max_candidates,
                    &mut pa,
                );
                black_box(pa.candidates.len());
            }
        }
        tracer.end(span);
    }
    out.push(("core.seeding_s", tracer.self_seconds_of("core.seeding_s")));
    out.push(("core.pafilter_s", tracer.self_seconds_of("core.pafilter_s")));
}

/// Every in-genome read in its aligned orientation with its truth
/// chromosome and leftmost position.
fn oriented_reads(pairs: &[ReadPair], truth: &[Truth]) -> Vec<(DnaSeq, u32, u64)> {
    let mut reads = Vec::with_capacity(2 * truth.len());
    for (pair, t) in pairs.iter().zip(truth) {
        let (first, second) = if t.r1_forward {
            (pair.r1.clone(), pair.r2.revcomp())
        } else {
            (pair.r1.revcomp(), pair.r2.clone())
        };
        reads.push((first, t.chrom, t.start1));
        reads.push((second, t.chrom, t.start2));
    }
    reads
}

/// `core.light_align_s` (`light_align_with` at the truth window of every
/// in-genome read) and `align.dp_s` / `align.gcups` (`banded_align_with`,
/// truth window ± 24, band 16, `Fit`, over the first `dp_reads` of them —
/// at ~0.2 ms a read the kernel is too slow to replay them all): the two
/// kernels' rates, independent of how many pairs the mapper sends to
/// each. Window extraction happens outside the spans. All zero for
/// foreign reads.
pub fn kernels_at_truth(
    tracer: &mut Tracer,
    mapper: &GenPairMapper<'_>,
    config: &GenPairConfig,
    pairs: &[ReadPair],
    truth: &[Truth],
    dp_reads: usize,
    out: &mut Values,
) {
    const DP_MARGIN: i64 = 24;
    const DP_BAND: usize = 16;
    let genome = mapper.genome();
    let reads = oriented_reads(pairs, truth);
    let e = i64::from(config.light.max_indel_run);
    let scoring = Scoring::short_read();
    let mut light = LightScratch::new();
    let mut align = AlignScratch::new();
    let mut windows: Vec<(DnaSeq, usize)> = (0..2 * BATCH).map(|_| Default::default()).collect();
    let mut cells = 0u64;
    for (g, group) in reads.chunks(2 * BATCH).enumerate() {
        for ((read, chrom, start), (window, anchor)) in group.iter().zip(windows.iter_mut()) {
            let from = *start as i64 - e;
            let win_start =
                genome.clamped_window_into(*chrom, from, read.len() + 2 * e as usize, window);
            *anchor = (*start - win_start) as usize;
        }
        let span = tracer.begin("core.light_align_s");
        for ((read, ..), (window, anchor)) in group.iter().zip(&windows) {
            black_box(light_align_with(
                read,
                window,
                *anchor,
                &config.light,
                &config.scoring,
                &mut light,
            ));
        }
        tracer.end(span);

        if g * 2 * BATCH >= dp_reads {
            continue;
        }
        for ((read, chrom, start), (window, _)) in group.iter().zip(windows.iter_mut()) {
            let from = *start as i64 - DP_MARGIN;
            genome.clamped_window_into(*chrom, from, read.len() + 2 * DP_MARGIN as usize, window);
        }
        let span = tracer.begin("align.dp_s");
        for ((read, ..), (window, _)) in group.iter().zip(&windows) {
            let a = banded_align_with(read, window, &scoring, DP_BAND, AlignMode::Fit, &mut align);
            cells += a.cells;
            black_box(a);
        }
        tracer.end(span);
    }
    let dp_s = tracer.self_seconds_of("align.dp_s");
    out.push((
        "core.light_align_s",
        tracer.self_seconds_of("core.light_align_s"),
    ));
    out.push(("align.dp_s", dp_s));
    out.push(("align.gcups", ratio(cells as f64 / 1e9, dp_s)));
}

/// `accel.*`: host cost and modeled cycles of `NmslSim::run` over the
/// seed workloads of the first `limit` pairs.
pub fn nmsl_sim(
    tracer: &mut Tracer,
    mapper: &GenPairMapper<'_>,
    pairs: &[ReadPair],
    limit: usize,
    out: &mut Values,
) {
    let reads: Vec<(DnaSeq, DnaSeq)> = pairs
        .iter()
        .take(limit)
        .map(|p| (p.r1.clone(), p.r2.clone()))
        .collect();
    let workloads = build_workloads(&reads, mapper.seedmap());
    let mut sim = NmslSim::new(DramConfig::hbm2e_32ch(), NmslConfig::default());
    let span = tracer.begin("accel.nmsl_host_ns_per_pair");
    let result = sim.run(&workloads);
    let secs = tracer.end(span);
    let n = workloads.len() as f64;
    out.push(("accel.nmsl_host_ns_per_pair", ratio(secs * 1e9, n)));
    out.push(("accel.nmsl_cycles_per_pair", ratio(result.cycles as f64, n)));
}

/// `memsim.*`: host cost of one `DramSim::tick` under a seeded stream of
/// `requests` random 64-byte reads over 32 channels, submitted as fast as
/// the channel queues accept them.
pub fn dram_sim(tracer: &mut Tracer, seed: u64, requests: u64, out: &mut Values) {
    let mut sim = DramSim::new(DramConfig::hbm2e_32ch());
    let mut completions = Vec::new();
    // xorshift64*: any seeded generator does; the stream is part of the
    // benchmark, not of the program.
    let mut state = seed | 1;
    let mut next_addr = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % (1 << 26)
    };
    let mut pending = next_addr();
    let (mut submitted, mut done, mut ticks) = (0u64, 0u64, 0u64);
    let span = tracer.begin("memsim.host_ns_per_tick");
    while done < requests {
        while submitted < requests
            && sim.try_submit(Request {
                addr: pending,
                bytes: 64,
                channel: (submitted % 32) as u32,
                tag: submitted,
            })
        {
            submitted += 1;
            pending = next_addr();
        }
        sim.tick(&mut completions);
        ticks += 1;
        done += completions.len() as u64;
        completions.clear();
    }
    let secs = tracer.end(span);
    out.push(("memsim.host_ns_per_tick", ratio(secs * 1e9, ticks as f64)));
    out.push(("memsim.requests", done as f64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_offsets_match_the_mapper() {
        assert_eq!(seed_offsets(150, 50), [0, 50, 100]);
        assert_eq!(seed_offsets(50, 50), [0]);
        assert_eq!(seed_offsets(51, 50), [0, 1]);
        assert!(seed_offsets(40, 50).is_empty());
    }
}
