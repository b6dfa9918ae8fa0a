//! NMSL backend tests, driven through [`NmslBackend::map`] calls.

use super::*;
use crate::{BackendStats, BatchTag, MapBackend, SoftwareBackend};
use gx_accel::{HostTraffic, LaneCounters, NmslConfig, SeedFetch};
use gx_core::{FallbackStage, GenPairConfig, GenPairMapper, MapScratch, ReadPair};
use gx_genome::random::RandomGenomeBuilder;
use gx_genome::DnaSeq;
use gx_memsim::DramConfig;

fn setup() -> (gx_genome::ReferenceGenome, Vec<ReadPair>) {
    let genome = RandomGenomeBuilder::new(120_000)
        .seed(23)
        .humanlike_repeats()
        .build();
    let seq = genome.chromosome(0).seq();
    let pairs = (0..12)
        .map(|i| {
            let s = 1_500 + i * 4_000;
            ReadPair::new(
                format!("p{i}"),
                seq.subseq(s..s + 150),
                seq.subseq(s + 250..s + 400).revcomp(),
            )
        })
        .collect();
    (genome, pairs)
}

/// Batch `index` of the single-stream job 0.
fn at(index: u64) -> BatchTag {
    BatchTag { job: 0, index }
}

/// Batch `index` of job `job`.
fn job_at(job: u64, index: u64) -> BatchTag {
    BatchTag { job, index }
}

/// Maps `pairs` in `chunk`-sized batches with one scratch and
/// returns the run's modeled cost (the device flush).
fn run_batches(backend: &NmslBackend<'_, '_>, pairs: &[ReadPair], chunk: usize) -> BackendStats {
    let mut scratch = MapScratch::new();
    for (i, batch) in pairs.chunks(chunk).enumerate() {
        backend.map(&mut scratch, at(i as u64), batch);
    }
    backend.flush()
}

/// Pairs the device has released past its frontier so far.
fn released(backend: &NmslBackend<'_, '_>) -> u64 {
    let frontier = backend.device.frontier.lock();
    let seqs = &frontier.expect("frontier lock poisoned").seqs;
    seqs.values().map(|seq| seq.released_pairs).sum()
}

#[test]
fn results_match_software_backend() {
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let sw = SoftwareBackend::new(&mapper).map(&mut MapScratch::new(), at(0), &pairs);
    let hw = NmslBackend::new(&mapper).map(&mut MapScratch::new(), at(0), &pairs);
    assert_eq!(sw.len(), hw.len());
    for (a, b) in sw.iter().zip(&hw) {
        assert_eq!(a.is_mapped(), b.is_mapped());
        assert_eq!(a.fallback, b.fallback);
        match (&a.mapping, &b.mapping) {
            (Some(ma), Some(mb)) => {
                assert_eq!((ma.chrom, ma.pos1, ma.pos2), (mb.chrom, mb.pos1, mb.pos2));
                assert_eq!(ma.r1_forward, mb.r1_forward);
            }
            (None, None) => {}
            other => panic!("mapping divergence: {other:?}"),
        }
    }
}

/// What the backend did before it admitted the pair step's own lookups:
/// seed `r1` and `rc(r2)` again, one seed at a time — first, middle, last,
/// deduplicated — and read each hash's bucket off the index.
fn per_seed_workload(pair: &ReadPair, mapper: &GenPairMapper<'_>) -> Vec<SeedFetch> {
    let seedmap = mapper.seedmap();
    let seed_len = seedmap.config().seed_len;
    let (mut fetches, mut codes) = (Vec::new(), Vec::new());
    for read in [&pair.r1, &pair.r2.revcomp()] {
        let Some(last) = read.len().checked_sub(seed_len) else {
            continue;
        };
        let mut offsets = vec![0, last / 2, last];
        offsets.dedup();
        for off in offsets {
            read.codes_into(off..off + seed_len, &mut codes);
            fetches.push(SeedFetch::of_hash(seedmap, seedmap.hash_seed_codes(&codes)));
        }
    }
    fetches
}

#[test]
fn admitted_workload_is_the_per_seed_extraction_from_the_reads() {
    // A genome with a 300-copy repeat, so one pair's seeds gather hundreds
    // of locations into the worker's arena, and an index sparse enough
    // that foreign seeds find empty buckets.
    let genome = RandomGenomeBuilder::new(300_000)
        .seed(11)
        .humanlike_repeats()
        .repeat_family(gx_genome::random::RepeatFamily {
            unit_len: 150,
            copies: 300,
            divergence: 0.0,
        })
        .build();
    let mut cfg = GenPairConfig::default();
    cfg.seedmap.bucket_bits = Some(21);
    let mapper = GenPairMapper::build(&genome, &cfg);
    let seedmap = mapper.seedmap();
    let seq = genome.chromosome(0).seq();
    let fullest = (0..seedmap.num_buckets() as u32)
        .map(|h| seedmap.locations_for_hash(h))
        .max_by_key(|l| l.len())
        .expect("buckets");
    let repeat = fullest[fullest.len() / 2] as usize;

    let proper = |at: usize| {
        (
            seq.subseq(at..at + 150),
            seq.subseq(at + 250..at + 400).revcomp(),
        )
    };
    let mut cases: Vec<(DnaSeq, DnaSeq)> = vec![
        // Light path, both orientations.
        proper(1_000),
        (proper(20_000).1, proper(20_000).0),
        // Hundreds of locations a seed; the pairs after it reuse the arena.
        (
            seq.subseq(repeat..repeat + 150),
            seq.subseq(repeat + 20..repeat + 170).revcomp(),
        ),
        proper(5_000),
        // Both mates hit, nowhere near one another: PA filter.
        (proper(1_000).0, proper(200_000).1),
        // A 51-base, a 50-base, a seedless and an empty mate.
        (seq.subseq(9_000..9_051), proper(9_000).1),
        (proper(9_000).0, seq.subseq(9_300..9_350).revcomp()),
        (seq.subseq(9_000..9_049), proper(9_000).1),
        (DnaSeq::new(), DnaSeq::new()),
    ];
    // A deletion and a mismatch in read 1: light alignment fails, DP maps.
    let mut complex = seq.subseq(50_000..50_040);
    complex.extend_from_seq(&seq.subseq(50_043..50_153));
    complex.set(10, complex.get(10).complement());
    cases.push((complex, proper(50_050).1));
    // Reads of another genome: SeedMap misses (and chance hits).
    let other = RandomGenomeBuilder::new(10_000).seed(777).build();
    let foreign = other.chromosome(0).seq();
    for at in (0..8_000).step_by(1_000) {
        cases.push((
            foreign.subseq(at..at + 150),
            foreign.subseq(at + 300..at + 450).revcomp(),
        ));
    }
    cases.push(proper(1_000));

    let backend = NmslBackend::new(&mapper);
    let mut scratch = MapScratch::new();
    let mut exits = Vec::new();
    let mut most_locations = 0;
    for (i, (r1, r2)) in cases.into_iter().enumerate() {
        let pair = ReadPair::new(format!("p{i}"), r1, r2);
        let (res, admitted) = backend.map_pair(&mut scratch, &pair);
        assert_eq!(
            admitted.workload.seeds(),
            per_seed_workload(&pair, &mapper),
            "pair {i} ({:?})",
            res.fallback
        );
        most_locations = most_locations.max(admitted.workload.total_locations());
        exits.push(res.fallback);
    }
    assert!(most_locations >= 400, "fullest workload: {most_locations}");
    for exit in [
        None,
        Some(FallbackStage::LightAlign),
        Some(FallbackStage::PaFilter),
        Some(FallbackStage::SeedMapMiss),
    ] {
        assert!(exits.contains(&exit), "no pair left at {exit:?}: {exits:?}");
    }
}

#[test]
fn session_reports_simulated_cost() {
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper);
    let stats = run_batches(&backend, &pairs, pairs.len());
    // The device reports modeled cost only: the wall fields are the
    // pipeline's, which times every map call.
    assert_eq!((stats.batches, stats.pairs, stats.busy_ns), (0, 0, 0));
    assert!(stats.seed_cycles > 0);
    assert!(stats.sim_cycles >= stats.seed_cycles);
    assert!(stats.sim_seconds > 0.0);
    assert!(stats.energy_pj > 0.0);
    assert!(stats.transfer_seconds > 0.0);
    let bytes = pairs.iter().fold((0, 0), |(i, o), p| {
        let (pi, po) = HostTraffic::pair_bytes(p.r1.len(), p.r2.len());
        (i + pi, o + po)
    });
    assert_eq!((stats.input_bytes, stats.output_bytes), bytes);
    // At least one 8 B seed-table read per seed reached the DRAM
    // model.
    assert!(stats.dram_bytes >= 6 * 8);
    assert!(stats.dram_requests >= 6);
    let run = BackendStats {
        pairs: pairs.len() as u64,
        ..stats
    };
    assert!(run.modeled_reads_per_sec() > 0.0);
    assert!(run.system_reads_per_sec() > 0.0);
}

#[test]
fn warm_totals_are_batching_invariant() {
    // The shared device streams on its own dispatch quantum, so the
    // client batch size must not change ANY warm total — not just DRAM
    // traffic (as in the old per-worker model) but cycles, energy and
    // the exposed transfer, bit for bit.
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper);
    let one = run_batches(&backend, &pairs, pairs.len());
    let many = run_batches(&backend, &pairs, 2);
    assert_eq!(one.dram_bytes, many.dram_bytes);
    assert_eq!(one.dram_requests, many.dram_requests);
    assert_eq!(one.input_bytes, many.input_bytes);
    assert_eq!(one.seed_cycles, many.seed_cycles);
    assert_eq!(one.sim_cycles, many.sim_cycles);
    assert_eq!(one.energy_pj.to_bits(), many.energy_pj.to_bits());
    assert_eq!(
        one.exposed_transfer_seconds.to_bits(),
        many.exposed_transfer_seconds.to_bits()
    );
    assert_eq!(
        one.transfer_seconds.to_bits(),
        many.transfer_seconds.to_bits()
    );
}

#[test]
fn out_of_order_sequenced_admission_matches_in_order() {
    // Admissions from two scratches, interleaved and out of order
    // (what concurrent workers do), must produce the same run totals as
    // one worker admitting in order: the frontier re-sequences.
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper).dispatch_quantum(4);
    let chunks: Vec<&[ReadPair]> = pairs.chunks(3).collect();

    let mut scratch = MapScratch::new();
    for (i, chunk) in chunks.iter().enumerate() {
        backend.map(&mut scratch, at(i as u64), chunk);
    }
    let in_order = backend.flush();

    let (mut a, mut b) = (MapScratch::new(), MapScratch::new());
    // Admission order 2, 0, 3, 1 across two workers' scratches.
    backend.map(&mut a, at(2), chunks[2]);
    backend.map(&mut b, at(0), chunks[0]);
    backend.map(&mut a, at(3), chunks[3]);
    backend.map(&mut b, at(1), chunks[1]);
    let shuffled = backend.flush();

    assert_eq!(in_order.input_bytes, shuffled.input_bytes);
    assert_eq!(in_order.seed_cycles, shuffled.seed_cycles);
    assert_eq!(in_order.sim_cycles, shuffled.sim_cycles);
    assert_eq!(in_order.fallback_cycles, shuffled.fallback_cycles);
    assert_eq!(in_order.dram_bytes, shuffled.dram_bytes);
    assert_eq!(in_order.dram_requests, shuffled.dram_requests);
    assert_eq!(in_order.energy_pj.to_bits(), shuffled.energy_pj.to_bits());
    assert_eq!(
        in_order.exposed_transfer_seconds.to_bits(),
        shuffled.exposed_transfer_seconds.to_bits()
    );
}

/// Full warm fingerprint of a [`BackendStats`] total: integers plus the
/// device-accumulated floats compared by bit pattern.
fn fingerprint(s: &BackendStats) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        s.input_bytes,
        s.seed_cycles,
        s.sim_cycles,
        s.fallback_cycles,
        s.dram_bytes,
        s.energy_pj.to_bits(),
        s.exposed_transfer_seconds.to_bits(),
    )
}

#[test]
fn interleaved_jobs_match_concatenated_stream() {
    // Two jobs admitted through two workers' scratches, batches interleaved and
    // out of order, with job 1's work arriving *before* job 0 is done:
    // the canonical release order (job id × batch index) must make
    // the warm totals bit-identical to mapping job 0's stream then
    // job 1's through the classic single-job path.
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper).dispatch_quantum(4);
    let (job0, job1) = pairs.split_at(7);

    // Reference: one stream, concatenated in job order.
    let mut scratch = MapScratch::new();
    for (i, chunk) in job0.chunks(2).chain(job1.chunks(2)).enumerate() {
        backend.map(&mut scratch, at(i as u64), chunk);
    }
    let reference = backend.flush();

    // Interleaved: job 1 first on the wire, out of order within jobs.
    let b0: Vec<&[ReadPair]> = job0.chunks(2).collect();
    let b1: Vec<&[ReadPair]> = job1.chunks(2).collect();
    let (mut a, mut b) = (MapScratch::new(), MapScratch::new());
    backend.map(&mut b, job_at(1, 2), b1[2]);
    backend.map(&mut a, job_at(0, 1), b0[1]);
    backend.map(&mut b, job_at(1, 0), b1[0]);
    backend.map(&mut a, job_at(0, 3), b0[3]);
    backend.map(&mut b, job_at(0, 0), b0[0]);
    backend.map(&mut a, job_at(1, 1), b1[1]);
    backend.map(&mut b, job_at(0, 2), b0[2]);
    backend.seal_job(0, b0.len() as u64);
    backend.seal_job(1, b1.len() as u64);
    let interleaved = backend.flush();

    assert_eq!(fingerprint(&reference), fingerprint(&interleaved));
}

#[test]
fn seal_releases_the_parked_next_job() {
    // Job 1's batches all arrive while job 0 is still open: they must
    // park behind the job boundary, and the seal of job 0 (not any
    // worker call) releases them.
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper).dispatch_quantum(4);
    let (job0, job1) = pairs.split_at(6);

    let mut scratch = MapScratch::new();
    // Job 1 fully admitted and sealed first — nothing may release yet.
    backend.map(&mut scratch, job_at(1, 0), job1);
    backend.seal_job(1, 1);
    assert_eq!(released(&backend), 0, "job 1 released before job 0");
    // Job 0's own admission releases at once, and sealing it unparks
    // job 1's tail.
    backend.map(&mut scratch, job_at(0, 0), job0);
    assert_eq!(released(&backend), job0.len() as u64);
    backend.seal_job(0, 1);
    assert_eq!(
        released(&backend),
        pairs.len() as u64,
        "sealing job 0 must release job 1's parked batch"
    );
    let total = backend.flush();

    // And the total still matches the concatenated reference.
    backend.map(&mut scratch, at(0), job0);
    backend.map(&mut scratch, at(1), job1);
    let reference = backend.flush();
    assert_eq!(fingerprint(&reference), fingerprint(&total));
}

#[test]
fn discarded_job_is_skipped_and_stragglers_are_dropped() {
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper).dispatch_quantum(4);
    let (doomed, kept) = pairs.split_at(5);

    // Reference: the surviving job alone on a fresh device.
    backend.map(&mut MapScratch::new(), at(0), kept);
    let reference = backend.flush();

    // Job 0 is discarded before any of its work released (its only
    // admission is parked behind the missing batch 0); job 1 completes.
    let mut scratch = MapScratch::new();
    backend.map(&mut scratch, job_at(0, 1), &doomed[..2]);
    assert_eq!(
        backend.discard_job(0),
        0,
        "nothing of job 0 released before the discard"
    );
    // A straggler admission racing past the cancel is ignored too.
    backend.map(&mut scratch, job_at(0, 0), &doomed[2..]);
    backend.map(&mut scratch, job_at(1, 0), kept);
    backend.seal_job(1, 1);
    let total = backend.flush();
    // The discarded job still mapped its pairs (results-side), but the
    // device priced and streamed only the surviving job's.
    assert_eq!(total, reference);
    // The device is clean for the next run: a fresh job maps normally.
    assert_eq!(run_batches(&backend, kept, 3), reference);
}

#[test]
fn ddr5_is_slower_than_hbm() {
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let hbm = run_batches(&NmslBackend::new(&mapper), &pairs, pairs.len());
    let ddr = run_batches(
        &NmslBackend::with_configs(&mapper, DramConfig::ddr5_4ch(), NmslConfig::default()),
        &pairs,
        pairs.len(),
    );
    assert!(
        ddr.sim_seconds > hbm.sim_seconds,
        "ddr {} vs hbm {}",
        ddr.sim_seconds,
        hbm.sim_seconds
    );
}

#[test]
fn empty_batch_reports_zero_sim_time() {
    let (genome, _) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper);
    let out = backend.map(&mut MapScratch::new(), at(0), &[]);
    let flushed = backend.flush();
    assert!(out.is_empty());
    assert_eq!(flushed.sim_cycles, 0);
    assert_eq!(flushed.transfer_seconds, 0.0);
}

#[test]
fn small_streams_expose_their_full_transfer() {
    // A stream shorter than one dispatch quantum is a single partial
    // quantum: its transfer has no previous quantum's drain to stream
    // under, so everything is exposed — the sharded analogue of "the
    // first batch of a stream exposes its full transfer".
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper); // quantum 64 > 12 pairs
    let stats = run_batches(&backend, &pairs, 3);
    assert!(stats.transfer_seconds > 0.0);
    assert_eq!(
        stats.exposed_transfer_seconds.to_bits(),
        stats.transfer_seconds.to_bits()
    );
}

#[test]
fn compute_bound_stream_hides_all_but_the_first_quantum() {
    // One lane, quantum 3, 12 pairs → 4 quanta in input order. On the
    // default PCIe Gen4 link every quantum's transfer is tens of
    // nanoseconds while a quantum's drain is microseconds, so every
    // quantum after the first hides its DMA completely: the exposed
    // total is *analytically* the first quantum's raw transfer.
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper).channels(1).dispatch_quantum(3);
    let stats = run_batches(&backend, &pairs, 5);
    let (q_in, q_out) = pairs[..3].iter().fold((0u64, 0u64), |(i, o), p| {
        let (pi, po) = HostTraffic::pair_bytes(p.r1.len(), p.r2.len());
        (i + pi, o + po)
    });
    let first_transfer = HostTraffic::transfer_seconds(q_in, q_out, gx_accel::host::PCIE4_X16_GBS);
    assert!(first_transfer > 0.0);
    assert_eq!(
        stats.exposed_transfer_seconds.to_bits(),
        first_transfer.to_bits(),
        "exposed {} vs first quantum transfer {}",
        stats.exposed_transfer_seconds,
        first_transfer
    );
    assert!(stats.exposed_transfer_seconds < stats.transfer_seconds);
}

#[test]
fn transfer_bound_stream_exposes_the_analytic_residue() {
    // A pathologically slow link makes every quantum transfer-bound:
    // each one exposes `transfer − the drain it streamed under`, so the
    // exposed total is bounded below by `Σ transfer − total compute`
    // (the final drain has no transfer charged against it) and stays
    // strictly under the raw total.
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper)
        .channels(1)
        .dispatch_quantum(3)
        .link_gbs(1e-6);
    let stats = run_batches(&backend, &pairs, 4);
    assert_eq!(stats.fallback_seconds, 0.0, "clean dataset fell back");
    assert!(stats.transfer_seconds > stats.sim_seconds);
    assert!(stats.exposed_transfer_seconds > 0.0);
    assert!(stats.exposed_transfer_seconds >= stats.transfer_seconds - stats.sim_seconds);
    assert!(stats.exposed_transfer_seconds < stats.transfer_seconds);
}

#[test]
fn overlapped_system_time_never_exceeds_serial() {
    // For any link speed the double-buffered DMA can only *hide*
    // transfer time, never invent it: the exposed residue is at most
    // the raw transfer, so the overlapped system timeline is at most
    // compute plus the fully serialized link.
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    for link in [1e-6, 1e-3, 1.0, gx_accel::host::PCIE4_X16_GBS] {
        let stats = run_batches(
            &NmslBackend::new(&mapper).dispatch_quantum(3).link_gbs(link),
            &pairs,
            4,
        );
        assert!(stats.transfer_seconds > 0.0, "link {link}");
        assert!(
            stats.exposed_transfer_seconds <= stats.transfer_seconds,
            "link {link}: exposed {} > raw {}",
            stats.exposed_transfer_seconds,
            stats.transfer_seconds
        );
        assert!(
            stats.modeled_system_seconds() <= stats.sim_seconds + stats.transfer_seconds,
            "link {link}"
        );
    }
}

#[test]
#[should_panic(expected = "repeated batch tag (job 0, index 1)")]
fn repeated_tag_still_buffered_panics() {
    // Batch 1 parks behind the missing batch 0; admitting index 1 again
    // would silently replace it (its pairs would vanish from device
    // totals while the pipeline still counted them).
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper);
    let mut scratch = MapScratch::new();
    backend.map(&mut scratch, at(1), &pairs[..2]);
    backend.map(&mut scratch, at(1), &pairs[2..4]);
}

#[test]
#[should_panic(expected = "stale batch tag (job 0, index 0)")]
fn stale_tag_behind_the_frontier_panics() {
    // Batch 0 released on admission; a second index-0 admission would
    // sit in `pending` until flush priced it out of order.
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper);
    let mut scratch = MapScratch::new();
    backend.map(&mut scratch, at(0), &pairs[..2]);
    backend.map(&mut scratch, at(0), &pairs[2..4]);
}

#[test]
fn device_counters_partition_device_cycles() {
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper).channels(2).dispatch_quantum(3);
    assert!(
        backend.device_counters().is_none(),
        "no counters before the first flush"
    );
    let stats = run_batches(&backend, &pairs, 4);
    let dc = backend.device_counters().expect("flush ran");
    assert_eq!(dc.lanes.len(), 2);
    let device = dc.device_cycles();
    assert!(device > 0);
    let mut cycles_sum = 0;
    for (i, lane) in dc.lanes.iter().enumerate() {
        assert_eq!(
            lane.breakdown.total(),
            lane.cycles,
            "lane {i} breakdown must partition its cycles"
        );
        assert_eq!(
            dc.lane_busy_cycles(i) + dc.lane_idle_cycles(i),
            device,
            "lane {i} busy+idle must sum to device cycles"
        );
        let util = dc.lane_utilization(i);
        assert!((0.0..=1.0).contains(&util), "lane {i} utilization {util}");
        cycles_sum += lane.cycles;
    }
    // The lanes' summed cycles are exactly what the run charged to
    // seeding: the counters describe the same simulation the stats do.
    assert_eq!(cycles_sum, stats.seed_cycles);
    assert!((0.0..=1.0).contains(&dc.row_conflict_rate()));
    assert!((0.0..=1.0).contains(&dc.mean_utilization()));
    // Every quantum boundary sampled occupancy at least once per lane
    // with work (12 pairs over 2 lanes, quantum 3).
    assert!(dc.quantum_occupancy.iter().sum::<u64>() > 0);
    // In-order single-threaded admission: the frontier never buffers
    // more than one batch.
    assert!(dc.frontier_peak_depth <= 1);
    // A second flush resets: new runs overwrite, empty run is empty.
    let _ = backend.flush();
    let dc2 = backend.device_counters().expect("flush captured");
    assert_eq!(dc2.device_cycles(), 0);
}

#[test]
fn device_counters_are_batching_invariant() {
    // The cycle-domain counters obey the same invariance contract as
    // the warm BackendStats: identical whatever the client batch size.
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper).channels(2).dispatch_quantum(3);
    let _ = run_batches(&backend, &pairs, pairs.len());
    let one = backend.device_counters().unwrap();
    let _ = run_batches(&backend, &pairs, 2);
    let many = backend.device_counters().unwrap();
    assert_eq!(one, many, "device counters diverged across batchings");
}

#[test]
fn gendp_only_charged_on_fallback() {
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper);
    // Perfectly simulated in-genome pairs: all light-path, no fallback.
    let clean = run_batches(&backend, &pairs, pairs.len());
    assert_eq!(clean.fallback_cycles, 0);
    assert_eq!(clean.fallback_energy_pj, 0.0);
    assert_eq!(clean.fallback_seconds, 0.0);

    // A foreign pair must take a fallback and be charged to GenDP.
    let other = RandomGenomeBuilder::new(8_000).seed(991).build();
    let oseq = other.chromosome(0).seq();
    let alien = ReadPair::new(
        "alien",
        oseq.subseq(100..250),
        oseq.subseq(300..450).revcomp(),
    );
    let results = backend.map(&mut MapScratch::new(), at(0), &[alien]);
    assert!(results[0].fallback.is_some());
    let dirty = backend.flush();
    assert!(dirty.fallback_cycles > 0);
    assert!(dirty.fallback_energy_pj > 0.0);
    assert!(dirty.fallback_seconds > 0.0);
}

#[test]
fn flushing_a_backend_that_never_mapped_reports_nothing() {
    let (genome, _) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper).channels(3);
    assert_eq!(backend.flush(), BackendStats::new());
    let dc = backend.device_counters().expect("flush ran");
    assert_eq!(dc.lanes, vec![LaneCounters::default(); 3]);
    assert_eq!(dc.frontier_peak_depth, 0);
}

#[test]
fn a_flush_joins_the_runs_thread() {
    use std::sync::Arc;
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let backend = NmslBackend::new(&mapper).channels(2).dispatch_quantum(2);
    let first = run_batches(&backend, &pairs, 3);
    // The run's thread held the device's other reference until the join.
    assert_eq!(Arc::strong_count(&backend.device), 1);
    // The next run's first admission spawns a fresh thread.
    let mut scratch = MapScratch::new();
    backend.map(&mut scratch, at(0), &pairs[..3]);
    assert_eq!(Arc::strong_count(&backend.device), 2);
    for (i, batch) in pairs[3..].chunks(3).enumerate() {
        backend.map(&mut scratch, at(i as u64 + 1), batch);
    }
    assert_eq!(fingerprint(&backend.flush()), fingerprint(&first));
    assert_eq!(Arc::strong_count(&backend.device), 1);
}

#[test]
fn a_backend_dropped_mid_run_releases_its_thread() {
    use std::sync::Arc;
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    // Building and reconfiguring spawn nothing: the backend holds the
    // device's only reference.
    let backend = NmslBackend::new(&mapper).channels(2).dispatch_quantum(2);
    assert_eq!(Arc::strong_count(&backend.device), 1);
    let mut scratch = MapScratch::new();
    for (i, batch) in pairs.chunks(3).enumerate() {
        backend.map(&mut scratch, at(i as u64), batch);
    }
    // The first admission spawned the device thread, which holds the
    // other reference. Never flushed, the backend must still take it down.
    assert_eq!(Arc::strong_count(&backend.device), 2);
    let device = Arc::downgrade(&backend.device);
    drop(backend);
    assert!(
        device.upgrade().is_none(),
        "the device outlived its backend: its thread was never joined"
    );
}

#[test]
#[should_panic(expected = "the NMSL device model panicked")]
fn a_flush_after_the_model_panicked_panics() {
    let (genome, pairs) = setup();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    // A DRAM model with no channels fails on the run's thread at the first
    // routed request; the pairs it held are gone, so the flush must not
    // report what is left as the run's cost.
    let dram = DramConfig {
        channels: 0,
        ..DramConfig::hbm2e_32ch()
    };
    let backend = NmslBackend::with_configs(&mapper, dram, NmslConfig::default())
        .channels(2)
        .dispatch_quantum(2);
    let mut scratch = MapScratch::new();
    for (i, batch) in pairs.chunks(3).enumerate() {
        backend.map(&mut scratch, at(i as u64), batch);
    }
    backend.flush();
}
