//! Sharding-invariance suite: warm accounting is a function of the
//! workload, not the schedule.
//!
//! GenPairX's NMSL stage is one shared accelerator; since the shared
//! channel-sharded device replaced the per-worker warm simulators, a warm
//! run's modeled totals must depend only on (workload, channel count,
//! dispatch quantum). This suite pins that down the hard way: for one fixed
//! dataset and a fixed [`NmslBackend::channels`] configuration, the warm
//! `sim_cycles`, `seed_cycles`, `energy_pj`, `exposed_transfer_seconds`
//! (and friends) are asserted **bit-identical** across thread counts
//! {1, 2, 4, 8} × batch sizes {1, 64, 256}, while the SAM byte stream stays
//! identical to the serial reference throughout — the per-worker model of
//! PR 3/4 cannot pass this. The warm ≤ cold seeding regression rides along
//! so the invariance never comes at the cost of the dispatch win; the
//! backend is warm-only, so the cold side is a reference this file builds
//! itself from the public simulator (the way `gx-align` keeps its row-wise
//! DP kernel as a test oracle).

use genpairx::accel::workload::pair_workload;
use genpairx::accel::{NmslConfig, NmslSim};
use genpairx::backend::{DeviceCounters, LaneCounters, NmslBackend};
use genpairx::core::{GenPairConfig, GenPairMapper};
use genpairx::memsim::DramConfig;
use genpairx::pipeline::{map_serial, FallbackPolicy, PipelineBuilder, ReadPair, SamTextSink};
use genpairx::readsim::dataset::{simulate_dataset, standard_genome, DATASETS};
use genpairx::telemetry::Telemetry;

/// The fixed device sharding under test (`gxbench`'s `clean_nmsl` and
/// `service_mix` workloads run the same partition).
const CHANNELS: usize = 4;

/// 2000 pairs is the acceptance workload; debug builds step down so the
/// tier-1 `cargo test -q` stays minutes-scale (the invariance property is
/// size-independent — CI additionally runs the full suite in release).
const N_PAIRS: usize = if cfg!(debug_assertions) { 500 } else { 2000 };

const THREADS: [usize; 4] = [1, 2, 4, 8];
const BATCH_SIZES: [usize; 3] = [1, 64, 256];

/// The warm accounting fields the tentpole promises are sharding-invariant,
/// floats captured as bits so "identical" means identical, not "close".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WarmFingerprint {
    sim_cycles: u64,
    seed_cycles: u64,
    fallback_cycles: u64,
    energy_pj_bits: u64,
    exposed_transfer_bits: u64,
    transfer_bits: u64,
    dram_bytes: u64,
    dram_requests: u64,
    input_bytes: u64,
    pairs: u64,
}

impl WarmFingerprint {
    fn of(b: &genpairx::backend::BackendStats) -> WarmFingerprint {
        WarmFingerprint {
            sim_cycles: b.sim_cycles,
            seed_cycles: b.seed_cycles,
            fallback_cycles: b.fallback_cycles,
            energy_pj_bits: b.energy_pj.to_bits(),
            exposed_transfer_bits: b.exposed_transfer_seconds.to_bits(),
            transfer_bits: b.transfer_seconds.to_bits(),
            dram_bytes: b.dram_bytes,
            dram_requests: b.dram_requests,
            input_bytes: b.input_bytes,
            pairs: b.pairs,
        }
    }
}

/// The cycle-domain device counters, which make the same invariance
/// promise as the warm totals: every per-lane field (stall breakdown, DRAM
/// stats, high-water marks) and the quantum-occupancy histogram is a
/// function of the per-lane released-pair stream, which the contiguity
/// frontier fixes regardless of schedule. `frontier_peak_depth` is the one
/// deliberate omission — how deep batches pile up ahead of the frontier
/// depends on worker timing, so it is schedule-domain and excluded from
/// the fingerprint (see ARCHITECTURE.md "Observability").
#[derive(Debug, PartialEq)]
struct DeviceFingerprint {
    lanes: Vec<LaneCounters>,
    quantum_occupancy: [u64; genpairx::backend::QUANTUM_OCC_BUCKETS],
}

impl DeviceFingerprint {
    fn of(d: &DeviceCounters) -> DeviceFingerprint {
        DeviceFingerprint {
            lanes: d.lanes.clone(),
            quantum_occupancy: d.quantum_occupancy,
        }
    }
}

fn dataset() -> (genpairx::genome::ReferenceGenome, Vec<ReadPair>) {
    let genome = standard_genome(300_000, 0x51AB);
    let pairs = simulate_dataset(&genome, &DATASETS[0], N_PAIRS)
        .into_iter()
        .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
        .collect();
    (genome, pairs)
}

fn run_warm(
    mapper: &GenPairMapper<'_>,
    genome: &genpairx::genome::ReferenceGenome,
    pairs: &[ReadPair],
    threads: usize,
    batch_size: usize,
) -> (Vec<u8>, genpairx::backend::BackendStats, DeviceCounters) {
    run_warm_with(
        mapper,
        genome,
        pairs,
        threads,
        batch_size,
        Telemetry::disabled(),
    )
}

/// Like [`run_warm`], with an explicit telemetry handle attached to both
/// the pipeline and the NMSL backend (the accounting-inertness tests trace
/// the exact configuration the untraced runs use).
fn run_warm_with(
    mapper: &GenPairMapper<'_>,
    genome: &genpairx::genome::ReferenceGenome,
    pairs: &[ReadPair],
    threads: usize,
    batch_size: usize,
    telemetry: Telemetry,
) -> (Vec<u8>, genpairx::backend::BackendStats, DeviceCounters) {
    let engine = PipelineBuilder::new()
        .threads(threads)
        .batch_size(batch_size)
        .telemetry(telemetry.clone())
        .backend(
            NmslBackend::new(mapper)
                .channels(CHANNELS)
                .telemetry(telemetry),
        );
    let mut sink = SamTextSink::with_header(genome, Vec::new()).unwrap();
    let report = engine.run(pairs.iter().cloned(), &mut sink).unwrap();
    let counters = engine
        .backend()
        .device_counters()
        .expect("a run leaves device counters at flush");
    (sink.into_inner().unwrap(), report.backend, counters)
}

#[test]
fn warm_totals_are_bit_identical_across_threads_and_batches() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());

    // Serial reference bytes: the results-side oracle.
    let mut serial_sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
    map_serial(
        &mapper,
        FallbackPolicy::EmitUnmapped,
        pairs.iter().cloned(),
        &mut serial_sink,
    )
    .unwrap();
    let expected_sam = serial_sink.into_inner().unwrap();

    let mut reference: Option<WarmFingerprint> = None;
    let mut device_reference: Option<DeviceFingerprint> = None;
    for threads in THREADS {
        for batch_size in BATCH_SIZES {
            let (sam, backend, device) = run_warm(&mapper, &genome, &pairs, threads, batch_size);
            assert!(
                sam == expected_sam,
                "SAM bytes diverge from serial at threads={threads} batch_size={batch_size}"
            );
            let fp = WarmFingerprint::of(&backend);
            assert_eq!(fp.pairs, N_PAIRS as u64);
            assert!(fp.seed_cycles > 0, "warm run modeled no seeding work");
            match reference {
                None => reference = Some(fp),
                Some(reference) => assert_eq!(
                    fp, reference,
                    "warm accounting diverged at threads={threads} batch_size={batch_size} \
                     (channels fixed at {CHANNELS})"
                ),
            }
            // The device counters make the same promise, lane by lane:
            // the whole cycle-attributed breakdown — not just the totals —
            // is a function of the workload. And each lane's attribution
            // must partition its clock exactly before it can be trusted.
            assert_eq!(device.lanes.len(), CHANNELS);
            let device_cycles = device.device_cycles();
            for (i, lane) in device.lanes.iter().enumerate() {
                assert_eq!(
                    lane.breakdown.total(),
                    lane.cycles,
                    "lane {i} attribution must cover every lane cycle"
                );
                assert_eq!(
                    device.lane_busy_cycles(i) + device.lane_idle_cycles(i),
                    device_cycles,
                    "lane {i} busy+idle must partition the device clock"
                );
            }
            let dfp = DeviceFingerprint::of(&device);
            match &device_reference {
                None => device_reference = Some(dfp),
                Some(reference) => assert_eq!(
                    &dfp, reference,
                    "device counters diverged at threads={threads} batch_size={batch_size} \
                     (channels fixed at {CHANNELS})"
                ),
            }
        }
    }
}

/// Seeding cost of cold dispatch: every `batch_size` pairs cold-start a
/// fresh simulator over the device the backend models (HBM2e with 32
/// channels, the default NMSL configuration) and run
/// it to completion, so the total is the sum of independent per-batch runs
/// — `(cycles, dram_bytes, dram_requests)`.
fn cold_reference(
    backend: &NmslBackend<'_, '_>,
    pairs: &[ReadPair],
    batch_size: usize,
) -> (u64, u64, u64) {
    let seedmap = backend.mapper().seedmap();
    let mut total = (0, 0, 0);
    for batch in pairs.chunks(batch_size) {
        let mut sim = NmslSim::new(DramConfig::hbm2e_32ch(), NmslConfig::default());
        for pair in batch {
            sim.push(&pair_workload(&pair.r1, &pair.r2, seedmap));
        }
        sim.drain();
        let dram = sim.dram_stats();
        total.0 += sim.cycle();
        total.1 += dram.bytes;
        total.2 += dram.completed;
    }
    total
}

#[test]
fn warm_seeding_still_beats_cold_at_fixed_channels() {
    // The invariance refactor must not regress the dispatch win the warm
    // model exists for: a shared warm stream over the same workload models
    // no more seeding cycles than the cold per-batch sum. Both totals are
    // schedule-independent, so one configuration of each suffices.
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let (_, warm, _) = run_warm(&mapper, &genome, &pairs, 2, 64);
    let (cold_cycles, cold_bytes, cold_requests) =
        cold_reference(&NmslBackend::new(&mapper), &pairs, 64);

    assert_eq!(warm.pairs, pairs.len() as u64);
    assert!(
        warm.seed_cycles <= cold_cycles,
        "warm seeding cycles ({}) exceed the cold per-batch sum ({cold_cycles})",
        warm.seed_cycles,
    );
    // Same DRAM traffic either way: the dispatch model changes *when*
    // requests run, never what runs.
    assert_eq!(warm.dram_bytes, cold_bytes);
    assert_eq!(warm.dram_requests, cold_requests);
    // And the warm device hides transfer where serial dispatch could not.
    assert!(warm.exposed_transfer_seconds <= warm.transfer_seconds);
}

#[test]
fn channel_count_is_part_of_the_model() {
    // Warm totals are comparable only at fixed sharding: the lane partition
    // is modeled hardware. Each channel count must itself be deterministic
    // (same totals when re-run), while different counts are allowed — and
    // on this workload do — differ.
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let run_channels = |channels: usize, threads: usize| {
        let engine = PipelineBuilder::new()
            .threads(threads)
            .batch_size(64)
            .backend(NmslBackend::new(&mapper).channels(channels));
        let (_, report) = engine.run_collect(pairs.clone());
        WarmFingerprint::of(&report.backend)
    };
    let one_a = run_channels(1, 1);
    let one_b = run_channels(1, 4);
    assert_eq!(one_a, one_b, "channels=1 must be thread-invariant too");
    let four = run_channels(4, 2);
    assert_eq!(one_a.dram_bytes, four.dram_bytes, "traffic never changes");
    assert_eq!(one_a.pairs, four.pairs);
}

/// Structural JSON check for the exported trace: every bracket closes in
/// order, every string terminates (escapes honoured), one top-level object.
fn assert_well_formed_json(text: &str) {
    let mut open = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for (at, c) in text.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => open.push(c),
            '}' | ']' => {
                let expected = if c == '}' { '{' } else { '[' };
                assert_eq!(open.pop(), Some(expected), "unbalanced {c:?} at byte {at}");
                assert!(
                    !open.is_empty() || at + 1 == text.len(),
                    "trailing bytes after the top-level value at byte {at}"
                );
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string");
    assert!(open.is_empty(), "unclosed {open:?}");
    assert!(text.starts_with('{'), "trace must be one JSON object");
}

#[test]
fn tracing_is_accounting_inert() {
    // gx-telemetry's second hard rule: wall-clock observation never feeds
    // the modeled stats. A fully traced warm run — telemetry on both the
    // pipeline and the NMSL device — must produce the same SAM bytes and
    // the same bit-level warm fingerprint as the untraced run, while
    // actually collecting the spans and metrics it claims to.
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());

    let (plain_sam, plain, plain_device) = run_warm(&mapper, &genome, &pairs, 4, 64);

    let telemetry = Telemetry::enabled();
    let (traced_sam, traced, traced_device) =
        run_warm_with(&mapper, &genome, &pairs, 4, 64, telemetry.clone());

    assert!(traced_sam == plain_sam, "tracing changed the SAM bytes");
    assert_eq!(
        WarmFingerprint::of(&traced),
        WarmFingerprint::of(&plain),
        "tracing changed the warm accounting"
    );
    assert_eq!(
        DeviceFingerprint::of(&traced_device),
        DeviceFingerprint::of(&plain_device),
        "tracing changed the device counters"
    );

    // The traced run must really have traced: every pipeline stage span
    // and the device's lane spans are present, and the stage histograms
    // saw every batch.
    let trace = telemetry.chrome_trace().expect("telemetry was enabled");
    assert_well_formed_json(&trace);
    for span in [
        "queue_wait",
        "map_batch",
        "emit_wait",
        "ingest",
        "lane_drain",
    ] {
        assert!(trace.contains(span), "trace is missing {span:?} spans");
    }
    // The counter tracks ride in the same trace: quantum-boundary lane
    // occupancy and frontier depth export as Chrome counter events
    // (`"ph":"C"`), named per lane so Perfetto renders one track each.
    assert!(
        trace.contains("\"ph\":\"C\""),
        "trace is missing counter samples"
    );
    assert!(trace.contains("lane_occupancy"));
    assert!(trace.contains("frontier_depth"));
    let snap = telemetry.snapshot().expect("telemetry was enabled");
    let batches = (N_PAIRS as u64).div_ceil(64);
    assert_eq!(
        snap.histogram("gx_map_batch_ns").map(|h| h.count),
        Some(batches),
        "every batch must land in the map-latency histogram"
    );
    assert_eq!(
        snap.histogram("gx_emit_wait_ns").map(|h| h.count),
        Some(batches)
    );
    assert!(snap
        .histogram("gx_lane_drain_ns")
        .is_some_and(|h| h.count > 0));
    // The front end's reorder depth is a per-batch distribution too.
    assert_eq!(
        snap.histogram("gx_reorder_depth").map(|h| h.count),
        Some(batches)
    );
    // And the exposition renders them, declared as what they are. What the
    // device counts is in `DeviceCounters`, compared above.
    let text = snap.to_prometheus();
    assert!(text.contains("gx_map_batch_ns_count"));
    assert!(text.contains("# TYPE gx_lane_drain_ns histogram"));
    assert!(text.contains("gx_exposed_transfer_ns_bucket{le=\"+Inf\"}"));
}
