//! End-to-end software-vs-hardware comparison on identical workloads — the
//! repo's full-system trajectory number for the paper's co-design claim.
//!
//! Maps one simulated dataset through the `gx-pipeline` engine per thread
//! count: once with the [`SoftwareBackend`] (CPU reference, wall clock) and
//! once with the [`NmslBackend`] (same mapping results, plus the shared
//! warm NMSL + DRAM model, GenDP fallback costing and host-link transfer
//! accounting). Prints one JSON line per (backend, thread-count):
//!
//! ```text
//! {"harness":"backend_compare","backend":"nmsl","channels":4,"threads":4,
//!  ...,"seed_cycles":123456,"fallback_cycles":789,
//!  "transfer_seconds":1e-4,"exposed_transfer_seconds":2e-5,
//!  "speedup_vs_software":41.2,...}
//! ```
//!
//! `speedup_vs_software` compares the NMSL backend's *modeled* end-to-end
//! system throughput (seeding + fallback + exposed transfer) against the
//! software backend's measured wall-clock throughput at the same thread
//! count (1.0 by definition on software lines). Every run streams full SAM
//! text, and the harness asserts the backends' byte streams are identical
//! at each thread count — the property that makes the comparison
//! apples-to-apples.
//!
//! The NMSL backend is the **shared channel-sharded device** (`--channels
//! N` lanes, pairs routed by workload key, streamed in input order): its
//! cycle/energy totals are a function of the workload and the channel
//! count alone. The harness enforces that as a hard regression — warm
//! `sim_cycles`, `seed_cycles`, `energy_pj` and `exposed_transfer_seconds`
//! must be **bit-identical across every thread count it runs**, reported
//! as a final summary line with a `sharding_invariant` field (CI greps for
//! `"sharding_invariant":true`).
//!
//! The device models double-buffered DMA: each dispatch quantum's
//! host-link transfer streams under the previous quantum's drain, and only
//! the exposed residue counts toward system time; the harness asserts
//! `exposed_transfer_seconds ≤ transfer_seconds` on every NMSL run.
//!
//! Knobs: `GX_PAIRS`, `GX_GENOME_SIZE`, `GX_BATCH`; pass `--smoke` for a
//! seconds-scale CI run, `--channels N` to size the shared device's lane
//! partition, and `--trace out.json` (or `GX_TRACE=out.json`) to attach a
//! [`Telemetry`] handle to the NMSL runs and export the last one's span
//! timeline — pipeline stages, per-lane `lane_drain` spans, plus `"ph":"C"`
//! counter tracks (frontier depth, per-lane quantum occupancy) — as Chrome
//! trace-event JSON. `--metrics out.prom` (or `GX_METRICS=...`) writes the
//! last NMSL run's full metrics registry in Prometheus text exposition
//! format. Telemetry is accounting-inert, so traced runs still satisfy
//! every invariant above, including byte-identical SAM and the warm
//! sharding fingerprint.
//!
//! Every NMSL line also reports the device performance counters the shared
//! device aggregates at flush ([`gx_backend::DeviceCounters`]):
//! `lane_utilization` (mean busy fraction against the device clock),
//! `row_conflict_rate`, `dram_stall_cycles` and `frontier_peak_depth` —
//! zeros on software lines. The cycle-domain counters (stall breakdown,
//! row conflicts, busy/idle partition) join the warm sharding fingerprint;
//! `frontier_peak_depth` is schedule-domain and deliberately does not (see
//! ARCHITECTURE.md "Observability"). Pass `--device-report` for a per-lane
//! utilization and stall-breakdown table on stderr; the harness always
//! asserts each lane's `busy + idle == device_cycles` partition.

use gx_backend::{DeviceCounters, MapBackend, NmslBackend, SoftwareBackend, DEFAULT_CHANNELS};
use gx_bench::env_usize;
use gx_core::{GenPairConfig, GenPairMapper};
use gx_genome::ReferenceGenome;
use gx_pipeline::PipelineBuilder;
use gx_pipeline::{MappingEngine, PipelineReport, ReadPair, SamTextSink, Telemetry};
use gx_readsim::dataset::{simulate_dataset, standard_genome, DATASETS};

fn run<B: MapBackend>(
    engine: &MappingEngine<B>,
    genome: &ReferenceGenome,
    pairs: &[ReadPair],
) -> (Vec<u8>, PipelineReport) {
    let mut sink = SamTextSink::with_header(genome, Vec::new()).expect("Vec write cannot fail");
    let report = engine
        .run(pairs.iter().cloned(), &mut sink)
        .expect("Vec sink is infallible");
    (sink.into_inner().expect("Vec flush cannot fail"), report)
}

/// The warm fields the sharded device promises are thread-count-invariant,
/// floats as bits so the check means "identical", not "close". The second
/// block is the cycle-domain device counters — the stall breakdown and
/// DRAM accounting summed over lanes — which make the same promise.
/// `frontier_peak_depth` is deliberately absent: it is schedule-domain
/// (how deep the admission frontier backs up depends on worker timing),
/// the one device counter that is *not* invariant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct WarmFingerprint {
    sim_cycles: u64,
    seed_cycles: u64,
    energy_pj_bits: u64,
    exposed_transfer_bits: u64,
    device_cycles: u64,
    issue_cycles: u64,
    dram_stall_cycles: u64,
    drain_cycles: u64,
    idle_cycles: u64,
    row_conflicts: u64,
    dram_rejections: u64,
}

impl WarmFingerprint {
    fn new(b: &gx_backend::BackendStats, d: &DeviceCounters) -> WarmFingerprint {
        WarmFingerprint {
            sim_cycles: b.sim_cycles,
            seed_cycles: b.seed_cycles,
            energy_pj_bits: b.energy_pj.to_bits(),
            exposed_transfer_bits: b.exposed_transfer_seconds.to_bits(),
            device_cycles: d.device_cycles(),
            issue_cycles: d.lanes.iter().map(|l| l.breakdown.issue).sum(),
            dram_stall_cycles: d.dram_stall_cycles(),
            drain_cycles: d.lanes.iter().map(|l| l.breakdown.drain).sum(),
            idle_cycles: d.lanes.iter().map(|l| l.breakdown.idle).sum(),
            row_conflicts: d.lanes.iter().map(|l| l.dram.row_conflicts).sum(),
            dram_rejections: d.lanes.iter().map(|l| l.dram.rejections).sum(),
        }
    }
}

/// Per-lane utilization/stall table on stderr (`--device-report`), after
/// asserting the per-lane cycle partition `busy + idle == device_cycles`.
fn device_report(d: &DeviceCounters, threads: usize) {
    let device = d.device_cycles();
    eprintln!(
        "# device report ({} lanes, {} device cycles, {} threads, mean utilization {:.1}%)",
        d.lanes.len(),
        device,
        threads,
        d.mean_utilization() * 100.0
    );
    eprintln!(
        "# lane     util%      busy     issue     stall     drain      idle  row_conf   rejects"
    );
    for (i, l) in d.lanes.iter().enumerate() {
        eprintln!(
            "# {:>4} {:>8.1} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            i,
            d.lane_utilization(i) * 100.0,
            d.lane_busy_cycles(i),
            l.breakdown.issue,
            l.breakdown.dram_stall,
            l.breakdown.drain,
            d.lane_idle_cycles(i),
            l.dram.row_conflicts,
            l.dram.rejections,
        );
    }
    eprintln!(
        "# frontier_peak_depth={} row_conflict_rate={:.4} (schedule-domain peak \
         excluded from the sharding fingerprint)",
        d.frontier_peak_depth,
        d.row_conflict_rate()
    );
}

fn json_line(
    report: &PipelineReport,
    channels: usize,
    sw_reads_per_sec: f64,
    device: Option<&DeviceCounters>,
) -> String {
    let b = &report.backend;
    // Software lines compare wall clock to wall clock (1.0 at its own
    // thread count); NMSL lines compare modeled end-to-end system time
    // (seeding + fallback + exposed transfer) to the software wall clock at
    // the same thread count.
    let effective_rps = if b.sim_seconds > 0.0 {
        b.system_reads_per_sec()
    } else {
        report.reads_per_sec()
    };
    format!(
        concat!(
            "{{\"harness\":\"backend_compare\",\"backend\":\"{}\",\"channels\":{},",
            "\"threads\":{},\"pairs\":{},\"batch_size\":{},\"wall_seconds\":{:.4},",
            "\"reads_per_sec\":{:.1},\"sim_cycles\":{},\"sim_seconds\":{:.6e},",
            "\"seed_cycles\":{},\"fallback_cycles\":{},\"transfer_seconds\":{:.6e},",
            "\"exposed_transfer_seconds\":{:.6e},",
            "\"seed_energy_pj\":{:.1},\"fallback_energy_pj\":{:.1},",
            "\"input_bytes\":{},\"output_bytes\":{},",
            "\"modeled_reads_per_sec\":{:.1},\"system_reads_per_sec\":{:.1},",
            "\"energy_pj\":{:.1},\"dram_bytes\":{},",
            "\"lane_utilization\":{:.4},\"row_conflict_rate\":{:.4},",
            "\"dram_stall_cycles\":{},\"frontier_peak_depth\":{},",
            "\"speedup_vs_software\":{:.3},\"sam_identical\":true}}"
        ),
        report.backend_name,
        channels,
        report.threads,
        report.pairs(),
        report.batch_size,
        report.elapsed.as_secs_f64(),
        report.reads_per_sec(),
        b.sim_cycles,
        b.sim_seconds,
        b.seed_cycles,
        b.fallback_cycles,
        b.transfer_seconds,
        b.exposed_transfer_seconds,
        b.seed_energy_pj,
        b.fallback_energy_pj,
        b.input_bytes,
        b.output_bytes,
        b.modeled_reads_per_sec(),
        b.system_reads_per_sec(),
        b.energy_pj,
        b.dram_bytes,
        device.map_or(0.0, DeviceCounters::mean_utilization),
        device.map_or(0.0, DeviceCounters::row_conflict_rate),
        device.map_or(0, DeviceCounters::dram_stall_cycles),
        device.map_or(0, |d| d.frontier_peak_depth),
        effective_rps / sw_reads_per_sec,
    )
}

/// Parses `--flag N` from the argument list (N must be ≥ 1: the backend
/// would silently clamp 0 while every JSON line reported the raw value).
fn flag_value(args: &[String], flag: &str) -> Option<usize> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&v: &usize| v >= 1)
            .unwrap_or_else(|| panic!("{flag} requires a positive integer argument"))
    })
}

/// Resolves an output path: `<flag> PATH` wins, then the `<env>` env var,
/// else the export stays off. Shared by `--trace`/`GX_TRACE` (Chrome
/// trace JSON) and `--metrics`/`GX_METRICS` (Prometheus exposition).
fn path_flag(args: &[String], flag: &str, env: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| panic!("{flag} requires an output path argument"))
        })
        .or_else(|| std::env::var(env).ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let channels = flag_value(&args, "--channels").unwrap_or(DEFAULT_CHANNELS);
    let report_device = args.iter().any(|a| a == "--device-report");
    let trace = path_flag(&args, "--trace", "GX_TRACE");
    let metrics = path_flag(&args, "--metrics", "GX_METRICS");
    let (default_pairs, default_genome) = if smoke {
        (300, 250_000)
    } else {
        (4_000, 800_000)
    };
    let n_pairs = env_usize("GX_PAIRS", default_pairs);
    let genome_size = env_usize("GX_GENOME_SIZE", default_genome) as u64;
    let batch = env_usize("GX_BATCH", 256);

    let genome = standard_genome(genome_size, 0xC0FFEE);
    eprintln!(
        "# genome: {} bp, simulating {n_pairs} pairs...",
        genome.total_len()
    );
    let pairs: Vec<ReadPair> = simulate_dataset(&genome, &DATASETS[0], n_pairs)
        .into_iter()
        .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
        .collect();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());

    let thread_counts = [1usize, 2, 4];
    let mut warm_fingerprints: Vec<(usize, WarmFingerprint)> = Vec::new();
    let mut last_trace: Option<String> = None;
    let mut last_metrics: Option<String> = None;
    for threads in thread_counts {
        let sw_engine = PipelineBuilder::new()
            .threads(threads)
            .batch_size(batch)
            .backend(SoftwareBackend::new(&mapper));
        let (sw_bytes, sw_report) = run(&sw_engine, &genome, &pairs);
        let sw_rps = sw_report.reads_per_sec();
        println!("{}", json_line(&sw_report, channels, sw_rps, None));

        // Trace/meter the NMSL runs: they exercise the shared device, so
        // the export carries the pipeline tracks, the per-lane `lane_drain`
        // spans and the counter tracks. Telemetry is accounting-inert, so
        // an instrumented run still feeds the sharding-invariance
        // fingerprint.
        let telemetry = if trace.is_some() || metrics.is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let hw_engine = PipelineBuilder::new()
            .threads(threads)
            .batch_size(batch)
            .telemetry(telemetry.clone())
            .backend(
                NmslBackend::new(&mapper)
                    .channels(channels)
                    .telemetry(telemetry.clone()),
            );
        let (hw_bytes, hw_report) = run(&hw_engine, &genome, &pairs);
        if telemetry.is_enabled() {
            if trace.is_some() {
                last_trace = telemetry.chrome_trace();
            }
            if metrics.is_some() {
                last_metrics = telemetry.snapshot().map(|s| s.to_prometheus());
            }
            if hw_report.dropped_events > 0 {
                eprintln!(
                    "# WARNING: span rings overflowed, trace is missing {} events \
                     (raise TelemetryConfig::ring_capacity)",
                    hw_report.dropped_events
                );
            }
        }
        // The run leaves the shared device's flush-time counter aggregate
        // behind; assert the per-lane cycle partition, report the table on
        // request.
        let device = hw_engine
            .backend()
            .device_counters()
            .expect("a run must leave device counters at flush");
        let device_cycles = device.device_cycles();
        for i in 0..device.lanes.len() {
            assert_eq!(
                device.lane_busy_cycles(i) + device.lane_idle_cycles(i),
                device_cycles,
                "lane {i} busy+idle must partition the device clock at {threads} threads"
            );
        }
        if report_device {
            device_report(&device, threads);
        }
        // The co-design contract: both backends must emit identical SAM
        // bytes on this workload, or the throughput comparison is
        // meaningless.
        assert!(
            sw_bytes == hw_bytes,
            "NMSL backend SAM output diverged from software at {threads} threads"
        );
        assert_eq!(
            hw_report.stats, sw_report.stats,
            "backend stats must match at {threads} threads"
        );
        // The overlap invariant: the double-buffered model can only *hide*
        // transfer time, never invent it.
        let b = &hw_report.backend;
        assert!(
            b.exposed_transfer_seconds <= b.transfer_seconds,
            "exposed transfer ({}) exceeds raw transfer ({}) at {threads} threads",
            b.exposed_transfer_seconds,
            b.transfer_seconds,
        );
        warm_fingerprints.push((threads, WarmFingerprint::new(b, &device)));
        println!("{}", json_line(&hw_report, channels, sw_rps, Some(&device)));
    }

    // The tentpole regression: with the channel count fixed, warm totals
    // must be bit-identical across every thread count this harness ran.
    let (_, reference) = &warm_fingerprints[0];
    let invariant = warm_fingerprints.iter().all(|(_, fp)| fp == reference);
    let threads_list: Vec<String> = warm_fingerprints
        .iter()
        .map(|(t, _)| t.to_string())
        .collect();
    println!(
        "{{\"harness\":\"backend_compare\",\"check\":\"sharding_invariant\",\
         \"channels\":{},\"threads\":[{}],\"sharding_invariant\":{}}}",
        channels,
        threads_list.join(","),
        invariant
    );
    assert!(
        invariant,
        "warm accounting diverged across thread counts at channels={channels}: \
         {warm_fingerprints:?}"
    );

    if let Some(path) = &trace {
        let json = last_trace.expect("telemetry was enabled for --trace");
        std::fs::write(path, json).expect("trace file must be writable");
        eprintln!("# wrote Chrome trace to {path}");
    }
    if let Some(path) = &metrics {
        let prom = last_metrics.expect("telemetry was enabled for --metrics");
        std::fs::write(path, prom).expect("metrics file must be writable");
        eprintln!("# wrote Prometheus metrics to {path}");
    }
}
