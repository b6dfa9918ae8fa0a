//! The registry's series are a fixed, documented set: one traced run
//! through everything that records — the engine, the NMSL device, the
//! service — and every name `Telemetry::snapshot` then holds must be in
//! ARCHITECTURE.md's "Observability" table. A series added without a row
//! there, or a count re-exported from a report struct, fails here.

use genpairx::backend::NmslBackend;
use genpairx::core::{GenPairConfig, GenPairMapper};
use genpairx::pipeline::{JobOutcome, JobSpec, PipelineBuilder, ReadPair, ServiceBuilder, VecSink};
use genpairx::readsim::dataset::{simulate_dataset, standard_genome, DATASETS};
use genpairx::telemetry::Telemetry;

/// What the registry exports: wall-clock and per-event distributions, which
/// no report struct can carry. Sorted, as the comparison below is.
const SERIES: [&str; 7] = [
    "gx_emit_wait_ns",
    "gx_exposed_transfer_ns",
    "gx_ingest_ns",
    "gx_lane_drain_ns",
    "gx_map_batch_ns",
    "gx_queue_wait_ns",
    "gx_reorder_depth",
];

/// The value-over-time tracks of the Chrome trace.
const COUNTER_TRACKS: [&str; 2] = ["lane_occupancy", "frontier_depth"];

#[test]
fn every_exported_series_is_documented() {
    let genome = standard_genome(120_000, 0x7A0);
    let pairs: Vec<ReadPair> = simulate_dataset(&genome, &DATASETS[0], 192)
        .into_iter()
        .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
        .collect();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let telemetry = Telemetry::enabled();
    let backend = || NmslBackend::new(&mapper).telemetry(telemetry.clone());

    let (_, report) = PipelineBuilder::new()
        .threads(2)
        .batch_size(16)
        .telemetry(telemetry.clone())
        .backend(backend())
        .run_collect(pairs.clone());
    assert_eq!(report.stats.pairs, 192);
    ServiceBuilder::new()
        .threads(2)
        .telemetry(telemetry.clone())
        .serve(backend(), |svc| {
            let jobs: Vec<_> = pairs
                .chunks(96)
                .map(|job| {
                    svc.submit_pairs(JobSpec::new().batch_size(16), job.to_vec(), VecSink::new())
                        .unwrap()
                })
                .collect();
            for job in jobs {
                assert_eq!(job.join().0.outcome, JobOutcome::Completed);
            }
        });

    let snap = telemetry.snapshot().expect("telemetry was enabled");
    let mut exported: Vec<&str> = snap
        .histograms
        .iter()
        .map(|h| h.desc.name.as_str())
        .collect();
    exported.sort_unstable();
    assert_eq!(exported, SERIES);
    for h in &snap.histograms {
        assert!(!h.hist.is_empty(), "{} recorded nothing", h.desc.name);
    }

    let (_, section) = include_str!("../ARCHITECTURE.md")
        .split_once("## Observability")
        .expect("the Observability heading");
    let (section, _) = section.split_once("\n## ").expect("a following section");
    let trace = telemetry.chrome_trace().expect("telemetry was enabled");
    for name in exported {
        assert!(
            section.contains(&format!("| `{name}` |")),
            "{name} has no row in ARCHITECTURE.md's Observability table"
        );
    }
    for track in COUNTER_TRACKS {
        assert!(trace.contains(track), "the trace has no {track} samples");
        assert!(
            section.contains(&format!("| `{track}` |")),
            "{track} has no row in ARCHITECTURE.md's Observability table"
        );
    }
}
