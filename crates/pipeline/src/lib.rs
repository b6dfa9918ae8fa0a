//! **gx-pipeline** — the throughput engine over the GenPair algorithm.
//!
//! `gx-core` reproduces the paper's per-pair pipeline as a single
//! [`GenPairMapper::map_pair`](gx_core::GenPairMapper::map_pair) call; this
//! crate turns it into a streaming, massively parallel mapping engine (the
//! workload shape SeGraM and the genome-analysis primer frame as the point
//! of an accelerator):
//!
//! * a **batching front-end** ([`ReadPair`], [`ReadPairStream`],
//!   [`read_pairs_from_fastq`]) that chunks read pairs — from simulators or
//!   mate-paired FASTQ, streamed incrementally so datasets never need to be
//!   materialized — into fixed-size batches;
//! * a **worker pool** ([`MappingEngine`]) of OS threads fed through one
//!   bounded FIFO **dispatch queue** (every worker pops the oldest batch),
//!   generic over a pluggable [`MapBackend`] (the software
//!   reference [`SoftwareBackend`] or the NMSL accelerator system model
//!   [`NmslBackend`] from `gx-backend`); each worker owns one
//!   [`MapScratch`](gx_core::MapScratch) for the whole run, maps whole
//!   batches through [`MapBackend::map`] with it (each batch under its
//!   [`BatchTag`] so the accelerator's shared warm device admits in input
//!   order), and
//!   accumulates private **stats shards** (merged lock-free at join via
//!   [`PipelineStats::merge`](gx_core::PipelineStats::merge) and
//!   [`BackendStats::merge`]);
//! * an **ordered SAM emitter** ([`RecordSink`], [`SamTextSink`],
//!   [`VecSink`]) that reassembles batch results in input order, making the
//!   parallel output byte-identical to the serial reference
//!   ([`map_serial`]) for any backend, thread count and batch size;
//! * a [`PipelineBuilder`] config surface, the one way to make a
//!   [`MappingEngine`]: threads, batch size, queue depth, the
//!   [`FallbackPolicy`] for pairs GenPair hands to the traditional
//!   pipeline, the backend selection (`.engine(&mapper)` for software,
//!   `.backend(...)` for anything else), and an optional
//!   [`Telemetry`] handle (`.telemetry(...)`) that records queue-wait,
//!   map-latency, emit-wait, ingest and reorder-depth histograms and
//!   batch-lifecycle spans — zero-cost when left disabled, and
//!   accounting-inert by construction (wall-clock reads never feed modeled
//!   stats, so warm totals and SAM bytes are unchanged by tracing);
//! * a **multi-job service layer** ([`ServiceBuilder::serve`]) that keeps
//!   one worker pool and one warm device serving many concurrent jobs — an
//!   ingest pool, admission control, per-job deadlines on an injectable
//!   monotonic [`Clock`], per-job ordered emitters whose output stays
//!   byte-identical to each job's solo run, and one early-end path shared
//!   by [`JobHandle::cancel`], deadlines and per-job failures; see the
//!   [`service`] docs.
//!
//! ```
//! use gx_genome::random::RandomGenomeBuilder;
//! use gx_core::{GenPairConfig, GenPairMapper};
//! use gx_pipeline::{map_serial, FallbackPolicy, PipelineBuilder, ReadPair, VecSink};
//!
//! let genome = RandomGenomeBuilder::new(80_000).seed(11).build();
//! let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
//! let seq = genome.chromosome(0).seq();
//! let pairs: Vec<ReadPair> = (0..8)
//!     .map(|i| {
//!         let s = 2_000 + i * 4_000;
//!         ReadPair::new(
//!             format!("p{i}"),
//!             seq.subseq(s..s + 150),
//!             seq.subseq(s + 250..s + 400).revcomp(),
//!         )
//!     })
//!     .collect();
//!
//! // Parallel engine and serial reference emit identical streams.
//! let engine = PipelineBuilder::new().threads(4).batch_size(3).engine(&mapper);
//! let (parallel, report) = engine.run_collect(pairs.clone());
//! let mut serial = VecSink::new();
//! map_serial(&mapper, FallbackPolicy::EmitUnmapped, pairs, &mut serial).unwrap();
//! assert_eq!(parallel.len(), serial.records.len());
//! assert_eq!(report.stats.pairs, 8);
//! ```

//! The subsystem map — which crate owns which stage, and how a pair flows
//! from FASTQ to SAM plus stats — lives in the repository-root
//! `ARCHITECTURE.md`.

#![warn(missing_docs)]

mod batch;
mod clock;
mod config;
mod engine;
mod queue;
pub mod service;
mod sink;
mod worker;

pub use batch::{read_pairs_from_fastq, ReadPairStream};
pub use clock::{Clock, ManualClock, SystemClock};
pub use config::{FallbackPolicy, PipelineBuilder};
pub use engine::{map_serial, MappingEngine, PipelineReport};
pub use gx_backend::{BackendStats, BatchTag, MapBackend, NmslBackend, SoftwareBackend};
pub use gx_core::ReadPair;
pub use gx_telemetry::{Telemetry, TelemetryConfig};
pub use service::{
    JobHandle, JobOutcome, JobReport, JobSnapshot, JobSpec, Priority, ServiceBuilder,
    ServiceHandle, ServiceReport, SubmitError,
};
pub use sink::{RecordSink, SamTextSink, VecSink};
