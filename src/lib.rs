//! GenPairX — a full-system reproduction of *"GenPairX: A Hardware-Algorithm
//! Co-Designed Accelerator for Paired-End Read Mapping"* (HPCA 2026).
//!
//! This facade crate re-exports every workspace crate under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! `genpairx` crate. The full subsystem map — who owns which stage, the
//! FASTQ→SAM data-flow diagram, and the results-vs-timing contract — is
//! the repository-root `ARCHITECTURE.md`; the crates in dependency order:
//!
//! * [`genome`] — DNA substrate (sequences, references, CIGAR, variants).
//! * [`align`] — scoring and dynamic-programming aligners.
//! * [`seedmap`] — the SeedMap index (Seed Table + Location Table).
//! * [`readsim`] — Mason-like paired-end and long-read simulators.
//! * [`core`] — the GenPair algorithm (seeding, query, paired-adjacency
//!   filtering, light alignment, fallback plumbing).
//! * [`telemetry`] — std-only observability: sharded log2 histograms of
//!   wall-clock waits merged lock-free at snapshot time, span and
//!   counter-track tracing into per-worker ring buffers with a Chrome
//!   trace-event JSON exporter (Perfetto-viewable); counts stay in reports.
//!   Zero-cost when disabled, and accounting-inert: wall-clock reads never
//!   feed the modeled stats, so warm totals and SAM bytes are unchanged by
//!   tracing.
//! * [`pipeline`] — the throughput engine: batching front-end, a worker
//!   pool fed through one bounded FIFO dispatch queue, with sharded
//!   statistics, and an ordered SAM emitter (see below).
//! * [`backend`] — pluggable mapping backends behind the one
//!   [`backend::MapBackend`] trait, whose contract is two calls —
//!   `backend.map(&mut scratch, BatchTag { job, index }, &pairs)` for
//!   results and one `backend.flush()` for the run's modeled cost: the
//!   software reference and the NMSL accelerator system model (one shared
//!   warm device every worker admits into in tag order, GenDP fallback
//!   costing, host-link transfer accounting with double-buffered DMA
//!   overlap), interchangeable under the pipeline.
//! * [`baseline`] — minimap2-style software mapper and comparator models.
//! * [`memsim`] — cycle-level DRAM simulator (HBM2e/DDR5/GDDR6) and SRAM
//!   cost models.
//! * [`accel`] — the GenPairX hardware model (NMSL, module sizing,
//!   area/power roll-up, GenDP integration, end-to-end system comparison).
//! * [`vcall`] — pileup variant caller and accuracy evaluation.
//!
//! # Quickstart
//!
//! ```
//! use genpairx::genome::random::RandomGenomeBuilder;
//! use genpairx::readsim::PairedEndSimulator;
//! use genpairx::core::{GenPairConfig, GenPairMapper};
//!
//! let genome = RandomGenomeBuilder::new(100_000).seed(1).build();
//! let mut sim = PairedEndSimulator::new(&genome).seed(2);
//! let pairs = sim.simulate(50);
//!
//! let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
//! let mut mapped = 0;
//! for pair in &pairs {
//!     if mapper.map_pair(&pair.r1.seq, &pair.r2.seq).is_mapped() {
//!         mapped += 1;
//!     }
//! }
//! assert!(mapped > 40);
//! ```
//!
//! # Throughput engine
//!
//! The per-pair call above is the algorithm; the [`pipeline`] crate is the
//! execution subsystem that gives it a throughput story. A
//! [`pipeline::PipelineBuilder`] configures worker threads, batch size
//! and the unmapped-pair policy; the resulting
//! [`pipeline::MappingEngine`] batches input pairs, maps batches on a
//! worker pool sharing one [`core::GenPairMapper`], accumulates
//! [`core::PipelineStats`] in lock-free per-worker shards, and reassembles
//! SAM output **in input order** — byte-identical to a serial run for any
//! thread count or batch size.
//!
//! ```
//! use genpairx::genome::random::RandomGenomeBuilder;
//! use genpairx::readsim::PairedEndSimulator;
//! use genpairx::core::{GenPairConfig, GenPairMapper};
//! use genpairx::pipeline::{PipelineBuilder, ReadPair};
//!
//! let genome = RandomGenomeBuilder::new(100_000).seed(1).build();
//! let mut sim = PairedEndSimulator::new(&genome).seed(2);
//! let pairs: Vec<ReadPair> = sim
//!     .simulate(50)
//!     .into_iter()
//!     .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
//!     .collect();
//!
//! let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
//! let engine = PipelineBuilder::new().threads(2).batch_size(16).engine(&mapper);
//! let (records, report) = engine.run_collect(pairs);
//! assert_eq!(report.stats.pairs, 50);
//! assert_eq!(records.len(), 100); // two SAM records per pair
//! ```
//!
//! # Mapping backends: software vs accelerator on identical workloads
//!
//! `.engine(&mapper)` is shorthand for attaching the software backend. The
//! same engine drives the GenPairX accelerator system model instead —
//! mapping results (and therefore SAM bytes) are identical, but the report
//! gains a per-stage modeled cost breakdown: NMSL seeding cycles and DRAM
//! energy from one shared **warm** device whose simulator state persists
//! across batches, GenDP cycles for every pair that left the fast path, and
//! host-link transfer seconds for every batch's bytes:
//!
//! ```
//! use genpairx::genome::random::RandomGenomeBuilder;
//! use genpairx::readsim::PairedEndSimulator;
//! use genpairx::core::{GenPairConfig, GenPairMapper};
//! use genpairx::backend::NmslBackend;
//! use genpairx::pipeline::{PipelineBuilder, ReadPair};
//!
//! let genome = RandomGenomeBuilder::new(100_000).seed(1).build();
//! let mut sim = PairedEndSimulator::new(&genome).seed(2);
//! let pairs: Vec<ReadPair> = sim
//!     .simulate(20)
//!     .into_iter()
//!     .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
//!     .collect();
//!
//! let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
//! let engine = PipelineBuilder::new()
//!     .threads(2)
//!     .batch_size(16)
//!     .backend(NmslBackend::new(&mapper));
//! let (_, report) = engine.run_collect(pairs);
//! assert_eq!(report.backend_name, "nmsl");
//! assert!(report.backend.seed_cycles > 0);
//! assert!(report.backend.energy_pj > 0.0);
//! assert!(report.backend.transfer_seconds > 0.0);
//! ```

#![warn(missing_docs)]

pub use gx_accel as accel;
pub use gx_align as align;
pub use gx_backend as backend;
pub use gx_baseline as baseline;
pub use gx_core as core;
pub use gx_genome as genome;
pub use gx_memsim as memsim;
pub use gx_pipeline as pipeline;
pub use gx_readsim as readsim;
pub use gx_seedmap as seedmap;
pub use gx_telemetry as telemetry;
pub use gx_vcall as vcall;
