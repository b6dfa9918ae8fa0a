//! **gx-backend** — pluggable mapping backends for the GenPairX system.
//!
//! The paper's core claim is hardware-algorithm co-design: the *same*
//! paired-end mapping algorithm runs on a CPU baseline and on the GenPairX
//! accelerator, and the win is measured on *identical workloads*. This crate
//! is that comparison made first-class: a [`MapBackend`] factory trait the
//! pipeline worker pool is generic over, handing each worker a stateful
//! [`MapSession`] whose one method, [`MapSession::map`], takes a batch and
//! its [`BatchTag`] (which job, which position in that job's stream) — the
//! whole front-end↔backend contract — with two implementations —
//!
//! * [`SoftwareBackend`] — the CPU reference: maps each pair with
//!   [`GenPairMapper::map_pair`](gx_core::GenPairMapper::map_pair) and
//!   models no hardware;
//! * [`NmslBackend`] — the accelerator system model: produces the **same
//!   mapping results** through the same software path (so SAM output stays
//!   byte-identical across backends), while *additionally* charging every
//!   pair to a modeled hardware stage — NMSL seeding through one **shared,
//!   channel-sharded warm** device ([`NmslSim`](gx_accel::NmslSim) lanes +
//!   the [`gx_memsim`] DRAM model) that every worker admits into, GenDP
//!   fallback DP for pairs that left the fast path, and host-link transfer
//!   for every batch's bytes. Pairs route to lanes by a deterministic
//!   workload key and stream in input order, so warm totals are invariant
//!   to thread count, batch size and worker schedule.
//!
//! The split mirrors how SeGraM (ISCA 2022) and the PIM read-mapping line
//! evaluate accelerators: *results* come from the algorithm, *timing* comes
//! from the hardware model ([`MapSession::map`] returns the one,
//! [`MapBackend::flush`] the other), and both consume the exact same reads.
//!
//! ```
//! use gx_backend::{BatchTag, MapBackend, MapSession, NmslBackend, SoftwareBackend};
//! use gx_core::{GenPairConfig, GenPairMapper, ReadPair};
//! use gx_genome::random::RandomGenomeBuilder;
//!
//! let genome = RandomGenomeBuilder::new(60_000).seed(3).build();
//! let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
//! let seq = genome.chromosome(0).seq();
//! let batch = vec![ReadPair::new(
//!     "p0",
//!     seq.subseq(1_000..1_150),
//!     seq.subseq(1_300..1_450).revcomp(),
//! )];
//!
//! // Each worker opens one session and feeds it tagged batches.
//! let first = BatchTag { job: 0, index: 0 };
//! let software = SoftwareBackend::new(&mapper);
//! let nmsl = NmslBackend::new(&mapper);
//! let sw_out = software.session().map(first, &batch);
//! let hw_out = nmsl.session().map(first, &batch);
//! // Identical mapping results...
//! assert_eq!(sw_out[0].is_mapped(), hw_out[0].is_mapped());
//! // ...but only the accelerator backend reports simulated cost, once,
//! // when its shared warm device drains.
//! assert_eq!(software.flush().sim_cycles, 0);
//! let hw_cost = nmsl.flush();
//! assert!(hw_cost.seed_cycles > 0);
//! assert!(hw_cost.transfer_seconds > 0.0);
//! ```
//!
//! The subsystem map — which crate owns which stage, and how a pair flows
//! from FASTQ to SAM plus stats — lives in the repository-root
//! `ARCHITECTURE.md`.

#![warn(missing_docs)]

mod nmsl;
mod software;
mod traits;

pub use nmsl::{
    DeviceCounters, NmslBackend, NmslSession, DEFAULT_CHANNELS, DEFAULT_DISPATCH_QUANTUM,
    QUANTUM_OCC_BUCKETS,
};
pub use software::{SoftwareBackend, SoftwareSession};
// The per-lane counter types the device report is built from.
pub use gx_accel::{CycleBreakdown, LaneCounters};
pub use traits::{BackendStats, BatchTag, MapBackend, MapSession};
