//! **GenPairX** — the hardware accelerator model (paper §5–§7).
//!
//! This crate models every hardware artifact the paper evaluates:
//!
//! * [`workload`] — extraction of the NMSL memory workload (per-pair seed
//!   table reads + location bursts) from a [`gx_seedmap::SeedMap`] and a
//!   read set,
//! * [`nmsl`] — the Near-Memory Seed Locator simulator: table partitioning
//!   across channels, per-channel input FIFOs, the read-pair sliding window
//!   and centralized buffer (Fig. 7/8), driven by the
//!   [`gx_memsim::DramSim`] cycle model; one-shot
//!   ([`NmslSim::run`](nmsl::NmslSim::run)) for the figures, or streamed
//!   ([`push`](nmsl::NmslSim::push) +
//!   [`run_until_completed`](nmsl::NmslSim::run_until_completed)) by the
//!   backend's warm device,
//! * [`modules`] + [`sizing`] — the Partitioned Seeding, Paired-Adjacency
//!   Filtering and Light Alignment module models and the pipeline balancing
//!   that produces Table 3,
//! * [`area_power`] — the Table 4 area/power roll-up (the paper's 7 nm
//!   module figures + CACTI SRAM; no technology scaling is applied here),
//! * [`gendp`] — the GenDP fallback accelerator model sized in CUPS from
//!   measured residual DP work (§7.4),
//! * [`systems`] — end-to-end system comparison (Fig. 11, Table 5, Table 6)
//!   including the published comparator constants (GenCache, GenDP,
//!   BWA-MEM-GPU) and measured CPU throughput plumbing,
//! * [`cpu_query`] — a multithreaded CPU SeedMap-query driver for the
//!   Fig. 9 CPU bar.

pub mod area_power;
pub mod cpu_query;
pub mod gendp;
pub mod host;
pub mod modules;
pub mod nmsl;
pub mod sizing;
pub mod systems;
pub mod workload;

pub use area_power::{CostItem, DesignCost};
pub use gendp::{fallback_cells, FallbackCells, FallbackCost, GenDpInstance, GenDpModel};
pub use host::HostTraffic;
pub use modules::{ModuleSpec, ACCEL_CLOCK_GHZ};
pub use nmsl::{shard_for_workload, CycleBreakdown, LaneCounters, NmslConfig, NmslResult, NmslSim};
pub use sizing::{PipelineSizing, WorkloadProfile};
pub use systems::{SystemPerf, SystemSet};
pub use workload::{PairWorkload, SeedFetch};
