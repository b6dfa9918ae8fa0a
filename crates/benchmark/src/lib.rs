//! **gxbench** — the repository's one benchmark.
//!
//! FASTQ bytes in, SAM bytes out, on six seeded workloads: end-to-end
//! metrics with tracing off, then a traced pass that attributes time to
//! each crate by timing its public calls from outside. `README.md` has the
//! workload and metric tables, the layer→end-to-end interaction map and
//! the API contract; `/BENCHMARK.json` names the workloads and metrics,
//! and [`spec`] reads them from it.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod drive;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod sha256;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod verify;
