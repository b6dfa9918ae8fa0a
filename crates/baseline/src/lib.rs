//! The software baseline: a minimap2-style paired-end short-read mapper.
//!
//! The paper profiles Minimap2 (Fig. 1), uses it as the CPU baseline
//! ("MM2"), and pairs GenPair with it as the software fallback
//! ("GenPair + MM2"). This crate reimplements that seed–chain–align
//! architecture from scratch:
//!
//! * [`minimizer`] — canonical (k,w)-minimizer extraction with the
//!   invertible hash minimap2 uses,
//! * [`MinimizerIndex`] — the reference minimizer index with an occurrence
//!   cutoff,
//! * [`Mm2Mapper`] — seeding → chaining DP → banded affine-gap extension →
//!   paired-end pairing with mate rescue, instrumented with per-stage wall
//!   times ([`StageTimings`], regenerating Fig. 1) and DP cell-update
//!   counters (GenDP sizing).

#![warn(missing_docs)]

mod index;
mod mapper;
pub mod minimizer;

pub use index::MinimizerIndex;
pub use mapper::{Mm2Mapper, PairAlignment, ReadAlignment, StageTimings, WorkCounters};
