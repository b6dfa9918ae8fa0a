//! Mason-like read simulation for the GenPairX reproduction.
//!
//! The paper evaluates on GIAB HG002 2×150 bp paired-end reads and uses the
//! Mason simulator for its sensitivity studies (§7.7, §7.8). This crate is
//! the Mason substitute used everywhere in this reproduction:
//!
//! * [`PairedEndSimulator`] — samples DNA fragments (Normal insert size, FR
//!   orientation, either strand), applies a per-base sequencing error model
//!   and keeps per-pair ground truth.
//! * [`LongReadSimulator`] — PacBio-HiFi-like long reads (§4.7 evaluation).
//! * [`ErrorModel`] — substitution/insertion/deletion error injection with
//!   Mason's default equal split.
//! * [`dataset`] — the three "GIAB-like" dataset presets (D1–D3) used by the
//!   figure harnesses.
//!
//! ```
//! use gx_genome::random::RandomGenomeBuilder;
//! use gx_readsim::PairedEndSimulator;
//!
//! let genome = RandomGenomeBuilder::new(50_000).seed(1).build();
//! let mut sim = PairedEndSimulator::new(&genome).seed(7);
//! let pairs = sim.simulate(10);
//! assert_eq!(pairs.len(), 10);
//! assert_eq!(pairs[0].r1.len(), 150);
//! ```

#![warn(missing_docs)]

pub mod dataset;
mod error_model;
mod longsim;
mod pairsim;

pub use error_model::ErrorModel;
pub use longsim::{LongRead, LongReadSimulator};
pub use pairsim::{read_matches_at, PairTruth, PairedEndSimulator, SimulatedPair};
