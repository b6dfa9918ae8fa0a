//! Alignment substrate for the GenPairX reproduction.
//!
//! Provides the dynamic-programming machinery that GenPair's light alignment
//! is designed to *avoid*, and that the baseline mapper and the DP fallback
//! path rely on:
//!
//! * [`Scoring`] — the minimap2 short-read scoring scheme (match +2,
//!   mismatch −8, gap open 12, gap extend 2) under which a perfect 150 bp
//!   read scores 300, reproducing the paper's Table 1 exactly.
//! * [`banded_align_with`] — the affine-gap *fit* aligner (the query end to
//!   end, the target with free overhangs) with traceback, in a band of
//!   diagonals; [`align`] runs it at a band that covers the whole matrix.
//!   Every alignment counts its *cell updates* so the harness can size the
//!   GenDP fallback accelerator in MCUPS.
//! * [`chain`] — minimap2-style chaining DP over seed anchors.
//! * [`edits`] — enumeration of single-/double-edit variations and their
//!   scores (paper Table 1).
//!
//! ```
//! use gx_align::{align, Scoring};
//! use gx_genome::DnaSeq;
//!
//! # fn main() -> Result<(), gx_genome::GenomeError> {
//! let q = DnaSeq::from_ascii(b"ACGTACGTACGT")?;
//! let t = DnaSeq::from_ascii(b"TTACGTACGTACGTTT")?;
//! let a = align(&q, &t, &Scoring::short_read());
//! assert_eq!(a.score, 24); // 12 matches x 2
//! assert_eq!(a.cigar.to_string(), "12=");
//! assert_eq!(a.target_start, 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod banded;
pub mod chain;
mod dp;
pub mod edits;
mod lanes;
mod scoring;

pub use banded::{banded_align_with, banded_cells};
pub use dp::{align, AlignMode, AlignScratch, Alignment};
pub use lanes::{banded_align_lanes, LaneTier};
pub use scoring::Scoring;
