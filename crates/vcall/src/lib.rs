//! Variant calling and accuracy evaluation (freebayes / vcfdist / paftools
//! substitutes).
//!
//! The paper measures mapper accuracy end to end: map reads → call variants
//! (freebayes) → compare against the GIAB truth set (vcfdist) → report
//! TP/FP/precision/recall/F1 (Table 7); and separately scores raw mapping
//! locations against simulation ground truth (paftools mapeval, Fig. 13).
//! This crate implements both instruments:
//!
//! * [`Pileup`] — per-column base counts and indel events from SAM records,
//! * [`call_variants`] — a pileup caller with depth/fraction thresholds,
//! * [`compare_variants`] — truth-set comparison with the standard
//!   precision/recall/F1 metrics,
//! * [`mapeval`] — mapping-location correctness against simulation truth.
//!
//! Calls and truth sets stay in memory as
//! [`Variant`](gx_genome::variant::Variant)s and are compared there; nothing
//! is written as VCF.

mod caller;
mod compare;
pub mod mapeval;
mod pileup;

pub use caller::{call_variants, CallerConfig};
pub use compare::{compare_variants, AccuracyMetrics, ComparisonResult};
pub use pileup::Pileup;
