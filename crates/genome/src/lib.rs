//! DNA substrate for the GenPairX reproduction.
//!
//! This crate provides every genome-adjacent building block the rest of the
//! workspace depends on:
//!
//! * [`Base`] and [`DnaSeq`] — a 2-bit packed nucleotide sequence,
//! * [`ReferenceGenome`] / [`Chromosome`] — multi-chromosome references with a
//!   flat *global coordinate* space (used by the SeedMap location table),
//! * [`Cigar`] — alignment descriptions compatible with SAM semantics,
//! * [`SamRecord`] — a minimal alignment record used by the variant caller,
//! * [`random`] — repeat-rich synthetic genome generation (GRCh38 stand-in),
//! * [`variant`] — SNP/INDEL generation and donor-genome construction with
//!   donor→reference coordinate maps (ground truth for simulated reads),
//! * [`fasta`] / [`fastq`] — plain-text interchange: a FASTA reader and
//!   FASTQ reading and writing.
//!
//! # Example
//!
//! ```
//! use gx_genome::{DnaSeq, random::RandomGenomeBuilder};
//!
//! # fn main() -> Result<(), gx_genome::GenomeError> {
//! let genome = RandomGenomeBuilder::new(100_000).chromosomes(2).seed(7).build();
//! assert_eq!(genome.total_len(), 100_000);
//! let s = DnaSeq::from_ascii(b"ACGTACGT")?;
//! assert_eq!(s.revcomp().to_string(), "ACGTACGT");
//! # Ok(())
//! # }
//! ```

mod base;
mod bitset;
mod cigar;
mod error;
pub mod fasta;
pub mod fastq;
pub mod random;
mod reference;
mod sam;
pub mod samfile;
mod seq;
pub mod variant;

pub use base::Base;
pub use bitset::Bitset;
pub use cigar::{Cigar, CigarOp};
pub use error::GenomeError;
pub use fastq::ReadRecord;
pub use reference::{Chromosome, Locus, ReferenceGenome};
pub use sam::{flags, SamRecord};
pub use seq::DnaSeq;

/// Position inside the flat concatenation of all chromosomes.
///
/// The SeedMap location table stores these as `u32`, which caps supported
/// references at 4 Gbp (GRCh38 is 3.1 Gbp; our synthetic stand-ins are far
/// smaller).
pub type GlobalPos = u32;
