//! **GenPair** — the paper's primary algorithmic contribution: a paired-end
//! read mapping pipeline that replaces most chaining and DP alignment with a
//! hash-based paired filter and a bit-parallel light aligner.
//!
//! The online pipeline (paper Fig. 3):
//!
//! 1. **Partitioned Seeding** ([`seeding`]) — three non-overlapping 50 bp
//!    seeds per read, hashed with xxh32.
//! 2. **SeedMap Query** ([`seeding::query_read`]) — sorted candidate
//!    locations from the [`gx_seedmap::SeedMap`] index, normalized to read
//!    starts and merged.
//! 3. **Paired-Adjacency Filtering** ([`pafilter`]) — keep candidate pairs
//!    whose reads land within Δ of each other, at most `max_candidates`,
//!    the ones the most seeds support first.
//! 4. **Light Alignment** ([`light`]) — Hamming-mask alignment producing
//!    score + CIGAR for single-edit-type reads; DP only as fallback.
//!
//! [`GenPairMapper`] orchestrates the four steps and exposes the three
//! fallback arrows of the paper's Fig. 10; [`PipelineStats`] aggregates the
//! workload counters that size the hardware (Table 3). Long reads are
//! handled by pseudo-pair decomposition plus [`voting`] (§4.7).
//!
//! ```
//! use gx_genome::random::RandomGenomeBuilder;
//! use gx_core::{GenPairConfig, GenPairMapper, PipelineStats};
//!
//! let genome = RandomGenomeBuilder::new(60_000).seed(8).build();
//! let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
//! let seq = genome.chromosome(0).seq();
//! let (r1, r2) = (seq.subseq(1000..1150), seq.subseq(1300..1450).revcomp());
//!
//! let mut stats = PipelineStats::new();
//! let res = mapper.map_pair(&r1, &r2);
//! stats.record(&res);
//! assert_eq!(stats.light_mapped, 1);
//! ```

#![warn(missing_docs)]

mod config;
mod fallback;
pub mod light;
mod longread;
mod mapper;
pub mod pafilter;
pub mod prefilter;
mod readpair;
mod scratch;
pub mod seeding;
mod stats;
pub mod voting;

pub use config::GenPairConfig;
pub use light::{
    light_align, light_align_cycles, light_align_with, LightAlignment, LightConfig, LightScratch,
};
pub use longread::{LongReadMapping, LongReadWork};
pub use mapper::{
    pair_mapping_to_sam, unmapped_pair_to_sam, FallbackStage, GenPairMapper, PairMapResult,
    PairMapping, PairWork, DP_FALLBACK_BAND, DP_FALLBACK_MARGIN,
};
pub use readpair::ReadPair;
pub use scratch::MapScratch;
pub use stats::PipelineStats;
