//! The per-session mapping arena: every buffer
//! [`map_pairs_with`](crate::GenPairMapper::map_pairs_with) needs across
//! the whole FASTQ→SAM hot path, owned by the caller and reused batch after
//! batch.
//!
//! One `MapScratch` per worker (each backend session owns one) removes all
//! steady-state heap traffic from the software pipeline: reverse-complement
//! buffers, seed-code extraction, the gathered Location Table slices,
//! SeedMap query merges, the PA filter's candidate list, the light
//! aligner's memo, reference windows, the batch's DP jobs and candidates,
//! both DP kernels' rows and the results list all hit their high-water
//! capacity within the first batch and are never reallocated again. Reuse
//! is observable only through speed — a mapper driven through a reused
//! scratch must produce byte-identical SAM output to fresh-scratch calls
//! (locked down by tests here and the golden e2e fixtures).

use crate::fallback::DpBatch;
use crate::light::{LightAlignment, LightScratch};
use crate::pafilter::PaFilterResult;
use crate::seeding::{ReadCandidates, SeedLookup};
use crate::PairMapResult;
use gx_align::AlignScratch;
use gx_genome::{DnaSeq, GlobalPos, Locus};

/// Reusable buffers for
/// [`GenPairMapper::map_pairs_with`](crate::GenPairMapper::map_pairs_with)
/// and its batch of one, [`map_pair_with`](crate::GenPairMapper::map_pair_with).
///
/// A batch runs in three steps, and the scratch carries what one step
/// leaves the next: the per-pair buffers (reads, seeds, candidates, light
/// alignment) are rewritten by each pair's step 1, which appends the pair's
/// planned DP jobs and candidates to `dp`; step 2 runs all of the batch's
/// jobs through `align`; step 3 gives each DP pair its mapping in
/// `results`.
///
/// Not `Clone`/shared: one scratch belongs to exactly one mapping loop.
/// All fields are buffers — dropping a scratch loses only capacity, never
/// results.
#[derive(Default)]
pub struct MapScratch {
    /// Reverse complement of read 1, recomputed in place per pair.
    pub(crate) r1_rc: DnaSeq,
    /// Reverse complement of read 2.
    pub(crate) r2_rc: DnaSeq,
    /// Whole-read 2-bit codes for seed hashing (one read at a time).
    pub(crate) codes: Vec<u8>,
    /// The Location Table slices of all of a pair's seeds, gathered before
    /// any is merged ([`query_reads_into`](crate::seeding::query_reads_into)).
    pub(crate) arena: Vec<GlobalPos>,
    /// SeedMap query results of the four oriented reads: `r1` and `rc(r2)`
    /// (read 1 forward), then `rc(r1)` and `r2` (the mirror).
    pub(crate) cands: [ReadCandidates; 4],
    /// Paired-adjacency filter output.
    pub(crate) pa: PaFilterResult,
    /// Candidates deferred to the DP fallback stage: both loci, whether
    /// read 1 is the forward read, and mate 1's light alignment when it
    /// passed (mate 2 was then refused, and only mate 2 goes to DP). `None`
    /// when mate 1 was refused: mate 2 is then light-aligned at the DP
    /// stage, and goes to DP only if that fails too.
    pub(crate) dp_cands: Vec<(Locus, Locus, bool, Option<LightAlignment>)>,
    /// Reference window for light and DP alignment.
    pub(crate) window: DnaSeq,
    /// The light aligner's per-shift suffix memo (it stores no masks).
    pub(crate) light: LightScratch,
    /// The DP stage of the batch being mapped: its planned jobs (mate and
    /// window codes in one arena) and its DP pairs' candidates.
    pub(crate) dp: DpBatch,
    /// Both DP kernels' buffers: the row kernel's score rows, target
    /// profile and traceback, and the lane kernel's interleaved rows.
    pub(crate) align: AlignScratch,
    /// The batch's results, in input order, until they are handed out.
    pub(crate) results: Vec<PairMapResult>,
}

impl MapScratch {
    /// An empty scratch; buffers grow to their steady-state size during the
    /// first mapped batch.
    pub fn new() -> MapScratch {
        MapScratch::default()
    }

    /// The SeedMap lookups the last seeded pair made in its query
    /// orientation — `r1`'s seeds, then `rc(r2)`'s, up to six — as the pair
    /// step recorded them (none before the first pair). This is the pair's
    /// NMSL workload: the device model prices these instead of seeding the
    /// reads a second time. In a batch, each pair's step 1 overwrites the
    /// last pair's, so they are read in the `seeded` callback of
    /// [`map_pairs_with`](crate::GenPairMapper::map_pairs_with), once per
    /// pair; after [`map_pair_with`](crate::GenPairMapper::map_pair_with)
    /// they are that pair's.
    pub fn pair_lookups(&self) -> impl Iterator<Item = &SeedLookup> {
        self.cands[..2].iter().flat_map(|c| c.lookups())
    }
}
