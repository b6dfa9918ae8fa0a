//! The GenPair online mapping pipeline (paper §4.1, Fig. 3):
//! Partitioned Seeding → SeedMap Query → Paired-Adjacency Filtering →
//! Light Alignment, with the three DP fallback arrows of Fig. 10.

use crate::fallback::{Candidate, DpBatch, Mate};
use crate::light::{light_align_with, LightAlignment, LightScratch};
use crate::pafilter::paired_adjacency_filter_ranked_into;
use crate::scratch::MapScratch;
use crate::seeding::query_reads_into;
use crate::{GenPairConfig, ReadPair};
use gx_align::banded_cells;
use gx_genome::{flags, Cigar, DnaSeq, GlobalPos, Locus, ReferenceGenome, SamRecord};
use gx_seedmap::SeedMap;

/// Reference bases the DP fallback's window extends either side of a
/// candidate start: the read fit-aligns inside `len + 2 * margin` bases.
/// At least the light aligner's `max_indel_run` (5 by default), so the window
/// holds every placement light alignment could have made at the candidate.
pub const DP_FALLBACK_MARGIN: usize = 8;

/// Band half-width of the DP fallback's banded aligner. With the margin the
/// corridor is `2 * DP_FALLBACK_MARGIN + 2 * DP_FALLBACK_BAND + 1` = 33
/// diagonals, `banded_cells(len, len + 2 * DP_FALLBACK_MARGIN,
/// DP_FALLBACK_BAND)` cells a mate (4,878 for 150 bases): what the software
/// computes and what the GenDP model prices.
pub const DP_FALLBACK_BAND: usize = 8;

/// Why [`GenPairMapper::with_seedmap`] refused an index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexMismatch {
    /// The index was built with another seed length than the config's.
    SeedLen {
        /// The index's seed length.
        index: usize,
        /// The config's seed length.
        config: usize,
    },
    /// A Location Table entry whose seed window ends past the genome.
    PastGenomeEnd {
        /// The entry.
        location: GlobalPos,
        /// Bases in the genome.
        genome_len: u64,
    },
}

impl std::fmt::Display for IndexMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexMismatch::SeedLen { index, config } => write!(
                f,
                "index seed length {index} differs from the config's {config}"
            ),
            IndexMismatch::PastGenomeEnd {
                location,
                genome_len,
            } => write!(
                f,
                "index location {location} lies past the end of a {genome_len}-base genome"
            ),
        }
    }
}

impl std::error::Error for IndexMismatch {}

/// Where a pair left the GenPair fast path (paper Fig. 10).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FallbackStage {
    /// No SeedMap entry matched for one of the reads (2.09% in the paper):
    /// the pair needs the full traditional pipeline (seeding + chaining +
    /// alignment).
    SeedMapMiss,
    /// The paired-adjacency filter left no candidate (8.79%): full
    /// traditional pipeline.
    PaFilter,
    /// Light alignment failed (13.06%): DP *alignment only*, at the already
    /// identified candidate locations (seeding and chaining are bypassed).
    LightAlign,
}

/// A mapped pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairMapping {
    /// Chromosome index.
    pub chrom: u32,
    /// Leftmost reference position of read 1's alignment.
    pub pos1: u64,
    /// Leftmost reference position of read 2's alignment.
    pub pos2: u64,
    /// Whether read 1 aligned forward (read 2 is then reverse).
    pub r1_forward: bool,
    /// CIGAR of read 1 (in its aligned orientation).
    pub cigar1: Cigar,
    /// CIGAR of read 2.
    pub cigar2: Cigar,
    /// Alignment score of read 1.
    pub score1: i32,
    /// Alignment score of read 2.
    pub score2: i32,
    /// Mapping quality (60 = confidently unique).
    pub mapq: u8,
}

impl PairMapping {
    /// Combined pair score.
    pub fn pair_score(&self) -> i32 {
        self.score1 + self.score2
    }

    /// The smaller of the two read scores (the paper's Fig. 2 statistic).
    pub fn min_score(&self) -> i32 {
        self.score1.min(self.score2)
    }
}

/// Per-pair work counters, aggregated by
/// [`PipelineStats`](crate::PipelineStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairWork {
    /// Location Table entries fetched (NMSL traffic).
    pub seed_locations: u64,
    /// Seed Table lookups issued.
    pub seed_lookups: u64,
    /// Paired-adjacency comparator iterations.
    pub pa_iterations: u64,
    /// 1 if either orientation's PA filter dropped a pair at
    /// `max_candidates`, else 0.
    pub pa_truncated: u64,
    /// Candidates surviving the PA filter.
    pub candidates: u64,
    /// Light alignments attempted (two per candidate; Table 3's
    /// "11.6 alignments per pair" statistic).
    pub light_attempts: u64,
    /// DP cells computed by the fallback aligner: the mates light
    /// alignment refused, each counted where its DP ran.
    pub dp_cells: u64,
}

/// Result of mapping one pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairMapResult {
    /// The mapping, when GenPair produced one: always for the light path,
    /// and for the [`FallbackStage::LightAlign`] DP path unless no candidate
    /// left each mate light alignment refused a DP window of at least half
    /// the read (every candidate hangs off a chromosome end). `None` for
    /// full-pipeline fallbacks, which the caller routes to the traditional
    /// mapper.
    pub mapping: Option<PairMapping>,
    /// `None` when the pair completed on the pure light path.
    pub fallback: Option<FallbackStage>,
    /// Work counters.
    pub work: PairWork,
}

impl PairMapResult {
    /// Whether GenPair produced a mapping for this pair.
    pub fn is_mapped(&self) -> bool {
        self.mapping.is_some()
    }
}

/// The GenPair mapper: SeedMap plus the online pipeline.
///
/// ```
/// use gx_genome::random::RandomGenomeBuilder;
/// use gx_core::{GenPairConfig, GenPairMapper};
///
/// let genome = RandomGenomeBuilder::new(60_000).seed(5).build();
/// let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
/// let r1 = genome.chromosome(0).seq().subseq(2_000..2_150);
/// let r2 = genome.chromosome(0).seq().subseq(2_250..2_400).revcomp();
/// let res = mapper.map_pair(&r1, &r2);
/// assert!(res.is_mapped());
/// assert_eq!(res.mapping.unwrap().pos1, 2_000);
/// ```
#[derive(Debug)]
pub struct GenPairMapper<'g> {
    genome: &'g ReferenceGenome,
    seedmap: SeedMap,
    config: GenPairConfig,
}

// The mapper is shared read-only across worker threads by `gx-pipeline`
// (`map_pair` takes `&self` and touches no interior mutability). Keep that
// contract explicit: losing `Send + Sync` here breaks the whole throughput
// engine at a distance.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GenPairMapper<'static>>();
    assert_send_sync::<crate::PipelineStats>();
    assert_send_sync::<PairMapResult>();
};

impl<'g> GenPairMapper<'g> {
    /// Builds the SeedMap (offline stage) and returns a mapper over it.
    pub fn build(genome: &'g ReferenceGenome, config: &GenPairConfig) -> GenPairMapper<'g> {
        let seedmap = SeedMap::build(genome, &config.seedmap);
        GenPairMapper {
            genome,
            seedmap,
            config: *config,
        }
    }

    /// Wraps an existing SeedMap (e.g. deserialized) in a mapper.
    ///
    /// # Errors
    ///
    /// Refuses an index that does not fit: its seed length differs from the
    /// config's, or a Location Table entry names a seed window past the
    /// genome's end (mapping would then panic locating that entry).
    pub fn with_seedmap(
        genome: &'g ReferenceGenome,
        seedmap: SeedMap,
        config: &GenPairConfig,
    ) -> Result<GenPairMapper<'g>, IndexMismatch> {
        let seed_len = seedmap.config().seed_len;
        if seed_len != config.seedmap.seed_len {
            return Err(IndexMismatch::SeedLen {
                index: seed_len,
                config: config.seedmap.seed_len,
            });
        }
        let genome_len = genome.total_len();
        if let Some(&location) = seedmap
            .locations()
            .iter()
            .find(|&&g| g as u64 + seed_len as u64 > genome_len)
        {
            return Err(IndexMismatch::PastGenomeEnd {
                location,
                genome_len,
            });
        }
        Ok(GenPairMapper {
            genome,
            seedmap,
            config: *config,
        })
    }

    /// The underlying SeedMap.
    pub fn seedmap(&self) -> &SeedMap {
        &self.seedmap
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &GenPairConfig {
        &self.config
    }

    /// The reference genome.
    pub fn genome(&self) -> &ReferenceGenome {
        self.genome
    }

    /// Maps one pair through the GenPair pipeline.
    ///
    /// Allocates a fresh [`MapScratch`] per call; the backends thread a
    /// worker-owned scratch through
    /// [`map_pairs_with`](GenPairMapper::map_pairs_with) instead.
    pub fn map_pair(&self, r1: &DnaSeq, r2: &DnaSeq) -> PairMapResult {
        self.map_pair_with(&mut MapScratch::new(), r1, r2)
    }

    /// Maps one pair through the GenPair pipeline, reusing the buffers in
    /// `scratch` (identical results to [`map_pair`](GenPairMapper::map_pair);
    /// no steady-state allocation once the scratch has warmed up). This is
    /// [`map_pairs_with`](GenPairMapper::map_pairs_with) on a batch of one.
    pub fn map_pair_with(
        &self,
        scratch: &mut MapScratch,
        r1: &DnaSeq,
        r2: &DnaSeq,
    ) -> PairMapResult {
        self.map_batch(scratch, [(r1, r2)], |_| {});
        scratch.results.pop().expect("one result for one pair")
    }

    /// Maps a batch of pairs, returning one result per pair in input order,
    /// each identical to what [`map_pair_with`](GenPairMapper::map_pair_with)
    /// returns for the pair alone — mapping, fallback and every
    /// [`PairWork`] counter.
    ///
    /// A batch is mapped in three steps. (1) Each pair runs seeding, the PA
    /// filter and light alignment, and a pair light alignment leaves
    /// unmapped *plans* its DP jobs: the refused mates, their windows, the
    /// too-short checks and the lazy light alignment of a mate 2 behind a
    /// refused mate 1 are all known before any DP runs, and the job's cells
    /// are counted there. `seeded` is called after each pair's step 1 with
    /// the scratch holding that pair's SeedMap lookups
    /// ([`MapScratch::pair_lookups`]). (2) The batch's jobs run in
    /// same-shape groups on the lane kernel, as many at a time as the host's
    /// [`LaneTier`](gx_align::LaneTier) has lanes. (3) Each DP pair picks
    /// its best candidate.
    pub fn map_pairs_with<'p>(
        &self,
        scratch: &mut MapScratch,
        pairs: impl IntoIterator<Item = (&'p DnaSeq, &'p DnaSeq)>,
        seeded: impl FnMut(&MapScratch),
    ) -> Vec<PairMapResult> {
        self.map_batch(scratch, pairs, seeded);
        scratch.results.drain(..).collect()
    }

    /// The three steps of [`map_pairs_with`](GenPairMapper::map_pairs_with),
    /// leaving the results in `scratch.results`.
    fn map_batch<'p>(
        &self,
        scratch: &mut MapScratch,
        pairs: impl IntoIterator<Item = (&'p DnaSeq, &'p DnaSeq)>,
        mut seeded: impl FnMut(&MapScratch),
    ) {
        scratch.results.clear();
        scratch.dp.clear();
        for (r1, r2) in pairs {
            let res = self.plan_pair(scratch, r1, r2);
            seeded(scratch);
            scratch.results.push(res);
        }
        if scratch.dp.pairs.is_empty() {
            return;
        }
        scratch.dp.run(&self.config.scoring, &mut scratch.align);
        scratch.dp.finish(&mut scratch.results, &mut scratch.align);
    }

    /// Step 1 for one pair: its result, final unless the pair reached the
    /// DP stage, whose jobs and candidates it then plans into `scratch.dp`
    /// under the index the result will have in `scratch.results`.
    fn plan_pair(&self, scratch: &mut MapScratch, r1: &DnaSeq, r2: &DnaSeq) -> PairMapResult {
        let MapScratch {
            r1_rc,
            r2_rc,
            codes,
            arena,
            cands,
            pa,
            dp_cands,
            window,
            light,
            dp,
            results,
            ..
        } = scratch;
        let mut work = PairWork::default();
        r1.revcomp_into(r1_rc);
        r2.revcomp_into(r2_rc);
        dp_cands.clear();

        // Seeding and SeedMap query of all four oriented reads in one
        // phased step, so the pair's lookups overlap their misses.
        let (r1_rc, r2_rc): (&DnaSeq, &DnaSeq) = (r1_rc, r2_rc);
        query_reads_into([r1, r2_rc, r1_rc, r2], &self.seedmap, codes, arena, cands);
        let [a1, a2, b1, b2] = &*cands;

        // Orientation A: read1 forward, read2 reverse-complemented.
        // Orientation B: the mirror (read2 forward).
        let orientations = [(r1, r2_rc, a1, a2, true), (r1_rc, r2, b1, b2, false)];

        let mut any_hits1 = false;
        let mut any_hits2 = false;
        let mut any_candidates = false;
        let mut best_light: Option<(PairMapping, i32, u32)> = None; // (mapping, score, ties)

        for (seq1, seq2, c1, c2, r1_forward) in orientations {
            work.seed_lookups += (c1.seeds_total + c2.seeds_total) as u64;
            work.seed_locations += c1.locations_fetched + c2.locations_fetched;
            any_hits1 |= c1.seeds_hit > 0;
            any_hits2 |= c2.seeds_hit > 0;

            paired_adjacency_filter_ranked_into(
                c1,
                c2,
                self.config.delta,
                self.config.max_candidates,
                pa,
            );
            work.pa_iterations += pa.iterations;
            work.pa_truncated |= u64::from(pa.truncated);
            work.candidates += pa.candidates.len() as u64;

            for cand in &pa.candidates {
                // Both ends must land on one chromosome.
                let l1 = self.genome.locate(cand.start1);
                let l2 = self.genome.locate(cand.start2);
                if l1.chrom != l2.chrom {
                    continue;
                }
                any_candidates = true;
                work.light_attempts += 2;
                // The hardware module aligns both mates (two attempts);
                // here mate 2 is only worth aligning once mate 1 has passed.
                // A candidate either mate fails goes to DP carrying mate 1's
                // alignment, if it passed; behind a failed mate 1, mate 2 is
                // first aligned there, once the candidate has been kept.
                let a1 = self.light_at(seq1, l1, window, light);
                let a2 = if a1.is_some() {
                    self.light_at(seq2, l2, window, light)
                } else {
                    None
                };
                let (a1, a2) = match (a1, a2) {
                    (Some(a1), Some(a2)) => (a1, a2),
                    (a1, _) => {
                        if dp_cands.len() < self.config.max_dp_candidates {
                            dp_cands.push((l1, l2, r1_forward, a1));
                        }
                        continue;
                    }
                };
                let score = a1.score + a2.score;
                let mapping = pair_mapping(
                    l1.chrom,
                    r1_forward,
                    light_placed(l1, a1),
                    light_placed(l2, a2),
                    60,
                );
                match &mut best_light {
                    Some((best, bs, ties)) => {
                        if score > *bs {
                            *best = mapping;
                            *bs = score;
                            *ties = 0;
                        } else if score == *bs
                            && (mapping.pos1 != best.pos1 || mapping.pos2 != best.pos2)
                        {
                            *ties += 1;
                        }
                    }
                    None => best_light = Some((mapping, score, 0)),
                }
            }
        }

        if let Some((mut mapping, _, ties)) = best_light {
            mapping.mapq = if ties == 0 { 60 } else { 3 };
            return PairMapResult {
                mapping: Some(mapping),
                fallback: None,
                work,
            };
        }

        if !any_hits1 || !any_hits2 {
            return PairMapResult {
                mapping: None,
                fallback: Some(FallbackStage::SeedMapMiss),
                work,
            };
        }
        if !any_candidates {
            return PairMapResult {
                mapping: None,
                fallback: Some(FallbackStage::PaFilter),
                work,
            };
        }

        // Light alignment failed: DP-align at the candidate locations
        // (bypassing seeding and chaining, paper Fig. 10), only the mates
        // light alignment refused. A mate that passed keeps its light
        // alignment. The DP runs later, with the batch's other jobs; a job
        // is counted here, where it would have run.
        let first = dp.candidates.len();
        for (l1, l2, r1_forward, light1) in dp_cands.drain(..) {
            let (seq1, seq2) = if r1_forward { (r1, r2_rc) } else { (r1_rc, r2) };
            // Mate 2 was refused when mate 1 passed; behind a refused mate 1
            // it has not been aligned yet.
            let light2_refused = light1.is_some();
            let mate1 = match light1 {
                Some(a1) => Mate::Placed(light_placed(l1, a1)),
                None => match self.dp_job(seq1, l1, window, dp, &mut work.dp_cells) {
                    Some(job) => Mate::Job(job),
                    None => continue,
                },
            };
            let light2 = if light2_refused {
                None
            } else {
                self.light_at(seq2, l2, window, light)
            };
            let mate2 = match light2 {
                Some(a2) => Mate::Placed(light_placed(l2, a2)),
                // Mate 1's job, if it has one, still counts (and runs).
                None => match self.dp_job(seq2, l2, window, dp, &mut work.dp_cells) {
                    Some(job) => Mate::Job(job),
                    None => continue,
                },
            };
            dp.candidates.push(Candidate {
                chrom: l1.chrom,
                r1_forward,
                mate1,
                mate2,
            });
        }
        dp.pairs.push((results.len(), dp.candidates.len() - first));
        PairMapResult {
            mapping: None,
            fallback: Some(FallbackStage::LightAlign),
            work,
        }
    }

    /// Light-aligns `seq` at candidate `locus`, borrowing the window buffer
    /// and the aligner's memo from the caller's scratch.
    fn light_at(
        &self,
        seq: &DnaSeq,
        locus: Locus,
        window: &mut DnaSeq,
        light: &mut LightScratch,
    ) -> Option<LightAlignment> {
        let e = self.config.light.max_indel_run as i64;
        let win_start = self.genome.clamped_window_into(
            locus.chrom,
            locus.pos as i64 - e,
            seq.len() + 2 * e as usize,
            window,
        );
        let anchor = (locus.pos - win_start) as usize;
        light_align_with(
            seq,
            window,
            anchor,
            &self.config.light,
            &self.config.scoring,
            light,
        )
    }

    /// Plans the DP job of `seq` near candidate `locus` (its window is
    /// fetched into the caller's `window` buffer) and adds the cells it
    /// will compute to `cells`. `None`, with no cells, when the chromosome
    /// leaves too short a window.
    fn dp_job(
        &self,
        seq: &DnaSeq,
        locus: Locus,
        window: &mut DnaSeq,
        dp: &mut DpBatch,
        cells: &mut u64,
    ) -> Option<usize> {
        let win_start = self.genome.clamped_window_into(
            locus.chrom,
            locus.pos as i64 - DP_FALLBACK_MARGIN as i64,
            seq.len() + 2 * DP_FALLBACK_MARGIN,
            window,
        );
        if window.len() < seq.len() / 2 {
            return None;
        }
        *cells += banded_cells(seq.len(), window.len(), DP_FALLBACK_BAND);
        Some(dp.push(seq, window, win_start))
    }
}

/// One mate's alignment: chromosome position, CIGAR and score.
pub(crate) type PlacedMate = (u64, Cigar, i32);

/// Places a light alignment found at candidate `locus`: it starts at
/// `locus + shift`. The CIGAR moves (no clone on the hot path).
fn light_placed(locus: Locus, a: LightAlignment) -> PlacedMate {
    (
        (locus.pos as i64 + a.shift as i64).max(0) as u64,
        a.cigar,
        a.score,
    )
}

/// Builds the pair mapping from its two placed mates.
pub(crate) fn pair_mapping(
    chrom: u32,
    r1_forward: bool,
    (pos1, cigar1, score1): PlacedMate,
    (pos2, cigar2, score2): PlacedMate,
    mapq: u8,
) -> PairMapping {
    PairMapping {
        chrom,
        pos1,
        pos2,
        r1_forward,
        cigar1,
        cigar2,
        score1,
        score2,
        mapq,
    }
}

/// The two mates' query names, `id/1` and `id/2`; the first reuses the
/// pair's own `String`.
fn mate_qnames(id: String) -> (String, String) {
    let mut q2 = String::with_capacity(id.len() + 2);
    q2.push_str(&id);
    q2.push_str("/2");
    let mut q1 = id;
    q1.push_str("/1");
    (q1, q2)
}

/// Converts a [`PairMapping`] into two SAM records, consuming the mapping
/// and the pair: the CIGARs and the forward-strand read move into their
/// records, and only the reverse-strand mate is re-complemented (SAM stores
/// read sequences in reference orientation). Callers that keep their reads
/// pass clones.
pub fn pair_mapping_to_sam(mapping: PairMapping, pair: ReadPair) -> (SamRecord, SamRecord) {
    let base = flags::PAIRED | flags::PROPER_PAIR;
    let (own, mate) = (flags::REVERSE, flags::MATE_REVERSE);
    let (f1, f2, seq1, seq2) = if mapping.r1_forward {
        (mate, own, pair.r1, pair.r2.revcomp())
    } else {
        (own, mate, pair.r1.revcomp(), pair.r2)
    };
    let (q1, q2) = mate_qnames(pair.id);
    (
        SamRecord {
            qname: q1,
            flags: base | flags::FIRST_IN_PAIR | f1,
            chrom: mapping.chrom,
            pos: mapping.pos1,
            mapq: mapping.mapq,
            cigar: mapping.cigar1,
            seq: seq1,
            score: mapping.score1,
        },
        SamRecord {
            qname: q2,
            flags: base | flags::SECOND_IN_PAIR | f2,
            chrom: mapping.chrom,
            pos: mapping.pos2,
            mapq: mapping.mapq,
            cigar: mapping.cigar2,
            seq: seq2,
            score: mapping.score2,
        },
    )
}

/// The two unmapped SAM records of a pair GenPair produced no mapping for,
/// consuming the pair (both reads move into their records as sequenced).
pub fn unmapped_pair_to_sam(pair: ReadPair) -> (SamRecord, SamRecord) {
    let base = flags::PAIRED | flags::MATE_UNMAPPED;
    let (q1, q2) = mate_qnames(pair.id);
    (
        SamRecord::unmapped(q1, base | flags::FIRST_IN_PAIR, pair.r1),
        SamRecord::unmapped(q2, base | flags::SECOND_IN_PAIR, pair.r2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LightConfig;
    use gx_align::{banded_align_with, AlignMode, AlignScratch};
    use gx_genome::random::RandomGenomeBuilder;

    fn setup() -> (ReferenceGenome, GenPairConfig) {
        (
            RandomGenomeBuilder::new(80_000).seed(9).build(),
            GenPairConfig::default(),
        )
    }

    #[test]
    fn perfect_pair_maps_exactly() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(10_000..10_150);
        let r2 = seq.subseq(10_250..10_400).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert!(res.fallback.is_none(), "fallback: {:?}", res.fallback);
        let m = res.mapping.unwrap();
        assert_eq!(m.pos1, 10_000);
        assert_eq!(m.pos2, 10_250);
        assert!(m.r1_forward);
        assert_eq!(m.pair_score(), 600);
    }

    #[test]
    fn mirrored_orientation_maps() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        // read2 is the forward read here.
        let r2 = seq.subseq(20_000..20_150);
        let r1 = seq.subseq(20_250..20_400).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        let m = res.mapping.unwrap();
        assert!(!m.r1_forward);
        assert_eq!(m.pos2, 20_000);
        assert_eq!(m.pos1, 20_250);
    }

    #[test]
    fn pair_with_few_mismatches_stays_on_light_path() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let mut r1 = seq.subseq(30_000..30_150);
        r1.set(75, r1.get(75).complement());
        let r2 = seq.subseq(30_280..30_430).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert!(res.fallback.is_none());
        let m = res.mapping.unwrap();
        assert_eq!(m.min_score(), 290);
    }

    #[test]
    fn random_read_takes_full_fallback() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        // Reads from a different random genome: no true 50-mer matches. Hash
        // collisions may still land seeds in occupied buckets (the paper's
        // design tolerates this), so the exit is either SeedMapMiss or
        // PaFilter — both full-pipeline fallbacks with no mapping.
        let other = RandomGenomeBuilder::new(10_000).seed(777).build();
        let r1 = other.chromosome(0).seq().subseq(100..250);
        let r2 = other.chromosome(0).seq().subseq(400..550).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert!(matches!(
            res.fallback,
            Some(FallbackStage::SeedMapMiss) | Some(FallbackStage::PaFilter)
        ));
        assert!(res.mapping.is_none());
    }

    #[test]
    fn seedmap_miss_when_buckets_empty() {
        // A genome small enough that most hash buckets stay empty: a foreign
        // read's seeds then miss outright.
        let genome = RandomGenomeBuilder::new(2_000).seed(9).build();
        let cfg = GenPairConfig::default();
        let mut smcfg = cfg;
        smcfg.seedmap.bucket_bits = Some(22); // 4M buckets for 2k seeds
        let mapper = GenPairMapper::build(&genome, &smcfg);
        let other = RandomGenomeBuilder::new(10_000).seed(778).build();
        let r1 = other.chromosome(0).seq().subseq(100..250);
        let r2 = other.chromosome(0).seq().subseq(400..550).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert_eq!(res.fallback, Some(FallbackStage::SeedMapMiss));
    }

    #[test]
    fn distant_ends_fall_back_at_pa_filter() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        // Two reads >40kb apart: both have seed hits, no adjacency.
        let r1 = seq.subseq(1_000..1_150);
        let r2 = seq.subseq(45_000..45_150).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert_eq!(res.fallback, Some(FallbackStage::PaFilter));
    }

    #[test]
    fn complex_read_takes_dp_fallback_with_mapping() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        // Read 1 carries both a mismatch and an indel (two edit types), but
        // its last seed is intact so candidates exist.
        let mut r1 = gx_genome::DnaSeq::new();
        r1.extend_from_seq(&seq.subseq(50_000..50_040));
        r1.extend_from_seq(&seq.subseq(50_043..50_153)); // 3bp deletion
        r1.set(10, r1.get(10).complement()); // plus a mismatch
        let r2 = seq.subseq(50_300..50_450).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert_eq!(res.fallback, Some(FallbackStage::LightAlign));
        let m = res.mapping.expect("DP fallback should map");
        assert_eq!(m.pos1, 50_000);
        assert!(res.work.dp_cells > 0);
    }

    #[test]
    fn mate_two_is_not_aligned_once_mate_one_failed() {
        // With no DP candidate kept, the reference window a pair leaves in
        // its scratch is the one its last light alignment ran in.
        let (genome, mut cfg) = setup();
        cfg.max_dp_candidates = 0;
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        // A deletion and a mismatch: fails light alignment, its last seed
        // still finds the candidate.
        let complex = |at: usize| {
            let mut r = seq.subseq(at..at + 40);
            r.extend_from_seq(&seq.subseq(at + 43..at + 153));
            r.set(10, r.get(10).complement());
            r
        };
        // Whether the pair's last light alignment was mate 2's, at 50 300.
        let reached_mate_two = |r1: &DnaSeq, r2: &DnaSeq| {
            let mut scratch = MapScratch::new();
            let res = mapper.map_pair_with(&mut scratch, r1, r2);
            // The hardware's two attempts are counted either way.
            assert_eq!((res.work.candidates, res.work.light_attempts), (1, 2));
            let around = |at: usize| seq.subseq(at - 20..at + 180).to_string();
            let last = scratch.window.to_string();
            assert!(around(50_000).contains(&last) != around(50_300).contains(&last));
            (around(50_300).contains(&last), res.fallback)
        };
        let failed = Some(FallbackStage::LightAlign);
        let (clean1, clean2) = (
            seq.subseq(50_000..50_150),
            seq.subseq(50_300..50_450).revcomp(),
        );
        // Of the six attempts one call is skipped: mate 2's, behind the
        // mate 1 that failed. A failing mate 2 is still reached.
        let skipped = (false, failed);
        assert_eq!(reached_mate_two(&complex(50_000), &clean2), skipped);
        let complex2 = complex(50_300).revcomp();
        assert_eq!(reached_mate_two(&clean1, &complex2), (true, failed));
        assert_eq!(reached_mate_two(&clean1, &clean2), (true, None));
    }

    /// A forward-strand read light alignment refuses: a 3-base deletion
    /// and a mismatch, its last seed intact so the candidate is found (at
    /// `at + 3`).
    fn refused_read(seq: &DnaSeq, at: usize) -> DnaSeq {
        let mut r = seq.subseq(at..at + 40);
        r.extend_from_seq(&seq.subseq(at + 43..at + 153));
        r.set(10, r.get(10).complement());
        r
    }

    /// A forward-strand read light alignment accepts as mismatches where
    /// banded DP finds a better alignment: a mismatch, then a 2-base
    /// deletion 4 bases before its end. Its first seed is intact, so its
    /// candidate is `at`.
    fn light_passing_read(seq: &DnaSeq, at: usize) -> DnaSeq {
        let mut r = seq.subseq(at..at + 146);
        r.extend_from_seq(&seq.subseq(at + 148..at + 152));
        r.set(75, r.get(75).complement());
        r
    }

    /// Where the DP fallback places `seq` at candidate `locus`: the banded
    /// alignment in its window, or `None` when the window is too short.
    fn dp_at(
        mapper: &GenPairMapper,
        seq: &DnaSeq,
        locus: Locus,
        window: &mut DnaSeq,
        align: &mut AlignScratch,
    ) -> Option<PlacedMate> {
        let win_start = mapper.genome().clamped_window_into(
            locus.chrom,
            locus.pos as i64 - DP_FALLBACK_MARGIN as i64,
            seq.len() + 2 * DP_FALLBACK_MARGIN,
            window,
        );
        if window.len() < seq.len() / 2 {
            return None;
        }
        let scoring = &mapper.config().scoring;
        let a = banded_align_with(
            seq,
            window,
            scoring,
            DP_FALLBACK_BAND,
            AlignMode::Fit,
            align,
        );
        Some((win_start + a.target_start as u64, a.cigar, a.score))
    }

    /// `read`'s light alignment at `at`, placed: what `light_align_with`
    /// returns over the window the mapper gives it, at `at + shift`. Also
    /// asserts that banded DP would place the read differently, so a test
    /// comparing with it can tell which of the two ran.
    fn light_alone(mapper: &GenPairMapper, read: &DnaSeq, at: usize) -> (u64, Cigar, i32) {
        let cfg = mapper.config();
        let e = cfg.light.max_indel_run as usize;
        let window = mapper
            .genome()
            .chromosome(0)
            .seq()
            .subseq(at - e..at + read.len() + e);
        let a = light_align_with(
            read,
            &window,
            e,
            &cfg.light,
            &cfg.scoring,
            &mut LightScratch::default(),
        )
        .expect("light alignment accepts the read");
        let locus = Locus {
            chrom: 0,
            pos: at as u64,
        };
        let dp = dp_at(
            mapper,
            read,
            locus,
            &mut DnaSeq::new(),
            &mut AlignScratch::default(),
        )
        .expect("DP window");
        assert!(dp.2 > a.score, "DP {} against light {}", dp.2, a.score);
        assert_ne!(dp.1, a.cigar);
        ((at as i64 + a.shift as i64) as u64, a.cigar, a.score)
    }

    /// The DP corridor holds every placement light alignment can make: a
    /// read light alignment accepts at a candidate — planted up to
    /// `max_indel_run` bases off it, with mismatches and at most one indel
    /// run, at chromosome ends as often as inside — scores at least as high
    /// under the fallback's banded DP at that candidate. It holds because
    /// the margin is at least `max_indel_run`: the DP window then contains
    /// the light window, and the band every diagonal light alignment visits.
    #[test]
    fn the_dp_corridor_holds_every_light_placement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        assert!(DP_FALLBACK_MARGIN >= LightConfig::default().max_indel_run as usize);
        let cases = if cfg!(debug_assertions) { 500 } else { 10_000 };
        let genome = RandomGenomeBuilder::new(12_000)
            .chromosomes(2)
            .seed(31)
            .build();
        let mut rng = StdRng::seed_from_u64(43);
        let (mut window, mut light, mut align) =
            (DnaSeq::new(), LightScratch::new(), AlignScratch::default());
        // Accepted reads: ungapped, with a deletion run, with an insertion run.
        let mut accepted = [0usize; 3];
        // The default run length, and the longest the margin covers.
        for max_indel_run in [
            LightConfig::default().max_indel_run,
            DP_FALLBACK_MARGIN as u32,
        ] {
            let mut cfg = GenPairConfig::default();
            cfg.light.max_indel_run = max_indel_run;
            let mapper = GenPairMapper::build(&genome, &cfg);
            let e = max_indel_run as i64;
            for _ in 0..cases {
                let chrom = rng.random_range(0..2u32);
                let seq = genome.chromosome(chrom).seq();
                let len = seq.len() as i64;
                let pos = match rng.random_range(0..3) {
                    0 => rng.random_range(0..=2 * e),
                    1 => len - 150 - rng.random_range(0..=2 * e),
                    _ => rng.random_range(0..=len - 150),
                };
                let (shift, kind, k) = (
                    rng.random_range(-e..=e),
                    rng.random_range(0..3usize),
                    rng.random_range(1..=e),
                );
                let span = match kind {
                    0 => 150,
                    1 => 150 + k,
                    _ => 150 - k,
                };
                let src = pos + shift;
                if src < 0 || src + span > len {
                    continue;
                }
                let (src, span, k) = (src as usize, span as usize, k as usize);
                let at = rng.random_range(1..span - k);
                let mut read = seq.subseq(src..src + at);
                match kind {
                    0 => read.extend_from_seq(&seq.subseq(src + at..src + span)),
                    1 => read.extend_from_seq(&seq.subseq(src + at + k..src + span)),
                    _ => {
                        let inserted: Vec<u8> = (0..k).map(|_| rng.random_range(0..4)).collect();
                        read.extend_from_seq(&DnaSeq::from_codes(&inserted));
                        read.extend_from_seq(&seq.subseq(src + at..src + span));
                    }
                }
                // Up to ten mismatches in an ungapped read, at most one
                // beside a run (light alignment takes a run with none).
                for _ in 0..rng.random_range(0..=if kind == 0 { 10 } else { 1 }) {
                    let p = rng.random_range(0..150);
                    read.set(p, read.get(p).complement());
                }
                let locus = Locus {
                    chrom,
                    pos: pos as u64,
                };
                let Some(l) = mapper.light_at(&read, locus, &mut window, &mut light) else {
                    continue;
                };
                accepted[kind] += 1;
                let dp = dp_at(&mapper, &read, locus, &mut window, &mut align)
                    .expect("a DP window wherever light alignment had one");
                assert!(
                    dp.2 >= l.score,
                    "{chrom}:{pos}, e {e}, shift {shift}, kind {kind}, run {k}: \
                     DP {} below light {} ({})",
                    dp.2,
                    l.score,
                    l.cigar
                );
            }
        }
        assert!(accepted.iter().all(|&n| n > cases / 10), "{accepted:?}");
    }

    /// The cells banded DP computes for one 150-base mate in its window.
    fn mate_cells() -> u64 {
        gx_align::banded_cells(150, 150 + 2 * DP_FALLBACK_MARGIN, DP_FALLBACK_BAND)
    }

    #[test]
    fn a_refused_mate_one_leaves_a_passing_mate_two_its_light_alignment() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let mate2 = light_passing_read(seq, 50_300);
        let res = mapper.map_pair(&refused_read(seq, 50_000), &mate2.revcomp());
        assert_eq!(res.fallback, Some(FallbackStage::LightAlign));
        let m = res.mapping.expect("DP fallback maps");
        assert_eq!((m.pos1, m.mapq, m.r1_forward), (50_000, 40, true));
        assert_eq!(
            (m.pos2, m.cigar2, m.score2),
            light_alone(&mapper, &mate2, 50_300)
        );
        assert_eq!(res.work.dp_cells, mate_cells());
        assert_eq!(res.work.light_attempts, 2);
    }

    #[test]
    fn a_passing_mate_one_keeps_its_light_alignment_beside_a_refused_mate_two() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let mate1 = light_passing_read(seq, 50_000);
        let res = mapper.map_pair(&mate1, &refused_read(seq, 50_300).revcomp());
        assert_eq!(res.fallback, Some(FallbackStage::LightAlign));
        let m = res.mapping.expect("DP fallback maps");
        assert_eq!(
            (m.pos1, m.cigar1, m.score1),
            light_alone(&mapper, &mate1, 50_000)
        );
        assert_eq!((m.pos2, m.mapq), (50_300, 40));
        assert_eq!(res.work.dp_cells, mate_cells());
        assert_eq!(res.work.light_attempts, 2);
    }

    #[test]
    fn two_refused_mates_both_go_to_dp() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let res = mapper.map_pair(
            &refused_read(seq, 50_000),
            &refused_read(seq, 50_300).revcomp(),
        );
        assert_eq!(res.fallback, Some(FallbackStage::LightAlign));
        let m = res.mapping.expect("DP fallback maps");
        assert_eq!((m.pos1, m.pos2, m.mapq), (50_000, 50_300, 40));
        assert_eq!(res.work.dp_cells, 2 * mate_cells());
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // A shared scratch driven across pairs of every pipeline outcome
        // (light path, DP fallback, full-pipeline fallbacks) must reproduce
        // fresh-scratch results exactly.
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let other = RandomGenomeBuilder::new(10_000).seed(777).build();

        let mut pairs: Vec<(DnaSeq, DnaSeq)> = Vec::new();
        for pos in [10_000usize, 20_000, 30_000, 60_000] {
            pairs.push((
                seq.subseq(pos..pos + 150),
                seq.subseq(pos + 250..pos + 400).revcomp(),
            ));
        }
        // Mismatches on the light path.
        let mut noisy = seq.subseq(30_000..30_150);
        noisy.set(75, noisy.get(75).complement());
        pairs.push((noisy, seq.subseq(30_280..30_430).revcomp()));
        // A pair that exits at the DP fallback.
        let mut indel = gx_genome::DnaSeq::new();
        indel.extend_from_seq(&seq.subseq(50_000..50_040));
        indel.extend_from_seq(&seq.subseq(50_043..50_153));
        indel.set(10, indel.get(10).complement());
        pairs.push((indel, seq.subseq(50_300..50_450).revcomp()));
        // Full-pipeline fallbacks (foreign reads).
        pairs.push((
            other.chromosome(0).seq().subseq(100..250),
            other.chromosome(0).seq().subseq(400..550).revcomp(),
        ));

        // A pair whose seeds sit in buckets of hundreds of locations, then a
        // unique one: the second reuses an arena the first left long.
        let (repeats, repeat_map, pos) = crate::seeding::tests::repeat_setup();
        let repeat_mapper =
            GenPairMapper::with_seedmap(&repeats, repeat_map, &cfg).expect("the index fits");
        let rseq = repeats.chromosome(0).seq();
        let repeat_pairs = [
            (
                rseq.subseq(pos..pos + 150),
                rseq.subseq(pos + 250..pos + 400).revcomp(),
            ),
            (
                rseq.subseq(1_000..1_150),
                rseq.subseq(1_300..1_450).revcomp(),
            ),
        ];
        let long = repeat_mapper.map_pair(&repeat_pairs[0].0, &repeat_pairs[0].1);
        assert!(long.work.seed_locations >= 200, "{:?}", long.work);

        let mut scratch = MapScratch::new();
        let runs = pairs
            .iter()
            .map(|p| (&mapper, p))
            .chain(repeat_pairs.iter().map(|p| (&repeat_mapper, p)));
        for (mapper, (r1, r2)) in runs {
            let fresh = mapper.map_pair(r1, r2);
            let reused = mapper.map_pair_with(&mut scratch, r1, r2);
            assert_eq!(fresh.fallback, reused.fallback);
            assert_eq!(fresh.mapping.is_some(), reused.mapping.is_some());
            if let (Some(a), Some(b)) = (&fresh.mapping, &reused.mapping) {
                assert_eq!((a.chrom, a.pos1, a.pos2), (b.chrom, b.pos1, b.pos2));
                assert_eq!(a.cigar1, b.cigar1);
                assert_eq!(a.cigar2, b.cigar2);
                assert_eq!((a.score1, a.score2, a.mapq), (b.score1, b.score2, b.mapq));
                assert_eq!(a.r1_forward, b.r1_forward);
            }
            assert_eq!(fresh.work.seed_lookups, reused.work.seed_lookups);
            assert_eq!(fresh.work.seed_locations, reused.work.seed_locations);
            assert_eq!(fresh.work.candidates, reused.work.candidates);
            assert_eq!(fresh.work.dp_cells, reused.work.dp_cells);
        }
    }

    /// A single-chromosome genome whose first part is a diverged repeat
    /// family: `copies` copies of one random 400-base unit, each carrying
    /// its own 2 % substitutions (as `RandomGenomeBuilder` diverges a
    /// family), one every 500 bases over a random backbone; 20 000 unique
    /// bases follow. Returns the genome and the copies' starts.
    fn diverged_family(copies: usize) -> (ReferenceGenome, Vec<usize>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let len = copies * 500 + 20_000;
        let backbone = RandomGenomeBuilder::new(len as u64).seed(41).build();
        let mut codes = Vec::new();
        backbone.chromosome(0).seq().codes_into(0..len, &mut codes);
        let master: Vec<u8> = (0..400).map(|_| rng.random_range(0..4)).collect();
        let starts: Vec<usize> = (0..copies).map(|k| 50 + k * 500).collect();
        for &at in &starts {
            for (i, &code) in master.iter().enumerate() {
                let substituted = rng.random_bool(0.02);
                codes[at + i] = (code + u8::from(substituted) * rng.random_range(1..4)) % 4;
            }
        }
        let chrom = gx_genome::Chromosome::new("chr1", DnaSeq::from_codes(&codes));
        (ReferenceGenome::from_chromosomes(vec![chrom]), starts)
    }

    #[test]
    fn the_true_copy_of_a_diverged_repeat_survives_the_cap() {
        use crate::pafilter::paired_adjacency_filter;
        use crate::seeding::query_read;
        let (genome, copies) = diverged_family(800);
        let cfg = GenPairConfig::default();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let at = copies[700];
        let r1 = seq.subseq(at..at + 150);
        let r2 = seq.subseq(at + 250..at + 400).revcomp();

        // Filled in genome order, even a 64-pair buffer holds only other
        // copies: the pair's own lies past it.
        let (c1, c2) = (
            query_read(&r1, mapper.seedmap()),
            query_read(&r2.revcomp(), mapper.seedmap()),
        );
        let by_address = paired_adjacency_filter(&c1.starts, &c2.starts, cfg.delta, 64);
        assert!(by_address.truncated);
        assert!(by_address.candidates.iter().all(|c| c.start1 != at as u32));

        // Ranked by seed support, the true copy comes first and maps alone.
        let res = mapper.map_pair(&r1, &r2);
        assert_eq!(res.fallback, None);
        let m = res.mapping.as_ref().expect("mapped");
        assert_eq!((m.pos1, m.pos2, m.mapq), (at as u64, at as u64 + 250, 60));
        assert_eq!(m.pair_score(), 600);

        // The truncation is counted once for the pair, and not at all for
        // a pair from the unique tail.
        let tail = copies.len() * 500 + 5_000;
        let unique = mapper.map_pair(
            &seq.subseq(tail..tail + 150),
            &seq.subseq(tail + 250..tail + 400).revcomp(),
        );
        assert_eq!(unique.mapping.as_ref().map(|m| m.pos1), Some(tail as u64));
        let mut stats = crate::PipelineStats::new();
        stats.record(&res);
        stats.record(&unique);
        assert_eq!((res.work.pa_truncated, unique.work.pa_truncated), (1, 0));
        assert_eq!(stats.pa_truncated, 1);
    }

    #[test]
    fn work_counters_populated() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(60_000..60_150);
        let r2 = seq.subseq(60_200..60_350).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert!(res.work.seed_lookups >= 12); // 6 seeds x 2 orientations
        assert!(res.work.light_attempts >= 2);
        assert!(res.work.pa_iterations > 0);
    }

    #[test]
    fn sam_conversion_sets_flags() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(15_000..15_150);
        let r2 = seq.subseq(15_200..15_350).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        let m = res.mapping.unwrap();
        let (s1, s2) = pair_mapping_to_sam(m, ReadPair::new("p0", r1, r2));
        assert!(s1.flags & flags::FIRST_IN_PAIR != 0);
        assert!(s2.flags & flags::SECOND_IN_PAIR != 0);
        assert!(s2.is_reverse());
        assert!(!s1.is_reverse());
        // Both sequences in reference orientation -> read2's stored seq is
        // the forward-strand window.
        assert_eq!(s2.seq, seq.subseq(15_200..15_350));
    }
}
