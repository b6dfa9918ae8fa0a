//! The minimap2-style paired-end mapper: seed → chain → align → pair, with
//! per-stage timing (paper Fig. 1) and DP cell accounting (GenDP sizing).

use crate::minimizer::extract_minimizers;
use crate::MinimizerIndex;
use gx_align::chain::{chain_anchors, Anchor, ChainParams};
use gx_align::{banded_align_with, AlignMode, AlignScratch, Scoring};
use gx_genome::{flags, Cigar, DnaSeq, ReferenceGenome, SamRecord};
use std::time::{Duration, Instant};

/// Mapper configuration (defaults follow minimap2's short-read preset).
#[derive(Clone, Copy, Debug)]
pub struct Mm2Config {
    /// Minimizer k-mer length (sr preset: 21).
    pub k: usize,
    /// Minimizer window (sr preset: 11).
    pub w: usize,
    /// Index occurrence cutoff (sr preset masks ~500+).
    pub max_occ: usize,
    /// Chaining parameters.
    pub chain: ChainParams,
    /// Extension alignment band.
    pub band: usize,
    /// Chains taken to alignment per strand.
    pub max_chains: usize,
    /// Maximum outer distance for a proper pair.
    pub pair_max_dist: u64,
    /// Whether to attempt mate rescue by windowed alignment.
    pub rescue: bool,
    /// Scoring scheme.
    pub scoring: Scoring,
    /// Minimum acceptable alignment score fraction (of perfect) for a read
    /// to count as mapped.
    pub min_score_frac: f64,
}

impl Default for Mm2Config {
    fn default() -> Mm2Config {
        Mm2Config {
            k: 21,
            w: 11,
            max_occ: 500,
            chain: ChainParams {
                kmer: 21,
                max_dist: 500,
                max_gap: 100,
                max_lookback: 50,
                min_score: 25,
                min_anchors: 1,
            },
            band: 32,
            max_chains: 2,
            pair_max_dist: 1_000,
            rescue: true,
            scoring: Scoring::short_read(),
            min_score_frac: 0.5,
        }
    }
}

/// Wall-clock time spent in each pipeline stage (regenerates Fig. 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Minimizer extraction + index lookups.
    pub seeding: Duration,
    /// Chaining DP.
    pub chaining: Duration,
    /// Extension/rescue alignment DP.
    pub alignment: Duration,
    /// Pair selection and bookkeeping.
    pub other: Duration,
}

impl StageTimings {
    /// Total across stages.
    pub fn total(&self) -> Duration {
        self.seeding + self.chaining + self.alignment + self.other
    }

    /// Percentages `[seeding, chaining, alignment, other]`.
    pub fn percentages(&self) -> [f64; 4] {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            return [0.0; 4];
        }
        [
            100.0 * self.seeding.as_secs_f64() / t,
            100.0 * self.chaining.as_secs_f64() / t,
            100.0 * self.alignment.as_secs_f64() / t,
            100.0 * self.other.as_secs_f64() / t,
        ]
    }

    /// Adds another timing block.
    pub fn merge(&mut self, other: &StageTimings) {
        self.seeding += other.seeding;
        self.chaining += other.chaining;
        self.alignment += other.alignment;
        self.other += other.other;
    }
}

/// DP work counters (the paper's MCUPS accounting for GenDP).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkCounters {
    /// Chaining predecessor evaluations.
    pub chain_cells: u64,
    /// Alignment DP cells.
    pub align_cells: u64,
    /// Anchors produced by seeding.
    pub anchors: u64,
}

impl WorkCounters {
    /// Adds another counter block.
    pub fn merge(&mut self, other: &WorkCounters) {
        self.chain_cells += other.chain_cells;
        self.align_cells += other.align_cells;
        self.anchors += other.anchors;
    }
}

/// One aligned read end.
#[derive(Clone, Debug)]
pub struct ReadAlignment {
    /// Chromosome index.
    pub chrom: u32,
    /// Leftmost reference position.
    pub pos: u64,
    /// Strand.
    pub forward: bool,
    /// Alignment score.
    pub score: i32,
    /// CIGAR in aligned orientation.
    pub cigar: Cigar,
    /// Score of the chain that seeded this alignment.
    pub chain_score: i32,
}

/// A mapped (or partially mapped) pair.
#[derive(Clone, Debug, Default)]
pub struct PairAlignment {
    /// Read 1's alignment, if any.
    pub r1: Option<ReadAlignment>,
    /// Read 2's alignment, if any.
    pub r2: Option<ReadAlignment>,
    /// Whether the two ends form a proper pair (opposite strands, same
    /// chromosome, within the insert bound).
    pub proper: bool,
    /// Mapping quality.
    pub mapq: u8,
}

impl PairAlignment {
    /// Sum of the mapped ends' scores.
    pub fn pair_score(&self) -> i32 {
        self.r1.as_ref().map_or(0, |a| a.score) + self.r2.as_ref().map_or(0, |a| a.score)
    }

    /// Minimum score across mapped ends (`None` if either end unmapped).
    pub fn min_score(&self) -> Option<i32> {
        match (&self.r1, &self.r2) {
            (Some(a), Some(b)) => Some(a.score.min(b.score)),
            _ => None,
        }
    }
}

/// The minimap2-style mapper.
///
/// ```
/// use gx_genome::random::RandomGenomeBuilder;
/// use gx_baseline::{Mm2Config, Mm2Mapper, StageTimings, WorkCounters};
///
/// let genome = RandomGenomeBuilder::new(60_000).seed(2).build();
/// let mapper = Mm2Mapper::build(&genome, &Mm2Config::default());
/// let seq = genome.chromosome(0).seq();
/// let (r1, r2) = (seq.subseq(5_000..5_150), seq.subseq(5_250..5_400).revcomp());
/// let mut t = StageTimings::default();
/// let mut w = WorkCounters::default();
/// let pair = mapper.map_pair(&r1, &r2, &mut t, &mut w);
/// assert!(pair.proper);
/// assert_eq!(pair.r1.unwrap().pos, 5_000);
/// ```
#[derive(Debug)]
pub struct Mm2Mapper<'g> {
    genome: &'g ReferenceGenome,
    index: MinimizerIndex,
    config: Mm2Config,
}

impl<'g> Mm2Mapper<'g> {
    /// Builds the minimizer index and returns a mapper.
    pub fn build(genome: &'g ReferenceGenome, config: &Mm2Config) -> Mm2Mapper<'g> {
        let index = MinimizerIndex::build(genome, config.k, config.w, config.max_occ);
        Mm2Mapper {
            genome,
            index,
            config: *config,
        }
    }

    /// The mapper configuration.
    pub fn config(&self) -> &Mm2Config {
        &self.config
    }

    /// The reference genome.
    pub fn genome(&self) -> &ReferenceGenome {
        self.genome
    }

    /// Maps a single read end with the caller's DP workspace; returns
    /// candidate alignments sorted by descending score.
    fn map_read_with(
        &self,
        read: &DnaSeq,
        timings: &mut StageTimings,
        work: &mut WorkCounters,
        scratch: &mut AlignScratch,
    ) -> Vec<ReadAlignment> {
        // --- Seeding ---------------------------------------------------
        let t0 = Instant::now();
        let minimizers = extract_minimizers(read, self.config.k, self.config.w);
        let mut fwd_anchors: Vec<Anchor> = Vec::new();
        let mut rev_anchors: Vec<Anchor> = Vec::new();
        let read_len = read.len() as u32;
        for m in &minimizers {
            for (gpos, ref_forward) in self.index.lookup(m.hash) {
                if m.forward == ref_forward {
                    fwd_anchors.push(Anchor {
                        read_pos: m.pos,
                        ref_pos: gpos as u64,
                    });
                } else {
                    rev_anchors.push(Anchor {
                        read_pos: read_len - m.pos - self.config.k as u32,
                        ref_pos: gpos as u64,
                    });
                }
            }
        }
        work.anchors += (fwd_anchors.len() + rev_anchors.len()) as u64;
        timings.seeding += t0.elapsed();

        // --- Chaining --------------------------------------------------
        let t1 = Instant::now();
        let fwd_chains = chain_anchors(&mut fwd_anchors, &self.config.chain);
        let rev_chains = chain_anchors(&mut rev_anchors, &self.config.chain);
        work.chain_cells += fwd_chains.cells + rev_chains.cells;
        let mut chains: Vec<(bool, gx_align::chain::Chain)> = fwd_chains
            .chains
            .into_iter()
            .take(self.config.max_chains)
            .map(|c| (true, c))
            .chain(
                rev_chains
                    .chains
                    .into_iter()
                    .take(self.config.max_chains)
                    .map(|c| (false, c)),
            )
            .collect();
        chains.sort_by_key(|(_, c)| std::cmp::Reverse(c.score));
        timings.chaining += t1.elapsed();

        // --- Alignment (extension) --------------------------------------
        let t2 = Instant::now();
        let rc;
        let mut out = Vec::new();
        let oriented_rev = if chains.iter().any(|(f, _)| !f) {
            rc = read.revcomp();
            Some(&rc)
        } else {
            None
        };
        for (forward, chain) in chains.iter().take(self.config.max_chains * 2) {
            let seq: &DnaSeq = if *forward {
                read
            } else {
                oriented_rev.expect("rc computed when reverse chains exist")
            };
            let start_locus = self.genome.locate(chain.ref_start as u32);
            let end_locus = self
                .genome
                .locate((chain.ref_end - 1).min(self.genome.total_len() - 1) as u32);
            if start_locus.chrom != end_locus.chrom {
                continue;
            }
            let pad = self.config.band as i64 + 8;
            let left_flank = chain.read_start as i64;
            let win_start = start_locus.pos as i64 - left_flank - pad;
            let win_len = seq.len() + 2 * pad as usize;
            let (ws, window) = self
                .genome
                .clamped_window(start_locus.chrom, win_start, win_len);
            if window.len() < seq.len() {
                continue;
            }
            let a = banded_align_with(
                seq,
                &window,
                &self.config.scoring,
                self.config.band,
                AlignMode::Fit,
                scratch,
            );
            work.align_cells += a.cells;
            out.push(ReadAlignment {
                chrom: start_locus.chrom,
                pos: ws + a.target_start as u64,
                forward: *forward,
                score: a.score,
                cigar: a.cigar,
                chain_score: chain.score,
            });
        }
        timings.alignment += t2.elapsed();

        let t3 = Instant::now();
        let min_score =
            (self.config.scoring.perfect(read.len()) as f64 * self.config.min_score_frac) as i32;
        out.retain(|a| a.score >= min_score);
        out.sort_by_key(|a| std::cmp::Reverse(a.score));
        out.dedup_by_key(|a| (a.chrom, a.pos, a.forward));
        timings.other += t3.elapsed();
        out
    }

    /// Maps a pair: both ends independently, proper-pair selection, then
    /// mate rescue if one end is missing.
    pub fn map_pair(
        &self,
        r1: &DnaSeq,
        r2: &DnaSeq,
        timings: &mut StageTimings,
        work: &mut WorkCounters,
    ) -> PairAlignment {
        let scratch = &mut AlignScratch::new();
        let a1 = self.map_read_with(r1, timings, work, scratch);
        let a2 = self.map_read_with(r2, timings, work, scratch);

        let t0 = Instant::now();
        // Proper-pair selection: opposite strands, same chromosome, within
        // the insert bound.
        let mut best: Option<(usize, usize, i32)> = None;
        for (i, x) in a1.iter().enumerate() {
            for (j, y) in a2.iter().enumerate() {
                if x.chrom != y.chrom || x.forward == y.forward {
                    continue;
                }
                if x.pos.abs_diff(y.pos) > self.config.pair_max_dist {
                    continue;
                }
                let s = x.score + y.score;
                if best.is_none_or(|(_, _, bs)| s > bs) {
                    best = Some((i, j, s));
                }
            }
        }
        timings.other += t0.elapsed();

        if let Some((i, j, _)) = best {
            let mapq = if a1.len() == 1 && a2.len() == 1 {
                60
            } else {
                30
            };
            return PairAlignment {
                r1: Some(a1[i].clone()),
                r2: Some(a2[j].clone()),
                proper: true,
                mapq,
            };
        }

        // Mate rescue: align the missing end near its mate.
        if self.config.rescue {
            if let Some(anchor) = a1.first().cloned() {
                if let Some(rescued) = self.rescue_mate(&anchor, r2, timings, work, scratch) {
                    return PairAlignment {
                        r1: Some(anchor),
                        r2: Some(rescued),
                        proper: true,
                        mapq: 30,
                    };
                }
            }
            if let Some(anchor) = a2.first().cloned() {
                if let Some(rescued) = self.rescue_mate(&anchor, r1, timings, work, scratch) {
                    return PairAlignment {
                        r1: Some(rescued),
                        r2: Some(anchor),
                        proper: true,
                        mapq: 30,
                    };
                }
            }
        }

        PairAlignment {
            r1: a1.into_iter().next(),
            r2: a2.into_iter().next(),
            proper: false,
            mapq: 10,
        }
    }

    /// Searches for `mate` on the strand opposite `anchor` within the insert
    /// window (minimap2's mate rescue — pure alignment work).
    fn rescue_mate(
        &self,
        anchor: &ReadAlignment,
        mate: &DnaSeq,
        timings: &mut StageTimings,
        work: &mut WorkCounters,
        scratch: &mut AlignScratch,
    ) -> Option<ReadAlignment> {
        let t = Instant::now();
        let oriented = if anchor.forward {
            mate.revcomp()
        } else {
            mate.clone()
        };
        let dist = self.config.pair_max_dist as i64;
        let (ws, window) = self.genome.clamped_window(
            anchor.chrom,
            anchor.pos as i64 - dist,
            (2 * dist) as usize + mate.len(),
        );
        if window.len() < mate.len() {
            timings.alignment += t.elapsed();
            return None;
        }
        let a = banded_align_with(
            &oriented,
            &window,
            &self.config.scoring,
            self.config
                .band
                .max(window.len().saturating_sub(oriented.len()) / 2 + 1),
            AlignMode::Fit,
            scratch,
        );
        work.align_cells += a.cells;
        timings.alignment += t.elapsed();
        let min_score =
            (self.config.scoring.perfect(mate.len()) as f64 * self.config.min_score_frac) as i32;
        if a.score < min_score {
            return None;
        }
        Some(ReadAlignment {
            chrom: anchor.chrom,
            pos: ws + a.target_start as u64,
            forward: !anchor.forward,
            score: a.score,
            cigar: a.cigar,
            chain_score: 0,
        })
    }

    /// Converts a pair alignment into SAM records (unmapped records are
    /// emitted for missing ends).
    pub fn pair_to_sam(
        &self,
        pair: &PairAlignment,
        qname: &str,
        r1: &DnaSeq,
        r2: &DnaSeq,
    ) -> (SamRecord, SamRecord) {
        let base = flags::PAIRED | if pair.proper { flags::PROPER_PAIR } else { 0 };
        let rec = |a: &Option<ReadAlignment>, read: &DnaSeq, first: bool| -> SamRecord {
            let fl = base
                | if first {
                    flags::FIRST_IN_PAIR
                } else {
                    flags::SECOND_IN_PAIR
                };
            match a {
                Some(a) => SamRecord {
                    qname: format!("{qname}/{}", if first { 1 } else { 2 }),
                    flags: fl | if a.forward { 0 } else { flags::REVERSE },
                    chrom: a.chrom,
                    pos: a.pos,
                    mapq: pair.mapq,
                    cigar: a.cigar.clone(),
                    seq: if a.forward {
                        read.clone()
                    } else {
                        read.revcomp()
                    },
                    score: a.score,
                },
                None => SamRecord::unmapped(
                    format!("{qname}/{}", if first { 1 } else { 2 }),
                    fl,
                    read.clone(),
                ),
            }
        };
        (rec(&pair.r1, r1, true), rec(&pair.r2, r2, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;

    fn setup() -> ReferenceGenome {
        RandomGenomeBuilder::new(120_000).seed(77).build()
    }

    #[test]
    fn maps_perfect_pair() {
        let genome = setup();
        let mapper = Mm2Mapper::build(&genome, &Mm2Config::default());
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(40_000..40_150);
        let r2 = seq.subseq(40_250..40_400).revcomp();
        let mut t = StageTimings::default();
        let mut w = WorkCounters::default();
        let pair = mapper.map_pair(&r1, &r2, &mut t, &mut w);
        assert!(pair.proper);
        assert_eq!(pair.r1.as_ref().unwrap().pos, 40_000);
        assert_eq!(pair.r2.as_ref().unwrap().pos, 40_250);
        assert!(pair.r1.as_ref().unwrap().forward);
        assert!(!pair.r2.as_ref().unwrap().forward);
        assert_eq!(pair.pair_score(), 600);
        assert!(w.anchors > 0 && w.chain_cells > 0 && w.align_cells > 0);
        assert!(t.total() > Duration::ZERO);
    }

    #[test]
    fn maps_pair_with_errors() {
        let genome = setup();
        let mapper = Mm2Mapper::build(&genome, &Mm2Config::default());
        let seq = genome.chromosome(0).seq();
        let mut r1 = seq.subseq(60_000..60_150);
        r1.set(40, r1.get(40).complement());
        r1.set(90, r1.get(90).complement());
        let mut r2 = seq.subseq(60_280..60_430).revcomp();
        r2.set(100, r2.get(100).complement());
        let mut t = StageTimings::default();
        let mut w = WorkCounters::default();
        let pair = mapper.map_pair(&r1, &r2, &mut t, &mut w);
        assert!(pair.proper);
        assert_eq!(pair.r1.as_ref().unwrap().pos, 60_000);
        assert_eq!(pair.min_score(), Some(280));
    }

    #[test]
    fn reverse_first_orientation() {
        let genome = setup();
        let mapper = Mm2Mapper::build(&genome, &Mm2Config::default());
        let seq = genome.chromosome(0).seq();
        let r2 = seq.subseq(80_000..80_150);
        let r1 = seq.subseq(80_230..80_380).revcomp();
        let mut t = StageTimings::default();
        let mut w = WorkCounters::default();
        let pair = mapper.map_pair(&r1, &r2, &mut t, &mut w);
        assert!(pair.proper);
        assert!(!pair.r1.as_ref().unwrap().forward);
        assert_eq!(pair.r2.as_ref().unwrap().pos, 80_000);
    }

    #[test]
    fn rescue_recovers_damaged_mate() {
        let genome = setup();
        let mapper = Mm2Mapper::build(&genome, &Mm2Config::default());
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(100_000..100_150);
        // Heavily corrupt r2's minimizers (every 13th base) so seeding
        // fails but windowed alignment still recognizes it.
        let mut r2 = seq.subseq(100_300..100_450).revcomp();
        for p in (0..150).step_by(13) {
            r2.set(p, r2.get(p).complement());
        }
        let mut t = StageTimings::default();
        let mut w = WorkCounters::default();
        let pair = mapper.map_pair(&r1, &r2, &mut t, &mut w);
        assert!(pair.proper, "rescue should pair the damaged mate");
        assert_eq!(pair.r2.as_ref().unwrap().pos, 100_300);
    }

    #[test]
    fn foreign_reads_unmapped() {
        let genome = setup();
        let other = RandomGenomeBuilder::new(20_000).seed(999).build();
        let mapper = Mm2Mapper::build(&genome, &Mm2Config::default());
        let r1 = other.chromosome(0).seq().subseq(1_000..1_150);
        let r2 = other.chromosome(0).seq().subseq(1_300..1_450).revcomp();
        let mut t = StageTimings::default();
        let mut w = WorkCounters::default();
        let pair = mapper.map_pair(&r1, &r2, &mut t, &mut w);
        assert!(!pair.proper);
        assert!(pair.r1.is_none() && pair.r2.is_none());
    }

    #[test]
    fn sam_output_orientation() {
        let genome = setup();
        let mapper = Mm2Mapper::build(&genome, &Mm2Config::default());
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(20_000..20_150);
        let r2 = seq.subseq(20_250..20_400).revcomp();
        let mut t = StageTimings::default();
        let mut w = WorkCounters::default();
        let pair = mapper.map_pair(&r1, &r2, &mut t, &mut w);
        let (s1, s2) = mapper.pair_to_sam(&pair, "q", &r1, &r2);
        assert!(s1.is_mapped() && s2.is_mapped());
        assert_eq!(s2.seq, seq.subseq(20_250..20_400));
    }

    #[test]
    fn timings_percentages_sum_to_100() {
        let genome = setup();
        let mapper = Mm2Mapper::build(&genome, &Mm2Config::default());
        let seq = genome.chromosome(0).seq();
        let mut t = StageTimings::default();
        let mut w = WorkCounters::default();
        for i in 0..10 {
            let p = 5_000 + i * 700;
            let r1 = seq.subseq(p..p + 150);
            let r2 = seq.subseq(p + 250..p + 400).revcomp();
            mapper.map_pair(&r1, &r2, &mut t, &mut w);
        }
        let pct = t.percentages();
        assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }
}
