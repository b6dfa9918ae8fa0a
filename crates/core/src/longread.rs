//! Long-read support (paper §4.7): the long-read mapping problem reformulated
//! as paired-end mapping.
//!
//! A long read is partitioned into consecutive 150 bp chunks; consecutive
//! chunk pairs form pseudo read-pairs whose intra-pair distance (one chunk
//! length) is below Δ. Each pseudo-pair runs through Partitioned Seeding,
//! SeedMap Query and Paired-Adjacency Filtering; candidates vote for the
//! read's origin via Location Voting; and — because long reads are too noisy
//! for light alignment — the winning region is aligned with full banded DP.

use crate::mapper::GenPairMapper;
use crate::pafilter::{paired_adjacency_filter_ranked_into, PaFilterResult};
use crate::seeding::query_read;
use crate::voting::location_vote;
use gx_align::{banded_align_with, AlignMode, AlignScratch, Scoring};
use gx_genome::{Cigar, DnaSeq, GlobalPos};

/// A mapped long read.
#[derive(Clone, Debug)]
pub struct LongReadMapping {
    /// Chromosome index.
    pub chrom: u32,
    /// Leftmost reference position.
    pub pos: u64,
    /// Whether the read aligned forward.
    pub forward: bool,
    /// DP alignment score.
    pub score: i32,
    /// CIGAR of the full-read alignment.
    pub cigar: Cigar,
    /// Votes received by the winning region.
    pub votes: u32,
    /// DP cells computed (all long-read alignment is DP).
    pub dp_cells: u64,
}

/// Work statistics of one long-read mapping attempt.
#[derive(Clone, Copy, Debug, Default)]
pub struct LongReadWork {
    /// Pseudo-pairs formed.
    pub pseudo_pairs: u64,
    /// Location Table entries fetched.
    pub seed_locations: u64,
    /// PA comparator iterations.
    pub pa_iterations: u64,
    /// DP cells computed.
    pub dp_cells: u64,
}

impl<'g> GenPairMapper<'g> {
    /// Maps a long read via pseudo-pairs + location voting + banded DP.
    ///
    /// Returns `None` when no region receives at least two votes (the read
    /// would go to a traditional long-read pipeline).
    pub fn map_long_read(&self, read: &DnaSeq) -> (Option<LongReadMapping>, LongReadWork) {
        let chunk = 150usize;
        let mut work = LongReadWork::default();
        if read.len() < 2 * chunk {
            return (None, work);
        }
        let rc = read.revcomp();
        let scoring = Scoring::long_read();
        let scratch = &mut AlignScratch::new();
        let mut pa = PaFilterResult::default();

        let mut best: Option<LongReadMapping> = None;
        for (seq, forward) in [(read, true), (&rc, false)] {
            let mut votes: Vec<GlobalPos> = Vec::new();
            let n_chunks = seq.len() / chunk;
            for p in 0..n_chunks / 2 {
                let off1 = 2 * p * chunk;
                let off2 = off1 + chunk;
                let c1 = seq.subseq(off1..off1 + chunk);
                let c2 = seq.subseq(off2..off2 + chunk);
                work.pseudo_pairs += 1;
                let q1 = query_read(&c1, self.seedmap());
                let q2 = query_read(&c2, self.seedmap());
                work.seed_locations += q1.locations_fetched + q2.locations_fetched;
                paired_adjacency_filter_ranked_into(
                    &q1,
                    &q2,
                    self.config().delta,
                    self.config().max_candidates,
                    &mut pa,
                );
                work.pa_iterations += pa.iterations;
                for cand in &pa.candidates {
                    // Normalize to the long read's start.
                    if cand.start1 as u64 >= off1 as u64 {
                        votes.push(cand.start1 - off1 as u32);
                    }
                }
            }
            let Some(vote) = location_vote(&votes, self.config().delta) else {
                continue;
            };
            if vote.votes < 2 {
                continue;
            }
            let locus = self.genome().locate(vote.position);
            let margin = 64 + read.len() as i64 / 50; // room for indel drift
            let (win_start, window) = self.genome().clamped_window(
                locus.chrom,
                locus.pos as i64 - margin,
                seq.len() + 2 * margin as usize,
            );
            if window.len() < seq.len() {
                continue;
            }
            let band = 32 + seq.len() / 100;
            let a = banded_align_with(seq, &window, &scoring, band, AlignMode::Fit, scratch);
            work.dp_cells += a.cells;
            let mapping = LongReadMapping {
                chrom: locus.chrom,
                pos: win_start + a.target_start as u64,
                forward,
                score: a.score,
                cigar: a.cigar,
                votes: vote.votes,
                dp_cells: a.cells,
            };
            if best.as_ref().is_none_or(|b| mapping.score > b.score) {
                best = Some(mapping);
            }
        }
        (best, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenPairConfig;
    use gx_genome::random::RandomGenomeBuilder;

    #[test]
    fn perfect_long_read_maps_to_origin() {
        let genome = RandomGenomeBuilder::new(200_000).seed(31).build();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let read = genome.chromosome(0).seq().subseq(50_000..53_000);
        let (mapping, work) = mapper.map_long_read(&read);
        let m = mapping.expect("should map");
        assert_eq!(m.pos, 50_000);
        assert!(m.forward);
        assert!(m.votes >= 2);
        assert!(work.pseudo_pairs >= 5);
        assert!(work.dp_cells > 0);
    }

    #[test]
    fn reverse_strand_long_read_maps() {
        let genome = RandomGenomeBuilder::new(200_000).seed(32).build();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let read = genome.chromosome(0).seq().subseq(80_000..82_400).revcomp();
        let (mapping, _) = mapper.map_long_read(&read);
        let m = mapping.expect("should map");
        assert!(!m.forward);
        assert_eq!(m.pos, 80_000);
    }

    #[test]
    fn foreign_long_read_unmapped() {
        let genome = RandomGenomeBuilder::new(100_000).seed(33).build();
        let other = RandomGenomeBuilder::new(100_000).seed(999).build();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let read = other.chromosome(0).seq().subseq(10_000..13_000);
        let (mapping, _) = mapper.map_long_read(&read);
        assert!(mapping.is_none());
    }

    #[test]
    fn too_short_read_rejected() {
        let genome = RandomGenomeBuilder::new(50_000).seed(34).build();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let read = genome.chromosome(0).seq().subseq(0..200);
        let (mapping, work) = mapper.map_long_read(&read);
        assert!(mapping.is_none());
        assert_eq!(work.pseudo_pairs, 0);
    }
}
