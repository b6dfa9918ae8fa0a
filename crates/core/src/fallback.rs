//! The DP fallback of a mapped batch (paper Fig. 10's light-alignment
//! arrow), run as one stage: the batch's refused mates are planned as jobs
//! while each pair is mapped, aligned together, and handed back to their
//! pairs' candidates.
//!
//! GenDP's alignment arrays take the fallback as a stream; the software
//! equivalent is [`banded_align_lanes`], which fills up to [`LANES`]
//! same-shape alignments at once for about the price of two row-kernel
//! calls. One pair rarely has enough jobs of one shape to fill a lane
//! group; a batch has plenty, so the jobs of every pair are collected
//! first and run in shape groups. Nothing here moves a result or a counter:
//! a job's alignment is the one [`banded_align_with`](gx_align::banded_align_with)
//! would return, and its cells are counted where the pair planned it.

use crate::mapper::{pair_mapping, PairMapResult, PairMapping, PlacedMate, DP_FALLBACK_BAND};
use gx_align::{
    banded_align_codes, banded_align_lanes, AlignScratch, Alignment, Scoring, LANES, LANE_CROSSOVER,
};
use gx_genome::DnaSeq;

/// One planned DP job: a refused mate and its reference window, both as
/// base codes in the batch's arena.
#[derive(Clone, Copy, Debug)]
struct Job {
    /// Arena offset of the mate's codes; the window's follow them.
    at: usize,
    /// Mate and window lengths: the job's shape.
    n: usize,
    m: usize,
    /// Chromosome position of the window's first base.
    win_start: u64,
}

impl Job {
    fn shape(&self) -> (usize, usize) {
        (self.n, self.m)
    }

    fn codes<'a>(&self, arena: &'a [u8]) -> (&'a [u8], &'a [u8]) {
        let (query, rest) = arena[self.at..].split_at(self.n);
        (query, &rest[..self.m])
    }
}

/// Where a DP candidate's mate comes from.
#[derive(Debug)]
pub(crate) enum Mate {
    /// Light alignment placed it.
    Placed(PlacedMate),
    /// A planned DP job aligns it.
    Job(usize),
}

/// A candidate of a pair that reached the DP stage, both mates accounted
/// for.
#[derive(Debug)]
pub(crate) struct Candidate {
    pub(crate) chrom: u32,
    pub(crate) r1_forward: bool,
    pub(crate) mate1: Mate,
    pub(crate) mate2: Mate,
}

/// The DP stage of one batch: every job its pairs planned, in one code
/// arena, and each pair's candidates in the order the pair found them.
/// Buffers keep their capacity from batch to batch.
#[derive(Default, Debug)]
pub(crate) struct DpBatch {
    arena: Vec<u8>,
    /// `codes_into`'s buffer, appended to the arena.
    codes: Vec<u8>,
    jobs: Vec<Job>,
    /// Job indices in shape order.
    order: Vec<usize>,
    /// Each job's alignment, by job index, once run; taken by its candidate.
    done: Vec<Option<Alignment>>,
    lane_out: Vec<Alignment>,
    /// Candidates of every DP pair, pair by pair.
    pub(crate) candidates: Vec<Candidate>,
    /// Each DP pair: its result's index in the batch and its number of
    /// candidates.
    pub(crate) pairs: Vec<(usize, usize)>,
}

impl DpBatch {
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.jobs.clear();
        self.candidates.clear();
        self.pairs.clear();
    }

    /// Plans a job aligning `mate` in `window`, which starts at chromosome
    /// position `win_start`; returns its index.
    pub(crate) fn push(&mut self, mate: &DnaSeq, window: &DnaSeq, win_start: u64) -> usize {
        let at = self.arena.len();
        for seq in [mate, window] {
            seq.codes_into(0..seq.len(), &mut self.codes);
            self.arena.extend_from_slice(&self.codes);
        }
        self.jobs.push(Job {
            at,
            n: mate.len(),
            m: window.len(),
            win_start,
        });
        self.jobs.len() - 1
    }

    /// Runs every planned job: jobs of one shape [`LANES`] at a time on the
    /// lane kernel, and a group of fewer than [`LANE_CROSSOVER`] one by one
    /// on the row kernel.
    pub(crate) fn run(&mut self, scoring: &Scoring, align: &mut AlignScratch) {
        let DpBatch {
            arena,
            jobs,
            order,
            done,
            lane_out,
            ..
        } = self;
        done.clear();
        done.resize_with(jobs.len(), || None);
        order.clear();
        order.extend(0..jobs.len());
        order.sort_unstable_by_key(|&k| (jobs[k].shape(), k));
        for shape in order.chunk_by(|&a, &b| jobs[a].shape() == jobs[b].shape()) {
            for group in shape.chunks(LANES) {
                if group.len() < LANE_CROSSOVER {
                    for &k in group {
                        let (query, window) = jobs[k].codes(arena);
                        let a = banded_align_codes(query, window, scoring, DP_FALLBACK_BAND, align);
                        done[k] = Some(a);
                    }
                    continue;
                }
                let mut lanes: [(&[u8], &[u8]); LANES] = [(&[], &[]); LANES];
                for (lane, &k) in lanes.iter_mut().zip(group) {
                    *lane = jobs[k].codes(arena);
                }
                lane_out.clear();
                let lanes = &lanes[..group.len()];
                banded_align_lanes(lanes, scoring, DP_FALLBACK_BAND, align, lane_out);
                for (&k, a) in group.iter().zip(lane_out.drain(..)) {
                    done[k] = Some(a);
                }
            }
        }
    }

    /// Step 3 of a batch: each DP pair takes its best candidate, in the
    /// order the pair found them, a later one only if it scores strictly
    /// higher; its result (at the index the pair planned) gets the mapping.
    /// The losers' CIGARs go back to `align`.
    pub(crate) fn finish(&mut self, results: &mut [PairMapResult], align: &mut AlignScratch) {
        let DpBatch {
            jobs,
            done,
            candidates,
            pairs,
            ..
        } = self;
        let mut candidates = candidates.drain(..);
        for &(at, count) in pairs.iter() {
            let mut best: Option<(PairMapping, i32)> = None;
            for c in candidates.by_ref().take(count) {
                let mate1 = placed(c.mate1, jobs, done);
                let mate2 = placed(c.mate2, jobs, done);
                let score = mate1.2 + mate2.2;
                if best.as_ref().is_none_or(|(_, bs)| score > *bs) {
                    let mapping = pair_mapping(c.chrom, c.r1_forward, mate1, mate2, 40);
                    if let Some((lost, _)) = best.replace((mapping, score)) {
                        align.recycle(lost.cigar1);
                        align.recycle(lost.cigar2);
                    }
                } else {
                    align.recycle(mate1.1);
                    align.recycle(mate2.1);
                }
            }
            results[at].mapping = best.map(|(m, _)| m);
        }
    }
}

/// The placed mate `mate` names, moving a job's alignment out of `done`
/// (each job belongs to one candidate).
fn placed(mate: Mate, jobs: &[Job], done: &mut [Option<Alignment>]) -> PlacedMate {
    match mate {
        Mate::Placed(placed) => placed,
        Mate::Job(k) => {
            let a = done[k]
                .take()
                .expect("every planned job has run, and a job belongs to one candidate");
            (jobs[k].win_start + a.target_start as u64, a.cigar, a.score)
        }
    }
}
