//! NMSL memory workload extraction.
//!
//! For each read pair, the Partitioned Seeding module emits six seed hashes
//! (three per read in the pair's query orientation). Each seed costs one
//! Seed Table read (8 B: the previous and current end offsets) and, when the
//! bucket is non-empty, one contiguous Location Table read of
//! `4 B x locations`. A workload is built from the [`SeedLookup`]s seeding
//! recorded — the mapper's own for a pair it just mapped
//! (`MapScratch::pair_lookups`), [`lookup_reads_into`]'s for bare reads —
//! or synthesized from the index's bucket-size distribution.

use gx_core::seeding::{lookup_reads_into, ReadCandidates, SeedLookup};
use gx_genome::DnaSeq;
use gx_seedmap::SeedMap;

/// One seed's memory work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeedFetch {
    /// Seed hash (selects the channel and the Seed Table address).
    pub hash: u32,
    /// Location Table slice start (entry index).
    pub loc_start: u64,
    /// Number of locations to stream.
    pub locations: u32,
}

impl SeedFetch {
    /// The memory work of looking `hash` up in `seedmap`: its bucket's
    /// slice of the Location Table.
    pub fn of_hash(seedmap: &SeedMap, hash: u32) -> SeedFetch {
        let (_, start, end) = seedmap.bucket_range(hash);
        SeedFetch {
            hash,
            loc_start: start,
            locations: (end - start) as u32,
        }
    }
}

/// Most seeds one pair issues: three partitioned seeds per read (§5.2).
pub(crate) const PAIR_SEEDS: usize = 6;

/// The memory work of one read pair: up to six seed fetches, held inline so
/// that a workload is a plain `Copy` value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairWorkload {
    seeds: [SeedFetch; PAIR_SEEDS],
    len: usize,
}

impl PairWorkload {
    /// The workload that issues `seeds`, in order.
    ///
    /// # Panics
    ///
    /// Panics past six seeds: the hardware issues at most three per read.
    pub fn new(seeds: impl IntoIterator<Item = SeedFetch>) -> PairWorkload {
        let mut w = PairWorkload::default();
        for s in seeds {
            *w.seeds
                .get_mut(w.len)
                .expect("a pair issues at most six seeds") = s;
            w.len += 1;
        }
        w
    }

    /// The workload of a pair whose query-orientation reads made `lookups`.
    pub fn of_lookups<'a>(lookups: impl IntoIterator<Item = &'a SeedLookup>) -> PairWorkload {
        PairWorkload::new(lookups.into_iter().map(|l| SeedFetch {
            hash: l.seed.hash,
            loc_start: l.start,
            locations: (l.end - l.start) as u32,
        }))
    }

    /// Seed fetches of both reads, in issue order.
    pub fn seeds(&self) -> &[SeedFetch] {
        &self.seeds[..self.len]
    }

    /// Total Location Table entries fetched.
    pub fn total_locations(&self) -> u64 {
        self.seeds().iter().map(|s| s.locations as u64).sum()
    }

    /// Total bytes moved (8 B per Seed Table read + 4 B per location).
    pub fn total_bytes(&self) -> u64 {
        self.seeds().len() as u64 * 8 + self.total_locations() * 4
    }
}

/// Builds the workload of one pair from its reads (r2 is queried in reverse
/// complement, the expected FR orientation): the hash-and-bounds phase of
/// the mapper's seeding, and nothing after it.
pub fn pair_workload(r1: &DnaSeq, r2: &DnaSeq, seedmap: &SeedMap) -> PairWorkload {
    let mut cands: [ReadCandidates; 2] = Default::default();
    lookup_reads_into([r1, &r2.revcomp()], seedmap, &mut Vec::new(), &mut cands);
    PairWorkload::of_lookups(cands.iter().flat_map(|c| c.lookups()))
}

/// Builds workloads for a whole read set.
pub fn build_workloads(pairs: &[(DnaSeq, DnaSeq)], seedmap: &SeedMap) -> Vec<PairWorkload> {
    pairs
        .iter()
        .map(|(r1, r2)| pair_workload(r1, r2, seedmap))
        .collect()
}

/// Synthesizes `n` pair workloads by sampling random in-genome seeds —
/// useful for long NMSL simulations without simulating reads. The sampled
/// distribution of locations-per-seed matches the index exactly, since the
/// seeds are the genome's own.
pub fn synthetic_workloads(
    seedmap: &SeedMap,
    genome: &gx_genome::ReferenceGenome,
    n: usize,
    seed: u64,
) -> Vec<PairWorkload> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let seed_len = seedmap.config().seed_len;
    let mut out = Vec::with_capacity(n);
    let mut codes = Vec::with_capacity(seed_len);
    for _ in 0..n {
        let seeds = (0..PAIR_SEEDS).filter_map(|_| {
            // Sample a random reference window as the seed.
            let chrom = genome.chromosome(rng.random_range(0..genome.num_chromosomes() as u32));
            if chrom.len() <= seed_len {
                return None;
            }
            let pos = rng.random_range(0..chrom.len() - seed_len);
            chrom.seq().codes_into(pos..pos + seed_len, &mut codes);
            Some(SeedFetch::of_hash(seedmap, seedmap.hash_seed_codes(&codes)))
        });
        out.push(PairWorkload::new(seeds));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;
    use gx_seedmap::SeedMapConfig;

    #[test]
    fn workload_has_six_seeds_for_150bp_pairs() {
        let genome = RandomGenomeBuilder::new(40_000).seed(1).build();
        let map = SeedMap::build(&genome, &SeedMapConfig::default());
        let seq = genome.chromosome(0).seq();
        let w = pair_workload(
            &seq.subseq(1000..1150),
            &seq.subseq(1300..1450).revcomp(),
            &map,
        );
        assert_eq!(w.seeds().len(), 6);
        // Every in-genome seed hits at least its own position.
        assert!(w.seeds().iter().all(|s| s.locations >= 1));
        assert!(w.total_bytes() >= 6 * 8 + 6 * 4);
    }

    #[test]
    fn synthetic_workloads_match_index_distribution() {
        let genome = RandomGenomeBuilder::new(60_000)
            .seed(2)
            .humanlike_repeats()
            .build();
        let map = SeedMap::build(&genome, &SeedMapConfig::default());
        let ws = synthetic_workloads(&map, &genome, 200, 3);
        assert_eq!(ws.len(), 200);
        let mean =
            ws.iter().map(|w| w.total_locations()).sum::<u64>() as f64 / (6.0 * ws.len() as f64);
        // In-genome seeds have at least one location each.
        assert!(mean >= 1.0, "mean locations/seed {mean}");
    }

    #[test]
    #[should_panic(expected = "at most six seeds")]
    fn a_seventh_seed_panics() {
        PairWorkload::new([SeedFetch::default(); 7]);
    }
}
