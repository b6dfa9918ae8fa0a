//! Partitioned Seeding (paper §4.3) and SeedMap Query (§4.4).
//!
//! Three non-overlapping 50 bp seeds are extracted per read — first, middle
//! and last — and hashed with xxh32. Querying SeedMap yields one sorted
//! location slice per seed; normalizing each location by the seed's offset
//! within the read and merging produces sorted candidate *read start*
//! positions, the input to paired-adjacency filtering.

use gx_genome::{DnaSeq, GlobalPos};
use gx_seedmap::{merge_sorted_with_offsets_into, SeedMap};

/// One extracted seed: offset within the read plus its hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seed {
    /// Offset of the seed's first base within the read.
    pub offset: u32,
    /// The index's hash of the seed's 2-bit codes
    /// ([`SeedMap::hash_seed_codes`]).
    pub hash: u32,
}

/// Extracts the partitioned seeds of `read`: first, middle and last
/// `seed_len` bases (non-overlapping for reads of at least `3 * seed_len`).
/// Reads shorter than `seed_len` yield no seeds.
pub fn partitioned_seeds(read: &DnaSeq, seedmap: &SeedMap) -> Vec<Seed> {
    let (seeds, n) = partitioned_seeds_with(read, seedmap, &mut Vec::new());
    seeds[..n].to_vec()
}

/// [`partitioned_seeds`] through a caller-owned buffer: `codes` receives the
/// whole read's 2-bit codes (seeds are hashed as subslices of it — same
/// values as per-seed extraction) and the seeds come back in a fixed array
/// with their count, so a caller that keeps `codes` allocates nothing.
pub fn partitioned_seeds_with(
    read: &DnaSeq,
    seedmap: &SeedMap,
    codes: &mut Vec<u8>,
) -> ([Seed; 3], usize) {
    let mut seeds = [Seed { offset: 0, hash: 0 }; 3];
    let seed_len = seedmap.config().seed_len;
    if read.len() < seed_len {
        return (seeds, 0);
    }
    let last = read.len() - seed_len;
    read.codes_into(0..read.len(), codes);
    // First, middle, last — deduplicated.
    let mut n = 0usize;
    for off in [0usize, last / 2, last] {
        if n == 0 || seeds[n - 1].offset as usize != off {
            seeds[n] = Seed {
                offset: off as u32,
                hash: seedmap.hash_seed_codes(&codes[off..off + seed_len]),
            };
            n += 1;
        }
    }
    (seeds, n)
}

/// Result of querying SeedMap for one read's seeds.
#[derive(Clone, Debug, Default)]
pub struct ReadCandidates {
    /// Sorted, deduplicated candidate read-start positions (global
    /// coordinates).
    pub starts: Vec<GlobalPos>,
    /// Total locations returned across the read's seeds (NMSL workload
    /// accounting: Location Table traffic).
    pub locations_fetched: u64,
    /// Number of seeds that hit at least one location.
    pub seeds_hit: u32,
    /// Number of seeds extracted.
    pub seeds_total: u32,
}

/// Queries SeedMap with a read's partitioned seeds and merges the location
/// lists into candidate read starts (paper steps 1–2).
pub fn query_read(read: &DnaSeq, seedmap: &SeedMap) -> ReadCandidates {
    let mut codes = Vec::new();
    let mut out = ReadCandidates::default();
    query_read_into(read, seedmap, &mut codes, &mut out);
    out
}

/// [`query_read`] writing into caller-owned buffers: `codes` is
/// [`partitioned_seeds_with`]'s buffer and `out` is overwritten in place. The
/// allocation-free variant the mapper's scratch arena uses per read.
pub fn query_read_into(
    read: &DnaSeq,
    seedmap: &SeedMap,
    codes: &mut Vec<u8>,
    out: &mut ReadCandidates,
) {
    let (seeds, n) = partitioned_seeds_with(read, seedmap, codes);
    let mut lists: [(&[GlobalPos], u32); 3] = [(&[], 0); 3];
    for (list, seed) in lists.iter_mut().zip(&seeds[..n]) {
        *list = (seedmap.locations_for_hash(seed.hash), seed.offset);
    }
    let lists = &lists[..n];
    out.locations_fetched = lists.iter().map(|(l, _)| l.len() as u64).sum();
    out.seeds_hit = lists.iter().filter(|(l, _)| !l.is_empty()).count() as u32;
    out.seeds_total = n as u32;
    merge_sorted_with_offsets_into(lists, &mut out.starts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;
    use gx_seedmap::SeedMapConfig;

    fn setup() -> (gx_genome::ReferenceGenome, SeedMap) {
        let genome = RandomGenomeBuilder::new(30_000).seed(42).build();
        let map = SeedMap::build(&genome, &SeedMapConfig::default());
        (genome, map)
    }

    #[test]
    fn three_nonoverlapping_seeds_for_150bp() {
        let (genome, map) = setup();
        let read = genome.chromosome(0).seq().subseq(1000..1150);
        let seeds = partitioned_seeds(&read, &map);
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[0].offset, 0);
        assert_eq!(seeds[1].offset, 50);
        assert_eq!(seeds[2].offset, 100);
    }

    #[test]
    fn exact_read_finds_its_origin() {
        let (genome, map) = setup();
        for pos in [0usize, 777, 12_345, 29_000] {
            let read = genome.chromosome(0).seq().subseq(pos..pos + 150);
            let cands = query_read(&read, &map);
            assert!(
                cands.starts.contains(&(pos as u32)),
                "origin {pos} missing: {:?}",
                cands.starts
            );
            assert_eq!(cands.seeds_hit, 3);
        }
    }

    #[test]
    fn read_with_center_errors_still_found_via_flank_seeds() {
        let (genome, map) = setup();
        let mut read = genome.chromosome(0).seq().subseq(5000..5150);
        // Corrupt the middle seed only.
        for p in 60..90 {
            read.set(p, read.get(p).complement());
        }
        let cands = query_read(&read, &map);
        assert!(cands.starts.contains(&5000));
    }

    #[test]
    fn short_read_yields_no_seeds() {
        let (_, map) = setup();
        let read = DnaSeq::from_ascii(b"ACGT").unwrap();
        assert!(partitioned_seeds(&read, &map).is_empty());
        assert_eq!(query_read(&read, &map).seeds_total, 0);
    }

    #[test]
    fn reused_buffers_match_fresh_query() {
        let (genome, map) = setup();
        let mut codes = Vec::new();
        let mut out = ReadCandidates::default();
        for pos in [0usize, 777, 12_345, 29_000] {
            let read = genome.chromosome(0).seq().subseq(pos..pos + 150);
            query_read_into(&read, &map, &mut codes, &mut out);
            let fresh = query_read(&read, &map);
            assert_eq!(out.starts, fresh.starts);
            assert_eq!(out.locations_fetched, fresh.locations_fetched);
            assert_eq!(out.seeds_hit, fresh.seeds_hit);
            assert_eq!(out.seeds_total, fresh.seeds_total);
        }
        // A too-short read resets the counters of a previously-used buffer.
        let short = DnaSeq::from_ascii(b"ACGT").unwrap();
        query_read_into(&short, &map, &mut codes, &mut out);
        assert!(out.starts.is_empty());
        assert_eq!(out.seeds_total, 0);
    }

    #[test]
    fn buffered_seeds_hash_what_per_seed_extraction_hashes() {
        let (genome, map) = setup();
        let seq = genome.chromosome(0).seq();
        let seed_len = map.config().seed_len;
        let (mut codes, mut one) = (Vec::new(), Vec::new());
        // 150 bp (three seeds), 51 bp (first == middle), 50 bp (one seed),
        // too short; the one buffer serves them all.
        for range in [1000..1150, 40..91, 100..150, 7..30] {
            let read = seq.subseq(range);
            let mut want = Vec::new();
            if let Some(last) = read.len().checked_sub(seed_len) {
                let mut offsets = vec![0, last / 2, last];
                offsets.dedup();
                for off in offsets {
                    read.codes_into(off..off + seed_len, &mut one);
                    want.push(Seed {
                        offset: off as u32,
                        hash: map.hash_seed_codes(&one),
                    });
                }
            }
            let (seeds, n) = partitioned_seeds_with(&read, &map, &mut codes);
            assert_eq!(seeds[..n], want[..]);
            assert_eq!(partitioned_seeds(&read, &map), want);
            // The mapper's own query is those seeds looked up one by one.
            let slices: Vec<&[GlobalPos]> = seeds[..n]
                .iter()
                .map(|s| map.locations_for_hash(s.hash))
                .collect();
            let got = query_read(&read, &map);
            assert_eq!(got.seeds_total as usize, n);
            assert_eq!(
                got.locations_fetched,
                slices.iter().map(|l| l.len() as u64).sum::<u64>()
            );
            assert_eq!(
                got.seeds_hit as usize,
                slices.iter().filter(|l| !l.is_empty()).count()
            );
        }
        // `bucket_range` bounds exactly the slice `locations_for_hash`
        // returns: bucket 0 (no previous entry), its neighbours, the last
        // bucket, and a sweep across the table.
        let buckets = map.num_buckets() as u32;
        let table = map.locations_for_hash(0).as_ptr() as usize;
        assert_eq!(map.bucket_range(0).1, 0);
        let mut table_end = 0u64;
        for h in [0, 1, buckets - 1, buckets, u32::MAX]
            .into_iter()
            .chain((0..buckets).step_by(97))
        {
            let (bucket, start, end) = map.bucket_range(h);
            let slice = map.locations_for_hash(h);
            assert_eq!(bucket, h % buckets);
            assert_eq!(
                ((slice.as_ptr() as usize - table) / size_of::<GlobalPos>()) as u64,
                start
            );
            assert_eq!(slice.len() as u64, end - start);
            table_end = table_end.max(end);
        }
        assert_eq!(table_end, map.stats().stored_locations);
    }

    #[test]
    fn exactly_seedlen_read_yields_one_seed() {
        let (genome, map) = setup();
        let read = genome.chromosome(0).seq().subseq(100..150);
        let seeds = partitioned_seeds(&read, &map);
        assert_eq!(seeds.len(), 1);
    }
}
