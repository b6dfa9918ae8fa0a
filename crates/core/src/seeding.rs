//! Partitioned Seeding (paper §4.3) and SeedMap Query (§4.4).
//!
//! Three non-overlapping 50 bp seeds are extracted per read — first, middle
//! and last — and hashed with xxh32. Querying SeedMap yields one sorted
//! location slice per seed; normalizing each location by the seed's offset
//! within the read and merging produces sorted candidate *read start*
//! positions, the input to paired-adjacency filtering.
//!
//! # Seeding in phases
//!
//! A lookup is two dependent random reads — the Seed Table entry, then the
//! Location Table slice it bounds — into an index far larger than the
//! cache, and a pair makes up to twelve of them (three seeds × the four
//! oriented reads `r1`, `rc(r2)`, `rc(r1)`, `r2`). Done one after another,
//! each waits out its own two misses: the latency-bound chain the paper
//! moves next to memory. [`query_reads_into`] is the CPU twin of that move.
//! It takes all of a pair's reads at once and works in four phases, each a
//! short loop whose iterations do not depend on one another, so the
//! out-of-order core keeps every miss of a phase in flight together:
//!
//! 1. unpack each read's codes and hash its seeds
//!    ([`partitioned_seeds_with`]) — arithmetic only, no table touched;
//! 2. read every seed's bucket bounds ([`SeedMap::bucket_range`]) into the
//!    read's [`ReadCandidates::lookups`] — up to twelve independent Seed
//!    Table misses;
//! 3. copy every bounded slice into one caller-owned arena
//!    ([`SeedMap::location_slice`]) — up to twelve independent Location
//!    Table misses, after which every location sits in a few adjacent
//!    cache lines;
//! 4. merge each read's arena spans into its [`ReadCandidates`]
//!    ([`merge_sorted_with_offsets_into`]) — no miss left to wait for, and
//!    per location a `min` and three index increments, no branch the data
//!    decides: the one phase whose cost grows with bucket occupancy. The
//!    same comparisons count each start's seed support, which the
//!    paired-adjacency filter ranks candidates by.
//!
//! The order of the loads is the only thing that changes: every read gets
//! the `ReadCandidates` a lookup-by-lookup query would give it.
//! [`query_read_into`] is the same function over one read.
//!
//! Phases 1 and 2 are [`lookup_reads_into`], the one place a read becomes
//! [`SeedLookup`]s. What it leaves in `ReadCandidates` is what the device
//! model prices (`gx-accel::workload`, `gx-backend`'s NMSL session): the
//! model cannot see a lookup the algorithm did not make.

use gx_genome::{DnaSeq, GlobalPos};
use gx_seedmap::{merge_sorted_with_offsets_into, SeedMap};

/// One extracted seed: offset within the read plus its hash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// One seed's SeedMap lookup: the seed and the Location Table slice
/// `start..end` its bucket bounds ([`SeedMap::bucket_range`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeedLookup {
    /// The seed looked up.
    pub seed: Seed,
    /// First Location Table entry of the seed's bucket.
    pub start: u64,
    /// One past the bucket's last entry (`start` for an empty bucket).
    pub end: u64,
}

/// Result of querying SeedMap for one read's seeds.
#[derive(Clone, Debug, Default)]
pub struct ReadCandidates {
    /// Sorted, deduplicated candidate read-start positions (global
    /// coordinates).
    pub starts: Vec<GlobalPos>,
    /// Seed support of each start, parallel to `starts`: how many of the
    /// read's seeds (1 to `seeds_total`) place the read there.
    pub support: Vec<u8>,
    /// Total locations returned across the read's seeds (NMSL workload
    /// accounting: Location Table traffic).
    pub locations_fetched: u64,
    /// Number of seeds that hit at least one location.
    pub seeds_hit: u32,
    /// Number of seeds extracted.
    pub seeds_total: u32,
    /// The lookups behind the fields above, in seed order; the first
    /// `seeds_total` are this read's, the rest stale.
    lookups: [SeedLookup; SEEDS_PER_READ],
}

impl ReadCandidates {
    /// The read's SeedMap lookups, one per extracted seed, in seed order.
    pub fn lookups(&self) -> &[SeedLookup] {
        &self.lookups[..self.seeds_total as usize]
    }
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
/// [`partitioned_seeds_with`]'s buffer and `out` is overwritten in place.
/// This is [`query_reads_into`] over one read, with a call-local arena (one
/// small allocation when a seed hits); a loop that maps pairs hands all
/// four oriented reads and its own arena to `query_reads_into` instead.
pub fn query_read_into(
    read: &DnaSeq,
    seedmap: &SeedMap,
    codes: &mut Vec<u8>,
    out: &mut ReadCandidates,
) {
    query_reads_into(
        [read],
        seedmap,
        codes,
        &mut Vec::new(),
        std::array::from_mut(out),
    );
}

/// Seeds per read: first, middle, last.
const SEEDS_PER_READ: usize = 3;
const _: () = assert!(SEEDS_PER_READ <= gx_seedmap::MAX_MERGE_LISTS);

/// Phases 1 and 2 of the [module docs](self#seeding-in-phases) over `N`
/// reads: hashes every read's partitioned seeds, then reads every seed's
/// bucket bounds, leaving `out[i].lookups()` and `out[i].seeds_total` as
/// `reads[i]`'s and the rest of `out[i]` untouched. No location is read.
/// `codes` is [`partitioned_seeds_with`]'s buffer.
pub fn lookup_reads_into<const N: usize>(
    reads: [&DnaSeq; N],
    seedmap: &SeedMap,
    codes: &mut Vec<u8>,
    out: &mut [ReadCandidates; N],
) {
    // Phase 1: hashes.
    for (out, read) in out.iter_mut().zip(reads) {
        let (seeds, n) = partitioned_seeds_with(read, seedmap, codes);
        out.seeds_total = n as u32;
        for (lookup, seed) in out.lookups.iter_mut().zip(seeds) {
            lookup.seed = seed;
        }
    }
    // Phase 2: bucket bounds.
    for out in out.iter_mut() {
        let n = out.seeds_total as usize;
        for lookup in &mut out.lookups[..n] {
            (_, lookup.start, lookup.end) = seedmap.bucket_range(lookup.seed.hash);
        }
    }
}

/// Queries SeedMap with the partitioned seeds of `N` reads at once, in the
/// four phases of the [module docs](self#seeding-in-phases): `out[i]` is
/// overwritten with what [`query_read`] returns for `reads[i]`. `codes`
/// (one read's 2-bit codes at a time) and `arena` (the gathered Location
/// Table slices of all reads) are scratch: their contents on entry do not
/// matter, and a caller that keeps them allocates nothing once they have
/// grown.
pub fn query_reads_into<const N: usize>(
    reads: [&DnaSeq; N],
    seedmap: &SeedMap,
    codes: &mut Vec<u8>,
    arena: &mut Vec<GlobalPos>,
    out: &mut [ReadCandidates; N],
) {
    lookup_reads_into(reads, seedmap, codes, out);

    // Phase 3: gather, in seed order, so a slice's place in the arena
    // follows from the lengths before it.
    let lookups = || out.iter().flat_map(|c| c.lookups());
    arena.clear();
    arena.reserve(lookups().map(|l| (l.end - l.start) as usize).sum());
    for l in lookups() {
        arena.extend_from_slice(seedmap.location_slice(l.start, l.end));
    }

    // Phase 4: one merge per read over its arena spans.
    let mut gathered: &[GlobalPos] = arena;
    for out in out {
        let n = out.seeds_total as usize;
        let mut lists: [(&[GlobalPos], u32); SEEDS_PER_READ] = [(&[], 0); SEEDS_PER_READ];
        for (list, l) in lists.iter_mut().zip(&out.lookups[..n]) {
            let (span, rest) = gathered.split_at((l.end - l.start) as usize);
            *list = (span, l.seed.offset);
            gathered = rest;
        }
        let lists = &lists[..n];
        out.locations_fetched = lists.iter().map(|(l, _)| l.len() as u64).sum();
        out.seeds_hit = lists.iter().filter(|(l, _)| !l.is_empty()).count() as u32;
        merge_sorted_with_offsets_into(lists, &mut out.starts, &mut out.support);
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        let mut reused = ReadCandidates::default();
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
            // ... and it keeps each lookup: the per-seed hash and the
            // bounds `bucket_range` gives for it. The bounds-only entry
            // point records the same through a buffer the last read dirtied.
            let want_lookups: Vec<SeedLookup> = want.iter().map(|&s| lookup_of(s, &map)).collect();
            assert_eq!(got.lookups(), want_lookups);
            lookup_reads_into([&read], &map, &mut codes, std::array::from_mut(&mut reused));
            assert_eq!(reused.lookups(), want_lookups);
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

    /// `seed`'s lookup, read off the table on its own.
    fn lookup_of(seed: Seed, map: &SeedMap) -> SeedLookup {
        let (_, start, end) = map.bucket_range(seed.hash);
        SeedLookup { seed, start, end }
    }

    /// What the mapper did before [`query_reads_into`]: one read at a time,
    /// one lookup after another, slices read straight from the table — and
    /// the read starts by filter, sort and dedup rather than by the merge
    /// under test, each start's support by counting the read's slices that
    /// hold a location `v` with `v - off == start`.
    fn sequential_oracle(read: &DnaSeq, map: &SeedMap) -> ReadCandidates {
        let (seeds, n) = partitioned_seeds_with(read, map, &mut Vec::new());
        let lists: Vec<(&[GlobalPos], u32)> = seeds[..n]
            .iter()
            .map(|s| (map.locations_for_hash(s.hash), s.offset))
            .collect();
        let mut lookups = [SeedLookup::default(); SEEDS_PER_READ];
        for (lookup, &seed) in lookups.iter_mut().zip(&seeds[..n]) {
            *lookup = lookup_of(seed, map);
        }
        let mut starts: Vec<GlobalPos> = lists
            .iter()
            .flat_map(|&(l, off)| l.iter().filter(move |&&v| v >= off).map(move |&v| v - off))
            .collect();
        starts.sort_unstable();
        starts.dedup();
        let support = starts
            .iter()
            .map(|&start| {
                let hits = |&&(l, off): &&(&[GlobalPos], u32)| {
                    l.iter().any(|&v| v >= off && v - off == start)
                };
                lists.iter().filter(hits).count() as u8
            })
            .collect();
        ReadCandidates {
            starts,
            support,
            locations_fetched: lists.iter().map(|(l, _)| l.len() as u64).sum(),
            seeds_hit: lists.iter().filter(|(l, _)| !l.is_empty()).count() as u32,
            seeds_total: n as u32,
            lookups,
        }
    }

    /// Runs the pair step over `reads` through the caller's dirty buffers
    /// and holds every read to the oracle; returns the locations fetched.
    fn assert_pair_step_matches_oracle(
        reads: [&DnaSeq; 4],
        map: &SeedMap,
        codes: &mut Vec<u8>,
        arena: &mut Vec<GlobalPos>,
        out: &mut [ReadCandidates; 4],
    ) -> u64 {
        query_reads_into(reads, map, codes, arena, out);
        for (slot, (read, got)) in reads.iter().zip(out.iter()).enumerate() {
            let want = sequential_oracle(read, map);
            assert_eq!(got.starts, want.starts, "slot {slot}, {} bp", read.len());
            assert_eq!(got.support, want.support, "slot {slot}");
            assert_eq!(got.locations_fetched, want.locations_fetched, "slot {slot}");
            assert_eq!(got.seeds_hit, want.seeds_hit, "slot {slot}");
            assert_eq!(got.seeds_total, want.seeds_total, "slot {slot}");
            assert_eq!(got.lookups(), want.lookups(), "slot {slot}");
            // The one-read entry point is the same function.
            let mut one = ReadCandidates::default();
            query_read_into(read, map, codes, &mut one);
            assert_eq!(one.starts, want.starts, "slot {slot} alone");
            assert_eq!(one.support, want.support, "slot {slot} alone");
            assert_eq!(one.locations_fetched, want.locations_fetched);
            assert_eq!(
                (one.seeds_hit, one.seeds_total),
                (want.seeds_hit, want.seeds_total)
            );
            assert_eq!(one.lookups(), want.lookups());
        }
        out.iter().map(|c| c.locations_fetched).sum()
    }

    #[test]
    fn pair_step_matches_sequential_queries() {
        let (genome, map) = setup();
        let seq = genome.chromosome(0).seq();
        let (mut codes, mut arena) = (vec![7u8; 9], vec![u32::MAX; 5]);
        let mut out: [ReadCandidates; 4] = Default::default();
        let mut check = |reads: [&DnaSeq; 4]| {
            assert_pair_step_matches_oracle(reads, &map, &mut codes, &mut arena, &mut out)
        };

        // 150/150 pairs in the mapper's order: r1, rc(r2), rc(r1), r2.
        for pos in [0usize, 40, 777, 12_345, 29_400] {
            let r1 = seq.subseq(pos..pos + 150);
            let r2 = seq.subseq(pos + 250..pos + 400).revcomp();
            let fetched = check([&r1, &r2.revcomp(), &r1.revcomp(), &r2]);
            assert!(fetched >= 6, "in-genome seeds hit: {fetched}");
        }
        // Two identical mates.
        let r = seq.subseq(5_000..5_150);
        check([&r, &r, &r, &r]);

        // A two-seed, a one-seed, a seedless and an empty mate in each slot,
        // beside full-length reads.
        let full = seq.subseq(9_000..9_150);
        for odd in [
            seq.subseq(2_000..2_051),
            seq.subseq(2_000..2_050),
            seq.subseq(2_000..2_049),
            DnaSeq::new(),
        ] {
            for slot in 0..4 {
                let mut reads = [&full; 4];
                reads[slot] = &odd;
                check(reads);
            }
            check([&odd; 4]);
        }

        // Hits closer to the genome's start than the seed's offset in the
        // read are discarded: the read's last seed is the genome's first.
        let mut early = seq.subseq(20_000..20_100);
        early.extend_from_seq(&seq.subseq(0..50));
        let mut early2 = seq.subseq(21_000..21_050);
        early2.extend_from_seq(&seq.subseq(30..130));
        check([&early, &early2, &seq.subseq(0..150), &seq.subseq(99..249)]);
        let got = query_read(&early, &map);
        assert!(got.locations_fetched >= 3 && !got.starts.contains(&0));
        assert!(got.starts.contains(&20_000));
    }

    /// A genome whose fullest buckets hold hundreds of locations, its index,
    /// and the position of one 50-mer in the fullest bucket.
    pub(crate) fn repeat_setup() -> (gx_genome::ReferenceGenome, SeedMap, usize) {
        let genome = RandomGenomeBuilder::new(300_000)
            .seed(11)
            .humanlike_repeats()
            .repeat_family(gx_genome::random::RepeatFamily {
                unit_len: 150,
                copies: 300,
                divergence: 0.0,
            })
            .build();
        let map = SeedMap::build(&genome, &SeedMapConfig::default());
        let fullest = (0..map.num_buckets() as u32)
            .map(|h| map.locations_for_hash(h))
            .max_by_key(|l| l.len())
            .expect("buckets");
        assert!(fullest.len() >= 200, "fullest bucket: {}", fullest.len());
        let pos = fullest[fullest.len() / 2] as usize;
        (genome, map, pos)
    }

    #[test]
    fn pair_step_matches_sequential_queries_on_long_buckets() {
        let (genome, map, pos) = repeat_setup();
        let seq = genome.chromosome(0).seq();
        let (mut codes, mut arena) = (Vec::new(), Vec::new());
        let mut out: [ReadCandidates; 4] = Default::default();
        // A pair inside the repeat, then a unique one through the same
        // (now long) arena, then the repeat again.
        let long1 = seq.subseq(pos..pos + 150);
        let long2 = seq.subseq(pos + 20..pos + 170).revcomp();
        let short1 = seq.subseq(1_000..1_150);
        let short2 = seq.subseq(1_300..1_450).revcomp();
        for (r1, r2, at_least) in [
            (&long1, &long2, 400),
            (&short1, &short2, 6),
            (&long1, &short2, 200),
        ] {
            let fetched = assert_pair_step_matches_oracle(
                [r1, &r2.revcomp(), &r1.revcomp(), r2],
                &map,
                &mut codes,
                &mut arena,
                &mut out,
            );
            assert!(fetched >= at_least, "locations fetched: {fetched}");
        }
    }

    #[test]
    fn exactly_seedlen_read_yields_one_seed() {
        let (genome, map) = setup();
        let read = genome.chromosome(0).seq().subseq(100..150);
        let seeds = partitioned_seeds(&read, &map);
        assert_eq!(seeds.len(), 1);
    }
}
