use crate::xxh32;
use gx_genome::{Bitset, Chromosome, GlobalPos, ReferenceGenome};

/// Pass 1's word for a window that overlaps an `N`. Never a bucket: the
/// Seed Table has at most 2^31 entries.
const NO_BUCKET: u32 = u32::MAX;
/// Windows whose codes pass 1 unpacks at a time (one buffer per thread).
const HASH_CHUNK: usize = 16 * 1024;
/// The build uses one thread per this many windows, up to the core count,
/// so a small genome is built on the calling thread alone.
const WINDOWS_PER_THREAD: usize = 1 << 16;
/// The seed xxh32 hashes every window and every query seed with.
const HASH_SEED: u32 = 0;

/// The index filtering threshold every run builds with (§5.2): buckets
/// with more locations are emptied. NMSL's centralized buffer is sized by
/// it too, so at most this many locations of one seed are ever buffered.
pub const DEFAULT_FILTER_THRESHOLD: u32 = 500;

/// Configuration of SeedMap construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedMapConfig {
    /// Seed length in bases (paper: 50).
    pub seed_len: usize,
    /// log2 of the Seed Table size. `None` picks the smallest power of two
    /// at least as large as the genome (load factor ≤ 1).
    pub bucket_bits: Option<u32>,
    /// Index filtering threshold (§5.2): buckets with more locations are
    /// emptied. `u32::MAX` disables filtering.
    pub filter_threshold: u32,
}

impl Default for SeedMapConfig {
    fn default() -> SeedMapConfig {
        SeedMapConfig {
            seed_len: 50,
            bucket_bits: None,
            filter_threshold: DEFAULT_FILTER_THRESHOLD,
        }
    }
}

impl SeedMapConfig {
    /// The config with a different filter threshold (used by the Fig. 13
    /// threshold sweep).
    pub fn with_filter_threshold(mut self, threshold: u32) -> SeedMapConfig {
        self.filter_threshold = threshold;
        self
    }
}

/// The default Seed Table sizing: log2 of the smallest power of two at
/// least as large as the genome (load factor ≤ 1), capped at 31 bits. This
/// is what [`SeedMap::build`] uses when [`SeedMapConfig::bucket_bits`] is
/// `None`.
fn default_bucket_bits(genome_len: u64) -> u32 {
    let mut bits = 1u32;
    while (1u64 << bits) < genome_len {
        bits += 1;
    }
    bits.min(31)
}

/// The Seed Table's log2 size for `config` over a genome of `genome_len`
/// bases, after [`SeedMap::build`]'s checks (see its `# Panics`): a
/// shift of 32 or more would size a table whose length no `u32` holds (and
/// in release builds `1usize << bits` masks the shift instead of failing),
/// and a position past `u32::MAX` would be truncated into another one.
fn checked_bucket_bits(config: &SeedMapConfig, genome_len: u64) -> u32 {
    assert!(
        config.seed_len > 0 && config.seed_len <= 256,
        "unsupported seed length"
    );
    assert!(genome_len > 0, "cannot index an empty genome");
    assert!(
        genome_len <= u64::from(GlobalPos::MAX),
        "a genome of {genome_len} bases has positions past 32-bit global positions"
    );
    let bits = config
        .bucket_bits
        .unwrap_or_else(|| default_bucket_bits(genome_len));
    assert!(
        bits <= 31,
        "bucket_bits {bits} is above 31: the Seed Table's size must fit a u32"
    );
    bits
}

/// Construction and occupancy statistics of a [`SeedMap`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeedMapStats {
    /// Number of Seed Table buckets.
    pub buckets: u64,
    /// Buckets holding at least one location.
    pub used_buckets: u64,
    /// Locations stored in the Location Table.
    pub stored_locations: u64,
    /// Buckets emptied by the index filtering threshold.
    pub filtered_buckets: u64,
    /// Locations dropped by the filter.
    pub filtered_locations: u64,
    /// Reference windows skipped because they overlap `N` positions.
    pub skipped_n_windows: u64,
}

impl SeedMapStats {
    /// Mean locations per used bucket: stored locations over buckets that
    /// hold any. Every bucket counts once, however often queries land in
    /// it, so this is not the paper's Observation 2 (≈ 9.5 locations a
    /// query seed on GRCh38), which weights each bucket by its queries;
    /// the `obs_stats` paper bin measures that one.
    pub fn mean_locations_per_seed(&self) -> f64 {
        if self.used_buckets == 0 {
            0.0
        } else {
            self.stored_locations as f64 / self.used_buckets as f64
        }
    }
}

/// The SeedMap index: Seed Table + Location Table (paper §4.2, Fig. 4).
///
/// See the [crate documentation](crate) for the layout. All reference
/// positions (stride 1) are indexed so that read seeds extracted at
/// arbitrary offsets find their exact matches.
///
/// A seed's bucket is `xxh32(codes, 0) & mask`, at construction
/// ([`SeedMap::build`]) and at query time ([`SeedMap::hash_seed_codes`])
/// alike — the paper's hashing units implement xxHash (§4.3), so the hash
/// is part of the index, not a parameter of it.
#[derive(Debug)]
pub struct SeedMap {
    config: SeedMapConfig,
    mask: u32,
    /// `seed_table[i]` = end offset of bucket `i` in `location_table`.
    seed_table: Vec<u32>,
    /// Global positions, grouped by bucket, ascending within a bucket.
    location_table: Vec<GlobalPos>,
    stats: SeedMapStats,
}

impl SeedMap {
    /// Builds the index over `genome` (the paper's offline stage).
    ///
    /// A counting sort in three passes, each one loop that does one thing:
    ///
    /// 1. **Hash** every window, in genome order, and keep only its bucket
    ///    (4 B a window); a window that overlaps an `N` keeps the sentinel
    ///    `u32::MAX` instead, which is never a bucket (`bucket_bits` ≤ 31).
    /// 2. **Count** those buckets into the array that becomes the Seed
    ///    Table, skipping the sentinels (their number is
    ///    [`skipped_n_windows`](SeedMapStats::skipped_n_windows)), then
    ///    filter and prefix-sum it in place into start offsets; a bitset
    ///    remembers the filtered buckets.
    /// 3. **Place**: walk the bucket words again in window order and store
    ///    each window's position at its bucket's cursor. Each Seed Table
    ///    entry advances to its bucket's end, so every bucket's locations
    ///    are contiguous and ascending.
    ///
    /// Passes 1 and 3 run on one thread per 64 Ki windows, up to
    /// [`available_parallelism`](std::thread::available_parallelism), the
    /// calling thread among them. Pass 1 splits the windows into contiguous
    /// ranges, and each thread fills its own slice of the bucket words,
    /// unpacking codes a chunk at a time into a buffer the caller
    /// allocated. Pass 3 splits the buckets: a thread owns a contiguous
    /// bucket range, with its Seed Table entries and the Location Table
    /// stretch they bound, scans all the bucket words in window order and
    /// places only its own. So the index is the same, byte for byte, for
    /// any thread count, and the helper threads allocate nothing.
    ///
    /// The count is a loop of its own because each of its iterations is a
    /// random read-modify-write into a Seed-Table-sized array. Behind a
    /// window's hash chain few of those misses overlap; over the finished
    /// bucket array they run at memory-level parallelism. It stays serial:
    /// split by bucket range, every thread would scan all the bucket words
    /// behind an unpredictable branch, which measured slower than one
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if `seed_len` is zero or larger than 256 (hardware seeds are
    /// bounded), if the genome is empty or longer than `u32::MAX` bases
    /// (its positions would not fit a [`GlobalPos`]), or if
    /// [`bucket_bits`](SeedMapConfig::bucket_bits) is above 31 (the Seed
    /// Table is indexed as a `u32`).
    pub fn build(genome: &ReferenceGenome, config: &SeedMapConfig) -> SeedMap {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = cores.min(window_count(genome, config.seed_len) / WINDOWS_PER_THREAD);
        SeedMap::build_with(genome, config, threads.max(1))
    }

    /// [`SeedMap::build`] on `threads` threads (the calling one included).
    fn build_with(genome: &ReferenceGenome, config: &SeedMapConfig, threads: usize) -> SeedMap {
        let bucket_bits = checked_bucket_bits(config, genome.total_len());
        let buckets = 1usize << bucket_bits;
        let mask = (buckets - 1) as u32;
        let k = config.seed_len;

        // Pass 1: hash, by window range. `bucket_of` holds a word for every
        // window and is sized once, so it is one block, not a chain of
        // doublings left wherever the heap had room. Each thread's code
        // buffer is allocated here: a helper thread that allocated would
        // open a malloc arena of its own.
        let windows = window_count(genome, k);
        let mut bucket_of = vec![0u32; windows];
        let mut codes: Vec<Vec<u8>> = (0..threads)
            .map(|_| Vec::with_capacity((HASH_CHUNK + k - 1).next_multiple_of(32)))
            .collect();
        let mut unhashed = &mut bucket_of[..];
        let parts = codes.iter_mut().enumerate().map(|(t, codes)| {
            let first = split(windows, t, threads);
            let len = split(windows, t + 1, threads) - first;
            let (out, rest) = std::mem::take(&mut unhashed).split_at_mut(len);
            unhashed = rest;
            (first, out, codes)
        });
        on_threads(parts, |(first, out, codes)| {
            hash_windows(genome.chromosomes(), config, mask, first, out, codes);
        });
        drop(codes);

        // Pass 2: count, then filter and prefix-sum in place. The Seed
        // Table is its own write cursor: pass 3 advances a bucket's entry
        // once per placement, so it ends as the bucket's end offset. The
        // two tables that outlive the build are its last two blocks, so
        // every transient block sits below them, in the one hole the next
        // build reuses.
        let mut filtered = Bitset::new(buckets);
        let mut seed_table = vec![0u32; buckets];
        let mut skipped_n = 0u64;
        for &bucket in &bucket_of {
            if bucket == NO_BUCKET {
                skipped_n += 1;
            } else {
                seed_table[bucket as usize] += 1;
            }
        }
        let (mut used_buckets, mut filtered_buckets, mut filtered_locations) = (0u64, 0u64, 0u64);
        let mut acc = 0u32;
        for (b, entry) in seed_table.iter_mut().enumerate() {
            let count = std::mem::replace(entry, acc);
            if count > config.filter_threshold {
                filtered.set(b);
                filtered_buckets += 1;
                filtered_locations += u64::from(count);
            } else {
                used_buckets += u64::from(count > 0);
                acc += count;
            }
        }
        let mut location_table = vec![0 as GlobalPos; acc as usize];

        // Pass 3: place, by bucket range. A thread's buckets start where its
        // Location Table stretch starts, and the next range's first entry
        // (or the total) is where it ends.
        let (mut cursors, mut slots, mut placed) =
            (&mut seed_table[..], &mut location_table[..], 0);
        let parts = (0..threads).map(|t| {
            let first = split(buckets, t, threads);
            let len = split(buckets, t + 1, threads) - first;
            let (own, rest) = std::mem::take(&mut cursors).split_at_mut(len);
            cursors = rest;
            let end = cursors.first().map_or(acc, |&start| start);
            let (stretch, rest) = std::mem::take(&mut slots).split_at_mut((end - placed) as usize);
            slots = rest;
            placed = end;
            (first as u32, own, stretch)
        });
        on_threads(parts, |(first, cursors, stretch)| {
            place_windows(genome, k, &bucket_of, &filtered, first, cursors, stretch);
        });

        let stats = SeedMapStats {
            buckets: buckets as u64,
            used_buckets,
            stored_locations: acc as u64,
            filtered_buckets,
            filtered_locations,
            skipped_n_windows: skipped_n,
        };
        SeedMap {
            config: *config,
            mask,
            seed_table,
            location_table,
            stats,
        }
    }

    /// The configuration used to build the index.
    pub fn config(&self) -> &SeedMapConfig {
        &self.config
    }

    /// Construction statistics.
    pub fn stats(&self) -> &SeedMapStats {
        &self.stats
    }

    /// Hashes a seed's 2-bit codes (the Partitioned Seeding step's encoding).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the configured seed length.
    #[inline]
    pub fn hash_seed_codes(&self, codes: &[u8]) -> u32 {
        assert_eq!(codes.len(), self.config.seed_len, "seed length mismatch");
        xxh32(codes, HASH_SEED)
    }

    /// The sorted location slice for a seed hash (the paper's online query,
    /// Fig. 4b: previous and current Seed Table entries bound the slice).
    #[inline]
    pub fn locations_for_hash(&self, hash: u32) -> &[GlobalPos] {
        let (_, start, end) = self.bucket_range(hash);
        self.location_slice(start, end)
    }

    /// Entries `[start, end)` of the Location Table — the second read of a
    /// query whose bounds [`bucket_range`](SeedMap::bucket_range) already
    /// returned, for callers that fetch many bounds before touching any
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside the table.
    #[inline]
    pub fn location_slice(&self, start: u64, end: u64) -> &[GlobalPos] {
        &self.location_table[start as usize..end as usize]
    }

    /// Convenience: hash `codes` and return its location slice.
    pub fn query(&self, codes: &[u8]) -> &[GlobalPos] {
        self.locations_for_hash(self.hash_seed_codes(codes))
    }

    /// The bucket index and its `[start, end)` offsets in the Location
    /// Table for a seed hash. This is the physical layout the NMSL address
    /// mapper uses: the Seed Table read returns `(start, end)` and the
    /// Location Table read streams `end - start` entries starting at
    /// `start`.
    #[inline]
    pub fn bucket_range(&self, hash: u32) -> (u32, u64, u64) {
        let bucket = (hash & self.mask) as usize;
        let end = self.seed_table[bucket] as u64;
        let start = if bucket == 0 {
            0
        } else {
            self.seed_table[bucket - 1] as u64
        };
        (bucket as u32, start, end)
    }

    /// Memory footprint of the two tables in bytes (4 B per Seed Table entry
    /// + 4 B per location, as in the hardware layout).
    pub fn memory_bytes(&self) -> u64 {
        (self.seed_table.len() as u64 + self.location_table.len() as u64) * 4
    }

    /// Number of Seed Table buckets.
    pub fn num_buckets(&self) -> usize {
        self.seed_table.len()
    }
}

/// The number of `k`-windows over all of `genome`'s chromosomes.
fn window_count(genome: &ReferenceGenome, k: usize) -> usize {
    genome
        .chromosomes()
        .iter()
        .map(|c| (c.len() + 1).saturating_sub(k))
        .sum()
}

/// Where part `t` of `len` items cut into `parts` contiguous ranges starts.
fn split(len: usize, t: usize, parts: usize) -> usize {
    (len as u128 * t as u128 / parts as u128) as usize
}

/// Runs `work` on every part: the last on the calling thread, each other
/// one on a scoped thread of its own.
fn on_threads<P: Send>(parts: impl Iterator<Item = P>, work: impl Fn(P) + Sync) {
    let mut parts = parts.peekable();
    std::thread::scope(|scope| {
        while let Some(part) = parts.next() {
            if parts.peek().is_none() {
                work(part);
            } else {
                let work = &work;
                scope.spawn(move || work(part));
            }
        }
    });
}

/// Pass 1 over windows `first..first + out.len()`, counted over all of
/// `chroms` in order: each window's bucket, or [`NO_BUCKET`] if it overlaps
/// an `N`. Codes are unpacked [`HASH_CHUNK`] windows at a time into
/// `codes`, whose capacity the caller sized, so this allocates nothing.
fn hash_windows(
    chroms: &[Chromosome],
    config: &SeedMapConfig,
    mask: u32,
    mut first: usize,
    mut out: &mut [u32],
    codes: &mut Vec<u8>,
) {
    let k = config.seed_len;
    for chrom in chroms {
        let windows = (chrom.len() + 1).saturating_sub(k);
        if first >= windows {
            first -= windows;
            continue;
        }
        let len = out.len().min(windows - first);
        let (own, rest) = std::mem::take(&mut out).split_at_mut(len);
        out = rest;
        let check_n = chrom.has_n_in(0, chrom.len());
        for (chunk, start) in own
            .chunks_mut(HASH_CHUNK)
            .zip((first..).step_by(HASH_CHUNK))
        {
            chrom
                .seq()
                .codes_into(start..start + chunk.len() + k - 1, codes);
            for ((slot, window), pos) in chunk.iter_mut().zip(codes.windows(k)).zip(start..) {
                *slot = if check_n && chrom.has_n_in(pos, pos + k) {
                    NO_BUCKET
                } else {
                    xxh32(window, HASH_SEED) & mask
                };
            }
        }
        if out.is_empty() {
            return;
        }
        first = 0;
    }
}

/// Pass 3 for buckets `first..first + cursors.len()`: every window whose
/// bucket is one of them and not filtered, in window order, goes to its
/// bucket's cursor in `stretch`, the Location Table entries from
/// `cursors[0]` on.
fn place_windows(
    genome: &ReferenceGenome,
    k: usize,
    bucket_of: &[u32],
    filtered: &Bitset,
    first: u32,
    cursors: &mut [u32],
    stretch: &mut [GlobalPos],
) {
    let Some(&base) = cursors.first() else {
        return;
    };
    let mut rest = bucket_of;
    for (ci, chrom) in genome.chromosomes().iter().enumerate() {
        let (windows, tail) = rest.split_at((chrom.len() + 1).saturating_sub(k));
        rest = tail;
        let start = genome.chrom_start(ci as u32) as GlobalPos;
        for (&b, pos) in windows.iter().zip(start..) {
            // Other threads' buckets and the sentinel fall outside `cursors`.
            let Some(cursor) = cursors.get_mut(b.wrapping_sub(first) as usize) else {
                continue;
            };
            if filtered.get(b as usize) {
                continue;
            }
            stretch[(*cursor - base) as usize] = pos;
            *cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;
    use gx_genome::{Chromosome, DnaSeq};

    fn small_config() -> SeedMapConfig {
        SeedMapConfig {
            seed_len: 8,
            ..SeedMapConfig::default()
        }
    }

    #[test]
    fn every_position_is_findable() {
        let genome = RandomGenomeBuilder::new(5_000).seed(1).build();
        let map = SeedMap::build(&genome, &small_config());
        let seq = genome.chromosome(0).seq();
        for pos in (0..seq.len() - 8).step_by(97) {
            let codes = seq.subseq(pos..pos + 8).to_codes();
            let hits = map.query(&codes);
            assert!(
                hits.contains(&(pos as u32)),
                "position {pos} missing from bucket {hits:?}"
            );
        }
    }

    #[test]
    fn locations_sorted_within_bucket() {
        let genome = RandomGenomeBuilder::new(20_000).seed(2).build();
        let map = SeedMap::build(&genome, &small_config());
        let mut prev_end = 0usize;
        for b in 0..map.num_buckets() {
            let end = map.seed_table[b] as usize;
            let slice = &map.location_table[prev_end..end];
            assert!(slice.windows(2).all(|w| w[0] <= w[1]));
            prev_end = end;
        }
    }

    #[test]
    fn query_matches_naive_scan() {
        let genome = RandomGenomeBuilder::new(3_000).seed(3).build();
        let cfg = SeedMapConfig {
            seed_len: 10,
            filter_threshold: u32::MAX,
            ..SeedMapConfig::default()
        };
        let map = SeedMap::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        // Exact occurrences of a probe seed must all be in the bucket.
        let probe = seq.subseq(100..110);
        let naive: Vec<u32> = (0..seq.len() - 10)
            .filter(|&p| (0..10).all(|i| seq.code_at(p + i) == probe.code_at(i)))
            .map(|p| p as u32)
            .collect();
        let hits = map.query(&probe.to_codes());
        for p in naive {
            assert!(hits.contains(&p));
        }
    }

    #[test]
    fn filter_threshold_empties_heavy_buckets() {
        // A genome that is one repeated unit: every seed occurs many times.
        let unit = "ACGTTGCA";
        let s = unit.repeat(200);
        let genome = gx_genome::ReferenceGenome::from_chromosomes(vec![Chromosome::new(
            "c",
            DnaSeq::from_ascii(s.as_bytes()).unwrap(),
        )]);
        let cfg = SeedMapConfig {
            seed_len: 8,
            filter_threshold: 10,
            ..SeedMapConfig::default()
        };
        let map = SeedMap::build(&genome, &cfg);
        assert!(map.stats().filtered_buckets > 0);
        // The dominant seed must now return an empty slice.
        let probe = DnaSeq::from_ascii(unit.as_bytes()).unwrap();
        assert!(map.query(&probe.to_codes()).is_empty());

        let unfiltered = SeedMap::build(&genome, &cfg.with_filter_threshold(u32::MAX));
        assert!(!unfiltered.query(&probe.to_codes()).is_empty());
    }

    #[test]
    fn n_windows_are_skipped() {
        let fasta = b">c\nACGTNACGTACGTACGTACGT\n";
        let genome = gx_genome::fasta::read_fasta(&fasta[..]).unwrap();
        let cfg = SeedMapConfig {
            seed_len: 4,
            ..SeedMapConfig::default()
        };
        let map = SeedMap::build(&genome, &cfg);
        assert!(map.stats().skipped_n_windows >= 4);
    }

    #[test]
    fn thirty_one_bucket_bits_is_the_limit() {
        let cfg = SeedMapConfig {
            bucket_bits: Some(31),
            ..small_config()
        };
        assert_eq!(checked_bucket_bits(&cfg, 1_000), 31);
    }

    /// `Some(32)` would size a 2³²-entry Seed Table whose end offsets and
    /// bucket indices no `u32` holds; `Some(64)` built a 1-bucket index in
    /// release before the check, the shift masked to 0.
    #[test]
    #[should_panic(expected = "bucket_bits 32 is above 31")]
    fn thirty_two_bucket_bits_are_refused() {
        let genome = RandomGenomeBuilder::new(100).seed(5).build();
        let cfg = SeedMapConfig {
            bucket_bits: Some(32),
            ..small_config()
        };
        SeedMap::build(&genome, &cfg);
    }

    #[test]
    #[should_panic(expected = "bucket_bits 64 is above 31")]
    fn a_shift_past_the_word_is_refused() {
        let genome = RandomGenomeBuilder::new(100).seed(5).build();
        let cfg = SeedMapConfig {
            bucket_bits: Some(64),
            ..small_config()
        };
        SeedMap::build(&genome, &cfg);
    }

    /// `ReferenceGenome` refuses such a genome too, and one would take a
    /// gigabyte to make, so the check is driven with a length alone.
    #[test]
    #[should_panic(expected = "past 32-bit global positions")]
    fn positions_past_u32_are_refused() {
        checked_bucket_bits(&small_config(), u64::from(u32::MAX) + 1);
    }

    #[test]
    fn repeats_raise_mean_locations() {
        let plain = RandomGenomeBuilder::new(60_000).seed(4).build();
        let repeated = RandomGenomeBuilder::new(60_000)
            .seed(4)
            .repeat_family(gx_genome::random::RepeatFamily {
                unit_len: 300,
                copies: 60,
                divergence: 0.0,
            })
            .build();
        let cfg = SeedMapConfig::default(); // 50bp seeds
        let m1 = SeedMap::build(&plain, &cfg);
        let m2 = SeedMap::build(&repeated, &cfg);
        assert!(
            m2.stats().mean_locations_per_seed() > m1.stats().mean_locations_per_seed(),
            "{} vs {}",
            m2.stats().mean_locations_per_seed(),
            m1.stats().mean_locations_per_seed()
        );
    }

    /// A genome of one to five short chromosomes, some empty, shorter than
    /// `k` or exactly `k` long, with `N` runs, and sometimes one `k`-mer
    /// planted three to six times (so a small threshold filters its bucket
    /// and few others).
    fn split_genome(rng: &mut rand::rngs::StdRng, k: usize) -> ReferenceGenome {
        use rand::Rng;
        let planted: Vec<u8> = (0..k).map(|_| b"ACGT"[rng.random_range(0..4)]).collect();
        let chroms = (0..rng.random_range(1..=5))
            .map(|_| {
                let len = match rng.random_range(0..6) {
                    0 => 0,
                    1 => k - 1,
                    2 => k,
                    _ => rng.random_range(k..=k + 120),
                };
                let mut ascii: Vec<u8> =
                    (0..len).map(|_| b"ACGT"[rng.random_range(0..4)]).collect();
                if len >= k && rng.random_bool(0.3) {
                    for _ in 0..rng.random_range(3..=6) {
                        let at = rng.random_range(0..=len - k);
                        ascii[at..at + k].copy_from_slice(&planted);
                    }
                }
                let seq = DnaSeq::from_ascii(&ascii).expect("ACGT only");
                if len == 0 || rng.random_bool(0.4) {
                    return Chromosome::new("c", seq);
                }
                let mut mask = Bitset::new(len);
                for _ in 0..rng.random_range(1..=3) {
                    let start = rng.random_range(0..len);
                    (start..(start + rng.random_range(1..=2 * k)).min(len))
                        .for_each(|i| mask.set(i));
                }
                Chromosome::with_n_mask("c", seq, mask)
            })
            .collect::<Vec<_>>();
        if chroms.iter().all(|c| c.is_empty()) {
            return split_genome(rng, k);
        }
        ReferenceGenome::from_chromosomes(chroms)
    }

    #[derive(Default, Debug)]
    struct SplitMix {
        /// A window split point with an `N` window on either side of it.
        n_across_split: usize,
        /// A window split point at a chromosome's first window.
        split_at_chrom: usize,
        empty_chrom: usize,
        short_chrom: usize,
        exact_chrom: usize,
        /// More threads than windows.
        few_windows: usize,
        /// Filtered buckets in one bucket range, kept ones in another.
        filtered_in_one_range: usize,
    }

    /// Every thread count builds the index one thread builds: the same
    /// stats, Seed Table and Location Table, entry for entry. Each of these
    /// fails it and no other test of the crate: pass 3's bucket range
    /// starting one bucket early (`(first as u32).saturating_sub(1)`, a
    /// no-op for the first range), pass 1's window range starting one
    /// window late for every thread but the first, pass 1 not resetting
    /// `first` to 0 after a thread's first chromosome. (A shift every
    /// thread count makes alike, such as pass 1 handed `first + 1` for
    /// every range, is for the other tests and `tests/build_diff.rs` to
    /// catch.)
    #[test]
    fn every_thread_count_builds_the_index_one_thread_builds() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5b117);
        let mut mix = SplitMix::default();
        let cases = if cfg!(debug_assertions) { 300 } else { 3_000 };
        for _ in 0..cases {
            let k = rng.random_range(1..=12);
            let genome = split_genome(&mut rng, k);
            let cfg = SeedMapConfig {
                seed_len: k,
                bucket_bits: [None, Some(0), Some(3), Some(rng.random_range(0..=10))]
                    [rng.random_range(0..4)],
                filter_threshold: [1, 2, 5, u32::MAX][rng.random_range(0..4)],
            };
            let want = SeedMap::build_with(&genome, &cfg, 1);
            for threads in 2..=5 {
                let map = SeedMap::build_with(&genome, &cfg, threads);
                let what = || format!("{threads} threads, {cfg:?} over {:?}", genome.chromosomes());
                assert_eq!(map.stats(), want.stats(), "{}", what());
                assert!(
                    map.seed_table == want.seed_table,
                    "Seed Tables differ: {}",
                    what()
                );
                assert!(
                    map.location_table == want.location_table,
                    "Location Tables differ: {}",
                    what()
                );
            }

            // What the case covered. Window `w` overlaps an `N`, and where
            // each chromosome's windows start.
            let chroms = genome.chromosomes();
            let n_window: Vec<bool> = chroms
                .iter()
                .flat_map(|c| (0..(c.len() + 1).saturating_sub(k)).map(|p| c.has_n_in(p, p + k)))
                .collect();
            let chrom_starts: Vec<usize> = chroms
                .iter()
                .scan(0, |w, c| {
                    let first = *w;
                    *w += (c.len() + 1).saturating_sub(k);
                    Some(first)
                })
                .collect();
            // Each bucket's unfiltered count, and whether the filter empties it.
            let all = SeedMap::build_with(&genome, &cfg.with_filter_threshold(u32::MAX), 1);
            let count = |b: usize| {
                let (_, start, end) = all.bucket_range(b as u32);
                end - start
            };
            let windows = n_window.len();
            let buckets = want.num_buckets();
            for threads in 2..=5 {
                let splits = (1..threads).map(|t| split(windows, t, threads));
                mix.n_across_split += usize::from(
                    splits
                        .clone()
                        .any(|s| s > 0 && s < windows && n_window[s - 1] && n_window[s]),
                );
                mix.split_at_chrom += usize::from(
                    splits
                        .clone()
                        .any(|s| s > 0 && s < windows && chrom_starts.contains(&s)),
                );
                let ranges = (0..threads)
                    .map(|t| split(buckets, t, threads)..split(buckets, t + 1, threads));
                let (mut filtering, mut keeping) = (0, 0);
                for range in ranges {
                    let counts = range.map(count);
                    filtering +=
                        usize::from(counts.clone().any(|c| c > u64::from(cfg.filter_threshold)));
                    keeping += usize::from(
                        counts
                            .clone()
                            .any(|c| c > 0 && c <= u64::from(cfg.filter_threshold)),
                    );
                }
                mix.filtered_in_one_range += usize::from(filtering == 1 && keeping > 0);
            }
            mix.empty_chrom += usize::from(chroms.iter().any(|c| c.is_empty()));
            mix.short_chrom += usize::from(chroms.iter().any(|c| !c.is_empty() && c.len() < k));
            mix.exact_chrom += usize::from(chroms.iter().any(|c| c.len() == k));
            mix.few_windows += usize::from(windows < 5);
        }
        let floor = cases / 50;
        for (kind, n) in [
            ("an N window either side of a split", mix.n_across_split),
            ("a split at a chromosome's first window", mix.split_at_chrom),
            ("an empty chromosome", mix.empty_chrom),
            ("a chromosome shorter than a seed", mix.short_chrom),
            ("a chromosome one seed long", mix.exact_chrom),
            ("fewer windows than threads", mix.few_windows),
            (
                "filtered buckets in one range only",
                mix.filtered_in_one_range,
            ),
        ] {
            assert!(n >= floor, "{kind}: {n} of {cases} cases ({mix:?})");
        }
    }
}
