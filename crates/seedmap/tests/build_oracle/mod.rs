//! Test-only oracle: the two-pass `SeedMap::build` `gx-seedmap` shipped
//! before the three-pass rewrite, moved here verbatim but for the xxh32
//! seed, the constant 0 the index hashes with — one fused loop that hashes
//! every window, remembers its bucket *and* its position and counts the
//! bucket, a second `counts` array that the filter zeroes, and a place
//! loop over the remembered positions. It returns the raw tables and
//! statistics; `tests/build_diff.rs` holds the library build to them.

use gx_genome::{GlobalPos, ReferenceGenome};
use gx_seedmap::{xxh32, SeedMapConfig, SeedMapStats};

/// What [`build`] leaves: the two tables and the statistics.
pub struct Index {
    /// `seed_table[i]` = end offset of bucket `i` in `location_table`.
    pub seed_table: Vec<u32>,
    /// Global positions, grouped by bucket, ascending within a bucket.
    pub location_table: Vec<GlobalPos>,
    pub stats: SeedMapStats,
}

fn default_bucket_bits(genome_len: u64) -> u32 {
    let mut bits = 1u32;
    while (1u64 << bits) < genome_len {
        bits += 1;
    }
    bits.min(31)
}

pub fn build(genome: &ReferenceGenome, config: &SeedMapConfig) -> Index {
    assert!(
        config.seed_len > 0 && config.seed_len <= 256,
        "unsupported seed length"
    );
    assert!(genome.total_len() > 0, "cannot index an empty genome");
    let bucket_bits = config
        .bucket_bits
        .unwrap_or_else(|| default_bucket_bits(genome.total_len()));
    let buckets = 1usize << bucket_bits;
    let mask = (buckets - 1) as u32;

    // Pass 1: hash every seed window, remember its bucket, count sizes.
    // Both per-window arrays are sized once (an upper bound: windows
    // over `N` are skipped). Grown by doubling, the two interleaved
    // chains of ever larger blocks land wherever the heap has room
    // that day, and where they land decides whether the tables below
    // fit under the heap top or push it up by another table.
    let windows: usize = genome
        .chromosomes()
        .iter()
        .map(|c| (c.len() + 1).saturating_sub(config.seed_len))
        .sum();
    let mut bucket_of: Vec<u32> = Vec::with_capacity(windows);
    let mut window_pos: Vec<GlobalPos> = Vec::with_capacity(windows);
    let mut counts = vec![0u32; buckets];
    let mut skipped_n = 0u64;
    let mut codes: Vec<u8> = Vec::new();
    for (ci, chrom) in genome.chromosomes().iter().enumerate() {
        if chrom.len() < config.seed_len {
            continue;
        }
        let start_gpos = genome.chrom_start(ci as u32);
        // One code extraction per chromosome; every k-window of it is
        // hashed with the function the query uses.
        chrom.seq().codes_into(0..chrom.len(), &mut codes);
        for (pos, window) in codes.windows(config.seed_len).enumerate() {
            if chrom.has_n_in(pos, pos + config.seed_len) {
                skipped_n += 1;
                continue;
            }
            let bucket = xxh32(window, 0) & mask;
            bucket_of.push(bucket);
            window_pos.push((start_gpos + pos as u64) as GlobalPos);
            counts[bucket as usize] += 1;
        }
    }

    // Filter oversized buckets.
    let mut filtered_buckets = 0u64;
    let mut filtered_locations = 0u64;
    if config.filter_threshold != u32::MAX {
        for c in counts.iter_mut() {
            if *c > config.filter_threshold {
                filtered_buckets += 1;
                filtered_locations += *c as u64;
                *c = 0;
            }
        }
    }

    // Prefix sums -> start offsets. The Seed Table is its own write
    // cursor: pass 2 advances a bucket's entry once per placement, so it
    // ends as the bucket's end offset. The two tables that outlive the
    // build are its last two blocks, so every transient block sits
    // below them, in the one hole the next build reuses.
    let mut seed_table = vec![0u32; buckets];
    let mut acc = 0u32;
    for (start, &c) in seed_table.iter_mut().zip(&counts) {
        *start = acc;
        acc += c;
    }
    let mut location_table = vec![0 as GlobalPos; acc as usize];

    // Pass 2: place positions (in genome order -> sorted per bucket).
    for (&bucket, &pos) in bucket_of.iter().zip(&window_pos) {
        let b = bucket as usize;
        if counts[b] == 0 {
            continue; // filtered
        }
        let cursor = &mut seed_table[b];
        location_table[*cursor as usize] = pos;
        *cursor += 1;
    }

    let used_buckets = counts.iter().filter(|&&c| c > 0).count() as u64;
    let stats = SeedMapStats {
        buckets: buckets as u64,
        used_buckets,
        stored_locations: acc as u64,
        filtered_buckets,
        filtered_locations,
        skipped_n_windows: skipped_n,
    };
    Index {
        seed_table,
        location_table,
        stats,
    }
}
