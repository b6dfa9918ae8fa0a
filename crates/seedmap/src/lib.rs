//! The SeedMap index (paper §4.2): GenPair's offline reference index.
//!
//! SeedMap is a hash-table-like structure with two tables:
//!
//! * the **Location Table** — all reference positions of every seed, grouped
//!   by seed and laid out contiguously (one burst-friendly slice per seed);
//! * the **Seed Table** — an array indexed by the seed's hash; entry *i*
//!   holds the *end* offset of bucket *i*'s slice in the Location Table, so
//!   a bucket's slice is `location_table[seed_table[i-1]..seed_table[i]]`.
//!
//! Seeds are hashed with [`xxh32`] (the paper uses xxHash) over their 2-bit
//! base codes, at construction and at query time alike. Buckets holding
//! more locations than the *index filtering threshold* (default 500, §5.2)
//! are emptied at construction time; reads whose seeds land in filtered
//! buckets fall back to the DP pipeline.
//!
//! ```
//! use gx_genome::random::RandomGenomeBuilder;
//! use gx_seedmap::{SeedMap, SeedMapConfig};
//!
//! let genome = RandomGenomeBuilder::new(20_000).seed(3).build();
//! let map = SeedMap::build(&genome, &SeedMapConfig::default());
//! // Every reference position is indexed, so any in-genome 50-mer hits.
//! let seed = genome.chromosome(0).seq().subseq(777..827);
//! let hits = map.query(&seed.to_codes());
//! assert!(hits.contains(&777));
//! ```

mod merge;
mod seedmap;
mod serialize;
mod xxhash;

pub use merge::{merge_sorted_with_offsets_into, MAX_MERGE_LISTS};
pub use seedmap::{SeedMap, SeedMapConfig, SeedMapStats};
pub use serialize::{read_seedmap, write_seedmap, SerializeError};
pub use xxhash::xxh32;
