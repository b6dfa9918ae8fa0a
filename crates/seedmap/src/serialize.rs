//! Binary serialization of [`SeedMap`].
//!
//! The offline stage builds SeedMap once per reference (paper §4.2); mapping
//! runs reload it. Format: magic + version + config + hasher-id + stats
//! header, then the two tables as little-endian `u32` arrays. The hasher id
//! is always 1 (xxh32, the one hash the index uses) and any other value is
//! refused on load, so an index written by a build that still had other
//! hash families can never be silently queried with the wrong one.
//!
//! Nothing in the header is trusted: every size is checked before it is
//! used, and a table is read a chunk at a time and grows with what the
//! input delivered, so a count that promises more than the input holds
//! ends in `UnexpectedEof` after reading what is there instead of in an
//! allocation the count sized.

use crate::{SeedMap, SeedMapConfig, SeedMapStats};
use std::io::{Read, Write};

const MAGIC: u32 = 0x5347_4d58; // "SGMX"
const VERSION: u32 = 2;
const HEADER_BYTES: usize = 68;
/// The hasher-id header field's only valid value (xxh32).
const HASHER_XXH32: u32 = 1;
/// Table entries converted per read or write.
const CHUNK: usize = 64 * 1024;

/// Serialization failures.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Wrong magic/version or corrupt structure.
    Corrupt(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "io error: {e}"),
            SerializeError::Corrupt(s) => write!(f, "corrupt seedmap: {s}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> SerializeError {
        SerializeError::Io(e)
    }
}

fn corrupt(what: impl Into<String>) -> SerializeError {
    SerializeError::Corrupt(what.into())
}

/// Writes `map` to `writer`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_seedmap<W: Write>(map: &SeedMap, mut writer: W) -> Result<(), SerializeError> {
    let (config, seed_table, location_table, stats) = map.raw_parts();
    let mut header = Vec::with_capacity(HEADER_BYTES);
    for v in [
        MAGIC,
        VERSION,
        config.seed_len as u32,
        config.filter_threshold,
        config.hash_seed,
        HASHER_XXH32,
        seed_table.len() as u32,
    ] {
        header.extend_from_slice(&v.to_le_bytes());
    }
    for v in [
        location_table.len() as u64,
        stats.used_buckets,
        stats.filtered_buckets,
        stats.filtered_locations,
        stats.skipped_n_windows,
    ] {
        header.extend_from_slice(&v.to_le_bytes());
    }
    writer.write_all(&header)?;
    let mut buf = Vec::with_capacity(4 * CHUNK);
    for chunk in seed_table.chunks(CHUNK).chain(location_table.chunks(CHUNK)) {
        buf.clear();
        for v in chunk {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// Reads `n` little-endian `u32`s, [`CHUNK`] at a time through `bytes`
/// (`4 * CHUNK` long). The table grows with what the reader actually
/// delivers, never with `n` itself: each growth at most doubles it, and
/// none takes it past `n`, so a complete table has no spare capacity.
fn read_u32s<R: Read>(
    reader: &mut R,
    n: u32,
    bytes: &mut [u8],
) -> Result<Vec<u32>, SerializeError> {
    let n = n as usize;
    let mut table = Vec::new();
    while table.len() < n {
        let take = (n - table.len()).min(CHUNK);
        let chunk = &mut bytes[..4 * take];
        reader.read_exact(chunk)?;
        if table.capacity() - table.len() < take {
            table.reserve_exact(table.len().max(take).min(n - table.len()));
        }
        table.extend(
            chunk
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        );
    }
    Ok(table)
}

/// Reads a [`SeedMap`] previously written by [`write_seedmap`].
///
/// # Errors
///
/// Returns [`SerializeError::Corrupt`] on bad magic, version, hasher id,
/// seed length or table structure (the Seed Table must be non-decreasing
/// end offsets whose last entry is the Location Table's length), and
/// [`SerializeError::Io`] on truncated input.
pub fn read_seedmap<R: Read>(mut reader: R) -> Result<SeedMap, SerializeError> {
    let mut header = [0u8; HEADER_BYTES];
    reader.read_exact(&mut header)?;
    let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    if u32_at(0) != MAGIC {
        return Err(corrupt("bad magic"));
    }
    if u32_at(4) != VERSION {
        return Err(corrupt("unsupported version"));
    }
    let seed_len = u32_at(8) as usize;
    let filter_threshold = u32_at(12);
    let hash_seed = u32_at(16);
    let hasher_id = u32_at(20);
    let buckets = u32_at(24);
    let locations = u64_at(28);
    let used_buckets = u64_at(36);
    let filtered_buckets = u64_at(44);
    let filtered_locations = u64_at(52);
    let skipped_n_windows = u64_at(60);
    if !(1..=256).contains(&seed_len) {
        return Err(corrupt(format!("seed length {seed_len} outside 1..=256")));
    }
    if hasher_id != HASHER_XXH32 {
        return Err(corrupt(format!(
            "index was built with seed-hasher id {hasher_id}, not {HASHER_XXH32} (xxh32)"
        )));
    }
    if !buckets.is_power_of_two() {
        return Err(corrupt("bucket count not a power of two"));
    }

    // Every query slices the Location Table by two adjacent Seed Table
    // entries, so the offsets are proven in range here, once.
    let mut bytes = vec![0u8; 4 * CHUNK];
    let seed_table = read_u32s(&mut reader, buckets, &mut bytes)?;
    let last = *seed_table.last().expect("a power of two is not zero");
    if last as u64 != locations || seed_table.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("table sizes inconsistent"));
    }
    let location_table = read_u32s(&mut reader, last, &mut bytes)?;

    let config = SeedMapConfig {
        seed_len,
        bucket_bits: Some(buckets.trailing_zeros()),
        filter_threshold,
        hash_seed,
    };
    let stats = SeedMapStats {
        buckets: buckets as u64,
        used_buckets,
        stored_locations: locations,
        filtered_buckets,
        filtered_locations,
        skipped_n_windows,
    };
    Ok(SeedMap::from_raw_parts(
        config,
        seed_table,
        location_table,
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;
    use std::io;

    /// A small serialized index (seed length 10) and its location count.
    fn small_index_bytes(genome_seed: u64) -> (Vec<u8>, u64) {
        let genome = RandomGenomeBuilder::new(3_000).seed(genome_seed).build();
        let cfg = SeedMapConfig {
            seed_len: 10,
            ..SeedMapConfig::default()
        };
        let map = SeedMap::build(&genome, &cfg);
        let mut buf = Vec::new();
        write_seedmap(&map, &mut buf).unwrap();
        (buf, map.stats().stored_locations)
    }

    fn assert_corrupt(bytes: &[u8]) {
        assert!(matches!(
            read_seedmap(bytes),
            Err(SerializeError::Corrupt(_))
        ));
    }

    #[test]
    fn roundtrip() {
        let genome = RandomGenomeBuilder::new(8_000).seed(6).build();
        let cfg = SeedMapConfig {
            seed_len: 12,
            ..SeedMapConfig::default()
        };
        let map = SeedMap::build(&genome, &cfg);
        let mut buf = Vec::new();
        write_seedmap(&map, &mut buf).unwrap();
        let back = read_seedmap(buf.as_slice()).unwrap();
        assert_eq!(back.stats(), map.stats());
        let seq = genome.chromosome(0).seq();
        for pos in (0..seq.len() - 12).step_by(131) {
            let codes = seq.subseq(pos..pos + 12).to_codes();
            assert_eq!(back.query(&codes), map.query(&codes));
        }
    }

    #[test]
    fn rejects_wrong_hash_family() {
        // An index whose header names another hash family (2 was murmur3's
        // id) must fail loudly, never load as an index whose queries
        // silently miss.
        let (mut buf, _) = small_index_bytes(17);
        buf[20..24].copy_from_slice(&2u32.to_le_bytes());
        let err = read_seedmap(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("seed-hasher"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn rejects_bad_magic() {
        assert_corrupt(&[0u8; HEADER_BYTES]);
    }

    #[test]
    fn rejects_truncated() {
        let (mut buf, _) = small_index_bytes(7);
        buf.truncate(buf.len() / 2);
        assert!(read_seedmap(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_location_count_the_input_cannot_back() {
        // A count of 6 Gi locations must not size a 24 GiB allocation.
        let (mut buf, locations) = small_index_bytes(18);
        buf[28..36].copy_from_slice(&(6u64 << 30).to_le_bytes());
        assert_corrupt(&buf);
        // A lie the Seed Table backs up (its last bucket stretched to the
        // claimed count) reads what is there and stops at the end of input.
        let claimed = locations + 1_000_000;
        let last_entry = buf.len() - 4 * locations as usize - 4;
        buf[28..36].copy_from_slice(&claimed.to_le_bytes());
        buf[last_entry..last_entry + 4].copy_from_slice(&(claimed as u32).to_le_bytes());
        match read_seedmap(buf.as_slice()) {
            Err(SerializeError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn rejects_seed_table_entry_past_location_table() {
        // One bucket's end offset far past the Location Table: a query of
        // that bucket would slice out of range.
        let (buf, _) = small_index_bytes(19);
        let mut patched = buf.clone();
        let entry = HEADER_BYTES + 4 * 100;
        patched[entry..entry + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        assert_corrupt(&patched);
        // A zero location count is held to the Seed Table like any other.
        let mut patched = buf;
        patched[28..36].copy_from_slice(&0u64.to_le_bytes());
        assert_corrupt(&patched);
    }

    #[test]
    fn rejects_seed_len_out_of_range() {
        let (buf, _) = small_index_bytes(20);
        for seed_len in [0u32, 257] {
            let mut patched = buf.clone();
            patched[8..12].copy_from_slice(&seed_len.to_le_bytes());
            assert_corrupt(&patched);
        }
    }
}
