//! A from-scratch implementation of the 32-bit xxHash algorithm (XXH32).
//!
//! The paper's Partitioned Seeding hardware encodes each 50 bp seed with
//! xxHash; the NMSL hashing units implement exactly this function in a
//! pipelined form. Implemented here from the public specification
//! (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>).

const PRIME32_1: u32 = 0x9E3779B1;
const PRIME32_2: u32 = 0x85EBCA77;
const PRIME32_3: u32 = 0xC2B2AE3D;
const PRIME32_4: u32 = 0x27D4EB2F;
const PRIME32_5: u32 = 0x165667B1;

#[inline]
fn round(acc: u32, input: u32) -> u32 {
    acc.wrapping_add(input.wrapping_mul(PRIME32_2))
        .rotate_left(13)
        .wrapping_mul(PRIME32_1)
}

/// Little-endian `u32` of a 4-byte slice (the callers hand it exact chunks).
#[inline]
fn read32(word: &[u8]) -> u32 {
    u32::from_le_bytes(word.try_into().expect("4-byte chunk"))
}

/// Computes XXH32 of `input` with the given `seed`.
///
/// The input is consumed through exact chunks — 16-byte stripes, then
/// 4-byte words, then the byte tail — so every load has a length the
/// compiler can see and none is bounds-checked: this is the function under
/// every seed lookup and every reference window of [`SeedMap::build`].
///
/// [`SeedMap::build`]: crate::SeedMap::build
///
/// ```
/// use gx_seedmap::xxh32;
/// assert_eq!(xxh32(b"", 0), 0x02CC_5D05);
/// assert_eq!(xxh32(b"a", 0), 0x550D_7456);
/// ```
pub fn xxh32(input: &[u8], seed: u32) -> u32 {
    let stripes = input.chunks_exact(16);
    let tail = stripes.remainder();
    let mut h32 = if input.len() >= 16 {
        let mut v1 = seed.wrapping_add(PRIME32_1).wrapping_add(PRIME32_2);
        let mut v2 = seed.wrapping_add(PRIME32_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME32_1);
        for stripe in stripes {
            let stripe: &[u8; 16] = stripe.try_into().expect("16-byte chunk");
            v1 = round(v1, read32(&stripe[0..4]));
            v2 = round(v2, read32(&stripe[4..8]));
            v3 = round(v3, read32(&stripe[8..12]));
            v4 = round(v4, read32(&stripe[12..16]));
        }
        v1.rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18))
    } else {
        seed.wrapping_add(PRIME32_5)
    };

    h32 = h32.wrapping_add(input.len() as u32);

    let words = tail.chunks_exact(4);
    let bytes = words.remainder();
    for word in words {
        h32 = h32.wrapping_add(read32(word).wrapping_mul(PRIME32_3));
        h32 = h32.rotate_left(17).wrapping_mul(PRIME32_4);
    }
    for &byte in bytes {
        h32 = h32.wrapping_add((byte as u32).wrapping_mul(PRIME32_5));
        h32 = h32.rotate_left(11).wrapping_mul(PRIME32_1);
    }

    h32 ^= h32 >> 15;
    h32 = h32.wrapping_mul(PRIME32_2);
    h32 ^= h32 >> 13;
    h32 = h32.wrapping_mul(PRIME32_3);
    h32 ^= h32 >> 16;
    h32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published XXH32 test vectors.
    #[test]
    fn known_vectors() {
        assert_eq!(xxh32(b"", 0), 0x02CC5D05);
        assert_eq!(xxh32(b"a", 0), 0x550D7456);
        assert_eq!(xxh32(b"abc", 0), 0x32D153FF);
    }

    /// Published vectors long enough for the 16-byte stripe loop (one and
    /// two stripes, each followed by words and a byte tail), plus the
    /// shortest input with a 4-byte word.
    #[test]
    fn long_input_known_vectors() {
        assert_eq!(
            xxh32(b"Nobody inspects the spammish repetition", 0),
            0xE229_3B2F
        );
        assert_eq!(xxh32(b"abcdefghijklmnopqrstuvwxyz", 0), 0x63A1_4D5F);
        assert_eq!(xxh32(b"abcd", 0), 0xA364_3705);
    }

    /// The byte-indexed implementation [`xxh32`] replaced, kept as the
    /// oracle of [`matches_byte_indexed_oracle`].
    fn xxh32_oracle(input: &[u8], seed: u32) -> u32 {
        let read32 =
            |i: usize| u32::from_le_bytes([input[i], input[i + 1], input[i + 2], input[i + 3]]);
        let len = input.len();
        let mut i = 0usize;
        let mut h32: u32;
        if len >= 16 {
            let mut v1 = seed.wrapping_add(PRIME32_1).wrapping_add(PRIME32_2);
            let mut v2 = seed.wrapping_add(PRIME32_2);
            let mut v3 = seed;
            let mut v4 = seed.wrapping_sub(PRIME32_1);
            while i + 16 <= len {
                v1 = round(v1, read32(i));
                v2 = round(v2, read32(i + 4));
                v3 = round(v3, read32(i + 8));
                v4 = round(v4, read32(i + 12));
                i += 16;
            }
            h32 = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
        } else {
            h32 = seed.wrapping_add(PRIME32_5);
        }
        h32 = h32.wrapping_add(len as u32);
        while i + 4 <= len {
            h32 = h32.wrapping_add(read32(i).wrapping_mul(PRIME32_3));
            h32 = h32.rotate_left(17).wrapping_mul(PRIME32_4);
            i += 4;
        }
        while i < len {
            h32 = h32.wrapping_add((input[i] as u32).wrapping_mul(PRIME32_5));
            h32 = h32.rotate_left(11).wrapping_mul(PRIME32_1);
            i += 1;
        }
        h32 ^= h32 >> 15;
        h32 = h32.wrapping_mul(PRIME32_2);
        h32 ^= h32 >> 13;
        h32 = h32.wrapping_mul(PRIME32_3);
        h32 ^= h32 >> 16;
        h32
    }

    #[test]
    fn matches_byte_indexed_oracle() {
        // Every length across eight stripes, arbitrary bytes and 2-bit codes
        // (what the index hashes), several seeds.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..130)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        let codes: Vec<u8> = bytes.iter().map(|b| b & 3).collect();
        for data in [&bytes, &codes] {
            for len in 0..=data.len() {
                for seed in [0, 1, 7, 0x9E37_79B1, u32::MAX] {
                    assert_eq!(
                        xxh32(&data[..len], seed),
                        xxh32_oracle(&data[..len], seed),
                        "len {len} seed {seed:#x}"
                    );
                }
            }
        }
        assert_eq!(xxh32_oracle(b"abcdefghijklmnopqrstuvwxyz", 0), 0x63A1_4D5F);
    }

    #[test]
    fn every_length_is_stable_and_distinct_enough() {
        // Hash all prefixes of a buffer; collisions among 100 short inputs
        // would indicate a broken implementation.
        let data: Vec<u8> = (0u8..100).map(|i| i.wrapping_mul(37)).collect();
        let mut seen = std::collections::HashSet::new();
        for l in 0..=data.len() {
            seen.insert(xxh32(&data[..l], 7));
        }
        assert_eq!(seen.len(), data.len() + 1);
    }

    #[test]
    fn seed_sensitivity() {
        let input = b"GATTACAGATTACAGATTACA";
        assert_ne!(xxh32(input, 0), xxh32(input, 0xDEAD_BEEF));
    }
}
