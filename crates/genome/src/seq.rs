use crate::{Base, GenomeError};

/// A DNA sequence packed two bits per base (32 bases per `u64` word).
///
/// `DnaSeq` is the workhorse sequence type of the workspace: reference
/// chromosomes, reads and seeds are all `DnaSeq`s. Random access is O(1) and
/// the packed words are exposed for bit-parallel algorithms (the light
/// aligner's Hamming masks operate directly on 2-bit codes).
///
/// ```
/// use gx_genome::{Base, DnaSeq};
///
/// # fn main() -> Result<(), gx_genome::GenomeError> {
/// let s = DnaSeq::from_ascii(b"ACGTT")?;
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.get(1), Base::C);
/// assert_eq!(s.revcomp().to_string(), "AACGT");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    words: Vec<u64>,
    len: usize,
}

impl DnaSeq {
    /// Creates an empty sequence.
    pub fn new() -> DnaSeq {
        DnaSeq::default()
    }

    /// Creates an empty sequence with room for `cap` bases.
    pub fn with_capacity(cap: usize) -> DnaSeq {
        DnaSeq {
            words: Vec::with_capacity(cap.div_ceil(32)),
            len: 0,
        }
    }

    /// Parses an ASCII byte string of `ACGTacgt`.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidBase`] on any other byte (including `N`;
    /// ambiguous reference positions are tracked separately by
    /// [`Chromosome`](crate::Chromosome) masks).
    pub fn from_ascii(ascii: &[u8]) -> Result<DnaSeq, GenomeError> {
        let mut s = DnaSeq::new();
        if s.pack_ascii(ascii) {
            return Ok(s);
        }
        let bad = ascii.iter().find(|&&ch| PACK[ch as usize] == INVALID);
        Err(GenomeError::InvalidBase(*bad.expect("pack saw a bad byte")))
    }

    /// Appends an ASCII byte string, packing `ACGTacgt` to their codes and
    /// every other byte (`N`, ambiguity codes, stray characters) to `A` —
    /// the lossy convention of mapping-oriented 2-bit encodings, and what
    /// [`FastqReader`](crate::fastq::FastqReader) stores for a sequence
    /// line.
    pub fn extend_from_ascii_lossy(&mut self, ascii: &[u8]) {
        self.pack_ascii(ascii);
    }

    /// The one ASCII → 2-bit packer: 32 bytes per word through [`PACK`].
    /// Returns whether every byte was a nucleotide; the others pack as `A`.
    fn pack_ascii(&mut self, ascii: &[u8]) -> bool {
        self.words.reserve(ascii.len().div_ceil(32));
        let mut seen = 0u8;
        for chunk in ascii.chunks(32) {
            let mut w = 0u64;
            for (i, &ch) in chunk.iter().enumerate() {
                let code = PACK[ch as usize];
                seen |= code;
                w |= ((code & 3) as u64) << (2 * i);
            }
            self.append_word(w, chunk.len());
        }
        seen & INVALID == 0
    }

    /// Builds a sequence from raw 2-bit codes.
    ///
    /// # Panics
    ///
    /// Panics if a code is above 3.
    pub fn from_codes(codes: &[u8]) -> DnaSeq {
        let mut s = DnaSeq::with_capacity(codes.len());
        for chunk in codes.chunks(32) {
            let mut w = 0u64;
            for (i, &c) in chunk.iter().enumerate() {
                w |= (Base::from_code(c).code() as u64) << (2 * i);
            }
            s.append_word(w, chunk.len());
        }
        s
    }

    /// Appends the `n <= 32` bases held in the low `2n` bits of `w` (higher
    /// bits zero), funnel-shifting across the word boundary when the
    /// current length is not a multiple of 32.
    #[inline]
    fn append_word(&mut self, w: u64, n: usize) {
        debug_assert!(n <= 32 && (n == 32 || w >> (2 * n) == 0));
        if n == 0 {
            return;
        }
        let sh = (self.len % 32) * 2;
        if sh == 0 {
            self.words.push(w);
        } else {
            *self.words.last_mut().expect("partial last word") |= w << sh;
            if sh + 2 * n > 64 {
                self.words.push(w >> (64 - sh));
            }
        }
        self.len += n;
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Removes all bases, keeping the allocated capacity. This is what makes
    /// a `DnaSeq` reusable as scratch: `clear` + `extend`/`revcomp_into`
    /// cycles stop allocating once the buffer has seen its high-water mark.
    #[inline]
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Whether the sequence has no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let (word, shift) = (self.len / 32, (self.len % 32) * 2);
        if shift == 0 {
            self.words.push(base.code() as u64);
        } else {
            self.words[word] |= (base.code() as u64) << shift;
        }
        self.len += 1;
    }

    /// The base at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn get(&self, pos: usize) -> Base {
        assert!(
            pos < self.len,
            "index {pos} out of bounds (len {})",
            self.len
        );
        Base::from_code_unchecked(self.code_at(pos))
    }

    /// 2-bit code at `pos` (unchecked against `len` in release builds only
    /// through the underlying slice indexing; the word access itself is
    /// bounds-checked).
    #[inline]
    pub fn code_at(&self, pos: usize) -> u8 {
        ((self.words[pos / 32] >> ((pos % 32) * 2)) & 3) as u8
    }

    /// Overwrites the base at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn set(&mut self, pos: usize, base: Base) {
        assert!(
            pos < self.len,
            "index {pos} out of bounds (len {})",
            self.len
        );
        let (word, shift) = (pos / 32, (pos % 32) * 2);
        self.words[word] = (self.words[word] & !(3u64 << shift)) | ((base.code() as u64) << shift);
    }

    /// Iterator over the bases.
    pub fn iter(&self) -> Iter<'_> {
        Iter { seq: self, pos: 0 }
    }

    /// Copies `range` into a new sequence.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn subseq(&self, range: std::ops::Range<usize>) -> DnaSeq {
        let mut out = DnaSeq::new();
        self.copy_range_into(range, &mut out);
        out
    }

    /// Copies `range` into `out` (cleared first), word-at-a-time. The
    /// allocation-free counterpart of [`DnaSeq::subseq`] for scratch reuse.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn copy_range_into(&self, range: std::ops::Range<usize>, out: &mut DnaSeq) {
        assert!(range.end <= self.len, "subseq range out of bounds");
        out.clear();
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return;
        }
        let n_words = n.div_ceil(32);
        let w0 = range.start / 32;
        let sh = (range.start % 32) * 2;
        out.words.reserve(n_words);
        if sh == 0 {
            out.words.extend_from_slice(&self.words[w0..w0 + n_words]);
        } else {
            out.words
                .extend((w0..w0 + n_words).map(|w| self.funnel_word(w, sh)));
        }
        out.len = n;
        let used = n % 32;
        if used != 0 {
            *out.words.last_mut().unwrap() &= (1u64 << (used * 2)) - 1;
        }
    }

    /// The 32 bases that start `sh / 2` bases into word `w` (`sh` even,
    /// below 64), funnel-shifted out of it and its successor; bases past the
    /// last word read as zero.
    #[inline]
    fn funnel_word(&self, w: usize, sh: usize) -> u64 {
        let lo = self.words[w] >> sh;
        if sh == 0 {
            return lo;
        }
        lo | self.words.get(w + 1).copied().unwrap_or(0) << (64 - sh)
    }

    /// Appends all bases of `other`, a packed word at a time.
    pub fn extend_from_seq(&mut self, other: &DnaSeq) {
        self.words.reserve(other.words.len());
        let mut left = other.len;
        for &w in &other.words {
            let n = left.min(32);
            self.append_word(w, n);
            left -= n;
        }
    }

    /// Reverse complement of the sequence.
    pub fn revcomp(&self) -> DnaSeq {
        let mut out = DnaSeq::new();
        self.revcomp_into(&mut out);
        out
    }

    /// Writes the reverse complement into `out` (cleared first), operating a
    /// packed word at a time: complement every 2-bit lane (`code ^ 3` is a
    /// bitwise NOT of the lane), reverse the lane order within each word,
    /// read the words back-to-front, then funnel-shift away the junk lanes
    /// that came from the final input word's unused high bits.
    pub fn revcomp_into(&self, out: &mut DnaSeq) {
        out.clear();
        out.len = self.len;
        if self.len == 0 {
            return;
        }
        let nw = self.words.len();
        out.words.reserve(nw);
        let sh = ((32 - self.len % 32) % 32) * 2;
        let rc = |j: usize| rev2_word(!self.words[nw - 1 - j]);
        let mut cur = rc(0);
        for j in 0..nw {
            let next = if j + 1 < nw { rc(j + 1) } else { 0 };
            let w = if sh == 0 {
                cur
            } else {
                (cur >> sh) | (next << (64 - sh))
            };
            out.words.push(w);
            cur = next;
        }
        let used = self.len % 32;
        if used != 0 {
            *out.words.last_mut().unwrap() &= (1u64 << (used * 2)) - 1;
        }
    }

    /// Packs bases `[pos, pos + k)` into the low `2k` bits of a `u64`
    /// (base at `pos` in the lowest bits). Used for minimizer k-mers.
    ///
    /// # Panics
    ///
    /// Panics if `k > 32` or the range is out of bounds.
    #[inline]
    pub fn kmer_u64(&self, pos: usize, k: usize) -> u64 {
        assert!(k <= 32, "k-mer too wide for u64");
        assert!(pos + k <= self.len, "k-mer range out of bounds");
        let mut v = 0u64;
        for i in 0..k {
            v |= (self.code_at(pos + i) as u64) << (2 * i);
        }
        v
    }

    /// ASCII bytes (`ACGT`) of the whole sequence.
    pub fn to_ascii(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.append_ascii_to(&mut out);
        out
    }

    /// Appends the ASCII bytes (`ACGT`) of the whole sequence to `out` —
    /// the one 2-bit → ASCII unpacker, shared by the SAM renderer, the
    /// FASTQ writer and `Display`.
    pub fn append_ascii_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.len);
        for (chunk, n) in self.ascii_chunks() {
            out.extend_from_slice(&chunk[..n]);
        }
    }

    /// The sequence's ASCII one packed word at a time: 32 bytes (four bases
    /// per [`UNPACK`] lookup) and how many of them are bases.
    fn ascii_chunks(&self) -> impl Iterator<Item = ([u8; 32], usize)> + '_ {
        self.words.iter().enumerate().map(|(i, w)| {
            let mut chunk = [0u8; 32];
            for (quad, byte) in chunk.chunks_exact_mut(4).zip(w.to_le_bytes()) {
                quad.copy_from_slice(&UNPACK[byte as usize]);
            }
            (chunk, (self.len - 32 * i).min(32))
        })
    }

    /// Raw 2-bit codes of the whole sequence, one per byte. This is the byte
    /// stream the SeedMap hashes (xxh32 over codes).
    pub fn to_codes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.codes_into(0..self.len, &mut buf);
        buf
    }

    /// Copies the 2-bit codes of `range` into `buf` (resizing it), eight
    /// codes per step: the 32 bases from the range's start onwards are
    /// funnel-shifted into one word and each 16-bit quarter is spread to
    /// eight bytes (`spread_codes`). Whole words are written, then the
    /// buffer is cut back to the range's length.
    pub fn codes_into(&self, range: std::ops::Range<usize>, buf: &mut Vec<u8>) {
        assert!(range.end <= self.len, "range out of bounds");
        buf.clear();
        let n = range.end.saturating_sub(range.start);
        let n_words = n.div_ceil(32);
        let w0 = range.start / 32;
        let sh = (range.start % 32) * 2;
        buf.reserve(n_words * 32);
        for k in 0..n_words {
            let w = self.funnel_word(w0 + k, sh);
            for quarter in 0..4 {
                buf.extend_from_slice(&spread_codes((w >> (16 * quarter)) as u16));
            }
        }
        buf.truncate(n);
    }

    /// The packed 2-bit words backing the sequence (32 bases per word,
    /// little-endian within the word). The final word's unused high bits are
    /// zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// [`PACK`] entry of a byte that is not a nucleotide; `& 3` packs it as `A`.
const INVALID: u8 = 4;

/// ASCII byte → 2-bit code (either case), [`INVALID`] for anything else.
const PACK: [u8; 256] = {
    let mut t = [INVALID; 256];
    let mut code = 0;
    while code < 4 {
        let ch = b"ACGT"[code];
        t[ch as usize] = code as u8;
        t[ch.to_ascii_lowercase() as usize] = code as u8;
        code += 1;
    }
    t
};

/// One packed byte (four bases, first base in the low bits) → its ASCII.
const UNPACK: [[u8; 4]; 256] = {
    let mut t = [[0u8; 4]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut i = 0;
        while i < 4 {
            t[byte][i] = b"ACGT"[(byte >> (2 * i)) & 3];
            i += 1;
        }
        byte += 1;
    }
    t
};

/// Spreads eight packed 2-bit codes (first base in the low bits) to one
/// byte each, in sequence order: three shift-or-mask steps that halve the
/// group width (8 → 4 → 2 bits) while doubling the lane width.
#[inline]
fn spread_codes(packed: u16) -> [u8; 8] {
    let mut v = packed as u64;
    v = (v | (v << 24)) & 0x0000_00ff_0000_00ff;
    v = (v | (v << 12)) & 0x000f_000f_000f_000f;
    v = (v | (v << 6)) & 0x0303_0303_0303_0303;
    v.to_le_bytes()
}

/// Reverses the order of the 32 two-bit lanes in a word (byte swap, then
/// swap the four lane pairs within each byte).
#[inline]
fn rev2_word(w: u64) -> u64 {
    let w = w.swap_bytes();
    ((w & 0x0303_0303_0303_0303) << 6)
        | ((w & 0x0c0c_0c0c_0c0c_0c0c) << 2)
        | ((w & 0x3030_3030_3030_3030) >> 2)
        | ((w & 0xc0c0_c0c0_c0c0_c0c0) >> 6)
}

impl std::fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (chunk, n) in self.ascii_chunks() {
            f.write_str(std::str::from_utf8(&chunk[..n]).expect("ACGT is ASCII"))?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for DnaSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.len <= 64 {
            write!(f, "DnaSeq(\"{self}\")")
        } else {
            write!(f, "DnaSeq(len={}, \"{}…\")", self.len, self.subseq(0..64))
        }
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> DnaSeq {
        let mut s = DnaSeq::new();
        for b in iter {
            s.push(b);
        }
        s
    }
}

impl Extend<Base> for DnaSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl std::str::FromStr for DnaSeq {
    type Err = GenomeError;

    fn from_str(s: &str) -> Result<DnaSeq, GenomeError> {
        DnaSeq::from_ascii(s.as_bytes())
    }
}

/// Iterator over the bases of a [`DnaSeq`], produced by [`DnaSeq::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    seq: &'a DnaSeq,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = Base;

    fn next(&mut self) -> Option<Base> {
        if self.pos >= self.seq.len {
            return None;
        }
        let b = Base::from_code_unchecked(self.seq.code_at(self.pos));
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.seq.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a DnaSeq {
    type Item = Base;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_roundtrip() {
        let s = DnaSeq::from_ascii(b"ACGTACGTTGCA").unwrap();
        assert_eq!(s.to_ascii(), b"ACGTACGTTGCA");
        assert_eq!(s.to_string(), "ACGTACGTTGCA");
    }

    #[test]
    fn push_get_across_word_boundary() {
        let mut s = DnaSeq::new();
        for i in 0..100 {
            s.push(Base::from_code((i % 4) as u8));
        }
        for i in 0..100 {
            assert_eq!(s.get(i).code(), (i % 4) as u8);
        }
    }

    #[test]
    fn set_overwrites() {
        let mut s = DnaSeq::from_ascii(b"AAAA").unwrap();
        s.set(2, Base::T);
        assert_eq!(s.to_string(), "AATA");
        s.set(2, Base::C);
        assert_eq!(s.to_string(), "AACA");
    }

    #[test]
    fn revcomp_known() {
        let s = DnaSeq::from_ascii(b"AACGT").unwrap();
        assert_eq!(s.revcomp().to_string(), "ACGTT");
    }

    #[test]
    fn revcomp_involution() {
        let s = DnaSeq::from_ascii(b"ACGGGTTTACACGT").unwrap();
        assert_eq!(s.revcomp().revcomp(), s);
    }

    #[test]
    fn subseq_matches_slice() {
        let s = DnaSeq::from_ascii(b"ACGTACGTAC").unwrap();
        assert_eq!(s.subseq(2..7).to_string(), "GTACG");
        assert_eq!(s.subseq(0..0).len(), 0);
    }

    #[test]
    fn kmer_u64_packs_low_to_high() {
        let s = DnaSeq::from_ascii(b"ACGT").unwrap();
        // A=0, C=1, G=2, T=3 -> 0 | 1<<2 | 2<<4 | 3<<6
        assert_eq!(s.kmer_u64(0, 4), 0b11_10_01_00);
    }

    #[test]
    fn iterator_len() {
        let s = DnaSeq::from_ascii(b"ACGTACG").unwrap();
        assert_eq!(s.iter().len(), 7);
        assert_eq!(s.iter().count(), 7);
    }

    #[test]
    fn invalid_base_rejected() {
        assert!(DnaSeq::from_ascii(b"ACNGT").is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let s: DnaSeq = [Base::A, Base::C, Base::G].into_iter().collect();
        assert_eq!(s.to_string(), "ACG");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let s = DnaSeq::from_ascii(b"ACGT").unwrap();
        let _ = s.get(4);
    }

    /// Deterministic pseudo-random sequence for the word-level equivalence
    /// tests (xorshift so no RNG dependency).
    fn arb_seq(len: usize, mut state: u64) -> DnaSeq {
        let mut s = DnaSeq::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            s.push(Base::from_code((state & 3) as u8));
        }
        s
    }

    #[test]
    fn revcomp_into_matches_per_base_reference() {
        for len in [0, 1, 5, 31, 32, 33, 63, 64, 65, 100, 150, 257] {
            let s = arb_seq(len, 0x9E37_79B9_7F4A_7C15 ^ len as u64);
            let reference: DnaSeq = (0..len)
                .rev()
                .map(|i| Base::from_code_unchecked(s.code_at(i) ^ 3))
                .collect();
            let mut out = DnaSeq::from_ascii(b"TTTT").unwrap(); // dirty buffer
            s.revcomp_into(&mut out);
            assert_eq!(out, reference, "len {len}");
            assert_eq!(out.words().len(), reference.words().len(), "len {len}");
            assert_eq!(s.revcomp(), reference, "len {len}");
        }
    }

    #[test]
    fn copy_range_into_matches_per_base_reference() {
        let s = arb_seq(200, 42);
        let mut out = DnaSeq::new();
        for (start, end) in [
            (0, 0),
            (0, 200),
            (1, 33),
            (31, 32),
            (32, 96),
            (7, 199),
            (64, 64),
        ] {
            let reference: DnaSeq = (start..end)
                .map(|i| Base::from_code_unchecked(s.code_at(i)))
                .collect();
            s.copy_range_into(start..end, &mut out);
            assert_eq!(out, reference, "range {start}..{end}");
            assert_eq!(s.subseq(start..end), reference, "range {start}..{end}");
        }
    }

    #[test]
    fn codes_into_word_path_matches_per_base() {
        // Every start phase within a word x every length across three
        // words, then whole reads, all through one dirty reused buffer.
        let s = arb_seq(151, 7);
        let mut buf = vec![9u8; 4];
        let ranges = (0..32)
            .flat_map(|start| (0..=100).map(move |len| (start, start + len)))
            .chain([
                (0, 150),
                (0, 151),
                (1, 151),
                (100, 150),
                (64, 64),
                (151, 151),
            ]);
        for (start, end) in ranges {
            s.codes_into(start..end, &mut buf);
            let reference: Vec<u8> = (start..end).map(|i| s.code_at(i)).collect();
            assert_eq!(buf, reference, "range {start}..{end}");
        }
        assert_eq!(
            spread_codes(0b00_01_10_11_00_00_01_11),
            [3, 1, 0, 0, 3, 2, 1, 0]
        );
    }

    #[test]
    fn clear_keeps_capacity_and_resets() {
        let mut s = arb_seq(100, 3);
        let cap_words = s.words().len();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.extend(arb_seq(100, 3).iter());
        assert_eq!(s, arb_seq(100, 3));
        assert_eq!(s.words().len(), cap_words);
    }
}
