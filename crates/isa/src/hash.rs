//! Content hashing for cache keys and digests.
//!
//! The service layer addresses compiled programs and simulation results by
//! content: `(source hash, backend, security mode, config digest)`. Those
//! keys only ever live inside one process, so a small, dependency-free,
//! deterministic hash is all that is needed — FNV-1a over bytes.

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over byte chunks.
///
/// # Examples
///
/// ```
/// use sempe_isa::hash::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"hello ");
/// h.write(b"world");
/// assert_eq!(h.finish(), sempe_isa::hash::fnv1a(b"hello world"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorb a chunk of bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorb a `u64` (little-endian), e.g. a nested digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// A word-at-a-time hasher for in-process cache keys over large images
/// (see [`crate::program::Program::content_key`]).
///
/// FNV-1a takes one multiply per byte, in one dependency chain. This
/// takes one per 8-byte word, spread over four independent lanes, so
/// keying a 512 KiB image costs tens of microseconds instead of most of
/// a millisecond. Chunk lengths are absorbed too, so moving bytes from
/// one chunk to the next changes the key. Deterministic within a
/// release; not a wire format.
///
/// # Examples
///
/// ```
/// use sempe_isa::hash::WordHash;
///
/// let key = |bytes: &[u8]| {
///     let mut h = WordHash::new();
///     h.write(bytes);
///     h.finish()
/// };
/// assert_eq!(key(b"same image"), key(b"same image"));
/// assert_ne!(key(b"image one"), key(b"image two"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordHash {
    lanes: [u64; 4],
}

impl Default for WordHash {
    fn default() -> Self {
        Self::new()
    }
}

impl WordHash {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A fresh hasher.
    #[must_use]
    pub const fn new() -> Self {
        WordHash { lanes: [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3] }
    }

    #[inline]
    fn mix(h: u64, word: u64) -> u64 {
        (h.rotate_left(23) ^ word).wrapping_mul(Self::K)
    }

    /// Absorb a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.lanes[0] = Self::mix(self.lanes[0], v);
    }

    /// Absorb a chunk of bytes and its length.
    pub fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = Self::mix(*lane, word(w));
            }
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for (lane, w) in self.lanes.iter_mut().zip(&mut words) {
            *lane = Self::mix(*lane, word(w));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.lanes[3] = Self::mix(self.lanes[3], u64::from_le_bytes(last));
        }
    }

    /// The key so far: the lanes folded together and avalanched.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut h = self.lanes.iter().fold(0, |h, &lane| Self::mix(h, lane));
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chunking_is_transparent() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(fnv1a(b"secret=0"), fnv1a(b"secret=1"));
    }

    fn word_key(chunks: &[&[u8]]) -> u64 {
        let mut h = WordHash::new();
        for c in chunks {
            h.write(c);
        }
        h.finish()
    }

    #[test]
    fn word_hash_sees_every_byte_and_every_boundary() {
        // Every length through two blocks, with one byte flipped at every
        // position (lanes, the word remainder and the padded tail).
        for len in 0..80usize {
            let base: Vec<u8> = (0..len as u8).collect();
            let key = word_key(&[&base]);
            for i in 0..len {
                let mut flipped = base.clone();
                flipped[i] ^= 1;
                assert_ne!(word_key(&[&flipped]), key, "len {len}, byte {i}");
            }
            let mut longer = base.clone();
            longer.push(0);
            assert_ne!(word_key(&[&longer]), key, "a trailing zero byte counts, len {len}");
        }
        assert_ne!(word_key(&[b"ab", b"c"]), word_key(&[b"a", b"bc"]));
    }
}
