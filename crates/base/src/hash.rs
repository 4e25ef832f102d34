//! Stable, process-independent digests: a hasher for content
//! fingerprints and a word-wide checksum for stored bytes.
//!
//! `std::collections::hash_map::DefaultHasher` makes no stability promise
//! across Rust releases, which is unacceptable for fingerprints that key
//! *persisted* artifacts (the DTAS on-disk snapshot store): a toolchain
//! upgrade would silently orphan every snapshot. [`StableHasher`] is
//! 64-bit FNV-1a — fully specified here, byte-for-byte reproducible on
//! every platform of the same pointer width and endianness, and never
//! going to change without a deliberate constant bump.
//!
//! FNV-1a takes one multiply per byte. [`word_sum`] takes one per 8-byte
//! word, on four independent lanes, and checksums the store's segment
//! headers and answer sections, where it runs on every warm first answer.

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a, usable anywhere a [`Hasher`] is expected (including
/// `#[derive(Hash)]` types) when the digest must be stable across
/// processes and toolchain versions.
///
/// # Examples
///
/// ```
/// use rtl_base::hash::StableHasher;
/// use std::hash::{Hash, Hasher};
///
/// let mut h = StableHasher::new();
/// "ADD4".hash(&mut h);
/// 26u64.hash(&mut h);
/// // The digest is pinned: FNV-1a is fully specified, so this value can
/// // never drift under a toolchain upgrade.
/// assert_eq!(h.finish(), StableHasher::digest_of(|h| {
///     "ADD4".hash(h);
///     26u64.hash(h);
/// }));
/// ```
#[derive(Clone, Debug)]
pub struct StableHasher(u64);

impl StableHasher {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }

    /// Hashes everything `feed` writes and returns the digest.
    pub fn digest_of(feed: impl FnOnce(&mut StableHasher)) -> u64 {
        let mut h = StableHasher::new();
        feed(&mut h);
        h.finish()
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// FNV-1a digest of a byte slice — the checksum primitive of the DTAS
/// snapshot codec.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// Multiplier of a [`word_sum`] step (the 64-bit golden ratio). It is
/// odd, so multiplying by it is a bijection of `u64`.
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Rotation of a [`word_sum`] step: carries the multiply's well-mixed
/// high bits down into the low bits the next step's multiply spreads.
const WORD_ROT: u32 = 31;
/// The four lanes' starting values.
const WORD_SEED: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// One step: a bijection of `lane` for a fixed `word`, and of `word` for
/// a fixed `lane`.
fn word_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(WORD_MUL).rotate_left(WORD_ROT)
}

/// A 64-bit checksum of `bytes` that reads a little-endian word at a
/// time. Word `i` feeds lane `i % 4`; a partial last word is
/// zero-padded. The sum folds the byte length and then the four lanes.
///
/// Every step is a bijection of its lane, so changing any one word — any
/// run of bit flips inside one aligned 8-byte word, a single flip
/// included — always changes the sum. The four lanes are independent
/// chains, so their multiplies overlap. It detects damage; content
/// fingerprints use [`StableHasher`]. Its values are pinned by tests,
/// because persisted checksums depend on them.
///
/// # Examples
///
/// ```
/// use rtl_base::hash::word_sum;
///
/// let mut section = vec![0u8; 97];
/// let sum = word_sum(&section);
/// section[96] ^= 1;
/// assert_ne!(word_sum(&section), sum);
/// ```
pub fn word_sum(bytes: &[u8]) -> u64 {
    let mut lanes = WORD_SEED;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = word_step(
                *lane,
                u64::from_le_bytes(word.try_into().expect("8-byte word")),
            );
        }
    }
    for (lane, word) in lanes.iter_mut().zip(stripes.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = word_step(*lane, u64::from_le_bytes(padded));
    }
    lanes.into_iter().fold(bytes.len() as u64, word_step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    /// `len` deterministic bytes that differ from word to word.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn word_sum_known_vectors() {
        // Pinned: every persisted segment carries these sums, so a change
        // to the function must fail here, not reject every stored chain
        // as damaged.
        let pinned: [(usize, u64); 6] = [
            (0, 0x7eb8_c580_49c8_7e16),
            (7, 0x82bf_6619_60d8_1fce),
            (31, 0xc639_9c8d_5f65_fbaf),
            (32, 0x3878_6ab1_eb23_3bae),
            (33, 0x1cbd_147a_d2ec_1d1b),
            (1_000, 0x3442_2c7f_2d89_cf25),
        ];
        for (len, want) in pinned {
            assert_eq!(word_sum(&pattern(len)), want, "{len} bytes");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_word_sum() {
        // 97 bytes: three full 32-byte stripes through all four lanes,
        // then a one-byte tail.
        let bytes = pattern(97);
        let sum = word_sum(&bytes);
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(word_sum(&flipped), sum, "byte {at} bit {bit}");
            }
        }
    }

    #[test]
    fn word_sum_counts_zero_padding() {
        // The tail is zero-padded, so the length is what tells these apart.
        assert_ne!(word_sum(b"ab"), word_sum(b"ab\0"));
        assert_ne!(word_sum(b""), word_sum(&[0u8; 8]));
    }

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hash_trait_integration_is_deterministic() {
        let digest = |s: &str, n: u64| {
            StableHasher::digest_of(|h| {
                s.hash(h);
                n.hash(h);
            })
        };
        assert_eq!(digest("ND2", 1), digest("ND2", 1));
        assert_ne!(digest("ND2", 1), digest("ND2", 2));
        assert_ne!(digest("ND2", 1), digest("NR2", 1));
    }
}
