//! Fast deterministic hashing for packed chunk keys.
//!
//! The hot maps of the cache layer (`ChunkCache`'s chunk map, the CLOCK
//! rings' position index, the sparse count/cost cells, pin sets) are all
//! keyed by a [`PackedChunkKey`] — a single `u64` produced by
//! [`crate::ChunkKey::pack`]. The std `HashMap` default (SipHash-1-3 with
//! per-process random seeding) is overkill for these trusted, internally
//! generated integer keys: probe/aggregate profiles show a visible share
//! of time spent hashing two-field keys.
//!
//! [`FxHasher`] is a hand-rolled FxHash-style multiply-xor hasher (the
//! rustc-hash design): one rotate, one xor and one multiply per `u64`. It
//! is fully deterministic — the same key set always produces the same
//! table layout and iteration order, which keeps runs reproducible —
//! and must only be used with trusted keys (no DoS resistance).
//!
//! The module is also home to the repo's one [`SplitMix64`] stream and its
//! stateless step [`mix64`]: like the hasher, deterministic by
//! construction and shared by every crate above this one.

use std::hash::{BuildHasherDefault, Hasher};

/// A chunk key packed into a single `u64` by [`crate::ChunkKey::pack`].
pub type PackedChunkKey = u64;

/// Multiplier from the FxHash family (derived from the golden ratio, as
/// used by rustc's `FxHasher`): odd, with well-mixed high bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style multiply-xor hasher: `state = (rotl5(state) ^ word) * SEED`
/// per 8-byte word. Deterministic across processes and platforms.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A hash map keyed by packed chunk keys behind the fast hasher.
pub type PackedMap<V> = std::collections::HashMap<PackedChunkKey, V, FxBuildHasher>;

/// A hash set of packed chunk keys behind the fast hasher.
pub type PackedSet = std::collections::HashSet<PackedChunkKey, FxBuildHasher>;

/// SplitMix64's state increment (the golden-ratio "gamma").
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 step: the output for state `z` after one increment — a
/// stateless 64-bit mixer (seed derivation, ring points, per-cell values).
#[inline]
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: the repo's seeded deterministic random stream (fault
/// injectors, sweep rigs) — the same seed always yields the same sequence.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(SPLITMIX_GAMMA);
        out
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(key: u64) -> u64 {
        FxBuildHasher::default().hash_one(key)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(0), hash_of(0));
        assert_eq!(hash_of(0xdead_beef), hash_of(0xdead_beef));
    }

    #[test]
    fn distinct_keys_hash_apart() {
        // Not a distribution test, just a sanity check that nearby packed
        // keys (same gb, consecutive chunks) don't collapse.
        let hashes: std::collections::HashSet<u64> = (0..1024u64).map(hash_of).collect();
        assert_eq!(hashes.len(), 1024);
    }

    #[test]
    fn write_matches_write_u64_per_word() {
        let mut a = FxHasher::default();
        a.write_u64(0x0123_4567_89ab_cdef);
        let mut b = FxHasher::default();
        b.write(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn splitmix64_matches_the_published_stream() {
        // The reference implementation's first outputs for seed 0.
        let mut rng = SplitMix64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        let x = SplitMix64(7).next_f64();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn packed_map_round_trip() {
        let mut m: PackedMap<u32> = PackedMap::default();
        for i in 0..100u64 {
            m.insert(i << 40 | i, i as u32);
        }
        for i in 0..100u64 {
            assert_eq!(m.get(&(i << 40 | i)), Some(&(i as u32)));
        }
    }
}
