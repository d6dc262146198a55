//! A fast, deterministic hasher for maps keyed by ids the program assigns
//! itself.
//!
//! The online analyzer looks up one sliding window and a handful of
//! correlator entries per ingested batch entry, and the simulator looks up
//! a capture series per packet and its ground-truth records per hop; with
//! the default SipHash those lookups dominate both hot paths. Keys here are
//! node, class, request and pair indices — short integers the topology and
//! the program hand out — so the Fx polynomial hash (rotate, xor, multiply
//! per word) is both safe and several times cheaper. Maps keyed by strings
//! from outside input (node names read from a log, say) keep SipHash.
//! Determinism is also a feature: behavior must not vary run to run under
//! a randomized seed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the Fx family: a 64-bit odd constant derived from
/// π that mixes low-entropy integer keys well enough for open addressing.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time polynomial hasher (the rustc "FxHash" construction).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
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
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized, deterministic.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let key = (7u32, 13u32);
        assert_eq!(hash_of(&key), hash_of(&key));
        assert_ne!(hash_of(&(7u32, 13u32)), hash_of(&(13u32, 7u32)));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(31)), i as u64);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i.wrapping_mul(31))), Some(&(i as u64)));
        }
    }
}
