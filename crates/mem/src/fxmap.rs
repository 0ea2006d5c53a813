//! A fast integer-keyed hash map for the model's small lookup tables.
//!
//! `sais-core`'s `Cluster` keeps its segment-plan and lossless-TCP memo
//! tables (and, in debug builds, the slab oracle's id index) in these
//! maps. The plan memo is probed once per strip, and `std`'s SipHash is
//! needlessly slow for integer keys.
//! (The line directory itself is a paged dense array, see the private
//! `linetab` module.) This is the well-known Fx multiply-rotate hash (as
//! used by rustc) wrapped for `std::collections::HashMap`, implemented
//! locally so no extra dependency is needed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Firefox/rustc-style multiplicative hasher for small keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_map_operations() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 37, i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 37)), Some(&(i as u32)));
        }
        assert_eq!(m.remove(&37), Some(1));
        assert_eq!(m.get(&37), None);
    }

    #[test]
    fn hash_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u64(0xDEAD_BEF0);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn distinct_keys_spread() {
        // Sanity-check that sequential keys don't collide to few buckets.
        let mut hashes: Vec<u64> = (0..256u64)
            .map(|k| {
                let mut h = FxHasher::default();
                h.write_u64(k);
                h.finish() >> 56 // top byte
            })
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert!(hashes.len() > 100, "top byte should vary: {}", hashes.len());
    }
}
