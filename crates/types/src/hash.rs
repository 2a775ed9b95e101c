//! The hasher of the simulator's hot maps.
//!
//! The event loop keys its maps by small integers (`LineAddr`,
//! `EpochTag`). SipHash with a random per-process seed costs more than the
//! map operation around it, and its DoS resistance buys nothing here: the
//! keys come from the simulated workload, not from an adversary. This is
//! the Fx-style multiply hash (as in `rustc-hash`): each word is added to
//! the state and multiplied by an odd constant, and `finish` rotates the
//! well-mixed high bits down to where `HashMap` picks its bucket. It is
//! deterministic, so a map's iteration order no longer varies between
//! processes; nothing that reaches an output iterates these maps anyway.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the hash (odd, with well-spread bits; `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A fast, deterministic, non-cryptographic hasher for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high bits depend on every input bit; the low bits
        // (the bucket index) only on the low input bits. Lines of one LLC
        // bank share their low address bits, so rotate the high bits down.
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreId, EpochId, EpochTag, LineAddr};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        let tag = EpochTag::new(CoreId::new(3), EpochId::new(9));
        assert_eq!(hash_of(&tag), hash_of(&tag));
        assert_eq!(hash_of(&LineAddr::new(77)), hash_of(&LineAddr::new(77)));
        assert_ne!(hash_of(&LineAddr::new(77)), hash_of(&LineAddr::new(78)));
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn one_banks_lines_spread_over_buckets() {
        // Lines of one bank out of 32 share their low 5 bits; the bucket
        // index (low hash bits) must still vary across them.
        let mut buckets = FxHashSet::default();
        for k in 0..1024u64 {
            buckets.insert(hash_of(&LineAddr::new(k * 32 + 5)) & 1023);
        }
        assert!(
            buckets.len() > 512,
            "only {} of 1024 buckets",
            buckets.len()
        );
    }

    #[test]
    fn maps_work_with_the_alias() {
        let mut m: FxHashMap<LineAddr, u32> = FxHashMap::default();
        for k in 0..1000u64 {
            m.insert(LineAddr::new(k), k as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&LineAddr::new(123)), Some(&123));
    }
}
