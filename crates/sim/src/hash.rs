//! A fast, **deterministic** hasher for the simulator's hot-path maps.
//!
//! The standard library's default `RandomState`/SipHash is both slower than needed for the
//! small fixed-size keys the substrates use (connection ids, addresses, ports) and seeded per
//! process, which makes map iteration order differ between runs. The simulator never hashes
//! attacker-controlled input, so every hot map uses this FxHash-style multiply-xor hasher
//! instead: a few cycles per word, and byte-identical iteration order on every run — one less
//! place where reproducibility depends on luck.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher (rustc's interner hash): per word,
/// `state = (state.rotate_left(5) ^ word) * SEED`.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
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

    #[inline]
    fn finish(&self) -> u64 {
        // Finalize with an avalanche so low-entropy keys (small sequential ids) still spread
        // over the map's buckets.
        crate::splitmix64(self.state)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` on the deterministic fast hasher.
#[expect(
    clippy::disallowed_types,
    reason = "every instantiation pins the deterministic hasher"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` on the deterministic fast hasher.
#[expect(
    clippy::disallowed_types,
    reason = "every instantiation pins the deterministic hasher"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn maps_work_with_mixed_key_types() {
        let mut m: FxHashMap<(usize, u16), &str> = FxHashMap::default();
        m.insert((3, 9), "a");
        m.insert((4, 9), "b");
        assert_eq!(m.get(&(3, 9)), Some(&"a"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000 {
            s.insert(i);
        }
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn sequential_ids_spread() {
        // The avalanche must keep sequential ids from colliding into few buckets: check that
        // the low 8 bits of the hashes of 0..256 hit a healthy number of distinct values.
        let mut buckets = std::collections::BTreeSet::new();
        for i in 0u64..256 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            buckets.insert(h.finish() & 0xff);
        }
        assert!(
            buckets.len() > 128,
            "only {} distinct buckets",
            buckets.len()
        );
    }
}
