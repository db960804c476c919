//! A hasher for maps keyed by integers the process hands out itself.
//!
//! The resource tables on the negotiation path — reservation ids, route
//! pairs, node ids — are keyed by small integers no outside party
//! chooses, so the standard library's SipHash buys no flooding resistance
//! there and costs a keyed permutation on every probe. [`IntHasher`]
//! folds each `u64` written into it with one rotate, xor and multiply
//! (the FxHash step): sequential ids land in distinct buckets because
//! multiplying by an odd constant permutes the low bits, and the high
//! bits the table's control bytes read are well mixed. Other writes go
//! through the byte path, eight bytes a step.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map with integer keys hashed by [`IntHasher`]. Iteration order is
/// arbitrary; callers that expose an order sort first.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// The multiplier of the FxHash step (an odd 64-bit constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-keyed hasher for integer keys (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_pairs_are_ordered() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash((1u64, 2u64)), hash((2u64, 1u64)));
        assert_ne!(hash(0u64), hash(1u64));
    }

    #[test]
    fn sequential_ids_fill_distinct_buckets() {
        // A table of 2^k buckets indexes by the low k bits.
        let mask = (1u64 << 12) - 1;
        let mut buckets: Vec<u64> = (0..1u64 << 12).map(|id| hash(id) & mask).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1 << 12);
    }

    #[test]
    fn a_map_round_trips_and_byte_keys_hash_too() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for id in 0..10_000u64 {
            m.insert(id * 7, id);
        }
        assert!((0..10_000u64).all(|id| m[&(id * 7)] == id));
        assert_ne!(hash("abc"), hash("abd"));
    }
}
