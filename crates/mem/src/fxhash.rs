//! A small multiply-based hasher for the simulator's hot-path maps.
//!
//! The std `HashMap` default (SipHash-1-3) is keyed and DoS-resistant —
//! qualities the simulator does not need for maps keyed by line addresses
//! it generated itself — and costs tens of cycles per lookup. This is the
//! Firefox/rustc "Fx" construction: per word, `state = (state rotl 5 ^
//! word) * K` with a single odd 64-bit constant, and `finish` rotates the
//! state left by 26 bits. No external crate (offline build; see
//! vendor/README.md for the dependency policy).
//!
//! Why the rotate: `HashMap` picks a bucket from the hash's *low* bits, and
//! bit `i` of a product `x·K` depends only on bits `0..=i` of `x`. Returned
//! unrotated, the low 15 bits of a key's hash are a function of the key's
//! low 15 bits alone. The streaming workloads place their pools at 1 MiB
//! strides, so their line addresses differ mostly *above* bit 14: the
//! 17,472 lines of the `million` layout (273 pools of 64 lines) collapsed
//! into 128 of 32,768 buckets, and every directory, interner and write-set
//! lookup on them walked long probe chains. Rotating brings the product's
//! well-mixed middle bits (26..) down to the bucket index: that layout then
//! reaches 16,607 distinct low-15-bit values, and sequential keys keep
//! their spread. `streaming_pool_lines_spread_over_buckets` pins this.
//!
//! Iteration order of an `FxHashMap` differs from the std default, so this
//! must only back maps whose iteration order is never observable — every
//! use in this workspace is keyed lookup, `values()` aggregation, or
//! externally-sorted iteration, and `tests/golden_stats.rs` pins the
//! simulator's full output to catch any slip.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed by the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// `BuildHasher` producing [`FxHasher`]s (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// 2^64 / φ, forced odd — the multiplicative-hashing constant used by
/// rustc's FxHash.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The hasher state: one 64-bit word.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add_word(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl Fn(&mut FxHasher)) -> u64 {
        let mut h = FxHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        let a = hash_of(|h| h.write_u64(0x1234));
        let b = hash_of(|h| h.write_u64(0x1234));
        let c = hash_of(|h| h.write_u64(0x1235));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(hash_of(|h| h.write_u64(0)), hash_of(|h| h.write_u64(1)));
    }

    #[test]
    fn byte_stream_matches_padding_rules() {
        // A 12-byte write = one full word + one zero-padded tail word.
        let bytes = hash_of(|h| h.write(&[1u8; 12]));
        let manual = hash_of(|h| {
            h.add_word(u64::from_le_bytes([1; 8]));
            h.add_word(u64::from_le_bytes([1, 1, 1, 1, 0, 0, 0, 0]));
        });
        assert_eq!(bytes, manual);
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&(i as u32)));
        }
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(42);
        assert!(s.contains(&42) && !s.contains(&43));
    }

    #[test]
    fn line_addr_keys_spread_over_buckets() {
        // Sequential line addresses (the dominant key pattern) must not
        // collapse to a few hash values in the low bits HashMap uses.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..256u64 {
            low_bits.insert(hash_of(|h| h.write_u64(i)) & 0xff);
        }
        assert!(low_bits.len() > 128, "only {} distinct low bytes", low_bits.len());
    }

    #[test]
    fn streaming_pool_lines_spread_over_buckets() {
        // The line keys of the streaming workloads' address plan
        // (`asf-workloads::streaming`, `million` at 256 cores): 256
        // private pools at 1 TiB + tid·1 MiB, 16 cluster pools at 2 TiB +
        // cluster·1 MiB and one global pool at 3 TiB, 64 lines each. The
        // 1 MiB stride puts the pool index above bit 14 of the line
        // address, where an unrotated product cannot carry it into the low
        // bits a 32,768-bucket table indexes with.
        use crate::addr::{Addr, LineAddr};
        use std::hash::BuildHasher;
        const TIB: u64 = 1 << 40;
        const STRIDE: u64 = 1 << 20;
        let bases = (0..256)
            .map(|tid| TIB + tid * STRIDE)
            .chain((0..16).map(|cluster| 2 * TIB + cluster * STRIDE))
            .chain([3 * TIB]);
        let lines: Vec<LineAddr> = bases
            .flat_map(|base| (0..64).map(move |i| Addr(base + i * 64).line()))
            .collect();
        assert_eq!(lines.len(), 17_472);
        let build = FxBuildHasher::default();
        let homes: std::collections::HashSet<u64> =
            lines.iter().map(|l| build.hash_one(l) & 0x7fff).collect();
        assert!(homes.len() >= 8192, "only {} distinct low-15-bit homes", homes.len());
    }
}
