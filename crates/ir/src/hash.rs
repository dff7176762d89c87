//! A fast, deterministic hasher for the compile pipeline's maps.
//!
//! The front end, the analyses, the instrumentation pass and the verifier
//! key their lookup tables on identifiers, registers and [`InstLoc`]s —
//! small keys hashed once per instruction. Std's SipHash is built to
//! resist collision flooding from untrusted input, which these tables do
//! not face, and it dominates their cost. [`FxHasher`] is the
//! multiply-rotate word hash rustc uses for the same job.
//!
//! It is unseeded, so iteration order is the same in every process. The
//! pipeline does not rely on that: no compiler output may depend on map
//! iteration order (std's `RandomState` already reseeds per process, and
//! outputs were byte-identical across processes before this hasher
//! existed). Ordered results come from `BTreeMap`/`BTreeSet` or from
//! walking the module in order.
//!
//! [`InstLoc`]: crate::InstLoc

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The rustc-style Fx word hash: `h = (h.rotl(5) ^ word) * K` per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
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
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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
        self.hash
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
    use crate::{BlockId, FuncId, InstLoc};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_and_distinguishes_keys() {
        let a = InstLoc {
            func: FuncId(1),
            block: BlockId(2),
            inst: 3,
        };
        let b = InstLoc { inst: 4, ..a };
        assert_eq!(hash_of(&a), hash_of(&a));
        assert_ne!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&"strlen"), hash_of(&"strcpy"));
        // Tails shorter than a word still count.
        assert_ne!(hash_of(&"a0"), hash_of(&"a1"));
    }

    #[test]
    fn maps_work_with_borrowed_keys() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("main".into(), 1);
        assert_eq!(m.get("main"), Some(&1));
        let s: FxHashSet<&str> = ["x", "y"].into_iter().collect();
        assert!(s.contains("x") && !s.contains("z"));
    }
}
