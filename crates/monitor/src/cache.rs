//! Per-callsite verification cache — the memoization half of tier-2 trap
//! verification (the other half is batched remote reads).
//!
//! Call-Type and Control-Flow verdicts are pure functions of code addresses
//! and compiler metadata, both of which are fixed for the life of the
//! process: the same `(syscall nr, callsite)` pair always yields the same
//! CT verdict, and the same return-address chain always yields the same CF
//! verdict. SFIP and the eBPF syscall-security work both get their low
//! overheads from exactly this observation — derive per-site state once,
//! reuse it on every subsequent trap.
//!
//! Two caches are kept:
//!
//! * **CT cache** — verdict keyed by `(nr, callsite)`. A hit skips the
//!   class/callsite re-validation (the remote read that recovers the
//!   callsite is still paid — it is what identifies the cache key).
//! * **Walk cache** — verdict keyed by a hash of the observed
//!   return-address chain (plus how the walk terminated). The chain is
//!   still *fetched* on every trap — the paper's threat model requires
//!   looking at the actual stack — but pairwise callee→caller validation
//!   against metadata is skipped on a hit.
//!
//! The walk cache also serves traps under the Argument-Integrity context.
//! AI consults argument values and frame slots that legally change between
//! traps with identical return-address chains, so no AI input is cached:
//! an entry holds only the chain verdict, and `verify_args` always runs on
//! the freshly read chain (see DESIGN.md §6b).
//!
//! Deny messages are deterministic functions of the same inputs, so a
//! cached violation reproduces the exact verdict string of a fresh one.

use crate::verify::Violation;
use std::collections::HashMap;

/// A memoized verification outcome: pass, or the violation it produced.
/// The full structured [`Violation`] is cached, so a hit reproduces the
/// rule-level provenance of a fresh verdict, not just its message.
pub type CachedVerdict = Result<(), Violation>;

/// Verification cache plus the cache and remote-read counters surfaced in
/// [`crate::MonitorStats`].
///
/// Walk entries store the **full chain key** (the exact word sequence that
/// was hashed) alongside the verdict, and a lookup only counts as a hit
/// when the stored chain compares equal. The 64-bit FNV-1a hash alone is
/// not a sound cache key: two distinct return-address chains that collide
/// would share a verdict, and a cached `Ok` reused for a different chain
/// is a false-allow primitive. With full-key confirmation a collision is
/// served as a miss (and counted), so aliasing can never cross chains.
#[derive(Debug, Clone, Default)]
pub struct VerifyCache {
    ct: HashMap<(u32, u64), CachedVerdict>,
    walks: HashMap<u64, (Box<[u64]>, CachedVerdict)>,
    /// CT verdicts served from cache.
    pub ct_hits: u64,
    /// Walk verdicts served from cache (full chain key confirmed equal).
    pub walk_hits: u64,
    /// Walk lookups whose hash matched but whose stored chain differed —
    /// aliasing caught by full-key confirmation, served as misses.
    pub walk_collisions: u64,
    /// Frame heads fetched, each with one batched read.
    pub batched_frame_reads: u64,
    /// Pointee buffers fetched, each with one bounded prefix read.
    pub batched_pointee_reads: u64,
}

impl VerifyCache {
    /// Empty cache.
    pub fn new() -> Self {
        VerifyCache::default()
    }

    /// Looks up the CT verdict for `(nr, callsite)`, counting a hit.
    pub fn ct_lookup(&mut self, nr: u32, callsite: u64) -> Option<CachedVerdict> {
        let v = self.ct.get(&(nr, callsite)).cloned();
        if v.is_some() {
            self.ct_hits += 1;
        }
        v
    }

    /// Memoizes the CT verdict for `(nr, callsite)`.
    pub fn ct_store(&mut self, nr: u32, callsite: u64, verdict: CachedVerdict) {
        self.ct.insert((nr, callsite), verdict);
    }

    /// Looks up the walk verdict for a chain, counting a confirmed hit
    /// only when the stored full chain key equals `chain`. A hash match
    /// with a differing chain is a collision: counted and served as a
    /// miss, never as a shared verdict.
    pub fn walk_lookup(&mut self, chain_hash: u64, chain: &[u64]) -> Option<CachedVerdict> {
        match self.walks.get(&chain_hash) {
            Some((key, v)) if key.as_ref() == chain => {
                self.walk_hits += 1;
                Some(v.clone())
            }
            Some(_) => {
                self.walk_collisions += 1;
                None
            }
            None => None,
        }
    }

    /// Memoizes the walk verdict under both the hash and the full chain
    /// key it confirms against. A colliding chain replaces the previous
    /// occupant (last-writer-wins keeps the map bounded by distinct
    /// hashes; the displaced chain simply re-validates on its next trap).
    pub fn walk_store(&mut self, chain_hash: u64, chain: &[u64], verdict: CachedVerdict) {
        self.walks.insert(chain_hash, (chain.into(), verdict));
    }

    /// Number of memoized entries (CT + walk), for tests and diagnostics.
    pub fn len(&self) -> usize {
        self.ct.len() + self.walks.len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.ct.is_empty() && self.walks.is_empty()
    }

    /// Drops all memoized verdicts (counters survive). Conservative
    /// invalidation hook for configurations that mutate code metadata.
    pub fn clear(&mut self) {
        self.ct.clear();
        self.walks.clear();
    }
}

/// Incremental FNV-1a hasher for return-address chains.
#[derive(Debug, Clone, Copy)]
pub struct ChainHasher(u64);

impl ChainHasher {
    /// Starts a chain hash at the trapped stub's entry address.
    pub fn new(stub_entry: u64) -> Self {
        let mut h = ChainHasher(0xcbf2_9ce4_8422_2325);
        h.push(stub_entry);
        h
    }

    /// Mixes one address (or terminator discriminant) into the hash.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The finished 64-bit chain key.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_cache_roundtrip_and_hit_count() {
        let mut c = VerifyCache::new();
        assert!(c.ct_lookup(1, 0x400).is_none());
        assert_eq!(c.ct_hits, 0);
        c.ct_store(1, 0x400, Ok(()));
        c.ct_store(
            2,
            0x400,
            Err(Violation::new(
                bastion_obs::DenyContext::CallType,
                bastion_obs::DenyRule::NotCallable,
                "nope",
            )),
        );
        assert_eq!(c.ct_lookup(1, 0x400), Some(Ok(())));
        assert!(matches!(c.ct_lookup(2, 0x400), Some(Err(_))));
        assert_eq!(c.ct_hits, 2);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.ct_hits, 2, "counters survive clear");
    }

    #[test]
    fn walk_cache_confirms_full_chain_key() {
        let mut c = VerifyCache::new();
        let chain_a: &[u64] = &[0x1000, 0x2004, 0x3008, 0, 0x1000];
        let chain_b: &[u64] = &[0x1000, 0x2004, 0x9999, 1, 0xdead];
        // Two crafted chains deliberately filed under the SAME 64-bit
        // hash — the aliasing scenario a hash-only key cannot tell apart.
        let hash = 0xDEAD_BEEF_u64;
        c.walk_store(hash, chain_a, Ok(()));
        // The colliding chain must NOT inherit chain_a's Ok verdict: that
        // would be a false allow. It is a counted miss.
        assert_eq!(c.walk_lookup(hash, chain_b), None);
        assert_eq!(c.walk_collisions, 1);
        assert_eq!(c.walk_hits, 0);
        // The original chain still hits, confirmed against the full key.
        assert_eq!(c.walk_lookup(hash, chain_a), Some(Ok(())));
        assert_eq!(c.walk_hits, 1);
        // Storing the colliding chain's own (deny) verdict displaces the
        // occupant; each chain only ever sees its own verdict.
        let deny = Err(Violation::new(
            bastion_obs::DenyContext::ControlFlow,
            bastion_obs::DenyRule::InvalidCaller,
            "bad caller",
        ));
        c.walk_store(hash, chain_b, deny.clone());
        assert_eq!(c.walk_lookup(hash, chain_b), Some(deny));
        assert_eq!(c.walk_lookup(hash, chain_a), None, "displaced, not aliased");
        assert_eq!(c.walk_collisions, 2);
    }

    #[test]
    fn chain_hash_is_order_and_content_sensitive() {
        let h = |words: &[u64]| {
            let mut h = ChainHasher::new(0x1000);
            for &w in words {
                h.push(w);
            }
            h.finish()
        };
        assert_eq!(h(&[1, 2, 3]), h(&[1, 2, 3]));
        assert_ne!(h(&[1, 2, 3]), h(&[3, 2, 1]));
        assert_ne!(h(&[1, 2]), h(&[1, 2, 3]));
        assert_ne!(
            ChainHasher::new(0x1000).finish(),
            ChainHasher::new(0x2000).finish()
        );
    }
}
