//! The versioned estimation cache on the hot read path.
//!
//! The paper's practicality argument (§4–§6) assumes result-size
//! estimation is cheap enough for an optimizer's inner loop. The
//! estimator itself walks value dictionaries and multiplies bucket
//! averages — microseconds, not nanoseconds — so the engine memoises
//! whole-query results here, keyed by `(query fingerprint, catalog
//! epoch)`:
//!
//! * The **fingerprint** is a structural hash of the bound AST, taken
//!   in declaration order. No normalisation (predicate sorting,
//!   commutative-join canonicalisation) is applied on purpose: the
//!   estimate is a product of `f64` factors evaluated in declaration
//!   order and the reported [`StatsUse`] sequence follows the same
//!   order, so two spellings of one query are distinct cache entries
//!   rather than a source of bit-level divergence.
//!
//!   The fingerprint is std's SipHash (`DefaultHasher::new`, whose
//!   fixed keys make fingerprints and shards repeat across runs), not
//!   the cheaper FxHash, because a hit trusts it:
//!   [`EstimationCache::get`] compares 64-bit fingerprints, never the
//!   queries themselves. Fx's multiply-rotate mix can be inverted one
//!   word at a time, so a client could choose two literals in closed
//!   form that make its query collide with another, and be served that
//!   query's estimate. Each shard's map is keyed by the fingerprint,
//!   which is already a uniform hash, so the map itself hashes with Fx.
//! * The **epoch** comes from the [`CatalogSnapshot`] the estimate is
//!   computed against. Every catalog mutation bumps the epoch, so an
//!   entry from an older catalog state simply never matches again —
//!   invalidation costs nothing. A hit requires `stored epoch ==
//!   requested epoch`, and the requested epoch can only come from the
//!   snapshot the caller computes on: [`CacheKey::new`] is the key's
//!   one constructor and takes that snapshot, so a key built from a
//!   re-read of the live catalog (which could race a mutation between
//!   the read and the probe) cannot be written.
//!
//! The cache is sharded by fingerprint; each shard is a small
//! mutex-guarded map with least-recently-used eviction. Shard locks are
//! held only for a map probe, so concurrent estimator threads rarely
//! collide (and never with catalog writers, who touch the catalog's
//! own state, not this cache).
//!
//! [`CatalogSnapshot`]: relstore::CatalogSnapshot
//! [`StatsUse`]: crate::ladder::StatsUse

use crate::ast::Query;
use crate::ladder::StatsUse;
use parking_lot::Mutex;
use relstore::fxhash::FxHashMap;
use relstore::CatalogSnapshot;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default total capacity (entries across all shards).
const DEFAULT_CAPACITY: usize = 1024;

/// Shard count (power of two; selected by the fingerprint's high bits,
/// the map key uses the full value).
const SHARDS: usize = 8;

/// Structural fingerprint of a bound query: the cache key's first half.
pub(crate) fn fingerprint(query: &Query) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    query.hash(&mut hasher);
    hasher.finish()
}

/// One estimate's cache key: the query fingerprint and the epoch of the
/// snapshot the estimate is computed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheKey {
    fingerprint: u64,
    epoch: u64,
}

impl CacheKey {
    /// The key's only constructor: the epoch is read from the pinned
    /// snapshot itself, never passed in.
    pub(crate) fn new(fingerprint: u64, snap: &CatalogSnapshot) -> Self {
        Self {
            fingerprint,
            epoch: snap.epoch(),
        }
    }

    pub(crate) fn fingerprint(self) -> u64 {
        self.fingerprint
    }

    pub(crate) fn epoch(self) -> u64 {
        self.epoch
    }

    /// Which shard the key maps to (the fingerprint's high bits; the
    /// map key uses the full value). A traced cache probe names it.
    pub(crate) fn shard(self) -> u64 {
        (self.fingerprint >> 32) & (SHARDS as u64 - 1)
    }
}

/// One memoised estimate: the value and the statistics lookups that
/// produced it (replayed on a hit so rung accounting is identical to a
/// miss).
#[derive(Debug, Clone)]
pub(crate) struct CachedEstimate {
    pub(crate) estimate: f64,
    pub(crate) sources: Arc<Vec<StatsUse>>,
}

#[derive(Debug)]
struct Slot {
    /// The epoch the entry is valid at.
    epoch: u64,
    cached: CachedEstimate,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<u64, Slot>,
    /// Monotone access clock driving LRU eviction.
    tick: u64,
}

/// A bounded, sharded, epoch-versioned estimate cache.
#[derive(Debug)]
pub(crate) struct EstimationCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl Default for EstimationCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl EstimationCache {
    /// A cache holding at most `capacity` entries in total (rounded up
    /// to a multiple of the shard count).
    fn with_capacity(capacity: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS),
        }
    }

    fn shard_of(&self, key: CacheKey) -> &Mutex<Shard> {
        &self.shards[key.shard() as usize]
    }

    /// The entry for the key's fingerprint if it was computed at exactly
    /// the key's epoch; a present-but-older entry is a miss (and will be
    /// overwritten by the recomputation's insert).
    pub(crate) fn get(&self, key: CacheKey) -> Option<CachedEstimate> {
        let mut shard = self.shard_of(key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&key.fingerprint) {
            Some(slot) if slot.epoch == key.epoch => {
                slot.last_used = tick;
                Some(slot.cached.clone())
            }
            _ => None,
        }
    }

    /// Memoises one computed estimate, evicting the shard's
    /// least-recently-used entry when full. Returns whether it evicted.
    pub(crate) fn insert(&self, key: CacheKey, cached: CachedEstimate) -> bool {
        let mut shard = self.shard_of(key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        let mut evicted = false;
        if shard.map.len() >= self.per_shard_capacity && !shard.map.contains_key(&key.fingerprint) {
            if let Some((&lru, _)) = shard.map.iter().min_by_key(|(_, slot)| slot.last_used) {
                shard.map.remove(&lru);
                evicted = true;
            }
        }
        shard.map.insert(
            key.fingerprint,
            Slot {
                epoch: key.epoch,
                cached,
                last_used: tick,
            },
        );
        evicted
    }

    /// Drops every entry (used when the engine's non-epoch inputs —
    /// relations, domains, policy, or the catalog handle itself —
    /// change).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().map.clear();
        }
    }

    /// Total live entries (for tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::EstimateRung;
    use relstore::Catalog;

    fn entry(estimate: f64) -> CachedEstimate {
        CachedEstimate {
            estimate,
            sources: Arc::new(vec![StatsUse {
                target: "t.a".into(),
                rung: EstimateRung::Spec,
                tuned: false,
            }]),
        }
    }

    /// Snapshots of one catalog at epochs 0, 1 and 2.
    fn snapshots() -> [Arc<CatalogSnapshot>; 3] {
        let catalog = Catalog::new();
        [(); 3].map(|_| {
            let snap = catalog.read_snapshot();
            catalog.note_updates("t", 1);
            snap
        })
    }

    #[test]
    fn hit_requires_exact_epoch() {
        let [older, at, newer] = snapshots();
        let cache = EstimationCache::with_capacity(8);
        assert!(!cache.insert(CacheKey::new(42, &at), entry(1.5)));
        assert!(
            cache.get(CacheKey::new(42, &older)).is_none(),
            "older epoch must miss"
        );
        assert!(
            cache.get(CacheKey::new(42, &newer)).is_none(),
            "newer epoch must miss"
        );
        let hit = cache.get(CacheKey::new(42, &at)).expect("exact epoch hits");
        assert_eq!(hit.estimate, 1.5);
        assert_eq!(hit.sources.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_fingerprint() {
        // One shard's worth of keys: same high bits, distinct values.
        let [snap, _, _] = snapshots();
        let key = |fp| CacheKey::new(fp, &snap);
        let cache = EstimationCache::with_capacity(SHARDS * 2);
        assert_eq!(cache.per_shard_capacity, 2);
        assert!(!cache.insert(key(1), entry(0.0)));
        assert!(!cache.insert(key(2), entry(1.0)));
        // Touch key 1 so key 2 is the LRU when key 3 arrives.
        assert!(cache.get(key(1)).is_some());
        assert!(cache.insert(key(3), entry(2.0)), "a full shard evicts");
        assert!(cache.get(key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(key(1)).is_some());
        assert!(cache.get(key(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_an_existing_fingerprint_never_evicts_others() {
        let [first, second, _] = snapshots();
        let cache = EstimationCache::with_capacity(SHARDS * 2);
        cache.insert(CacheKey::new(1, &first), entry(0.0));
        cache.insert(CacheKey::new(2, &first), entry(1.0));
        // Refresh key 1 at a newer epoch: an overwrite, not an insert.
        assert!(!cache.insert(CacheKey::new(1, &second), entry(9.0)));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(CacheKey::new(2, &first)).is_some());
        assert_eq!(cache.get(CacheKey::new(1, &second)).unwrap().estimate, 9.0);
    }

    #[test]
    fn fingerprint_is_structural_and_order_sensitive() {
        let parse = |sql: &str| crate::parser::parse(sql).unwrap();
        let a = parse("SELECT COUNT(*) FROM t, s WHERE t.a = s.a AND t.a = 1");
        let b = parse("SELECT COUNT(*) FROM t, s WHERE t.a = s.a AND t.a = 1");
        assert_eq!(fingerprint(&a), fingerprint(&b), "same query, same key");
        let c = parse("SELECT COUNT(*) FROM t, s WHERE t.a = s.a AND t.a = 2");
        assert_ne!(fingerprint(&a), fingerprint(&c), "different literal");
        let d = parse("SELECT COUNT(*) FROM s, t WHERE t.a = s.a AND t.a = 1");
        assert_ne!(
            fingerprint(&a),
            fingerprint(&d),
            "table order is part of the identity (estimation is order-sensitive)"
        );
    }
}
