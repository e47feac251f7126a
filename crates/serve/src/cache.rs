//! The hot-key cache: decoded sketches kept by recency, invalidated by
//! serving-view version.
//!
//! A miss is a store read plus a decode of the committed wire string; a
//! hit is a clone of a few dozen buckets. The cache therefore holds
//! *decoded sketches* keyed by their KV key, bounded by a capacity with
//! least-recently-used eviction.
//!
//! Invalidation is version-based, not per-key: every engine commit that
//! touches a sketch bumps `engine:serve:version`, and the cache drops its
//! whole contents the first time it is consulted at a newer version. A
//! window commit can rewrite any number of raw sketches, so per-key
//! tracking would buy little — and the whole-view drop is what keeps a
//! cached answer from ever mixing two serving versions. The version is a
//! counter that only grows, and so is the cache's stamp: a reader that
//! arrives late with an older version changes nothing, and a sketch is
//! admitted only under the version its reader saw *before* loading it
//! (commits write bytes first and bump second, so bytes loaded after
//! reading version `v` are never older than `v`'s).

use std::collections::HashMap;
use tero_stats::QuantileSketch;

/// A bounded LRU of decoded sketches, stamped with the serving-view
/// version its contents were read at. Not thread-safe on its own — the
/// query engine wraps it in a mutex.
#[derive(Debug)]
pub struct HotKeyCache {
    capacity: usize,
    version: u64,
    /// Key → (last-touched tick, decoded sketch).
    entries: HashMap<String, (u64, QuantileSketch)>,
    tick: u64,
}

impl HotKeyCache {
    /// An empty cache holding at most `capacity` sketches. Capacity 0
    /// disables caching: every lookup misses and nothing is stored.
    pub fn new(capacity: usize) -> HotKeyCache {
        HotKeyCache {
            capacity,
            version: 0,
            entries: HashMap::new(),
            tick: 0,
        }
    }

    /// Number of cached sketches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reconcile with the serving view's current version: if it moved
    /// on, drop everything. An older `version` than the cache has already
    /// seen is a late reader, not a rollback, and is ignored. Returns the
    /// number of entries invalidated.
    pub fn sync_version(&mut self, version: u64) -> usize {
        if version <= self.version {
            return 0;
        }
        self.version = version;
        let dropped = self.entries.len();
        self.entries.clear();
        dropped
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<&QuantileSketch> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        entry.0 = tick;
        Some(&entry.1)
    }

    /// Insert a sketch decoded from bytes loaded after reading serving
    /// version `version`, evicting the least-recently-used entry if the
    /// cache is full. Stores nothing when the cache has moved past that
    /// version meanwhile: the bytes may predate the commit that moved it.
    /// Returns the number of evictions (0 or 1) if it stored the sketch,
    /// `None` if it declined — which it always does at capacity 0, before
    /// it builds a key or clones anything.
    pub fn insert(&mut self, version: u64, key: &str, sketch: &QuantileSketch) -> Option<u64> {
        if self.capacity == 0 || version != self.version {
            return None;
        }
        self.tick += 1;
        let mut evicted = 0;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(key) {
            // Ties on the tick cannot happen (every touch increments it),
            // so the victim — and therefore the cache's whole behaviour —
            // is deterministic for a fixed lookup sequence.
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                evicted = 1;
            }
        }
        self.entries
            .insert(key.to_string(), (self.tick, sketch.clone()));
        Some(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(v: f64) -> QuantileSketch {
        QuantileSketch::from_values(&[v])
    }

    #[test]
    fn lru_evicts_the_coldest_key() {
        let mut cache = HotKeyCache::new(2);
        assert_eq!(cache.insert(0, "a", &sketch(1.0)), Some(0));
        assert_eq!(cache.insert(0, "b", &sketch(2.0)), Some(0));
        assert!(cache.get("a").is_some()); // "b" is now coldest
        assert_eq!(cache.insert(0, "c", &sketch(3.0)), Some(1));
        assert!(cache.get("b").is_none(), "coldest key evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_a_cached_key_never_evicts() {
        let mut cache = HotKeyCache::new(2);
        cache.insert(0, "a", &sketch(1.0));
        cache.insert(0, "b", &sketch(2.0));
        assert_eq!(
            cache.insert(0, "a", &sketch(9.0)),
            Some(0),
            "overwrite in place"
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a").unwrap().max(), Some(9.0));
    }

    #[test]
    fn version_change_drops_everything() {
        let mut cache = HotKeyCache::new(4);
        cache.insert(0, "a", &sketch(1.0));
        cache.insert(0, "b", &sketch(2.0));
        assert_eq!(cache.sync_version(0), 0, "same version keeps entries");
        assert_eq!(cache.sync_version(3), 2, "new version invalidates all");
        assert!(cache.is_empty());
        assert_eq!(cache.sync_version(3), 0);
    }

    #[test]
    fn the_version_stamp_only_moves_forward() {
        let mut cache = HotKeyCache::new(4);
        assert_eq!(cache.sync_version(3), 0);
        cache.insert(3, "a", &sketch(1.0));
        assert_eq!(cache.sync_version(2), 0, "a late reader drops nothing");
        assert!(cache.get("a").is_some());
        assert_eq!(cache.insert(2, "b", &sketch(2.0)), None);
        assert!(cache.get("b").is_none(), "and its bytes are not admitted");
        assert_eq!(cache.insert(4, "c", &sketch(3.0)), None);
        assert!(cache.get("c").is_none(), "nor is a version not yet synced");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = HotKeyCache::new(0);
        assert_eq!(cache.insert(0, "a", &sketch(1.0)), None);
        assert!(cache.get("a").is_none());
        assert!(cache.is_empty());
    }
}
