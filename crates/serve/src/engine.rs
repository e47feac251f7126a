//! The query engine: typed queries over the committed serving sketches.

use crate::cache::HotKeyCache;
use std::sync::{Mutex, MutexGuard, PoisonError};
use tero_core::serving::{
    load_sketch, parse_dist_sketch_key, serve_version, ServeGranularity, DIST_SKETCH_PREFIX,
};
use tero_stats::{BoxplotStats, QuantileSketch};
use tero_store::KvStore;
use tero_trace::obs::{CounterHandle, GaugeHandle, HistogramHandle, Registry};
use tero_types::{AnonId, GameId};

/// A handle to one served distribution: the KV key its sketch lives
/// under. Build with [`SketchRef::dist`] (published `{location, game}`
/// distributions) or [`SketchRef::raw`] (per-`{streamer, game}` raw
/// sketches, the incrementally-updating view).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SketchRef(String);

impl SketchRef {
    /// The published distribution at `granularity` for `{location_key,
    /// game}`, where `location_key` is `Location::key()` at that
    /// granularity (e.g. `"France/Île-de-France"` or `"France"`).
    pub fn dist(granularity: ServeGranularity, game: GameId, location_key: &str) -> SketchRef {
        SketchRef(tero_core::serving::dist_sketch_key(
            granularity,
            game,
            location_key,
        ))
    }

    /// The raw sketch of every extracted value for one `{streamer, game}`.
    pub fn raw(anon: AnonId, game: GameId) -> SketchRef {
        SketchRef(tero_core::serving::raw_sketch_key(anon, game))
    }

    /// The underlying KV key.
    pub fn key(&self) -> &str {
        &self.0
    }
}

/// One query against the serving view.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// The `p`-th percentile (0–100) of a distribution, by the shared
    /// nearest-rank definition (see `tero_stats::QuantileSketch::quantile`).
    /// A NaN `p` answers `None`.
    Percentile {
        /// The distribution to query.
        target: SketchRef,
        /// Percentile in `[0, 100]`.
        p: f64,
    },
    /// The fraction of the distribution's mass at or below `x` ms. A NaN
    /// `x` answers `None`.
    Cdf {
        /// The distribution to query.
        target: SketchRef,
        /// The evaluation point (ms).
        x: f64,
    },
    /// The distribution's full bucket histogram.
    Histogram {
        /// The distribution to query.
        target: SketchRef,
    },
    /// The approximate Wasserstein-1 distance between two distributions
    /// (the Fig 8 comparison shape).
    Wasserstein {
        /// First distribution.
        a: SketchRef,
        /// Second distribution.
        b: SketchRef,
    },
}

/// A query's answer. Scalar queries answer `None` when the distribution
/// does not exist or is empty — mirroring `Histogram::percentile` and
/// `BoxplotStats::from_samples`, a percentile of nothing is not a number —
/// and when a percentile or CDF point is NaN.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A percentile, CDF or Wasserstein value.
    Value(Option<f64>),
    /// Histogram rows `(bucket_lo, bucket_hi, count)`, ascending; empty
    /// when the distribution does not exist.
    Histogram(Vec<(f64, f64, u64)>),
}

impl Answer {
    /// The scalar value, if this is a non-empty scalar answer.
    pub fn value(&self) -> Option<f64> {
        match self {
            Answer::Value(v) => *v,
            Answer::Histogram(_) => None,
        }
    }

    /// Whether the query found a non-empty distribution.
    pub(crate) fn is_answered(&self) -> bool {
        match self {
            Answer::Value(v) => v.is_some(),
            Answer::Histogram(rows) => !rows.is_empty(),
        }
    }

    /// A deterministic digest of the answer: the exact f64 bit patterns
    /// (and bucket counts) folded with a Fibonacci-mix. Two answer
    /// streams are byte-equivalent iff their folded checksums agree —
    /// the load generator's cheap whole-run identity check.
    pub fn checksum(&self) -> u64 {
        const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
        let fold = |acc: u64, v: u64| (acc ^ v).wrapping_mul(MIX).rotate_left(17);
        match self {
            Answer::Value(None) => fold(1, 0),
            Answer::Value(Some(v)) => fold(2, v.to_bits()),
            Answer::Histogram(rows) => rows.iter().fold(3, |acc, &(lo, hi, n)| {
                fold(fold(fold(acc, lo.to_bits()), hi.to_bits()), n)
            }),
        }
    }
}

/// The `serve.*` metric handles, registered eagerly so the operations
/// catalogue is complete as soon as an engine exists.
struct ServeMetrics {
    queries: CounterHandle,
    cache_hits: CounterHandle,
    cache_misses: CounterHandle,
    cache_evictions: CounterHandle,
    cache_entries: GaugeHandle,
    query_us: HistogramHandle,
    registry: Registry,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            queries: registry.counter("serve.queries"),
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            cache_evictions: registry.counter("serve.cache.evictions"),
            cache_entries: registry.gauge("serve.cache.entries"),
            query_us: registry.histogram("serve.query_us"),
            registry: registry.clone(),
        }
    }
}

/// Default hot-key cache capacity (decoded sketches).
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 256;

/// The distribution query front-end.
///
/// Wraps a serving store — [`tero_core::pipeline::Tero::serving_store`] after a
/// completed run, or any `KvStore` an engine committed into — and answers
/// [`Query`]s from the committed sketches, through a hot-key LRU cache of
/// decoded sketches. Thread-safe: the load generator fans queries out
/// over a `tero_pool::Pool` against one shared engine.
///
/// Answers are deterministic: they depend only on the committed sketch
/// bytes, which are themselves byte-identical across worker counts and
/// window schedules, so a query stream replayed against any equivalent
/// run folds to the same [`Answer::checksum`].
///
/// The store's serve version must never decrease under a live engine:
/// the cache's version stamp only moves forward (a smaller version is a
/// late reader, see `HotKeyCache::sync_version`), so after a
/// `KvStore::restore` in place, or a failover to a replica that lags,
/// sketches cached before the rollback would be served until the counter
/// passed the old stamp. Build a fresh engine over a restored store.
pub struct QueryEngine {
    kv: KvStore,
    cache: Mutex<HotKeyCache>,
    /// Whether the cache can hold anything: a capacity-0 engine never
    /// takes its lock nor reads the version that stamps its entries.
    caching: bool,
    metrics: ServeMetrics,
}

impl QueryEngine {
    /// An engine over `kv` with the default cache capacity, reporting
    /// `serve.*` metrics into `registry`.
    pub fn new(kv: KvStore, registry: &Registry) -> QueryEngine {
        QueryEngine::with_cache_capacity(kv, registry, DEFAULT_CACHE_CAPACITY)
    }

    /// An engine with an explicit hot-key cache capacity. Capacity 0
    /// disables the cache: every query decodes from the store, takes no
    /// cache lock and reads no version (the version only stamps cache
    /// entries) — the cache-off arm of the benchmarks.
    pub fn with_cache_capacity(kv: KvStore, registry: &Registry, capacity: usize) -> QueryEngine {
        QueryEngine {
            kv,
            cache: Mutex::new(HotKeyCache::new(capacity)),
            caching: capacity > 0,
            metrics: ServeMetrics::new(registry),
        }
    }

    /// The serving view's current version (see
    /// `tero_core::serving::SERVE_VERSION_KEY`).
    pub fn version(&self) -> u64 {
        serve_version(&self.kv)
    }

    /// Every published distribution in the serving view, sorted by key:
    /// `(granularity, game, location_key)`.
    pub fn distributions(&self) -> Vec<(ServeGranularity, GameId, String)> {
        self.kv
            .keys_with_prefix(DIST_SKETCH_PREFIX)
            .iter()
            .filter_map(|k| {
                let (g, game, loc) = parse_dist_sketch_key(k)?;
                Some((g, game, loc.to_string()))
            })
            .collect()
    }

    /// Answer one query. A caching engine reads the serving version
    /// once, so a query over two sketches checks both against the same
    /// version; a capacity-0 engine reads none.
    pub fn query(&self, q: &Query) -> Answer {
        self.metrics.queries.inc();
        let _t = self.metrics.registry.stage_timer(&self.metrics.query_us);
        let version = self.cache_stamp();
        let sketch = |target: &SketchRef| self.sketch(version, target);
        match q {
            Query::Percentile { target, p } => {
                Answer::Value(sketch(target).and_then(|s| s.quantile(*p)))
            }
            Query::Cdf { target, x } => Answer::Value(sketch(target).and_then(|s| s.cdf(*x))),
            Query::Histogram { target } => {
                Answer::Histogram(sketch(target).map(|s| s.histogram()).unwrap_or_default())
            }
            Query::Wasserstein { a, b } => Answer::Value(
                sketch(a)
                    .zip(sketch(b))
                    .and_then(|(a, b)| a.wasserstein(&b)),
            ),
        }
    }

    /// The `p`-th percentile of `target` (`None`: absent or empty).
    pub fn percentile(&self, target: &SketchRef, p: f64) -> Option<f64> {
        self.query(&Query::Percentile {
            target: target.clone(),
            p,
        })
        .value()
    }

    /// The CDF of `target` at `x` ms (`None`: absent or empty).
    pub fn cdf(&self, target: &SketchRef, x: f64) -> Option<f64> {
        self.query(&Query::Cdf {
            target: target.clone(),
            x,
        })
        .value()
    }

    /// The bucket histogram of `target` (empty when absent).
    pub fn histogram(&self, target: &SketchRef) -> Vec<(f64, f64, u64)> {
        match self.query(&Query::Histogram {
            target: target.clone(),
        }) {
            Answer::Histogram(rows) => rows,
            Answer::Value(_) => unreachable!("histogram query answers histogram"),
        }
    }

    /// The approximate Wasserstein-1 distance between two served
    /// distributions (`None` when either is absent or empty).
    pub fn wasserstein(&self, a: &SketchRef, b: &SketchRef) -> Option<f64> {
        self.query(&Query::Wasserstein {
            a: a.clone(),
            b: b.clone(),
        })
        .value()
    }

    /// The sketch-served five-number summary of `target` — the serving
    /// mirror of the report's §5.2 `BoxplotStats`.
    pub fn boxplot(&self, target: &SketchRef) -> Option<BoxplotStats> {
        self.metrics.queries.inc();
        let _t = self.metrics.registry.stage_timer(&self.metrics.query_us);
        self.sketch(self.cache_stamp(), target)?.boxplot()
    }

    /// The version a query checks the cache against: the serving version
    /// for a caching engine; 0, read from nowhere, for a capacity-0 one,
    /// whose [`Self::probe`] and [`Self::admit`] never look at it.
    fn cache_stamp(&self) -> u64 {
        if self.caching {
            self.version()
        } else {
            0
        }
    }

    /// Cache counters so far: `(hits, misses, evictions)`.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.metrics.cache_hits.get(),
            self.metrics.cache_misses.get(),
            self.metrics.cache_evictions.get(),
        )
    }

    /// Fetch a decoded sketch through the hot-key cache at `version`,
    /// read before the call. The cache lock covers the probe and the
    /// insert, never the store read or the decode between them: clients
    /// that miss load side by side.
    fn sketch(&self, version: u64, target: &SketchRef) -> Option<QuantileSketch> {
        if let Some(hit) = self.probe(version, target.key()) {
            return Some(hit);
        }
        let sketch = load_sketch(&self.kv, target.key())?;
        self.admit(version, target.key(), &sketch);
        Some(sketch)
    }

    /// Consult the cache at `version`, read before the call. Consulting
    /// reconciles the cache with the serving version, so an engine commit
    /// between two queries invalidates every cached sketch.
    fn probe(&self, version: u64, key: &str) -> Option<QuantileSketch> {
        if !self.caching {
            self.metrics.cache_misses.inc();
            return None;
        }
        let hit = {
            let mut cache = lock(&self.cache);
            cache.sync_version(version);
            cache.get(key).cloned()
        };
        // Counted after the unlock: a counter two clients pass back and
        // forth is not something to wait for while holding the lock.
        match hit {
            Some(_) => self.metrics.cache_hits.inc(),
            None => self.metrics.cache_misses.inc(),
        }
        hit
    }

    /// Offer the cache a sketch loaded after a [`Self::probe`] at
    /// `version` missed. If a commit moved the cache on while the load
    /// ran, the cache declines it (see [`HotKeyCache::insert`]); a cache
    /// that declined has not changed and has nothing to report.
    fn admit(&self, version: u64, key: &str, sketch: &QuantileSketch) {
        if !self.caching {
            return;
        }
        let mut cache = lock(&self.cache);
        if let Some(evicted) = cache.insert(version, key, sketch) {
            self.metrics.cache_evictions.add(evicted);
            self.metrics.cache_entries.set(cache.len() as i64);
        }
    }
}

/// Every cache update leaves it valid at each step, so a client that
/// panicked while holding the lock has not broken it for the others.
fn lock(cache: &Mutex<HotKeyCache>) -> MutexGuard<'_, HotKeyCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("version", &self.version())
            .field("distributions", &self.distributions().len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_core::serving::SERVE_VERSION_KEY;

    fn store_with(values: &[f64], key: &SketchRef) -> KvStore {
        let kv = KvStore::new();
        kv.set(key.key(), QuantileSketch::from_values(values).encode());
        kv.incr_by(SERVE_VERSION_KEY, 1);
        kv
    }

    #[test]
    fn answers_all_query_shapes() {
        let game = GameId::ALL[0];
        let target = SketchRef::dist(ServeGranularity::Region, game, "France/Île-de-France");
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let kv = store_with(&values, &target);
        let other = SketchRef::dist(ServeGranularity::Country, game, "France");
        kv.set(
            other.key(),
            QuantileSketch::from_values(&values.iter().map(|v| v + 10.0).collect::<Vec<_>>())
                .encode(),
        );
        let registry = Registry::new();
        let engine = QueryEngine::new(kv, &registry);

        let p50 = engine.percentile(&target, 50.0).unwrap();
        assert!((p50 - 50.0).abs() <= 50.0 * 0.021, "p50 {p50}");
        let cdf = engine.cdf(&target, 50.0).unwrap();
        assert!((cdf - 0.5).abs() < 0.03, "cdf {cdf}");
        let rows = engine.histogram(&target);
        assert_eq!(rows.iter().map(|r| r.2).sum::<u64>(), 100);
        let w = engine.wasserstein(&target, &other).unwrap();
        assert!((w - 10.0).abs() < 1.0, "translation distance {w}");
        let bp = engine.boxplot(&target).unwrap();
        assert_eq!(bp.n, 100);
        assert_eq!(engine.distributions().len(), 2);
    }

    #[test]
    fn missing_and_empty_distributions_answer_none() {
        let registry = Registry::new();
        let kv = KvStore::new();
        let empty = SketchRef::raw(AnonId(7), GameId::ALL[0]);
        kv.set(empty.key(), QuantileSketch::default().encode());
        let engine = QueryEngine::new(kv, &registry);
        let missing = SketchRef::dist(ServeGranularity::Region, GameId::ALL[0], "Atlantis");
        assert_eq!(engine.percentile(&missing, 95.0), None);
        assert_eq!(engine.percentile(&empty, 95.0), None, "empty sketch: None");
        assert_eq!(engine.cdf(&missing, 10.0), None);
        assert!(engine.histogram(&missing).is_empty());
        assert_eq!(engine.wasserstein(&missing, &empty), None);
        assert_eq!(engine.boxplot(&empty), None);
    }

    #[test]
    fn cache_hits_and_version_invalidation() {
        let game = GameId::ALL[1];
        let target = SketchRef::raw(AnonId(42), game);
        let kv = store_with(&[10.0, 20.0, 30.0], &target);
        let registry = Registry::new();
        let engine = QueryEngine::new(kv.clone(), &registry);

        engine.percentile(&target, 50.0);
        assert_eq!(engine.cache_stats(), (0, 1, 0), "first query misses");
        engine.percentile(&target, 95.0);
        engine.cdf(&target, 15.0);
        assert_eq!(engine.cache_stats(), (2, 1, 0), "repeat queries hit");

        // A commit-style update: new sketch bytes plus a version bump.
        kv.set(
            target.key(),
            QuantileSketch::from_values(&[100.0, 200.0]).encode(),
        );
        kv.incr_by(SERVE_VERSION_KEY, 1);
        let p50 = engine.percentile(&target, 50.0).unwrap();
        assert!(p50 >= 99.0, "post-commit answer reflects the new sketch");
        assert_eq!(engine.cache_stats(), (2, 2, 0), "version bump invalidated");
        assert_eq!(registry.snapshot().counter("serve.queries"), Some(4));
    }

    #[test]
    fn a_commit_between_probe_and_insert_leaves_nothing_stale() {
        let target = SketchRef::raw(AnonId(42), GameId::ALL[1]);
        let key = target.key();
        let kv = store_with(&[10.0, 20.0, 30.0], &target);
        let engine = QueryEngine::new(kv.clone(), &Registry::new());
        let commit = |values: &[f64]| {
            // What every commit site does: bytes first, bump second.
            kv.set(key, QuantileSketch::from_values(values).encode());
            kv.incr_by(SERVE_VERSION_KEY, 1);
        };

        // A slow query reads the version, misses and loads; a commit
        // lands; the query then offers the cache its pre-commit bytes.
        let version = engine.version();
        assert_eq!(engine.probe(version, key), None);
        let loaded = load_sketch(&kv, key).unwrap();
        commit(&[100.0, 200.0]);
        engine.admit(version, key, &loaded);
        // The next query reads the new version, misses, and answers from
        // the new bytes: the old entry went in under the old version.
        assert!(engine.percentile(&target, 50.0).unwrap() >= 99.0);
        assert_eq!(engine.cache_stats(), (0, 2, 0));

        // The same race, but a fast query moves the cache to the new
        // version first: the slow one's bytes are declined, not stored
        // under a version they may predate.
        let version = engine.version();
        let loaded = load_sketch(&kv, key).unwrap();
        commit(&[1000.0, 2000.0]);
        assert!(engine.percentile(&target, 50.0).unwrap() >= 999.0);
        engine.admit(version, key, &loaded);
        assert!(engine.percentile(&target, 50.0).unwrap() >= 999.0);
        assert_eq!(
            engine.cache_stats(),
            (1, 3, 0),
            "served from the fast query's entry"
        );
        assert_eq!(lock(&engine.cache).len(), 1);
    }

    #[test]
    fn two_clients_missing_one_key_agree_and_leave_one_entry() {
        let target = SketchRef::raw(AnonId(7), GameId::ALL[0]);
        let kv = store_with(&[10.0, 20.0, 30.0], &target);
        let engine = QueryEngine::new(kv.clone(), &Registry::new());
        // Both clients have probed, and missed, before either inserts.
        let both_missed = std::sync::Barrier::new(2);
        let client = || {
            let version = engine.version();
            assert_eq!(engine.probe(version, target.key()), None);
            both_missed.wait();
            let sketch = load_sketch(&kv, target.key()).unwrap();
            engine.admit(version, target.key(), &sketch);
            sketch.quantile(50.0)
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(client), s.spawn(client));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        assert_eq!(engine.cache_stats(), (0, 2, 0));
        assert_eq!(lock(&engine.cache).len(), 1);
        assert_eq!(
            engine.percentile(&target, 50.0),
            a,
            "and the entry is theirs"
        );
        assert_eq!(engine.cache_stats(), (1, 2, 0));
    }

    #[test]
    fn a_capacity_zero_engine_never_takes_an_entry() {
        let target = SketchRef::raw(AnonId(7), GameId::ALL[0]);
        let kv = store_with(&[10.0, 20.0, 30.0], &target);
        let registry = Registry::new();
        let engine = QueryEngine::with_cache_capacity(kv.clone(), &registry, 0);
        let cached = QueryEngine::new(kv, &Registry::new());
        for p in [5.0, 50.0, 95.0] {
            assert_eq!(engine.percentile(&target, p), cached.percentile(&target, p));
        }
        assert_eq!(engine.cache_stats(), (0, 3, 0), "every query is a miss");
        assert_eq!(lock(&engine.cache).len(), 0);
        assert_eq!(cached.cache_stats(), (2, 1, 0));
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("serve.cache.entries").unwrap().value, 0);
    }

    #[test]
    fn a_query_reads_the_version_once() {
        let game = GameId::ALL[0];
        let a = SketchRef::raw(AnonId(1), game);
        let b = SketchRef::raw(AnonId(2), game);
        let kv = store_with(&[10.0, 20.0, 30.0], &a);
        kv.set(b.key(), QuantileSketch::from_values(&[15.0, 25.0]).encode());
        let store = Registry::new();
        kv.instrument(&store);
        let reads = || store.snapshot().counter("store.kv.reads").unwrap_or(0);
        // A fresh caching engine reads the version once, then each
        // sketch, and its next query reads the version alone; a
        // capacity-0 engine reads each sketch, every time.
        let wasserstein = Query::Wasserstein { a: a.clone(), b };
        let percentile = Query::Percentile { target: a, p: 50.0 };
        for (capacity, version_reads) in [(DEFAULT_CACHE_CAPACITY, 1), (0, 0)] {
            for (q, sketches) in [(&wasserstein, 2), (&percentile, 1)] {
                let engine =
                    QueryEngine::with_cache_capacity(kv.clone(), &Registry::new(), capacity);
                let before = reads();
                assert!(engine.query(q).is_answered());
                assert_eq!(reads() - before, version_reads + sketches, "cold {q:?}");
                let before = reads();
                assert!(engine.query(q).is_answered());
                let again = if capacity > 0 { 1 } else { sketches };
                assert_eq!(reads() - before, again, "again {q:?}");
            }
        }
    }

    #[test]
    fn a_nan_percentile_or_cdf_point_answers_none() {
        let target = SketchRef::raw(AnonId(7), GameId::ALL[0]);
        let kv = store_with(&[10.0, 20.0, 30.0, 40.0], &target);
        for capacity in [0, DEFAULT_CACHE_CAPACITY] {
            let engine = QueryEngine::with_cache_capacity(kv.clone(), &Registry::new(), capacity);
            assert_eq!(engine.percentile(&target, f64::NAN), None);
            assert_eq!(engine.cdf(&target, f64::NAN), None);
            let q = Query::Percentile {
                target: target.clone(),
                p: f64::NAN,
            };
            assert_eq!(engine.query(&q).checksum(), Answer::Value(None).checksum());
            assert!(engine.percentile(&target, 50.0).is_some());
        }
    }

    #[test]
    fn lru_evictions_are_counted() {
        let registry = Registry::new();
        let kv = KvStore::new();
        let game = GameId::ALL[0];
        let targets: Vec<SketchRef> = (0..3).map(|i| SketchRef::raw(AnonId(i), game)).collect();
        for t in &targets {
            kv.set(t.key(), QuantileSketch::from_values(&[1.0]).encode());
        }
        let engine = QueryEngine::with_cache_capacity(kv, &registry, 2);
        for t in &targets {
            engine.percentile(t, 50.0);
        }
        let (hits, misses, evictions) = engine.cache_stats();
        assert_eq!((hits, misses), (0, 3));
        assert_eq!(evictions, 1, "third distinct key evicts the coldest");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.cache.evictions"), Some(1));
        assert_eq!(snap.gauge("serve.cache.entries").unwrap().value, 2);
    }

    #[test]
    fn checksum_distinguishes_answers() {
        let a = Answer::Value(Some(42.0));
        let b = Answer::Value(Some(43.0));
        assert_ne!(a.checksum(), b.checksum());
        assert_ne!(Answer::Value(None).checksum(), a.checksum());
        assert_eq!(a.checksum(), Answer::Value(Some(42.0)).checksum());
        let h1 = Answer::Histogram(vec![(0.0, 1.0, 2)]);
        let h2 = Answer::Histogram(vec![(0.0, 1.0, 3)]);
        assert_ne!(h1.checksum(), h2.checksum());
        assert!(!Answer::Histogram(vec![]).is_answered());
        assert!(h1.is_answered());
    }
}
