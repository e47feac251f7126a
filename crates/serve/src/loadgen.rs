//! The seeded load generator: a deterministic production-shaped query
//! mix, replayed against one shared [`QueryEngine`] through `tero-pool`.
//!
//! The mix follows the query shapes the cloud-gaming measurement
//! literature actually issues against latency data-sets — mostly point
//! percentiles (dashboards), a band of CDF evaluations (SLA checks), the
//! occasional full histogram (plots) and pairwise Wasserstein distances
//! (cross-location comparisons, Fig 8). Weights are compile-time
//! constants; the target, percentile and evaluation point of each query
//! come from a [`SimRng`] stream, so a seed pins the entire workload.
//!
//! Replay is *order-preserving in results* — `Pool::par_map` returns
//! answers in query order at any worker count — so the folded
//! [`Answer::checksum`] over a run is a single u64 that must match across
//! worker counts, cache configurations, and (because the underlying
//! sketches are) window schedules. Cache hit/miss *counts* are
//! schedule-dependent under parallel replay (which worker warms a key
//! first is a race); only the answers are contract.

use crate::engine::{Answer, Query, QueryEngine, SketchRef};
use tero_pool::Pool;
use tero_types::SimRng;

/// Percentiles the generated point-queries draw from: the dashboard set
/// (§5.2's boxplot points plus the tail the operations guide quotes).
pub const QUERY_PERCENTILES: [f64; 8] = [5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];

/// Out of every 100 generated queries: 55 percentiles, 25 CDFs, 12
/// histograms, 8 Wasserstein pairs.
const WEIGHTS: [(u64, QueryKind); 4] = [
    (55, QueryKind::Percentile),
    (80, QueryKind::Cdf),
    (92, QueryKind::Histogram),
    (100, QueryKind::Wasserstein),
];

#[derive(Clone, Copy)]
enum QueryKind {
    Percentile,
    Cdf,
    Histogram,
    Wasserstein,
}

/// A seeded generator of production-shaped query streams over a fixed
/// target set.
#[derive(Debug)]
pub struct LoadGen {
    rng: SimRng,
    targets: Vec<SketchRef>,
}

impl LoadGen {
    /// A generator over `targets` (usually every served distribution,
    /// from [`QueryEngine::distributions`]). The target list's *order*
    /// matters to the stream: callers wanting a pinned workload must pass
    /// a deterministically-ordered list — `distributions()` is already
    /// key-sorted.
    pub fn new(seed: u64, targets: Vec<SketchRef>) -> LoadGen {
        assert!(!targets.is_empty(), "load generation needs targets");
        LoadGen {
            rng: SimRng::new(seed ^ 0x5e7e_c0de),
            targets,
        }
    }

    /// Generate the next `n` queries of the stream.
    pub fn generate(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }

    fn next_query(&mut self) -> Query {
        let roll = self.rng.below(100);
        let kind = WEIGHTS
            .iter()
            .find(|(cum, _)| roll < *cum)
            .map(|(_, k)| *k)
            .expect("weights cover 0..100");
        let target = self.rng.choose(&self.targets).clone();
        match kind {
            QueryKind::Percentile => Query::Percentile {
                target,
                p: *self.rng.choose(&QUERY_PERCENTILES),
            },
            QueryKind::Cdf => Query::Cdf {
                target,
                x: self.rng.range_f64(0.0, 400.0),
            },
            QueryKind::Histogram => Query::Histogram { target },
            QueryKind::Wasserstein => Query::Wasserstein {
                a: target,
                b: self.rng.choose(&self.targets).clone(),
            },
        }
    }
}

/// What one replay did: totals plus the order-sensitive answer digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Queries replayed.
    pub queries: u64,
    /// Queries that found a non-empty distribution.
    pub answered: u64,
    /// [`Answer::checksum`]s folded in query order — identical across
    /// worker counts and cache configurations for the same query stream
    /// over the same serving view.
    pub checksum: u64,
}

/// Replay `queries` against `engine` on `pool` workers and fold the
/// answers. The engine is shared — this is the contended, many-clients
/// shape the benchmarks measure.
pub fn run_load(engine: &QueryEngine, pool: &Pool, queries: &[Query]) -> LoadReport {
    let answers: Vec<Answer> = pool.par_map(queries, |q| engine.query(q));
    fold_answers(&answers)
}

/// Fold a replay's answers into a [`LoadReport`].
pub fn fold_answers(answers: &[Answer]) -> LoadReport {
    let mut checksum = 0x7e60_u64;
    let mut answered = 0;
    for a in answers {
        checksum = checksum
            .rotate_left(1)
            .wrapping_add(a.checksum())
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        answered += a.is_answered() as u64;
    }
    LoadReport {
        queries: answers.len() as u64,
        answered,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_core::serving::{ServeGranularity, SERVE_VERSION_KEY};
    use tero_stats::QuantileSketch;
    use tero_store::KvStore;
    use tero_trace::obs::Registry;
    use tero_types::GameId;

    fn serving_fixture() -> (KvStore, Vec<SketchRef>) {
        let kv = KvStore::new();
        let mut targets = Vec::new();
        for (i, loc) in ["France", "Germany", "Japan"].iter().enumerate() {
            let target = SketchRef::dist(ServeGranularity::Country, GameId::ALL[i], loc);
            let values: Vec<f64> = (1..=200).map(|v| (v + 13 * i) as f64).collect();
            kv.set(target.key(), QuantileSketch::from_values(&values).encode());
            targets.push(target);
        }
        kv.incr_by(SERVE_VERSION_KEY, 1);
        (kv, targets)
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let (_, targets) = serving_fixture();
        let a = LoadGen::new(9, targets.clone()).generate(500);
        let b = LoadGen::new(9, targets.clone()).generate(500);
        assert_eq!(a, b, "same seed, same stream");
        let c = LoadGen::new(10, targets).generate(500);
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn replay_checksum_is_worker_count_invariant() {
        let (kv, targets) = serving_fixture();
        let queries = LoadGen::new(4242, targets).generate(2_000);
        let mut reports = Vec::new();
        for workers in [1, 2, 7] {
            let registry = Registry::new();
            let engine = QueryEngine::new(kv.clone(), &registry);
            let pool = Pool::new(workers);
            reports.push(run_load(&engine, &pool, &queries));
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
        assert!(
            reports[0].answered == reports[0].queries,
            "all targets live"
        );
    }

    #[test]
    fn replay_checksum_is_cache_invariant() {
        let (kv, targets) = serving_fixture();
        let queries = LoadGen::new(7, targets).generate(1_000);
        let pool = Pool::new(4);
        let cached = QueryEngine::new(kv.clone(), &Registry::new());
        let uncached = QueryEngine::with_cache_capacity(kv, &Registry::new(), 0);
        assert_eq!(
            run_load(&cached, &pool, &queries),
            run_load(&uncached, &pool, &queries),
            "the cache may never change an answer"
        );
        let (hits, _, _) = cached.cache_stats();
        assert!(hits > 0, "cached replay actually hit");
        let (hits, misses, _) = uncached.cache_stats();
        assert_eq!(hits, 0, "capacity 0 never hits");
        assert!(misses > 0);
    }
}
