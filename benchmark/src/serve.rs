//! The serve workloads: a closed loop against the serving store of a
//! completed run. One client times every query for latency, then `W`
//! clients replay the same stream through `run_load` for throughput;
//! callers wait for replies, so a slower engine receives less load.

use crate::fixture::Fixture;
use crate::layers::serve_targets;
use crate::record::Row;
use crate::stats::{lower_floor, mean, percentile_sorted, sorted};
use std::time::Instant;
use tero::obs::Registry;
use tero::pool::Pool;
use tero::serve::{
    fold_answers, run_load, Answer, LoadGen, LoadReport, Query, QueryEngine, SketchRef,
    QUERY_PERCENTILES,
};
use tero::stats::percentile_nearest_rank;

/// The pinned serving-accuracy contract (`tests/serve_accuracy.rs`):
/// relative error at most `(1 + a) / (1 - a) - 1` at `a = 0.01`, ≤ 2.02 %.
const SERVE_RELATIVE_ERROR: f64 = 2.0 * 0.01 / (1.0 - 0.01);

pub struct ServeFixture {
    pub engine: QueryEngine,
    pub queries: Vec<Query>,
    /// The stream's answers folded through a default-cache engine by one
    /// client: what every pass of either serve workload must reproduce.
    pub reference: LoadReport,
    pub pool: Pool,
}

/// An engine over the reference store with every served key touched
/// once: the hot workload measures hits, not first touches. `cache` is
/// `Kind::Serve`'s: `None` for the default engine, `Some(0)` for cache off.
pub fn warmed_engine(fx: &Fixture, cache: Option<usize>) -> QueryEngine {
    let registry = Registry::new();
    let engine = match cache {
        None => QueryEngine::new(fx.store.clone(), &registry),
        Some(capacity) => QueryEngine::with_cache_capacity(fx.store.clone(), &registry, capacity),
    };
    for target in serve_targets(&fx.store) {
        engine.percentile(&target, 50.0);
    }
    engine
}

pub fn setup(
    fx: &Fixture,
    cache: Option<usize>,
    queries: usize,
    seed: u64,
    workers: usize,
) -> ServeFixture {
    let queries = LoadGen::new(seed, serve_targets(&fx.store)).generate(queries);
    let reference_engine = warmed_engine(fx, None);
    let answers: Vec<Answer> = queries.iter().map(|q| reference_engine.query(q)).collect();
    ServeFixture {
        engine: warmed_engine(fx, cache),
        queries,
        reference: fold_answers(&answers),
        pool: Pool::new(workers),
    }
}

/// One client's timed pass over a query stream.
pub struct Pass {
    pub lat_us: Vec<f64>,
    pub answers: Vec<Answer>,
}

pub fn timed_pass(engine: &QueryEngine, queries: &[Query]) -> Pass {
    let mut lat_us = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        let start = Instant::now();
        let answer = engine.query(q);
        lat_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        answers.push(answer);
    }
    Pass { lat_us, answers }
}

fn query_kind(q: &Query) -> &'static str {
    match q {
        Query::Percentile { .. } => "percentile",
        Query::Cdf { .. } => "cdf",
        Query::Histogram { .. } => "histogram",
        Query::Wasserstein { .. } => "wasserstein",
    }
}

/// Mean latency per query kind, as `serve.query_us.<kind>` rows.
pub fn query_kind_rows(queries: &[Query], lat_us: &[f64]) -> Vec<Row> {
    ["percentile", "cdf", "histogram", "wasserstein"]
        .into_iter()
        .map(|kind| {
            let of_kind: Vec<f64> = queries
                .iter()
                .zip(lat_us)
                .filter(|(q, _)| query_kind(q) == kind)
                .map(|(_, us)| *us)
                .collect();
            Row::one(format!("serve.query_us.{kind}"), "us", mean(&of_kind))
        })
        .collect()
}

/// One repetition as it alone saw the workload.
pub struct ServeRep {
    pub p50_us: f64,
    pub p99_us: f64,
    /// The timed one-client pass: queries over the sum of their latencies.
    pub qps_1_client: f64,
    /// The `W`-client replay.
    pub qps: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Failed operations of one pass: every query when the folded checksum
/// is off, else the queries that found nothing where the reference did.
fn pass_failures(pass: &str, got: LoadReport, want: LoadReport, failures: &mut Vec<String>) -> u64 {
    if got == want {
        return 0;
    }
    failures.push(format!(
        "{pass}: replay folds to {got:?}, reference is {want:?}"
    ));
    if got.checksum != want.checksum {
        got.queries
    } else {
        want.answered.saturating_sub(got.answered)
    }
}

/// One repetition; `floor_us` keeps every query's fastest occurrence over
/// all repetitions so far.
pub fn one_rep(sf: &ServeFixture, floor_us: &mut Vec<f64>) -> ServeRep {
    let mut failures = Vec::new();
    let pass = timed_pass(&sf.engine, &sf.queries);
    let mut failed = pass_failures(
        "1 client",
        fold_answers(&pass.answers),
        sf.reference,
        &mut failures,
    );
    drop(pass.answers);
    lower_floor(floor_us, &pass.lat_us);
    let by_rank = sorted(pass.lat_us);

    let start = Instant::now();
    let report = run_load(&sf.engine, &sf.pool, &sf.queries);
    let wall_s = start.elapsed().as_secs_f64();
    failed += pass_failures("W clients", report, sf.reference, &mut failures);
    ServeRep {
        p50_us: percentile_sorted(&by_rank, 50.0),
        p99_us: percentile_sorted(&by_rank, 99.0),
        qps_1_client: by_rank.len() as f64 * 1e6 / by_rank.iter().sum::<f64>(),
        qps: sf.queries.len() as f64 / wall_s,
        attempted: 2 * sf.queries.len() as u64,
        failed,
        failures,
    }
}

/// End-to-end rows. The latency percentiles are over each query's fastest
/// occurrence (see [`Row`]), and `qps_1_client` is the pass over the sum of
/// those: the rate one closed-loop client is served at. `qps`, the
/// `W`-client replay, has no floor and reports the median replay: the
/// clients contend for the engine's lock, and how hard depends on how the
/// host runs the two vCPUs (a cold replay runs at 70 to 100 k queries a
/// second with the phase the host is in, and now and then one at 220 k).
pub fn e2e_rows(reps: &[ServeRep], floor_us: &[f64]) -> Vec<Row> {
    let per_rep = |f: fn(&ServeRep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let by_rank = sorted(floor_us.to_vec());
    vec![
        Row::floor(
            "qps_1_client",
            "1/s",
            by_rank.len() as f64 * 1e6 / by_rank.iter().sum::<f64>(),
            &per_rep(|r| r.qps_1_client),
        ),
        Row::median("qps", "1/s", &per_rep(|r| r.qps)),
        Row::floor(
            "query_p50_us",
            "us",
            percentile_sorted(&by_rank, 50.0),
            &per_rep(|r| r.p50_us),
        ),
        Row::floor(
            "query_p99_us",
            "us",
            percentile_sorted(&by_rank, 99.0),
            &per_rep(|r| r.p99_us),
        ),
    ]
}

/// Served percentiles against the exact nearest-rank values of the
/// reference report. Returns `(checked, off_contract)`.
pub fn accuracy(fx: &Fixture, engine: &QueryEngine, failures: &mut Vec<String>) -> (u64, u64) {
    let (mut checked, mut off) = (0, 0);
    for (granularity, game, location_key) in engine.distributions() {
        let target = SketchRef::dist(granularity, game, &location_key);
        let Some(n) = engine.boxplot(&target).map(|b| b.n) else {
            continue;
        };
        // Same key, game and sample count: the count tells granularities
        // apart for country-only groups, which publish one key at both.
        let Some(dist) = fx
            .reference
            .distributions
            .iter()
            .find(|d| d.game == game && d.location.key() == location_key && d.stats.n == n)
        else {
            checked += 1;
            off += 1;
            failures.push(format!("{location_key}: served but not in the report"));
            continue;
        };
        for p in QUERY_PERCENTILES {
            checked += 1;
            let served = engine.percentile(&target, p);
            let exact = percentile_nearest_rank(&dist.values_ms, p);
            let within = matches!((served, exact), (Some(s), Some(e))
                if (s - e).abs() <= SERVE_RELATIVE_ERROR * e + 1e-9);
            if !within {
                off += 1;
                failures.push(format!(
                    "{location_key} p{p}: served {served:?}, exact {exact:?}"
                ));
            }
        }
    }
    (checked, off)
}

/// The serve-only rows of the traced run: what timing every query costs
/// (the traced pass against a plain loop), and how throughput scales from
/// one closed-loop client to `W`.
pub fn traced_rows(sf: &ServeFixture, workers: usize) -> Vec<Row> {
    let start = Instant::now();
    std::hint::black_box(timed_pass(&sf.engine, &sf.queries).lat_us);
    let timed_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for q in &sf.queries {
        std::hint::black_box(sf.engine.query(q));
    }
    let plain_s = start.elapsed().as_secs_f64();

    let qps_at = |clients: usize| {
        let pool = Pool::new(clients);
        let start = Instant::now();
        std::hint::black_box(run_load(&sf.engine, &pool, &sf.queries));
        sf.queries.len() as f64 / start.elapsed().as_secs_f64()
    };
    let (one, many) = (qps_at(1), qps_at(workers));
    vec![
        Row::one("serve.qps_1_client", "1/s", one),
        Row::one("serve.client_scaling_x", "x", many / one),
        Row::one("trace.overhead_ratio", "ratio", timed_s / plain_s),
    ]
}
