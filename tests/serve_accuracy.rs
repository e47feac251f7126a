//! The serving layer's accuracy and determinism contract.
//!
//! * **Accuracy**: every percentile served from the committed sketches
//!   sits within the sketch's documented relative-error bound
//!   (`QuantileSketch::relative_error_bound`, ≈ 2 % at the default
//!   accuracy) of the *exact* nearest-rank value computed from the same
//!   retained samples the §5.2 report is built from.
//! * **Determinism**: the committed serving bytes — every `engine:serve:`
//!   key except the schedule-dependent version counter — are
//!   byte-identical across worker counts and window schedules, so any
//!   query replay folds to the same checksum.
//! * **Emptiness**: a percentile of nothing is `None`, not a number —
//!   absent and empty distributions answer identically.

mod common;

use common::serving_bytes;
use tero::core::pipeline::{ExtractionMode, Tero, TeroReport, WindowOutcome};
use tero::core::serving::ServeGranularity;
use tero::serve::{fold_answers, LoadGen, QueryEngine, SketchRef, QUERY_PERCENTILES};
use tero::stats::{percentile_nearest_rank, QuantileSketch, DEFAULT_ALPHA};
use tero::store::KvStore;
use tero::types::{GameId, Location, SimDuration, SimTime};
use tero::world::{World, WorldConfig};

/// The §5.2 workload shape (same as `examples/serve_explore.rs`):
/// streamers pinned to a handful of places so the publish stage has
/// groups that clear `min_streamers`.
fn pinned_world(seed: u64) -> World {
    let pinned = [
        Location::country("Netherlands"),
        Location::country("Poland"),
        Location::region("United States", "Illinois"),
    ]
    .map(|l| (l, GameId::LeagueOfLegends, 14))
    .into_iter()
    .collect();
    World::build(WorldConfig {
        seed,
        n_streamers: 0,
        days: 2,
        pinned,
        api_budget_per_min: 2_000,
        ..WorldConfig::default()
    })
}

fn tero(worker_threads: usize) -> Tero {
    Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        worker_threads,
        ..Tero::default()
    }
}

/// Run to completion in `windows` equal slices (1 = single-shot) and
/// return the report plus the serving store.
fn run(seed: u64, worker_threads: usize, windows: u64) -> (TeroReport, KvStore) {
    let mut world = pinned_world(seed);
    let t = tero(worker_threads);
    let report = if windows <= 1 {
        t.run(&mut world)
    } else {
        let step = SimDuration::from_micros(world.horizon.as_micros().div_ceil(windows).max(1));
        let mut to = SimTime::EPOCH + step;
        loop {
            match t.run_window(&mut world, SimTime::EPOCH, to) {
                WindowOutcome::Complete(report) => break report,
                WindowOutcome::Advanced => to += step,
                WindowOutcome::Killed => {}
            }
        }
    };
    let kv = t.try_serving_store().expect("completed run serves");
    (report, kv)
}

/// The typed serving conditions: a fresh `Tero` is `NoCompletedRun`; a
/// completed run whose publish stage cleared nothing is
/// `NoDistributions` — even though the untyped accessor happily hands
/// back the (silently empty) store in that case.
#[test]
fn try_serving_store_types_the_empty_conditions() {
    let t = tero(1);
    assert_eq!(
        t.try_serving_store().unwrap_err(),
        tero::core::serving::ServingError::NoCompletedRun
    );

    // A publish threshold no group can clear: the run completes, the
    // store exists, but zero distribution sketches were published.
    let mut world = pinned_world(9);
    let t = Tero {
        min_streamers: 10_000,
        ..tero(1)
    };
    t.run(&mut world);
    assert!(
        t.serving_store().is_some(),
        "untyped accessor serves the empty store without complaint"
    );
    assert_eq!(
        t.try_serving_store().unwrap_err(),
        tero::core::serving::ServingError::NoDistributions
    );
}

#[test]
fn served_percentiles_within_documented_bound_of_exact() {
    let (report, kv) = run(11, 2, 1);
    let engine = QueryEngine::new(kv, &tero_trace::obs::Registry::new());
    let served = engine.distributions();
    assert!(
        !served.is_empty(),
        "pinned world publishes distributions to serve"
    );
    assert_eq!(served.len(), report.distributions.len());

    let bound = QuantileSketch::new(DEFAULT_ALPHA).relative_error_bound();
    for (granularity, game, location_key) in &served {
        let target = SketchRef::dist(*granularity, *game, location_key);
        let n = engine.boxplot(&target).expect("served sketch non-empty").n;
        // The matching report distribution: same key, game and sample
        // count (count disambiguates granularities for country-only
        // groups, which publish the same key at both levels).
        let exact_values = &report
            .distributions
            .iter()
            .find(|d| d.game == *game && d.location.key() == *location_key && d.stats.n == n)
            .expect("every served distribution is in the report")
            .values_ms;
        assert_eq!(n, exact_values.len());

        for p in QUERY_PERCENTILES {
            let served_p = engine.percentile(&target, p).expect("non-empty");
            let exact_p = percentile_nearest_rank(exact_values, p).expect("non-empty");
            let err = (served_p - exact_p).abs();
            assert!(
                err <= bound * exact_p + 1e-9,
                "[{granularity:?}] {location_key}/{game} p{p}: served {served_p} vs exact \
                 {exact_p} — relative error {:.4} exceeds bound {bound:.4}",
                err / exact_p
            );
        }
    }
}

#[test]
fn serving_bytes_identical_across_workers_and_schedules() {
    let (_, baseline) = run(11, 2, 1);
    let baseline = serving_bytes(&baseline);
    assert!(!baseline.is_empty(), "run committed serving keys");

    for (workers, windows) in [(1, 1), (4, 1), (2, 5), (4, 8)] {
        let (_, kv) = run(11, workers, windows);
        assert_eq!(
            serving_bytes(&kv),
            baseline,
            "{workers} workers / {windows} windows changed the serving bytes"
        );
    }
}

#[test]
fn replay_checksum_survives_schedule_changes() {
    // The end-to-end corollary: a fixed query stream folded over two
    // differently-scheduled runs of the same world answers identically.
    let (_, a) = run(23, 1, 1);
    let (_, b) = run(23, 4, 6);
    let ra = QueryEngine::new(a, &tero_trace::obs::Registry::new());
    let rb = QueryEngine::new(b, &tero_trace::obs::Registry::new());
    assert_eq!(ra.distributions(), rb.distributions());
    let targets: Vec<SketchRef> = ra
        .distributions()
        .iter()
        .map(|(g, game, loc)| SketchRef::dist(*g, *game, loc))
        .collect();
    let queries = LoadGen::new(23, targets).generate(2_000);
    let fold = |engine: &QueryEngine| {
        fold_answers(&queries.iter().map(|q| engine.query(q)).collect::<Vec<_>>())
    };
    assert_eq!(fold(&ra), fold(&rb));
}

/// The cold path's answer bits, pinned: a fixed query stream replayed
/// through an engine with the cache off, so every query reads the store,
/// decodes the sketch and walks it. The other checksums in this suite
/// compare one engine with another built by the same code; this literal
/// holds whatever arithmetic a cold query runs to the bits it answered
/// before, and a change that means to move an answer edits it.
#[test]
fn cold_replay_checksum_is_pinned() {
    let (_, kv) = run(11, 1, 1);
    let engine = QueryEngine::with_cache_capacity(kv, &tero_trace::obs::Registry::new(), 0);
    let targets: Vec<SketchRef> = engine
        .distributions()
        .iter()
        .map(|(g, game, loc)| SketchRef::dist(*g, *game, loc))
        .collect();
    let queries = LoadGen::new(4242, targets).generate(4_000);
    let report = fold_answers(&queries.iter().map(|q| engine.query(q)).collect::<Vec<_>>());
    assert_eq!(engine.cache_stats().0, 0, "the cache is off");
    assert_eq!(
        (report.queries, report.answered, report.checksum),
        (4_000, 4_000, 0x51d2_4518_95ef_91c5),
        "{:#018x}",
        report.checksum
    );
}

#[test]
fn empty_and_absent_distributions_answer_none() {
    let kv = KvStore::new();
    let empty = SketchRef::dist(ServeGranularity::Country, GameId::LeagueOfLegends, "France");
    kv.set(empty.key(), QuantileSketch::default().encode());
    let engine = QueryEngine::new(kv, &tero_trace::obs::Registry::new());
    let absent = SketchRef::dist(
        ServeGranularity::Region,
        GameId::LeagueOfLegends,
        "Atlantis",
    );
    for p in QUERY_PERCENTILES {
        assert_eq!(engine.percentile(&empty, p), None, "empty: p{p} is None");
        assert_eq!(engine.percentile(&absent, p), None, "absent: p{p} is None");
    }
    assert_eq!(engine.wasserstein(&empty, &absent), None);
    assert!(engine.histogram(&empty).is_empty());
    assert_eq!(engine.distributions().len(), 1, "empty is still listed");
}
