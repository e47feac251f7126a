//! Serving-layer explorer: run the pipeline, stand up a `tero-serve`
//! query engine over the committed sketches, and walk through every query
//! shape — percentiles against the exact report values, CDFs, histograms,
//! Wasserstein comparisons, and a seeded load replay.
//!
//! ```sh
//! cargo run --release --example serve_explore            # defaults
//! cargo run --release --example serve_explore -- 7      # explicit seed
//! cargo run --release --example serve_explore -- 7 4    # run in 4 windows
//! ```
//!
//! The first argument is the world seed, the optional second a window
//! count: the run is driven through `Tero::run_window` in that many equal
//! time slices (`1` = the single-shot `run()`). Stdout is **byte-stable**:
//! for a fixed seed it is identical across repeat runs, worker counts and
//! window schedules, because everything printed derives from the committed
//! sketches (byte-identical by the serving layer's determinism contract)
//! and from sequential, seed-pinned query streams. Run-specific facts —
//! the serving version, wall-clock — go to stderr. `scripts/ci.sh` runs
//! this example twice and diffs stdout, then once more with a 4-window
//! schedule and diffs again.

use tero::core::pipeline::{ExtractionMode, Tero, TeroReport, WindowOutcome};
use tero::core::serving::{dist_provenance, dist_sketch_key, DistProvenance, ServeGranularity};
use tero::pool::Pool;
use tero::serve::{run_load, LoadGen, QueryEngine, SketchRef};
use tero::types::{GameId, Location, SimDuration, SimTime};
use tero::world::{World, WorldConfig};

/// Drive the run as `n` equal windows through the staged engine.
fn run_windowed(tero: &Tero, world: &mut World, n: u64) -> TeroReport {
    let horizon = world.horizon;
    let step = SimDuration::from_micros(horizon.as_micros().div_ceil(n).max(1));
    let mut to = SimTime::EPOCH + step;
    loop {
        match tero.run_window(world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => return report,
            WindowOutcome::Advanced => to += step,
            WindowOutcome::Killed => {}
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be a u64"))
        .unwrap_or(7);
    let windows: u64 = args
        .next()
        .map(|a| a.parse().expect("windows must be a u64"))
        .unwrap_or(1);

    // The §5.2 workload shape: streamers pinned to a handful of places so
    // the publish stage has location groups that clear `min_streamers` —
    // a random small world rarely concentrates enough located streamers
    // in one country to publish anything.
    let locations = [
        Location::country("Netherlands"),
        Location::country("Poland"),
        Location::country("Switzerland"),
        Location::region("United States", "Illinois"),
    ];
    let pinned = locations
        .iter()
        .map(|l| (l.clone(), GameId::LeagueOfLegends, 16))
        .collect();
    let mut world = World::build(WorldConfig {
        seed,
        n_streamers: 0,
        days: 3,
        pinned,
        api_budget_per_min: 2_000,
        ..WorldConfig::default()
    });
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        ..Tero::default()
    };
    let report = if windows <= 1 {
        tero.run(&mut world)
    } else {
        run_windowed(&tero, &mut world, windows)
    };

    // The serving store outlives the engine; the query front-end wraps it.
    let engine = QueryEngine::new(
        tero.serving_store().expect("completed run serves"),
        &tero.obs,
    );
    // Run-specific: the version counts engine commits, which vary with
    // the window schedule — stderr, like trace_explore's output path.
    eprintln!("serving view at version {}", engine.version());

    // ---- Every served distribution, sketch vs exact report summary ----
    println!("== served distributions (seed {seed}) ==");
    let served = engine.distributions();
    println!(
        "{} distributions served, {} in the report",
        served.len(),
        report.distributions.len()
    );
    // Every sketch carries a provenance marker: `c` when all members were
    // located by committed (profile-backed) `engine:locate:*` results, `p`
    // when a mid-run window served a provisional social-profile-only
    // fallback. The horizon's locate slice drains the queue before the
    // last aggregation pass, which then serves the settled canonical
    // analyses, so the markers must read 100 % canonical regardless of the
    // window schedule.
    let store = tero.serving_store().expect("completed run serves");
    for (granularity, game, location_key) in &served {
        let target = SketchRef::dist(*granularity, *game, location_key);
        let sketch_bp = engine.boxplot(&target).expect("served sketch is non-empty");
        // The matching report distribution: same location key, game and
        // sample count (count disambiguates the two granularities when a
        // country-only-located group publishes the same key at both).
        let exact = report
            .distributions
            .iter()
            .find(|d| {
                d.game == *game && d.location.key() == *location_key && d.stats.n == sketch_bp.n
            })
            .expect("every served distribution is in the report");
        let tag = match granularity {
            ServeGranularity::Region => 'r',
            ServeGranularity::Country => 'c',
        };
        let prov = dist_provenance(&store, &dist_sketch_key(*granularity, *game, location_key))
            .expect("every served sketch carries a provenance marker");
        println!(
            "[{tag}/{}] {location_key} / {game}: n={} served p50={:.2} p95={:.2} (report p50={:.2} p95={:.2})",
            prov.tag(), sketch_bp.n, sketch_bp.p50, sketch_bp.p95, exact.stats.p50, exact.stats.p95
        );
    }
    let canonical = served
        .iter()
        .filter(|(g, game, loc)| {
            dist_provenance(&store, &dist_sketch_key(*g, *game, loc))
                == Some(DistProvenance::Canonical)
        })
        .count();
    assert_eq!(
        canonical,
        served.len(),
        "the horizon serves canonical locations only"
    );
    println!(
        "provenance: {canonical}/{} canonical at the horizon",
        served.len()
    );

    // ---- CDF and histogram of the largest distribution ----------------
    let largest = served
        .iter()
        .max_by_key(|(g, game, loc)| {
            let bp = engine.boxplot(&SketchRef::dist(*g, *game, loc));
            (
                bp.map(|b| b.n).unwrap_or(0),
                std::cmp::Reverse((*g, *game, loc.clone())),
            )
        })
        .expect("run published at least one distribution");
    let target = SketchRef::dist(largest.0, largest.1, &largest.2);
    println!();
    println!("== {} / {} in depth ==", largest.2, largest.1);
    for x in [25.0, 50.0, 75.0, 100.0, 150.0] {
        println!(
            "  P(latency <= {x:>5.1} ms) = {:.4}",
            engine.cdf(&target, x).expect("non-empty")
        );
    }
    let rows = engine.histogram(&target);
    println!(
        "  histogram: {} buckets, {} values, widest bucket holds {}",
        rows.len(),
        rows.iter().map(|r| r.2).sum::<u64>(),
        rows.iter().map(|r| r.2).max().unwrap_or(0)
    );

    // ---- Wasserstein distances between the first few distributions ----
    println!();
    println!("== pairwise Wasserstein-1 (first 3 served) ==");
    for (ga, gamea, la) in served.iter().take(3) {
        for (gb, gameb, lb) in served.iter().take(3) {
            let d = engine
                .wasserstein(
                    &SketchRef::dist(*ga, *gamea, la),
                    &SketchRef::dist(*gb, *gameb, lb),
                )
                .expect("non-empty");
            print!("  {d:>8.2}");
        }
        println!(
            "  <- [{}] {la} / {gamea}",
            match ga {
                ServeGranularity::Region => 'r',
                ServeGranularity::Country => 'c',
            }
        );
    }

    // ---- Sequential warm-up: deterministic cache behaviour ------------
    // Cache hit/miss counts are only schedule-dependent under parallel
    // replay (which worker warms a key first is a race); a sequential
    // stream's counts depend on nothing but the query order.
    let targets: Vec<SketchRef> = served
        .iter()
        .map(|(g, game, loc)| SketchRef::dist(*g, *game, loc))
        .collect();
    let warm_queries = LoadGen::new(seed, targets.clone()).generate(500);
    for q in &warm_queries {
        engine.query(q);
    }
    let (hits, misses, evictions) = engine.cache_stats();
    println!();
    println!("== sequential replay, 500 queries ==");
    println!("cache: {hits} hits, {misses} misses, {evictions} evictions");

    // ---- Parallel load replay: only the answers are contract ----------
    let load_queries = LoadGen::new(seed.wrapping_add(1), targets).generate(20_000);
    let load = run_load(&engine, &Pool::new(4), &load_queries);
    println!();
    println!("== parallel replay, 4 workers ==");
    println!(
        "{} queries, {} answered, answer checksum {:#018x}",
        load.queries, load.answered, load.checksum
    );
}
