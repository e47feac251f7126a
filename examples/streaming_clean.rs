//! Online-cleaner explorer: drive a pinned-streamer world through 1-day
//! windows and watch the served per-`{location, game}` distributions
//! refresh — and drift — window by window, without waiting for the
//! horizon (docs/CLEANING.md, docs/AGGREGATION.md).
//!
//! ```sh
//! cargo run --release --example streaming_clean          # default seed
//! cargo run --release --example streaming_clean -- 7     # explicit seed
//! ```
//!
//! After every window the clean stage reseals its per-series state and
//! refreshes the views of the series it fed, and the aggregation stage
//! re-analyses and re-serves every dirty `{location, game}` group —
//! under the *canonical* locations the budgeted locate stage has
//! committed so far (all of them, at the default unlimited budget),
//! with provisional social-profile-only locations for anyone still
//! queued. This example snapshots the in-flight engine's
//! store after each window and queries those mid-run sketches, printing
//! each one's provenance marker (`c`/`p`). Stdout is **byte-stable**:
//! for a fixed seed it is identical across repeat runs and worker
//! counts, because everything printed derives from committed sketch
//! bytes and the committed `engine:clean:cursors`, both covered by
//! the determinism contract (`tests/determinism.rs`). `scripts/ci.sh`
//! runs this example twice and diffs stdout.

use tero::core::pipeline::{ExtractionMode, Tero, WindowOutcome};
use tero::core::serving::{dist_provenance, dist_sketch_key};
use tero::core::stages::clean::CLEAN_CURSORS_KEY;
use tero::serve::{QueryEngine, SketchRef};
use tero::store::KvStore;
use tero::types::{GameId, Location, SimDuration, SimTime};
use tero::world::{World, WorldConfig};

/// Query every distribution the given store serves and print one line
/// per sketch — with its provenance marker — in the serving layer's
/// stable key order.
fn print_served(label: &str, kv: KvStore, obs: &tero::obs::Registry) {
    let engine = QueryEngine::new(kv.clone(), obs);
    let served = engine.distributions();
    println!("{label}: {} distributions served", served.len());
    for (granularity, game, location_key) in &served {
        let target = SketchRef::dist(*granularity, *game, location_key);
        let bp = engine.boxplot(&target).expect("served sketch is non-empty");
        let prov = dist_provenance(&kv, &dist_sketch_key(*granularity, *game, location_key))
            .expect("every served sketch carries a provenance marker");
        println!(
            "  [{granularity:?}/{}] {location_key} / {game}: n={} p25={:.2} p50={:.2} p95={:.2}",
            prov.tag(),
            bp.n,
            bp.p25,
            bp.p50,
            bp.p95
        );
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("seed must be a u64"))
        .unwrap_or(7);

    // Streamers pinned to a handful of places (the §5.2 workload shape),
    // so the provisional groups clear `min_streamers` from the first
    // window on — a random small world rarely concentrates enough.
    let locations = [
        Location::country("Netherlands"),
        Location::country("Poland"),
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

    println!("== per-window serving refresh (seed {seed}) ==");
    let horizon = world.horizon;
    let day = SimDuration::from_hours(24);
    let mut to = SimTime::EPOCH + day;
    let mut window = 0u32;
    let report = loop {
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => break report,
            WindowOutcome::Advanced => {
                window += 1;
                // The run is still in flight, so the serving handle has
                // not swapped yet; read the engine's committed store
                // through a snapshot instead.
                let snap = tero.engine_snapshot().expect("run in flight");
                let kv = KvStore::new();
                kv.restore(&snap.kv);
                let series = kv.hgetall(CLEAN_CURSORS_KEY).len();
                println!();
                println!("-- after window {window} ({series} series fed) --");
                print_served("mid-run view", kv, &tero.obs);
                to = (to + day).min(horizon);
            }
            WindowOutcome::Killed => unreachable!("no chaos installed"),
        }
    };

    // The horizon settles the mid-run view: its locate slice drains the
    // queue and the aggregation pass after it serves its analyses under
    // canonical locations (every marker reads `c`). Same
    // cleaning — the online views are byte-identical to a batch clean
    // (the docs/CLEANING.md contract) — so any drift between the last
    // mid-run view and this one is late-arriving data, not relocation.
    println!();
    println!("== finalize ==");
    print_served(
        "canonical view",
        tero.serving_store().expect("run completed"),
        &tero.obs,
    );
    println!(
        "report: {} distributions, {} streamers located, {} anomaly series",
        report.distributions.len(),
        report.locations.len(),
        report.anomalies.len()
    );
}
