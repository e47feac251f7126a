//! Anomaly watch — exercise the §3.3.2 detector and the App. F shared-
//! anomaly test on a world with an injected regional outage, the way a
//! monitoring deployment of Tero would see it.
//!
//! ```sh
//! cargo run --release --example anomaly_watch
//! ```

use tero::core::pipeline::{ExtractionMode, Tero};
use tero::types::GameId;
use tero::world::{World, WorldConfig};

fn main() {
    // One game's players concentrated in two regions, plus an injected
    // surge of shared events for that game (a release-day-style incident).
    let gaz = tero::geoparse::Gazetteer::new();
    let game = GameId::LeagueOfLegends;
    let pinned = vec![
        (World::city(&gaz, "Chicago"), game, 50),
        (World::city(&gaz, "Paris"), game, 50),
    ];
    let mut world = World::build(WorldConfig {
        seed: 99,
        n_streamers: 20,
        days: 8,
        pinned,
        shared_events: 0,
        release_event: Some((game, 3)),
        api_budget_per_min: 2_000,
    });
    println!(
        "injected {} ground-truth shared events for {}",
        world.shared_events.len(),
        game.name()
    );

    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        ..Tero::default()
    };
    let report = tero.run(&mut world);

    let spikes: usize = report.anomalies.values().map(|r| r.spikes.len()).sum();
    let glitch_discards: usize = report
        .anomalies
        .values()
        .flat_map(|r| r.labels.iter())
        .filter(|l| {
            matches!(
                l,
                tero::core::analysis::anomaly::SegmentLabel::DiscardedGlitch
                    | tero::core::analysis::anomaly::SegmentLabel::CorrectedGlitch
            )
        })
        .count();
    println!();
    println!("per-streamer anomaly detection:");
    println!("  spikes: {spikes}   glitch segments handled: {glitch_discards}");

    println!();
    println!("shared anomalies (App. F binomial test):");
    if report.shared_anomalies.is_empty() {
        println!("  none — increase the world size or event magnitude");
    }
    for a in &report.shared_anomalies {
        println!(
            "  {} @ {}: {}/{} streamers spiking together (p = {:.2e})",
            a.region, a.at, a.spiking, a.active, a.probability
        );
    }

    // A monitoring deployment also cares *what kind* of locations the
    // served latency picture was aggregated under: every committed
    // distribution sketch carries a provenance marker (`c` = canonical,
    // all members located by committed profile-backed `engine:locate:*`
    // results; `p` = a mid-run provisional social-profile-only
    // fallback). The horizon's locate slice drains the queue before the
    // last aggregation pass, so the watch must read 100 % canonical.
    use tero::core::serving::{dist_provenance, DistProvenance, DIST_SKETCH_PREFIX};
    let store = tero.serving_store().expect("completed run serves");
    let dist_keys = store.keys_with_prefix(DIST_SKETCH_PREFIX);
    let canonical = dist_keys
        .iter()
        .filter(|key| dist_provenance(&store, key) == Some(DistProvenance::Canonical))
        .count();
    assert_eq!(
        canonical,
        dist_keys.len(),
        "the horizon serves canonical locations only"
    );
    println!();
    println!(
        "served distributions: {} sketches, {canonical} canonical — the",
        dist_keys.len()
    );
    println!("  anomaly picture above was aggregated under settled locations.");

    // How a deployment would read this: simultaneous spikes in multiple
    // regions for one game on release day → the game's own infrastructure,
    // not the regions' networks.
    let mut regions: Vec<String> = report
        .shared_anomalies
        .iter()
        .map(|a| a.region.key())
        .collect();
    regions.sort();
    regions.dedup();
    if regions.len() >= 2 {
        println!();
        println!(
            "→ {} regions affected at once for one game: points at the game's",
            regions.len()
        );
        println!("  servers or their connectivity (the paper's §4.2.3 reading).");
    }
}
