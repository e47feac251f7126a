//! Cross-crate integration: geodesy ↔ game-region assignment ↔ world
//! generation ↔ geoparsing, exercised together.

use tero::geoparse::combine::combine_twitch_description;
use tero::geoparse::{Gazetteer, PlaceKind};
use tero::types::{GameId, Location, SimRng, SimTime};
use tero::world::games::{corrected_distance_to, primary_server};
use tero::world::sessions::generate_timeline;
use tero::world::streamer::Streamer;
use tero::world::textgen::{twitch_description, DescriptionStyle};

#[test]
fn corrected_distance_feeds_server_assignment_consistently() {
    let gaz = Gazetteer::new();
    for game in GameId::ALL {
        for country in ["France", "Brazil", "Japan", "United States", "Chile"] {
            let loc = Location::country(country);
            let server = primary_server(&gaz, game, &loc)
                .unwrap_or_else(|| panic!("no server for {country}/{game}"));
            let d = corrected_distance_to(&gaz, &loc, &server).unwrap();
            assert!(d > 0.0 && d < 20_000.0, "{country}/{game}: {d} km");
        }
    }
}

#[test]
fn formal_descriptions_geocode_to_the_true_home() {
    let gaz = Gazetteer::new();
    let mut rng = SimRng::new(5);
    let cities: Vec<_> = gaz
        .places()
        .iter()
        .filter(|p| p.kind == PlaceKind::City)
        .take(30)
        .cloned()
        .collect();
    let mut located = 0;
    for home in &cities {
        let desc = twitch_description(DescriptionStyle::Formal, home, &mut rng);
        if let Some(out) = combine_twitch_description(&gaz, &desc) {
            located += 1;
            let truth = &home.location;
            assert!(
                out == *truth || out.subsumes(truth) || truth.subsumes(&out),
                "desc {desc:?}: {out} vs truth {truth}"
            );
        }
    }
    assert!(
        located >= 25,
        "only {located}/30 formal descriptions located"
    );
}

#[test]
fn timeline_latency_reflects_server_distance() {
    // Streamers far from their primary server must see higher ground-truth
    // latency than streamers next to it.
    let gaz = Gazetteer::new();
    let mut rng = SimRng::new(6);
    let horizon = SimTime::from_hours(24 * 20);
    let mean_rtt = |city: &str, rng: &mut SimRng| -> f64 {
        let home = gaz.lookup_kind(city, PlaceKind::City)[0].clone();
        let mut s = Streamer::generate(&gaz, home, horizon, rng);
        s.games = vec![GameId::LeagueOfLegends];
        s.off_primary = None;
        let streams = generate_timeline(&s, &gaz, &[], horizon, rng);
        let xs: Vec<f64> = streams
            .iter()
            .flat_map(|st| st.samples.iter())
            .filter(|x| x.server_idx == 1 || x.server_idx == 0) // any
            .map(|x| x.true_rtt_ms)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    // Amsterdam sits on the EUW server; Honolulu is 6800+ km from Chicago.
    let close = mean_rtt("Amsterdam", &mut rng);
    let far = mean_rtt("Honolulu", &mut rng);
    assert!(
        far > close + 40.0,
        "Honolulu {far:.1} ms should dwarf Amsterdam {close:.1} ms"
    );
}

#[test]
fn world_streams_never_overlap_per_streamer() {
    let world = tero::world::World::build(tero::world::WorldConfig {
        seed: 31,
        n_streamers: 25,
        days: 5,
        ..Default::default()
    });
    for timeline in world.timelines() {
        for pair in timeline.windows(2) {
            assert!(
                pair[0].end <= pair[1].start,
                "streams overlap: {:?} then {:?}",
                (pair[0].start, pair[0].end),
                (pair[1].start, pair[1].end)
            );
        }
        for stream in timeline {
            for pair in stream.samples.windows(2) {
                assert!(pair[0].t < pair[1].t, "samples out of order");
            }
        }
    }
}

#[test]
fn cdn_contents_match_ground_truth_samples() {
    let world = tero::world::World::build(tero::world::WorldConfig {
        seed: 32,
        n_streamers: 10,
        days: 2,
        ..Default::default()
    });
    // Every ground-truth sample must be retrievable through the CDN at its
    // own timestamp.
    let mut checked = 0;
    for (streamer, timeline) in world.streamers().iter().zip(world.timelines()) {
        for stream in timeline {
            for s in stream.samples.iter().take(3) {
                let url = format!("cdn://thumbs/{}", streamer.id.as_str());
                match world.twitch.cdn_fetch(&url, s.t) {
                    tero::world::twitch::CdnResponse::Thumbnail { generated_at, .. } => {
                        assert_eq!(generated_at, s.t);
                        checked += 1;
                    }
                    tero::world::twitch::CdnResponse::Offline => {
                        panic!("live sample not served")
                    }
                    tero::world::twitch::CdnResponse::TimedOut
                    | tero::world::twitch::CdnResponse::Truncated => {
                        panic!("no fault injector installed; the CDN cannot fault")
                    }
                }
            }
        }
    }
    assert!(checked > 20);
}
