//! Fig 12 — latency distributions for El Salvador and Jamaica, countries
//! with no RIPE probes, compared against locations at a similar distance
//! (±200 km) from the Miami game server.
//!
//! This is the paper's "measurement where no infrastructure exists"
//! showcase: Tero produces distributions for places no open platform
//! covers.

use crate::{ascii_box, header, run_lol_world, Args, Outcome, Text};
use serde::Serialize;
use tero_types::{GameId, Location};

#[derive(Serialize)]
struct Row {
    location: String,
    panel: &'static str,
    corrected_km: f64,
    p25: f64,
    p50: f64,
    p75: f64,
    n: usize,
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let per = args.count("--per");
    let days = args.count("--days") as u64;

    // Panel (a): El Salvador and Mexican/Central-American peers; panel
    // (b): Jamaica and Caribbean/Colombian peers — all served by Miami.
    let panel_a: Vec<Location> = vec![
        Location::country("El Salvador"),
        Location::region("Mexico", "Chiapas"),
        Location::region("Mexico", "Tabasco"),
        Location::region("Mexico", "Veracruz"),
        Location::region("Mexico", "Tamaulipas"),
        Location::region("Mexico", "Campeche"),
        Location::region("Honduras", "Francisco Morazan"),
        Location::country("Costa Rica"),
        Location::country("Nicaragua"),
    ];
    let panel_b: Vec<Location> = vec![
        Location::country("Jamaica"),
        Location::region("Mexico", "Quintana Roo"),
        Location::region("Mexico", "Yucatan"),
        Location::region("Colombia", "Magdalena"),
        Location::region("Colombia", "Atlantico"),
        Location::region("Colombia", "Bolivar"),
    ];
    let mut locations: Vec<Location> = panel_a.iter().chain(panel_b.iter()).cloned().collect();
    locations.sort();
    locations.dedup();

    header(
        &mut text,
        "Fig 12: El Salvador & Jamaica vs similar-distance peers (Miami server)",
    );
    let report = run_lol_world(&locations, per, days, 1212);

    let mut rows = Vec::new();
    for (panel, members) in [("(a) El Salvador", &panel_a), ("(b) Jamaica", &panel_b)] {
        writeln!(text);
        writeln!(text, "{panel}:");
        for loc in members {
            let Some(dist) = report.distribution(loc, GameId::LeagueOfLegends) else {
                eprintln!("warning: no distribution for {loc}");
                continue;
            };
            let r = Row {
                location: loc.to_string(),
                panel,
                corrected_km: dist.corrected_distance_km.unwrap_or(0.0),
                p25: dist.stats.p25,
                p50: dist.stats.p50,
                p75: dist.stats.p75,
                n: dist.stats.n,
            };
            let stats = tero_stats::BoxplotStats {
                n: r.n,
                mean: r.p50,
                p5: r.p25,
                p25: r.p25,
                p50: r.p50,
                p75: r.p75,
                p95: r.p75,
            };
            writeln!(
                text,
                "  {:<30} [{}] p50 {:>5.1} ms ({:>4.0} km from Miami)",
                r.location,
                ascii_box(&stats, 0.0, 120.0, 40),
                r.p50,
                r.corrected_km
            );
            rows.push(r);
        }
    }
    writeln!(text);
    writeln!(
        text,
        "El Salvador and Jamaica have no RIPE probes; these distributions are the"
    );
    writeln!(
        text,
        "kind of measurement only a passive source like Tero can provide (§5.2)."
    );

    Outcome::with_json(text, "fig12_underserved", &rows)
}
