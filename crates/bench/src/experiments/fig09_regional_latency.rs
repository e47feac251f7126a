//! Fig 9 — League-of-Legends latency distributions for the locations with
//! the best and worst (a) absolute and (b) distance-normalised latency.
//!
//! Builds a world with the paper's locations pinned (50 League streamers
//! each after location matching), runs the full pipeline, and prints each
//! location's 5/25/50/75/95 boxplot with its primary server and average
//! corrected distance — the same annotations as the paper's figure.
//!
//! Paper's ordering to reproduce: best absolute latency at Korea/Illinois/
//! Netherlands/Chile (all < 500 km from their servers); worst at Bolivia,
//! Greece, Saudi Arabia, Hawaii; Turkey's 75th percentile as bad as
//! double-distance Brazil; Bolivia as bad as 3.5×-distance Hawaii.

use crate::{ascii_box, boxplot_row, header, run_lol_world, Args, Outcome, Text};
use serde::Serialize;
use tero_types::{GameId, Location};

#[derive(Serialize)]
struct Row {
    label: String,
    n: usize,
    location: String,
    server: Option<String>,
    corrected_km: Option<f64>,
    p25: f64,
    p50: f64,
    p75: f64,
    p95: f64,
    normalized_p50: Option<f64>,
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let per = args.count("--per");
    let days = args.count("--days") as u64;

    let locations = vec![
        Location::country("South Korea"),
        Location::region("United States", "Illinois"),
        Location::country("Netherlands"),
        Location::country("Chile"),
        Location::country("Bolivia"),
        Location::country("Greece"),
        Location::country("Saudi Arabia"),
        Location::region("United States", "Hawaii"),
        Location::country("Turkey"),
        Location::country("Belgium"),
        Location::country("Brazil"),
        Location::country("Ecuador"),
        Location::country("Lithuania"),
        Location::region("United States", "Montana"),
    ];
    header(
        &mut text,
        "Fig 9: LoL latency by location (building world, running pipeline)",
    );
    let report = run_lol_world(&locations, per, days, 909);

    let mut rows: Vec<Row> = Vec::new();
    for loc in &locations {
        let Some(dist) = report.distribution(loc, GameId::LeagueOfLegends) else {
            eprintln!("warning: no distribution for {loc}");
            continue;
        };
        rows.push(Row {
            label: loc.to_string(),
            n: dist.stats.n,
            location: loc.key(),
            server: dist.server.as_ref().map(|s| s.to_string()),
            corrected_km: dist.corrected_distance_km,
            p25: dist.stats.p25,
            p50: dist.stats.p50,
            p75: dist.stats.p75,
            p95: dist.stats.p95,
            normalized_p50: dist.normalized.as_ref().map(|n| n.p50),
        });
    }

    // (a) sorted by absolute median.
    rows.sort_by(|a, b| a.p50.total_cmp(&b.p50));
    writeln!(text);
    writeln!(text, "(a) by absolute latency (best → worst):");
    for (loc, r) in rows.iter().map(|r| (&r.label, r)) {
        let server = r.server.as_deref().unwrap_or("?");
        let km = r.corrected_km.unwrap_or(0.0);
        let stats = tero_stats::BoxplotStats {
            n: r.n,
            mean: r.p50,
            p5: r.p25, // unused in strip
            p25: r.p25,
            p50: r.p50,
            p75: r.p75,
            p95: r.p95,
        };
        writeln!(
            text,
            "  {:<28} [{}] {:>5.0} km via {server}",
            loc,
            ascii_box(&stats, 0.0, 200.0, 50),
            km
        );
        writeln!(text, "    {}", boxplot_row("", &stats));
    }

    // (b) by distance-normalised median.
    let mut by_norm: Vec<(&Row, f64)> = rows
        .iter()
        .filter_map(|r| Some((r, r.normalized_p50?)))
        .collect();
    by_norm.sort_by(|a, b| b.1.total_cmp(&a.1));
    writeln!(text);
    writeln!(
        text,
        "(b) by distance-normalised latency (worst → best, ms per 1000 km):"
    );
    for (r, normalized_p50) in &by_norm {
        writeln!(
            text,
            "  {:<28} {:>8.1} ms/Mm   (absolute p50 {:>5.1} ms over {:>5.0} km)",
            r.label,
            normalized_p50,
            r.p50,
            r.corrected_km.unwrap_or(0.0)
        );
    }

    // Paper cross-checks.
    writeln!(text);
    let get = |name: &str| rows.iter().find(|r| r.label.contains(name));
    if let (Some(tr), Some(br)) = (get("Turkey"), get("Brazil")) {
        writeln!(
            text,
            "Turkey p75 {:.0} ms at {:.0} km vs Brazil p75 {:.0} ms at {:.0} km (paper: similar p75, double distance)",
            tr.p75, tr.corrected_km.unwrap_or(0.0), br.p75, br.corrected_km.unwrap_or(0.0)
        );
    }
    if let (Some(bo), Some(hi)) = (get("Bolivia"), get("Hawaii")) {
        writeln!(
            text,
            "Bolivia p75 {:.0} ms at {:.0} km vs Hawaii p75 {:.0} ms at {:.0} km (paper: similar p75, 3.5x distance)",
            bo.p75, bo.corrected_km.unwrap_or(0.0), hi.p75, hi.corrected_km.unwrap_or(0.0)
        );
    }
    if let (Some(gr), Some(sa)) = (get("Greece"), get("Saudi")) {
        writeln!(
            text,
            "Greece p75 {:.0} ms vs Saudi Arabia p75 {:.0} ms (paper: ~25 ms apart at similar distance)",
            gr.p75, sa.p75
        );
    }

    Outcome::with_json(text, "fig09_regional_latency", &rows)
}
