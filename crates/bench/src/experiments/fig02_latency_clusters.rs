//! Fig 2 / Fig 14 — examples of per-`{location, game}` latency clusters,
//! at the default merge threshold (Fig 2) and at ×0.5 / ×1.5 `LatGap`
//! (Fig 14's sensitivity to the merging criterion).
//!
//! Paper's shape: most locations have only one or two clusters heavier
//! than 10 %; a looser threshold merges clusters, a tighter one splits
//! them.

use crate::{header, run_lol_world, Args, Outcome, Text};
use serde::Serialize;
use tero_core::analysis::clusters::merge_location_clusters;
use tero_types::{GameId, Location};

#[derive(Serialize)]
struct ClusterRow {
    location: String,
    factor: f64,
    clusters: Vec<(u32, u32, f64)>, // (min_ms, max_ms, weight)
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let per = args.count("--per");
    let days = args.count("--days") as u64;

    // Fig 2's locations (city pins grouped at region level).
    let pins = vec![
        Location::city("France", "Ile-de-France", "Paris"),
        Location::city("Spain", "Catalunya", "Barcelona"),
        Location::city("Argentina", "Buenos Aires", "Buenos Aires City"),
        Location::city("Brazil", "Sao Paulo", "Sao Paulo"),
        Location::city("Canada", "Ontario", "Toronto"),
        Location::city("United States", "California", "Los Angeles"),
    ];
    header(&mut text, "Fig 2 / Fig 14: latency clusters per location");
    let report = run_lol_world(&pins, per, days, 202);

    let labels = [
        ("Ile-de-France (FR)", "France/Ile-de-France"),
        ("Catalunya (ES)", "Spain/Catalunya"),
        ("Buenos Aires (AR)", "Argentina/Buenos Aires"),
        ("Sao Paulo (BR)", "Brazil/Sao Paulo"),
        ("Ontario (CA)", "Canada/Ontario"),
        ("California (US)", "United States/California"),
    ];

    let mut rows: Vec<ClusterRow> = Vec::new();
    for factor in [1.0f64, 0.5, 1.5] {
        let gap = (15.0 * factor).round() as u32;
        writeln!(text);
        writeln!(
            text,
            "merge threshold ×{factor} LatGap ({gap} ms){}",
            if factor == 1.0 {
                "  — Fig 2"
            } else {
                "  — Fig 14"
            }
        );
        for (label, key) in labels {
            // Re-merge from the classified streamers of the group.
            let members: Vec<_> = report
                .classified
                .iter()
                .filter(|((anon, game), _)| {
                    *game == GameId::LeagueOfLegends
                        && report
                            .locations
                            .get(anon)
                            .is_some_and(|(l, _)| l.to_region_level().key() == key)
                })
                .map(|(_, c)| c)
                .collect();
            let clusters = merge_location_clusters(&members, gap);
            let mut strip = String::new();
            let mut list = Vec::new();
            for c in &clusters {
                let mid = (c.min_ms + c.max_ms) / 2;
                let size = if c.weight > 0.75 {
                    'O'
                } else if c.weight > 0.5 {
                    'o'
                } else if c.weight > 0.25 {
                    '*'
                } else {
                    '.'
                };
                list.push((c.min_ms, c.max_ms, c.weight));
                // Place on a 0..80 ms strip.
                let pos = (mid.min(80) as usize * 60) / 80;
                while strip.len() <= pos {
                    strip.push(' ');
                }
                strip.replace_range(pos..pos + 1, &size.to_string());
            }
            writeln!(
                text,
                "  {label:<22} |{strip:<61}| {} clusters",
                clusters.len()
            );
            rows.push(ClusterRow {
                location: label.to_string(),
                factor,
                clusters: list,
            });
        }
    }
    writeln!(text);
    writeln!(
        text,
        "legend: O >75%  o 50-75%  * 25-50%  . <25% of streamers; x-axis 0..80 ms"
    );
    writeln!(
        text,
        "(paper: most locations have one or two clusters heavier than 10 %)"
    );

    Outcome::with_json(text, "fig02_fig14_latency_clusters", &rows)
}
