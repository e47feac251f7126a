//! Figs 10–11 — League-of-Legends latency for the regions within the same
//! 500-km-thick "doughnut" around one game server.
//!
//! * Fig 10, US states (and Ontario) around the Chicago server. Paper's
//!   headline: states in the same doughnut differ by as much as 30 ms in
//!   their 75th percentile — District of Columbia and North Carolina
//!   poor, Missouri/Ontario/Texas good — which cannot be explained by
//!   distance and points at eyeball-ISP quality.
//! * Fig 11, EU countries around the Amsterdam server. Paper's shape:
//!   smaller spreads than the US doughnuts, but Poland's 75th percentile
//!   exceeds 40 ms while Switzerland sits at 15 ms; Italy's 25th–75th gap
//!   exceeds 15 ms while France's is ~5 ms (per-streamer spread differs by
//!   country).

use crate::{ascii_box, header, run_lol_world, Args, Outcome, Text};
use serde::{Serialize, Value};
use tero_stats::BoxplotStats;
use tero_types::{GameId, Location};

/// One figure's doughnuts: who is in them and how its rows print.
struct Doughnuts {
    title: &'static str,
    server: &'static str,
    seed: u64,
    /// The 500-1000 km and 1000-1500 km members: label and location.
    rings: [(&'static str, Vec<(String, Location)>); 2],
    /// The label's printed width.
    width: usize,
    /// The right end of the printed box, ms.
    box_hi: f64,
    /// Fig 11 (EU) prints and keeps the IQR where Fig 10 (US) keeps the
    /// p95.
    iqr: bool,
}

/// A member's row. `column` is the p95 (Fig 10) or the IQR (Fig 11), and
/// `label` is the region (Fig 10) or the country (Fig 11): the JSON names
/// them so.
#[derive(Serialize)]
struct Row {
    label: String,
    doughnut: &'static str,
    corrected_km: f64,
    p25: f64,
    p50: f64,
    p75: f64,
    column: f64,
    n: usize,
}

/// Fig 10: US states in Chicago doughnuts.
pub(crate) fn us(args: &Args) -> Outcome {
    // Paper's doughnut membership (Fig 10a: 500-1000 km, 10b: 1000-1500).
    let states = |members: &[(&str, &str)]| {
        members
            .iter()
            .map(|&(c, r)| {
                let label = format!("{r} ({})", if c == "Canada" { "CA" } else { "US" });
                (label, Location::region(c, r))
            })
            .collect()
    };
    let near = states(&[
        ("United States", "District of Columbia"),
        ("United States", "Georgia"),
        ("United States", "Kentucky"),
        ("United States", "Minnesota"),
        ("United States", "Missouri"),
        ("United States", "North Carolina"),
        ("Canada", "Ontario"),
        ("United States", "Pennsylvania"),
        ("United States", "Tennessee"),
        ("United States", "Virginia"),
    ]);
    let far = states(&[
        ("United States", "Georgia"),
        ("United States", "Massachusetts"),
        ("United States", "New Jersey"),
        ("United States", "North Carolina"),
        ("United States", "Oklahoma"),
        ("United States", "Pennsylvania"),
        ("United States", "Texas"),
    ]);
    let spec = Doughnuts {
        title: "Fig 10: US states in Chicago doughnuts (building world, running pipeline)",
        server: "Chicago",
        seed: 1010,
        rings: [("500-1000 km", near), ("1000-1500 km", far)],
        width: 26,
        box_hi: 80.0,
        iqr: false,
    };
    let (text, rows) = spec.run(args);
    spec.outcome(text, &rows, "fig10_us_doughnuts")
}

/// Fig 11: EU countries in Amsterdam doughnuts.
pub(crate) fn eu(args: &Args) -> Outcome {
    let countries = |members: &[&str]| {
        members
            .iter()
            .map(|&c| (c.to_string(), Location::country(c)))
            .collect()
    };
    let near = countries(&[
        "Austria",
        "Denmark",
        "France",
        "Germany",
        "Italy",
        "Poland",
        "Switzerland",
        "United Kingdom",
    ]);
    let far = countries(&["France", "Italy", "Spain", "Poland"]);
    let spec = Doughnuts {
        title: "Fig 11: EU countries in Amsterdam doughnuts (building world, running pipeline)",
        server: "Amsterdam",
        seed: 1111,
        rings: [("500-1000 km", near), ("1000-1500 km", far)],
        width: 18,
        box_hi: 60.0,
        iqr: true,
    };
    let (mut text, rows) = spec.run(args);

    // Paper cross-checks.
    writeln!(text);
    let get = |name: &str| rows.iter().find(|r| r.label == name);
    if let (Some(pl), Some(ch)) = (get("Poland"), get("Switzerland")) {
        writeln!(
            text,
            "Poland p75 {:.0} ms vs Switzerland p75 {:.0} ms (paper: >40 vs 15)",
            pl.p75, ch.p75
        );
    }
    if let (Some(it), Some(fr)) = (get("Italy"), get("France")) {
        writeln!(
            text,
            "Italy IQR {:.1} ms vs France IQR {:.1} ms (paper: >15 vs ~5)",
            it.column, fr.column
        );
    }
    spec.outcome(text, &rows, "fig11_eu_doughnuts")
}

impl Doughnuts {
    /// Run the pipeline over every member and print each ring's rows,
    /// best p75 first.
    fn run(&self, args: &Args) -> (Text, Vec<Row>) {
        let mut text = Text::default();
        let mut locations: Vec<Location> = self
            .rings
            .iter()
            .flat_map(|(_, members)| members.iter().map(|(_, l)| l.clone()))
            .collect();
        locations.sort();
        locations.dedup();

        header(&mut text, self.title);
        let per = args.count("--per");
        let days = args.count("--days") as u64;
        let report = run_lol_world(&locations, per, days, self.seed);

        let mut rows = Vec::new();
        for (doughnut, members) in &self.rings {
            writeln!(text);
            writeln!(text, "({doughnut} from the {} server)", self.server);
            let mut sub: Vec<Row> = Vec::new();
            for (label, loc) in members {
                let Some(dist) = report.distribution(loc, GameId::LeagueOfLegends) else {
                    eprintln!("warning: no distribution for {loc}");
                    continue;
                };
                sub.push(Row {
                    label: label.clone(),
                    doughnut,
                    corrected_km: dist.corrected_distance_km.unwrap_or(0.0),
                    p25: dist.stats.p25,
                    p50: dist.stats.p50,
                    p75: dist.stats.p75,
                    column: if self.iqr {
                        dist.stats.iqr()
                    } else {
                        dist.stats.p95
                    },
                    n: dist.stats.n,
                });
            }
            sub.sort_by(|a, b| a.p75.total_cmp(&b.p75));
            for r in &sub {
                let stats = BoxplotStats {
                    n: r.n,
                    mean: r.p50,
                    p5: r.p25,
                    p25: r.p25,
                    p50: r.p50,
                    p75: r.p75,
                    p95: if self.iqr { r.p75 + r.column } else { r.column },
                };
                write!(
                    text,
                    "  {:<width$} [{}] p75 {:>5.1} ms",
                    r.label,
                    ascii_box(&stats, 0.0, self.box_hi, 40),
                    r.p75,
                    width = self.width
                );
                if self.iqr {
                    write!(text, "  IQR {:>4.1} ms", r.column);
                }
                writeln!(text, " ({:>4.0} km)", r.corrected_km);
            }
            // Fig 10 sums up each ring by its spread; Fig 11 compares
            // named countries once every ring is printed.
            if let (Some(best), Some(worst)) = (sub.first(), sub.last()) {
                if !self.iqr {
                    writeln!(
                        text,
                        "  → spread within the doughnut: {:.0} ms (best {} vs worst {}; paper: up to 30 ms)",
                        worst.p75 - best.p75,
                        best.label,
                        worst.label
                    );
                }
            }
            rows.extend(sub);
        }
        (text, rows)
    }

    /// The text and the rows as the figure's JSON objects.
    fn outcome(&self, text: Text, rows: &[Row], stem: &'static str) -> Outcome {
        let (label, column) = if self.iqr {
            ("country", "iqr")
        } else {
            ("region", "p95")
        };
        let mut json = Vec::new();
        for row in rows {
            let mut value = row.serialize();
            if let Value::Object(fields) = &mut value {
                for (key, _) in fields {
                    match key.as_str() {
                        "label" => *key = label.into(),
                        "column" => *key = column.into(),
                        _ => {}
                    }
                }
            }
            json.push(value);
        }
        Outcome::with_json(text, stem, &json)
    }
}
