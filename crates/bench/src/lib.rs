//! # tero-bench
//!
//! The paper's experiments, one private module per table or figure under
//! `src/experiments/`, behind one dispatcher ([`run`]) that the
//! `experiments` binary and the tier-1 tests call; plus three Criterion
//! suites in `benches/` for rows the `benchmark/` harness does not take.
//!
//! An experiment is a function of its flags: it returns the paper-shaped
//! rows as text and, for most, the same data as pretty JSON
//! ([`Outcome`]). Nothing is written unless the command line asks for it
//! with `--out <dir>`, so EXPERIMENTS.md numbers stay machine-checkable
//! without a run dirtying `results/`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use serde::Serialize;
use std::path::PathBuf;
use tero_core::pipeline::{ExtractionMode, Tero, TeroReport};
use tero_stats::BoxplotStats;
use tero_types::{GameId, Location};
use tero_world::{World, WorldConfig};

mod experiments {
    pub(crate) mod doughnuts;
    pub(crate) mod fig02_latency_clusters;
    pub(crate) mod fig04_gaming_vs_network;
    pub(crate) mod fig05b_glitch_audit;
    pub(crate) mod fig06_ocr_examples;
    pub(crate) mod fig07_continents;
    pub(crate) mod fig08_unevenness;
    pub(crate) mod fig09_regional_latency;
    pub(crate) mod fig12_underserved;
    pub(crate) mod fig13_interarrival;
    pub(crate) mod fig15_sensitivity;
    pub(crate) mod fig16_maxspikes;
    pub(crate) mod fig17_18_anomaly_baselines;
    pub(crate) mod fig_anecdote_shared_event;
    pub(crate) mod summary_volume;
    pub(crate) mod tab03_location_errors;
    pub(crate) mod tab04_fig05_ocr_errors;
    pub(crate) mod tab05_behavior_probit;
    pub(crate) mod tab06_07_servers;
}
use experiments::*;

/// What one experiment produced.
#[derive(Debug)]
pub struct Outcome {
    /// The paper-facing text: what `experiments <name>` prints.
    pub text: String,
    /// `(file stem, pretty JSON)`: what `--out <dir>` writes to
    /// `<dir>/<stem>.json`. `None` for the experiments that only print.
    pub json: Option<(&'static str, String)>,
}

impl Outcome {
    /// Text alone.
    fn text(text: Text) -> Self {
        Outcome {
            text: text.0,
            json: None,
        }
    }

    /// Text plus `value` as pretty JSON under `stem`.
    fn with_json<T: Serialize>(text: Text, stem: &'static str, value: &T) -> Self {
        let json = serde_json::to_string_pretty(value).ok().map(|s| (stem, s));
        Outcome { text: text.0, json }
    }
}

/// An experiment's text. `write!` / `writeln!` into it cannot fail, so
/// they return nothing.
#[derive(Default)]
struct Text(String);

impl Text {
    fn write_fmt(&mut self, args: std::fmt::Arguments) {
        let _ = std::fmt::Write::write_fmt(&mut self.0, args);
    }
}

/// A flag an experiment takes: its name, its default (the paper's
/// argument), and whether it is a count (`--n 80`) rather than any finite
/// number (`--scale 0.2`).
struct Flag(&'static str, f64, bool);

const fn count(name: &'static str, default: u32) -> Flag {
    Flag(name, default as f64, true)
}

const fn real(name: &'static str, default: f64) -> Flag {
    Flag(name, default, false)
}

/// An experiment's flag values, defaults filled in.
pub(crate) struct Args(Vec<(&'static str, f64)>);

impl Args {
    /// A real flag's value.
    pub(crate) fn real(&self, flag: &str) -> f64 {
        let value = self.0.iter().find(|(name, _)| *name == flag);
        value.map_or(0.0, |&(_, v)| v)
    }

    /// A count flag's value.
    pub(crate) fn count(&self, flag: &str) -> usize {
        self.real(flag) as usize
    }
}

/// An experiment: its name, its flags and its function.
struct Experiment(&'static str, &'static [Flag], fn(&Args) -> Outcome);

/// Every experiment, in `run_experiments.sh`'s order, with its flags.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    Experiment("fig04_gaming_vs_network", &[real("--scale", 1.0), count("--reps", 3)], fig04_gaming_vs_network::run),
    Experiment("tab03_location_errors", &[count("--n", 8_000)], tab03_location_errors::run),
    Experiment("tab04_fig05_ocr_errors", &[count("--n", 4_000), count("--reps", 3)], tab04_fig05_ocr_errors::run),
    Experiment("fig05b_glitch_audit", &[count("--n", 60), count("--days", 5)], fig05b_glitch_audit::run),
    Experiment("fig06_ocr_examples", &[], fig06_ocr_examples::run),
    Experiment("fig07_continents", &[count("--n", 6_000)], fig07_continents::run),
    Experiment("fig08_unevenness", &[count("--n", 150), count("--days", 7)], fig08_unevenness::run),
    Experiment("fig02_latency_clusters", &[count("--per", 60), count("--days", 8)], fig02_latency_clusters::run),
    Experiment("fig09_regional_latency", &[count("--per", 70), count("--days", 9)], fig09_regional_latency::run),
    Experiment("fig10_us_doughnuts", &[count("--per", 60), count("--days", 8)], doughnuts::us),
    Experiment("fig11_eu_doughnuts", &[count("--per", 60), count("--days", 8)], doughnuts::eu),
    Experiment("fig12_underserved", &[count("--per", 60), count("--days", 8)], fig12_underserved::run),
    Experiment("fig13_interarrival", &[count("--n", 80)], fig13_interarrival::run),
    Experiment("fig15_sensitivity", &[count("--n", 220), count("--days", 10)], fig15_sensitivity::run),
    Experiment("fig16_maxspikes", &[count("--n", 220), count("--days", 10)], fig16_maxspikes::run),
    Experiment("fig17_18_anomaly_baselines", &[count("--n", 180), count("--days", 8)], fig17_18_anomaly_baselines::run),
    Experiment("tab05_behavior_probit", &[count("--n", 840), count("--days", 21)], tab05_behavior_probit::run),
    Experiment("fig_anecdote_shared_event", &[count("--n", 360), count("--days", 12)], fig_anecdote_shared_event::run),
    Experiment("tab06_07_servers", &[], tab06_07_servers::run),
    Experiment("summary_volume", &[count("--n", 400), count("--days", 10)], summary_volume::run),
];

/// Run one command line, `<name> [--flag value]… [--out dir]` without the
/// program name: the experiment's outcome and the `--out` directory, or a
/// usage message for an unknown experiment, an unknown flag or one this
/// experiment does not take, or a missing or unparsable value. Writes
/// nothing.
pub fn run<S: AsRef<str>>(args: &[S]) -> Result<(Outcome, Option<PathBuf>), String> {
    let mut args = args.iter().map(AsRef::as_ref);
    let name = args.next().unwrap_or_default();
    let Some(Experiment(name, flags, experiment)) = EXPERIMENTS.iter().find(|e| e.0 == name) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        return Err(format!(
            "experiments: unknown experiment '{name}'\n\
             usage: experiments <name> [--flag value]... [--out dir]\n\
             names: {}",
            names.join(" ")
        ));
    };
    let usage = |problem: String| {
        let flags: String = flags
            .iter()
            .map(|f| format!(" [{} {}]", f.0, f.1))
            .collect();
        format!("experiments: {problem}\nusage: experiments {name}{flags} [--out dir]")
    };

    let mut values: Vec<(&'static str, f64)> = flags.iter().map(|f| (f.0, f.1)).collect();
    let mut out = None;
    while let Some(flag) = args.next() {
        let spec = flags.iter().find(|f| f.0 == flag);
        if spec.is_none() && flag != "--out" {
            return Err(usage(format!("{name} takes no flag '{flag}'")));
        }
        let Some(value) = args.next() else {
            return Err(usage(format!("{flag} needs a value")));
        };
        let parsed = match spec {
            None => {
                out = Some(PathBuf::from(value));
                continue;
            }
            Some(Flag(_, _, true)) => value.parse::<u64>().ok().map(|v| v as f64),
            Some(_) => value.parse::<f64>().ok().filter(|v| v.is_finite()),
        };
        let Some(parsed) = parsed else {
            return Err(usage(format!("{flag} {value}: not a valid value")));
        };
        for given in values.iter_mut().filter(|(f, _)| *f == flag) {
            given.1 = parsed;
        }
    }
    Ok((experiment(&Args(values)), out))
}

/// Build a League-of-Legends world with `per_location` streamers pinned at
/// each of the given locations, run the full Tero pipeline over it
/// (calibrated extraction — see DESIGN.md §2), and return its report.
///
/// This is the shared engine behind the regional-latency experiments
/// (Figs 2, 9–12, 14).
fn run_lol_world(locations: &[Location], per_location: usize, days: u64, seed: u64) -> TeroReport {
    let pinned = locations
        .iter()
        .map(|l| (l.clone(), GameId::LeagueOfLegends, per_location))
        .collect();
    let mut world = World::build(WorldConfig {
        seed,
        n_streamers: 0,
        days,
        pinned,
        shared_events: 4,
        release_event: None,
        api_budget_per_min: 2_000,
    });
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 5,
        ..Tero::default()
    };
    tero.run(&mut world)
}

/// Build a world from `config` and run the full Tero pipeline over it
/// with calibrated extraction and the rest of `Tero`'s defaults.
fn run_calibrated(config: WorldConfig) -> TeroReport {
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        ..Tero::default()
    };
    tero.run(&mut World::build(config))
}

/// A section header.
fn header(text: &mut Text, title: &str) {
    writeln!(text);
    writeln!(text, "== {title} ==");
    writeln!(text, "{}", "-".repeat(title.len() + 6));
}

/// Render a boxplot row in paper style: name, then a latency bar with the
/// 5/25/50/75/95 percentiles.
fn boxplot_row(name: &str, stats: &BoxplotStats) -> String {
    format!(
        "{name:<42} p5 {:>6.1}  p25 {:>6.1}  p50 {:>6.1}  p75 {:>6.1}  p95 {:>6.1}  (n={})",
        stats.p5, stats.p25, stats.p50, stats.p75, stats.p95, stats.n
    )
}

/// An ASCII box-and-whiskers strip for quick visual comparison: maps the
/// five percentiles onto `width` columns over `[lo, hi]` ms.
fn ascii_box(stats: &BoxplotStats, lo: f64, hi: f64, width: usize) -> String {
    let mut row = vec![' '; width];
    let col = |v: f64| -> usize {
        let frac = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((width - 1) as f64 * frac).round() as usize
    };
    let (a, b, m, c, d) = (
        col(stats.p5),
        col(stats.p25),
        col(stats.p50),
        col(stats.p75),
        col(stats.p95),
    );
    for cell in row.iter_mut().take(b).skip(a) {
        *cell = '-';
    }
    for cell in row.iter_mut().take(d + 1).skip(c) {
        *cell = '-';
    }
    for cell in row.iter_mut().take(c).skip(b) {
        *cell = '=';
    }
    row[m] = '#';
    row.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_box_places_median() {
        let stats = BoxplotStats {
            n: 10,
            mean: 50.0,
            p5: 10.0,
            p25: 30.0,
            p50: 50.0,
            p75: 70.0,
            p95: 90.0,
        };
        let box_ = ascii_box(&stats, 0.0, 100.0, 101);
        assert_eq!(box_.chars().nth(50), Some('#'));
        assert_eq!(box_.chars().nth(40), Some('='));
        assert_eq!(box_.chars().nth(20), Some('-'));
        assert_eq!(box_.chars().nth(95), Some(' '));
    }

    #[test]
    fn boxplot_row_formats() {
        let stats = BoxplotStats {
            n: 5,
            mean: 2.0,
            p5: 1.0,
            p25: 1.5,
            p50: 2.0,
            p75: 2.5,
            p95: 3.0,
        };
        let row = boxplot_row("X", &stats);
        assert!(row.contains("p50    2.0"));
        assert!(row.contains("(n=5)"));
    }
}
