//! # tero-bench
//!
//! The benchmark harness: shared output helpers for the per-table /
//! per-figure regenerator binaries in `src/bin/`, plus the Criterion
//! benches in `benches/`.
//!
//! Every regenerator prints the paper-shaped rows to stdout and writes the
//! same data as JSON under `results/` so EXPERIMENTS.md numbers stay
//! machine-checkable.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;
use tero_core::pipeline::{ExtractionMode, Tero, TeroReport};
use tero_stats::BoxplotStats;
use tero_types::{GameId, Location};
use tero_world::{World, WorldConfig};

/// Build a League-of-Legends world with `per_location` streamers pinned at
/// each of the given locations, run the full Tero pipeline over it
/// (calibrated extraction — see DESIGN.md §2), and return the report.
///
/// This is the shared engine behind the regional-latency regenerators
/// (Figs 2, 9–12, 14).
pub fn run_lol_world(
    locations: &[Location],
    per_location: usize,
    days: u64,
    seed: u64,
) -> (World, TeroReport) {
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
    let report = tero.run(&mut world);
    (world, report)
}

/// Print a section header.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
    println!("{}", "-".repeat(title.len() + 6));
}

/// Render a boxplot row in paper style: name, then a latency bar with the
/// 5/25/50/75/95 percentiles.
pub fn boxplot_row(name: &str, stats: &BoxplotStats) -> String {
    format!(
        "{name:<42} p5 {:>6.1}  p25 {:>6.1}  p50 {:>6.1}  p75 {:>6.1}  p95 {:>6.1}  (n={})",
        stats.p5, stats.p25, stats.p50, stats.p75, stats.p95, stats.n
    )
}

/// An ASCII box-and-whiskers strip for quick visual comparison: maps the
/// five percentiles onto `width` columns over `[lo, hi]` ms.
pub fn ascii_box(stats: &BoxplotStats, lo: f64, hi: f64, width: usize) -> String {
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

/// Where regenerators drop their JSON results.
pub(crate) fn results_dir() -> PathBuf {
    let dir = std::env::var("TERO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&path);
    path
}

/// Write a serialisable result to `results/<name>.json` (best-effort; the
/// printed output is the primary artefact).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            if let Ok(s) = serde_json::to_string_pretty(value) {
                let _ = f.write_all(s.as_bytes());
                println!("[wrote {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Parse a `--scale <f64>` style flag from argv with a default (regenerators
/// accept scale knobs so CI can run them quickly).
pub fn arg_f64(flag: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse a `--n <usize>` style flag.
pub fn arg_usize(flag: &str, default: usize) -> usize {
    arg_f64(flag, default as f64) as usize
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
