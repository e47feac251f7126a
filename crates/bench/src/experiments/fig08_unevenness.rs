//! Fig 8 — uneven-ness of measurement arrival times within 5-minute
//! windows, by number of concurrently active streamers.
//!
//! The paper checks that thumbnails from co-located streamers are spread
//! roughly uniformly over time (Twitch does not post them in bursts): the
//! Wasserstein distance between arrival offsets and the uniform
//! distribution, normalised by the worst case, leans toward 0 once ≥3
//! streamers are active (≤0.5 for 80 % of windows).

use crate::{header, Args, Outcome, Text};
use serde::Serialize;
use std::collections::BTreeMap;
use tero_core::download::DownloadModule;
use tero_stats::unevenness_score;
use tero_store::{KvStore, ObjectStore};
use tero_types::SimTime;
use tero_world::{World, WorldConfig};

#[derive(Serialize)]
struct Output {
    per_count: Vec<(usize, Vec<f64>)>, // (streamers per window, score CDF deciles)
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let n = args.count("--n");
    let days = args.count("--days") as u64;
    header(
        &mut text,
        "Fig 8: uneven-ness of arrivals per 5-minute window",
    );

    let mut world = World::build(WorldConfig {
        seed: 808,
        n_streamers: n,
        days,
        ..WorldConfig::default()
    });
    let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
    let horizon = world.horizon;
    module.run(&mut world, SimTime::EPOCH, horizon);
    let tasks = module.drain_tasks();

    // Group thumbnail arrivals into 5-minute windows; each window's
    // arrivals come from however many streamers were captured in it.
    let window_us: u64 = 300 * 1_000_000;
    let mut windows: BTreeMap<u64, Vec<(String, f64)>> = BTreeMap::new();
    for t in &tasks {
        let w = t.generated_at.as_micros() / window_us;
        let offset = (t.generated_at.as_micros() % window_us) as f64 / 1e6;
        windows
            .entry(w)
            .or_default()
            .push((t.streamer.as_str().to_string(), offset));
    }

    // Scores grouped by the number of distinct streamers in the window.
    let mut by_count: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for arrivals in windows.values() {
        let mut streamers: Vec<&String> = arrivals.iter().map(|(s, _)| s).collect();
        streamers.sort();
        streamers.dedup();
        let count = streamers.len().min(6);
        if count < 2 {
            continue;
        }
        let offsets: Vec<f64> = arrivals.iter().map(|&(_, o)| o).collect();
        by_count
            .entry(count)
            .or_default()
            .push(unevenness_score(&offsets, 300.0));
    }

    writeln!(text);
    writeln!(
        text,
        "{:>20} {:>8} {:>10} {:>10} {:>14}",
        "streamers/window", "windows", "median", "p80", "share ≤ 0.5"
    );
    let mut per_count = Vec::new();
    for (count, scores) in &by_count {
        let mut s = scores.clone();
        s.sort_by(f64::total_cmp);
        let med = tero_stats::descriptive::percentile_sorted(&s, 50.0);
        let p80 = tero_stats::descriptive::percentile_sorted(&s, 80.0);
        let below = s.iter().filter(|&&x| x <= 0.5).count() as f64 / s.len() as f64;
        writeln!(
            text,
            "{:>19}{} {:>8} {:>10.2} {:>10.2} {:>13.0}%",
            count,
            if *count == 6 { "+" } else { " " },
            s.len(),
            med,
            p80,
            100.0 * below
        );
        let deciles: Vec<f64> = (0..=10)
            .map(|d| tero_stats::descriptive::percentile_sorted(&s, d as f64 * 10.0))
            .collect();
        per_count.push((*count, deciles));
    }
    writeln!(text);
    writeln!(
        text,
        "(paper: with ≥3 active streamers, uneven-ness leans uniform — scores"
    );
    writeln!(text, " below ~0.5 for 80 % of windows)");

    Outcome::with_json(text, "fig08_unevenness", &Output { per_count })
}
