//! Fig 16 (App. I) — sensitivity to `MaxSpikes`, the high-quality filter.
//!
//! * (a) the distribution of per-user spike proportions — most users have
//!   few spike points, with a heavy tail of mislabelers/clock-overlays;
//! * (b) the proportion of spikes and of all points discarded as
//!   `MaxSpikes` tightens;
//! * (c) spikes and shared anomalies surviving at each `MaxSpikes` (users
//!   above the cap are dropped wholesale).

use crate::{header, run_calibrated, Args, Outcome, Text};
use serde::Serialize;
use tero_core::analysis::shared::{detect_shared_anomalies, StreamerActivity};
use tero_types::SimTime;
use tero_world::{World, WorldConfig};

#[derive(Serialize)]
struct Sweep {
    max_spikes_pct: u32,
    users_discarded_pct: f64,
    spikes_discarded_pct: f64,
    points_discarded_pct: f64,
    spikes_kept: usize,
    shared_anomalies: usize,
}

#[derive(Serialize)]
struct Output {
    spike_fraction_deciles: Vec<f64>,
    sweep: Vec<Sweep>,
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let n = args.count("--n");
    let days = args.count("--days") as u64;
    header(&mut text, "Fig 16: sensitivity to MaxSpikes");

    // Half the population concentrated at hubs so the shared-anomaly
    // column has the {region, game} density the App. F test needs.
    let gaz = tero_geoparse::Gazetteer::new();
    let game = tero_types::GameId::LeagueOfLegends;
    let pinned = vec![
        (World::city(&gaz, "Los Angeles"), game, n / 4),
        (World::city(&gaz, "London"), game, n / 4),
    ];
    let report = run_calibrated(WorldConfig {
        seed: 1616,
        n_streamers: n / 2,
        days,
        pinned,
        shared_events: 25,
        api_budget_per_min: 2_000,
        ..WorldConfig::default()
    });

    // (a) per-user spike proportions.
    let mut fractions: Vec<f64> = report
        .anomalies
        .values()
        .filter(|r| !r.all_unstable)
        .map(|r| r.spike_fraction())
        .collect();
    fractions.sort_by(f64::total_cmp);
    writeln!(text);
    writeln!(text, "(a) per-user spike-proportion distribution:");
    let deciles: Vec<f64> = (0..=10)
        .map(|d| tero_stats::descriptive::percentile_sorted(&fractions, d as f64 * 10.0) * 100.0)
        .collect();
    for (d, v) in deciles.iter().enumerate() {
        writeln!(text, "  p{:<3} {v:>6.2}%", d * 10);
    }

    // (b)/(c): sweep MaxSpikes.
    let total_users = fractions.len();
    let total_spikes: usize = report.anomalies.values().map(|r| r.spikes.len()).sum();
    let total_points: usize = report.anomalies.values().map(|r| r.total_samples()).sum();

    writeln!(text);
    writeln!(text, "(b)/(c) sweeping MaxSpikes:");
    writeln!(
        text,
        "{:>10} {:>12} {:>13} {:>13} {:>12} {:>9}",
        "MaxSpikes", "users lost", "spikes lost", "points lost", "spikes kept", "shared"
    );
    let mut sweep = Vec::new();
    for &cap_pct in &[5u32, 15, 25, 35, 50, 75] {
        let cap = cap_pct as f64 / 100.0;
        let mut users_lost = 0usize;
        let mut spikes_lost = 0usize;
        let mut points_lost = 0usize;
        let mut spikes_kept = 0usize;
        // Shared anomalies recomputed per {region, game} over kept users.
        let mut groups: std::collections::BTreeMap<
            (String, tero_types::GameId),
            Vec<StreamerActivity>,
        > = std::collections::BTreeMap::new();
        for ((anon, game), r) in &report.anomalies {
            if r.all_unstable {
                continue;
            }
            if r.spike_fraction() > cap {
                users_lost += 1;
                spikes_lost += r.spikes.len();
                points_lost += r.total_samples();
                continue;
            }
            spikes_kept += r.spikes.len();
            if let Some((loc, _)) = report.locations.get(anon) {
                let times: Vec<SimTime> = r
                    .segments
                    .iter()
                    .flat_map(|s| s.samples.iter().map(|x| x.at))
                    .collect();
                groups
                    .entry((loc.to_region_level().key(), *game))
                    .or_default()
                    .push(StreamerActivity {
                        anon: *anon,
                        measurement_times: times,
                        spikes: r.spikes.clone(),
                    });
            }
        }
        let mut shared = 0usize;
        for ((key, game), activities) in &groups {
            let region = tero_types::Location::country(key.clone());
            shared += detect_shared_anomalies(*game, &region, activities).len();
        }
        writeln!(
            text,
            "{:>9}% {:>11.1}% {:>12.1}% {:>12.1}% {:>12} {:>9}",
            cap_pct,
            100.0 * users_lost as f64 / total_users.max(1) as f64,
            100.0 * spikes_lost as f64 / total_spikes.max(1) as f64,
            100.0 * points_lost as f64 / total_points.max(1) as f64,
            spikes_kept,
            shared
        );
        sweep.push(Sweep {
            max_spikes_pct: cap_pct,
            users_discarded_pct: 100.0 * users_lost as f64 / total_users.max(1) as f64,
            spikes_discarded_pct: 100.0 * spikes_lost as f64 / total_spikes.max(1) as f64,
            points_discarded_pct: 100.0 * points_lost as f64 / total_points.max(1) as f64,
            spikes_kept,
            shared_anomalies: shared,
        });
    }
    writeln!(text);
    writeln!(
        text,
        "(paper: tightening MaxSpikes discards spike-heavy users quickly while"
    );
    writeln!(
        text,
        " losing few points overall; shared anomalies survive until the cap"
    );
    writeln!(
        text,
        " cuts into ordinary users — 50 % is the operating point)"
    );

    Outcome::with_json(
        text,
        "fig16_maxspikes",
        &Output {
            spike_fraction_deciles: deciles,
            sweep,
        },
    )
}
