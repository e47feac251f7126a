//! Fig 4 / Table 2 / Fig 3 — gaming vs network latency on the testbed.
//!
//! Runs the Table 2 experiment matrix (2 games × 2 bottleneck bandwidths ×
//! 4 queue sizes, `--reps` repetitions each) on the Fig 3 testbed and
//! reports, per experiment, the distribution of
//! `|(Test − Control displayed latency) − bottleneck network latency|` —
//! the quantity of Fig 4 — sorted by the worst bottleneck latency created,
//! exactly like the paper's x-axis.
//!
//! Paper's findings to compare against: the 95th percentile of the
//! difference stays ≤ 8.5 ms in the worst experiment; differences above
//! 4 ms cluster at the start/end of background traffic and recover within
//! a few seconds (the display-window lag).
//!
//! `--scale` shrinks the 5-minute protocol; 1 is the paper's timeline.

use crate::{header, Args, Outcome, Text};
use serde::Serialize;
use tero_simnet::experiment::{
    run_experiment, ExperimentConfig, GameProfile, STARTUP_END_S, TCP_START_S, UDP_END_S,
};
use tero_stats::BoxplotStats;

#[derive(Serialize)]
struct Row {
    game: &'static str,
    bottleneck_gbps: f64,
    queue_packets: usize,
    max_bottleneck_ms: f64,
    diff_p50_ms: f64,
    diff_p95_ms: f64,
    diff_max_ms: f64,
    control_mean_ms: f64,
    control_sd_ms: f64,
    large_diffs_at_transitions_pct: f64,
    startup_ok: bool,
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let scale = args.real("--scale");
    let reps = args.count("--reps");
    header(
        &mut text,
        "Fig 4: difference between gaming and network latency",
    );
    writeln!(
        text,
        "(protocol scale {scale}, {reps} repetitions per experiment)"
    );

    let mut rows: Vec<Row> = Vec::new();
    for game in [GameProfile::GENSHIN, GameProfile::LOL] {
        for config in ExperimentConfig::matrix(game) {
            let mut diffs: Vec<f64> = Vec::new();
            let mut max_bottleneck: f64 = 0.0;
            let mut control_means = Vec::new();
            let mut control_sds = Vec::new();
            let mut at_transitions = 0usize;
            let mut large = 0usize;
            let mut startup_ok = true;
            for _rep in 0..reps {
                let result = run_experiment(config, scale);
                startup_ok &= result.startup_ok;
                diffs.extend(result.differences());
                max_bottleneck = max_bottleneck.max(result.max_bottleneck_ms());
                let (m, sd) = result.control_stats();
                control_means.push(m);
                control_sds.push(sd);
                // Lag analysis: large differences should cluster around
                // the background-traffic transitions.
                let window_ms = (20.0 * 1_000.0 * scale) as u64;
                let transitions: Vec<u64> = [STARTUP_END_S, TCP_START_S, UDP_END_S]
                    .iter()
                    .map(|&s| (s as f64 * scale * 1_000.0) as u64)
                    .collect();
                for t in result.large_difference_times(4.0) {
                    large += 1;
                    if transitions.iter().any(|&tr| t.abs_diff(tr) <= window_ms) {
                        at_transitions += 1;
                    }
                }
            }
            let Some(stats) = BoxplotStats::from_samples(&diffs) else {
                continue;
            };
            let diff_max = diffs.iter().cloned().fold(0.0, f64::max);
            rows.push(Row {
                game: config.game.name,
                bottleneck_gbps: config.bottleneck_bps / 1e9,
                queue_packets: config.bottleneck_queue,
                max_bottleneck_ms: max_bottleneck,
                diff_p50_ms: stats.p50,
                diff_p95_ms: stats.p95,
                diff_max_ms: diff_max,
                control_mean_ms: control_means.iter().sum::<f64>() / reps as f64,
                control_sd_ms: control_sds.iter().sum::<f64>() / reps as f64,
                large_diffs_at_transitions_pct: if large == 0 {
                    100.0
                } else {
                    100.0 * at_transitions as f64 / large as f64
                },
                startup_ok,
            });
        }
    }

    // Paper sorts experiments by the worst network latency they created.
    rows.sort_by(|a, b| a.max_bottleneck_ms.total_cmp(&b.max_bottleneck_ms));

    writeln!(
        text,
        "{:<18} {:>5} {:>6} | {:>12} | {:>8} {:>8} {:>8} | {:>14} | {:>6}",
        "game",
        "bw",
        "queue",
        "max bneck ms",
        "diff p50",
        "diff p95",
        "diff max",
        "control (m±sd)",
        "@trans"
    );
    for r in &rows {
        writeln!(
            text,
            "{:<18} {:>4.1}G {:>6} | {:>12.1} | {:>8.2} {:>8.2} {:>8.1} | {:>8.1}±{:<4.1} | {:>5.0}%",
            r.game,
            r.bottleneck_gbps,
            r.queue_packets,
            r.max_bottleneck_ms,
            r.diff_p50_ms,
            r.diff_p95_ms,
            r.diff_max_ms,
            r.control_mean_ms,
            r.control_sd_ms,
            r.large_diffs_at_transitions_pct,
        );
    }

    let worst_p95 = rows.iter().map(|r| r.diff_p95_ms).fold(0.0, f64::max);
    writeln!(text);
    writeln!(
        text,
        "worst per-experiment p95 difference: {worst_p95:.2} ms (paper: ≤ 8.5 ms)"
    );
    // Eight experiments a game.
    let control = |game: &str| {
        let of_game = rows.iter().filter(|r| r.game.starts_with(game));
        of_game.map(|r| r.control_mean_ms).sum::<f64>() / 8.0
    };
    let (genshin_control, lol_control) = (control("Genshin"), control("League"));
    writeln!(
        text,
        "Genshin Impact control latency ≈ {genshin_control:.1} ms (paper: 15 ± 1.5 ms)"
    );
    writeln!(
        text,
        "League of Legends control latency ≈ {lol_control:.1} ms (paper: 37 ± 1.4 ms)"
    );

    Outcome::with_json(text, "fig04_gaming_vs_network", &rows)
}
