//! Table 5 — average marginal effects of latency spikes on server changes
//! and game changes, per game and spike-size threshold (§6).
//!
//! Runs the full pipeline over a world, prepares the behaviour streams per
//! §6's steps (change-capable streamers only; short streams dropped;
//! no-change streams truncated at the median time-to-first-change), fits a
//! Probit per (game, threshold) and reports the average marginal effect.
//!
//! Paper's shape: all effects positive; server-change effects of order
//! 0.3–1.6 % per spike; game-change effects an order of magnitude larger
//! (1–5 %); for some games (CoD) the effect grows with spike size.

use crate::{header, run_calibrated, Args, Outcome, Text};
use serde::Serialize;
use tero_core::behavior::{game_change_effects, server_change_effects, EffectRow, SPIKE_SIZES_MS};

use tero_core::pipeline::min_play_for;
use tero_types::GameId;
use tero_world::WorldConfig;

#[derive(Serialize)]
struct Output {
    server_rows: Vec<EffectRow>,
    game_rows: Vec<EffectRow>,
}

fn print_rows(text: &mut Text, title: &str, rows: &[EffectRow]) {
    writeln!(text);
    writeln!(text, "{title}");
    write!(text, "{:<22} {:>8}", "game", "Nobs");
    for s in SPIKE_SIZES_MS {
        write!(text, " {:>7}", format!("≥{s:.0}ms"));
    }
    writeln!(text);
    for row in rows {
        write!(text, "{:<22} {:>8}", row.game.name(), row.n_obs);
        for cell in &row.cells {
            match cell {
                Some(c) => {
                    let sig = if c.p_value <= 0.01 {
                        ""
                    } else if c.p_value <= 0.10 {
                        "*"
                    } else {
                        "°" // not significant
                    };
                    write!(text, " {:>6.4}{sig}", c.marginal_effect);
                }
                None => write!(text, " {:>7}", "-"),
            }
        }
        writeln!(text);
    }
    writeln!(
        text,
        "  (* significant at 10 % only, ° not significant, - no model)"
    );
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let n = args.count("--n");
    let days = args.count("--days") as u64;
    header(
        &mut text,
        "Table 5: marginal effects of spikes on server/game changes",
    );
    writeln!(text, "({n} streamers, {days} days; calibrated extraction)");

    // The behaviour study needs dense {location, game} groups (the paper's
    // observations span hundreds of thousands of streams); pin streamers
    // of each Table 5 game at major hubs so clusters and server-change
    // detection have the populations they need.
    let gaz = tero_geoparse::Gazetteer::new();
    let hubs = [
        tero_world::World::city(&gaz, "Los Angeles"),
        tero_world::World::city(&gaz, "London"),
    ];
    let per = (n / (hubs.len() * GameId::TABLE5.len())).max(10);
    let mut pinned = Vec::new();
    for game in GameId::TABLE5 {
        for hub in &hubs {
            pinned.push((hub.clone(), game, per));
        }
    }
    let report = run_calibrated(WorldConfig {
        seed: 505,
        n_streamers: 0,
        days,
        pinned,
        shared_events: 20,
        api_budget_per_min: 2_000,
        ..WorldConfig::default()
    });

    let mut server_rows = Vec::new();
    let mut game_rows = Vec::new();
    for game in GameId::TABLE5 {
        if let Some(row) = server_change_effects(&report.behavior_streams, game, min_play_for(game))
        {
            server_rows.push(row);
        }
        if let Some(row) = game_change_effects(&report.behavior_streams, game) {
            game_rows.push(row);
        }
    }

    print_rows(
        &mut text,
        "Server changes (paper: effects 0.0025-0.016 per spike):",
        &server_rows,
    );
    print_rows(
        &mut text,
        "Game changes (paper: an order of magnitude larger, 0.009-0.046):",
        &game_rows,
    );

    // Headline comparisons (rows with enough observations only).
    writeln!(text);
    let mean_effect = |rows: &[EffectRow]| {
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.n_obs >= 100)
            .flat_map(|r| r.cells.iter().flatten().map(|c| c.marginal_effect))
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let s = mean_effect(&server_rows);
    let g = mean_effect(&game_rows);
    writeln!(
        text,
        "mean server-change effect {s:.4}; mean game-change effect {g:.4}"
    );
    writeln!(text);
    writeln!(
        text,
        "note: the game-change panel is directly comparable to the paper's"
    );
    writeln!(
        text,
        "(Nobs in the hundreds-to-thousands). The server-change panel suffers"
    );
    writeln!(
        text,
        "small-sample changer selection at simulation scale — the paper had"
    );
    writeln!(
        text,
        "16k-95k changer streams vs our ~10^2 — which inflates its AMEs; the"
    );
    writeln!(
        text,
        "qualitative findings (positive, size-increasing, significant spike"
    );
    writeln!(text, "effects) still hold. See EXPERIMENTS.md.");

    // §6's closing suggestion: specific retention numbers by spike count.
    writeln!(text);
    writeln!(
        text,
        "retention rate by spike count (the paper's proposed follow-up):"
    );
    for game in [
        GameId::LeagueOfLegends,
        GameId::CodWarzone,
        GameId::GenshinImpact,
    ] {
        let curve = tero_core::behavior::retention_curve(&report.behavior_streams, game, 4);
        write!(text, "  {:<22}", game.name());
        for (k, p, n) in &curve {
            let label = if *k == 4 {
                "4+".to_string()
            } else {
                k.to_string()
            };
            write!(text, " {label}:{:>4.1}% (n={n})", 100.0 * p);
        }
        writeln!(text);
    }

    Outcome::with_json(
        text,
        "tab05_behavior_probit",
        &Output {
            server_rows,
            game_rows,
        },
    )
}
