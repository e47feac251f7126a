//! The user-behaviour study (§6, Table 5).
//!
//! For each game and spike-size threshold, a Probit model regresses a
//! binary outcome (did the stream contain a server change? did the
//! streamer switch games afterwards?) on the number of spikes of at least
//! that size, and is summarised by its *average marginal effect*.
//!
//! Stream preparation follows §6's steps: (1) only `{streamer, game}`
//! tuples that experienced at least one change are analysed for server
//! changes; (2) streams shorter than the minimum time before a change is
//! allowed are discarded; (3) streams without a change are truncated to
//! the median time-to-first-change of the changed streams, so both groups
//! have comparable exposure; (4) each stream is annotated with its spike
//! counts per size threshold.

use crate::analysis::anomaly::SpikeEvent;
use serde::Serialize;
use tero_stats::{ProbitFit, ProbitModel};
use tero_types::{AnonId, GameId, SimDuration, SimTime};

/// The spike-size thresholds of Table 5's columns, in ms.
pub const SPIKE_SIZES_MS: [f64; 8] = [8.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0];

/// One prepared stream for behaviour analysis.
#[derive(Debug, Clone)]
pub struct BehaviorStream {
    /// Whose stream.
    pub anon: AnonId,
    /// Game played.
    pub game: GameId,
    /// Stream start.
    pub start: SimTime,
    /// Stream end.
    pub end: SimTime,
    /// Spikes detected in the stream (with magnitudes).
    pub spikes: Vec<SpikeEvent>,
    /// Time of the first server change in the stream, if any.
    pub first_server_change: Option<SimTime>,
    /// Whether the streamer switched games after this stream.
    pub game_changed_after: bool,
}

impl BehaviorStream {
    /// Number of spikes of at least `size_ms` occurring before `cutoff`.
    pub(crate) fn spikes_before(&self, size_ms: f64, cutoff: SimTime) -> u32 {
        self.spikes
            .iter()
            .filter(|s| s.magnitude_ms >= size_ms && s.start < cutoff)
            .count() as u32
    }
}

/// One Table 5 cell: the marginal effect of spikes ≥ size on the outcome.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EffectCell {
    /// Spike-size threshold, ms.
    pub size_ms: f64,
    /// Average marginal effect of one extra spike on the outcome
    /// probability.
    pub marginal_effect: f64,
    /// Wald p-value of the spike coefficient.
    pub p_value: f64,
    /// Observations used.
    pub n_obs: usize,
}

/// One Table 5 row: a game's effects across spike sizes (cells may be
/// `None` when the model is degenerate, like the paper's empty cells).
#[derive(Debug, Clone, Serialize)]
pub struct EffectRow {
    /// The game.
    pub game: GameId,
    /// Observations entering the analysis.
    pub n_obs: usize,
    /// One cell per entry of [`SPIKE_SIZES_MS`].
    pub cells: Vec<Option<EffectCell>>,
}

/// Table 5 (top): server-change marginal effects for one game.
pub fn server_change_effects(
    streams: &[BehaviorStream],
    game: GameId,
    min_play: SimDuration,
) -> Option<EffectRow> {
    // Step 1: keep only streamers who changed servers at least once —
    // they demonstrably *can* and *will* switch.
    let mut changers: Vec<AnonId> = streams
        .iter()
        .filter(|s| s.game == game && s.first_server_change.is_some())
        .map(|s| s.anon)
        .collect();
    changers.sort_unstable();
    changers.dedup();
    if changers.is_empty() {
        return None;
    }

    // Step 2: discard streams shorter than the minimum playing time.
    let eligible: Vec<&BehaviorStream> = streams
        .iter()
        .filter(|s| s.game == game && changers.binary_search(&s.anon).is_ok())
        .filter(|s| s.end.since(s.start) >= min_play)
        .collect();

    // Step 3: median time to the first change.
    let mut ttc: Vec<u64> = eligible
        .iter()
        .filter_map(|s| s.first_server_change.map(|c| c.since(s.start).as_secs()))
        .collect();
    if ttc.is_empty() {
        return None;
    }
    ttc.sort_unstable();
    let median_ttc = SimDuration::from_secs(ttc[ttc.len() / 2]);

    // Step 4 + fit per spike size.
    let cells = SPIKE_SIZES_MS
        .iter()
        .map(|&size| {
            let mut model = ProbitModel::new();
            for s in &eligible {
                let (cutoff, changed) = match s.first_server_change {
                    Some(c) => (c, true),
                    None => ((s.start + median_ttc).min(s.end), false),
                };
                model.push(s.spikes_before(size, cutoff) as f64, changed);
            }
            fit_cell(&model, size)
        })
        .collect();
    Some(EffectRow {
        game,
        n_obs: eligible.len(),
        cells,
    })
}

/// Table 5 (bottom): game-change marginal effects for one game.
pub fn game_change_effects(streams: &[BehaviorStream], game: GameId) -> Option<EffectRow> {
    let eligible: Vec<&BehaviorStream> = streams.iter().filter(|s| s.game == game).collect();
    if eligible.len() < 50 {
        return None;
    }
    let cells = SPIKE_SIZES_MS
        .iter()
        .map(|&size| {
            let mut model = ProbitModel::new();
            for s in &eligible {
                model.push(s.spikes_before(size, s.end) as f64, s.game_changed_after);
            }
            fit_cell(&model, size)
        })
        .collect();
    Some(EffectRow {
        game,
        n_obs: eligible.len(),
        cells,
    })
}

/// §6's closing suggestion, implemented: the retention curve — the
/// probability that a streamer *keeps playing* the same game after a
/// stream, as a function of the number of spikes the stream contained.
/// Returns `(spike_count, retention_probability, observations)` rows.
pub fn retention_curve(
    streams: &[BehaviorStream],
    game: GameId,
    max_spikes: u32,
) -> Vec<(u32, f64, usize)> {
    let mut rows = Vec::new();
    for k in 0..=max_spikes {
        let bucket: Vec<&BehaviorStream> = streams
            .iter()
            .filter(|s| s.game == game)
            .filter(|s| {
                let n = s.spikes.len() as u32;
                if k == max_spikes {
                    n >= k
                } else {
                    n == k
                }
            })
            .collect();
        if bucket.is_empty() {
            continue;
        }
        let retained = bucket.iter().filter(|s| !s.game_changed_after).count();
        rows.push((k, retained as f64 / bucket.len() as f64, bucket.len()));
    }
    rows
}

fn fit_cell(model: &ProbitModel, size_ms: f64) -> Option<EffectCell> {
    // A probit needs real sample mass to say anything (the paper's empty
    // cells are exactly this), and an exploding coefficient means
    // (near-)separation — no usable MLE.
    if model.len() < 40 {
        return None;
    }
    let fit: ProbitFit = model.fit()?;
    if !fit.converged || fit.marginal_effect.is_empty() || fit.beta[1].abs() > 5.0 {
        return None;
    }
    Some(EffectCell {
        size_ms,
        marginal_effect: fit.marginal_effect[0],
        p_value: fit.p_value[1],
        n_obs: fit.n_obs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_types::SimRng;

    fn spike(at: SimTime, magnitude: f64) -> SpikeEvent {
        SpikeEvent {
            segment_idxs: vec![],
            magnitude_ms: magnitude,
            start: at,
            end: at + SimDuration::from_mins(5),
            samples: 1,
        }
    }

    /// Generate streams where each spike ≥ 15 ms adds `effect` to the
    /// change probability.
    fn synth(n: usize, effect: f64, seed: u64) -> Vec<BehaviorStream> {
        let mut rng = SimRng::new(seed);
        let mut out = Vec::new();
        for i in 0..n {
            let start = SimTime::from_hours(i as u64 * 10);
            let end = start + SimDuration::from_hours(3);
            let n_spikes = rng.below(5);
            let spikes: Vec<SpikeEvent> = (0..n_spikes)
                .map(|k| {
                    spike(
                        start + SimDuration::from_mins(20 + 25 * k),
                        16.0 + rng.f64() * 30.0,
                    )
                })
                .collect();
            let p = (0.05 + effect * spikes.len() as f64).min(0.95);
            let changed = rng.chance(p);
            let first_server_change = changed.then(|| start + SimDuration::from_mins(100));
            out.push(BehaviorStream {
                anon: AnonId(i as u64 % 40), // 40 streamers
                game: GameId::LeagueOfLegends,
                start,
                end,
                spikes,
                first_server_change,
                game_changed_after: changed,
            });
        }
        out
    }

    #[test]
    fn recovers_positive_server_change_effect() {
        let streams = synth(4_000, 0.08, 42);
        let row = server_change_effects(
            &streams,
            GameId::LeagueOfLegends,
            SimDuration::from_mins(30),
        )
        .expect("row");
        let cell = row.cells[2].expect("≥15 ms cell"); // 15 ms
        assert!(cell.marginal_effect > 0.02, "AME {}", cell.marginal_effect);
        assert!(cell.p_value < 0.01, "p {}", cell.p_value);
    }

    #[test]
    fn null_effect_is_insignificant() {
        let streams = synth(4_000, 0.0, 7);
        let row = game_change_effects(&streams, GameId::LeagueOfLegends).expect("row");
        let cell = row.cells[2].expect("cell");
        assert!(
            cell.marginal_effect.abs() < 0.02,
            "AME {}",
            cell.marginal_effect
        );
        assert!(cell.p_value > 0.01, "p {}", cell.p_value);
    }

    #[test]
    fn no_changers_yields_none() {
        let mut streams = synth(100, 0.5, 3);
        for s in &mut streams {
            s.first_server_change = None;
        }
        assert!(server_change_effects(
            &streams,
            GameId::LeagueOfLegends,
            SimDuration::from_mins(30)
        )
        .is_none());
        // Wrong game yields none too.
        assert!(game_change_effects(&streams, GameId::Dota2).is_none());
    }

    #[test]
    fn short_streams_are_dropped() {
        let mut streams = synth(500, 0.08, 9);
        let before = server_change_effects(
            &streams,
            GameId::LeagueOfLegends,
            SimDuration::from_mins(30),
        )
        .unwrap()
        .n_obs;
        // Shrink half the streams below the minimum play time.
        for s in streams.iter_mut().step_by(2) {
            s.end = s.start + SimDuration::from_mins(10);
        }
        let after = server_change_effects(
            &streams,
            GameId::LeagueOfLegends,
            SimDuration::from_mins(30),
        )
        .unwrap()
        .n_obs;
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn retention_curve_declines_with_spikes() {
        let streams = synth(6_000, 0.08, 21);
        let curve = retention_curve(&streams, GameId::LeagueOfLegends, 4);
        assert!(curve.len() >= 3);
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        assert!(
            last.1 < first.1,
            "retention should fall with spikes: {first:?} -> {last:?}"
        );
        for (_, p, n) in &curve {
            assert!((0.0..=1.0).contains(p));
            assert!(*n > 0);
        }
    }

    #[test]
    fn spikes_before_counts_threshold_and_cutoff() {
        let start = SimTime::from_hours(1);
        let s = BehaviorStream {
            anon: AnonId(1),
            game: GameId::Dota2,
            start,
            end: start + SimDuration::from_hours(2),
            spikes: vec![
                spike(start + SimDuration::from_mins(10), 12.0),
                spike(start + SimDuration::from_mins(30), 25.0),
                spike(start + SimDuration::from_mins(90), 50.0),
            ],
            first_server_change: None,
            game_changed_after: false,
        };
        let mid = start + SimDuration::from_mins(60);
        assert_eq!(s.spikes_before(8.0, mid), 2);
        assert_eq!(s.spikes_before(20.0, mid), 1);
        assert_eq!(s.spikes_before(8.0, s.end), 3);
        assert_eq!(s.spikes_before(60.0, s.end), 0);
    }
}
