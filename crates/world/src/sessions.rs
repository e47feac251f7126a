//! Stream and thumbnail-timing generation.
//!
//! Produces, per streamer, the ground-truth timeline the platform simulator
//! serves from: streams with start/end times, the game played, the server
//! in use (including spike-driven mid-stream server changes — Table 5's
//! ground truth), spike schedules, and samples at thumbnail instants
//! (~every 5 minutes with the jitter of Fig 13).

use crate::games::{match_length_mins, primary_server, server_locations, GameServer};
use crate::latency::{draw_spikes, true_rtt_ms, SharedEvent, Spike};
use crate::streamer::Streamer;
use tero_geoparse::Gazetteer;
use tero_types::{GameId, Location, SimDuration, SimRng, SimTime};

/// One ground-truth sample at a thumbnail instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthSample {
    /// Sample time.
    pub t: SimTime,
    /// Ground-truth RTT at this instant, ms.
    pub true_rtt_ms: f64,
    /// What the HUD displays (rounded; 0 when the streamer sits in a
    /// lobby, which real games show as a placeholder).
    pub displayed_ms: u32,
    /// Index into the game's server list.
    pub server_idx: usize,
    /// Whether a spike or shared event is active at this instant.
    pub in_spike: bool,
}

/// One ground-truth stream.
#[derive(Debug, Clone)]
pub struct TruthStream {
    /// Game played.
    pub game: GameId,
    /// Stream start.
    pub start: SimTime,
    /// Stream end.
    pub end: SimTime,
    /// True location during the stream (location never changes
    /// mid-stream, per §3.3.1's assumption — our generator honours it).
    pub location: Location,
    /// Thumbnail-instant samples.
    pub samples: Vec<TruthSample>,
    /// Times of mid-stream server changes.
    pub server_changes: Vec<SimTime>,
    /// The streamer's own spike schedule during the stream.
    pub spikes: Vec<Spike>,
    /// Whether the *next* stream is a different game (a "game change").
    pub next_game_changed: bool,
}

impl TruthStream {
    /// Number of samples whose ground truth lies inside a spike.
    pub fn spike_samples(&self) -> usize {
        self.samples.iter().filter(|s| s.in_spike).count()
    }
}

/// Draw the next thumbnail interval: nominally 5 minutes, uniformly
/// jittered up to +60 s (Fig 13's inter-arrival CDF lives in [300 s,
/// ~400 s]), with occasional longer gaps when the streamer takes a break.
pub(crate) fn thumbnail_interval(rng: &mut SimRng) -> SimDuration {
    let base = SimDuration::from_secs(300 + rng.below(61));
    if rng.chance(0.05) {
        base + SimDuration::from_secs(300 + rng.below(1_500))
    } else {
        base
    }
}

/// Generate a streamer's full timeline up to `horizon`.
pub fn generate_timeline(
    streamer: &Streamer,
    gaz: &Gazetteer,
    shared: &[SharedEvent],
    horizon: SimTime,
    rng: &mut SimRng,
) -> Vec<TruthStream> {
    let mut streams = Vec::new();
    let days = horizon.as_secs() / 86_400;
    let mut current_game_idx = 0usize;

    for day in 0..days {
        if !rng.chance(streamer.daily_stream_prob) {
            continue;
        }
        let start_s = day * 86_400 + streamer.preferred_utc_hour * 3_600;
        let start = SimTime::from_secs(start_s) + SimDuration::from_secs(rng.below(7_200));
        let hours = (0.5 + rng.exponential(streamer.session_mean_hours - 0.5).min(7.5)).min(8.0);
        let end = (start + SimDuration::from_secs_f64(hours * 3_600.0)).min(horizon);
        if start >= horizon || end <= start {
            continue;
        }

        let game = streamer.games[current_game_idx];
        let stream = generate_stream(
            streamer,
            gaz,
            shared,
            game,
            current_game_idx,
            start,
            end,
            rng,
        );

        // Decide the next stream's game: spikes push players to switch
        // (§6's game-change hypothesis).
        let behavior = &streamer.behavior[current_game_idx];
        let spike_pressure: f64 = stream
            .spikes
            .iter()
            .map(|s| (s.magnitude_ms.min(40.0) / 40.0) * behavior.spike_game_coeff)
            .sum();
        let p_change = (behavior.base_game_change + spike_pressure).min(0.9);
        let mut stream = stream;
        if streamer.games.len() > 1 && rng.chance(p_change) {
            let mut next = rng.range_usize(0, streamer.games.len());
            if next == current_game_idx {
                next = (next + 1) % streamer.games.len();
            }
            current_game_idx = next;
            stream.next_game_changed = true;
        }
        streams.push(stream);
    }
    streams
}

/// Generate one stream: thumbnails, spikes, server changes, samples.
#[allow(clippy::too_many_arguments)]
fn generate_stream(
    streamer: &Streamer,
    gaz: &Gazetteer,
    shared: &[SharedEvent],
    game: GameId,
    game_idx: usize,
    start: SimTime,
    end: SimTime,
    rng: &mut SimRng,
) -> TruthStream {
    let place = streamer.location_at(start).clone();
    let net = streamer.net_at(start).clone();
    let servers = server_locations(gaz, game);
    let primary = primary_server(gaz, game, &place.location).unwrap_or_else(|| servers[0].clone());
    let primary_idx = servers
        .iter()
        .position(|s| s.location == primary.location)
        .unwrap_or(0);

    // Off-primary play (§2.1): habitual off-primary streamers stick to
    // their alternative server; everyone else occasionally (2 % of
    // streams) tries one.
    let start_server = match streamer.off_primary {
        Some(false) if servers.len() > 1 => crowd_server(&servers, primary_idx),
        Some(true) if servers.len() > 1 => {
            // A stable "friends abroad" server, derived from the
            // streamer's identity so it never changes between streams.
            let mut h: u64 = 0x9e37;
            for b in streamer.id.as_str().bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
            let pick = (h % servers.len() as u64) as usize;
            if pick == primary_idx {
                (pick + 1) % servers.len()
            } else {
                pick
            }
        }
        _ if rng.chance(0.02) && servers.len() > 1 => crowd_server(&servers, primary_idx),
        _ => primary_idx,
    };

    let spikes = draw_spikes(&net, start, end, rng);
    let shared_hits: Vec<&SharedEvent> = shared
        .iter()
        .filter(|e| e.game == game)
        .filter(|e| e.start < end && e.end > start)
        .filter(|e| e.hits(game, &place.location, e.start.max(start)))
        .collect();

    // Server-change decisions: at each spike, with probability scaled by
    // the spike's size, the streamer resolves to switch — but only after
    // having played at least one match length on the current server
    // (Table 1's StableLen rationale). The schedule records (time, server).
    let behavior = &streamer.behavior[game_idx];
    let min_play = SimDuration::from_mins(match_length_mins(game));
    let mut server_changes: Vec<SimTime> = Vec::new();
    let mut schedule: Vec<(SimTime, usize)> = vec![(start, start_server)];
    let mut last_change = start;
    // Change *opportunities*: every match boundary carries the base
    // (spike-independent) probability — players also switch to follow
    // friends or try a new crowd — plus, when a spike is active at the
    // boundary, the spike-driven extra probability (§6's treatment).
    let mut boundaries: Vec<SimTime> = Vec::new();
    let mut t = start + min_play;
    while t < end {
        boundaries.push(t);
        t += min_play;
    }
    for at in boundaries {
        if servers.len() < 2 {
            break;
        }
        let active_spike = spikes
            .iter()
            .find(|sp| sp.start <= at && at <= sp.end + min_play);
        let p = behavior.base_server_change
            + active_spike
                .map(|sp| behavior.spike_server_coeff * (sp.magnitude_ms.min(40.0) / 40.0))
                .unwrap_or(0.0);
        if at.since(last_change) >= min_play && rng.chance(p) && at > last_change && at < end {
            let current = schedule.last().expect("schedule non-empty").1;
            // Move to another server: usually the big "crowd" hub the
            // streamer's friends play on, sometimes a random one.
            let next = if rng.chance(0.7) {
                crowd_server(&servers, current)
            } else {
                rng.range_usize(0, servers.len())
            };
            let next = if next == current {
                (next + 1) % servers.len()
            } else {
                next
            };
            server_changes.push(at);
            schedule.push((at, next));
            last_change = at;
        }
    }

    // Samples at thumbnail instants.
    let base_rtt: Vec<f64> = servers
        .iter()
        .map(|s| net.base_rtt_ms(gaz, &place, s))
        .collect();
    let mut samples = Vec::new();
    let mut t = start + SimDuration::from_secs(rng.below(300));
    let mut change_cursor = 0usize;
    while t < end {
        while change_cursor + 1 < schedule.len() && schedule[change_cursor + 1].0 <= t {
            change_cursor += 1;
        }
        let current_server = schedule[change_cursor].1;
        let rtt = true_rtt_ms(
            base_rtt[current_server],
            net.jitter_sd,
            &spikes,
            &shared_hits,
            t,
            rng,
        );
        let in_spike = spikes.iter().any(|s| s.active_at(t))
            || shared_hits.iter().any(|e| t >= e.start && t < e.end);
        // ~3 % of thumbnails catch the streamer in a lobby showing the
        // zero placeholder.
        let displayed_ms = if rng.chance(0.03) {
            0
        } else {
            rtt.round().clamp(1.0, 999.0) as u32
        };
        samples.push(TruthSample {
            t,
            true_rtt_ms: rtt,
            displayed_ms,
            server_idx: current_server,
            in_spike,
        });
        t += thumbnail_interval(rng);
    }

    TruthStream {
        game,
        start,
        end,
        location: place.location.clone(),
        samples,
        server_changes,
        spikes,
        next_game_changed: false,
    }
}

/// The "crowd" server: the big population hub players join to meet a
/// particular player base (§2.1) — the first server in the game's
/// deployment list that is not the one being left. Deployment lists lead
/// with the major hubs (Amsterdam, Chicago, …), so EU players end up on
/// NA and vice versa, exactly the paper's UK example.
fn crowd_server(servers: &[GameServer], exclude: usize) -> usize {
    (0..servers.len()).find(|&i| i != exclude).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_geoparse::PlaceKind;

    fn setup() -> (Gazetteer, Streamer) {
        let gaz = Gazetteer::new();
        let home = gaz.lookup_kind("Chicago", PlaceKind::City)[0].clone();
        let mut rng = SimRng::new(42);
        let s = Streamer::generate(&gaz, home, SimTime::from_hours(24 * 30), &mut rng);
        (gaz, s)
    }

    #[test]
    fn timeline_covers_horizon() {
        let (gaz, s) = setup();
        let mut rng = SimRng::new(1);
        let horizon = SimTime::from_hours(24 * 30);
        let streams = generate_timeline(&s, &gaz, &[], horizon, &mut rng);
        assert!(!streams.is_empty());
        for st in &streams {
            assert!(st.start < st.end);
            assert!(st.end <= horizon);
            assert!(s.games.contains(&st.game));
            for w in st.samples.windows(2) {
                let gap = w[1].t.since(w[0].t);
                assert!(gap.as_secs() >= 300, "gap {} s", gap.as_secs());
            }
        }
        // Streams are chronological.
        for w in streams.windows(2) {
            assert!(w[0].start < w[1].start);
        }
    }

    #[test]
    fn thumbnail_interval_distribution() {
        let mut rng = SimRng::new(5);
        let mut within_minute = 0;
        let n = 10_000;
        for _ in 0..n {
            let iv = thumbnail_interval(&mut rng).as_secs();
            assert!(iv >= 300);
            if iv <= 360 {
                within_minute += 1;
            }
        }
        // Fig 13: 90th percentile of inter-arrival ≈ 6 min.
        let frac = within_minute as f64 / n as f64;
        assert!(frac > 0.85, "within 6 min: {frac}");
    }

    #[test]
    fn samples_reflect_spikes() {
        let (gaz, s) = setup();
        let mut rng = SimRng::new(2);
        let horizon = SimTime::from_hours(24 * 60);
        let streams = generate_timeline(&s, &gaz, &[], horizon, &mut rng);
        let total: usize = streams.iter().map(|st| st.samples.len()).sum();
        let in_spike: usize = streams.iter().map(|st| st.spike_samples()).sum();
        assert!(total > 100, "samples {total}");
        assert!(in_spike > 0, "some samples in spikes");
        assert!(
            (in_spike as f64) < total as f64 * 0.5,
            "spikes are transient"
        );
    }

    #[test]
    fn shared_event_raises_samples() {
        let (gaz, s) = setup();
        let game = s.games[0];
        let event = SharedEvent {
            game,
            region: None,
            start: SimTime::EPOCH,
            end: SimTime::from_hours(24 * 365),
            magnitude_ms: 150.0,
        };
        let mut rng_a = SimRng::new(3);
        let with = generate_timeline(&s, &gaz, &[event], SimTime::from_hours(24 * 20), &mut rng_a);
        let mut rng_b = SimRng::new(3);
        let without = generate_timeline(&s, &gaz, &[], SimTime::from_hours(24 * 20), &mut rng_b);
        let mean = |streams: &[TruthStream], g: GameId| {
            let xs: Vec<f64> = streams
                .iter()
                .filter(|st| st.game == g)
                .flat_map(|st| st.samples.iter().map(|x| x.true_rtt_ms))
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let m_with = mean(&with, game);
        let m_without = mean(&without, game);
        assert!(
            m_with > m_without + 100.0,
            "event must lift the affected game: {m_without} -> {m_with}"
        );
    }

    #[test]
    fn server_changes_require_minimum_play() {
        let (gaz, s) = setup();
        let mut rng = SimRng::new(4);
        let streams = generate_timeline(&s, &gaz, &[], SimTime::from_hours(24 * 90), &mut rng);
        for st in &streams {
            let min_play = SimDuration::from_mins(match_length_mins(st.game));
            let mut last = st.start;
            for &c in &st.server_changes {
                assert!(c.since(last) >= min_play, "change too early");
                last = c;
            }
        }
    }

    #[test]
    fn lobby_placeholder_rate() {
        let (gaz, s) = setup();
        let mut rng = SimRng::new(6);
        let streams = generate_timeline(&s, &gaz, &[], SimTime::from_hours(24 * 120), &mut rng);
        let total: usize = streams.iter().map(|st| st.samples.len()).sum();
        let zeros: usize = streams
            .iter()
            .flat_map(|st| &st.samples)
            .filter(|x| x.displayed_ms == 0)
            .count();
        let frac = zeros as f64 / total as f64;
        assert!((0.01..0.06).contains(&frac), "zero rate {frac}");
    }
}
