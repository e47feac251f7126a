//! Shared-anomaly detection (§3.3.2 last part, App. F).
//!
//! Streamers are grouped per `{game, region}` (the paper's best available
//! aggregate: same-region players typically share a server and some
//! network infrastructure). For each detected spike, Tero counts how many
//! of the concurrently-streaming group members also spiked within a
//! 12-minute window, and applies the binomial test of App. F.

use crate::analysis::anomaly::SpikeEvent;
use serde::{Deserialize, Serialize};
use tero_stats::SharedAnomalyTest;
use tero_types::{AnonId, GameId, Location, SimDuration, SimTime};

/// The window around a spike within which another streamer counts as
/// "streaming during the spike" / "spiking with it": ±6 minutes (the 90th
/// percentile of thumbnail inter-arrival is 6 minutes, Fig 13).
pub(crate) const SHARED_WINDOW: SimDuration = SimDuration(12 * 60 * 1_000_000);

/// One streamer's contribution to a `{game, region}` aggregate.
#[derive(Debug, Clone)]
pub struct StreamerActivity {
    /// Who.
    pub anon: AnonId,
    /// Times of all their (clean + spike) measurements.
    pub measurement_times: Vec<SimTime>,
    /// Their detected spikes.
    pub spikes: Vec<SpikeEvent>,
}

/// One detected shared anomaly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedAnomaly {
    /// Game of the aggregate.
    pub game: GameId,
    /// Region-level location of the aggregate.
    pub region: Location,
    /// Centre of the triggering spike window.
    pub at: SimTime,
    /// Streamers active in the window.
    pub active: u64,
    /// Streamers who spiked in the window.
    pub spiking: u64,
    /// The binomial probability of independence (Eq. 3).
    pub probability: f64,
}

/// Detect shared anomalies within one `{game, region}` aggregate.
pub fn detect_shared_anomalies(
    game: GameId,
    region: &Location,
    activities: &[StreamerActivity],
) -> Vec<SharedAnomaly> {
    let total_measurements: u64 = activities
        .iter()
        .map(|a| a.measurement_times.len() as u64)
        .sum();
    let total_spikes: u64 = activities.iter().map(|a| a.spikes.len() as u64).sum();
    let Some(test) = SharedAnomalyTest::from_counts(total_spikes, total_measurements) else {
        return vec![];
    };
    if !test.is_significant() {
        return vec![];
    }

    let half = SimDuration(SHARED_WINDOW.as_micros() / 2);
    let mut out: Vec<SharedAnomaly> = Vec::new();
    for (i, activity) in activities.iter().enumerate() {
        for spike in &activity.spikes {
            let center = spike.start;
            let lo = center - half;
            let hi = center + half;
            // N: streamers with ≥1 measurement in the window.
            // D: of those, streamers with a spike overlapping the window.
            let mut active = 0u64;
            let mut spiking = 0u64;
            for (j, other) in activities.iter().enumerate() {
                let has_measurement = other.measurement_times.iter().any(|&t| t >= lo && t <= hi);
                if !has_measurement {
                    continue;
                }
                active += 1;
                let spiked = if i == j {
                    true
                } else {
                    other.spikes.iter().any(|s| s.start <= hi && s.end >= lo)
                };
                if spiked {
                    spiking += 1;
                }
            }
            if spiking >= 2 && test.is_shared_anomaly(active, spiking) {
                // Deduplicate: skip if we already emitted an anomaly whose
                // window overlaps this one.
                let dup = out.iter().any(|a| a.at >= lo && a.at <= hi);
                if !dup {
                    out.push(SharedAnomaly {
                        game,
                        region: region.clone(),
                        at: center,
                        active,
                        spiking,
                        probability: test.independence_probability(active, spiking),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_types::SimTime;

    fn spike(at_min: u64, dur_min: u64) -> SpikeEvent {
        SpikeEvent {
            segment_idxs: vec![],
            magnitude_ms: 30.0,
            start: SimTime::from_mins(at_min),
            end: SimTime::from_mins(at_min + dur_min),
            samples: 2,
        }
    }

    /// A streamer measured every 5 minutes across `hours`, with the given
    /// spikes.
    fn activity(id: u64, hours: u64, spikes: Vec<SpikeEvent>) -> StreamerActivity {
        StreamerActivity {
            anon: AnonId(id),
            measurement_times: (0..hours * 12).map(|i| SimTime::from_mins(5 * i)).collect(),
            spikes,
        }
    }

    fn region() -> Location {
        Location::region("United States", "California")
    }

    #[test]
    fn correlated_spikes_fire_the_test() {
        // 10 streamers, 100 h of data each, a few unrelated background
        // spikes apiece (so Eq. 2's significance gate passes); 8 of them
        // also spike together at minute 600.
        let activities: Vec<StreamerActivity> = (0..10u64)
            .map(|i| {
                let mut spikes = vec![
                    spike(3_000 + i * 137, 8),
                    spike(4_500 + i * 89, 8),
                    spike(5_400 + i * 53, 8),
                ];
                if i < 8 {
                    spikes.insert(0, spike(600, 10));
                }
                activity(i, 100, spikes)
            })
            .collect();
        let found = detect_shared_anomalies(GameId::LeagueOfLegends, &region(), &activities);
        assert!(!found.is_empty(), "anomaly must fire");
        let hit = found
            .iter()
            .find(|a| a.at.as_mins().abs_diff(600) <= 12)
            .expect("anomaly at the correlated window");
        assert_eq!(hit.active, 10);
        assert_eq!(hit.spiking, 8);
        assert!(hit.probability <= 1e-4);
    }

    #[test]
    fn lone_spike_is_not_shared() {
        let activities: Vec<StreamerActivity> = (0..10)
            .map(|i| {
                let spikes = if i == 0 { vec![spike(600, 10)] } else { vec![] };
                activity(i, 100, spikes)
            })
            .collect();
        let found = detect_shared_anomalies(GameId::LeagueOfLegends, &region(), &activities);
        assert!(found.is_empty());
    }

    #[test]
    fn insufficient_data_is_silent() {
        // Eq. 2 gate: a tiny aggregate cannot produce shared anomalies even
        // when everything spikes together.
        let activities: Vec<StreamerActivity> = (0..3)
            .map(|i| StreamerActivity {
                anon: AnonId(i),
                measurement_times: vec![SimTime::from_mins(600)],
                spikes: vec![spike(600, 10)],
            })
            .collect();
        let found = detect_shared_anomalies(GameId::LeagueOfLegends, &region(), &activities);
        assert!(found.is_empty());
    }

    #[test]
    fn uncorrelated_spikes_do_not_fire() {
        // Everyone spikes, but at well-separated times.
        let activities: Vec<StreamerActivity> = (0..10)
            .map(|i| activity(i, 100, vec![spike(i * 300 + 20, 8)]))
            .collect();
        let found = detect_shared_anomalies(GameId::LeagueOfLegends, &region(), &activities);
        assert!(found.is_empty(), "{found:?}");
    }
}
