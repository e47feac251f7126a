//! Per-`{location, game}` latency distributions (§3.3.3, §5.2).
//!
//! Distributions come from streamers located at the location with no
//! possible location change: all measurements of static streamers, plus —
//! from each mobile streamer — the measurements of their highest-weight
//! cluster. Each distribution also carries a version normalised by the
//! corrected distance to the location's primary server.

use crate::analysis::clusters::ClassifiedStreamer;
use serde::{Deserialize, Serialize};
use tero_stats::BoxplotStats;
use tero_types::{GameId, Location};

/// The latency distribution of one `{location, game}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocationDistribution {
    /// The location.
    pub location: Location,
    /// The game.
    pub game: GameId,
    /// Number of streamers contributing.
    pub streamers: usize,
    /// All contributing latency values, ms.
    pub values_ms: Vec<f64>,
    /// The 5/25/50/75/95 summary.
    pub stats: BoxplotStats,
    /// Primary-server location (city or region granularity).
    pub server: Option<Location>,
    /// Average corrected distance between the server and the contributing
    /// streamers, km.
    pub corrected_distance_km: Option<f64>,
    /// The summary normalised by corrected distance (ms per 1000 km).
    pub normalized: Option<BoxplotStats>,
}

/// Assemble the distribution for one `{location, game}` from its
/// classified streamers (only high-quality ones contribute, and mobile
/// streamers with possible location changes must already be excluded by
/// the caller).
pub(crate) fn location_distribution(
    location: Location,
    game: GameId,
    streamers: &[&ClassifiedStreamer],
    server: Option<Location>,
    corrected_distance_km: Option<f64>,
) -> Option<LocationDistribution> {
    let mut values: Vec<f64> = Vec::new();
    let mut contributing = 0usize;
    for s in streamers {
        if !s.high_quality || s.clusters.is_empty() {
            continue;
        }
        contributing += 1;
        if s.is_static {
            // All cleaned measurements (every cluster).
            for c in &s.clusters {
                values.extend(c.samples.iter().map(|x| x.latency_ms as f64));
            }
        } else {
            // Mobile: only the highest-weight cluster.
            values.extend(s.clusters[0].samples.iter().map(|x| x.latency_ms as f64));
        }
    }
    let stats = BoxplotStats::from_samples(&values)?;
    let normalized = corrected_distance_km
        .filter(|&d| d > 0.0)
        .map(|d| stats.scaled(1_000.0 / d));
    Some(LocationDistribution {
        location,
        game,
        streamers: contributing,
        values_ms: values,
        stats,
        server,
        corrected_distance_km,
        normalized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::anomaly::detect_anomalies;
    use crate::analysis::clusters::classify_streamer;
    use crate::analysis::segments::segment_stream;
    use tero_types::{AnonId, LatencySample, SimTime, TeroParams};

    fn classified(values: &[u32], id: u64) -> ClassifiedStreamer {
        let params = TeroParams::default();
        let samples: Vec<LatencySample> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| LatencySample::new(SimTime::from_mins(5 * i as u64), v))
            .collect();
        let segs = segment_stream(0, &samples, &params);
        classify_streamer(AnonId(id), &detect_anomalies(segs, &params), &params)
    }

    #[test]
    fn distribution_from_static_streamers() {
        let a = classified(&[40; 20], 1);
        let b = classified(&[50; 20], 2);
        let dist = location_distribution(
            Location::region("United States", "Illinois"),
            GameId::LeagueOfLegends,
            &[&a, &b],
            Some(Location::city("United States", "Illinois", "Chicago")),
            Some(500.0),
        )
        .unwrap();
        assert_eq!(dist.streamers, 2);
        assert_eq!(dist.values_ms.len(), 40);
        assert!((dist.stats.p50 - 45.0).abs() < 5.1);
        // Normalised: ms per 1000 km at 500 km → ×2.
        let norm = dist.normalized.unwrap();
        assert!((norm.p50 - dist.stats.p50 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn mobile_contributes_top_cluster_only() {
        let mut vals = vec![40u32; 10];
        vals.extend([90u32; 14].iter()); // heavier cluster at 90
        let m = classified(&vals, 3);
        assert!(!m.is_static);
        let dist = location_distribution(
            Location::country("France"),
            GameId::LeagueOfLegends,
            &[&m],
            None,
            None,
        )
        .unwrap();
        assert_eq!(dist.values_ms.len(), 14, "only the top cluster");
        assert!(dist.values_ms.iter().all(|&v| v >= 85.0));
        assert!(dist.normalized.is_none());
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(location_distribution(
            Location::country("Nowhere"),
            GameId::Dota2,
            &[],
            None,
            None
        )
        .is_none());
    }

    #[test]
    fn low_quality_streamers_excluded() {
        let mut bad = classified(&[40; 20], 4);
        bad.high_quality = false;
        let good = classified(&[60; 20], 5);
        let dist = location_distribution(
            Location::country("Chile"),
            GameId::Dota2,
            &[&bad, &good],
            None,
            None,
        )
        .unwrap();
        assert_eq!(dist.streamers, 1);
        assert!(dist.values_ms.iter().all(|&v| v >= 55.0));
    }
}
