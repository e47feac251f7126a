//! Tero's configurable parameters (Table 1) and the defaults the paper uses.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Tero's configurable parameters (Table 1, plus `MinWeight` from §3.3.3).
///
/// * `LatGap` — the minimum latency difference perceivable by human users;
///   the paper uses 15 ms (upper bound of perceivable latency in VR, \[32\]).
/// * `StableLen` — the minimum time a player must play on one server before
///   switching; the paper settles on 30 minutes (App I).
/// * `MaxSpikes` — the maximum proportion of a streamer's points that may be
///   spikes for the streamer to yield "high-quality" information; 50 %.
/// * `MinWeight` — the minimum cluster weight for a streamer to be *static*;
///   80 %.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TeroParams {
    /// Perceivable latency-difference threshold, in milliseconds.
    pub lat_gap_ms: u32,
    /// Minimum time one must play on the same server before switching.
    pub stable_len: SimDuration,
    /// Maximum proportion of spike points allowed per streamer, in `[0, 1]`.
    pub max_spikes: f64,
    /// Minimum weight of the dominant cluster for a *static* streamer.
    pub min_weight: f64,
}

impl TeroParams {
    /// Number of consecutive samples that `stable_len` corresponds to, given
    /// the ~5-minute thumbnail cadence: a segment is *stable* when it has at
    /// least this many points (§3.3.1).
    pub fn stable_points(&self) -> usize {
        (self.stable_len.as_mins() as usize / 5).max(1)
    }

    /// Builder-style override of `LatGap`.
    pub fn with_lat_gap_ms(mut self, ms: u32) -> Self {
        self.lat_gap_ms = ms;
        self
    }

    /// Builder-style override of `StableLen`.
    pub fn with_stable_len(mut self, d: SimDuration) -> Self {
        self.stable_len = d;
        self
    }
}

impl Default for TeroParams {
    fn default() -> Self {
        TeroParams {
            lat_gap_ms: 15,
            stable_len: SimDuration::from_mins(30),
            max_spikes: 0.5,
            min_weight: 0.8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = TeroParams::default();
        assert_eq!(p.lat_gap_ms, 15);
        assert_eq!(p.stable_len.as_mins(), 30);
        assert!((p.max_spikes - 0.5).abs() < 1e-12);
        assert!((p.min_weight - 0.8).abs() < 1e-12);
    }

    #[test]
    fn stable_points_from_cadence() {
        let p = TeroParams::default();
        assert_eq!(p.stable_points(), 6, "30 min at 5-min cadence");
        let p5 = p.with_stable_len(SimDuration::from_mins(5));
        assert_eq!(p5.stable_points(), 1);
        // Degenerate StableLen still demands at least one point.
        let p0 = p.with_stable_len(SimDuration::from_micros(0));
        assert_eq!(p0.stable_points(), 1);
    }

    #[test]
    fn builders() {
        let p = TeroParams::default().with_lat_gap_ms(8);
        assert_eq!(p.lat_gap_ms, 8);
    }
}
