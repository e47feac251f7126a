//! Streams and same-QoE segments (§3.3.1).
//!
//! A *stream* is the sequence of `{timestamp, latency}` tuples from one
//! streamer playing one game, from coming online to going offline. Each
//! stream divides into *same-QoE segments*: maximal runs whose latency
//! measurements all lie within `LatGap` of each other. A segment with at
//! least `StableLen`'s worth of points is *stable*.

use serde::{Deserialize, Serialize};
use tero_types::{AnonId, GameId, LatencySample, TeroParams};

/// One stream of a `{streamer, game}` series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSeries {
    /// Anonymised streamer.
    pub anon: AnonId,
    /// Game played.
    pub game: GameId,
    /// Samples in time order (≥ 5 minutes apart, by construction of the
    /// thumbnail cadence).
    pub samples: Vec<LatencySample>,
}

/// A same-QoE segment: indices into one stream's samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Which stream of the stitched series this segment belongs to.
    pub stream_idx: usize,
    /// The samples (cloned out of the stream for ergonomic processing).
    pub samples: Vec<LatencySample>,
    /// Whether the segment has at least `StableLen` worth of points.
    pub stable: bool,
}

impl Segment {
    /// Smallest latency in the segment.
    pub fn min_ms(&self) -> u32 {
        self.samples.iter().map(|s| s.latency_ms).min().unwrap_or(0)
    }

    /// Largest latency in the segment.
    pub fn max_ms(&self) -> u32 {
        self.samples.iter().map(|s| s.latency_ms).max().unwrap_or(0)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the segment holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Whether every measurement of `self` lies within `gap` of the value
    /// range of `other` (the §3.3.2 cleanup criterion).
    pub(crate) fn within_gap_of(&self, other: &Segment, gap: u32) -> bool {
        let lo = other.min_ms().saturating_sub(gap);
        let hi = other.max_ms().saturating_add(gap);
        self.samples
            .iter()
            .all(|s| s.latency_ms >= lo && s.latency_ms <= hi)
    }
}

/// Divide one stream into same-QoE segments: a new sample joins the
/// current segment iff the segment's value span (including the new sample)
/// stays within `LatGap`; otherwise a new segment starts.
pub fn segment_stream(
    stream_idx: usize,
    samples: &[LatencySample],
    params: &TeroParams,
) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut current: Vec<LatencySample> = Vec::new();
    let (mut lo, mut hi) = (0u32, 0u32);
    for &s in samples {
        if current.is_empty() {
            lo = s.latency_ms;
            hi = s.latency_ms;
            current.push(s);
            continue;
        }
        let new_lo = lo.min(s.latency_ms);
        let new_hi = hi.max(s.latency_ms);
        if new_hi - new_lo <= params.lat_gap_ms {
            lo = new_lo;
            hi = new_hi;
            current.push(s);
        } else {
            segments.push(mk_segment(stream_idx, std::mem::take(&mut current), params));
            lo = s.latency_ms;
            hi = s.latency_ms;
            current.push(s);
        }
    }
    if !current.is_empty() {
        segments.push(mk_segment(stream_idx, current, params));
    }
    segments
}

fn mk_segment(stream_idx: usize, samples: Vec<LatencySample>, params: &TeroParams) -> Segment {
    let stable = samples.len() >= params.stable_points();
    Segment {
        stream_idx,
        samples,
        stable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_types::SimTime;

    fn samples(values: &[u32]) -> Vec<LatencySample> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| LatencySample::new(SimTime::from_mins(5 * i as u64), v))
            .collect()
    }

    fn params() -> TeroParams {
        TeroParams::default() // LatGap 15, StableLen 30 min → 6 points
    }

    #[test]
    fn single_flat_stream_is_one_stable_segment() {
        let xs = samples(&[40, 42, 41, 43, 40, 44, 42, 41]);
        let segs = segment_stream(0, &xs, &params());
        assert_eq!(segs.len(), 1);
        assert!(segs[0].stable);
        assert_eq!(segs[0].len(), 8);
        assert_eq!(segs[0].min_ms(), 40);
        assert_eq!(segs[0].max_ms(), 44);
    }

    #[test]
    fn level_shift_splits_segments() {
        let xs = samples(&[40, 41, 42, 40, 41, 40, 80, 81, 80, 82, 81, 83]);
        let segs = segment_stream(0, &xs, &params());
        assert_eq!(segs.len(), 2);
        assert!(segs[0].stable && segs[1].stable);
        assert_eq!(segs[0].len(), 6);
        assert_eq!(segs[1].len(), 6);
    }

    #[test]
    fn short_excursion_is_unstable() {
        let xs = samples(&[40, 41, 40, 42, 41, 40, 90, 91, 40, 41, 42, 40, 41, 43]);
        let segs = segment_stream(0, &xs, &params());
        assert_eq!(segs.len(), 3);
        assert!(segs[0].stable);
        assert!(!segs[1].stable, "2-point excursion");
        assert!(segs[2].stable);
    }

    #[test]
    fn span_criterion_not_consecutive_diff() {
        // Drift: consecutive diffs small, total span exceeds LatGap →
        // must split (the segment criterion is the value *span*).
        let xs = samples(&[40, 48, 56, 64, 72]);
        let segs = segment_stream(0, &xs, &params());
        assert!(segs.len() >= 2, "drift must split: {segs:?}");
        for seg in &segs {
            assert!(seg.max_ms() - seg.min_ms() <= 15);
        }
    }

    #[test]
    fn empty_stream() {
        assert!(segment_stream(0, &[], &params()).is_empty());
    }

    #[test]
    fn within_gap_of_checks_all_points() {
        let p = params();
        let a = segment_stream(0, &samples(&[40, 41, 42]), &p).remove(0);
        let b = segment_stream(0, &samples(&[50, 52, 51]), &p).remove(0);
        let c = segment_stream(0, &samples(&[80, 82]), &p).remove(0);
        assert!(a.within_gap_of(&b, 15));
        assert!(!a.within_gap_of(&c, 15));
        assert!(!c.within_gap_of(&a, 15));
    }

    #[test]
    fn stable_threshold_follows_params() {
        let p = TeroParams::default().with_stable_len(tero_types::SimDuration::from_mins(10));
        // 10 min at 5-min cadence → 2 points for stability.
        let segs = segment_stream(0, &samples(&[40, 41]), &p);
        assert!(segs[0].stable);
        let p30 = params();
        let segs = segment_stream(0, &samples(&[40, 41]), &p30);
        assert!(!segs[0].stable);
    }
}
