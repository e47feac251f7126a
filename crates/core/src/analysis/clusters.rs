//! Similar-latency clusters, static/mobile classification and end-point
//! changes (§3.3.3).

use crate::analysis::anomaly::AnomalyReport;
use crate::analysis::segments::Segment;
use serde::{Deserialize, Serialize};
use tero_types::{AnonId, LatencySample, SimTime, TeroParams};

/// A similar-latency cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCluster {
    /// Smallest latency inside the cluster, ms.
    pub min_ms: u32,
    /// Largest latency inside the cluster, ms.
    pub max_ms: u32,
    /// All samples inside the cluster.
    pub samples: Vec<LatencySample>,
    /// Fraction of the streamer's measurements inside the cluster
    /// (for per-location clusters: fraction of streamers).
    pub weight: f64,
}

impl LatencyCluster {
    fn from_segment(seg: &Segment) -> LatencyCluster {
        LatencyCluster {
            min_ms: seg.min_ms(),
            max_ms: seg.max_ms(),
            samples: seg.samples.clone(),
            weight: 0.0,
        }
    }

    /// Whether two clusters must merge: they stay separate only if *all*
    /// their measurements differ by at least `gap` — i.e. they merge when
    /// their value ranges come within `gap` of each other.
    pub fn touches(&self, other: &LatencyCluster, gap: u32) -> bool {
        self.min_ms < other.max_ms.saturating_add(gap)
            && other.min_ms < self.max_ms.saturating_add(gap)
    }

    fn absorb(&mut self, other: LatencyCluster) {
        self.min_ms = self.min_ms.min(other.min_ms);
        self.max_ms = self.max_ms.max(other.max_ms);
        self.samples.extend(other.samples);
        self.weight += other.weight;
    }

    /// Whether a segment's value range falls inside this cluster (used for
    /// end-point-change attribution).
    pub fn contains_segment(&self, seg: &Segment, gap: u32) -> bool {
        seg.min_ms() < self.max_ms.saturating_add(gap)
            && self.min_ms < seg.max_ms().saturating_add(gap)
    }
}

/// Merge a list of clusters under the `touches` criterion until fixpoint.
fn merge_until_stable(mut clusters: Vec<LatencyCluster>, gap: u32) -> Vec<LatencyCluster> {
    loop {
        let mut merged_any = false;
        let mut out: Vec<LatencyCluster> = Vec::with_capacity(clusters.len());
        for c in clusters.drain(..) {
            match out.iter_mut().find(|o| o.touches(&c, gap)) {
                Some(o) => {
                    o.absorb(c);
                    merged_any = true;
                }
                None => out.push(c),
            }
        }
        clusters = out;
        if !merged_any {
            break;
        }
    }
    clusters.sort_by(|a, b| b.weight.partial_cmp(&a.weight).unwrap());
    clusters
}

/// Cluster one streamer's stable segments (spikes were already excluded by
/// the anomaly stage). `merge_gap_ms` is `LatGap` by default; Fig 14
/// sweeps ×0.5 and ×1.5.
pub fn cluster_segments(stable: &[&Segment], merge_gap_ms: u32) -> Vec<LatencyCluster> {
    let total: usize = stable.iter().map(|s| s.len()).sum();
    if total == 0 {
        return vec![];
    }
    let mut clusters: Vec<LatencyCluster> = stable
        .iter()
        .map(|s| {
            let mut c = LatencyCluster::from_segment(s);
            c.weight = s.len() as f64 / total as f64;
            c
        })
        .collect();
    clusters = merge_until_stable(clusters, merge_gap_ms);
    clusters
}

/// One streamer, classified.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifiedStreamer {
    /// Anonymised identity.
    pub anon: AnonId,
    /// Clusters, sorted by weight (descending).
    pub clusters: Vec<LatencyCluster>,
    /// Static: one cluster holds at least `MinWeight` of the measurements.
    pub is_static: bool,
    /// High-quality: spike fraction below `MaxSpikes` (§3.3.3).
    pub high_quality: bool,
}

/// Classify a streamer from their anomaly report (§3.3.3 steps 1–2).
pub fn classify_streamer(
    anon: AnonId,
    report: &AnomalyReport,
    params: &TeroParams,
) -> ClassifiedStreamer {
    let stable: Vec<&Segment> = report
        .stable_segments()
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let clusters = cluster_segments(&stable, params.lat_gap_ms);
    let is_static = clusters
        .first()
        .is_some_and(|c| c.weight >= params.min_weight);
    let high_quality = report.spike_fraction() <= params.max_spikes && !report.all_unstable;
    ClassifiedStreamer {
        anon,
        clusters,
        is_static,
        high_quality,
    }
}

/// Merge the highest-weight clusters of the *static* streamers of one
/// `{location, game}` (§3.3.3 step 3 / Fig 2). Cluster weights become the
/// fraction of streamers inside each merged cluster.
pub fn merge_location_clusters(
    streamers: &[&ClassifiedStreamer],
    merge_gap_ms: u32,
) -> Vec<LatencyCluster> {
    let statics: Vec<&ClassifiedStreamer> = streamers
        .iter()
        .copied()
        .filter(|s| s.is_static && s.high_quality && !s.clusters.is_empty())
        .collect();
    if statics.is_empty() {
        return vec![];
    }
    let per = 1.0 / statics.len() as f64;
    let tops: Vec<LatencyCluster> = statics
        .iter()
        .map(|s| {
            let mut c = s.clusters[0].clone();
            c.weight = per;
            c
        })
        .collect();
    merge_until_stable(tops, merge_gap_ms)
}

/// An end-point change detected for a mobile streamer (§3.3.3 step 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChangeKind {
    /// Within one stream: the streamer joined a different server.
    Server,
    /// Across two streams: possibly a location change.
    PossibleLocation,
}

/// One end-point change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EndPointChange {
    /// When the later segment started.
    pub at: SimTime,
    /// Server vs possible-location change.
    pub kind: ChangeKind,
}

/// Detect end-point changes: consecutive stable segments that fall into
/// different `{location, game}` clusters. A change within one stream is a
/// *server change* (the paper assumes a streamer does not move mid-stream);
/// across streams it is a *possible location change*.
pub fn endpoint_changes(
    report: &AnomalyReport,
    location_clusters: &[LatencyCluster],
    gap: u32,
) -> Vec<EndPointChange> {
    let stable = report.stable_segments();
    let mut out = Vec::new();
    for pair in stable.windows(2) {
        let (_, a) = pair[0];
        let (_, b) = pair[1];
        let cluster_of = |seg: &Segment| {
            location_clusters
                .iter()
                .position(|c| c.contains_segment(seg, gap))
        };
        let (ca, cb) = (cluster_of(a), cluster_of(b));
        if let (Some(ca), Some(cb)) = (ca, cb) {
            if ca != cb {
                let kind = if a.stream_idx == b.stream_idx {
                    ChangeKind::Server
                } else {
                    ChangeKind::PossibleLocation
                };
                let at = b.samples.first().map(|s| s.at).unwrap_or_default();
                out.push(EndPointChange { at, kind });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::anomaly::detect_anomalies;
    use crate::analysis::segments::segment_stream;
    use tero_types::{LatencySample, SimTime};

    fn seg(values: &[u32], stream_idx: usize) -> Vec<Segment> {
        let samples: Vec<LatencySample> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                LatencySample::new(
                    SimTime::from_mins(5 * (i as u64 + 100 * stream_idx as u64)),
                    v,
                )
            })
            .collect();
        segment_stream(stream_idx, &samples, &TeroParams::default())
    }

    #[test]
    fn nearby_segments_merge() {
        let s1 = seg(&[40; 8], 0);
        let s2 = seg(&[50; 8], 0);
        let stable: Vec<&Segment> = s1.iter().chain(s2.iter()).collect();
        let clusters = cluster_segments(&stable, 15);
        assert_eq!(
            clusters.len(),
            1,
            "ranges 40..40 and 50..50 touch at gap 15"
        );
        assert!((clusters[0].weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distant_segments_stay_separate() {
        let s1 = seg(&[40; 12], 0);
        let s2 = seg(&[90; 6], 0);
        let stable: Vec<&Segment> = s1.iter().chain(s2.iter()).collect();
        let clusters = cluster_segments(&stable, 15);
        assert_eq!(clusters.len(), 2);
        // Sorted by weight: the 12-point cluster first.
        assert!((clusters[0].weight - 12.0 / 18.0).abs() < 1e-9);
        assert_eq!(clusters[0].min_ms, 40);
        assert_eq!(clusters[1].min_ms, 90);
    }

    #[test]
    fn transitive_chain_merges() {
        // 40, 52, 64: consecutive pairs within gap, ends not.
        let s1 = seg(&[40; 6], 0);
        let s2 = seg(&[52; 6], 0);
        let s3 = seg(&[64; 6], 0);
        let stable: Vec<&Segment> = s1.iter().chain(s2.iter()).chain(s3.iter()).collect();
        let clusters = cluster_segments(&stable, 15);
        assert_eq!(clusters.len(), 1, "chain merging is transitive");
        assert_eq!(clusters[0].min_ms, 40);
        assert_eq!(clusters[0].max_ms, 64);
    }

    #[test]
    fn merge_factor_changes_granularity() {
        // Fig 14: with ×0.5 gap the 40/52 pair separates.
        let s1 = seg(&[40; 6], 0);
        let s2 = seg(&[52; 6], 0);
        let stable: Vec<&Segment> = s1.iter().chain(s2.iter()).collect();
        assert_eq!(cluster_segments(&stable, 15).len(), 1);
        assert_eq!(cluster_segments(&stable, 7).len(), 2);
        assert_eq!(cluster_segments(&stable, 22).len(), 1);
    }

    #[test]
    fn static_vs_mobile_classification() {
        let params = TeroParams::default();
        // Static: 90 % of measurements in one level.
        let mut vals = vec![40u32; 27];
        vals.extend([90u32; 3].iter()); // 10 % elsewhere — but 3 points is unstable → not clustered
        let report = detect_anomalies(seg(&vals, 0), &params);
        let c = classify_streamer(AnonId(1), &report, &params);
        assert!(c.is_static);
        assert!(c.high_quality);

        // Mobile: 50/50 split between two levels (both stable).
        let mut vals = vec![40u32; 10];
        vals.extend([90u32; 10].iter());
        let report = detect_anomalies(seg(&vals, 0), &params);
        let c = classify_streamer(AnonId(2), &report, &params);
        assert!(!c.is_static);
        assert_eq!(c.clusters.len(), 2);
    }

    #[test]
    fn location_cluster_merge_weights_are_streamer_fractions() {
        let params = TeroParams::default();
        let mk = |level: u32, id: u64| {
            let report = detect_anomalies(seg(&[level; 12], 0), &params);
            classify_streamer(AnonId(id), &report, &params)
        };
        let streamers = [mk(40, 1), mk(42, 2), mk(44, 3), mk(90, 4)];
        let refs: Vec<&ClassifiedStreamer> = streamers.iter().collect();
        let clusters = merge_location_clusters(&refs, 15);
        assert_eq!(clusters.len(), 2);
        assert!((clusters[0].weight - 0.75).abs() < 1e-9);
        assert!((clusters[1].weight - 0.25).abs() < 1e-9);
    }

    #[test]
    fn mobile_only_streamers_yield_no_location_clusters() {
        let params = TeroParams::default();
        let mut vals = vec![40u32; 10];
        vals.extend([90u32; 10].iter());
        let report = detect_anomalies(seg(&vals, 0), &params);
        let c = classify_streamer(AnonId(9), &report, &params);
        let refs = [&c];
        assert!(merge_location_clusters(&refs, 15).is_empty());
    }

    #[test]
    fn endpoint_change_kinds() {
        let params = TeroParams::default();
        // Two stable levels inside ONE stream → server change.
        let mut vals = vec![40u32; 10];
        vals.extend([90u32; 10].iter());
        let report = detect_anomalies(seg(&vals, 0), &params);
        let clusters = vec![
            LatencyCluster {
                min_ms: 35,
                max_ms: 45,
                samples: vec![],
                weight: 0.5,
            },
            LatencyCluster {
                min_ms: 85,
                max_ms: 95,
                samples: vec![],
                weight: 0.5,
            },
        ];
        let changes = endpoint_changes(&report, &clusters, 5);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].kind, ChangeKind::Server);

        // Same two levels in DIFFERENT streams → possible location change.
        let mut segs = seg(&[40u32; 10], 0);
        segs.extend(seg(&[90u32; 10], 1));
        let report = detect_anomalies(segs, &params);
        let changes = endpoint_changes(&report, &clusters, 5);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].kind, ChangeKind::PossibleLocation);
    }
}
