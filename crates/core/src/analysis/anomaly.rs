//! Glitch and spike detection (§3.3.2, Fig 1).
//!
//! Tero stitches together all same-QoE segments of one `{streamer, game}`
//! and looks for unstable segments that sit significantly below (glitches —
//! typically OCR digit drops) or above (spikes — typically real congestion)
//! their stable neighbours. Detected segments are *corrected* with the OCR
//! alternative values where possible, and discarded otherwise. The final
//! cleanup keeps unflagged unstable segments that are within `LatGap` of a
//! stable neighbour (a stable run interrupted by a spike) and discards the
//! rest (likely glitch residue).

use crate::analysis::segments::Segment;
use serde::{Deserialize, Serialize};
use tero_types::{LatencySample, TeroParams};

/// The label the anomaly detector assigns to each segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentLabel {
    /// Stable segment (≥ StableLen points).
    Stable,
    /// Unstable, unflagged, and within LatGap of a stable neighbour —
    /// kept (Fig 1d's green square).
    Kept,
    /// Flagged as a glitch and successfully corrected via alternatives.
    CorrectedGlitch,
    /// Flagged as a spike and successfully corrected via alternatives
    /// (the spike was an OCR error after all).
    CorrectedSpike,
    /// Flagged as a spike and not correctable — a genuine latency increase;
    /// excluded from distributions but counted as a spike.
    Spike,
    /// Flagged as a glitch and not correctable — discarded.
    DiscardedGlitch,
    /// Unflagged unstable segment too far from its neighbours — discarded
    /// (Fig 1d's red cross).
    Discarded,
}

/// One detected spike (after merging consecutive spike segments).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpikeEvent {
    /// Indices of the merged spike segments.
    pub segment_idxs: Vec<usize>,
    /// Latency increase over the neighbouring stable level, ms.
    pub magnitude_ms: f64,
    /// First sample time of the spike.
    pub start: tero_types::SimTime,
    /// Last sample time of the spike.
    pub end: tero_types::SimTime,
    /// Number of samples inside the spike.
    pub samples: usize,
}

/// The anomaly detector's output for one `{streamer, game}` series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnomalyReport {
    /// The segments (corrected in place where correction succeeded).
    pub segments: Vec<Segment>,
    /// A label per segment.
    pub labels: Vec<SegmentLabel>,
    /// Merged spike events (§3.3.2's final spikes).
    pub spikes: Vec<SpikeEvent>,
    /// Whether the streamer had no stable segment at all — in which case
    /// all their data is discarded (§3.3.1).
    pub all_unstable: bool,
}

impl AnomalyReport {
    /// Samples that survive cleaning: stable, kept and corrected segments.
    pub fn clean_samples(&self) -> Vec<LatencySample> {
        self.segments
            .iter()
            .zip(&self.labels)
            .filter(|(_, l)| {
                matches!(
                    l,
                    SegmentLabel::Stable
                        | SegmentLabel::Kept
                        | SegmentLabel::CorrectedGlitch
                        | SegmentLabel::CorrectedSpike
                )
            })
            .flat_map(|(s, _)| s.samples.iter().copied())
            .collect()
    }

    /// The number of samples [`AnomalyReport::clean_samples`] would return,
    /// without materialising them (the pipeline counts survivors per
    /// series; allocating a fresh sample vector per report just to `len()`
    /// it dominated the analysis stage's allocations).
    pub(crate) fn clean_count(&self) -> usize {
        self.segments
            .iter()
            .zip(&self.labels)
            .filter(|(_, l)| {
                matches!(
                    l,
                    SegmentLabel::Stable
                        | SegmentLabel::Kept
                        | SegmentLabel::CorrectedGlitch
                        | SegmentLabel::CorrectedSpike
                )
            })
            .map(|(s, _)| s.samples.len())
            .sum()
    }

    /// Total samples in the input series.
    pub fn total_samples(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Number of samples inside (uncorrected) spikes.
    pub fn spike_samples(&self) -> usize {
        self.spikes.iter().map(|s| s.samples).sum()
    }

    /// The proportion of spike points (the `MaxSpikes` quantity, §3.3.3).
    pub fn spike_fraction(&self) -> f64 {
        let total = self.total_samples();
        if total == 0 {
            return 0.0;
        }
        self.spike_samples() as f64 / total as f64
    }

    /// Stable segments with their indices (the clustering input).
    pub(crate) fn stable_segments(&self) -> Vec<(usize, &Segment)> {
        self.segments
            .iter()
            .enumerate()
            .zip(&self.labels)
            .filter(|(_, l)| **l == SegmentLabel::Stable)
            .map(|((i, s), _)| (i, s))
            .collect()
    }
}

/// Find the closest segment to the left of `i` whose label satisfies
/// `pred`.
fn closest_left<F: Fn(SegmentLabel) -> bool>(
    labels: &[SegmentLabel],
    i: usize,
    pred: F,
) -> Option<usize> {
    (0..i).rev().find(|&j| pred(labels[j]))
}

/// Find the closest segment to the right of `i` whose label satisfies
/// `pred`.
fn closest_right<F: Fn(SegmentLabel) -> bool>(
    labels: &[SegmentLabel],
    i: usize,
    pred: F,
) -> Option<usize> {
    (i + 1..labels.len()).find(|&j| pred(labels[j]))
}

/// Run glitch/spike detection on the stitched segments of one
/// `{streamer, game}` series.
pub fn detect_anomalies(mut segments: Vec<Segment>, params: &TeroParams) -> AnomalyReport {
    let gap = params.lat_gap_ms;
    let n = segments.len();
    let mut labels: Vec<SegmentLabel> = segments
        .iter()
        .map(|s| {
            if s.stable {
                SegmentLabel::Stable
            } else {
                SegmentLabel::Kept // provisional; refined below
            }
        })
        .collect();

    // §3.3.1: a streamer with only unstable segments is dropped wholesale.
    if !labels.contains(&SegmentLabel::Stable) {
        let labels = vec![SegmentLabel::Discarded; n];
        return AnomalyReport {
            segments,
            labels,
            spikes: Vec::new(),
            all_unstable: true,
        };
    }

    let is_stable = |l: SegmentLabel| l == SegmentLabel::Stable;

    // Glitch detection (Fig 1a): unstable S whose *maximum* is lower by at
    // least LatGap than the *minimum* of the closest stable segment on
    // each side.
    let mut glitch = vec![false; n];
    for i in 0..n {
        if labels[i] == SegmentLabel::Stable {
            continue;
        }
        let (Some(l), Some(r)) = (
            closest_left(&labels, i, is_stable),
            closest_right(&labels, i, is_stable),
        ) else {
            continue;
        };
        let bound = segments[l].min_ms().min(segments[r].min_ms());
        if segments[i].max_ms().saturating_add(gap) <= bound {
            glitch[i] = true;
        }
    }

    // Iterative spike detection (Fig 1b): first pass needs both stable
    // neighbours below; later passes accept one stable neighbour plus one
    // already-flagged spike.
    let mut spike = vec![false; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if labels[i] == SegmentLabel::Stable || glitch[i] || spike[i] {
                continue;
            }
            let min = segments[i].min_ms();
            let above = |j: usize| min >= segments[j].max_ms().saturating_add(gap);
            // Closest relevant neighbour on each side: stable or spike.
            let relevant = |l: SegmentLabel| l == SegmentLabel::Stable;
            let left_stable = closest_left(&labels, i, relevant);
            let right_stable = closest_right(&labels, i, relevant);
            let left_spike = (0..i).rev().find(|&j| spike[j]);
            let right_spike = (i + 1..n).find(|&j| spike[j]);
            // Nearest of (stable, spike) on each side decides the side's
            // character.
            let left_kind = match (left_stable, left_spike) {
                (Some(s), Some(p)) => Some((s.max(p), p > s)),
                (Some(s), None) => Some((s, false)),
                (None, Some(p)) => Some((p, true)),
                (None, None) => None,
            };
            let right_kind = match (right_stable, right_spike) {
                (Some(s), Some(p)) => Some((s.min(p), p < s)),
                (Some(s), None) => Some((s, false)),
                (None, Some(p)) => Some((p, true)),
                (None, None) => None,
            };
            let flagged = match (left_kind, right_kind) {
                (Some((l, l_is_spike)), Some((r, r_is_spike))) => {
                    match (l_is_spike, r_is_spike) {
                        (false, false) => above(l) && above(r),
                        (true, false) => above(r),
                        (false, true) => above(l),
                        (true, true) => true, // sandwiched between spikes
                    }
                }
                _ => false,
            };
            if flagged {
                spike[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Correction via OCR alternatives (§3.3.2 last paragraphs): replace
    // each flagged segment's samples with their alternatives; the segment
    // is kept iff every corrected value lands within LatGap of the closest
    // stable neighbour on either side.
    for i in 0..n {
        if !glitch[i] && !spike[i] {
            continue;
        }
        let corrected: Option<Vec<LatencySample>> =
            segments[i].samples.iter().map(|s| s.corrected()).collect();
        let fits = |cand: &[LatencySample]| {
            let sides = [
                closest_left(&labels, i, is_stable),
                closest_right(&labels, i, is_stable),
            ];
            sides.iter().flatten().any(|&j| {
                let lo = segments[j].min_ms().saturating_sub(gap);
                let hi = segments[j].max_ms().saturating_add(gap);
                cand.iter()
                    .all(|s| s.latency_ms >= lo && s.latency_ms <= hi)
            })
        };
        match corrected {
            Some(cand) if fits(&cand) => {
                segments[i].samples = cand;
                labels[i] = if glitch[i] {
                    SegmentLabel::CorrectedGlitch
                } else {
                    SegmentLabel::CorrectedSpike
                };
                glitch[i] = false;
                spike[i] = false;
            }
            _ => {
                labels[i] = if glitch[i] {
                    SegmentLabel::DiscardedGlitch
                } else {
                    SegmentLabel::Spike
                };
            }
        }
    }

    // Cleanup (Fig 1d): unflagged unstable segments stay only when within
    // LatGap of the closest stable segment on either side.
    for i in 0..n {
        if labels[i] != SegmentLabel::Kept {
            continue;
        }
        let near = [
            closest_left(&labels, i, is_stable),
            closest_right(&labels, i, is_stable),
        ]
        .iter()
        .flatten()
        .any(|&j| {
            let seg = &segments[i];
            let other = &segments[j];
            seg.within_gap_of(other, gap)
        });
        if !near {
            labels[i] = SegmentLabel::Discarded;
        }
    }

    // Merge consecutive spikes (Fig 1c) into spike events.
    let mut spikes = Vec::new();
    let mut i = 0;
    while i < n {
        if labels[i] != SegmentLabel::Spike {
            i += 1;
            continue;
        }
        let mut group = vec![i];
        let mut j = i + 1;
        while j < n && labels[j] == SegmentLabel::Spike {
            group.push(j);
            j += 1;
        }
        // Magnitude: mean of the spike minus mean of the closest stable
        // neighbour.
        let spike_mean = group
            .iter()
            .flat_map(|&k| segments[k].samples.iter())
            .map(|s| s.latency_ms as f64)
            .sum::<f64>()
            / group
                .iter()
                .map(|&k| segments[k].len())
                .sum::<usize>()
                .max(1) as f64;
        let reference = closest_left(&labels, group[0], is_stable)
            .or_else(|| closest_right(&labels, *group.last().unwrap(), is_stable));
        let ref_mean = reference
            .map(|j| {
                segments[j]
                    .samples
                    .iter()
                    .map(|s| s.latency_ms as f64)
                    .sum::<f64>()
                    / segments[j].len().max(1) as f64
            })
            .unwrap_or(spike_mean);
        let start = segments[group[0]]
            .samples
            .first()
            .map(|s| s.at)
            .unwrap_or_default();
        let end = segments[*group.last().unwrap()]
            .samples
            .last()
            .map(|s| s.at)
            .unwrap_or_default();
        let count = group.iter().map(|&k| segments[k].len()).sum();
        spikes.push(SpikeEvent {
            segment_idxs: group,
            magnitude_ms: (spike_mean - ref_mean).max(0.0),
            start,
            end,
            samples: count,
        });
        i = j;
    }

    AnomalyReport {
        segments,
        labels,
        spikes,
        all_unstable: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::segments::segment_stream;
    use tero_types::{SimTime, TeroParams};

    fn series(values: &[(u32, Option<u32>)]) -> Vec<Segment> {
        let samples: Vec<LatencySample> = values
            .iter()
            .enumerate()
            .map(|(i, &(v, alt))| match alt {
                Some(a) => LatencySample::with_alternative(SimTime::from_mins(5 * i as u64), v, a),
                None => LatencySample::new(SimTime::from_mins(5 * i as u64), v),
            })
            .collect();
        segment_stream(0, &samples, &TeroParams::default())
    }

    fn plain(values: &[u32]) -> Vec<Segment> {
        series(&values.iter().map(|&v| (v, None)).collect::<Vec<_>>())
    }

    #[test]
    fn flat_series_all_stable() {
        let report = detect_anomalies(plain(&[40; 12]), &TeroParams::default());
        assert!(!report.all_unstable);
        assert!(report.labels.iter().all(|&l| l == SegmentLabel::Stable));
        assert_eq!(report.clean_samples().len(), 12);
        assert!(report.spikes.is_empty());
    }

    #[test]
    fn glitch_detected_and_corrected() {
        // 45ms throughout; one sample misread as 5 (digit drop) with the
        // correct alternative kept by the OCR voter.
        let mut vals: Vec<(u32, Option<u32>)> = vec![(45, None); 6];
        vals.push((5, Some(45)));
        vals.extend(std::iter::repeat_n((45, None), 6));
        let report = detect_anomalies(series(&vals), &TeroParams::default());
        assert_eq!(report.labels[1], SegmentLabel::CorrectedGlitch);
        assert_eq!(report.clean_samples().len(), 13, "corrected value kept");
        assert!(report
            .clean_samples()
            .iter()
            .all(|s| (40..=50).contains(&s.latency_ms)));
    }

    #[test]
    fn glitch_without_alternative_is_discarded() {
        let mut vals: Vec<(u32, Option<u32>)> = vec![(45, None); 6];
        vals.push((5, None));
        vals.extend(std::iter::repeat_n((45, None), 6));
        let report = detect_anomalies(series(&vals), &TeroParams::default());
        assert_eq!(report.labels[1], SegmentLabel::DiscardedGlitch);
        assert_eq!(report.clean_samples().len(), 12);
    }

    #[test]
    fn genuine_spike_detected() {
        // Stable 40s, a 3-point excursion to 90, back to stable 40s.
        let mut vals = vec![40u32; 7];
        vals.extend([90, 92, 91]);
        vals.extend([40u32; 7].iter());
        let report = detect_anomalies(plain(&vals), &TeroParams::default());
        assert_eq!(report.spikes.len(), 1);
        let spike = &report.spikes[0];
        assert_eq!(spike.samples, 3);
        assert!(
            (spike.magnitude_ms - 51.0).abs() < 2.0,
            "{}",
            spike.magnitude_ms
        );
        // Spike samples are excluded from the clean series.
        assert_eq!(report.clean_samples().len(), 14);
    }

    #[test]
    fn staircase_spike_second_iteration() {
        // Fig 1b: a spike that rises in two unstable steps; the second step
        // is flagged in iteration 1, the first only because its right
        // neighbour is already a spike.
        let mut vals = vec![40u32; 7];
        vals.extend([60, 61]); // step 1: above left stable only
        vals.extend([95, 96, 94]); // step 2: above both stable sides
        vals.extend([40u32; 7].iter());
        let report = detect_anomalies(plain(&vals), &TeroParams::default());
        // Both unstable steps end up in spike events.
        let spike_samples: usize = report.spikes.iter().map(|s| s.samples).sum();
        assert_eq!(spike_samples, 5, "labels: {:?}", report.labels);
        // Consecutive spikes merged into one event.
        assert_eq!(report.spikes.len(), 1);
    }

    #[test]
    fn interrupted_stable_segment_is_kept() {
        // Fig 1d's green square: stable 40s, spike, then a *short* 40s tail
        // (unstable because short) — the tail must be kept, not discarded.
        let mut vals = vec![40u32; 7];
        vals.extend([95, 96, 97]);
        vals.extend([41u32, 40, 42]); // 3 points: unstable but near stable
        let report = detect_anomalies(plain(&vals), &TeroParams::default());
        let last = report.labels.len() - 1;
        assert_eq!(report.labels[last], SegmentLabel::Kept);
        assert_eq!(report.clean_samples().len(), 10);
    }

    #[test]
    fn faraway_unstable_residue_is_discarded() {
        // Fig 1d's red cross: an unstable segment at a level that is
        // neither below both stable neighbours (glitch) nor above both
        // (spike), and too far from either to be kept.
        let mut vals = vec![40u32; 7];
        vals.extend([65u32, 66]);
        vals.extend([90u32; 7].iter());
        let report = detect_anomalies(plain(&vals), &TeroParams::default());
        assert_eq!(
            report.labels[1],
            SegmentLabel::Discarded,
            "{:?}",
            report.labels
        );
    }

    #[test]
    fn low_segment_between_stables_is_a_glitch() {
        // Below both stable neighbours by ≥ LatGap on each side.
        let mut vals = vec![60u32; 7];
        vals.extend([20u32, 21]);
        vals.extend([90u32; 7].iter());
        let report = detect_anomalies(plain(&vals), &TeroParams::default());
        assert_eq!(
            report.labels[1],
            SegmentLabel::DiscardedGlitch,
            "{:?}",
            report.labels
        );
    }

    #[test]
    fn all_unstable_streamer_dropped() {
        // Wildly oscillating: no segment reaches 6 points.
        let vals: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 40 } else { 90 }).collect();
        let report = detect_anomalies(plain(&vals), &TeroParams::default());
        assert!(report.all_unstable);
        assert!(report.clean_samples().is_empty());
    }

    #[test]
    fn spike_fraction_accounting() {
        let mut vals = vec![40u32; 12];
        vals.extend([95, 96, 94, 95].iter()); // 4-point spike
        vals.extend([40u32; 12].iter());
        let report = detect_anomalies(plain(&vals), &TeroParams::default());
        assert_eq!(report.total_samples(), 28);
        assert_eq!(report.spike_samples(), 4);
        assert!((report.spike_fraction() - 4.0 / 28.0).abs() < 1e-9);
    }

    #[test]
    fn spike_correctable_by_alternative_is_fixed() {
        // "15ms misread as 75ms": alternative holds the true value.
        let mut vals: Vec<(u32, Option<u32>)> = vec![(15, None); 7];
        vals.push((75, Some(15)));
        vals.extend(std::iter::repeat_n((15, None), 7));
        let report = detect_anomalies(series(&vals), &TeroParams::default());
        assert_eq!(report.labels[1], SegmentLabel::CorrectedSpike);
        assert!(report.spikes.is_empty(), "corrected spikes are not spikes");
        assert_eq!(report.clean_samples().len(), 15);
    }
}
