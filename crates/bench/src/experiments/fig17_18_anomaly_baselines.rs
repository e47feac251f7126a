//! Figs 17–18 (App. J) — Tero's QoE-based detector vs standard
//! unsupervised anomaly detection: Local Outlier Factor, Isolation Forest
//! and Minimum Covariance Determinant.
//!
//! Protocol: per `{streamer, game}` series (alternative values applied),
//! run each technique across its parameter sweep (LOF k ∈ {3..20}, MCD
//! contamination ∈ [0.01, 0.5], iForest IQR whisker ∈ [0.5, 2.0]); keep
//! only *significant* detections (≥ 15 ms above/below the stream mean);
//! classify them as found-by-both, anomaly-detection-only, or QoE-only.
//!
//! Paper's shape (Figs 17–18): for spikes, ~70 % of the mass is common or
//! QoE-only (the QoE detector is as good or better); the baselines flag up
//! to ~20 % extra "spikes" that are mostly server/location changes or
//! sub-LatGap wiggles; for glitches the baselines over-flag heavily.

use crate::{header, run_calibrated, Args, Outcome, Text};
use serde::Serialize;
use std::collections::HashSet;
use tero_core::analysis::anomaly::SegmentLabel;
use tero_stats::{lof::lof_outliers, IsolationForest, UnivariateMcd};
use tero_types::SimRng;
use tero_world::WorldConfig;

const SIGNIFICANT_MS: f64 = 15.0;

#[derive(Serialize, Default, Clone, Copy)]
struct Overlap {
    common: usize,
    ad_only: usize,
    qoe_only: usize,
}

impl Overlap {
    fn pcts(&self) -> (f64, f64, f64) {
        let total = (self.common + self.ad_only + self.qoe_only).max(1) as f64;
        (
            100.0 * self.common as f64 / total,
            100.0 * self.ad_only as f64 / total,
            100.0 * self.qoe_only as f64 / total,
        )
    }
}

#[derive(Serialize)]
struct Output {
    spikes: Vec<(String, f64, f64, f64)>,
    glitches: Vec<(String, f64, f64, f64)>,
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let n = args.count("--n");
    let days = args.count("--days") as u64;
    header(
        &mut text,
        "Figs 17-18: QoE-based detection vs LOF / iForest / MCD",
    );

    let report = run_calibrated(WorldConfig {
        seed: 1718,
        n_streamers: n,
        days,
        ..WorldConfig::default()
    });

    // Per-series inputs: values (with alternatives applied where the QoE
    // detector corrected), QoE spike/glitch index sets, the series mean.
    struct Series {
        values: Vec<f64>,
        qoe_spikes: HashSet<usize>,
        qoe_glitches: HashSet<usize>,
        mean: f64,
    }
    let mut inputs: Vec<Series> = Vec::new();
    for r in report.anomalies.values() {
        if r.all_unstable {
            continue;
        }
        let mut values = Vec::new();
        let mut qoe_spikes = HashSet::new();
        let mut qoe_glitches = HashSet::new();
        for (seg, label) in r.segments.iter().zip(&r.labels) {
            for s in &seg.samples {
                let idx = values.len();
                values.push(s.latency_ms as f64);
                match label {
                    SegmentLabel::Spike => {
                        qoe_spikes.insert(idx);
                    }
                    SegmentLabel::DiscardedGlitch | SegmentLabel::CorrectedGlitch => {
                        qoe_glitches.insert(idx);
                    }
                    _ => {}
                }
            }
        }
        if values.len() < 20 {
            continue;
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        inputs.push(Series {
            values,
            qoe_spikes,
            qoe_glitches,
            mean,
        });
    }
    writeln!(text, "series analysed: {}", inputs.len());

    let techniques: [&str; 3] = ["MCD", "LOF", "iForests"];
    let mut spike_rows = Vec::new();
    let mut glitch_rows = Vec::new();
    for tech in techniques {
        // Parameter sweep: aggregate the mean across settings.
        let params: Vec<f64> = match tech {
            "LOF" => vec![3.0, 5.0, 10.0, 20.0],
            "MCD" => vec![0.01, 0.05, 0.1, 0.25, 0.5],
            _ => vec![0.5, 1.0, 1.5, 2.0],
        };
        let mut spike_acc = Overlap::default();
        let mut glitch_acc = Overlap::default();
        for &p in &params {
            for series in &inputs {
                let flagged: Vec<usize> = match tech {
                    "LOF" => lof_outliers(&series.values, p as usize, 1.5),
                    "MCD" => UnivariateMcd::fit(&series.values, None)
                        .map(|m| m.outliers_by_contamination(&series.values, p))
                        .unwrap_or_default(),
                    _ => {
                        let mut rng = SimRng::new(17);
                        let forest = IsolationForest::fit(&series.values, 50, 128, &mut rng);
                        forest.outliers_by_iqr(&series.values, p)
                    }
                };
                let ad: HashSet<usize> = flagged.into_iter().collect();
                // Significance gate + spike/glitch split across the mean.
                let significant =
                    |i: usize| (series.values[i] - series.mean).abs() >= SIGNIFICANT_MS;
                let is_spike = |i: usize| series.values[i] > series.mean;
                for &i in ad.iter().filter(|&&i| significant(i)) {
                    if is_spike(i) {
                        if series.qoe_spikes.contains(&i) {
                            spike_acc.common += 1;
                        } else {
                            spike_acc.ad_only += 1;
                        }
                    } else if series.qoe_glitches.contains(&i) {
                        glitch_acc.common += 1;
                    } else {
                        glitch_acc.ad_only += 1;
                    }
                }
                for &i in series.qoe_spikes.iter().filter(|&&i| significant(i)) {
                    if !ad.contains(&i) {
                        spike_acc.qoe_only += 1;
                    }
                }
                for &i in series.qoe_glitches.iter().filter(|&&i| significant(i)) {
                    if !ad.contains(&i) {
                        glitch_acc.qoe_only += 1;
                    }
                }
            }
        }
        let (c, a, q) = spike_acc.pcts();
        spike_rows.push((tech.to_string(), c, a, q));
        let (c, a, q) = glitch_acc.pcts();
        glitch_rows.push((tech.to_string(), c, a, q));
    }

    writeln!(text);
    writeln!(text, "Fig 18 — significant spikes:");
    writeln!(
        text,
        "{:>10} {:>10} {:>18} {:>14}",
        "", "common %", "anomaly-det only %", "QoE only %"
    );
    for (t, c, a, q) in &spike_rows {
        writeln!(text, "{t:>10} {c:>9.1}% {a:>17.1}% {q:>13.1}%");
    }
    writeln!(text);
    writeln!(text, "Fig 17 — significant glitches:");
    for (t, c, a, q) in &glitch_rows {
        writeln!(text, "{t:>10} {c:>9.1}% {a:>17.1}% {q:>13.1}%");
    }
    writeln!(text);
    writeln!(
        text,
        "(paper: ~70 % of spike mass is common/QoE-only; the baselines also"
    );
    writeln!(
        text,
        " flag server/location changes and sub-LatGap wiggles that the QoE"
    );
    writeln!(
        text,
        " detector rightly ignores — they have no concept of significance or"
    );
    writeln!(text, " of explainable changes)");

    Outcome::with_json(
        text,
        "fig17_18_anomaly_baselines",
        &Output {
            spikes: spike_rows,
            glitches: glitch_rows,
        },
    )
}
