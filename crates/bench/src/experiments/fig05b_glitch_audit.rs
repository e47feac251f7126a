//! Fig 5b / §4.2.3 — how many of image-processing's incorrect measurements
//! does data-analysis catch?
//!
//! Runs the full pipeline with FullOcr extraction on a moderate world,
//! joins every extracted measurement against ground truth, and audits the
//! anomaly detector:
//!
//! * detected: the wrong value was flagged (glitch/spike, corrected or
//!   discarded);
//! * missed: the wrong value survived into the clean series.
//!
//! Paper: anomaly detection misses ~30 % of incorrect measurements —
//! but the missed ones are close to their neighbours (within LatGap, e.g.
//! "101 misread as 107"), so they barely affect regional analysis. Also
//! audits false positives (paper: 25.87 % of non-zero glitches were real
//! values, typically location/server changes interrupted mid-stream).

use crate::{header, Args, Outcome, Text};
use serde::Serialize;
use tero_core::pipeline::{ExtractionMode, Tero};
use tero_types::AnonId;
use tero_world::{World, WorldConfig};

#[derive(Serialize, Default)]
struct Output {
    incorrect_total: usize,
    detected: usize,
    missed: usize,
    missed_within_latgap: usize,
    detected_pct: f64,
    missed_small_error_pct: f64,
    false_positive_pct: f64,
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let n = args.count("--n");
    let days = args.count("--days") as u64;
    header(
        &mut text,
        "Fig 5b: incorrect measurements detected vs missed by data-analysis",
    );

    let mut world = World::build(WorldConfig {
        seed: 55,
        n_streamers: n,
        days,
        ..WorldConfig::default()
    });
    let tero = Tero {
        mode: ExtractionMode::FullOcr,
        min_streamers: 3,
        ..Tero::default()
    };
    let report = tero.run(&mut world);

    // Join extracted samples against truth.
    let salt = tero.salt;
    let find_streamer = |anon: &AnonId| {
        world
            .streamers()
            .iter()
            .find(|s| AnonId::from_streamer(&s.id, salt) == *anon)
    };

    let mut out = Output::default();
    let mut clean_wrong = 0usize;
    let mut clean_total = 0usize;
    let mut discarded_right = 0usize;
    let mut discarded_total = 0usize;

    for ((anon, game), series) in &report.streams {
        let Some(streamer) = find_streamer(anon) else {
            continue;
        };
        let clean: std::collections::HashSet<(u64, u32)> = report
            .anomalies
            .get(&(*anon, *game))
            .map(|r| {
                r.clean_samples()
                    .iter()
                    .map(|s| (s.at.as_micros(), s.latency_ms))
                    .collect()
            })
            .unwrap_or_default();
        // Samples inside glitch-flagged segments (the paper's false-
        // positive audit is specifically about glitches, §H.3).
        let glitched: std::collections::HashSet<(u64, u32)> = report
            .anomalies
            .get(&(*anon, *game))
            .map(|r| {
                r.segments
                    .iter()
                    .zip(&r.labels)
                    .filter(|(_, l)| {
                        matches!(
                            l,
                            tero_core::analysis::anomaly::SegmentLabel::DiscardedGlitch
                                | tero_core::analysis::anomaly::SegmentLabel::CorrectedGlitch
                        )
                    })
                    .flat_map(|(seg, _)| {
                        seg.samples.iter().map(|s| (s.at.as_micros(), s.latency_ms))
                    })
                    .collect()
            })
            .unwrap_or_default();
        for s in series.iter().flat_map(|st| &st.samples) {
            let Some(truth) = world.twitch.truth_sample(streamer.id.as_str(), s.at) else {
                continue;
            };
            if truth.displayed_ms == 0 {
                continue;
            }
            let survived = clean.contains(&(s.at.as_micros(), s.latency_ms));
            let wrong = s.latency_ms != truth.displayed_ms;
            if wrong {
                out.incorrect_total += 1;
                if survived {
                    out.missed += 1;
                    let err = s.latency_ms.abs_diff(truth.displayed_ms);
                    if err <= tero.params.lat_gap_ms {
                        out.missed_within_latgap += 1;
                    }
                } else {
                    out.detected += 1;
                }
            }
            if survived {
                clean_total += 1;
                if wrong {
                    clean_wrong += 1;
                }
            }
            // A corrected-glitch sample carries the swapped-in alternative,
            // so compare against the originally extracted value's key too.
            if glitched.contains(&(s.at.as_micros(), s.latency_ms))
                || s.alternative_ms
                    .is_some_and(|alt| glitched.contains(&(s.at.as_micros(), alt)))
            {
                discarded_total += 1;
                if !wrong {
                    discarded_right += 1;
                }
            }
        }
    }

    out.detected_pct = 100.0 * out.detected as f64 / out.incorrect_total.max(1) as f64;
    out.missed_small_error_pct = 100.0 * out.missed_within_latgap as f64 / out.missed.max(1) as f64;
    out.false_positive_pct = 100.0 * discarded_right as f64 / discarded_total.max(1) as f64;

    writeln!(text);
    writeln!(
        text,
        "incorrect measurements extracted: {}",
        out.incorrect_total
    );
    writeln!(
        text,
        "  detected by data-analysis:  {} ({:.1} %)   (paper: ~74.6 % with alt-correction + discards)",
        out.detected, out.detected_pct
    );
    writeln!(
        text,
        "  missed (survived cleaning): {} ({:.1} %)   (paper: ~30 % missed)",
        out.missed,
        100.0 - out.detected_pct
    );
    writeln!(
        text,
        "  of missed, within LatGap of the truth: {:.1} %  (paper: >50 % are small errors like 101→107)",
        out.missed_small_error_pct
    );
    writeln!(
        text,
        "residual error rate in the clean series: {:.2} % ({} of {})",
        100.0 * clean_wrong as f64 / clean_total.max(1) as f64,
        clean_wrong,
        clean_total
    );
    writeln!(
        text,
        "false positives among glitch-flagged points: {:.1} %  (paper: 25.87 % of non-zero glitches)",
        out.false_positive_pct
    );

    Outcome::with_json(text, "fig05b_glitch_audit", &out)
}
