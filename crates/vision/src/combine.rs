//! Cleanup and 2-of-3 voting across the OCR engines (§3.2, App. E steps 3–4).
//!
//! Per engine, *cleanup* filters the raw character stream down to the
//! latency number, using the game-UI heuristics the paper describes: digits
//! immediately followed by "ms", or preceded by "ping", are preferred over
//! any other digit run. The per-engine values are then voted: at least two
//! engines must agree (on a non-zero value of at most 3 digits); when
//! exactly two agree, the third's output is kept as the *alternative* that
//! data-analysis may later swap in. If no two engines agree, the thumbnail
//! is *reprocessed* — OCR runs again without the pre-processing — and, if
//! still ambiguous, discarded.

use crate::image::Image;
use crate::ocr::{OcrChar, OcrEngine, OcrEngineKind};
use crate::preprocess::{PreprocessConfig, Scratch};
use serde::{Deserialize, Serialize};

/// Final outcome of the image-processing module for one thumbnail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CombineOutcome {
    /// A latency measurement was extracted.
    Extracted {
        /// Value agreed by at least two engines.
        primary: u32,
        /// Dissenting third engine's value, if exactly two agreed.
        alternative: Option<u32>,
    },
    /// No measurement could be extracted (ambiguous after reprocessing, or
    /// nothing legible at all).
    NoMeasurement,
}

/// Cleanup: extract the latency value from one engine's character stream.
///
/// Heuristics (§3.2 step 3): a digit run immediately followed by `m` (the
/// start of "ms") wins; otherwise a digit run immediately preceded by the
/// letters of "ping" wins; otherwise the longest digit run. The value must
/// be non-zero and at most 3 digits (App. E step 3: zero is a lobby
/// placeholder).
pub fn cleanup(chars: &[OcrChar]) -> Option<u32> {
    let s: Vec<char> = chars.iter().map(|c| c.ch).collect();
    // Collect digit runs as (start, end) half-open.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start: Option<usize> = None;
    for i in 0..=s.len() {
        let is_digit = i < s.len() && s[i].is_ascii_digit();
        match (start, is_digit) {
            (None, true) => start = Some(i),
            (Some(st), false) => {
                runs.push((st, i));
                start = None;
            }
            _ => {}
        }
    }
    if runs.is_empty() {
        return None;
    }

    let followed_by_ms = |&(_, end): &(usize, usize)| end < s.len() && s[end] == 'm';
    let preceded_by_ping = |&(st, _): &(usize, usize)| {
        st >= 1 && (s[st - 1] == 'g' || s[st - 1] == 'n') // "ping" / "pin"
    };

    let chosen = runs
        .iter()
        .find(|r| followed_by_ms(r))
        .or_else(|| runs.iter().find(|r| preceded_by_ping(r)))
        .or_else(|| runs.iter().max_by_key(|&&(st, end)| end - st))?;

    let (st, end) = *chosen;
    let len = end - st;
    if len == 0 || len > 3 {
        return None;
    }
    let text: String = s[st..end].iter().collect();
    let value: u32 = text.parse().ok()?;
    if value == 0 {
        return None;
    }
    Some(value)
}

/// Vote across the three per-engine values.
///
/// Returns `Some((primary, alternative))` when at least two engines agree;
/// the alternative is the third engine's differing value, if any.
pub fn vote(values: [Option<u32>; 3]) -> Option<(u32, Option<u32>)> {
    for i in 0..3 {
        for j in (i + 1)..3 {
            if let (Some(a), Some(b)) = (values[i], values[j]) {
                if a == b {
                    let k = 3 - i - j; // the remaining index
                    let alt = values[k].filter(|&v| v != a);
                    return Some((a, alt));
                }
            }
        }
    }
    None
}

/// Engine names in the order [`OcrCombiner`] runs them — stable labels for
/// per-engine observability (`ocr.<engine>.*` metric names).
pub const ENGINE_NAMES: [&str; 3] = ["tesseract", "easyocr", "paddleocr"];

/// Per-engine detail of one extraction, exposed for observability: what
/// each engine produced on the *deciding* pass, and whether the thumbnail
/// had to be reprocessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractDetail {
    /// Cleaned value per engine (in [`ENGINE_NAMES`] order) from the pass
    /// that decided the outcome — the second pass when reprocessing ran.
    pub engine_values: [Option<u32>; 3],
    /// Whether the second (no-pre-processing) pass ran.
    pub reprocessed: bool,
}

/// The full image-processing front-end: three engines plus the two-pass
/// (preprocess, reprocess) protocol.
#[derive(Debug, Clone)]
pub struct OcrCombiner {
    engines: [OcrEngine; 3],
    /// First-pass pipeline (App. E step 1–2).
    pub preprocess_cfg: PreprocessConfig,
    /// Reprocessing pipeline: "repeats the OCR and cleanup steps but
    /// without the pre-processing" — no blur, no morphology.
    pub reprocess_cfg: PreprocessConfig,
}

impl Default for OcrCombiner {
    fn default() -> Self {
        OcrCombiner {
            engines: [
                OcrEngine::new(OcrEngineKind::TesseractLike),
                OcrEngine::new(OcrEngineKind::EasyOcrLike),
                OcrEngine::new(OcrEngineKind::PaddleOcrLike),
            ],
            preprocess_cfg: PreprocessConfig::default(),
            reprocess_cfg: PreprocessConfig {
                upscale: 3,
                blur_radius: 0,
                morph_iterations: 0,
                despeckle: false,
            },
        }
    }
}

impl OcrCombiner {
    /// A combiner with default engine set and pipelines.
    pub fn new() -> Self {
        OcrCombiner::default()
    }

    /// Run one pass: the shared upscale stage, then per-engine smoothing,
    /// binarization, recognition and cleanup (each engine runs its own
    /// preprocessing policy — the source of their complementary errors).
    fn pass(
        &self,
        crop: &Image,
        cfg: &PreprocessConfig,
        scratch: &mut Scratch,
    ) -> [Option<u32>; 3] {
        let upscaled = crop.upscale(cfg.upscale.max(1));
        let mut raw_otsu = None;
        let mut out = [None; 3];
        for (slot, engine) in out.iter_mut().zip(&self.engines) {
            *slot = cleanup(&engine.read_gray(&upscaled, cfg, scratch, &mut raw_otsu));
        }
        out
    }

    /// Extract a latency measurement from a cropped region of interest.
    pub fn extract(&self, crop: &Image) -> CombineOutcome {
        self.extract_with_detail(crop).0
    }

    /// [`OcrCombiner::extract`] plus the per-engine [`ExtractDetail`] that
    /// observability consumers (the image-processing module's per-engine
    /// counters) record.
    pub fn extract_with_detail(&self, crop: &Image) -> (CombineOutcome, ExtractDetail) {
        let mut scratch = Scratch::default();
        let first = self.pass(crop, &self.preprocess_cfg, &mut scratch);
        if let Some((primary, alternative)) = vote(first) {
            return (
                CombineOutcome::Extracted {
                    primary,
                    alternative,
                },
                ExtractDetail {
                    engine_values: first,
                    reprocessed: false,
                },
            );
        }
        // Reprocess without pre-processing (App. E step 4).
        let second = self.pass(crop, &self.reprocess_cfg, &mut scratch);
        let detail = ExtractDetail {
            engine_values: second,
            reprocessed: true,
        };
        let outcome = match vote(second) {
            Some((primary, alternative)) => CombineOutcome::Extracted {
                primary,
                alternative,
            },
            None => CombineOutcome::NoMeasurement,
        };
        (outcome, detail)
    }

    /// Extract from a full thumbnail given the game-UI region of interest
    /// `(x, y, w, h)` (§3.2 step 1).
    pub fn extract_from_thumbnail(
        &self,
        thumbnail: &Image,
        roi: (usize, usize, usize, usize),
    ) -> CombineOutcome {
        self.extract_from_thumbnail_with_detail(thumbnail, roi).0
    }

    /// [`OcrCombiner::extract_from_thumbnail`] with per-engine detail.
    pub fn extract_from_thumbnail_with_detail(
        &self,
        thumbnail: &Image,
        roi: (usize, usize, usize, usize),
    ) -> (CombineOutcome, ExtractDetail) {
        let crop = thumbnail.crop(roi.0, roi.1, roi.2, roi.3);
        self.extract_with_detail(&crop)
    }

    /// Per-engine extraction (no voting) — used by the Table 4 evaluation
    /// of individual engines.
    pub fn extract_single(&self, crop: &Image, kind: OcrEngineKind) -> Option<u32> {
        let upscaled = crop.upscale(self.preprocess_cfg.upscale.max(1));
        let engine = self
            .engines
            .iter()
            .find(|e| e.kind() == kind)
            .expect("engine kind present");
        cleanup(&engine.recognize_gray(&upscaled, &self.preprocess_cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::HudScene;
    use tero_types::SimRng;

    fn chars(s: &str) -> Vec<OcrChar> {
        s.chars().map(|ch| OcrChar { ch, distance: 0.0 }).collect()
    }

    #[test]
    fn cleanup_prefers_ms_suffix() {
        assert_eq!(cleanup(&chars("45ms")), Some(45));
        // A clock-like second run: the run before 'm' wins.
        assert_eq!(cleanup(&chars("12:45ms")), Some(45));
        assert_eq!(cleanup(&chars("ping62")), Some(62));
        assert_eq!(cleanup(&chars("187")), Some(187));
    }

    #[test]
    fn cleanup_rejections() {
        assert_eq!(cleanup(&chars("")), None);
        assert_eq!(cleanup(&chars("ms")), None);
        assert_eq!(cleanup(&chars("0ms")), None, "zero is a placeholder");
        assert_eq!(cleanup(&chars("1234ms")), None, "too many digits");
    }

    #[test]
    fn cleanup_longest_run_fallback() {
        // No decoration: longest digit run wins.
        assert_eq!(cleanup(&chars("1 234")), Some(234));
        // Clock without decoration: one of the equal-length runs survives —
        // a plausible-but-wrong value, the paper's Fig 6d failure mode.
        let v = cleanup(&chars("12:45"));
        assert!(v == Some(12) || v == Some(45), "got {v:?}");
    }

    #[test]
    fn vote_agreement_patterns() {
        assert_eq!(vote([Some(45), Some(45), Some(45)]), Some((45, None)));
        assert_eq!(vote([Some(45), Some(45), Some(5)]), Some((45, Some(5))));
        assert_eq!(vote([Some(5), Some(45), Some(45)]), Some((45, Some(5))));
        assert_eq!(vote([Some(45), Some(5), Some(45)]), Some((45, Some(5))));
        assert_eq!(vote([Some(45), Some(45), None]), Some((45, None)));
        assert_eq!(vote([Some(1), Some(2), Some(3)]), None);
        assert_eq!(vote([Some(1), None, None]), None);
        assert_eq!(vote([None, None, None]), None);
    }

    #[test]
    fn detail_reflects_the_deciding_pass() {
        let combiner = OcrCombiner::new();
        let mut rng = SimRng::new(42);
        let scene = HudScene::typical(87);
        let thumb = scene.render(&mut rng);
        let (outcome, detail) = combiner.extract_from_thumbnail_with_detail(&thumb, scene.roi());
        match outcome {
            CombineOutcome::Extracted { primary, .. } => {
                let agree = detail
                    .engine_values
                    .iter()
                    .filter(|v| **v == Some(primary))
                    .count();
                assert!(agree >= 2, "primary needs ≥ 2 engines: {detail:?}");
            }
            CombineOutcome::NoMeasurement => {
                assert!(detail.reprocessed, "a miss means both passes ran");
            }
        }
    }

    #[test]
    fn end_to_end_typical_scene() {
        let combiner = OcrCombiner::new();
        let mut rng = SimRng::new(42);
        let scene = HudScene::typical(87);
        let thumb = scene.render(&mut rng);
        match combiner.extract_from_thumbnail(&thumb, scene.roi()) {
            CombineOutcome::Extracted { primary, .. } => assert_eq!(primary, 87),
            other => panic!("expected extraction, got {other:?}"),
        }
    }

    #[test]
    fn end_to_end_light_font_misses() {
        let combiner = OcrCombiner::new();
        let mut misses = 0;
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let scene = HudScene::light_font(64);
            let thumb = scene.render(&mut rng);
            if combiner.extract_from_thumbnail(&thumb, scene.roi()) == CombineOutcome::NoMeasurement
            {
                misses += 1;
            }
        }
        assert!(
            misses >= 15,
            "light font should mostly be missed: {misses}/20"
        );
    }

    #[test]
    fn end_to_end_occlusion_drops_digits() {
        let combiner = OcrCombiner::new();
        let mut drops = 0;
        let mut trials = 0;
        for seed in 0..30 {
            let mut rng = SimRng::new(1000 + seed);
            let scene = HudScene::partially_hidden(145, 0.35);
            let thumb = scene.render(&mut rng);
            if let CombineOutcome::Extracted { primary, .. } =
                combiner.extract_from_thumbnail(&thumb, scene.roi())
            {
                trials += 1;
                if primary < 145 && 145 % 10u32.pow(primary.to_string().len() as u32) == primary {
                    drops += 1;
                }
            }
        }
        assert!(
            drops > 0,
            "occlusion produced no digit drops ({trials} extractions)"
        );
    }

    #[test]
    fn clock_overlay_yields_plausible_but_wrong_value() {
        // The paper's trickiest error: a clock "19:42" where latency goes.
        let combiner = OcrCombiner::new();
        let mut wrong = 0;
        for seed in 0..20 {
            let mut rng = SimRng::new(7_000 + seed);
            let scene = HudScene::clock_overlay(50, 19, 42);
            let thumb = scene.render(&mut rng);
            if let CombineOutcome::Extracted { primary, .. } =
                combiner.extract_from_thumbnail(&thumb, scene.roi())
            {
                if primary != 50 {
                    wrong += 1;
                }
            }
        }
        assert!(wrong > 0, "clock overlay never produced a wrong value");
    }
}
