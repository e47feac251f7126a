//! Differential tests: every rewritten kernel against its naive
//! predecessor in [`crate::reference`], bit for bit, plus the golden
//! end-to-end pin of the whole combiner. (The guard-banded kernels' own
//! edge cases — the exact path forced, the guard band hit — sit beside
//! them: the grain in [`crate::scene`], the blur in
//! [`crate::preprocess`].)
//!
//! Image sizes mix the word-boundary cases of the packed representation
//! (63 / 64 / 65 / 129 columns, the 210-column production stage), the
//! degenerate ones (0×0, 1×1, 2×N, under four rows) and random sizes; the
//! contents mix random gray, all-ink, no-ink, single-pixel, random binary
//! and rendered text. Every assertion names width, height and seed.

use crate::combine::{CombineOutcome, OcrCombiner};
use crate::font::{rasterize, TEMPLATE_CHARS};
use crate::image::Image;
use crate::ocr::{self, OcrEngine, OcrEngineKind};
use crate::preprocess::{self, PreprocessConfig};
use crate::reference;
use crate::scene::{Decoration, HudScene, ScenarioKind};
use proptest::prelude::*;
use tero_types::SimRng;

const WIDTHS: [usize; 14] = [0, 1, 2, 3, 5, 31, 63, 64, 65, 127, 128, 129, 191, 210];
const HEIGHTS: [usize; 10] = [0, 1, 2, 3, 4, 5, 7, 14, 26, 40];

/// Half the cases take their size from the tables above, half at random.
fn dims(pick: (usize, usize), random: (usize, usize), seed: u64) -> (usize, usize) {
    if seed & 1 == 0 {
        pick
    } else {
        random
    }
}

/// A deterministic test image: the content family follows the seed.
fn image(w: usize, h: usize, seed: u64) -> Image {
    let mut rng = SimRng::new(seed);
    let mut img = Image::filled(w, h, 255);
    match (seed >> 1) % 6 {
        0 => img
            .pixels
            .iter_mut()
            .for_each(|p| *p = rng.range_u64(0, 256) as u8),
        1 => img.pixels.fill(0),
        2 => {}
        3 => {
            if !img.pixels.is_empty() {
                let i = rng.range_usize(0, img.pixels.len());
                img.pixels[i] = 0;
            }
        }
        4 => {
            let density = rng.f64();
            for p in img.pixels.iter_mut() {
                *p = if rng.chance(density) { 0 } else { 255 };
            }
        }
        _ => {
            // Text on a panel, with specks: the shapes segmentation and
            // matching actually meet.
            let len = rng.range_usize(1, 6);
            let text: String = (0..len)
                .map(|_| TEMPLATE_CHARS[rng.range_usize(0, TEMPLATE_CHARS.len())])
                .collect();
            let scale = rng.range_usize(1, 7);
            img.pixels.fill(230);
            let (x, y) = (rng.range_usize(0, 8), rng.range_usize(0, 6));
            img.blit(&rasterize(&text, scale, 20, 230), x, y);
            for p in img.pixels.iter_mut() {
                if rng.chance(0.02) {
                    *p = rng.range_u64(0, 256) as u8;
                }
            }
        }
    }
    img
}

/// The same image thresholded to {0, 255}: the input the binary kernels
/// see in production.
fn binary(img: &Image) -> Image {
    reference::binarize(img, 128)
}

fn configs() -> [PreprocessConfig; 2] {
    let c = OcrCombiner::default();
    [c.preprocess_cfg, c.reprocess_cfg]
}

/// The distinct `(w, h)` grids of the template bank.
fn template_grids() -> Vec<(usize, usize)> {
    let mut grids: Vec<(usize, usize)> =
        reference::templates().iter().map(|t| (t.w, t.h)).collect();
    grids.sort_unstable();
    grids.dedup();
    grids
}

fn same_chars(new: &[ocr::OcrChar], old: &[ocr::OcrChar]) -> bool {
    new.len() == old.len()
        && new
            .iter()
            .zip(old)
            .all(|(a, b)| a.ch == b.ch && a.distance.to_bits() == b.distance.to_bits())
}

proptest! {
    #[test]
    fn morphology_matches_reference(
        pick in (prop::sample::select(WIDTHS), prop::sample::select(HEIGHTS)),
        random in (0usize..140, 0usize..30),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims(pick, random, seed);
        let gray = image(w, h, seed);
        for img in [&gray, &binary(&gray)] {
            prop_assert_eq!(preprocess::dilate(img), reference::dilate(img), "dilate {}x{} seed {}", w, h, seed);
            prop_assert_eq!(preprocess::erode(img), reference::erode(img), "erode {}x{} seed {}", w, h, seed);
        }
    }

    #[test]
    fn binarize_matches_reference(
        pick in (prop::sample::select(WIDTHS), prop::sample::select(HEIGHTS)),
        random in (0usize..140, 0usize..30),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims(pick, random, seed);
        let gray = image(w, h, seed);
        for t in [0, (seed >> 8) as u8, 255] {
            prop_assert_eq!(preprocess::binarize(&gray, t), reference::binarize(&gray, t), "binarize at {} {}x{} seed {}", t, w, h, seed);
        }
    }

    #[test]
    fn finish_binary_matches_reference(
        pick in (prop::sample::select(WIDTHS), prop::sample::select(HEIGHTS)),
        random in (0usize..140, 0usize..30),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims(pick, random, seed);
        let gray = image(w, h, seed);
        for cfg in configs() {
            for kind in OcrEngineKind::ALL {
                let factor = OcrEngine::new(kind).threshold_factor();
                prop_assert_eq!(
                    preprocess::finish_binary(&gray, factor, &cfg),
                    reference::finish_binary(&gray, factor, &cfg),
                    "finish_binary factor {} {:?} {}x{} seed {}", factor, cfg, w, h, seed
                );
            }
        }
    }

    #[test]
    fn blur_and_median_match_reference(
        pick in (prop::sample::select(WIDTHS), prop::sample::select(HEIGHTS)),
        random in (0usize..140, 0usize..30),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims(pick, random, seed);
        let gray = image(w, h, seed);
        // Upscaled too: its repeated rows take the blur's copy path.
        for img in [&gray, &gray.upscale(2)] {
            for radius in 0..=2 {
                prop_assert_eq!(
                    preprocess::gaussian_blur(img, radius),
                    reference::gaussian_blur(img, radius),
                    "blur radius {} {}x{} seed {}", radius, w, h, seed
                );
            }
        }
        prop_assert_eq!(preprocess::median3(&gray), reference::median3(&gray), "median3 {}x{} seed {}", w, h, seed);
    }

    #[test]
    fn crop_and_upscale_match_reference(
        pick in (prop::sample::select(WIDTHS), prop::sample::select(HEIGHTS)),
        random in (0usize..140, 0usize..30),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims(pick, random, seed);
        let gray = image(w, h, seed);
        let mut rng = SimRng::new(seed);
        let (x, y) = (rng.range_usize(0, w + 3), rng.range_usize(0, h + 3));
        let (cw, ch) = (rng.range_usize(0, w + 3), rng.range_usize(0, h + 3));
        prop_assert_eq!(gray.crop(x, y, cw, ch), reference::crop(&gray, x, y, cw, ch), "crop {}x{} seed {}", w, h, seed);
        for factor in 1..=3 {
            prop_assert_eq!(gray.upscale(factor), reference::upscale(&gray, factor), "upscale {} {}x{} seed {}", factor, w, h, seed);
        }
    }

    #[test]
    fn segmentation_matches_reference(
        pick in (prop::sample::select(WIDTHS), prop::sample::select(HEIGHTS)),
        random in (0usize..140, 0usize..30),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims(pick, random, seed);
        let gray = image(w, h, seed);
        for img in [&gray, &binary(&gray)] {
            let (new, old) = (ocr::segment_glyphs(img), reference::segment_glyphs(img));
            prop_assert_eq!(new.len(), old.len(), "box count {}x{} seed {}", w, h, seed);
            for (a, b) in new.iter().zip(&old) {
                prop_assert_eq!(&a.img, &b.img, "box image {}x{} seed {}", w, h, seed);
                prop_assert_eq!(a.is_blob, b.is_blob, "is_blob {}x{} seed {}", w, h, seed);
            }
        }
    }

    #[test]
    fn quantization_matches_reference(
        pick in (prop::sample::select(WIDTHS), prop::sample::select(HEIGHTS)),
        random in (0usize..140, 0usize..30),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims(pick, random, seed);
        let img = binary(&image(w, h, seed));
        for (tw, th) in template_grids() {
            for frac in [0.30, 0.40, 0.50] {
                prop_assert_eq!(
                    ocr::quantize_to(&img, tw, th, frac),
                    reference::quantize_to(&img, tw, th, frac),
                    "quantize {}x{} at {} {}x{} seed {}", tw, th, frac, w, h, seed
                );
            }
        }
    }

    #[test]
    fn recognition_matches_reference(
        pick in (prop::sample::select(WIDTHS), prop::sample::select(HEIGHTS)),
        random in (0usize..140, 0usize..50),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims(pick, random, seed);
        let gray = image(w, h, seed);
        let bin = binary(&gray);
        for kind in OcrEngineKind::ALL {
            let engine = OcrEngine::new(kind);
            prop_assert!(
                same_chars(&engine.recognize(&bin), &reference::recognize(kind, &bin)),
                "recognize {} {}x{} seed {}", kind.name(), w, h, seed
            );
            for cfg in configs() {
                prop_assert!(
                    same_chars(
                        &engine.recognize_gray(&gray, &cfg),
                        &reference::recognize_gray(&engine, &gray, &cfg)
                    ),
                    "recognize_gray {} {:?} {}x{} seed {}", kind.name(), cfg, w, h, seed
                );
            }
        }
    }
}

/// Anchor and decoration of every `GameId`'s HUD, as
/// `tero_world::games::hud_spec` lists them (that crate depends on this
/// one, so the table is restated here).
const HUDS: [((usize, usize), Decoration); 9] = [
    ((96, 6), Decoration::MsSuffix),
    ((96, 14), Decoration::MsSuffix),
    ((56, 6), Decoration::PingPrefix),
    ((8, 6), Decoration::PingPrefix),
    ((96, 70), Decoration::MsSuffix),
    ((92, 6), Decoration::MsSuffix),
    ((8, 70), Decoration::MsSuffix),
    ((8, 40), Decoration::Bare),
    ((60, 70), Decoration::MsSuffix),
];

fn hud(base: HudScene, (anchor, decoration): ((usize, usize), Decoration)) -> HudScene {
    HudScene {
        anchor,
        decoration,
        ..base
    }
}

// The libm-free renderer against the naive one: same pixels, and the RNG
// left in the same state (every draw taken, in the same order).
proptest! {
    #[test]
    fn scene_render_matches_reference(
        scenario in prop::sample::select([
            ScenarioKind::Typical,
            ScenarioKind::LightFont,
            ScenarioKind::PartiallyHidden,
            ScenarioKind::ClockOverlay,
        ]),
        spec in prop::sample::select(HUDS),
        grain in (0usize..4, 1.0f64..8.0),
        noise in (0usize..3, 0.0f64..0.02),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let latency = rng.range_u64(1, 1000) as u32;
        let mut scene = hud(
            match scenario {
                ScenarioKind::Typical => HudScene::typical(latency),
                ScenarioKind::LightFont => HudScene::light_font(latency),
                ScenarioKind::PartiallyHidden => HudScene::partially_hidden(latency, rng.f64()),
                ScenarioKind::ClockOverlay => HudScene::clock_overlay(latency, 23, 59),
            },
            spec,
        );
        // A quarter of the scenes have no grain, a third no noise.
        scene.grain = if grain.0 == 0 { 0.0 } else { grain.1 };
        scene.noise = if noise.0 == 0 { 0.0 } else { noise.1 };
        let mut old_rng = rng.clone();
        let new = scene.render(&mut rng);
        let old = reference::render(&scene, &mut old_rng);
        prop_assert!(new == old, "pixels differ: {:?} seed {}", scene, seed);
        prop_assert_eq!(rng, old_rng, "rng end state: {:?} seed {}", scene, seed);
    }
}

/// The golden pin: every scenario on every game's HUD over seeded scenes
/// with varied noise, grain, occlusion and clock, cropped at the right ROI
/// and — every third scene — at another game's (a mislabeled stream).
#[test]
fn golden_extraction_matches_reference_combiner() {
    let combiner = OcrCombiner::new();
    let mut scenes = 0;
    let (mut extracted, mut reprocessed) = (0, 0);
    for (g, &spec) in HUDS.iter().enumerate() {
        for scenario in [
            ScenarioKind::Typical,
            ScenarioKind::LightFont,
            ScenarioKind::PartiallyHidden,
            ScenarioKind::ClockOverlay,
        ] {
            for round in 0..8u64 {
                let seed = (g as u64) << 16 | (scenario as u64) << 8 | round;
                let mut rng = SimRng::new(seed);
                let latency = rng.range_u64(1, 1000) as u32;
                let mut scene = hud(
                    match scenario {
                        ScenarioKind::Typical => HudScene::typical(latency),
                        ScenarioKind::LightFont => HudScene::light_font(latency),
                        ScenarioKind::PartiallyHidden => {
                            HudScene::partially_hidden(latency, rng.f64() * 0.6)
                        }
                        ScenarioKind::ClockOverlay => HudScene::clock_overlay(
                            latency,
                            rng.range_u64(0, 24) as u32,
                            rng.range_u64(0, 60) as u32,
                        ),
                    },
                    spec,
                );
                scene.noise = [0.0, 0.01, 0.03, 0.08][round as usize % 4];
                scene.grain = [0.0, 2.0, 4.0, 9.0][(round as usize / 2) % 4];
                let thumb = scene.render(&mut rng);
                let roi = if round % 3 == 2 {
                    hud(scene.clone(), HUDS[(g + 1 + round as usize) % HUDS.len()]).roi()
                } else {
                    scene.roi()
                };
                let crop = thumb.crop(roi.0, roi.1, roi.2, roi.3);
                let new = combiner.extract_with_detail(&crop);
                assert_eq!(
                    new,
                    reference::extract_with_detail(&combiner, &crop),
                    "game {g} {scenario:?} seed {seed}"
                );
                extracted += (new.0 != CombineOutcome::NoMeasurement) as usize;
                reprocessed += new.1.reprocessed as usize;
                scenes += 1;
            }
        }
    }
    assert!(scenes >= 200, "{scenes} scenes");
    // The pin covers both passes and both outcomes.
    assert!(
        extracted > 50 && scenes - extracted > 50,
        "{extracted} extracted"
    );
    assert!(
        reprocessed > 50 && scenes - reprocessed > 50,
        "{reprocessed} reprocessed"
    );
}

/// The guard-banded blur against the `f64` one on the stages production
/// blurs: seeded HUD crops of every scenario and game under grain 0–8 and
/// noise {0, 0–0.02}, upscaled three times, at radius 1 and 2 and (the
/// EasyOCR-like engine's stage) radius 1 after the median filter. Every
/// pixel must be the reference's, and the exact path must stay rare.
#[test]
fn blur_matches_reference_on_hud_crops() {
    let scenarios = [
        ScenarioKind::Typical,
        ScenarioKind::LightFont,
        ScenarioKind::PartiallyHidden,
        ScenarioKind::ClockOverlay,
    ];
    let (mut buf, mut out) = (Vec::new(), Image::default());
    let (mut pixels, mut exact) = (0, 0);
    for seed in 0..3_000u64 {
        let mut rng = SimRng::new(seed);
        let latency = rng.range_u64(1, 1000) as u32;
        let mut scene = hud(
            match scenarios[seed as usize % 4] {
                ScenarioKind::Typical => HudScene::typical(latency),
                ScenarioKind::LightFont => HudScene::light_font(latency),
                ScenarioKind::PartiallyHidden => HudScene::partially_hidden(latency, rng.f64()),
                ScenarioKind::ClockOverlay => HudScene::clock_overlay(latency, 12, 34),
            },
            HUDS[seed as usize / 4 % HUDS.len()],
        );
        scene.grain = if seed % 3 == 0 { 0.0 } else { rng.f64() * 8.0 };
        scene.noise = if seed % 2 == 0 { 0.0 } else { rng.f64() * 0.02 };
        let thumb = scene.render(&mut rng);
        let roi = scene.roi();
        let upscaled = thumb.crop(roi.0, roi.1, roi.2, roi.3).upscale(3);
        let median = preprocess::median3(&upscaled);
        for (stage, radius) in [(&upscaled, 1), (&upscaled, 2), (&median, 1)] {
            exact +=
                preprocess::blur_into(stage, radius, preprocess::BLUR_GUARD, &mut buf, &mut out);
            pixels += stage.pixels.len();
            assert_eq!(
                out,
                reference::gaussian_blur(stage, radius),
                "radius {radius} {scene:?} seed {seed}"
            );
        }
    }
    assert!(
        exact > 0 && exact * 100 < pixels,
        "{exact} of {pixels} exact"
    );
}

/// The libm-free rounding of the blur against the expression it replaces,
/// on the values where they could part: around every half and every
/// integer, one ulp either side, and just past the top of the range.
#[test]
fn blur_rounding_matches_round_clamp() {
    for n in 0..=256u32 {
        for base in [n as f64, n as f64 + 0.5] {
            let mut v = base;
            for _ in 0..3 {
                v = f64::from_bits(v.to_bits().saturating_sub(1));
            }
            for _ in 0..25 {
                if v >= 0.0 {
                    assert_eq!(
                        preprocess::round_to_u8(v),
                        v.round().clamp(0.0, 255.0) as u8,
                        "{v:e}"
                    );
                }
                v = f64::from_bits(v.to_bits() + 1);
            }
        }
    }
}
