//! The naive kernels this crate shipped before its binary stages were
//! bit-packed and its scene renderer lost its per-pixel libm calls, kept
//! verbatim as the oracle of the differential tests in
//! [`crate::differential`] (Otsu's method was not rewritten and is shared).
//! Test-only: nothing here is reachable from a production build.

use crate::combine::{cleanup, vote, CombineOutcome, ExtractDetail, OcrCombiner};
use crate::font::{glyph, rasterize, Glyph, GLYPH_H, GLYPH_SPACING, GLYPH_W, TEMPLATE_CHARS};
use crate::image::Image;
use crate::ocr::{OcrChar, OcrEngine, OcrEngineKind};
use crate::preprocess::{otsu_threshold, PreprocessConfig};
use crate::scene::{HudScene, ScenarioKind, THUMB_H, THUMB_W};
use std::sync::OnceLock;
use tero_types::SimRng;

// ---------------------------------------------------------------- image --

pub(crate) fn crop(img: &Image, x: usize, y: usize, w: usize, h: usize) -> Image {
    let x0 = x.min(img.width);
    let y0 = y.min(img.height);
    let x1 = (x + w).min(img.width);
    let y1 = (y + h).min(img.height);
    let (cw, ch) = (x1 - x0, y1 - y0);
    let mut out = Image::filled(cw, ch, 0);
    for yy in 0..ch {
        for xx in 0..cw {
            out.pixels[yy * cw + xx] = img.get(x0 + xx, y0 + yy);
        }
    }
    out
}

pub(crate) fn upscale(img: &Image, factor: usize) -> Image {
    assert!(factor >= 1);
    let mut out = Image::filled(img.width * factor, img.height * factor, 0);
    for y in 0..out.height {
        for x in 0..out.width {
            out.pixels[y * out.width + x] = img.get(x / factor, y / factor);
        }
    }
    out
}

// ---------------------------------------------------------------- scene --

pub(crate) fn render(scene: &HudScene, rng: &mut SimRng) -> Image {
    let mut img = Image::filled(THUMB_W, THUMB_H, 120);

    // Gameplay clutter: random rectangles of varied shade.
    for _ in 0..scene.clutter {
        let w = rng.range_usize(8, 50);
        let h = rng.range_usize(6, 30);
        let x = rng.range_usize(0, THUMB_W.saturating_sub(w).max(1));
        let y = rng.range_usize(0, THUMB_H.saturating_sub(h).max(1));
        let shade = rng.range_u64(30, 220) as u8;
        img.fill_rect(x, y, w, h, shade);
    }

    // HUD panel + text.
    let text_img = rasterize(&scene.hud_text(), scene.text_scale, scene.fg, scene.bg);
    let pad = 3 * scene.text_scale + 1;
    let panel_w = scene.max_chars() * (GLYPH_W + GLYPH_SPACING) * scene.text_scale + 2 * pad;
    img.fill_rect(
        scene.anchor.0.saturating_sub(pad),
        scene.anchor.1.saturating_sub(pad),
        panel_w,
        text_img.height + 2 * pad,
        scene.bg,
    );
    img.blit(&text_img, scene.anchor.0, scene.anchor.1);

    // Menu occlusion over the leading part of the text.
    if scene.scenario == ScenarioKind::PartiallyHidden && scene.occlusion_fraction > 0.0 {
        let cover_w = (text_img.width as f64 * scene.occlusion_fraction).round() as usize;
        img.fill_rect(
            scene.anchor.0.saturating_sub(8),
            scene.anchor.1.saturating_sub(4),
            cover_w + 8,
            text_img.height + 20,
            55,
        );
    }

    grain(&mut img.pixels, scene.grain, scene.noise, rng);
    img
}

/// Gaussian grain plus salt-and-pepper noise, a pixel at a time.
pub(crate) fn grain(pixels: &mut [u8], grain: f64, noise: f64, rng: &mut SimRng) {
    if grain > 0.0 || noise > 0.0 {
        for p in pixels.iter_mut() {
            if grain > 0.0 {
                *p = (*p as f64 + rng.normal_with(0.0, grain))
                    .round()
                    .clamp(0.0, 255.0) as u8;
            }
            if noise > 0.0 && rng.chance(noise) {
                *p = rng.range_u64(0, 256) as u8;
            }
        }
    }
}

// ----------------------------------------------------------- preprocess --

pub(crate) fn finish_binary(gray: &Image, threshold_factor: f64, cfg: &PreprocessConfig) -> Image {
    let t = (otsu_threshold(gray) as f64 * threshold_factor)
        .round()
        .clamp(0.0, 255.0) as u8;
    let mut out = binarize(gray, t);
    for _ in 0..cfg.morph_iterations {
        out = dilate(&out);
        out = erode(&out);
    }
    if cfg.despeckle {
        out = erode(&erode(&out));
        out = dilate(&dilate(&out));
    }
    out
}

pub(crate) fn gaussian_blur(img: &Image, radius: usize) -> Image {
    if radius == 0 || img.width == 0 || img.height == 0 {
        return img.clone();
    }
    let sigma = radius as f64 / 1.5;
    let kernel: Vec<f64> = (-(radius as i64)..=(radius as i64))
        .map(|d| (-(d as f64).powi(2) / (2.0 * sigma * sigma)).exp())
        .collect();
    let ksum: f64 = kernel.iter().sum();

    // Horizontal pass.
    let mut tmp = vec![0.0f64; img.width * img.height];
    for y in 0..img.height {
        for x in 0..img.width {
            let mut acc = 0.0;
            for (i, &k) in kernel.iter().enumerate() {
                let sx =
                    (x as i64 + i as i64 - radius as i64).clamp(0, img.width as i64 - 1) as usize;
                acc += k * img.get(sx, y) as f64;
            }
            tmp[y * img.width + x] = acc / ksum;
        }
    }
    // Vertical pass.
    let mut out = Image::filled(img.width, img.height, 0);
    for y in 0..img.height {
        for x in 0..img.width {
            let mut acc = 0.0;
            for (i, &k) in kernel.iter().enumerate() {
                let sy =
                    (y as i64 + i as i64 - radius as i64).clamp(0, img.height as i64 - 1) as usize;
                acc += k * tmp[sy * img.width + x];
            }
            out.pixels[y * img.width + x] = (acc / ksum).round().clamp(0.0, 255.0) as u8;
        }
    }
    out
}

pub(crate) fn median3(img: &Image) -> Image {
    let mut out = img.clone();
    if img.width < 3 || img.height < 3 {
        return out;
    }
    let mut window = [0u8; 9];
    for y in 1..img.height - 1 {
        for x in 1..img.width - 1 {
            let mut k = 0;
            for dy in 0..3 {
                for dx in 0..3 {
                    window[k] = img.get(x + dx - 1, y + dy - 1);
                    k += 1;
                }
            }
            window.sort_unstable();
            out.pixels[y * img.width + x] = window[4];
        }
    }
    out
}

pub(crate) fn binarize(img: &Image, threshold: u8) -> Image {
    let mut out = img.clone();
    for p in out.pixels.iter_mut() {
        *p = if *p <= threshold { 0 } else { 255 };
    }
    out
}

pub(crate) fn dilate(img: &Image) -> Image {
    morph(img, true)
}

pub(crate) fn erode(img: &Image) -> Image {
    morph(img, false)
}

fn morph(img: &Image, dilate: bool) -> Image {
    let mut out = img.clone();
    for y in 0..img.height {
        for x in 0..img.width {
            let mut any_ink = false;
            let mut all_ink = true;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let sx = x as i64 + dx;
                    let sy = y as i64 + dy;
                    let ink =
                        if sx < 0 || sy < 0 || sx >= img.width as i64 || sy >= img.height as i64 {
                            false // outside the image counts as background
                        } else {
                            img.get(sx as usize, sy as usize) == 0
                        };
                    any_ink |= ink;
                    all_ink &= ink;
                }
            }
            let ink = if dilate { any_ink } else { all_ink };
            out.pixels[y * img.width + x] = if ink { 0 } else { 255 };
        }
    }
    out
}

// ------------------------------------------------------------------ ocr --

#[derive(Debug, Clone)]
pub(crate) struct Template {
    pub(crate) ch: char,
    pub(crate) w: usize,
    pub(crate) h: usize,
    cells: Vec<bool>,
    aspect: f64,
}

#[allow(clippy::needless_range_loop)]
fn crop_template(ch: char, g: &Glyph) -> Option<Template> {
    let mut min_r = GLYPH_H;
    let mut max_r = 0;
    let mut min_c = GLYPH_W;
    let mut max_c = 0;
    for (r, bits) in g.iter().enumerate() {
        for c in 0..GLYPH_W {
            if bits & (1 << (GLYPH_W - 1 - c)) != 0 {
                min_r = min_r.min(r);
                max_r = max_r.max(r);
                min_c = min_c.min(c);
                max_c = max_c.max(c);
            }
        }
    }
    if min_r > max_r {
        return None; // blank glyph (space)
    }
    let (w, h) = (max_c - min_c + 1, max_r - min_r + 1);
    let mut cells = Vec::with_capacity(w * h);
    for r in min_r..=max_r {
        for c in min_c..=max_c {
            cells.push(g[r] & (1 << (GLYPH_W - 1 - c)) != 0);
        }
    }
    Some(Template {
        ch,
        w,
        h,
        cells,
        aspect: w as f64 / h as f64,
    })
}

pub(crate) fn templates() -> &'static [Template] {
    static BANK: OnceLock<Vec<Template>> = OnceLock::new();
    BANK.get_or_init(|| {
        TEMPLATE_CHARS
            .iter()
            .filter_map(|&c| crop_template(c, &glyph(c).expect("template glyph")))
            .collect()
    })
}

pub(crate) fn recognize(kind: OcrEngineKind, bin: &Image) -> Vec<OcrChar> {
    let boxes = segment_glyphs(bin);
    let (ink_frac, accept) = match kind {
        OcrEngineKind::TesseractLike => (0.50, 5.0),
        OcrEngineKind::EasyOcrLike => (0.30, 9.0),
        OcrEngineKind::PaddleOcrLike => (0.40, 8.5),
    };
    let mut out = Vec::new();
    for gb in &boxes {
        if gb.is_blob {
            continue;
        }
        let mut best: Option<(char, f64)> = None;
        for t in templates() {
            let quant = quantize_to(&gb.img, t.w, t.h, ink_frac);
            let d = match kind {
                OcrEngineKind::PaddleOcrLike => edge_weighted_distance(&quant, t),
                _ => plain_distance(&quant, t),
            };
            let g_aspect = gb.img.width as f64 / gb.img.height.max(1) as f64;
            let d = d + 6.0 * (g_aspect / t.aspect).ln().abs();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((t.ch, d));
            }
        }
        if let Some((ch, distance)) = best {
            if distance <= accept {
                out.push(OcrChar { ch, distance });
            }
        }
    }
    out
}

pub(crate) fn recognize_gray(
    engine: &OcrEngine,
    upscaled: &Image,
    cfg: &PreprocessConfig,
) -> Vec<OcrChar> {
    let mut stage = if engine.uses_median() && cfg.blur_radius > 0 {
        median3(upscaled)
    } else {
        upscaled.clone()
    };
    let blur = cfg.blur_radius + engine.extra_blur();
    if blur > 0 {
        stage = gaussian_blur(&stage, blur);
    }
    let bin = finish_binary(&stage, engine.threshold_factor(), cfg);
    recognize(engine.kind(), &bin)
}

/// One segmented glyph candidate, cropped to its own ink bounding box.
pub(crate) struct GlyphBox {
    pub(crate) img: Image,
    pub(crate) is_blob: bool,
}

#[allow(clippy::needless_range_loop)]
pub(crate) fn segment_glyphs(bin: &Image) -> Vec<GlyphBox> {
    if bin.width == 0 || bin.height == 0 {
        return vec![];
    }
    let col_threshold = 4.min(bin.height).max(1);
    let col_ink: Vec<usize> = (0..bin.width)
        .map(|x| (0..bin.height).filter(|&y| bin.get(x, y) == 0).count())
        .collect();

    let mut boxes = Vec::new();
    let mut run_start: Option<usize> = None;
    for x in 0..=bin.width {
        let ink = x < bin.width && col_ink[x] >= col_threshold;
        match (run_start, ink) {
            (None, true) => run_start = Some(x),
            (Some(s), false) => {
                if let Some(gb) = crop_run(bin, s, x) {
                    boxes.push(gb);
                }
                run_start = None;
            }
            _ => {}
        }
    }
    boxes
}

fn crop_run(bin: &Image, x0: usize, x1: usize) -> Option<GlyphBox> {
    let mut top = None;
    let mut bottom = None;
    for y in 0..bin.height {
        let ink = (x0..x1).filter(|&x| bin.get(x, y) == 0).count();
        if ink >= 2.min(x1 - x0) {
            if top.is_none() {
                top = Some(y);
            }
            bottom = Some(y);
        }
    }
    let (top, bottom) = (top?, bottom?);
    let h = bottom - top + 1;
    let w = x1 - x0;
    let img = crop(bin, x0, top, w, h);
    let expected_w = (h * GLYPH_W).div_ceil(GLYPH_H);
    let is_blob = w > expected_w * 9 / 5;
    Some(GlyphBox { img, is_blob })
}

pub(crate) fn quantize_to(img: &Image, tw: usize, th: usize, ink_frac: f64) -> Vec<bool> {
    let mut cells = vec![false; tw * th];
    if img.width == 0 || img.height == 0 {
        return cells;
    }
    for row in 0..th {
        for col in 0..tw {
            let y0 = row * img.height / th;
            let y1 = ((row + 1) * img.height / th).max(y0 + 1).min(img.height);
            let x0 = col * img.width / tw;
            let x1 = ((col + 1) * img.width / tw).max(x0 + 1).min(img.width);
            let total = (y1 - y0) * (x1 - x0);
            let mut ink = 0usize;
            for y in y0..y1 {
                for x in x0..x1 {
                    if img.get(x, y) == 0 {
                        ink += 1;
                    }
                }
            }
            cells[row * tw + col] = (ink as f64) >= ink_frac * total as f64;
        }
    }
    cells
}

fn plain_distance(quant: &[bool], t: &Template) -> f64 {
    let d = quant.iter().zip(&t.cells).filter(|(a, b)| a != b).count();
    d as f64 * 35.0 / (t.w * t.h) as f64
}

fn edge_weighted_distance(quant: &[bool], t: &Template) -> f64 {
    let mut d = 0.0;
    for (i, (a, b)) in quant.iter().zip(&t.cells).enumerate() {
        if a != b {
            let row = i / t.w;
            d += if row == 0 || row == t.h - 1 { 2.0 } else { 1.0 };
        }
    }
    let total_weight = (t.w * t.h + 2 * t.w) as f64;
    d * 35.0 / total_weight
}

// -------------------------------------------------------------- combine --

fn pass(roi: &Image, cfg: &PreprocessConfig) -> [Option<u32>; 3] {
    let upscaled = upscale(roi, cfg.upscale.max(1));
    let mut out = [None; 3];
    for (slot, kind) in out.iter_mut().zip(OcrEngineKind::ALL) {
        *slot = cleanup(&recognize_gray(&OcrEngine::new(kind), &upscaled, cfg));
    }
    out
}

pub(crate) fn extract_with_detail(
    combiner: &OcrCombiner,
    roi: &Image,
) -> (CombineOutcome, ExtractDetail) {
    let first = pass(roi, &combiner.preprocess_cfg);
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
    let second = pass(roi, &combiner.reprocess_cfg);
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
