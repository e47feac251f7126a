//! Three template-matching OCR engines with complementary error profiles.
//!
//! The paper uses Tesseract, EasyOCR and PaddleOCR, and observes that "the
//! three engines were complementary (they made mistakes on partially
//! overlapping sets of thumbnails)" (§3.2). We reproduce that property by
//! giving each engine the same template bank but its *own preprocessing
//! policy* (threshold factor, denoising, smoothing — see
//! [`OcrEngine::recognize_gray`]) plus distinct quantisation and
//! acceptance thresholds:
//!
//! * [`OcrEngineKind::TesseractLike`] — a strict sub-Otsu threshold: faint
//!   strokes vanish (the highest miss rate, as in Table 4) and only close
//!   matches are accepted;
//! * [`OcrEngineKind::EasyOcrLike`] — median-filter denoising, permissive
//!   quantisation and the most lenient acceptance threshold (few misses,
//!   more confusions);
//! * [`OcrEngineKind::PaddleOcrLike`] — extra smoothing and an
//!   edge-weighted distance that over-trusts stroke caps (a different
//!   confusion set).
//!
//! Matching is scale-free: each segmented glyph is cropped to its ink
//! bounding box and compared against *cropped* templates on the template's
//! own grid, with an aspect-ratio penalty — so a '1' (a narrow glyph) is
//! never confused with a ':' purely because both are thin.

use crate::bits::BitImage;
use crate::font::{glyph, Glyph, GLYPH_H, GLYPH_W, TEMPLATE_CHARS};
use crate::image::Image;
use crate::preprocess::{finish_bits, PreprocessConfig, Scratch};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Which of the three simulated engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OcrEngineKind {
    /// Strict matcher over an eroded input (Tesseract stand-in).
    TesseractLike,
    /// Lenient matcher (EasyOCR stand-in).
    EasyOcrLike,
    /// Edge-weighted matcher (PaddleOCR stand-in).
    PaddleOcrLike,
}

impl OcrEngineKind {
    /// All three engines, in the paper's order.
    pub const ALL: [OcrEngineKind; 3] = [
        OcrEngineKind::TesseractLike,
        OcrEngineKind::EasyOcrLike,
        OcrEngineKind::PaddleOcrLike,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OcrEngineKind::TesseractLike => "tesseract-like",
            OcrEngineKind::EasyOcrLike => "easyocr-like",
            OcrEngineKind::PaddleOcrLike => "paddleocr-like",
        }
    }
}

/// One recognised character with its normalised match distance (lower =
/// more confident; comparable across glyph sizes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OcrChar {
    /// The recognised character.
    pub ch: char,
    /// Normalised template distance of the accepted match.
    pub distance: f64,
}

/// A template grid: the `w × h` ink bounding box shared by every template
/// cropped to that size. A glyph is quantised once per grid, not once per
/// template.
#[derive(Debug, Clone)]
struct Grid {
    w: usize,
    h: usize,
    aspect: f64,
    /// The cells of the top and bottom rows.
    caps: u64,
}

/// A cropped template: the ink bounding box of a 5×7 font glyph, one bit
/// per cell (cell `(row, col)` is bit `row * w + col`; at most 35 bits).
#[derive(Debug, Clone)]
struct Template {
    ch: char,
    /// Index of the template's grid in [`Bank::grids`].
    grid: usize,
    cells: u64,
}

#[derive(Debug, Default)]
struct Bank {
    grids: Vec<Grid>,
    templates: Vec<Template>,
}

impl Bank {
    /// Add the template for `ch`, cropped to the ink bounding box of `g`;
    /// a blank glyph (space) adds nothing.
    fn push(&mut self, ch: char, g: &Glyph) {
        let ink = |r: usize, c: usize| g[r] & (1 << (GLYPH_W - 1 - c)) != 0;
        let rows: Vec<usize> = (0..GLYPH_H)
            .filter(|&r| (0..GLYPH_W).any(|c| ink(r, c)))
            .collect();
        let cols: Vec<usize> = (0..GLYPH_W)
            .filter(|&c| (0..GLYPH_H).any(|r| ink(r, c)))
            .collect();
        let (Some(&r0), Some(&r1), Some(&c0), Some(&c1)) =
            (rows.first(), rows.last(), cols.first(), cols.last())
        else {
            return;
        };
        let (w, h) = (c1 - c0 + 1, r1 - r0 + 1);
        let mut cells = 0u64;
        for r in r0..=r1 {
            for c in c0..=c1 {
                cells |= (ink(r, c) as u64) << ((r - r0) * w + (c - c0));
            }
        }
        let grid = match self.grids.iter().position(|g| (g.w, g.h) == (w, h)) {
            Some(i) => i,
            None => {
                let row = (1u64 << w) - 1;
                self.grids.push(Grid {
                    w,
                    h,
                    aspect: w as f64 / h as f64,
                    caps: row | row << ((h - 1) * w),
                });
                self.grids.len() - 1
            }
        };
        self.templates.push(Template { ch, grid, cells });
    }
}

/// The template bank, in [`TEMPLATE_CHARS`] order. The order is part of the
/// matcher's behaviour: a glyph goes to the *first* template at the minimum
/// distance (the comparison in [`OcrEngine::recognize`] is a strict `<`).
fn templates() -> &'static Bank {
    static BANK: OnceLock<Bank> = OnceLock::new();
    BANK.get_or_init(|| {
        let mut bank = Bank::default();
        for &c in TEMPLATE_CHARS {
            bank.push(c, &glyph(c).expect("template glyph"));
        }
        bank
    })
}

/// A template-matching OCR engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OcrEngine {
    kind: OcrEngineKind,
}

impl OcrEngine {
    /// Construct an engine of the given kind.
    pub fn new(kind: OcrEngineKind) -> Self {
        OcrEngine { kind }
    }

    /// The engine's kind.
    pub fn kind(&self) -> OcrEngineKind {
        self.kind
    }

    /// Recognise characters in a binarised image (0 = ink, 255 =
    /// background). Returns the accepted characters left-to-right;
    /// unrecognisable glyph boxes (too-wide blobs, poor matches) are
    /// silently dropped — exactly the behaviour that turns an occluded
    /// "45ms" into "5ms".
    pub fn recognize(&self, bin: &Image) -> Vec<OcrChar> {
        self.recognize_bits(&BitImage::packed(bin, 0))
    }

    /// [`OcrEngine::recognize`] on the packed binary stage.
    fn recognize_bits(&self, bin: &BitImage) -> Vec<OcrChar> {
        let (ink_frac, accept) = match self.kind {
            OcrEngineKind::TesseractLike => (0.50, 5.0),
            OcrEngineKind::EasyOcrLike => (0.30, 9.0),
            OcrEngineKind::PaddleOcrLike => (0.40, 8.5),
        };
        let bank = templates();
        // Per grid: the glyph quantised onto it, and the aspect-ratio
        // penalty that keeps thin glyphs from matching wide templates and
        // vice versa.
        let mut on_grid = vec![(0u64, 0.0f64); bank.grids.len()];
        let (mut table, mut out) = (InkTable::default(), Vec::new());
        for gb in segment_bits(bin) {
            if gb.is_blob {
                continue;
            }
            let g_aspect = gb.w as f64 / gb.h.max(1) as f64;
            table.fill(bin, &gb);
            for (slot, grid) in on_grid.iter_mut().zip(&bank.grids) {
                let mut cells = 0u64;
                table.quantize(grid.w, grid.h, ink_frac, |i| cells |= 1 << i);
                *slot = (cells, 6.0 * (g_aspect / grid.aspect).ln().abs());
            }
            let mut best: Option<(char, f64)> = None;
            for t in &bank.templates {
                let grid = &bank.grids[t.grid];
                let (cells, penalty) = on_grid[t.grid];
                let diff = cells ^ t.cells;
                // Hamming distance normalised to the 35-cell (5×7) scale,
                // so thresholds are comparable across template sizes. The
                // edge-weighted engine counts mismatches on the template's
                // top and bottom rows double (stroke caps distinguish many
                // glyph pairs), with the normalisation adjusted to match.
                let d = match self.kind {
                    OcrEngineKind::PaddleOcrLike => {
                        let weighted = diff.count_ones() + (diff & grid.caps).count_ones();
                        weighted as f64 * 35.0 / (grid.w * grid.h + 2 * grid.w) as f64
                    }
                    _ => diff.count_ones() as f64 * 35.0 / (grid.w * grid.h) as f64,
                };
                let d = d + penalty;
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

    /// The engine's thresholding policy (multiplier on Otsu's threshold).
    /// The strict engine's low factor makes faint strokes vanish — its
    /// misses; the lenient policies keep them, occasionally as misshapen
    /// glyphs — their confusions.
    pub(crate) fn threshold_factor(&self) -> f64 {
        match self.kind {
            OcrEngineKind::TesseractLike => 0.82,
            OcrEngineKind::EasyOcrLike => 1.0,
            OcrEngineKind::PaddleOcrLike => 0.93,
        }
    }

    /// The engine's own smoothing radius (added to the pipeline's base
    /// blur). PaddleOCR-like smooths harder, which suppresses speck noise
    /// at the cost of fine stroke detail — a different error set from the
    /// other two.
    pub(crate) fn extra_blur(&self) -> usize {
        match self.kind {
            OcrEngineKind::PaddleOcrLike => 1,
            _ => 0,
        }
    }

    /// Whether the engine denoises with a median filter before smoothing
    /// (EasyOCR-like's distinctive stage: salt-and-pepper specks vanish,
    /// so its error set under noise differs from the other engines').
    pub(crate) fn uses_median(&self) -> bool {
        self.kind == OcrEngineKind::EasyOcrLike
    }

    /// Recognise from the shared *upscaled grayscale* stage: each engine
    /// applies its own denoising, smoothing and binarization policy first
    /// (real OCR engines run their own preprocessing, which is where much
    /// of their complementary behaviour comes from).
    pub fn recognize_gray(&self, upscaled: &Image, cfg: &PreprocessConfig) -> Vec<OcrChar> {
        self.read_gray(cfg, &mut Scratch::new(upscaled.clone()))
    }

    /// [`OcrEngine::recognize_gray`] on the upscaled crop `scratch` holds,
    /// its stage taken from (or left in) the memo there.
    pub(crate) fn read_gray(&self, cfg: &PreprocessConfig, scratch: &mut Scratch) -> Vec<OcrChar> {
        let median = self.uses_median() && cfg.blur_radius > 0;
        let blur = cfg.blur_radius + self.extra_blur();
        let (stage, otsu) = scratch.stages.get(median, blur);
        let (bits, spare) = (&mut scratch.bits, &mut scratch.spare);
        finish_bits(stage, otsu, self.threshold_factor(), cfg, bits, spare);
        self.recognize_bits(bits)
    }
}

/// Where a segmented glyph sits in the binary stage: its column run,
/// cropped to its own ink bounding rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GlyphRect {
    pub(crate) x: usize,
    pub(crate) y: usize,
    pub(crate) w: usize,
    pub(crate) h: usize,
    /// Too wide to be a single glyph (e.g. an occluding menu blob).
    pub(crate) is_blob: bool,
}

/// Segment a binarised text line into glyph rectangles by column
/// projection: consecutive columns with enough ink form a run; each run is
/// cropped to its own ink bounding rows. Runs wider than 1.8× the width a
/// 5×7 glyph of that run's height would have are flagged as blobs.
pub(crate) fn segment_bits(bin: &BitImage) -> Vec<GlyphRect> {
    if bin.width == 0 || bin.height == 0 {
        return vec![];
    }
    // Columns with enough ink to be part of a glyph (noise specks after
    // upscaling are ≤3 px tall; glyph strokes are taller).
    let inked = bin.columns_with_ink(4.min(bin.height).max(1));

    let mut rects = Vec::new();
    let mut run_start: Option<usize> = None;
    for x in 0..=bin.width {
        let ink = x < bin.width && inked[x / 64] >> (x % 64) & 1 == 1;
        match (run_start, ink) {
            (None, true) => run_start = Some(x),
            (Some(s), false) => {
                rects.extend(crop_run(bin, s, x));
                run_start = None;
            }
            _ => {}
        }
    }
    rects
}

/// Crop a column run `[x0, x1)` to its ink bounding rows; classify blobs.
fn crop_run(bin: &BitImage, x0: usize, x1: usize) -> Option<GlyphRect> {
    let w = x1 - x0;
    let inked = |&y: &usize| bin.count_row(y, x0, x1) >= 2.min(w);
    let top = (0..bin.height).find(inked)?;
    let bottom = (0..bin.height).rfind(inked)?;
    let h = bottom - top + 1;
    // A single glyph is at most 5 units wide for 7 tall; anything much
    // wider for its height is an occlusion blob or merged junk.
    let expected_w = (h * GLYPH_W).div_ceil(GLYPH_H);
    Some(GlyphRect {
        x: x0,
        y: top,
        w,
        h,
        is_blob: w > expected_w * 9 / 5,
    })
}

/// [`InkTable::quantize`] of the glyph at `r` of the packed stage, on a
/// table of its own.
#[cfg(test)]
pub(crate) fn quantize_rect(
    bin: &BitImage,
    r: &GlyphRect,
    tw: usize,
    th: usize,
    ink_frac: f64,
    ink: impl FnMut(usize),
) {
    let mut table = InkTable::default();
    table.fill(bin, r);
    table.quantize(tw, th, ink_frac, ink);
}

/// A glyph's ink as a summed-area table: entry `(x, y)` counts the ink in
/// the rectangle's first `y` rows and `x` columns. Its pixels are read
/// once however many template grids it is quantised onto, and a cell of
/// any grid is four lookups.
#[derive(Debug, Default)]
struct InkTable {
    w: usize,
    h: usize,
    sums: Vec<u32>,
    /// The column spans of the grid being quantised onto.
    cols: Vec<(usize, usize)>,
}

impl InkTable {
    /// Tabulate the glyph at `r` of the packed stage.
    fn fill(&mut self, bin: &BitImage, r: &GlyphRect) {
        let stride = r.w + 1;
        (self.w, self.h) = (r.w, r.h);
        self.sums.clear();
        self.sums.resize((r.h + 1) * stride, 0);
        for y in 0..r.h {
            let (above, row) = self.sums[y * stride..(y + 2) * stride].split_at_mut(stride);
            let mut run = 0;
            let chunks = row[1..].chunks_mut(64).zip(above[1..].chunks(64));
            for (i, (sums, above)) in chunks.enumerate() {
                let bits = bin.bits_at(r.x + 64 * i, r.y + y);
                for (j, (s, &a)) in sums.iter_mut().zip(above).enumerate() {
                    run += (bits >> j & 1) as u32;
                    *s = a + run;
                }
            }
        }
    }

    /// Downsample the tabulated glyph onto a `tw × th` template grid: a
    /// cell is ink when at least `ink_frac` of its pixels are ink. Calls
    /// `ink` with the index (`row * tw + col`) of every ink cell.
    fn quantize(&mut self, tw: usize, th: usize, ink_frac: f64, mut ink: impl FnMut(usize)) {
        let (w, h, stride) = (self.w, self.h, self.w + 1);
        if w == 0 || h == 0 {
            return;
        }
        // Each column's span, divided out once rather than once a cell.
        self.cols.clear();
        self.cols.extend((0..tw).map(|col| {
            let x0 = col * w / tw;
            (x0, ((col + 1) * w / tw).max(x0 + 1).min(w))
        }));
        let at = |x: usize, y: usize| self.sums[y * stride + x];
        for row in 0..th {
            let y0 = row * h / th;
            let y1 = ((row + 1) * h / th).max(y0 + 1).min(h);
            for (col, &(x0, x1)) in self.cols.iter().enumerate() {
                let total = (y1 - y0) * (x1 - x0);
                let count = (at(x1, y1) - at(x1, y0)) - (at(x0, y1) - at(x0, y0));
                if (count as f64) >= ink_frac * total as f64 {
                    ink(row * tw + col);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::font::rasterize;
    use crate::preprocess::{preprocess, PreprocessConfig};

    fn read(engine: &OcrEngine, bin: &Image) -> String {
        engine.recognize(bin).iter().map(|c| c.ch).collect()
    }

    fn render_and_preprocess(text: &str) -> Image {
        let text_img = rasterize(text, 2, 20, 230);
        let mut canvas = Image::filled(text_img.width + 12, text_img.height + 8, 230);
        canvas.blit(&text_img, 6, 4);
        preprocess(&canvas, &PreprocessConfig::default())
    }

    #[test]
    fn clean_text_is_read_by_all_engines() {
        let bin = render_and_preprocess("45ms");
        for kind in OcrEngineKind::ALL {
            let engine = OcrEngine::new(kind);
            let s = read(&engine, &bin);
            // The digits must come through intact; decorations may degrade
            // (e.g. the strict engine fragments 'm' after its extra erosion),
            // which cleanup tolerates.
            assert!(s.contains("45"), "{} read {s:?}", kind.name());
            assert_eq!(
                crate::combine::cleanup(&engine.recognize(&bin)),
                Some(45),
                "{} cleanup",
                kind.name()
            );
        }
    }

    #[test]
    fn all_digits_read_correctly_when_clean() {
        for d in 0..10u32 {
            let text = format!("{d}{d}ms");
            let bin = render_and_preprocess(&text);
            let engine = OcrEngine::new(OcrEngineKind::EasyOcrLike);
            let out = crate::combine::cleanup(&engine.recognize(&bin));
            // "00" is correctly read but rejected by cleanup as the lobby
            // placeholder (App. E step 3).
            let want = if d == 0 { None } else { Some(d * 11) };
            assert_eq!(out, want, "digit {d}: {:?}", read(&engine, &bin));
        }
    }

    #[test]
    fn three_digit_values_supported() {
        let bin = render_and_preprocess("187ms");
        for kind in [OcrEngineKind::EasyOcrLike, OcrEngineKind::PaddleOcrLike] {
            let engine = OcrEngine::new(kind);
            let out = crate::combine::cleanup(&engine.recognize(&bin));
            assert_eq!(out, Some(187), "{}: {:?}", kind.name(), read(&engine, &bin));
        }
    }

    #[test]
    fn ping_prefix_read() {
        let bin = render_and_preprocess("ping 62");
        let engine = OcrEngine::new(OcrEngineKind::EasyOcrLike);
        let out = crate::combine::cleanup(&engine.recognize(&bin));
        assert_eq!(out, Some(62), "read {:?}", read(&engine, &bin));
    }

    #[test]
    fn segmentation_counts_glyphs() {
        let bin = render_and_preprocess("123");
        let boxes = segment_bits(&BitImage::packed(&bin, 0));
        assert_eq!(boxes.len(), 3);
        assert!(boxes.iter().all(|b| !b.is_blob));
        assert!(segment_bits(&BitImage::packed(&Image::filled(10, 10, 255), 0)).is_empty());
    }

    #[test]
    fn wide_blob_is_flagged_and_dropped() {
        // A solid block the width of several glyphs, followed by one digit.
        let mut canvas = Image::filled(90, 22, 230);
        canvas.fill_rect(4, 4, 40, 14, 20); // blob
        let digit = rasterize("5", 2, 20, 230);
        canvas.blit(&digit, 60, 4);
        let bin = preprocess(&canvas, &PreprocessConfig::default());
        let boxes = segment_bits(&BitImage::packed(&bin, 0));
        assert!(boxes.iter().any(|b| b.is_blob), "blob not flagged");
        let engine = OcrEngine::new(OcrEngineKind::EasyOcrLike);
        assert_eq!(read(&engine, &bin), "5", "blob must be dropped");
    }

    #[test]
    fn quantize_recovers_exact_glyph() {
        // '8' fills its whole 5×7 box; rasterised at scale 4 and quantised
        // back on a 5×7 grid it must reproduce the template exactly.
        let img = rasterize("8", 4, 0, 255);
        let whole = GlyphRect {
            x: 0,
            y: 0,
            w: img.width,
            h: img.height,
            is_blob: false,
        };
        let mut q = [false; 5 * 7];
        quantize_rect(&BitImage::packed(&img, 0), &whole, 5, 7, 0.5, |i| {
            q[i] = true
        });
        let g = glyph('8').unwrap();
        for (i, &cell) in q.iter().enumerate() {
            let (r, c) = (i / 5, i % 5);
            let want = g[r] & (1 << (4 - c)) != 0;
            assert_eq!(cell, want, "cell ({r},{c})");
        }
    }

    #[test]
    fn templates_cropped_sensibly() {
        let bank = templates();
        assert_eq!(
            bank.templates.len(),
            TEMPLATE_CHARS.len(),
            "space is not in TEMPLATE_CHARS"
        );
        let grid_of = |ch: char| {
            let t = bank.templates.iter().find(|t| t.ch == ch).unwrap();
            &bank.grids[t.grid]
        };
        let one = grid_of('1');
        assert_eq!((one.w, one.h), (3, 7), "'1' crops to 3 columns");
        let colon = grid_of(':');
        assert!(colon.w < 3 && colon.h <= 6);
    }

    #[test]
    fn engines_disagree_under_heavy_noise() {
        // Degrade an '8'-heavy reading with noise; the three engines should
        // sometimes disagree (partially overlapping error sets, §3.2) but
        // not always.
        use tero_types::SimRng;
        let mut rng = SimRng::new(1234);
        let mut disagreements = 0;
        let cfg = PreprocessConfig::default();
        for _ in 0..60 {
            let text_img = rasterize("88ms", 2, 20, 230);
            let mut canvas = Image::filled(text_img.width + 12, text_img.height + 8, 230);
            canvas.blit(&text_img, 6, 4);
            for p in canvas.pixels.iter_mut() {
                if rng.chance(0.12) {
                    *p = rng.range_u64(0, 256) as u8;
                }
            }
            // Each engine runs its own preprocessing policy, as in the
            // combiner.
            let upscaled = canvas.upscale(cfg.upscale);
            let outs: Vec<Option<u32>> = OcrEngineKind::ALL
                .iter()
                .map(|&k| {
                    crate::combine::cleanup(&OcrEngine::new(k).recognize_gray(&upscaled, &cfg))
                })
                .collect();
            if !(outs[0] == outs[1] && outs[1] == outs[2]) {
                disagreements += 1;
            }
        }
        assert!(disagreements > 0, "engines never disagreed under noise");
        assert!(disagreements < 60, "engines always disagreed — too chaotic");
    }
}
