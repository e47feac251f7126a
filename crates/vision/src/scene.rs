//! HUD scene composer: renders synthetic gaming thumbnails.
//!
//! Each scene mimics one downloaded Twitch thumbnail: gameplay clutter, a
//! HUD panel with the latency readout at a game-specific anchor, and one of
//! the failure modes the paper catalogues in Fig 6 — a typical display, a
//! font too light against its background, a value partially hidden by an
//! open menu (the dominant cause of digit drops, §4.2.2), or a custom clock
//! overlay sitting exactly where latency normally goes (the "trickiest
//! error we encountered").

use crate::font::{rasterize, GLYPH_H, GLYPH_SPACING, GLYPH_W};
use crate::image::{Image, PAYLOAD_HEADER};
use serde::{Deserialize, Serialize};
use tero_types::SimRng;

/// Width of a rendered thumbnail in pixels.
pub const THUMB_W: usize = 160;
/// Height of a rendered thumbnail in pixels.
pub const THUMB_H: usize = 90;

/// The Fig 6 scenario taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// (a) Typical latency display.
    Typical,
    /// (b) Latency font too light against the background.
    LightFont,
    /// (c) Latency partially hidden by an open menu.
    PartiallyHidden,
    /// (d) Latency replaced by a clock (a streamer's custom UI element).
    ClockOverlay,
}

/// How the game decorates the number on screen (§3.2 step 3 mentions "ms"
/// right after the digits or "ping" right before them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decoration {
    /// the number followed by "ms"
    MsSuffix,
    /// "ping " followed by the number
    PingPrefix,
    /// Just the digits.
    Bare,
}

/// A synthetic thumbnail scene with known ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HudScene {
    /// The true latency the game is displaying.
    pub latency_ms: u32,
    /// Which Fig 6 failure mode (or the typical case) this scene exhibits.
    pub scenario: ScenarioKind,
    /// Top-left corner of the HUD text inside the thumbnail.
    pub anchor: (usize, usize),
    /// Text decoration around the number.
    pub decoration: Decoration,
    /// Integer font scale (font units → pixels).
    pub text_scale: usize,
    /// Foreground shade of the HUD text.
    pub fg: u8,
    /// Background shade of the HUD panel.
    pub bg: u8,
    /// Per-pixel salt-and-pepper noise probability.
    pub noise: f64,
    /// For [`ScenarioKind::PartiallyHidden`]: fraction of the text width
    /// covered from the left by the menu panel.
    pub occlusion_fraction: f64,
    /// Number of random gameplay-clutter rectangles behind the HUD.
    pub clutter: usize,
    /// For [`ScenarioKind::ClockOverlay`]: the `(hour, minute)` shown where
    /// the latency normally goes.
    pub clock: Option<(u32, u32)>,
    /// Standard deviation of per-pixel Gaussian grain (sensor/compression
    /// noise) applied to the whole frame.
    pub grain: f64,
}

impl HudScene {
    /// A typical scene with paper-ish defaults: dark text on a light HUD
    /// panel at the top-right corner, "ms" suffix, mild noise.
    pub fn typical(latency_ms: u32) -> Self {
        HudScene {
            latency_ms,
            scenario: ScenarioKind::Typical,
            anchor: (96, 6),
            decoration: Decoration::MsSuffix,
            text_scale: 2,
            fg: 20,
            bg: 230,
            noise: 0.01,
            occlusion_fraction: 0.0,
            clutter: 12,
            clock: None,
            grain: 2.0,
        }
    }

    /// Fig 6b: the font is nearly the same shade as its panel — the contrast
    /// is below the frame grain, so no (adaptive) threshold recovers it.
    pub fn light_font(latency_ms: u32) -> Self {
        HudScene {
            scenario: ScenarioKind::LightFont,
            fg: 224,
            grain: 4.0,
            ..HudScene::typical(latency_ms)
        }
    }

    /// Fig 6c: an open menu covers the leading part of the value.
    pub fn partially_hidden(latency_ms: u32, fraction: f64) -> Self {
        HudScene {
            scenario: ScenarioKind::PartiallyHidden,
            occlusion_fraction: fraction.clamp(0.0, 1.0),
            ..HudScene::typical(latency_ms)
        }
    }

    /// Fig 6d: a clock renders where the latency normally goes.
    pub fn clock_overlay(latency_ms: u32, hh: u32, mm: u32) -> Self {
        let mut s = HudScene::typical(latency_ms);
        s.scenario = ScenarioKind::ClockOverlay;
        s.clock = Some((hh % 24, mm % 60));
        s
    }

    /// The text the HUD actually shows.
    pub fn hud_text(&self) -> String {
        if let Some((hh, mm)) = self.clock {
            return format!("{hh}:{mm:02}");
        }
        match self.decoration {
            Decoration::MsSuffix => format!("{}ms", self.latency_ms),
            Decoration::PingPrefix => format!("ping {}", self.latency_ms),
            Decoration::Bare => self.latency_ms.to_string(),
        }
    }

    /// Longest text this scene's decoration can produce, in characters.
    pub fn max_chars(&self) -> usize {
        match self.decoration {
            Decoration::MsSuffix => 5,   // "999ms"
            Decoration::PingPrefix => 8, // "ping 999"
            Decoration::Bare => 5,       // "999" or a clock "23:59"
        }
    }

    /// Adjust the decoration, shifting the anchor left if needed so the
    /// longest possible text still fits inside the thumbnail.
    pub fn with_decoration(mut self, decoration: Decoration) -> Self {
        self.decoration = decoration;
        let needed = self.max_chars() * (GLYPH_W + GLYPH_SPACING) * self.text_scale;
        let max_x = THUMB_W.saturating_sub(needed + 4 * self.text_scale);
        self.anchor.0 = self.anchor.0.min(max_x);
        self
    }

    /// The region of interest that game-UI knowledge gives us: the HUD
    /// anchor area with a small margin (§3.2 step 1 "crops around it").
    /// Returns `(x, y, w, h)`.
    pub fn roi(&self) -> (usize, usize, usize, usize) {
        let margin = 3 * self.text_scale;
        let w = self.max_chars() * (GLYPH_W + GLYPH_SPACING) * self.text_scale + 2 * margin;
        let h = GLYPH_H * self.text_scale + 2 * margin;
        let x = self.anchor.0.saturating_sub(margin);
        let y = self.anchor.1.saturating_sub(margin);
        (x, y, w.min(THUMB_W - x), h.min(THUMB_H - y))
    }

    /// Render the thumbnail. Deterministic given the RNG state.
    pub fn render(&self, rng: &mut SimRng) -> Image {
        let mut img = self.compose(rng);
        add_grain(&mut img.pixels, self.grain, self.noise, rng, GUARD_BAND);
        img
    }

    /// The thumbnail before grain and noise: clutter, HUD panel, text and
    /// menu.
    pub(crate) fn compose(&self, rng: &mut SimRng) -> Image {
        // Room to spare for `Image::into_payload`'s header: a thumbnail on
        // its way to the object store is never copied.
        let mut pixels = Vec::with_capacity(THUMB_W * THUMB_H + PAYLOAD_HEADER);
        pixels.resize(THUMB_W * THUMB_H, 120);
        let mut img = Image {
            width: THUMB_W,
            height: THUMB_H,
            pixels,
        };

        // Gameplay clutter: random rectangles of varied shade.
        for _ in 0..self.clutter {
            let w = rng.range_usize(8, 50);
            let h = rng.range_usize(6, 30);
            let x = rng.range_usize(0, THUMB_W.saturating_sub(w).max(1));
            let y = rng.range_usize(0, THUMB_H.saturating_sub(h).max(1));
            let shade = rng.range_u64(30, 220) as u8;
            img.fill_rect(x, y, w, h, shade);
        }

        // HUD panel + text. The panel has a fixed size covering the whole
        // readout area (as real game HUDs do), so it extends past the text
        // itself and past the ROI margin.
        let text_img = rasterize(&self.hud_text(), self.text_scale, self.fg, self.bg);
        let pad = 3 * self.text_scale + 1;
        let panel_w = self.max_chars() * (GLYPH_W + GLYPH_SPACING) * self.text_scale + 2 * pad;
        img.fill_rect(
            self.anchor.0.saturating_sub(pad),
            self.anchor.1.saturating_sub(pad),
            panel_w,
            text_img.height + 2 * pad,
            self.bg,
        );
        img.blit(&text_img, self.anchor.0, self.anchor.1);

        // Menu occlusion over the leading part of the text.
        if self.scenario == ScenarioKind::PartiallyHidden && self.occlusion_fraction > 0.0 {
            let cover_w = (text_img.width as f64 * self.occlusion_fraction).round() as usize;
            // The menu extends well beyond the HUD, as a real drop-down does.
            img.fill_rect(
                self.anchor.0.saturating_sub(8),
                self.anchor.1.saturating_sub(4),
                cover_w + 8,
                text_img.height + 20,
                55,
            );
        }
        img
    }
}

/// Guard of [`add_grain`]'s band: twice `f32`'s unit roundoff,
/// `2 · 2⁻²⁴`. See [`grain_row`] for the bound it covers.
pub(crate) const GUARD_BAND: f64 = 2.0 / 16_777_216.0;

/// Half-width of the band around a rounding boundary inside which a
/// pixel under `grain` is recomputed exactly.
fn grain_band(guard: f64, grain: f64) -> f64 {
    guard * (256.0 + 344.0 * grain)
}

/// Bit pattern of `√½`, the lower edge of the mantissa range `ln` is
/// expanded on.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;

/// Per-pixel Gaussian grain, then salt-and-pepper noise: exactly
/// `p = (p + rng.normal_with(0.0, grain)).round().clamp(0.0, 255.0)`
/// followed by `if rng.chance(noise) { p = rng.range_u64(0, 256) }` for
/// each pixel in turn, drawing from `rng` in that order.
///
/// Which draw a pixel gets depends only on earlier draws, never on the
/// arithmetic, so a row's uniforms are drawn first and the normals
/// computed afterwards in straight `f32` loops without libm. The output
/// is a `u8`: the approximate value decides the rounding unless it lies
/// within [`grain_band`] of a half-integer, where the libm expression is
/// evaluated instead. Returns how many pixels took that exact path.
pub(crate) fn add_grain(
    pixels: &mut [u8],
    grain: f64,
    noise: f64,
    rng: &mut SimRng,
    guard: f64,
) -> usize {
    let (grainy, noisy) = (grain > 0.0, noise > 0.0);
    if !grainy && !noisy {
        return 0;
    }
    let band = grain_band(guard, grain);
    let (mut u1, mut u2) = ([0.0f64; THUMB_W], [0.0f64; THUMB_W]);
    let mut salt: Vec<(usize, u8)> = Vec::new();
    let mut exact = 0;
    for row in pixels.chunks_mut(THUMB_W) {
        salt.clear();
        for i in 0..row.len() {
            if grainy {
                // The two uniforms of `SimRng::normal`.
                u1[i] = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
                u2[i] = rng.f64();
            }
            if noisy && rng.chance(noise) {
                salt.push((i, rng.range_u64(0, 256) as u8));
            }
        }
        if grainy {
            exact += grain_row(row, &u1[..row.len()], &u2[..row.len()], grain, band);
        }
        for &(i, shade) in &salt {
            row[i] = shade;
        }
    }
    exact
}

/// Add `grain · z(u1, u2)` to each pixel of one row and round; returns
/// how many pixels fell inside `band` and were recomputed exactly.
///
/// The result is, pixel for pixel, [`exact_pixel`]'s: the `f64` libm
/// Box–Muller value, added and rounded. Only a pixel near a rounding
/// boundary needs that sequence. Every pixel is first computed in `f32`
/// by [`normal_f32`], from `u1`'s exponent `k` and mantissa `m` (split in
/// `f64`, where `m − 1` is exact) and the folded `u2`. With `u = 2⁻²⁴`,
/// to first order:
///
/// - `ln u1` is within `9u` of itself relatively: `m ± 1` and their
///   quotient `s` add `3u`, the atanh series `1.2u` (its first dropped
///   term, `w⁵/11`, is under `0.04u`), the product by `2s`, `k · ln 2`
///   and the last sum `u` each, and for `k ≠ 0` the sum is at least half
///   its larger term;
/// - the radius `√(−2 ln u1)` is then within `5.5u` relatively, and is at
///   most `√(106 ln 2) < 8.58`, since `u1 ≥ 2⁻⁵³` as `SimRng` draws it;
/// - the sine series through `y¹¹` (first dropped term `(π/2)¹³/13! <
///   u`), its Horner steps (`γ₁₀ · sinh(π/2)/(π/2)` over a polynomial of
///   at least `2/π`) and `y`'s rounding keep the sine within `29u`;
/// - so `z` is within `36u · radius` of the real normal (the test
///   `normal_f32_tracks_libm` holds it to that), and `grain · z`, with
///   `grain` rounded to `f32` and the product, within
///   `38u · 8.58 · grain < 330u · grain`; adding the shade rounds by at
///   most `256u` more, for the values in `0..256` that can round to
///   different `u8`s (anything else clamps to 0 or 255 on both paths).
///
/// The `f32` value is thus within `(256 + 330 · grain) · u` of the real
/// one (≈ 1.5e-5 + 2e-5 · grain), and libm's `f64` within ~1e-14 · grain
/// of it. [`grain_band`] is twice the bound with 344 for 330, covering
/// the second-order terms: a value farther than that from a half-integer
/// rounds as the `f64` one does, and one inside it is recomputed by
/// [`exact_pixel`] from the shade before grain. A band of ½ or more, or
/// a grain that is not finite, sends every pixel down that exact path.
fn grain_row(row: &mut [u8], u1: &[f64], u2: &[f64], grain: f64, band: f64) -> usize {
    let n = row.len().min(THUMB_W);
    let (row, u1, u2) = (&mut row[..n], &u1[..n], &u2[..n]);
    if band >= 0.5 || !grain.is_finite() {
        for ((p, &u1), &u2) in row.iter_mut().zip(u1).zip(u2) {
            *p = exact_pixel(*p, grain, u1, u2);
        }
        return n;
    }
    let (mut below, mut above, mut k, mut y) = (
        [0.0f32; THUMB_W],
        [0.0; THUMB_W],
        [0.0; THUMB_W],
        [0.0; THUMB_W],
    );
    let mut shade = [0.0f32; THUMB_W];
    for i in 0..n {
        (below[i], above[i], k[i], y[i]) = normal_inputs(u1[i], u2[i]);
        shade[i] = row[i] as f32;
    }
    // Round by the 1.5 · 2²³ shift: `v + SHIFT` lands where one unit is
    // the last mantissa bit, so its low byte is `v` rounded to the nearest
    // integer (`v` is clamped to `0..=255`, past every boundary that
    // moves a `u8`), and taking `SHIFT` off again leaves that integer.
    const SHIFT: f32 = 12_582_912.0;
    let (g, limit) = (grain as f32, (0.5 - band) as f32);
    let mut value = [0.0f32; THUMB_W];
    let mut near = 0u32;
    for i in 0..n {
        let v = (shade[i] + g * normal_f32(below[i], above[i], k[i], y[i])).clamp(0.0, 255.0);
        let shifted = v + SHIFT;
        row[i] = shifted.to_bits() as u8;
        near += ((v - (shifted - SHIFT)).abs() >= limit) as u32;
        value[i] = v;
    }
    if near > 0 {
        for i in 0..n {
            let v = value[i];
            if (v - ((v + SHIFT) - SHIFT)).abs() >= limit {
                row[i] = exact_pixel(shade[i] as u8, grain, u1[i], u2[i]);
            }
        }
    }
    near as usize
}

/// One pixel by the expression of `SimRng::normal_with(0.0, grain)`,
/// operation for operation.
#[cold]
fn exact_pixel(p: u8, grain: f64, u1: f64, u2: f64) -> u8 {
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (p as f64 + (0.0 + grain * z)).round().clamp(0.0, 255.0) as u8
}

/// [`normal_f32`]'s arguments, split in `f64`: `u1 = m · 2^k` with
/// `m ∈ [√½, √2)` as `m − 1` (exact), `m + 1` and `k`, and the folded
/// angle `y = 2π(|u2 − ½| − ¼) ∈ [−π/2, π/2]` (both subtractions exact).
#[inline(always)]
fn normal_inputs(u1: f64, u2: f64) -> (f32, f32, f32, f32) {
    // Adding the distance from √½ to 1 carries into the exponent exactly
    // when the mantissa is past √2.
    let ix = u1.to_bits() + (1.0f64.to_bits() - SQRT_HALF_BITS);
    let m = f64::from_bits((ix & 0x000F_FFFF_FFFF_FFFF) + SQRT_HALF_BITS);
    let k = (ix >> 52) as i32 - 1023;
    let y = std::f64::consts::TAU * ((u2 - 0.5).abs() - 0.25);
    ((m - 1.0) as f32, (m + 1.0) as f32, k as f32, y as f32)
}

/// Box–Muller's `√(−2 ln u1) · cos(2π u2)` in `f32`, without libm or a
/// branch, from `u1 = m · 2^k` as `m − 1`, `m + 1` and `k`, and the cosine
/// as `sin y` for `y = 2π(|u2 − ½| − ¼)`. [`grain_row`] bounds its error.
#[inline(always)]
fn normal_f32(below: f32, above: f32, k: f32, y: f32) -> f32 {
    // ln m = 2 atanh(s) with |s| < 0.1716.
    let s = below / above;
    let w = s * s;
    let series = 1.0 + w * (1.0 / 3.0 + w * (1.0 / 5.0 + w * (1.0 / 7.0 + w * (1.0 / 9.0))));
    let ln = k * std::f32::consts::LN_2 + 2.0 * s * series;
    let radius = (-2.0 * ln).sqrt();
    let y2 = y * y;
    let sin = y
        * (1.0
            + y2 * (-1.0 / 6.0
                + y2 * (1.0 / 120.0
                    + y2 * (-1.0 / 5040.0 + y2 * (1.0 / 362_880.0 + y2 * (-1.0 / 39_916_800.0))))));
    radius * sin
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hud_text_variants() {
        assert_eq!(HudScene::typical(45).hud_text(), "45ms");
        let mut s = HudScene::typical(45);
        s.decoration = Decoration::PingPrefix;
        assert_eq!(s.hud_text(), "ping 45");
        s.decoration = Decoration::Bare;
        assert_eq!(s.hud_text(), "45");
        assert_eq!(HudScene::clock_overlay(45, 12, 5).hud_text(), "12:05");
        assert_eq!(HudScene::clock_overlay(45, 25, 61).hud_text(), "1:01");
    }

    #[test]
    fn render_is_deterministic() {
        let scene = HudScene::typical(87);
        let a = scene.render(&mut SimRng::new(7));
        let b = scene.render(&mut SimRng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn rendered_pixels_become_the_payload_in_place() {
        let img = HudScene::typical(87).render(&mut SimRng::new(7));
        let (pixels, at) = (img.pixels.clone(), img.pixels.as_ptr());
        let payload = img.into_payload();
        assert_eq!(payload.as_ptr(), at, "the header fits the spare capacity");
        assert_eq!(&payload[PAYLOAD_HEADER..], &pixels[..]);
    }

    #[test]
    fn roi_contains_text() {
        let scene = HudScene::typical(123);
        let (x, y, w, h) = scene.roi();
        assert!(x <= scene.anchor.0 && y <= scene.anchor.1);
        assert!(x + w <= THUMB_W && y + h <= THUMB_H);
        // Wide enough for "999ms" at scale 2 (5 chars * 12px = 60px).
        assert!(w >= 60, "roi width {w}");
    }

    #[test]
    fn occlusion_darkens_leading_digits() {
        let clean = HudScene::typical(456);
        let hidden = HudScene::partially_hidden(456, 0.4);
        let img_clean = clean.render(&mut SimRng::new(3));
        let img_hidden = hidden.render(&mut SimRng::new(3));
        // In the covered region, pixels differ from the clean render.
        let (ax, ay) = clean.anchor;
        let mut diffs = 0;
        for dy in 0..10 {
            for dx in 0..15 {
                if img_clean.get(ax + dx, ay + dy) != img_hidden.get(ax + dx, ay + dy) {
                    diffs += 1;
                }
            }
        }
        assert!(diffs > 40, "occlusion changed only {diffs} pixels");
    }

    #[test]
    fn light_font_has_low_contrast() {
        let s = HudScene::light_font(77);
        assert!((s.bg as i32 - s.fg as i32).abs() < 2 * s.grain as i32 * 2);
        // Render still works.
        let img = s.render(&mut SimRng::new(1));
        assert_eq!((img.width, img.height), (THUMB_W, THUMB_H));
    }

    /// Random shades, every value of a `u8` present, not a multiple of a
    /// row long.
    fn shades(rng: &mut SimRng) -> Vec<u8> {
        (0..3 * THUMB_W + 17)
            .map(|i| {
                if i < 256 {
                    i as u8
                } else {
                    rng.range_u64(0, 256) as u8
                }
            })
            .collect()
    }

    #[test]
    fn normal_f32_tracks_libm() {
        // Within the `36u · radius` `grain_row` derives, u = 2⁻²⁴.
        let libm = |u1: f64, u2: f64| (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let fast = |u1: f64, u2: f64| {
            let (below, above, k, y) = normal_inputs(u1, u2);
            normal_f32(below, above, k, y) as f64
        };
        let (u, tiny) = (1.0 / (1u64 << 24) as f64, 1.0 / (1u64 << 53) as f64);
        let sqrt_half = f64::from_bits(SQRT_HALF_BITS);
        let mut worst = 0.0f64;
        let mut check = |u1: f64, u2: f64| {
            let radius = (-2.0 * u1.ln()).sqrt();
            let err = (fast(u1, u2) - libm(u1, u2)).abs();
            assert!(err <= 36.0 * u * radius, "u1 {u1:e} u2 {u2:e} err {err:e}");
            worst = worst.max(err / (u * radius));
        };
        // Both ends of each range, the mantissa split, the quadrant folds.
        let edges1 = [
            1.0,
            1.0 - tiny,
            tiny,
            2.0 * tiny,
            sqrt_half,
            f64::from_bits(SQRT_HALF_BITS - 1),
            sqrt_half / 2.0,
            0.5,
            0.25,
        ];
        let edges2 = [
            0.0,
            tiny,
            0.25,
            0.25 - tiny,
            0.5,
            0.5 + tiny,
            0.75,
            1.0 - tiny,
        ];
        for &u1 in &edges1 {
            for &u2 in &edges2 {
                check(u1, u2);
            }
        }
        let mut rng = SimRng::new(5);
        for _ in 0..200_000 {
            let u1 = 1.0 - rng.f64();
            // Half the draws near u1 = 1 and in the deep tail.
            let u1 = match rng.below(4) {
                0 => 1.0 - u1 * 1e-9,
                1 => (u1 * 1e-12).max(tiny),
                _ => u1,
            };
            check(u1, rng.f64());
        }
        assert_eq!(fast(1.0, 0.3), 0.0, "ln 1 is exactly zero");
        assert!(worst > 0.0, "the approximation is not libm");
    }

    #[test]
    fn grain_with_every_pixel_exact_matches_naive() {
        // A guard of one half puts every fraction inside the band.
        let mut rng = SimRng::new(11);
        let base = shades(&mut rng);
        for (grain, noise) in [(2.0, 0.01), (8.0, 0.0), (0.3, 0.02)] {
            let (mut fast, mut naive) = (base.clone(), base.clone());
            let mut naive_rng = rng.clone();
            let exact = add_grain(&mut fast, grain, noise, &mut rng, 0.5);
            crate::reference::grain(&mut naive, grain, noise, &mut naive_rng);
            assert_eq!(exact, base.len(), "grain {grain}");
            assert_eq!(fast, naive, "grain {grain}");
            assert_eq!(rng, naive_rng, "grain {grain}");
        }
    }

    #[test]
    fn grain_matches_naive_off_the_fast_path() {
        // Shades across the whole range under no grain, grain the clamp
        // cuts, grain so large its band covers everything, and grain no
        // arithmetic survives.
        let mut rng = SimRng::new(13);
        let base = shades(&mut rng);
        for (grain, all_exact) in [
            (0.0, false),
            (1.5, false),
            (150.0, false),
            (1e7, true),
            (f64::INFINITY, true),
        ] {
            let (mut fast, mut naive) = (base.clone(), base.clone());
            let mut naive_rng = rng.clone();
            let exact = add_grain(&mut fast, grain, 0.01, &mut rng, GUARD_BAND);
            crate::reference::grain(&mut naive, grain, 0.01, &mut naive_rng);
            assert_eq!(fast, naive, "grain {grain}");
            assert_eq!(rng, naive_rng, "grain {grain}");
            assert_eq!(
                exact == base.len(),
                all_exact,
                "grain {grain}: {exact} exact"
            );
        }
        // A NaN grain is no grain, as `grain > 0.0` always said.
        let mut fast = base.clone();
        assert_eq!(add_grain(&mut fast, f64::NAN, 0.0, &mut rng, GUARD_BAND), 0);
        assert_eq!(fast, base);
    }

    #[test]
    fn values_in_the_guard_band_take_the_exact_path() {
        // u2 = 0 makes the cosine 1, so u1 = exp(-r²/2) puts the normal at
        // r: shade 100 under grain 4 lands on 103.5 for r = 0.875, as
        // close as an f64 `u1` allows — far inside the band, and on
        // whichever side of the tie libm says. Offsets of 0.9 band fall
        // just inside the band, of 2 bands well outside it.
        let grain = 4.0;
        let band = grain_band(GUARD_BAND, grain);
        let u1_for = |r: f64| (-r * r / 2.0).exp();
        let value = |u1: f64| 100.0 + grain * (-2.0 * u1.ln()).sqrt();
        let naive = |p: u8, u1: f64| {
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * 0.0f64).cos();
            (p as f64 + (0.0 + grain * z)).round().clamp(0.0, 255.0) as u8
        };
        let at = |bands: f64| u1_for(0.875 + bands * band / grain);
        let u1 = [
            u1_for(0.875),
            u1_for(0.8),
            u1_for(0.875 + 1e-8),
            u1_for(0.875 - 1e-8),
            at(0.9),
            at(-0.9),
        ];
        for &u1 in &u1[4..] {
            let off = (value(u1) - 103.5).abs() / band;
            assert!((0.85..0.95).contains(&off), "{off} bands");
        }
        let mut row = [100u8; 6];
        let exact = grain_row(&mut row, &u1, &[0.0; 6], grain, band);
        assert_eq!(exact, 5, "all but 103.2");
        for (i, &got) in row.iter().enumerate() {
            assert_eq!(got, naive(100, u1[i]), "pixel {i}");
        }
        assert_eq!(row[1..], [103, 104, 103, 104, 103]);
        // Twice the band out on either side the fast path decides.
        let u1 = [at(2.0), at(-2.0)];
        for &u1 in &u1 {
            let off = (value(u1) - 103.5).abs() / band;
            assert!((1.95..2.05).contains(&off), "{off} bands");
        }
        let mut row = [100u8; 2];
        assert_eq!(grain_row(&mut row, &u1, &[0.0; 2], grain, band), 0);
        assert_eq!(row, [104, 103]);
    }
}
