//! The App. E pre-processing pipeline.
//!
//! "(b) It performs a set of standard tasks that render OCR more effective:
//! converts the image to black-and-white, up-scales, applies a Gaussian
//! filter to blur the edges and reduce noise, applies thresholding to
//! separate foreground and background, and runs several iterations of
//! dilating and eroding the image in order to merge disjoint regions
//! [40, 54]."

use crate::bits::BitImage;
use crate::image::Image;

/// Parameters of the pre-processing pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessConfig {
    /// Integer upscale factor applied before blurring.
    pub upscale: usize,
    /// Gaussian blur radius (0 disables blurring).
    pub blur_radius: usize,
    /// Number of dilate+erode (closing) iterations after thresholding.
    pub morph_iterations: usize,
    /// Run a morphological opening (two erosions then two dilations) after
    /// closing, removing isolated noise specks that survive the closing.
    pub despeckle: bool,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            upscale: 3,
            blur_radius: 1,
            morph_iterations: 1,
            despeckle: true,
        }
    }
}

/// Run the full pipeline: upscale → Gaussian blur → Otsu threshold →
/// morphological closing. The output is binary: 0 (foreground/ink) and
/// 255 (background).
pub fn preprocess(img: &Image, cfg: &PreprocessConfig) -> Image {
    let gray = preprocess_gray(img, cfg);
    finish_binary(&gray, 1.0, cfg)
}

/// The shared grayscale stages: upscale and blur. Real OCR engines then
/// binarize with their *own* thresholding policies, which is where part of
/// their complementary behaviour comes from (§3.2) — see
/// [`finish_binary`].
pub fn preprocess_gray(img: &Image, cfg: &PreprocessConfig) -> Image {
    let mut out = img.upscale(cfg.upscale.max(1));
    if cfg.blur_radius > 0 {
        out = gaussian_blur(&out, cfg.blur_radius);
    }
    out
}

/// Binarize a grayscale image at `threshold_factor × Otsu` and apply the
/// configured morphology. A factor below 1 is a *strict* policy: faint
/// (noise- or blur-degraded) strokes fall below the cutoff and vanish.
pub fn finish_binary(gray: &Image, threshold_factor: f64, cfg: &PreprocessConfig) -> Image {
    let (mut bits, mut spare) = (BitImage::default(), BitImage::default());
    let otsu = otsu_threshold(gray);
    finish_bits(gray, otsu, threshold_factor, cfg, &mut bits, &mut spare);
    bits.to_image()
}

/// [`finish_binary`] on packed bits, given the image's Otsu threshold: the
/// result lands in `bits`; `spare` is the other half of the ping-pong.
pub(crate) fn finish_bits(
    gray: &Image,
    otsu: u8,
    threshold_factor: f64,
    cfg: &PreprocessConfig,
    bits: &mut BitImage,
    spare: &mut BitImage,
) {
    let t = (otsu as f64 * threshold_factor).round().clamp(0.0, 255.0) as u8;
    bits.pack(gray, t);
    let mut pass = |dilate: bool| {
        bits.morph_into(spare, dilate);
        std::mem::swap(bits, spare);
    };
    for _ in 0..cfg.morph_iterations {
        pass(true);
        pass(false);
    }
    if cfg.despeckle {
        pass(false);
        pass(false);
        pass(true);
        pass(true);
    }
}

/// Working buffers of one extraction, allocated once and reused by every
/// engine on both passes.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Output of the median filter.
    pub(crate) denoised: Image,
    /// Output of the Gaussian blur.
    pub(crate) smoothed: Image,
    /// The blur's `f32` working rows.
    pub(crate) blur_buf: Vec<f32>,
    /// The binary stage and its ping-pong partner.
    pub(crate) bits: BitImage,
    pub(crate) spare: BitImage,
}

/// Separable Gaussian blur with the given radius (σ ≈ radius/1.5), using a
/// discretised kernel normalised to unit sum.
pub fn gaussian_blur(img: &Image, radius: usize) -> Image {
    let mut out = Image::default();
    blur_into(img, radius, BLUR_GUARD, &mut Vec::new(), &mut out);
    out
}

/// Guard band of the blur per `taps + 1`: `2 · 256 · 2⁻²⁴`. See
/// [`blur_into`] for the bound it covers.
pub(crate) const BLUR_GUARD: f32 = 2.0 * 256.0 / 16_777_216.0;

/// [`gaussian_blur`] into caller-owned buffers; returns how many pixels
/// took the exact path.
///
/// The result is, pixel for pixel, the textbook `f64` blur: each
/// horizontal sum `Σ k_i · p` taken in kernel order and divided by
/// `ksum`, the vertical sum of those taken the same way, divided again,
/// then `round().clamp(0, 255)`. That is what `reference::gaussian_blur`
/// computes, and it is within `2(t+1) · 2⁻⁵³ · 255` of the real value for
/// `t` taps.
///
/// Since the output is a `u8`, only a pixel near a rounding boundary
/// needs that sequence. Every pixel is first blurred in `f32`, tap by tap
/// over whole rows (so the loops are plain `a[x] += w · b[x]` over
/// slices), with weights `(k_i / ksum) as f32` and no divides. A weight
/// is then within `2⁻²⁴` of its real value relatively and a `t`-term sum
/// within `γ_t ≈ t · 2⁻²⁴` of its own, so for inputs in `0..=255` each
/// pass adds at most `(t + 1) · 2⁻²⁴ · 255` and the `f32` result is
/// within `2(t + 1) · 2⁻²⁴ · 255` of the real value (≈ 1.8e-4 at radius
/// 2), to first order. The band is that bound with 256 for 255,
/// `guard · (t + 1)` with `guard` = [`BLUR_GUARD`]: the extra
/// `2(t + 1) · 2⁻²⁴` covers the second-order terms and the `f64` error
/// for every `t` whose band is under ½. A pixel whose `f32` value lies
/// farther than the band from a half-integer rounds as the `f64` one
/// does; one inside it is recomputed by the reference expression. A
/// guard large enough to make the band ½ sends every pixel down that
/// exact path.
pub(crate) fn blur_into(
    img: &Image,
    radius: usize,
    guard: f32,
    buf: &mut Vec<f32>,
    out: &mut Image,
) -> usize {
    let (w, h) = (img.width, img.height);
    out.reshape(w, h);
    if radius == 0 || w == 0 || h == 0 {
        out.pixels.copy_from_slice(&img.pixels);
        return 0;
    }
    let kernel = gaussian_kernel(radius);
    let ksum: f64 = kernel.iter().sum();
    let weights: Vec<f32> = kernel.iter().map(|&k| (k / ksum) as f32).collect();
    let taps = kernel.len();
    // A pixel is decided in `f32` when its distance to the nearest
    // half-integer exceeds the band: when `|f| < 0.5 - band` for the
    // residual `f` of rounding to the nearest integer. A band of ½ or
    // more decides none.
    let limit = 0.5 - guard * (taps + 1) as f32;

    // Three regions, each fully overwritten before it is read: a ring of
    // the `taps` horizontally blurred rows the vertical pass is reading
    // (row `y` lives in slot `y % taps`), one padded source row, one
    // output row.
    buf.resize(taps * w + (w + 2 * radius) + w, 0.0);
    let (ring, rest) = buf.split_at_mut(taps * w);
    let (padded, acc) = rest.split_at_mut(w + 2 * radius);
    let slot = |y: usize| (y % taps) * w..(y % taps + 1) * w;

    let mut exact = 0;
    let mut blurred = 0; // source rows that have been through the horizontal pass
    for (y, dst) in out.pixels.chunks_exact_mut(w).enumerate() {
        // Horizontal pass, up to the lowest row this output row reads; each
        // source row is padded by repeating its edge pixels.
        while blurred <= (y + radius).min(h - 1) {
            let src = &img.pixels[blurred * w..(blurred + 1) * w];
            if blurred > 0 && src == &img.pixels[(blurred - 1) * w..blurred * w] {
                // Equal to the row above (two rows in three are, after an
                // integer upscale): same result.
                ring.copy_within(slot(blurred - 1), slot(blurred).start);
            } else {
                padded[..radius].fill(src[0] as f32);
                for (p, &s) in padded[radius..radius + w].iter_mut().zip(src) {
                    *p = s as f32;
                }
                padded[radius + w..].fill(src[w - 1] as f32);
                let row = &mut ring[slot(blurred)];
                for (i, &k) in weights.iter().enumerate() {
                    accumulate(row, k, &padded[i..i + w], i == 0);
                }
            }
            blurred += 1;
        }
        // Vertical pass, rows clamped at the top and bottom edge.
        for (i, &k) in weights.iter().enumerate() {
            let sy = (y + i).saturating_sub(radius).min(h - 1);
            accumulate(acc, k, &ring[slot(sy)], i == 0);
        }
        // Round by the 1.5 · 2²³ shift: `a + SHIFT` lands where one unit
        // is the last mantissa bit, so its low byte is `a` rounded to the
        // nearest integer (every value here is in `0..256`), and taking
        // `SHIFT` off again leaves that integer exactly.
        const SHIFT: f32 = 12_582_912.0;
        let mut near = 0u32;
        for (d, &a) in dst.iter_mut().zip(acc.iter()) {
            let shifted = a + SHIFT;
            *d = shifted.to_bits() as u8;
            near += ((a - (shifted - SHIFT)).abs() >= limit) as u32;
        }
        if near > 0 {
            for (x, (d, &a)) in dst.iter_mut().zip(acc.iter()).enumerate() {
                if (a - ((a + SHIFT) - SHIFT)).abs() >= limit {
                    *d = round_to_u8(exact_value(img, &kernel, ksum, x, y));
                }
            }
            exact += near as usize;
        }
    }
    exact
}

/// The `2 · radius + 1` taps of the blur, unnormalised: σ = radius / 1.5.
fn gaussian_kernel(radius: usize) -> Vec<f64> {
    let sigma = radius as f64 / 1.5;
    (-(radius as i64)..=(radius as i64))
        .map(|d| (-(d as f64).powi(2) / (2.0 * sigma * sigma)).exp())
        .collect()
}

/// One kernel tap over a whole row: `acc[x] += k * src[x]`, the first
/// tap a store.
#[inline]
fn accumulate(acc: &mut [f32], k: f32, src: &[f32], first: bool) {
    if first {
        for (a, &s) in acc.iter_mut().zip(src) {
            *a = k * s;
        }
    } else {
        for (a, &s) in acc.iter_mut().zip(src) {
            *a += k * s;
        }
    }
}

/// Pixel `(x, y)` of the blur before rounding, by the `f64` reference
/// expression operation for operation: each row's horizontal taps in
/// kernel order, `/ ksum`, then the vertical taps over those, `/ ksum`.
#[cold]
fn exact_value(img: &Image, kernel: &[f64], ksum: f64, x: usize, y: usize) -> f64 {
    let (w, h, radius) = (img.width, img.height, kernel.len() / 2);
    let mut v = 0.0;
    for (i, &ki) in kernel.iter().enumerate() {
        let sy = (y + i).saturating_sub(radius).min(h - 1);
        let row = &img.pixels[sy * w..(sy + 1) * w];
        let mut sum = 0.0;
        for (j, &kj) in kernel.iter().enumerate() {
            sum += kj * row[(x + j).saturating_sub(radius).min(w - 1)] as f64;
        }
        v += ki * (sum / ksum);
    }
    v / ksum
}

/// `v.round().clamp(0.0, 255.0) as u8` without the libm call or a
/// float-to-int conversion. Adding 2^52 leaves `v` rounded half-to-even in
/// the low mantissa bits; taking it off again gives that integer back as an
/// `f64`, and the one case where half-to-even and `round` (half away from
/// zero) differ — a tie that went down — is an exact comparison.
#[inline]
pub(crate) fn round_to_u8(v: f64) -> u8 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let v = v.clamp(0.0, 255.0);
    let shifted = v + TWO_52;
    let tie_went_down = v - (shifted - TWO_52) == 0.5;
    shifted.to_bits() as u8 + tie_went_down as u8
}

/// 3×3 median filter — the classic salt-and-pepper denoiser: isolated
/// extreme pixels are replaced by their neighbourhood median while edges
/// and 6-px strokes survive intact.
pub fn median3(img: &Image) -> Image {
    let mut out = Image::default();
    median3_into(img, &mut out);
    out
}

/// [`median3`] into a caller-owned buffer.
pub(crate) fn median3_into(img: &Image, out: &mut Image) {
    let (w, h) = (img.width, img.height);
    out.reshape(w, h);
    out.pixels.copy_from_slice(&img.pixels);
    if w < 3 || h < 3 {
        return;
    }
    for y in 1..h - 1 {
        let above = &img.pixels[(y - 1) * w..y * w];
        let row = &img.pixels[y * w..(y + 1) * w];
        let below = &img.pixels[(y + 1) * w..(y + 2) * w];
        let dst = &mut out.pixels[y * w + 1..(y + 1) * w - 1];
        // Nine equally long slices, one per window position, so the loop
        // body is the same nine loads and min/max ladder at every x.
        let n = dst.len();
        let (a0, a1, a2) = (&above[..n], &above[1..n + 1], &above[2..n + 2]);
        let (b0, b1, b2) = (&row[..n], &row[1..n + 1], &row[2..n + 2]);
        let (c0, c1, c2) = (&below[..n], &below[1..n + 1], &below[2..n + 2]);
        for x in 0..n {
            dst[x] = median9([
                a0[x], a1[x], a2[x], b0[x], b1[x], b2[x], c0[x], c1[x], c2[x],
            ]);
        }
    }
}

/// Median of nine by the 19-exchange network (Paeth; Devillard's
/// `opt_med9`): branch-free min/max pairs instead of a sort.
#[inline(always)]
fn median9(p: [u8; 9]) -> u8 {
    let [mut p0, mut p1, mut p2, mut p3, mut p4, mut p5, mut p6, mut p7, mut p8] = p;
    macro_rules! sort {
        ($a:ident, $b:ident) => {
            ($a, $b) = ($a.min($b), $a.max($b));
        };
    }
    sort!(p1, p2);
    sort!(p4, p5);
    sort!(p7, p8);
    sort!(p0, p1);
    sort!(p3, p4);
    sort!(p6, p7);
    sort!(p1, p2);
    sort!(p4, p5);
    sort!(p7, p8);
    sort!(p0, p3);
    sort!(p5, p8);
    sort!(p4, p7);
    sort!(p3, p6);
    sort!(p1, p4);
    sort!(p2, p5);
    sort!(p4, p7);
    sort!(p4, p2);
    sort!(p6, p4);
    sort!(p4, p2);
    let _ = (p0, p1, p2, p3, p5, p6, p7, p8);
    p4
}

/// Otsu's method \[40\]: the threshold that maximises between-class variance
/// of the gray-level histogram.
#[allow(clippy::needless_range_loop)]
pub fn otsu_threshold(img: &Image) -> u8 {
    let mut hist = [0u64; 256];
    for &p in &img.pixels {
        hist[p as usize] += 1;
    }
    let total = img.pixels.len() as f64;
    if total == 0.0 {
        return 128;
    }
    let sum_all: f64 = hist
        .iter()
        .enumerate()
        .map(|(v, &c)| v as f64 * c as f64)
        .sum();

    let mut best_t = 128u8;
    let mut best_var = -1.0;
    let mut w0 = 0.0;
    let mut sum0 = 0.0;
    for t in 0..256 {
        w0 += hist[t] as f64;
        if w0 == 0.0 {
            continue;
        }
        let w1 = total - w0;
        if w1 == 0.0 {
            break;
        }
        sum0 += t as f64 * hist[t] as f64;
        let mu0 = sum0 / w0;
        let mu1 = (sum_all - sum0) / w1;
        let var = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
        if var > best_var {
            best_var = var;
            best_t = t as u8;
        }
    }
    best_t
}

/// Binarize: pixels at or below the threshold become 0 (ink), the rest 255.
pub fn binarize(img: &Image, threshold: u8) -> Image {
    BitImage::packed(img, threshold).to_image()
}

/// Morphological dilation of the *ink* (0) regions with a 3×3 structuring
/// element: a pixel becomes ink if any 8-neighbour is ink.
pub fn dilate(img: &Image) -> Image {
    morph(img, true)
}

/// Morphological erosion of the ink regions: a pixel stays ink only if all
/// 8-neighbours are ink.
pub fn erode(img: &Image) -> Image {
    morph(img, false)
}

fn morph(img: &Image, dilate: bool) -> Image {
    let mut out = BitImage::default();
    BitImage::packed(img, 0).morph_into(&mut out, dilate);
    out.to_image()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::font::rasterize;

    #[test]
    fn otsu_separates_bimodal_image() {
        let mut img = Image::filled(10, 10, 200);
        img.fill_rect(0, 0, 5, 10, 30);
        let t = otsu_threshold(&img);
        assert!((30..200).contains(&t), "threshold {t}");
        let bin = binarize(&img, t);
        assert_eq!(bin.get(0, 0), 0);
        assert_eq!(bin.get(9, 9), 255);
    }

    #[test]
    fn otsu_on_empty_image_is_safe() {
        let img = Image::filled(0, 0, 0);
        assert_eq!(otsu_threshold(&img), 128);
    }

    #[test]
    fn blur_preserves_mean_roughly() {
        let mut img = Image::filled(20, 20, 0);
        img.fill_rect(5, 5, 10, 10, 200);
        let blurred = gaussian_blur(&img, 2);
        let m0 = img.mean().unwrap();
        let m1 = blurred.mean().unwrap();
        assert!((m0 - m1).abs() < 10.0, "{m0} vs {m1}");
        // Edges are softened: some pixels now between 0 and 200.
        let mids = blurred
            .pixels
            .iter()
            .filter(|&&p| p > 20 && p < 180)
            .count();
        assert!(mids > 0);
    }

    /// Random gray, then rendered text with specks, each at the sizes the
    /// edge clamps and the row copy care about.
    fn blur_inputs() -> Vec<Image> {
        let mut rng = tero_types::SimRng::new(5);
        let mut images = Vec::new();
        for (w, h) in [(1, 1), (2, 7), (5, 3), (64, 9), (70, 26)] {
            let mut img = Image::filled(w, h, 0);
            img.pixels
                .iter_mut()
                .for_each(|p| *p = rng.range_u64(0, 256) as u8);
            images.push(img.clone());
            images.push(img.upscale(3));
        }
        let mut text = Image::filled(70, 26, 230);
        text.blit(&rasterize("87ms", 2, 20, 230), 4, 4);
        text.set(50, 20, 0);
        images.push(text.upscale(3));
        images
    }

    #[test]
    fn blur_with_every_pixel_exact_matches_fast_and_reference() {
        // A guard of one half puts every residual inside the band.
        let mut buf = Vec::new();
        for img in blur_inputs() {
            for radius in 1..=3 {
                let (mut exact, mut fast) = (Image::default(), Image::default());
                let n = blur_into(&img, radius, 0.5, &mut buf, &mut exact);
                blur_into(&img, radius, BLUR_GUARD, &mut buf, &mut fast);
                let at = format!("radius {radius} {}x{}", img.width, img.height);
                assert_eq!(n, img.pixels.len(), "{at}");
                assert_eq!(exact, fast, "{at}");
                assert_eq!(exact, crate::reference::gaussian_blur(&img, radius), "{at}");
            }
        }
    }

    #[test]
    fn values_in_the_guard_band_take_the_exact_path() {
        // A 5×5 patch, zero but for a 2×2 block right of and below its
        // centre, all of which radius 2 reads there. The blocks were
        // searched for: the centre's `f64` value lies 7e-11 under 22.5 and
        // 1.3e-12 over 18.5 (far inside the band, on the side only that
        // sequence knows), or 4.2e-4 over 12.5 and under 10.5 (about twice
        // the band, just outside it).
        let (kernel, radius) = (gaussian_kernel(2), 2);
        let ksum: f64 = kernel.iter().sum();
        let band = (BLUR_GUARD * (kernel.len() + 1) as f32) as f64;
        let mut buf = Vec::new();
        for (block, half, offset, want, exact) in [
            ([[232, 43], [42, 47]], 22.5, -1e-7..0.0, 22, 1),
            ([[7, 243], [138, 89]], 18.5, 0.0..1e-7, 19, 1),
            ([[0, 0], [117, 237]], 12.5, 2.0 * band..3.0 * band, 13, 0),
            ([[0, 0], [94, 209]], 10.5, -3.0 * band..-2.0 * band, 10, 0),
        ] {
            let mut img = Image::filled(5, 5, 0);
            for (dy, row) in block.iter().enumerate() {
                for (dx, &p) in row.iter().enumerate() {
                    img.set(3 + dx, 2 + dy, p);
                }
            }
            let v = exact_value(&img, &kernel, ksum, 2, 2);
            assert!(offset.contains(&(v - half)), "{block:?}: {v}");
            let mut out = Image::default();
            let n = blur_into(&img, radius, BLUR_GUARD, &mut buf, &mut out);
            assert_eq!((n, out.get(2, 2)), (exact, want), "{block:?}");
            assert_eq!(
                out,
                crate::reference::gaussian_blur(&img, radius),
                "{block:?}"
            );
        }
    }

    #[test]
    fn dilate_then_erode_closes_gaps() {
        // Two ink pixels with a 1-px gap: closing merges them.
        let mut img = Image::filled(9, 3, 255);
        img.set(2, 1, 0);
        img.set(4, 1, 0);
        let closed = erode(&dilate(&img));
        assert_eq!(closed.get(3, 1), 0, "gap filled");
        assert_eq!(closed.get(2, 1), 0);
    }

    #[test]
    fn erode_removes_isolated_pixels() {
        let mut img = Image::filled(9, 9, 255);
        img.set(4, 4, 0);
        let eroded = erode(&img);
        assert_eq!(eroded.count_below(128), 0);
    }

    #[test]
    fn median_filter_kills_specks_keeps_strokes() {
        let mut img = Image::filled(30, 30, 230);
        // A 6-px-wide stroke and an isolated dark pixel.
        img.fill_rect(5, 5, 6, 20, 20);
        img.set(20, 20, 0);
        let m = median3(&img);
        assert_eq!(m.get(20, 20), 230, "speck removed");
        assert_eq!(m.get(7, 10), 20, "stroke interior intact");
        assert_eq!(m.get(5, 10), 20, "stroke edge intact");
        // Tiny images pass through.
        let tiny = Image::filled(2, 2, 9);
        assert_eq!(median3(&tiny), tiny);
    }

    #[test]
    fn threshold_factor_changes_faint_stroke_survival() {
        // Faint text on a light panel: Otsu lands between the two light
        // modes, so a strict (sub-1) factor loses the text while the
        // standard factor keeps it — the per-engine differentiation lever
        // behind Table 4's distinct miss rates.
        let text = rasterize("45", 2, 205, 230);
        let mut canvas = Image::filled(40, 22, 230);
        canvas.blit(&text, 4, 4);
        let cfg = PreprocessConfig::default();
        let gray = preprocess_gray(&canvas, &cfg);
        let strict = finish_binary(&gray, 0.82, &cfg);
        let standard = finish_binary(&gray, 1.0, &cfg);
        assert!(
            standard.count_below(128) > strict.count_below(128),
            "standard threshold must keep more faint ink: {} vs {}",
            standard.count_below(128),
            strict.count_below(128)
        );
        assert_eq!(strict.count_below(128), 0, "strict loses the faint text");
    }

    #[test]
    fn full_pipeline_keeps_text_legible() {
        let text = rasterize("45ms", 2, 20, 230);
        let mut canvas = Image::filled(70, 24, 230);
        canvas.blit(&text, 4, 4);
        let out = preprocess(&canvas, &PreprocessConfig::default());
        assert_eq!(out.width, 70 * 3);
        // Binary output only.
        assert!(out.pixels.iter().all(|&p| p == 0 || p == 255));
        // Ink present in sensible quantity.
        let ink = out.count_below(128);
        let frac = ink as f64 / out.pixels.len() as f64;
        assert!(frac > 0.02 && frac < 0.5, "ink fraction {frac}");
    }

    #[test]
    fn pipeline_on_low_contrast_input_loses_text() {
        // A light font on a light panel mostly vanishes after thresholding —
        // the Fig 6b failure mode.
        let text = rasterize("45ms", 2, 215, 230);
        let mut canvas = Image::filled(70, 24, 230);
        canvas.blit(&text, 4, 4);
        // Add a dark gameplay block so Otsu anchors on the wrong mode.
        canvas.fill_rect(0, 18, 70, 6, 40);
        let out = preprocess(&canvas, &PreprocessConfig::default());
        // The text rows (above the dark block) have little to no ink.
        let text_region = out.crop(0, 0, 70 * 3, 17 * 3);
        let frac = text_region.count_below(128) as f64 / text_region.pixels.len() as f64;
        assert!(frac < 0.05, "low-contrast text should vanish, got {frac}");
    }
}
