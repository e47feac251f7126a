//! A 5×7 bitmap font.
//!
//! The glyph shapes are chosen so that the confusion pairs the paper reports
//! for real OCR on 75-dpi footage arise organically here: **8** differs from
//! **B** in a handful of pixels (and from **S** under blur), **0** differs
//! from **O** only in its inner diagonal, and **4** shares its diagonal
//! stroke pattern with **A**. Lowercase glyphs cover the HUD decorations the
//! games draw around the number ("ms", "ping", "latency") plus a clock's
//! colon.

use crate::image::Image;

/// Glyph width in font units.
pub const GLYPH_W: usize = 5;
/// Glyph height in font units.
pub const GLYPH_H: usize = 7;
/// Horizontal spacing between glyphs, in font units.
pub const GLYPH_SPACING: usize = 1;

/// A 5×7 glyph: 7 rows of 5 bits each (MSB-left in the low 5 bits).
pub(crate) type Glyph = [u8; GLYPH_H];

/// Look up the glyph for a character. Returns `None` for unsupported
/// characters (they render as blank space).
pub fn glyph(c: char) -> Option<Glyph> {
    let g: Glyph = match c {
        '0' => [
            0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110,
        ],
        '1' => [
            0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110,
        ],
        '2' => [
            0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111,
        ],
        '3' => [
            0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110,
        ],
        '4' => [
            0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010,
        ],
        '5' => [
            0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110,
        ],
        '6' => [
            0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110,
        ],
        '7' => [
            0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000,
        ],
        '8' => [
            0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110,
        ],
        '9' => [
            0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100,
        ],
        // Confusable capitals (§3.2: "mistake 8 for B or S, 0 for O, 4 for A").
        'O' => [
            0b01110, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110,
        ],
        'B' => [
            0b11110, 0b10001, 0b10001, 0b11110, 0b10001, 0b10001, 0b11110,
        ],
        'S' => [
            0b01111, 0b10000, 0b10000, 0b01110, 0b00001, 0b00001, 0b11110,
        ],
        'A' => [
            0b00100, 0b01010, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001,
        ],
        // Lowercase for HUD decorations.
        'm' => [
            0b00000, 0b00000, 0b11010, 0b10101, 0b10101, 0b10101, 0b10101,
        ],
        's' => [
            0b00000, 0b00000, 0b01111, 0b10000, 0b01110, 0b00001, 0b11110,
        ],
        'p' => [
            0b00000, 0b00000, 0b11110, 0b10001, 0b11110, 0b10000, 0b10000,
        ],
        'i' => [
            0b00100, 0b00000, 0b01100, 0b00100, 0b00100, 0b00100, 0b01110,
        ],
        'n' => [
            0b00000, 0b00000, 0b10110, 0b11001, 0b10001, 0b10001, 0b10001,
        ],
        'g' => [
            0b00000, 0b00000, 0b01111, 0b10001, 0b01111, 0b00001, 0b01110,
        ],
        'l' => [
            0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110,
        ],
        'a' => [
            0b00000, 0b00000, 0b01110, 0b00001, 0b01111, 0b10001, 0b01111,
        ],
        't' => [
            0b01000, 0b01000, 0b11110, 0b01000, 0b01000, 0b01001, 0b00110,
        ],
        'e' => [
            0b00000, 0b00000, 0b01110, 0b10001, 0b11111, 0b10000, 0b01110,
        ],
        'c' => [
            0b00000, 0b00000, 0b01110, 0b10001, 0b10000, 0b10001, 0b01110,
        ],
        'y' => [
            0b00000, 0b00000, 0b10001, 0b10001, 0b01111, 0b00001, 0b01110,
        ],
        ':' => [
            0b00000, 0b00100, 0b00100, 0b00000, 0b00100, 0b00100, 0b00000,
        ],
        ' ' => [0; 7],
        _ => return None,
    };
    Some(g)
}

/// All characters the OCR template banks know about. Digits first, then the
/// confusable capitals, then HUD lowercase and the colon.
pub(crate) const TEMPLATE_CHARS: &[char] = &[
    '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'O', 'B', 'S', 'A', 'm', 's', 'p', 'i', 'n',
    'g', 'l', 'a', 't', 'e', 'c', 'y', ':',
];

/// Render `text` into a fresh image at integer `scale` (each font unit
/// becomes a `scale × scale` block), with the given foreground/background
/// shades. Unsupported characters render as spaces.
pub(crate) fn rasterize(text: &str, scale: usize, fg: u8, bg: u8) -> Image {
    let scale = scale.max(1);
    let n = text.chars().count();
    let width = if n == 0 {
        0
    } else {
        (n * (GLYPH_W + GLYPH_SPACING) - GLYPH_SPACING) * scale
    };
    let mut img = Image::filled(width.max(1), GLYPH_H * scale, bg);
    let mut x0 = 0usize;
    for c in text.chars() {
        if let Some(g) = glyph(c) {
            for (row, bits) in g.iter().enumerate() {
                for col in 0..GLYPH_W {
                    if bits & (1 << (GLYPH_W - 1 - col)) != 0 {
                        // Fill the scale×scale block.
                        for dy in 0..scale {
                            for dx in 0..scale {
                                img.set((x0 + col) * scale + dx, row * scale + dy, fg);
                            }
                        }
                    }
                }
            }
        }
        x0 += GLYPH_W + GLYPH_SPACING;
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hamming distance between two glyph bitmaps (number of differing pixels).
    fn glyph_distance(a: &Glyph, b: &Glyph) -> u32 {
        a.iter()
            .zip(b)
            .map(|(&ra, &rb)| ((ra ^ rb) & 0b11111).count_ones())
            .sum()
    }

    #[test]
    fn all_template_chars_have_glyphs() {
        for &c in TEMPLATE_CHARS {
            assert!(glyph(c).is_some(), "missing glyph for {c:?}");
        }
        assert!(glyph(' ').is_some());
        assert!(glyph('€').is_none());
    }

    #[test]
    fn glyphs_fit_five_bits() {
        for &c in TEMPLATE_CHARS {
            for row in glyph(c).unwrap() {
                assert!(row < 32, "{c:?} row {row:#b} exceeds 5 bits");
            }
        }
    }

    #[test]
    fn confusion_pairs_are_close_but_distinct() {
        let d8b = glyph_distance(&glyph('8').unwrap(), &glyph('B').unwrap());
        let d0o = glyph_distance(&glyph('0').unwrap(), &glyph('O').unwrap());
        let d8_0 = glyph_distance(&glyph('8').unwrap(), &glyph('0').unwrap());
        assert!(d8b > 0 && d8b <= 6, "8 vs B distance {d8b}");
        assert!(d0o > 0 && d0o <= 6, "0 vs O distance {d0o}");
        assert!(d8_0 > 0, "distinct digits must differ");
        // Non-confusable pairs are far apart.
        let d1_8 = glyph_distance(&glyph('1').unwrap(), &glyph('8').unwrap());
        assert!(d1_8 > 8, "1 vs 8 distance {d1_8}");
    }

    #[test]
    fn digits_pairwise_distinct() {
        for a in '0'..='9' {
            for b in '0'..='9' {
                if a != b {
                    let d = glyph_distance(&glyph(a).unwrap(), &glyph(b).unwrap());
                    assert!(d >= 3, "{a} vs {b} too close: {d}");
                }
            }
        }
    }

    #[test]
    fn rasterize_dimensions() {
        let img = rasterize("45ms", 2, 0, 255);
        // 4 chars: 4*(5+1)-1 = 23 units wide, 7 tall; ×2.
        assert_eq!((img.width, img.height), (46, 14));
        assert!(img.pixels.contains(&0), "some foreground drawn");
        let empty = rasterize("", 1, 0, 255);
        assert_eq!(empty.height, GLYPH_H);
    }

    #[test]
    fn rasterize_scale_one_matches_glyph() {
        let img = rasterize("1", 1, 0, 255);
        let g = glyph('1').unwrap();
        for (row, bits) in g.iter().enumerate() {
            for col in 0..GLYPH_W {
                let expect = if bits & (1 << (GLYPH_W - 1 - col)) != 0 {
                    0
                } else {
                    255
                };
                assert_eq!(img.get(col, row), expect, "pixel ({col},{row})");
            }
        }
    }
}
