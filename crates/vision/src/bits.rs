//! Packed binary images: the 1-bit stages of the pipeline (everything
//! after thresholding) held one bit per pixel, so a 3×3 morphology pass is
//! a handful of shifts per 64 pixels and an ink count is a `popcount`.

use crate::image::Image;

/// A binary image, one bit per pixel (1 = ink). Each row is padded to whole
/// `u64` words; pixel `x` of a row is bit `x % 64` of its word `x / 64`.
/// Bits past `width` in a row's last word are always zero, which is what
/// makes "outside the image is background" fall out of plain shifts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BitImage {
    pub(crate) width: usize,
    pub(crate) height: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
}

impl BitImage {
    /// A fresh image holding [`BitImage::pack`]'s result.
    pub(crate) fn packed(img: &Image, threshold: u8) -> BitImage {
        let mut bits = BitImage::default();
        bits.pack(img, threshold);
        bits
    }

    /// Binarize `img` into this buffer: pixels at or below `threshold` are
    /// ink. A threshold of 0 reads an already-binary image (0 = ink).
    pub(crate) fn pack(&mut self, img: &Image, threshold: u8) {
        self.reshape(img.width, img.height);
        if self.stride == 0 {
            return;
        }
        let rows = img.pixels.chunks_exact(img.width);
        for (src, dst) in rows.zip(self.words.chunks_exact_mut(self.stride)) {
            for (chunk, word) in src.chunks(64).zip(dst) {
                let mut w = 0u64;
                for (i, &p) in chunk.iter().enumerate() {
                    w |= ((p <= threshold) as u64) << i;
                }
                *word = w;
            }
        }
    }

    /// Unpack to the byte convention of the rest of the crate: 0 for ink,
    /// 255 for background.
    pub(crate) fn to_image(&self) -> Image {
        let mut out = Image::filled(self.width, self.height, 255);
        if self.stride == 0 {
            return out;
        }
        let rows = out.pixels.chunks_exact_mut(self.width);
        for (dst, src) in rows.zip(self.words.chunks_exact(self.stride)) {
            for (chunk, &word) in dst.chunks_mut(64).zip(src) {
                for (i, p) in chunk.iter_mut().enumerate() {
                    if word >> i & 1 == 1 {
                        *p = 0;
                    }
                }
            }
        }
        out
    }

    /// One 3×3 morphology pass into `out`: dilation makes a pixel ink if
    /// any of its 8 neighbours or itself is ink, erosion keeps it ink only
    /// if all nine are. Pixels outside the image count as background.
    pub(crate) fn morph_into(&self, out: &mut BitImage, dilate: bool) {
        out.reshape(self.width, self.height);
        let (s, h) = (self.stride, self.height);
        if s == 0 {
            return;
        }
        let op = |a: u64, b: u64, c: u64| if dilate { a | b | c } else { a & b & c };
        let tail = self.tail_mask();
        for (y, dst) in out.words.chunks_exact_mut(s).enumerate() {
            // Vertical: the row with the rows above and below it.
            for (w, d) in dst.iter_mut().enumerate() {
                let up = if y > 0 {
                    self.words[(y - 1) * s + w]
                } else {
                    0
                };
                let down = if y + 1 < h {
                    self.words[(y + 1) * s + w]
                } else {
                    0
                };
                *d = op(up, self.words[y * s + w], down);
            }
            // Horizontal, in place: each word with itself shifted one pixel
            // either way, carrying the edge bit across word boundaries.
            let mut prev = 0u64;
            for w in 0..s {
                let cur = dst[w];
                let next = if w + 1 < s { dst[w + 1] } else { 0 };
                dst[w] = op(cur << 1 | prev >> 63, cur, cur >> 1 | next << 63);
                prev = cur;
            }
            dst[s - 1] &= tail;
        }
    }

    /// Ink pixels of row `y` in columns `[x0, x1)`.
    pub(crate) fn count_row(&self, y: usize, x0: usize, x1: usize) -> usize {
        if x0 >= x1 {
            return 0;
        }
        let row = &self.words[y * self.stride..(y + 1) * self.stride];
        let (w0, w1) = (x0 / 64, (x1 - 1) / 64);
        let lo = !0u64 << (x0 % 64);
        let hi = !0u64 >> (63 - (x1 - 1) % 64);
        let ones = if w0 == w1 {
            (row[w0] & lo & hi).count_ones()
        } else {
            (row[w0] & lo).count_ones()
                + row[w0 + 1..w1].iter().map(|w| w.count_ones()).sum::<u32>()
                + (row[w1] & hi).count_ones()
        };
        ones as usize
    }

    /// The columns holding at least `k` ink pixels (`1 ≤ k ≤ 4`), as one
    /// packed row: a per-column counter kept as three bit-planes that
    /// saturates at 4, fed one image row at a time.
    pub(crate) fn columns_with_ink(&self, k: usize) -> Vec<u64> {
        debug_assert!((1..=4).contains(&k));
        let mut cols = vec![0u64; self.stride];
        for (w, col) in cols.iter_mut().enumerate() {
            let (mut c1, mut c2, mut c4) = (0u64, 0u64, 0u64);
            for y in 0..self.height {
                let row = self.words[y * self.stride + w];
                let carry1 = c1 & row;
                c1 ^= row;
                let carry2 = c2 & carry1;
                c2 ^= carry1;
                c4 |= carry2;
            }
            // Below 4 the low planes are exact; from 4 on `c4` is stuck.
            *col = match k {
                1 => c1 | c2 | c4,
                2 => c2 | c4,
                3 => c1 & c2 | c4,
                _ => c4,
            };
        }
        cols
    }

    fn reshape(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.stride = width.div_ceil(64);
        self.words.resize(self.stride * height, 0);
    }

    /// Mask of the valid bits in a row's last word.
    fn tail_mask(&self) -> u64 {
        match self.width % 64 {
            0 => !0,
            r => (1u64 << r) - 1,
        }
    }
}
