//! 8-bit grayscale raster images.

use serde::{Deserialize, Serialize};

/// An 8-bit grayscale image. Pixel `(x, y)` lives at `pixels[y * width + x]`;
/// 0 is black, 255 is white.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major pixel data, `width * height` bytes.
    pub pixels: Vec<u8>,
}

/// Bytes [`Image::into_payload`] puts before the pixels.
pub(crate) const PAYLOAD_HEADER: usize = 8;

impl Image {
    /// The stored form of a thumbnail: width and height as little-endian
    /// `u32`s, then the pixels. The header goes in front of the pixels in
    /// their own buffer, which moves them up in place when it was
    /// allocated with the header's eight bytes to spare (as
    /// [`crate::scene::HudScene::render`] does) and reallocates otherwise.
    pub fn into_payload(self) -> Vec<u8> {
        let mut header = [0u8; PAYLOAD_HEADER];
        header[..4].copy_from_slice(&(self.width as u32).to_le_bytes());
        header[4..].copy_from_slice(&(self.height as u32).to_le_bytes());
        let mut payload = self.pixels;
        payload.splice(0..0, header);
        payload
    }

    /// Decode [`Image::into_payload`]'s bytes. `None` for a short header
    /// or a pixel count that is not `width × height` (a truncated
    /// transfer keeps the header of the whole image).
    pub fn from_payload(bytes: &[u8]) -> Option<Image> {
        let (header, pixels) = bytes.split_at_checked(PAYLOAD_HEADER)?;
        let width = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
        let height = u32::from_le_bytes(header[4..].try_into().ok()?) as usize;
        (width.checked_mul(height) == Some(pixels.len())).then(|| Image {
            width,
            height,
            pixels: pixels.to_vec(),
        })
    }

    /// A new image filled with the given shade.
    pub fn filled(width: usize, height: usize, shade: u8) -> Self {
        Image {
            width,
            height,
            pixels: vec![shade; width * height],
        }
    }

    /// Resize in place to `width × height`, reusing the allocation; the
    /// pixel contents are unspecified until the caller overwrites them.
    pub(crate) fn reshape(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.pixels.resize(width * height, 0);
    }

    /// Pixel at `(x, y)`; panics when out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    /// Set pixel `(x, y)`; silently ignores out-of-bounds writes (callers
    /// draw shapes that may extend past the edge).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, shade: u8) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = shade;
        }
    }

    /// Fill the axis-aligned rectangle with corner `(x, y)` and the given
    /// size, clipped to the image.
    pub(crate) fn fill_rect(&mut self, x: usize, y: usize, w: usize, h: usize, shade: u8) {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        for yy in y.min(self.height)..y1 {
            for xx in x.min(self.width)..x1 {
                self.pixels[yy * self.width + xx] = shade;
            }
        }
    }

    /// Copy `src` into this image with its top-left corner at `(x, y)`,
    /// clipped to the destination.
    pub(crate) fn blit(&mut self, src: &Image, x: usize, y: usize) {
        for sy in 0..src.height {
            let dy = y + sy;
            if dy >= self.height {
                break;
            }
            for sx in 0..src.width {
                let dx = x + sx;
                if dx >= self.width {
                    break;
                }
                self.pixels[dy * self.width + dx] = src.pixels[sy * src.width + sx];
            }
        }
    }

    /// Extract the axis-aligned sub-image with corner `(x, y)` and the given
    /// size, clipped to the image bounds.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Image {
        let x0 = x.min(self.width);
        let y0 = y.min(self.height);
        let x1 = x.saturating_add(w).min(self.width);
        let y1 = y.saturating_add(h).min(self.height);
        let mut pixels = Vec::with_capacity((x1 - x0) * (y1 - y0));
        for yy in y0..y1 {
            pixels.extend_from_slice(&self.pixels[yy * self.width + x0..yy * self.width + x1]);
        }
        Image {
            width: x1 - x0,
            height: y1 - y0,
            pixels,
        }
    }

    /// Nearest-neighbour upscale by an integer factor.
    pub fn upscale(&self, factor: usize) -> Image {
        assert!(factor >= 1);
        let (width, height) = (self.width * factor, self.height * factor);
        let mut pixels = Vec::with_capacity(width * height);
        if width > 0 {
            for src in self.pixels.chunks_exact(self.width) {
                // Stretch the row once, then repeat it `factor` times.
                let start = pixels.len();
                for &p in src {
                    pixels.extend(std::iter::repeat_n(p, factor));
                }
                for _ in 1..factor {
                    pixels.extend_from_within(start..start + width);
                }
            }
        }
        Image {
            width,
            height,
            pixels,
        }
    }

    /// Mean pixel value (`None` for an empty image).
    pub fn mean(&self) -> Option<f64> {
        if self.pixels.is_empty() {
            return None;
        }
        Some(self.pixels.iter().map(|&p| p as f64).sum::<f64>() / self.pixels.len() as f64)
    }

    /// Render as ASCII art (dark pixels become `#`), used for the Fig 6
    /// example gallery.
    pub fn to_ascii(&self) -> String {
        let mut s = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let p = self.get(x, y);
                s.push(match p {
                    0..=63 => '#',
                    64..=127 => '+',
                    128..=191 => '.',
                    _ => ' ',
                });
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = Image::filled(4, 3, 255);
        assert_eq!(img.pixels.len(), 12);
        img.set(2, 1, 0);
        assert_eq!(img.get(2, 1), 0);
        // Out-of-bounds set is a no-op.
        img.set(100, 100, 7);
    }

    #[test]
    fn payload_roundtrip_and_rejections() {
        let mut img = Image::filled(3, 2, 9);
        img.set(2, 1, 200);
        let payload = img.clone().into_payload();
        assert_eq!(&payload[..PAYLOAD_HEADER], &[3, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(Image::from_payload(&payload), Some(img));
        // Short header, missing pixels, and a header whose product
        // overflows are corrupt, not panics.
        assert_eq!(Image::from_payload(&payload[..7]), None);
        assert_eq!(Image::from_payload(&payload[..payload.len() - 1]), None);
        assert_eq!(Image::from_payload(&[0xff; 8]), None);
        assert_eq!(
            Image::from_payload(&[0; 8]),
            Some(Image::filled(0, 0, 0)),
            "an empty image is a valid one"
        );
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = Image::filled(10, 10, 255);
        img.fill_rect(8, 8, 5, 5, 0);
        assert_eq!(img.get(9, 9), 0);
        assert_eq!(img.get(7, 7), 255);
        assert_eq!(img.pixels.iter().filter(|&&p| p == 0).count(), 4);
    }

    #[test]
    fn blit_and_crop_roundtrip() {
        let mut small = Image::filled(3, 2, 0);
        small.set(1, 1, 200);
        let mut big = Image::filled(10, 10, 255);
        big.blit(&small, 4, 5);
        let back = big.crop(4, 5, 3, 2);
        assert_eq!(back, small);
    }

    #[test]
    fn crop_clips_to_bounds() {
        let img = Image::filled(5, 5, 9);
        let c = img.crop(3, 3, 10, 10);
        assert_eq!((c.width, c.height), (2, 2));
        let empty = img.crop(10, 10, 2, 2);
        assert_eq!((empty.width, empty.height), (0, 0));
        // A size or corner near `usize::MAX` clips too, rather than
        // overflowing.
        let c = img.crop(1, 2, usize::MAX, usize::MAX);
        assert_eq!((c.width, c.height), (4, 3));
        let far = img.crop(usize::MAX - 1, usize::MAX, 10, usize::MAX);
        assert_eq!(far, Image::filled(0, 0, 0));
    }

    #[test]
    fn upscale_factor() {
        let mut img = Image::filled(2, 1, 0);
        img.set(1, 0, 255);
        let up = img.upscale(3);
        assert_eq!((up.width, up.height), (6, 3));
        assert_eq!(up.get(0, 0), 0);
        assert_eq!(up.get(5, 2), 255);
        assert_eq!(up.get(2, 1), 0);
        assert_eq!(up.get(3, 1), 255);
    }

    #[test]
    fn stats() {
        let mut img = Image::filled(2, 2, 0);
        img.set(0, 0, 200);
        assert_eq!(img.mean(), Some(50.0));
        assert_eq!(Image::filled(0, 0, 0).mean(), None);
    }

    #[test]
    fn ascii_render() {
        let mut img = Image::filled(2, 1, 255);
        img.set(0, 0, 0);
        assert_eq!(img.to_ascii(), "# \n");
    }
}
