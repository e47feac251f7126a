//! # tero-vision
//!
//! Image-processing substrate for the Tero reproduction (§3.2, App. E).
//!
//! The paper extracts latency numbers from low-resolution gaming thumbnails
//! with three OCR engines (Tesseract, EasyOCR, PaddleOCR) whose errors are
//! *complementary*, enabling a 2-of-3 vote. This crate rebuilds the whole
//! stack from scratch, offline:
//!
//! * `image` — an 8-bit grayscale raster type;
//! * [`font`] — a 5×7 bitmap font whose glyph shapes reproduce the paper's
//!   confusion pairs (8 ↔ B/S, 0 ↔ O, 4 ↔ A);
//! * [`scene`] — a HUD *scene composer* that renders synthetic thumbnails
//!   with the failure modes of Fig 6: typical displays, too-light fonts,
//!   partially hidden values, and clock overlays;
//! * [`preprocess`] — the App. E pre-processing pipeline: crop, upscale,
//!   Gaussian blur, Otsu thresholding \[40\], dilation and erosion;
//! * [`ocr`] — three template-matching OCR engines with deliberately
//!   different pre-processing and acceptance thresholds, so their error
//!   sets overlap only partially (the property the voting step exploits);
//! * [`combine`] — the cleanup + 2-of-3 voting combiner with primary and
//!   alternative outputs, plus the reprocessing fallback (App. E step 4).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bits;
pub mod combine;
#[cfg(test)]
mod differential;
pub mod font;
mod image;
pub mod ocr;
pub mod preprocess;
#[cfg(test)]
mod reference;
pub mod scene;

pub use combine::CombineOutcome;
pub use image::Image;
