//! Fig 6 — examples of OCR input, rendered as ASCII art.
//!
//! (a) a typical latency display, (b) a font too light for extraction,
//! (c) a value partially hidden by an open menu, (d) a clock where the
//! latency normally goes. For each, the cropped region of interest and
//! what the image-processing module extracted from it.

use crate::{header, Args, Outcome, Text};
use tero_types::SimRng;
use tero_vision::combine::{CombineOutcome, OcrCombiner};
use tero_vision::scene::HudScene;

fn show(text: &mut Text, title: &str, scene: &HudScene, seed: u64) {
    let combiner = OcrCombiner::new();
    let mut rng = SimRng::new(seed);
    let thumb = scene.render(&mut rng);
    let roi = scene.roi();
    let crop = thumb.crop(roi.0, roi.1, roi.2, roi.3);
    writeln!(text);
    writeln!(
        text,
        "--- {title} (true value: {} ms) ---",
        scene.latency_ms
    );
    write!(text, "{}", crop.to_ascii());
    match combiner.extract(&crop) {
        CombineOutcome::Extracted {
            primary,
            alternative,
        } => writeln!(
            text,
            "=> extracted: {primary} ms (alternative: {alternative:?})"
        ),
        CombineOutcome::NoMeasurement => writeln!(text, "=> extracted: nothing"),
    }
}

pub(crate) fn run(_: &Args) -> Outcome {
    let mut text = Text::default();
    header(&mut text, "Fig 6: examples of OCR input");
    let examples = [
        ("(a) typical latency display", HudScene::typical(45)),
        ("(b) latency font too light", HudScene::light_font(45)),
        (
            "(c) latency partially hidden",
            HudScene::partially_hidden(145, 0.38),
        ),
        (
            "(d) latency replaced by clock",
            HudScene::clock_overlay(45, 19, 42),
        ),
    ];
    for (seed, (title, scene)) in (1..).zip(&examples) {
        show(&mut text, title, scene, seed);
    }
    Outcome::text(text)
}
