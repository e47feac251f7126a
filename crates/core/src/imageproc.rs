//! The image-processing module (§3.2, App. E).
//!
//! Wraps the `tero-vision` OCR front-end with the game-UI knowledge of
//! §3.2 step 1: each game displays latency at a known anchor, so the
//! module crops a small region of interest around it before running the
//! three engines and the 2-of-3 vote.

use tero_trace::obs::{CounterHandle, HistogramHandle, Registry};
use tero_types::GameId;
use tero_vision::combine::{CombineOutcome, ExtractDetail, OcrCombiner, ENGINE_NAMES};
use tero_vision::font::{GLYPH_H, GLYPH_SPACING, GLYPH_W};
use tero_vision::scene::{Decoration, THUMB_H, THUMB_W};
use tero_vision::Image;
use tero_world::games::hud_spec;

/// The region of interest for a game's latency readout: `(x, y, w, h)`.
/// This is Tero's own game-UI knowledge table; it mirrors the HUD layout
/// the games actually use (and goes wrong in exactly the right way when a
/// stream is mislabeled).
pub fn roi_for_game(game: GameId) -> (usize, usize, usize, usize) {
    let spec = hud_spec(game);
    let scale = spec.text_scale;
    let margin = 3 * scale;
    let max_chars = match spec.decoration {
        Decoration::MsSuffix => 5,
        Decoration::PingPrefix => 8,
        Decoration::Bare => 5,
    };
    let w = max_chars * (GLYPH_W + GLYPH_SPACING) * scale + 2 * margin;
    let h = GLYPH_H * scale + 2 * margin;
    let x = spec.anchor.0.saturating_sub(margin);
    let y = spec.anchor.1.saturating_sub(margin);
    (x, y, w.min(THUMB_W - x), h.min(THUMB_H - y))
}

/// Per-engine metric handles: one `ocr.<engine>.{read,miss,confused}`
/// triple per OCR engine.
#[derive(Debug, Clone)]
struct EngineObs {
    read: CounterHandle,
    miss: CounterHandle,
    confused: CounterHandle,
}

/// Metric handles resolved once at [`ImageProcessor::with_registry`] time
/// so the per-thumbnail hot path never touches the registry lock.
#[derive(Debug, Clone)]
struct ProcObs {
    engines: [EngineObs; 3],
    reprocessed: CounterHandle,
    vote_unanimous: CounterHandle,
    vote_majority: CounterHandle,
    vote_failed: CounterHandle,
    extract_us: HistogramHandle,
    registry: Registry,
}

/// The image-processing module: game-aware cropping + the OCR combiner.
#[derive(Debug, Clone, Default)]
pub struct ImageProcessor {
    combiner: OcrCombiner,
    obs: Option<ProcObs>,
}

impl ImageProcessor {
    /// A processor with the default three-engine configuration.
    pub fn new() -> Self {
        ImageProcessor {
            combiner: OcrCombiner::new(),
            obs: None,
        }
    }

    /// A processor recording per-engine OCR outcomes (`ocr.*`) into
    /// `registry`. All metric handles are resolved here, once.
    pub(crate) fn with_registry(registry: &Registry) -> Self {
        let engines = ENGINE_NAMES.map(|name| EngineObs {
            read: registry.counter(&format!("ocr.{name}.read")),
            miss: registry.counter(&format!("ocr.{name}.miss")),
            confused: registry.counter(&format!("ocr.{name}.confused")),
        });
        ImageProcessor {
            combiner: OcrCombiner::new(),
            obs: Some(ProcObs {
                engines,
                reprocessed: registry.counter("ocr.reprocessed"),
                vote_unanimous: registry.counter("ocr.vote_unanimous"),
                vote_majority: registry.counter("ocr.vote_majority"),
                vote_failed: registry.counter("ocr.vote_failed"),
                extract_us: registry.histogram("ocr.extract_us"),
                registry: registry.clone(),
            }),
        }
    }

    /// Extract the latency from a thumbnail, given the game the stream is
    /// *labeled* as (§3.3.3: mislabeled streams make this crop the wrong
    /// screen area — those extractions mostly fail or produce junk).
    pub fn extract(&self, thumbnail: &Image, game_label: GameId) -> CombineOutcome {
        let timer = self
            .obs
            .as_ref()
            .map(|o| o.registry.stage_timer(&o.extract_us));
        let (outcome, detail) = self
            .combiner
            .extract_from_thumbnail_with_detail(thumbnail, roi_for_game(game_label));
        drop(timer);
        if let Some(obs) = &self.obs {
            record_detail(obs, outcome, detail);
        }
        outcome
    }
}

/// Bump the per-engine and vote counters for one extraction.
fn record_detail(obs: &ProcObs, outcome: CombineOutcome, detail: ExtractDetail) {
    let primary = match outcome {
        CombineOutcome::Extracted { primary, .. } => Some(primary),
        CombineOutcome::NoMeasurement => None,
    };
    for (eng, value) in obs.engines.iter().zip(detail.engine_values) {
        match value {
            None => eng.miss.inc(),
            Some(v) => {
                eng.read.inc();
                // Counts as confusion only when a vote succeeded and this
                // engine dissented — without a vote there is no reference.
                if primary.is_some_and(|p| p != v) {
                    eng.confused.inc();
                }
            }
        }
    }
    if detail.reprocessed {
        obs.reprocessed.inc();
    }
    match primary {
        None => obs.vote_failed.inc(),
        Some(p) => {
            let agree = detail
                .engine_values
                .iter()
                .filter(|v| **v == Some(p))
                .count();
            if agree >= 3 {
                obs.vote_unanimous.inc();
            } else {
                obs.vote_majority.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_geoparse::{Gazetteer, PlaceKind};
    use tero_types::{SimRng, SimTime};
    use tero_world::sessions::TruthSample;
    use tero_world::streamer::Streamer;
    use tero_world::twitch::render_thumbnail;

    fn sample(displayed: u32) -> TruthSample {
        TruthSample {
            t: SimTime::from_mins(200),
            true_rtt_ms: displayed as f64,
            displayed_ms: displayed,
            server_idx: 0,
            in_spike: false,
        }
    }

    fn streamer() -> Streamer {
        let gaz = Gazetteer::new();
        let home = gaz.lookup_kind("Chicago", PlaceKind::City)[0].clone();
        let mut rng = SimRng::new(77);
        // Pick a quirk-free streamer.
        loop {
            let s = Streamer::generate(&gaz, home.clone(), SimTime::from_hours(100), &mut rng);
            if !s.hud.light_font && !s.hud.clock_overlay && s.hud.occlusion_rate < 0.06 {
                return s;
            }
        }
    }

    #[test]
    fn rois_stay_inside_thumbnail() {
        for game in GameId::ALL {
            let (x, y, w, h) = roi_for_game(game);
            assert!(x + w <= THUMB_W, "{game}");
            assert!(y + h <= THUMB_H, "{game}");
            assert!(w >= 40 && h >= 14, "{game}: roi too small {w}x{h}");
        }
    }

    #[test]
    fn extracts_from_every_game_layout() {
        let s = streamer();
        let proc = ImageProcessor::new();
        let mut ok = 0;
        for game in GameId::ALL {
            let img = render_thumbnail(&s, game, &sample(87));
            if let CombineOutcome::Extracted { primary, .. } = proc.extract(&img, game) {
                if primary == 87 {
                    ok += 1;
                }
            }
        }
        assert!(ok >= 8, "correct extractions from {ok}/9 game layouts");
    }

    #[test]
    fn mislabel_breaks_extraction() {
        // Rendered as CoD (top-left "ping"), processed as LoL (top-right):
        // the crop misses the readout.
        let s = streamer();
        let proc = ImageProcessor::new();
        let img = render_thumbnail(&s, GameId::CodWarzone, &sample(64));
        match proc.extract(&img, GameId::LeagueOfLegends) {
            CombineOutcome::Extracted { primary, .. } => {
                assert_ne!(primary, 64, "wrong crop should not read the true value");
            }
            CombineOutcome::NoMeasurement => {} // the common case
        }
    }
}
