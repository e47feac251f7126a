//! Image-processing cost: scene rendering, each kernel under `extract`, a
//! single engine and the full three-engine voting front-end. The rows back
//! docs/PERFORMANCE.md's *OCR kernels* table: the `benchmark/` harness
//! times an extraction only whole (`vision.extract_us_p50`).

use criterion::{criterion_group, criterion_main, Criterion};
use tero_core::imageproc::{roi_for_game, ImageProcessor};
use tero_types::{GameId, SimRng, SimTime};
use tero_vision::combine::OcrCombiner;
use tero_vision::ocr::{OcrEngine, OcrEngineKind};
use tero_vision::preprocess::{
    finish_binary, gaussian_blur, median3, preprocess, preprocess_gray, PreprocessConfig,
};
use tero_vision::scene::HudScene;

fn thumb() -> tero_vision::Image {
    let mut rng = SimRng::new(42);
    HudScene::typical(87).render(&mut rng)
}

fn bench_render(c: &mut Criterion) {
    let scene = HudScene::typical(87);
    c.bench_function("scene_render", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| scene.render(&mut rng));
    });
}

fn bench_preprocess(c: &mut Criterion) {
    let scene = HudScene::typical(87);
    let thumb = thumb();
    let roi = scene.roi();
    let crop = thumb.crop(roi.0, roi.1, roi.2, roi.3);
    let cfg = PreprocessConfig::default();
    c.bench_function("preprocess_crop", |b| {
        b.iter(|| preprocess(&crop, &cfg));
    });
}

fn bench_single_engine(c: &mut Criterion) {
    let scene = HudScene::typical(87);
    let thumb = thumb();
    let roi = scene.roi();
    let crop = thumb.crop(roi.0, roi.1, roi.2, roi.3);
    let cfg = PreprocessConfig::default();
    let upscaled = crop.upscale(cfg.upscale);
    let engine = OcrEngine::new(OcrEngineKind::EasyOcrLike);
    c.bench_function("single_engine_recognize", |b| {
        b.iter(|| engine.recognize_gray(&upscaled, &cfg));
    });
}

/// The kernels under `extract`, each on the 210×78 stage a LoL ROI
/// upscales to — the rows the OCR ledger in docs/PERFORMANCE.md tracks.
fn bench_kernels(c: &mut Criterion) {
    let roi = roi_for_game(GameId::LeagueOfLegends);
    let crop = thumb().crop(roi.0, roi.1, roi.2, roi.3);
    let cfg = PreprocessConfig::default();
    let upscaled = crop.upscale(cfg.upscale);
    let gray = preprocess_gray(&crop, &cfg);
    let bin = finish_binary(&gray, 1.0, &cfg);
    // Otsu, binarize, closing and despeckle (six 3×3 passes).
    c.bench_function("morph_close_despeckle", |b| {
        b.iter(|| finish_binary(&gray, 1.0, &cfg));
    });
    c.bench_function("blur_r1", |b| b.iter(|| gaussian_blur(&upscaled, 1)));
    c.bench_function("blur_r2", |b| b.iter(|| gaussian_blur(&upscaled, 2)));
    c.bench_function("median3", |b| b.iter(|| median3(&upscaled)));
    // Segmentation plus template matching of every glyph.
    let engine = OcrEngine::new(OcrEngineKind::EasyOcrLike);
    c.bench_function("match_glyphs", |b| b.iter(|| engine.recognize(&bin)));
    // A blank ROI: no vote on the first pass, so both passes run.
    let blank = tero_vision::Image::filled(crop.width, crop.height, 230);
    let combiner = OcrCombiner::new();
    c.bench_function("extract_reprocess_blank", |b| {
        b.iter(|| combiner.extract(&blank));
    });
}

fn bench_full_extraction(c: &mut Criterion) {
    let thumb = thumb();
    let combiner = OcrCombiner::new();
    let roi = roi_for_game(GameId::LeagueOfLegends);
    c.bench_function("three_engine_vote_extract", |b| {
        b.iter(|| combiner.extract_from_thumbnail(&thumb, roi));
    });
    let processor = ImageProcessor::new();
    c.bench_function("imageproc_module_extract", |b| {
        b.iter(|| processor.extract(&thumb, GameId::LeagueOfLegends));
    });
}

fn bench_render_and_extract(c: &mut Criterion) {
    // The whole FullOcr per-thumbnail path as the pipeline pays it.
    let processor = ImageProcessor::new();
    let scene = {
        let mut s = HudScene::typical(64);
        s.noise = 0.02;
        s
    };
    c.bench_function("thumbnail_end_to_end", |b| {
        let mut rng = SimRng::new(7);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let _ = SimTime::from_mins(t);
            let img = scene.render(&mut rng);
            processor.extract(&img, GameId::LeagueOfLegends)
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets =
    bench_render,
    bench_preprocess,
    bench_single_engine,
    bench_kernels,
    bench_full_extraction,
    bench_render_and_extract
);
criterion_main!(benches);
