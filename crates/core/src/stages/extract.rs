//! The extract stage: image processing (§3.2) over the queued thumbnails.
//!
//! Drains `queue:thumbs`, fans the OCR work out over the pool, and
//! performs every order-sensitive side effect — funnel counters, ledger
//! ingestion, dead-lettering, sample persistence — in an ordered merge
//! that walks results in task order, so the outcome is byte-identical at
//! any worker count and over any window schedule. Extracted measurements
//! leave the stage as [`SampleRecord`]s appended to per-`{streamer,
//! game}` KV lists (`super::sample_list_key`); usernames land in the
//! `engine:names` hash for the locate stage. A resolved task's
//! thumbnail is deleted from the object store in the same merge; a
//! dead-lettered one keeps it for a requeue.

use super::{sample_list_key, SampleRecord, StageCx, NAMES_KEY};
use crate::download::ThumbnailTask;
use crate::imageproc::ImageProcessor;
use crate::keys::anon_field;
use crate::pipeline::ExtractionMode;
use std::collections::{BTreeMap, BTreeSet};
use tero_stats::QuantileSketch;
use tero_trace::{DropReason, Level, SampleKey, SampleState, TaskTrace};
use tero_types::{AnonId, GameId};
use tero_vision::combine::CombineOutcome;
use tero_vision::scene::ScenarioKind;
use tero_world::twitch::build_scene;
use tero_world::World;

/// The extract stage. Carries the OCR front-end and the cumulative task
/// counters the engine persists at each window commit.
pub(crate) struct ExtractStage {
    processor: ImageProcessor,
    /// Thumbnail tasks processed so far (== `pipeline.funnel.ingested`).
    pub tasks_processed: u64,
    /// Measurements extracted so far (== `stage.extract.records_out`).
    pub extracted: u64,
    /// The serving layer's raw sketches: every extracted primary value,
    /// per `{streamer, game}`. Updated in the ordered merge (insertion
    /// order never affects a sketch, but the fixed order keeps this loop
    /// on the same path as every other side effect) and persisted by the
    /// engine at each window commit under
    /// [`crate::serving::raw_sketch_key`].
    pub(crate) sketches: BTreeMap<(AnonId, GameId), QuantileSketch>,
    /// Sketches touched since the last engine commit.
    pub(crate) dirty_sketches: BTreeSet<(AnonId, GameId)>,
}

/// What one extract pass wrote that a later stage reads — the engine's
/// run conditions for the clean and locate stages.
#[derive(Debug, Default)]
pub(crate) struct Extracted {
    /// Records appended to the sample lists.
    pub(crate) records: u64,
    /// A streamer was registered in the `engine:names` hash.
    pub(crate) new_name: bool,
}

impl ExtractStage {
    /// A fresh extract stage reporting into `registry`.
    pub(crate) fn new(registry: &tero_trace::obs::Registry) -> ExtractStage {
        ExtractStage {
            processor: ImageProcessor::with_registry(registry),
            tasks_processed: 0,
            extracted: 0,
            sketches: BTreeMap::new(),
            dirty_sketches: BTreeSet::new(),
        }
    }

    /// Drain and process every queued thumbnail task.
    pub(crate) fn run(&mut self, cx: &mut StageCx<'_>) -> Extracted {
        let m = &cx.metrics.st_extract;
        let sp_extract = cx.enter(m);
        let mut tasks = cx.download.drain_tasks();
        // Sharded deployment: every engine ingests the full world (the
        // download schedule is identical everywhere, which is what makes
        // the committed cursors mergeable), but extracts only the
        // streamers its shard owns. Filtering happens before any
        // accounting, so the ledger, funnel and sample lists of one
        // engine cover exactly its shard — disjoint across engines,
        // union equal to a single-process run. A task filtered out here
        // is never extracted by this engine, so its image goes now.
        if let Some(spec) = cx.tero.shard {
            let salt = cx.tero.salt;
            let download = cx.download;
            tasks.retain(|t| {
                let owned = spec.owns(AnonId::from_streamer(&t.streamer, salt));
                if !owned {
                    download.drop_image(&t.object_key);
                }
                owned
            });
        }
        m.records_in.add(tasks.len() as u64);

        let ledger = cx.tero.trace.ledger();
        let extract_stage = cx.tero.trace.stage(&sp_extract, "extract.task");
        let base = self.tasks_processed;
        // The OCR fan-out: every task reads only thread-safe stores and
        // immutable world state, so the heavy extraction runs on the pool.
        // `None` marks a lost/corrupt object. Everything order-sensitive
        // happens in the ordered merge below, which walks results in task
        // order and is therefore byte-identical to the sequential path.
        let outcomes: Vec<(Option<CombineOutcome>, TaskTrace)> = {
            let world_ro: &World = cx.world;
            let processor = &self.processor;
            let mode = cx.tero.mode;
            let download = cx.download;
            cx.pool.par_map_indexed(&tasks, |i, task| {
                let mut t = extract_stage.task(base + i as u64);
                t.set_sim_time(task.generated_at);
                let outcome = match mode {
                    ExtractionMode::FullOcr => download
                        .load_image(&task.object_key)
                        .map(|image| processor.extract(&image, task.game_label)),
                    ExtractionMode::Calibrated => Some(calibrated_extract(world_ro, task)),
                };
                match &outcome {
                    None => t.event(Level::Error, "thumbnail missing or corrupt; dead-lettered"),
                    Some(CombineOutcome::NoMeasurement) => {
                        t.event(Level::Debug, "ocr: 2-of-3 vote failed, no measurement")
                    }
                    Some(CombineOutcome::Extracted { .. }) => {}
                }
                (outcome, t.finish())
            })
        };

        let mut batch: BTreeMap<(AnonId, GameId), Vec<String>> = BTreeMap::new();
        let mut batch_extracted = 0u64;
        let mut new_name = false;
        let mut extract_traces = Vec::with_capacity(outcomes.len());
        for (task, (outcome, trace)) in tasks.iter().zip(outcomes) {
            extract_traces.push(trace);
            let anon = AnonId::from_streamer(&task.streamer, cx.tero.salt);
            // Birth of a lineage record: every thumbnail task becomes a
            // ledger entry that must later be published or dropped with a
            // typed reason.
            let key = SampleKey {
                anon,
                game: task.game_label,
                at: task.generated_at,
            };
            ledger.ingest(key);
            cx.metrics.funnel_ingested.inc();
            let anon_hex = anon_field(anon);
            if cx.kv.hget(NAMES_KEY, &anon_hex).is_none() {
                cx.kv.hset(NAMES_KEY, &anon_hex, task.streamer.as_str());
                new_name = true;
            }
            let Some(outcome) = outcome else {
                // Lost or corrupt object: quarantine the task so the
                // failure stays auditable, and keep going.
                cx.metrics.funnel_dropped[DropReason::DeadLetter.index()].inc();
                ledger.resolve(&key, SampleState::Dropped(DropReason::DeadLetter));
                cx.download.dead_letter(task.encode());
                continue;
            };
            // The task is resolved: its image has been read (in the fan-out
            // above) or was never needed, so it leaves the store now, before
            // the window's commit counts the delete.
            cx.download.drop_image(&task.object_key);
            if let CombineOutcome::Extracted {
                primary,
                alternative,
            } = outcome
            {
                batch_extracted += 1;
                self.sketches
                    .entry((anon, task.game_label))
                    .or_default()
                    .insert(primary as f64);
                self.dirty_sketches.insert((anon, task.game_label));
                cx.metrics.sketch_inserts.inc();
                batch.entry((anon, task.game_label)).or_default().push(
                    SampleRecord {
                        at: task.generated_at,
                        primary,
                        alternative,
                    }
                    .encode(),
                );
            } else {
                cx.metrics.funnel_dropped[DropReason::OcrUnreadable.index()].inc();
                ledger.resolve(&key, SampleState::Dropped(DropReason::OcrUnreadable));
            }
        }
        // Push this window's records to the per-{streamer, game} lists in
        // one batched append per list (App. B's push discipline).
        for ((anon, game), records) in batch {
            cx.kv.rpush_batch(&sample_list_key(anon, game), records);
        }
        extract_stage.flush(extract_traces);

        self.tasks_processed += tasks.len() as u64;
        self.extracted += batch_extracted;
        m.records_out.add(batch_extracted);
        Extracted {
            records: batch_extracted,
            new_name,
        }
    }
}

/// Mechanical extraction for [`ExtractionMode::Calibrated`]: reproduce the
/// OCR path's failure *mechanisms* from the scene ground truth, at rates
/// matched to the measured Full-OCR behaviour (see `tab04` in
/// EXPERIMENTS.md for the measurements this is calibrated against).
pub(crate) fn calibrated_extract(world: &World, task: &ThumbnailTask) -> CombineOutcome {
    let Some(streamer) = world.streamer(&task.streamer) else {
        return CombineOutcome::NoMeasurement;
    };
    let Some(sample) = world
        .twitch
        .truth_sample(task.streamer.as_str(), task.generated_at)
    else {
        return CombineOutcome::NoMeasurement;
    };
    // The true game being rendered (a mislabeled stream renders its actual
    // game, while the processor crops for the label).
    let truth_stream_game = world
        .timelines()
        .iter()
        .zip(world.streamers())
        .find(|(_, s)| s.id == task.streamer)
        .and_then(|(tl, _)| {
            tl.iter()
                .find(|st| st.start <= task.generated_at && task.generated_at < st.end)
        })
        .map(|st| st.game)
        .unwrap_or(task.game_label);
    if truth_stream_game != task.game_label {
        // Wrong crop: nothing legible.
        return CombineOutcome::NoMeasurement;
    }

    let (scene, mut rng) = build_scene(streamer, truth_stream_game, &sample);
    let value = sample.displayed_ms;
    if value == 0 {
        return CombineOutcome::NoMeasurement; // lobby placeholder
    }
    match scene.scenario {
        ScenarioKind::LightFont => CombineOutcome::NoMeasurement,
        ScenarioKind::ClockOverlay => {
            // The clock reads as a plausible wrong value (minutes field).
            let (_, mm) = scene.clock.unwrap_or((0, 42));
            if mm == 0 {
                CombineOutcome::NoMeasurement
            } else {
                CombineOutcome::Extracted {
                    primary: mm,
                    alternative: None,
                }
            }
        }
        ScenarioKind::PartiallyHidden => {
            let digits = value.to_string().len() as u32;
            let covered = scene.occlusion_fraction;
            if covered > 0.45 || digits == 1 {
                CombineOutcome::NoMeasurement
            } else {
                // Digit drop: leading digit(s) hidden; engines agree on the
                // visible tail (§4.2.2: 68 % of errors are digit drops).
                let keep = digits - 1;
                let primary = value % 10u32.pow(keep);
                if primary == 0 {
                    CombineOutcome::NoMeasurement
                } else {
                    // Occasionally one engine catches the full value and
                    // survives as the alternative.
                    let alternative = rng.chance(0.25).then_some(value);
                    CombineOutcome::Extracted {
                        primary,
                        alternative,
                    }
                }
            }
        }
        ScenarioKind::Typical => {
            // Measured Full-OCR behaviour on typical scenes: ~1-3 % miss
            // under heavy noise, ~2-4 % error (digit confusion), rare
            // disagreement alternatives.
            let noise_factor = (scene.noise * 40.0 + scene.grain / 10.0).min(1.0);
            if rng.chance(0.01 + 0.04 * noise_factor) {
                return CombineOutcome::NoMeasurement;
            }
            if rng.chance(0.015 + 0.05 * noise_factor) {
                // Digit confusion: perturb one digit.
                let digits = value.to_string().len() as u32;
                let pos = rng.below(digits as u64) as u32;
                let delta = [1u32, 2, 5, 7][rng.below(4) as usize];
                let scale = 10u32.pow(pos);
                let perturbed = if rng.chance(0.5) {
                    value.saturating_add(delta * scale)
                } else {
                    value.saturating_sub(delta * scale)
                };
                let perturbed = perturbed.clamp(1, 999);
                if perturbed != value {
                    let alternative = rng.chance(0.4).then_some(value);
                    return CombineOutcome::Extracted {
                        primary: perturbed,
                        alternative,
                    };
                }
            }
            CombineOutcome::Extracted {
                primary: value,
                alternative: None,
            }
        }
    }
}
