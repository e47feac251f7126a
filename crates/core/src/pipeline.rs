//! The Tero orchestrator: download → image-processing → location →
//! data-analysis, decomposed into the staged execution engine of
//! [`crate::engine`] and [`crate::stages`] (App. B's architecture), wired
//! through the stores of `tero-store` and run against a `tero-world`
//! platform.
//!
//! [`Tero::run`] processes the whole horizon as one window;
//! [`Tero::run_window`] drives the same engine incrementally, one time
//! slice at a time, committing resumable state into the store after every
//! per-window stage. Both produce byte-identical reports, funnel counters
//! and ledger books — at any window schedule and any worker count, and
//! across a chaos kill/resume (see `tests/determinism.rs`).
//!
//! The three hot stages — thumbnail extraction, per-`{streamer, game}`
//! cleaning analysis, and per-group aggregation — fan out over
//! a [`tero_pool::Pool`] sized by [`Tero::worker_threads`]. Each parallel
//! stage is a pure map whose results are merged back *in input order*, so
//! the report (and every funnel counter) is byte-identical at any worker
//! count; with `worker_threads == 1` every map runs inline on the calling
//! thread.

use crate::analysis::anomaly::AnomalyReport;
use crate::analysis::clusters::{ClassifiedStreamer, EndPointChange, LatencyCluster};
use crate::analysis::distributions::LocationDistribution;
use crate::analysis::segments::StreamSeries;
use crate::analysis::shared::SharedAnomaly;
use crate::behavior::BehaviorStream;
use crate::download::{DownloadCursor, DownloadStats};
use crate::engine::{committed_cursor, CursorError, Engine, StoreSnapshot};
use crate::location::LocationSource;
use crate::serving::{ServingError, DIST_SKETCH_PREFIX};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};
use tero_obs::{CounterHandle, GaugeHandle, Registry, Snapshot, StageMetrics};
use tero_store::{KvStore, ObjectStore};
use tero_trace::{DropReason, Tracer};
use tero_types::{AnonId, GameId, Location, ShardSpec, SimDuration, SimTime, TeroParams};
use tero_world::games::match_length_mins;
use tero_world::World;

/// How thumbnails are turned into measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionMode {
    /// Render every thumbnail and run the full three-engine OCR pipeline —
    /// the honest path; used for all accuracy evaluations.
    FullOcr,
    /// Skip rendering: derive the extraction outcome mechanically from the
    /// scene's ground truth using the *same failure mechanisms* the OCR
    /// path exhibits (light fonts miss; occlusions drop leading digits;
    /// clocks read as plausible wrong values; mislabeled streams read
    /// nothing), at rates matched to the measured OCR behaviour. Used only
    /// to scale the analysis-heavy regenerators (Figs 9–16, Table 5);
    /// see DESIGN.md.
    Calibrated,
}

/// The Tero system.
pub struct Tero {
    /// Table 1 parameters.
    pub params: TeroParams,
    /// Anonymisation salt (§7's consistent hashing).
    pub salt: u64,
    /// Extraction mode.
    pub mode: ExtractionMode,
    /// Minimum streamers per `{location, game}` before a distribution is
    /// published (the paper uses 50; tests use less).
    pub min_streamers: usize,
    /// §3.1.2's suggested-but-not-taken step: reject measurements that
    /// fall outside every latency cluster of their `{location, game}`,
    /// which screens out mislocated streamers (the paper leaves this to
    /// the data-set's users; we implement it as an opt-in).
    pub reject_outside_clusters: bool,
    /// Simulated-API budget of the incremental locate stage, in calls
    /// per window (a lookup costs up to five: the first call plus four
    /// retries). Streamers whose lookup does not fit carry over to the
    /// next window's queue; the horizon window ignores the budget and
    /// drains the queue, so the report is identical for every value.
    /// `None` (the default) is unlimited — every newly-seen streamer is
    /// located in the window that first sees it.
    pub locate_budget: Option<u64>,
    /// The metric registry every stage reports into. Counters are always
    /// on; per-operation timing histograms only populate after
    /// `obs.set_timing(true)`.
    pub obs: Registry,
    /// Worker threads for the parallel stages (extraction, per-stream
    /// analysis, per-group aggregation). Defaults to the machine's
    /// available parallelism; `1` runs every stage on the calling thread.
    /// The report is identical for every value — see `tests/determinism.rs`.
    pub worker_threads: usize,
    /// The structured tracer (`tero-trace`). Span/event recording is off
    /// by default — enable with `trace.set_enabled(true)` — but the
    /// sample-provenance ledger underneath it is always on, so
    /// [`tero_trace::Ledger::reconcile`] can audit any run. Trace output
    /// is deterministic: identical for every `worker_threads` value.
    pub trace: Tracer,
    /// The engine slot behind [`Tero::run_window`]: holds the staged
    /// engine between windows, or a [`StoreSnapshot`] scheduled for
    /// restore. [`Tero::run`] resets it and drives one full-horizon
    /// window.
    pub engine: EngineCell,
    /// Pre-built store backends for the engine. `None` (the default)
    /// gives each run private in-process stores; a sharded deployment
    /// injects facades backed by a `tero-net` client here, so every
    /// engine read and write crosses the simulated store network.
    pub stores: Option<(KvStore, ObjectStore)>,
    /// Restrict this instance to its shard of the streamer population:
    /// the extract stage keeps only thumbnail tasks whose anonymised
    /// streamer id satisfies [`ShardSpec::owns`]. `None` (the default)
    /// processes everything. Used by [`crate::sharded`], which runs one
    /// engine per shard and merges their state at the horizon.
    pub shard: Option<ShardSpec>,
}

impl Default for Tero {
    fn default() -> Self {
        Tero {
            params: TeroParams::default(),
            salt: 0x7e60,
            mode: ExtractionMode::FullOcr,
            min_streamers: 5,
            reject_outside_clusters: false,
            locate_budget: None,
            obs: Registry::new(),
            worker_threads: tero_pool::default_workers(),
            trace: Tracer::new(),
            engine: EngineCell::default(),
            stores: None,
            shard: None,
        }
    }
}

/// Every counter and histogram handle the stages bump, resolved (and
/// eagerly registered, so the catalogue is complete even on clean runs)
/// once per run, by [`Engine::new`] against [`Tero::obs`].
pub struct PipelineMetrics {
    pub(crate) streams_stitched: CounterHandle,
    pub(crate) streamers_located: CounterHandle,
    pub(crate) segments_built: CounterHandle,
    pub(crate) glitches_corrected: CounterHandle,
    pub(crate) glitches_discarded: CounterHandle,
    pub(crate) spikes_detected: CounterHandle,
    pub(crate) points_discarded: CounterHandle,
    pub(crate) distributions_published: CounterHandle,
    pub(crate) shared_anomalies: CounterHandle,
    pub(crate) profile_retries: CounterHandle,
    /// The provenance funnel: `ingested` counts every thumbnail task,
    /// `published` the samples that reached a distribution, and one
    /// counter per typed drop reason accounts for the rest. Every one is
    /// provably equal to the ledger's books — see
    /// [`tero_trace::Ledger::reconcile`].
    pub(crate) funnel_ingested: CounterHandle,
    pub(crate) funnel_published: CounterHandle,
    pub(crate) funnel_dropped: Vec<CounterHandle>,
    pub(crate) window_runs: CounterHandle,
    pub(crate) window_killed: CounterHandle,
    pub(crate) window_resumed: CounterHandle,
    pub(crate) window_commits: CounterHandle,
    /// Serving-layer sketch accounting: values folded into the extract
    /// stage's raw sketches, sketch encodings committed to the store
    /// (raw at window commits, distributions at aggregation passes), and
    /// the total encoded bytes written.
    pub(crate) sketch_inserts: CounterHandle,
    pub(crate) sketch_commits: CounterHandle,
    pub(crate) sketch_bytes: CounterHandle,
    /// Online-cleaning and serving accounting (`clean.*`): per-window
    /// work done by the incremental clean stage, plus the distributions
    /// the aggregation stage serves and the provisional lookups the
    /// locate stage makes for them. All schedule-dependent — a finer
    /// window schedule feeds/seals/refreshes in more, smaller steps —
    /// and therefore excluded from the determinism tests'
    /// schedule-invariant counter set (see ARCHITECTURE.md).
    pub(crate) clean_samples_in: CounterHandle,
    pub(crate) clean_series_dirty: CounterHandle,
    pub(crate) clean_segments_sealed: CounterHandle,
    pub(crate) clean_views: CounterHandle,
    pub(crate) clean_dists_refreshed: CounterHandle,
    pub(crate) clean_provisional_locations: CounterHandle,
    /// Canonical-vs-provisional split of the live serving view: how
    /// many `engine:serve:dist:*` keys currently carry each provenance
    /// marker. Levels, not totals — set after every aggregation pass;
    /// provisional reads zero once the horizon's pass has run.
    pub(crate) clean_dists_canonical: GaugeHandle,
    pub(crate) clean_dists_provisional: GaugeHandle,
    /// Budgeted-locate accounting (`locate.budget.*`, `locate.queue.*`,
    /// `location.api_calls`): simulated API calls spent, lookups pushed
    /// past their window by the budget, the carry-over queue's depth
    /// after each window, and the running API-call total. The counters
    /// are schedule-dependent (a finer schedule defers differently) and
    /// excluded from the determinism tests' schedule-invariant set.
    pub(crate) locate_budget_spent: CounterHandle,
    pub(crate) locate_budget_deferred: CounterHandle,
    pub(crate) locate_queue_depth: GaugeHandle,
    pub(crate) locate_api_calls: GaugeHandle,
    /// Incremental-aggregation accounting (`agg.dirty_groups`): how many
    /// `{location, game}` groups each aggregation pass re-merged because
    /// membership moved or a member gained sealed data. Schedule-
    /// dependent for the same reason as `clean.*`.
    pub(crate) agg_dirty_groups: CounterHandle,
    /// The `stage.<name>.*` bundles of the five stages that open a
    /// `stage.<name>` span.
    pub(crate) st_ingest: StageMetrics,
    pub(crate) st_extract: StageMetrics,
    pub(crate) st_locate: StageMetrics,
    pub(crate) st_clean: StageMetrics,
    pub(crate) st_publish: StageMetrics,
}

impl PipelineMetrics {
    /// Resolve every pipeline handle against `registry`.
    pub fn new(registry: &Registry) -> PipelineMetrics {
        // Timed by `Tero::run`, which outlives the engines it drives and
        // takes the handle by name; registered here so a windowed drive
        // lists it too.
        let _ = registry.histogram("pipeline.run_us");
        PipelineMetrics {
            streams_stitched: registry.counter("pipeline.streams_stitched"),
            streamers_located: registry.counter("pipeline.streamers_located"),
            segments_built: registry.counter("analysis.segments_built"),
            glitches_corrected: registry.counter("analysis.glitches_corrected"),
            glitches_discarded: registry.counter("analysis.glitches_discarded"),
            spikes_detected: registry.counter("analysis.spikes_detected"),
            points_discarded: registry.counter("analysis.points_discarded"),
            distributions_published: registry.counter("analysis.distributions_published"),
            shared_anomalies: registry.counter("analysis.shared_anomalies"),
            profile_retries: registry.counter("pipeline.profile_retries"),
            funnel_ingested: registry.counter("pipeline.funnel.ingested"),
            funnel_published: registry.counter("pipeline.funnel.published"),
            funnel_dropped: DropReason::ALL
                .iter()
                .map(|r| registry.counter(r.metric_name()))
                .collect(),
            window_runs: registry.counter("pipeline.window.runs"),
            window_killed: registry.counter("pipeline.window.killed"),
            window_resumed: registry.counter("pipeline.window.resumed"),
            window_commits: registry.counter("pipeline.window.commits"),
            sketch_inserts: registry.counter("stats.sketch.inserts"),
            sketch_commits: registry.counter("stats.sketch.commits"),
            sketch_bytes: registry.counter("stats.sketch.bytes"),
            clean_samples_in: registry.counter("clean.samples_in"),
            clean_series_dirty: registry.counter("clean.series_dirty"),
            clean_segments_sealed: registry.counter("clean.segments_sealed"),
            clean_views: registry.counter("clean.views_refreshed"),
            clean_dists_refreshed: registry.counter("clean.dists_refreshed"),
            clean_provisional_locations: registry.counter("clean.provisional_locations"),
            clean_dists_canonical: registry.gauge("clean.dists_canonical"),
            clean_dists_provisional: registry.gauge("clean.dists_provisional"),
            locate_budget_spent: registry.counter("locate.budget.spent"),
            locate_budget_deferred: registry.counter("locate.budget.deferred"),
            locate_queue_depth: registry.gauge("locate.queue.depth"),
            locate_api_calls: registry.gauge("location.api_calls"),
            agg_dirty_groups: registry.counter("agg.dirty_groups"),
            st_ingest: StageMetrics::new(registry, "ingest"),
            st_extract: StageMetrics::new(registry, "extract"),
            st_locate: StageMetrics::new(registry, "locate"),
            st_clean: StageMetrics::new(registry, "clean"),
            st_publish: StageMetrics::new(registry, "publish"),
        }
    }
}

/// What one [`Tero::run_window`] call did.
// The report-carrying variant is built once per completed run and moved
// straight to the caller; the size gap never sits in a hot collection.
#[allow(clippy::large_enum_variant)]
pub enum WindowOutcome {
    /// The window's ingest + extract work completed and was committed;
    /// the horizon is not yet reached — call again with a later `to`.
    Advanced,
    /// A scheduled [`tero_chaos::EngineKill`] fired mid-window, after the
    /// ingest commit. The committed state is intact: calling
    /// [`Tero::run_window`] again resumes from it (in-process), or
    /// [`Tero::engine_snapshot`] / [`Tero::restore_engine`] carry it to a
    /// fresh `Tero`.
    Killed,
    /// The horizon was reached: the finalize stages ran and produced the
    /// report. The engine slot is cleared.
    Complete(TeroReport),
}

/// Interior-mutable slot holding the staged engine between
/// [`Tero::run_window`] calls (`run(&self)` keeps its historical shared
/// receiver, so the engine cannot live in a `&mut Tero` field).
#[derive(Default)]
pub struct EngineCell {
    slot: Mutex<EngineSlot>,
    /// The completed run's KV store, kept alive for the serving layer
    /// after the engine itself is dropped (see [`Tero::serving_store`]).
    served: Mutex<Option<KvStore>>,
}

#[derive(Default)]
enum EngineSlot {
    #[default]
    Idle,
    /// A snapshot handed over for restore, with its committed download
    /// cursor already decoded.
    Restore(Box<(StoreSnapshot, Option<DownloadCursor>)>),
    Running(Box<Engine>),
}

impl EngineCell {
    fn lock(&self) -> std::sync::MutexGuard<'_, EngineSlot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drop any in-flight engine or pending restore, and forget the
    /// previous run's serving store.
    pub fn reset(&self) {
        *self.lock() = EngineSlot::Idle;
        *self.served.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

impl std::fmt::Debug for EngineCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &*self.lock() {
            EngineSlot::Idle => "Idle",
            EngineSlot::Restore(_) => "Restore",
            EngineSlot::Running(_) => "Running",
        };
        f.debug_struct("EngineCell").field("slot", &state).finish()
    }
}

/// Everything one pipeline run produces.
pub struct TeroReport {
    /// Download-module statistics.
    pub download: DownloadStats,
    /// Thumbnails processed by image-processing.
    pub thumbnails: u64,
    /// Measurements extracted (primary values).
    pub extracted: u64,
    /// Streamers the location module located, with source.
    pub locations: HashMap<AnonId, (Location, LocationSource)>,
    /// Streamers seen (denominator of the 2.77 % figure).
    pub streamers_seen: usize,
    /// Stitched streams per `{streamer, game}`.
    pub streams: BTreeMap<(AnonId, GameId), Vec<StreamSeries>>,
    /// Anomaly reports per `{streamer, game}`.
    pub anomalies: BTreeMap<(AnonId, GameId), AnomalyReport>,
    /// Classified streamers per `{streamer, game}`.
    pub classified: BTreeMap<(AnonId, GameId), ClassifiedStreamer>,
    /// Per-`{region-key, game}` merged latency clusters.
    pub location_clusters: BTreeMap<(String, GameId), Vec<LatencyCluster>>,
    /// End-point changes per `{streamer, game}`.
    pub endpoint_changes: BTreeMap<(AnonId, GameId), Vec<EndPointChange>>,
    /// Published latency distributions.
    pub distributions: Vec<LocationDistribution>,
    /// Shared anomalies.
    pub shared_anomalies: Vec<SharedAnomaly>,
    /// Streams prepared for the §6 behaviour study.
    pub behavior_streams: Vec<BehaviorStream>,
}

impl TeroReport {
    /// Total clean measurements retained after anomaly filtering.
    pub fn retained_measurements(&self) -> usize {
        self.anomalies.values().map(|r| r.clean_count()).sum()
    }

    /// The distribution for a location (any granularity key) and game.
    pub fn distribution(&self, location: &Location, game: GameId) -> Option<&LocationDistribution> {
        self.distributions
            .iter()
            .find(|d| d.location == *location && d.game == game)
    }

    /// A canonical, deterministic textual rendering of every report
    /// field (unordered maps are sorted first): two reports are
    /// byte-identical exactly when their digests are equal. This is the
    /// comparator behind the sharded-deployment invariant — a merged
    /// sharded run under network chaos must digest identically to the
    /// fault-free single-process run (`tests/net_failover.rs`,
    /// `scripts/ci.sh`).
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let locations: BTreeMap<_, _> = self.locations.iter().collect();
        let _ = writeln!(out, "download: {:?}", self.download);
        let _ = writeln!(out, "thumbnails: {}", self.thumbnails);
        let _ = writeln!(out, "extracted: {}", self.extracted);
        let _ = writeln!(out, "locations: {locations:?}");
        let _ = writeln!(out, "streamers_seen: {}", self.streamers_seen);
        let _ = writeln!(out, "streams: {:?}", self.streams);
        let _ = writeln!(out, "anomalies: {:?}", self.anomalies);
        let _ = writeln!(out, "classified: {:?}", self.classified);
        let _ = writeln!(out, "location_clusters: {:?}", self.location_clusters);
        let _ = writeln!(out, "endpoint_changes: {:?}", self.endpoint_changes);
        let _ = writeln!(out, "distributions: {:?}", self.distributions);
        let _ = writeln!(out, "shared_anomalies: {:?}", self.shared_anomalies);
        let _ = writeln!(out, "behavior_streams: {:?}", self.behavior_streams);
        out
    }
}

impl Tero {
    /// A point-in-time snapshot of every metric recorded so far. Usually
    /// read after [`Tero::run`]; safe to call at any time.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.obs.snapshot()
    }

    /// Run the full pipeline over a world's entire data-set, as one
    /// horizon-sized window through the staged engine.
    pub fn run(&self, world: &mut World) -> TeroReport {
        let run_us = self.obs.histogram("pipeline.run_us");
        let _run_timer = self.obs.stage_timer(&run_us);
        self.engine.reset();
        let horizon = world.horizon;
        // A scheduled engine kill returns `Killed` once; looping resumes
        // from the commit and completes — `run()` under chaos degrades to
        // kill-and-resume instead of dying.
        loop {
            if let WindowOutcome::Complete(report) = self.run_window(world, SimTime::EPOCH, horizon)
            {
                return report;
            }
        }
    }

    /// Process one window of the run: ingest then extract up to `to`
    /// (clamped to the world horizon), committing resumable state after
    /// each stage; when `to` reaches the horizon, finish the run and
    /// return [`WindowOutcome::Complete`].
    ///
    /// The first call creates the engine (`from` sets the start of the
    /// download range; later calls ignore it), taking it out of its slot
    /// and putting it back unless the run completed; subsequent calls
    /// must use non-decreasing `to`. Driving the run as any sequence of
    /// windows produces a report byte-identical to [`Tero::run`].
    pub fn run_window(&self, world: &mut World, from: SimTime, to: SimTime) -> WindowOutcome {
        let mut slot = self.engine.lock();
        let mut engine = match std::mem::take(&mut *slot) {
            EngineSlot::Running(engine) => engine,
            EngineSlot::Idle => Box::new(Engine::new(self, world, from)),
            EngineSlot::Restore(restore) => {
                let (snap, cursor) = *restore;
                Box::new(Engine::resume(self, world, &snap, cursor))
            }
        };
        let outcome = match engine.drive(self, world, to) {
            WindowOutcome::Advanced if to >= world.horizon => {
                WindowOutcome::Complete(engine.finish(self, world))
            }
            outcome => outcome,
        };
        if matches!(outcome, WindowOutcome::Complete(_)) {
            // The engine is dropped, but its KV store — holding the
            // committed serving sketches — stays alive for `tero-serve`.
            *self
                .engine
                .served
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(engine.kv_store().clone());
        } else {
            *slot = EngineSlot::Running(engine);
        }
        outcome
    }

    /// The serving store of the most recently completed run on this
    /// `Tero`: the KV store holding every committed serving-layer sketch
    /// (see [`crate::serving`]), ready to back a `tero-serve` query
    /// engine. `None` before the first completed run. While a windowed
    /// run is in flight, the previous run's store is still served — the
    /// handle swaps atomically when the new run completes.
    pub fn serving_store(&self) -> Option<KvStore> {
        self.engine
            .served
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Like [`Tero::serving_store`], but distinguishes *why* there is
    /// nothing to serve: [`ServingError::NoCompletedRun`] when no run
    /// has finalized on this `Tero`, and — the subtle case —
    /// [`ServingError::NoDistributions`] when a run completed but its
    /// serving view holds zero distribution sketches (every
    /// `{location, game}` group fell below [`Tero::min_streamers`],
    /// which small random worlds hit routinely). A plain
    /// [`Tero::serving_store`] returns `Some(store)` in that second
    /// case, and a query engine over it answers every distribution
    /// query with an empty result — prefer this method anywhere an
    /// empty serving view should be an error rather than a shrug.
    pub fn try_serving_store(&self) -> Result<KvStore, ServingError> {
        let kv = self.serving_store().ok_or(ServingError::NoCompletedRun)?;
        if kv.keys_with_prefix(DIST_SKETCH_PREFIX).is_empty() {
            return Err(ServingError::NoDistributions);
        }
        Ok(kv)
    }

    /// A portable snapshot of the in-flight engine's stores (committed
    /// cursors, queues, ledger, counters, blobs), or `None` when no
    /// windowed run is in flight. Restore it into a fresh `Tero` with
    /// [`Tero::restore_engine`].
    pub fn engine_snapshot(&self) -> Option<StoreSnapshot> {
        match &*self.engine.lock() {
            EngineSlot::Running(engine) => Some(engine.snapshot()),
            _ => None,
        }
    }

    /// Schedule `snapshot` to be restored on the next
    /// [`Tero::run_window`] call, resuming a killed run in this `Tero`.
    /// The committed download cursor is decoded here: a snapshot whose
    /// cursor does not decode, or lacks one although its ingest ran, or
    /// whose `engine:cursor` / `engine:counters` hold a value that is
    /// not a number, is refused with the slot left as it was.
    pub fn restore_engine(&self, snapshot: StoreSnapshot) -> Result<(), CursorError> {
        let cursor = committed_cursor(&snapshot.kv)?;
        *self.engine.lock() = EngineSlot::Restore(Box::new((snapshot, cursor)));
        Ok(())
    }
}

/// The minimum-play constraint used by the behaviour study for one game:
/// §6's stream-preparation step 2 drops streams shorter than the game's
/// typical match length (the `Min. play` column of Table 4), because a
/// server or game change cannot plausibly occur before one full match.
pub fn min_play_for(game: GameId) -> SimDuration {
    SimDuration::from_mins(match_length_mins(game))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::clean::STREAM_GAP;
    use tero_world::WorldConfig;

    #[test]
    fn stream_gap_splits_series() {
        // Exercise the stream-splitting rule end to end: gaps within a
        // stream stay below the threshold; gaps between streams exceed it.
        let mut world = World::build(WorldConfig {
            seed: 3131,
            n_streamers: 15,
            days: 3,
            ..WorldConfig::default()
        });
        let tero = Tero {
            mode: ExtractionMode::Calibrated,
            ..Tero::default()
        };
        let report = tero.run(&mut world);
        for series in report.streams.values() {
            for stream in series {
                for w in stream.samples.windows(2) {
                    assert!(w[1].at.since(w[0].at) <= STREAM_GAP);
                }
            }
            for pair in series.windows(2) {
                let end = pair[0].samples.last().unwrap().at;
                let start = pair[1].samples.first().unwrap().at;
                assert!(start.since(end) > STREAM_GAP, "adjacent streams not split");
            }
        }
    }

    fn run(mode: ExtractionMode, seed: u64, n: usize, days: u64) -> (TeroReport, World) {
        let mut world = World::build(WorldConfig {
            seed,
            n_streamers: n,
            days,
            ..WorldConfig::default()
        });
        let tero = Tero {
            mode,
            min_streamers: 2,
            ..Tero::default()
        };
        let report = tero.run(&mut world);
        (report, world)
    }

    #[test]
    fn full_ocr_pipeline_end_to_end() {
        let (report, world) = run(ExtractionMode::FullOcr, 42, 30, 3);
        assert!(report.thumbnails > 100, "thumbnails {}", report.thumbnails);
        // Extraction rate in the right regime (the paper misses ~28 %).
        let rate = report.extracted as f64 / report.thumbnails as f64;
        assert!((0.4..0.98).contains(&rate), "extraction rate {rate}");
        // Some streamers located (not all — most have no usable footprint).
        assert!(!report.locations.is_empty());
        assert!(report.locations.len() < report.streamers_seen);
        // Streams and analysis products exist.
        assert!(!report.streams.is_empty());
        assert!(!report.anomalies.is_empty());
        assert!(report.retained_measurements() > 0);
        let _ = world;
    }

    #[test]
    fn calibrated_mode_matches_full_ocr_shape() {
        let (full, _) = run(ExtractionMode::FullOcr, 7, 25, 3);
        let (cal, _) = run(ExtractionMode::Calibrated, 7, 25, 3);
        assert_eq!(full.thumbnails, cal.thumbnails, "same downloads");
        let rate_full = full.extracted as f64 / full.thumbnails as f64;
        let rate_cal = cal.extracted as f64 / cal.thumbnails as f64;
        assert!(
            (rate_full - rate_cal).abs() < 0.15,
            "extraction rates {rate_full} vs {rate_cal}"
        );
    }

    #[test]
    fn metrics_snapshot_mirrors_report() {
        let mut world = World::build(WorldConfig {
            seed: 51,
            n_streamers: 25,
            days: 3,
            ..WorldConfig::default()
        });
        let tero = Tero {
            mode: ExtractionMode::Calibrated,
            min_streamers: 2,
            ..Tero::default()
        };
        let report = tero.run(&mut world);
        let snap = tero.metrics_snapshot();
        assert_eq!(
            snap.counter("pipeline.funnel.ingested"),
            Some(report.thumbnails)
        );
        assert_eq!(
            snap.counter("pipeline.funnel.dropped.ocr_unreadable"),
            Some(report.thumbnails - report.extracted),
            "calibrated mode never skips an image, so misses + hits = thumbnails"
        );
        let stitched: u64 = report.streams.values().map(|s| s.len() as u64).sum();
        assert_eq!(snap.counter("pipeline.streams_stitched"), Some(stitched));
        assert_eq!(
            snap.counter("pipeline.streamers_located"),
            Some(report.locations.len() as u64)
        );
        let segments: u64 = report
            .anomalies
            .values()
            .map(|r| r.segments.len() as u64)
            .sum();
        assert_eq!(snap.counter("analysis.segments_built"), Some(segments));
        assert_eq!(
            snap.counter("analysis.distributions_published"),
            Some(report.distributions.len() as u64)
        );
        // Download metrics arrive through the same registry.
        assert_eq!(
            snap.counter("download.get_hits"),
            Some(report.download.downloaded)
        );
        // Store counters are live: the run reads and writes the kv store.
        assert!(snap.counter("store.kv.writes").unwrap() > 0);
        assert!(snap.counter("store.object.writes").unwrap() > 0);
        // The staged engine's own accounting: one window, one commit per
        // per-window stage, no kills, no resumes.
        assert_eq!(snap.counter("pipeline.window.runs"), Some(1));
        assert_eq!(snap.counter("pipeline.window.commits"), Some(2));
        assert_eq!(snap.counter("pipeline.window.killed"), Some(0));
        assert_eq!(snap.counter("pipeline.window.resumed"), Some(0));
        // Per-stage record flow matches the report.
        assert_eq!(snap.counter("stage.ingest.runs"), Some(1));
        assert_eq!(
            snap.counter("stage.extract.records_in"),
            Some(report.thumbnails)
        );
        assert_eq!(
            snap.counter("stage.extract.records_out"),
            Some(report.extracted)
        );
        assert_eq!(
            snap.counter("stage.clean.records_out"),
            Some(report.anomalies.len() as u64)
        );
        let sample_total: u64 = report
            .streams
            .values()
            .flat_map(|series| series.iter())
            .map(|s| s.samples.len() as u64)
            .sum();
        assert_eq!(snap.counter("clean.samples_in"), Some(sample_total));
        assert_eq!(
            snap.counter("stage.locate.records_in"),
            Some(report.streamers_seen as u64)
        );
        assert_eq!(
            snap.counter("stage.publish.records_out"),
            Some(report.distributions.len() as u64)
        );
        // Timing is off by default: histograms registered but empty.
        let run_us = snap.histogram("pipeline.run_us").unwrap();
        assert_eq!(run_us.count, 0, "timing disabled by default");
    }

    #[test]
    fn ledger_reconciles_with_funnel_counters() {
        // The provenance pass must account for every ingested thumbnail
        // in both extraction modes, and the ledger's books must match the
        // pipeline.funnel.* counters exactly.
        for mode in [ExtractionMode::Calibrated, ExtractionMode::FullOcr] {
            let mut world = World::build(WorldConfig {
                seed: 77,
                n_streamers: 25,
                days: 2,
                ..WorldConfig::default()
            });
            let tero = Tero {
                mode,
                min_streamers: 2,
                ..Tero::default()
            };
            let report = tero.run(&mut world);
            let summary = tero
                .trace
                .ledger()
                .reconcile(&tero.obs)
                .expect("ledger reconciles");
            assert_eq!(summary.ingested, report.thumbnails, "{mode:?}");
            assert!(summary.ingested > 0, "{mode:?}");
            assert!(
                summary.published + summary.total_dropped() == summary.ingested,
                "{mode:?}: every sample resolved"
            );
        }
    }

    #[test]
    fn extraction_accuracy_against_ground_truth() {
        let (report, world) = run(ExtractionMode::FullOcr, 11, 25, 3);
        // Compare extracted values to the world's truth samples.
        let mut correct = 0u64;
        let mut wrong = 0u64;
        for ((anon, _game), series) in &report.streams {
            // Recover the username (test-only; the pipeline itself never
            // stores it).
            let Some(streamer) = world
                .streamers()
                .iter()
                .find(|s| AnonId::from_streamer(&s.id, 0x7e60) == *anon)
            else {
                continue;
            };
            for s in series.iter().flat_map(|s| &s.samples) {
                if let Some(truth) = world.twitch.truth_sample(streamer.id.as_str(), s.at) {
                    if truth.displayed_ms == s.latency_ms {
                        correct += 1;
                    } else {
                        wrong += 1;
                    }
                }
            }
        }
        let total = correct + wrong;
        assert!(total > 100);
        let err = wrong as f64 / total as f64;
        assert!(err < 0.15, "extraction error rate {err}");
    }
}
