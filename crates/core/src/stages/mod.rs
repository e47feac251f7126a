//! The staged execution engine's stage layer (App. B).
//!
//! The paper's production pipeline is four decoupled programs connected
//! through Redis lists and S3 buckets. This module reproduces that shape
//! in-process: each stage is a plain struct holding its own resumable
//! state, and stages hand work to each other through
//! [`tero_store::KvStore`] lists and [`tero_store::ObjectStore`] blobs —
//! never through shared memory. The [`crate::engine::Engine`] owns the
//! wiring (stores, pool, tracer, chaos) once and calls the stages window
//! by window, on a fixed schedule ([`crate::pipeline::Tero::run`]) or the
//! caller's ([`crate::pipeline::Tero::run_window`]). Ingest is the App. A
//! [`crate::download::DownloadModule`] itself, which the engine advances
//! through a resumable `crate::download::DownloadCursor`; each call
//! returns what it moved (`download::Ingested`), as the other stages do,
//! and the engine gates extract and locate on that. The rest:
//!
//! * [`extract`] — image-processing (§3.2): drains `queue:thumbs`,
//!   OCRs thumbnails on the pool, and appends [`SampleRecord`]s to
//!   per-`{streamer, game}` KV lists;
//! * [`locate`] — the §3.1 location module over the names the extractor
//!   registered, run *incrementally*: every window spends an explicit
//!   simulated-API budget locating newly-seen streamers (over-budget
//!   lookups carry over), commits resumable `engine:locate:*` state, and
//!   re-evaluates committed results as tag history grows — so locations
//!   become canonical as soon as a streamer is located, not at the
//!   horizon — and locates the still-queued provisionally from their
//!   social profile (see `docs/AGGREGATION.md`);
//! * [`clean`] — §3.3 per-`{streamer, game}` stitching (streams split at
//!   gaps larger than `clean::STREAM_GAP`), segmentation, anomaly
//!   detection and classification — run *online*: every window feeds the
//!   new records, seals finished blocks, and refreshes the cached views
//!   of the series it fed (see `docs/CLEANING.md`);
//! * [`agg`] — the §3.3.3/§5/§6 per-`{location, game}` group analyses
//!   (merged clusters, end-point changes, distributions, shared
//!   anomalies), maintained incrementally in memory under each
//!   streamer's serving location: each window re-analyses only the
//!   groups whose membership, provenance or member data moved, and
//!   serves their distributions — the one writer of
//!   `engine:serve:dist*`;
//! * [`publish`] — the horizon finalizer: takes the aggregation stage's
//!   analyses, runs the provenance pass, and assembles the
//!   final report, once the window that reaches the horizon has made
//!   the same locate → view refresh → aggregation calls as every other
//!   window (locate without its budget).

pub mod agg;
pub mod clean;
pub mod extract;
pub mod locate;
pub mod publish;

use crate::download::DownloadModule;
use crate::keys::{parse_decimal, parse_series_key, series_key};
use crate::pipeline::{PipelineMetrics, Tero};
use tero_pool::Pool;
use tero_store::KvStore;
use tero_trace::obs::{CounterHandle, HistogramHandle, Registry};
use tero_trace::{Budget, SpanGuard};
use tero_types::{AnonId, GameId, SimTime};
use tero_world::World;

/// Everything a stage call may touch. The engine builds one per step of
/// a window, so the borrows stay scoped to it; stages keep their own
/// resumable state in their struct, not in the context.
pub(crate) struct StageCx<'a> {
    /// The orchestrator's configuration (params, mode, salt, tracer…).
    pub tero: &'a Tero,
    /// The simulated platform the run executes against.
    pub world: &'a mut World,
    /// The worker pool shared by every parallel stage.
    pub pool: &'a Pool,
    /// The engine's KV store — queues, leases and `engine:*` state.
    pub kv: &'a KvStore,
    /// The download module: ingest runs it, and extract uses its
    /// store-facing helpers (task drain, dead-letter, image load).
    pub download: &'a DownloadModule,
    /// The pipeline's pre-resolved metric handles.
    pub metrics: &'a PipelineMetrics,
    /// The run-level trace span stages hang their children off.
    pub sp_run: &'a SpanGuard,
}

impl<'a> StageCx<'a> {
    /// Enter one invocation of the stage `m` belongs to — the only
    /// instrument a stage opens. Bumps `stage.<name>.runs` and opens the
    /// `stage.<name>` span under the run span; that guard is the stage's
    /// one wall-clock reader, handing the same reading to the span's
    /// `wall_us` (tracer wall clock on) and to the `stage.<name>.us`
    /// histogram (registry timing on). Inner phases and fan-outs may
    /// hang children off the guard.
    pub(crate) fn enter(&self, m: &StageMetrics) -> SpanGuard {
        m.runs.inc();
        self.sp_run.child(&m.span).timed(&self.tero.obs, &m.us)
    }
}

/// The metric bundle of one stage that opens a `stage.<name>` span.
///
/// A stage runs many times (once per window), so the handles are
/// resolved once and reused: `stage.<name>.runs` counts invocations,
/// `stage.<name>.records_in` / `stage.<name>.records_out` count the
/// typed records flowing through, and `stage.<name>.us` is the
/// wall-clock latency histogram, recorded into by the stage's span
/// ([`StageCx::enter`]) while the registry's timing knob is on.
pub(crate) struct StageMetrics {
    /// `stage.<name>`: the name of the trace span that times the stage.
    span: String,
    runs: CounterHandle,
    pub(crate) records_in: CounterHandle,
    pub(crate) records_out: CounterHandle,
    us: HistogramHandle,
}

impl StageMetrics {
    /// Resolve (and eagerly register) the four `stage.<name>.*` metrics.
    pub(crate) fn new(registry: &Registry, name: &str) -> Self {
        StageMetrics {
            span: format!("stage.{name}"),
            runs: registry.counter(&format!("stage.{name}.runs")),
            records_in: registry.counter(&format!("stage.{name}.records_in")),
            records_out: registry.counter(&format!("stage.{name}.records_out")),
            us: registry.histogram(&format!("stage.{name}.us")),
        }
    }
}

/// The pipeline's declared tick budgets, one row per span name: the
/// downloader's `download.run`, the `stage.extract` and `stage.locate`
/// stages, the inner `stage.analyze` / `stage.aggregate` /
/// `stage.provenance` / `stage.behavior` passes, and the `pipeline.run`
/// root. `stage.ingest`, `stage.clean` and `stage.publish` have no row.
/// Limits are set from the stock two-country exploration world (see
/// PERFORMANCE.md's table) with ~2× headroom, so honest growth fits but
/// a runaway stage trips.
pub fn default_stage_budgets() -> Vec<Budget> {
    vec![
        Budget::new("download.run", 4_000),
        Budget::new("stage.extract", 4_000),
        Budget::new("stage.analyze", 4_000),
        Budget::new("stage.locate", 1_000),
        Budget::new("stage.aggregate", 1_000),
        Budget::new("stage.provenance", 1_000),
        Budget::new("stage.behavior", 1_000),
        Budget::new("pipeline.run", 20_000),
    ]
}

/// KV key prefix for the per-`{streamer, game}` extracted-sample lists
/// the extract stage appends to and the clean stage consumes through a
/// non-destructive per-series cursor (the lists stay in place as the
/// cleaner's replay log). Lives under the chaos-exempt
/// [`tero_store::PROTECTED_PREFIX`]: these lists are the engine's own
/// commit log, not the simulated data plane.
pub const SAMPLES_PREFIX: &str = "engine:samples:";

/// KV hash mapping `{anon:016x}` → raw streamer username, written by the
/// extract stage (first write wins) and read by the locate stage.
pub const NAMES_KEY: &str = "engine:names";

/// The KV list key for one `{streamer, game}` sample series.
pub(crate) fn sample_list_key(anon: AnonId, game: GameId) -> String {
    series_key(SAMPLES_PREFIX, anon, game)
}

/// Parse a [`sample_list_key`] back into its `{streamer, game}` pair.
pub(crate) fn parse_sample_list_key(key: &str) -> Option<(AnonId, GameId)> {
    parse_series_key(SAMPLES_PREFIX, key)
}

/// One extracted measurement, as it travels between the extract and
/// clean stages through a KV list (the in-process analogue of the
/// paper's Redis measurement queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRecord {
    /// When the thumbnail was generated (the measurement's timestamp).
    pub at: SimTime,
    /// The primary extracted value (ms).
    pub primary: u32,
    /// A dissenting OCR engine's alternative reading, if any.
    pub alternative: Option<u32>,
}

impl SampleRecord {
    /// Wire encoding: `{at_micros}|{primary}|{alternative or -}`.
    pub fn encode(&self) -> String {
        match self.alternative {
            Some(alt) => format!("{}|{}|{alt}", self.at.as_micros(), self.primary),
            None => format!("{}|{}|-", self.at.as_micros(), self.primary),
        }
    }

    /// Decode a [`SampleRecord::encode`] string.
    pub fn decode(raw: &str) -> Option<SampleRecord> {
        let mut parts = raw.split('|');
        let at = SimTime::from_micros(parse_decimal(parts.next()?)?);
        let primary = parse_decimal(parts.next()?)?;
        let alt_raw = parts.next()?;
        if parts.next().is_some() {
            return None;
        }
        let alternative = match alt_raw {
            "-" => None,
            v => Some(parse_decimal(v)?),
        };
        Some(SampleRecord {
            at,
            primary,
            alternative,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_metrics_register_the_standard_names() {
        let r = Registry::new();
        let m = StageMetrics::new(&r, "extract");
        assert_eq!(m.span, "stage.extract");
        assert_eq!(
            r.metric_names(),
            vec![
                "stage.extract.records_in",
                "stage.extract.records_out",
                "stage.extract.runs",
                "stage.extract.us",
            ]
        );
    }
}
