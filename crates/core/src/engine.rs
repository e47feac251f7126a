//! The staged execution engine: owns the run-scoped wiring (stores, pool,
//! download module, tracer spans, chaos hookup) once, and calls the
//! [`crate::stages`] either as a single full-horizon window or
//! incrementally.
//!
//! # Windowed execution and crash recovery
//!
//! The engine processes `[from, horizon]` as a sequence of windows. The
//! ingest, extract, clean, locate and aggregation stages all advance per
//! window: the clean stage stitches, seals and re-analyses incrementally
//! over each window's new records (see `docs/CLEANING.md`); the locate
//! stage spends an explicit per-window simulated-API budget and commits
//! canonical `engine:locate:*` results as they settle; and the
//! aggregation stage re-analyses, in memory, only the `{location, game}`
//! groups the window dirtied and re-serves them — it is the one writer
//! of the served distributions (see `docs/AGGREGATION.md`). The window
//! that reaches the horizon is such a window; `Engine::finish` then
//! makes the same calls once more with no locate budget, so the queue
//! drains and every served group is canonical, and only then does the
//! one horizon-only stage run: publish takes the aggregation stage's
//! analyses into the report.
//! After every per-window stage the
//! engine **commits**: the download cursor, the funnel ledger delta,
//! every counter, the cleaner's `engine:clean:cursors`, and the
//! engine's own progress markers are brought up to date under the
//! chaos-exempt `engine:` key prefix — only what moved since the last
//! commit is written (the commit contract is in `docs/ARCHITECTURE.md`).
//! A run killed mid-window (see
//! [`tero_chaos::EngineKill`]) can therefore be resumed — in-process or
//! from a [`StoreSnapshot`] in a fresh [`Tero`] — without re-ingesting or
//! double-counting anything: resumption replays the committed state and
//! re-runs only the work after the last commit.

use crate::download::{DownloadCursor, DownloadModule};
use crate::pipeline::{PipelineMetrics, Tero, TeroReport, WindowOutcome};
use crate::serving::{parse_raw_sketch_key, raw_sketch_key, RAW_SKETCH_PREFIX, SERVE_VERSION_KEY};
use crate::stages::agg::AggStage;
use crate::stages::clean::CleanStage;
use crate::stages::extract::{ExtractStage, Extracted};
use crate::stages::locate::LocateStage;
use crate::stages::publish::publish;
use crate::stages::StageCx;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use tero_obs::CounterHandle;
use tero_pool::Pool;
use tero_store::{KvSnapshot, KvStore, ObjectSnapshot, ObjectStore};
use tero_trace::{DropReason, SampleKey, SampleState, SpanGuard};
use tero_types::{AnonId, GameId, SimTime};
use tero_world::World;

/// KV key holding the serialised [`DownloadCursor`].
pub(crate) const CURSOR_KEY: &str = "engine:download_cursor";
/// KV hash holding the engine's own progress markers.
pub(crate) const ENGINE_KEY: &str = "engine:cursor";
/// KV hash holding every counter value at the last commit.
pub(crate) const COUNTERS_KEY: &str = "engine:counters";
/// KV list holding the committed ledger records, in ingest order.
pub(crate) const LEDGER_KEY: &str = "engine:ledger";

/// A portable snapshot of the engine's stores, for resuming a killed run
/// in a fresh process (the in-memory analogue of Redis persistence plus
/// an S3 bucket listing).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// The KV store: queues, leases, and all committed `engine:` state.
    pub kv: KvSnapshot,
    /// The object store: every thumbnail blob ingest has stored. Extract
    /// reads a blob and leaves it; nothing deletes one.
    pub objects: ObjectSnapshot,
}

/// The staged engine for one run. Created lazily by the first
/// [`Tero::run_window`] call (the sharded orchestrator creates its
/// per-shard and merge engines itself) and dropped when the run
/// completes.
pub struct Engine {
    wiring: Wiring,
    /// The download module's resumable event-loop state, spanning the
    /// whole run — what ingest advances and every commit persists.
    cursor: DownloadCursor,
    extract: ExtractStage,
    locate: LocateStage,
    clean: CleanStage,
    agg: AggStage,
    /// Series fed by the clean stage since the last aggregation pass —
    /// the aggregation stage's dirty-member input. Cleared after each
    /// pass.
    agg_pending: BTreeSet<(AnonId, GameId)>,
    /// Ingest queued thumbnail tasks the extract stage has not drained
    /// yet. Engine state, not window state: a kill fires after the ingest
    /// commit, and the re-driven call skips ingest but must still extract.
    tasks_queued: bool,
    /// A poll grew a `tags:*` list the locate stage has not looked at
    /// yet. Engine state for the same reason.
    tags_grew: bool,
    /// Set until the first pass over the stages completes. A new engine
    /// has seen nothing move (and a restored one holds another process's
    /// store), so its first pass runs every stage.
    first_pass: bool,
    /// Index of the window currently being processed (0-based).
    window_index: u64,
    /// High-water mark of completed ingest work.
    ingested_to: Option<SimTime>,
    /// High-water mark of completed extract work.
    extracted_to: Option<SimTime>,
    horizon: SimTime,
    /// Ledger records already written to `engine:ledger`.
    ledger_committed: usize,
    /// Every registered counter, sorted by name, with its handle and the
    /// value `engine:counters` holds for it (`None`: not yet in the hash).
    committed_counters: Vec<(String, CounterHandle, Option<u64>)>,
    /// The values `engine:cursor` holds, in [`MARKER_FIELDS`] order;
    /// `None` for a field the hash does not have yet.
    committed_markers: [Option<u64>; 5],
}

/// The run-scoped wiring every stage call borrows: the stores, the pool,
/// the download module (ingest runs it; extract drains, loads and
/// dead-letters through it), the run span and the metric handles. Apart
/// from the stages' own state, so a [`StageCx`] over it can sit beside a
/// `&mut` stage.
struct Wiring {
    kv: KvStore,
    objects: ObjectStore,
    pool: Pool,
    download: DownloadModule,
    sp_run: SpanGuard,
    metrics: PipelineMetrics,
}

impl Wiring {
    /// The context of one stage call — the only place one is built.
    fn cx<'a>(&'a self, tero: &'a Tero, world: &'a mut World) -> StageCx<'a> {
        StageCx {
            tero,
            world,
            pool: &self.pool,
            kv: &self.kv,
            objects: &self.objects,
            download: &self.download,
            metrics: &self.metrics,
            sp_run: &self.sp_run,
        }
    }
}

/// The fields of the `engine:cursor` hash.
const MARKER_FIELDS: [&str; 5] = [
    "window_index",
    "ingested_to",
    "extracted_to",
    "tasks_processed",
    "extracted",
];

impl Engine {
    /// Wire up a fresh engine, once per run: metric handles, tracer,
    /// pool, stores, chaos hookup and the download module.
    pub fn new(tero: &Tero, world: &World, from: SimTime) -> Engine {
        let metrics = PipelineMetrics::new(&tero.obs);
        tero.trace.begin_run();
        tero.trace.instrument(&tero.obs);
        let sp_run = tero.trace.span("pipeline.run");
        let pool = Pool::with_metrics(tero.worker_threads, &tero.obs);
        // A sharded deployment injects network-backed store facades; a
        // plain run gets private in-process stores. Either way the
        // facade is the same type, so every stage below is oblivious to
        // where its reads and writes actually land.
        let (kv, objects) = match &tero.stores {
            Some((kv, objects)) => (kv.clone(), objects.clone()),
            None => (KvStore::new(), ObjectStore::new()),
        };
        kv.instrument(&tero.obs);
        objects.instrument(&tero.obs);
        // If the world carries a fault injector, surface its counters in
        // this registry and let it sabotage store writes too.
        if let Some(chaos) = world.chaos().cloned() {
            chaos.instrument(&tero.obs);
            // Injected faults journal themselves as trace events, so a
            // flight-recorder dump shows *why* a window looks anomalous.
            chaos.set_trace(&tero.trace);
            kv.inject_faults(chaos.clone());
            objects.inject_faults(chaos);
        }
        let mut download = DownloadModule::new(kv.clone(), objects.clone());
        download.instrument(&tero.obs);
        download.set_trace(&tero.trace);
        download.set_pool(&pool);
        let horizon = world.horizon;
        Engine {
            wiring: Wiring {
                kv,
                objects,
                pool,
                download,
                sp_run,
                metrics,
            },
            cursor: DownloadCursor::new(from, horizon),
            extract: ExtractStage::new(&tero.obs),
            locate: LocateStage::default(),
            clean: CleanStage::default(),
            agg: AggStage::default(),
            agg_pending: BTreeSet::new(),
            tasks_queued: false,
            tags_grew: false,
            first_pass: true,
            window_index: 0,
            ingested_to: None,
            extracted_to: None,
            horizon,
            ledger_committed: 0,
            committed_counters: Vec::new(),
            committed_markers: [None; 5],
        }
    }

    /// Rebuild an engine from a [`StoreSnapshot`] taken after a kill:
    /// restore the stores, replay the committed counters and ledger, and
    /// deserialise the download cursor and progress markers. Fails,
    /// before touching anything, with a [`CursorError`] when the
    /// committed cursor does not decode, is missing although ingest ran,
    /// or a committed marker or counter value is not a number.
    pub fn restore(
        tero: &Tero,
        world: &World,
        snap: &StoreSnapshot,
    ) -> Result<Engine, CursorError> {
        let cursor = committed_cursor(&snap.kv)?;
        Ok(Engine::resume(tero, world, snap, cursor))
    }

    /// [`Engine::restore`] with the committed cursor already decoded.
    pub(crate) fn resume(
        tero: &Tero,
        world: &World,
        snap: &StoreSnapshot,
        cursor: Option<DownloadCursor>,
    ) -> Engine {
        let mut engine = Engine::new(tero, world, SimTime::EPOCH);
        let kv = &engine.wiring.kv;
        kv.restore(&snap.kv);
        engine.wiring.objects.restore(&snap.objects);
        // Counters are monotonic, so a fresh registry catches up by adding
        // each committed value. (Histograms hold only summary snapshots
        // and are not restorable; every cross-run comparison uses
        // counters, the funnel, and the report.)
        let mut counters: Vec<(String, u64)> = kv
            .hgetall(COUNTERS_KEY)
            .into_iter()
            .filter_map(|(name, v)| Some((name, v.parse().ok()?)))
            .collect();
        counters.sort_unstable();
        engine.committed_counters = counters
            .into_iter()
            .map(|(name, value)| {
                let handle = tero.obs.counter(&name);
                handle.add(value);
                (name, handle, Some(value))
            })
            .collect();
        // Replay the ledger: every committed record is re-ingested in its
        // original FIFO order, and resolved records resolve immediately.
        let records = kv.lrange_from(LEDGER_KEY, 0);
        let ledger = tero.trace.ledger();
        for raw in &records {
            let Some((key, state)) = decode_ledger_record(raw) else {
                continue;
            };
            ledger.ingest(key);
            if state != SampleState::Pending {
                ledger.resolve(&key, state);
            }
        }
        engine.ledger_committed = records.len();
        if let Some(cursor) = cursor {
            engine.cursor = cursor;
        }
        let markers = kv.hgetall(ENGINE_KEY);
        engine.committed_markers =
            MARKER_FIELDS.map(|field| markers.get(field).and_then(|v| v.parse::<u64>().ok()));
        let [window_index, ingested_to, extracted_to, tasks_processed, extracted] =
            engine.committed_markers;
        engine.window_index = window_index.unwrap_or(0);
        engine.ingested_to = ingested_to.map(SimTime::from_micros);
        engine.extracted_to = extracted_to.map(SimTime::from_micros);
        engine.extract.tasks_processed = tasks_processed.unwrap_or(0);
        engine.extract.extracted = extracted.unwrap_or(0);
        // The cursor's span bookkeeping is not part of its committed form:
        // the next window starts where committed ingest ended.
        if let Some(t) = engine.ingested_to {
            engine.cursor.window_start = t;
        }
        // Rebuild the extract stage's raw serving sketches from the
        // committed view, so later windows extend them instead of
        // restarting from empty (the committed sketch already holds every
        // value extracted before the kill).
        for key in kv.keys_with_prefix(RAW_SKETCH_PREFIX) {
            let Some(pair) = parse_raw_sketch_key(&key) else {
                continue;
            };
            if let Some(sketch) = kv
                .get(&key)
                .and_then(|raw| tero_stats::QuantileSketch::decode(&raw))
            {
                engine.extract.sketches.insert(pair, sketch);
            }
        }
        // Rebuild the online cleaner from the committed sample lists and
        // `engine:clean:cursors` (metric-silent: the counters above
        // already carry the cleaner's committed totals).
        engine.clean.rebuild(kv, &tero.params);
        // Rebuild the budgeted locate stage from its committed
        // `engine:locate:*` hashes (profile outcomes are never re-drawn).
        // The aggregation stage restores empty but for the served keys it
        // reads back: its first pass, which `first_pass` guarantees,
        // analyses every group and deletes what it no longer serves.
        engine.locate.rebuild(kv);
        engine.agg.rebuild(kv);
        engine.wiring.metrics.window_resumed.inc();
        engine
    }

    /// Advance the run to `to` (clamped to the horizon): run the
    /// per-window stages with a commit after each and honour any
    /// scheduled [`tero_chaos::EngineKill`]. After ingest a stage runs
    /// only if one of its inputs moved (the run conditions are one table
    /// in `docs/ARCHITECTURE.md`); a window that moved nothing runs none
    /// and still commits twice. Returns [`WindowOutcome::Advanced`] or
    /// [`WindowOutcome::Killed`]: the window that reaches the horizon is
    /// a window like any other, and [`Engine::finish`] completes the run.
    pub(crate) fn drive(&mut self, tero: &Tero, world: &mut World, to: SimTime) -> WindowOutcome {
        let to = to.min(self.horizon);
        if self.ingested_to.is_none_or(|t| t < to) {
            {
                let cx = self.wiring.cx(tero, world);
                let m = &cx.metrics.st_ingest;
                let _span = cx.enter(m);
                let ingested = cx.download.run_cursor(cx.world, &mut self.cursor, to);
                m.records_out.add(ingested.thumbnails);
                self.tasks_queued |= ingested.thumbnails > 0;
                self.tags_grew |= ingested.tags_grew;
            }
            self.ingested_to = Some(to);
            self.commit(tero);
        }
        // The scheduled kill fires between the ingest commit and the
        // extract stage — the worst case for double-counting, since the
        // queued tasks are committed but not yet drained.
        if world
            .chaos()
            .is_some_and(|c| c.engine_kill(self.window_index))
        {
            self.wiring.metrics.window_killed.inc();
            return WindowOutcome::Killed;
        }
        if self.extracted_to.is_none_or(|t| t < to) {
            let all = std::mem::take(&mut self.first_pass);
            let tasks_queued = std::mem::take(&mut self.tasks_queued);
            let tags_grew = std::mem::take(&mut self.tags_grew);
            let mut cx = self.wiring.cx(tero, world);
            let extracted = if all || tasks_queued {
                self.extract.run(&mut cx)
            } else {
                Extracted::default()
            };
            // Clean incrementally over the records extract just appended;
            // the window's budgeted locate slice then sees the names
            // extract just registered, the tag lists ingest just grew and
            // whatever earlier budgets left queued.
            let appended = all || extracted.records > 0;
            if appended {
                self.agg_pending.extend(self.clean.advance(&mut cx));
            }
            let names_or_tags = extracted.new_name || tags_grew;
            self.settle(
                tero,
                world,
                tero.locate_budget,
                all,
                names_or_tags,
                appended,
            );
            self.extracted_to = Some(to);
            self.commit(tero);
        }
        self.window_index += 1;
        self.wiring.metrics.window_runs.inc();
        WindowOutcome::Advanced
    }

    /// The calls every window makes after the clean feed, each gated on
    /// its inputs: the locate slice under `budget` (`None`: the queue
    /// drains), the view refresh, and the aggregation pass over the
    /// pending series, which serves what it re-analysed. `all`: the
    /// engine's first pass, which runs every call; `names_or_tags`:
    /// extract registered a name or a poll grew a `tags:*` list;
    /// `appended`: the clean feed moved a series.
    fn settle(
        &mut self,
        tero: &Tero,
        world: &mut World,
        budget: Option<u64>,
        all: bool,
        names_or_tags: bool,
        appended: bool,
    ) {
        let mut cx = self.wiring.cx(tero, world);
        let located = (all || names_or_tags || self.locate.has_backlog())
            && self.locate.advance(&mut cx, budget);
        if appended {
            self.clean.refresh_views(&mut cx);
        }
        // A membership or a provenance moves only with a verdict or a
        // fed series.
        if all || located || !self.agg_pending.is_empty() {
            self.agg
                .advance(&mut cx, self.clean.views(), &self.locate, &self.agg_pending);
        }
        self.agg_pending.clear();
    }

    /// Bring the committed `engine:` state up to date with this point, so
    /// a run can resume after it: the download cursor, the counter
    /// values, the ledger delta, and the progress markers — all under
    /// `engine:` keys, which chaos never drops. Only what moved since the
    /// last commit is written; the state left behind is what rewriting
    /// everything would leave.
    ///
    /// Each hash takes exactly one write per commit however many of its
    /// fields moved, so the number of store operations — itself a
    /// committed counter — does not depend on which counters a window
    /// happened to move.
    fn commit(&mut self, tero: &Tero) {
        let Wiring { kv, metrics, .. } = &self.wiring;
        if self.cursor.take_dirty() {
            kv.set(
                CURSOR_KEY,
                serde_json::to_string(&self.cursor).expect("cursor serialises"),
            );
        }
        // Counters are never unregistered, so while the registry holds as
        // many as were kept it holds the same ones, and their values are
        // read through the kept handles. After a registration the kept
        // list is merged with the registry's (both in name order); a
        // newcomer has no committed value, so it is written below.
        let committed = &mut self.committed_counters;
        if tero.obs.counter_count() != committed.len() {
            let mut kept = std::mem::take(committed).into_iter().peekable();
            *committed = tero
                .obs
                .counter_handles()
                .into_iter()
                .map(|(name, handle)| {
                    let value = kept.next_if(|(n, _, _)| *n == name).and_then(|(_, _, v)| v);
                    (name, handle, value)
                })
                .collect();
        }
        let mut moved = Vec::new();
        for (name, handle, committed) in committed.iter_mut() {
            let value = handle.get();
            if *committed != Some(value) {
                *committed = Some(value);
                moved.push((name.clone(), value.to_string()));
            }
        }
        kv.hset_many(COUNTERS_KEY, moved);
        let records = tero.trace.ledger().records_from(self.ledger_committed);
        if !records.is_empty() {
            self.ledger_committed += records.len();
            kv.rpush_batch(
                LEDGER_KEY,
                records.iter().map(|(k, s)| encode_ledger_record(k, s)),
            );
        }
        let markers = [
            Some(self.window_index),
            self.ingested_to.map(SimTime::as_micros),
            self.extracted_to.map(SimTime::as_micros),
            Some(self.extract.tasks_processed),
            Some(self.extract.extracted),
        ];
        let committed = std::mem::replace(&mut self.committed_markers, markers);
        kv.hset_many(
            ENGINE_KEY,
            MARKER_FIELDS
                .into_iter()
                .zip(markers)
                .zip(committed)
                .filter(|((_, now), was)| now != was)
                .filter_map(|((field, now), _)| Some((field.to_string(), now?.to_string()))),
        );
        // Persist this window's dirty raw sketches and bump the serving
        // version so `tero-serve` caches drop entries computed over the
        // now-stale view. Re-writing a whole sketch (not a delta) keeps
        // the commit idempotent: resuming and re-extracting a window
        // rebuilds the identical sketch (bucket addition is
        // order-independent) and overwrites with the same bytes.
        let dirty = std::mem::take(&mut self.extract.dirty_sketches);
        if !dirty.is_empty() {
            for (anon, game) in dirty {
                let encoded = self.extract.sketches[&(anon, game)].encode();
                metrics.sketch_bytes.add(encoded.len() as u64);
                metrics.sketch_commits.inc();
                kv.set(&raw_sketch_key(anon, game), encoded);
            }
            kv.incr_by(SERVE_VERSION_KEY, 1);
        }
        metrics.window_commits.inc();
    }

    /// A portable snapshot of the stores for cross-process resume.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            kv: self.wiring.kv.snapshot(),
            objects: self.wiring.objects.snapshot(),
        }
    }

    /// Finish the run at the horizon with the calls every window makes,
    /// the locate slice without a budget (the queue drains, so the
    /// aggregation pass leaves every served group canonical), then hand the
    /// cleaner's state to publish, which takes the aggregation stage's
    /// analyses into the report. Called once, after the window that
    /// reaches the horizon — or straight after [`Engine::restore`] when
    /// the restored store is already extracted to it (the sharded merge).
    pub(crate) fn finish(&mut self, tero: &Tero, world: &mut World) -> TeroReport {
        // The unbudgeted slice runs even with nothing queued, so every
        // run counts exactly one (`stage.locate.runs`, the trace).
        let all = std::mem::take(&mut self.first_pass);
        self.settle(tero, world, None, all, true, all);
        let mut cx = self.wiring.cx(tero, world);
        let cleaned = self.clean.take_cleaned(&mut cx);
        publish(
            &mut cx,
            cleaned,
            &self.locate,
            &mut self.agg,
            &self.extract,
            self.cursor.stats().clone(),
        )
    }

    /// The engine's KV store — shared-handle clone-able; the pipeline
    /// stashes it as the serving store when a run completes.
    pub(crate) fn kv_store(&self) -> &KvStore {
        &self.wiring.kv
    }
}

/// Why a snapshot's committed progress cannot be resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorError {
    /// `engine:download_cursor` does not decode; the decoder's message.
    Undecodable(String),
    /// `engine:download_cursor` is missing although `engine:cursor` says
    /// ingest ran.
    Missing,
    /// A field of the `engine:cursor` or `engine:counters` hash is
    /// present but does not parse as a `u64`.
    NotANumber {
        /// The hash holding the field.
        key: &'static str,
        /// The field whose value does not parse.
        field: String,
    },
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CursorError::Undecodable(reason) => {
                write!(f, "committed download cursor does not decode: {reason}")
            }
            CursorError::Missing => {
                write!(f, "committed download cursor missing although ingest ran")
            }
            CursorError::NotANumber { key, field } => {
                write!(f, "committed {key} field {field} is not a u64")
            }
        }
    }
}

impl std::error::Error for CursorError {}

/// The download cursor a snapshot committed, decoded; `None` when ingest
/// never ran. Resuming from a fresh cursor in place of a committed one
/// would poll from the start again and queue every thumbnail a second
/// time, so a cursor that does not decode, or one missing while
/// `engine:cursor` has `ingested_to`, is an error. So is a progress
/// marker or counter value that does not parse: resuming would read it
/// as absent, report a wrong total, and let the next commit overwrite
/// the counter with a smaller value. A missing field is legal.
pub(crate) fn committed_cursor(snap: &KvSnapshot) -> Result<Option<DownloadCursor>, CursorError> {
    let markers = snap.hash_fields(ENGINE_KEY).unwrap_or_default();
    let counters = snap.hash_fields(COUNTERS_KEY).unwrap_or_default();
    for (key, fields) in [(ENGINE_KEY, markers), (COUNTERS_KEY, counters)] {
        if let Some((field, _)) = fields.iter().find(|(_, v)| v.parse::<u64>().is_err()) {
            let field = field.clone();
            return Err(CursorError::NotANumber { key, field });
        }
    }
    match snap.get(CURSOR_KEY) {
        Some(raw) => serde_json::from_str(raw)
            .map(Some)
            .map_err(|e| CursorError::Undecodable(e.to_string())),
        None if markers.iter().any(|(f, _)| f == "ingested_to") => Err(CursorError::Missing),
        None => Ok(None),
    }
}

/// Wire encoding of one ledger record:
/// `{anon:016x}|{game_idx:02}|{at_micros}|{state}` with state `?`
/// (pending), `P` (published) or `D{drop_reason_idx}`.
fn encode_ledger_record(key: &SampleKey, state: &SampleState) -> String {
    let game_idx = key.game.index();
    let state = match state {
        SampleState::Pending => "?".to_string(),
        SampleState::Published => "P".to_string(),
        SampleState::Dropped(reason) => format!("D{}", reason.index()),
    };
    format!(
        "{:016x}|{game_idx:02}|{}|{state}",
        key.anon.0,
        key.at.as_micros()
    )
}

/// Decode an [`encode_ledger_record`] string.
fn decode_ledger_record(raw: &str) -> Option<(SampleKey, SampleState)> {
    let mut parts = raw.split('|');
    let anon = AnonId(u64::from_str_radix(parts.next()?, 16).ok()?);
    let game = *GameId::ALL.get(parts.next()?.parse::<usize>().ok()?)?;
    let at = SimTime::from_micros(parts.next()?.parse().ok()?);
    let state = match parts.next()? {
        "?" => SampleState::Pending,
        "P" => SampleState::Published,
        s => {
            let idx: usize = s.strip_prefix('D')?.parse().ok()?;
            SampleState::Dropped(*DropReason::ALL.get(idx)?)
        }
    };
    if parts.next().is_some() {
        return None;
    }
    Some((SampleKey { anon, game, at }, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ExtractionMode;
    use tero_world::WorldConfig;

    fn small_world() -> World {
        World::build(WorldConfig {
            seed: 11,
            n_streamers: 6,
            days: 1,
            ..WorldConfig::default()
        })
    }

    fn calibrated_tero() -> Tero {
        Tero {
            mode: ExtractionMode::Calibrated,
            worker_threads: 1,
            ..Tero::default()
        }
    }

    #[test]
    fn commit_writes_new_and_moved_counters_only() {
        let world = small_world();
        let tero = calibrated_tero();
        let mut engine = Engine::new(&tero, &world, SimTime::EPOCH);
        engine.commit(&tero);
        // Every registered counter is present after the first commit,
        // the ones still at zero included.
        let first = engine.wiring.kv.hgetall(COUNTERS_KEY);
        assert_eq!(first["pipeline.window.killed"], "0");
        let mut registered = 0;
        tero.obs.visit_counters(|name, _| {
            registered += 1;
            assert!(first.contains_key(name), "{name} missing after commit 1");
        });
        assert_eq!(first.len(), registered);
        assert_eq!(
            engine.wiring.kv.hgetall(ENGINE_KEY),
            [
                ("window_index", "0"),
                ("tasks_processed", "0"),
                ("extracted", "0")
            ]
            .map(|(f, v)| (f.to_string(), v.to_string()))
            .into()
        );

        // A counter registered between two commits appears at the second,
        // a moved one is updated, and a field that did not move is left
        // alone (the planted value survives: the commit did not write it).
        tero.obs.counter("late.arrival").add(3);
        tero.obs.counter("pipeline.funnel.ingested").add(2);
        engine
            .wiring
            .kv
            .hset(COUNTERS_KEY, "pipeline.window.killed", "planted");
        engine.wiring.kv.hset(ENGINE_KEY, "extracted", "planted");
        engine.window_index = 1;
        engine.commit(&tero);
        let second = engine.wiring.kv.hgetall(COUNTERS_KEY);
        assert_eq!(second["late.arrival"], "3");
        assert_eq!(second["pipeline.funnel.ingested"], "2");
        assert_eq!(second["pipeline.window.commits"], "1");
        assert_eq!(second["pipeline.window.killed"], "planted");
        assert_eq!(second.len(), first.len() + 1);
        let markers = engine.wiring.kv.hgetall(ENGINE_KEY);
        assert_eq!(markers["window_index"], "1");
        assert_eq!(markers["extracted"], "planted");
    }

    #[test]
    fn restored_engine_first_commit_writes_only_what_moved() {
        let mut world = small_world();
        let tero = calibrated_tero();
        let mut engine = Engine::new(&tero, &world, SimTime::EPOCH);
        let half = SimTime::from_micros(world.horizon.as_micros() / 2);
        assert!(matches!(
            engine.drive(&tero, &mut world, half),
            WindowOutcome::Advanced
        ));
        let snap = engine.snapshot();
        let committed = engine.wiring.kv.hgetall(COUNTERS_KEY);
        assert!(committed["download.polls"].parse::<u64>().unwrap() > 0);

        let fresh = calibrated_tero();
        let mut restored = Engine::restore(&fresh, &world, &snap).unwrap();
        // Restoring reads the store and writes nothing to it.
        assert_eq!(restored.wiring.kv.snapshot(), snap.kv);
        assert_eq!(restored.cursor.window_start, half);
        // Plant a value in every committed field: the first commit after
        // the restore may overwrite only the fields that moved since the
        // snapshot's last commit.
        for field in committed.keys() {
            restored.wiring.kv.hset(COUNTERS_KEY, field, "planted");
        }
        for field in MARKER_FIELDS {
            restored.wiring.kv.hset(ENGINE_KEY, field, "planted");
        }
        restored.wiring.kv.set(CURSOR_KEY, "planted");
        restored.commit(&fresh);
        let after = restored.wiring.kv.hgetall(COUNTERS_KEY);
        let rewritten: Vec<&str> = after
            .iter()
            .filter(|(_, v)| *v != "planted")
            .map(|(f, _)| f.as_str())
            .collect();
        // `store.kv.*` tick on the restore's own reads and on the planting
        // above; the last commit of the snapshotted run and the restore
        // itself bumped one `pipeline.window.*` counter each.
        for field in &rewritten {
            assert!(
                field.starts_with("store.kv.") || field.starts_with("pipeline.window."),
                "{field} did not move but was rewritten"
            );
        }
        assert_eq!(committed["pipeline.window.resumed"], "0");
        assert_eq!(after["pipeline.window.resumed"], "1");
        assert_eq!(after.len(), committed.len());
        assert!(restored
            .wiring
            .kv
            .hgetall(ENGINE_KEY)
            .values()
            .all(|v| v == "planted"));
        assert_eq!(
            restored.wiring.kv.get(CURSOR_KEY).as_deref(),
            Some("planted")
        );
    }

    #[test]
    fn a_profile_row_without_its_name_row_does_not_panic_the_restore() {
        use crate::stages::locate::LOCATE_PROFILES_KEY;
        use crate::stages::NAMES_KEY;

        let mut world = small_world();
        let tero = calibrated_tero();
        let mut engine = Engine::new(&tero, &world, SimTime::EPOCH);
        let half = SimTime::from_micros(world.horizon.as_micros() / 2);
        assert!(matches!(
            engine.drive(&tero, &mut world, half),
            WindowOutcome::Advanced
        ));
        // Drop one `engine:names` row that has a committed profile, as a
        // damaged or badly merged snapshot would.
        let mut snap = engine.snapshot();
        let damaged = KvStore::new();
        damaged.restore(&snap.kv);
        let orphan = damaged
            .hgetall(LOCATE_PROFILES_KEY)
            .into_keys()
            .next()
            .expect("the first half located someone");
        let names = damaged.hgetall(NAMES_KEY);
        damaged.del(NAMES_KEY);
        damaged.hset_many(NAMES_KEY, names.into_iter().filter(|(f, _)| *f != orphan));
        snap.kv = damaged.snapshot();

        let fresh = calibrated_tero();
        let mut restored = Engine::restore(&fresh, &world, &snap).unwrap();
        let horizon = world.horizon;
        assert!(matches!(
            restored.drive(&fresh, &mut world, horizon),
            WindowOutcome::Advanced
        ));
        let report = restored.finish(&fresh, &mut world);
        assert!(report.streamers_seen > 0);
    }

    #[test]
    fn ledger_record_roundtrip() {
        let key = SampleKey {
            anon: AnonId(0xfeed_0000_0000_0042),
            game: GameId::ALL[3],
            at: SimTime::from_mins(17),
        };
        for state in [
            SampleState::Pending,
            SampleState::Published,
            SampleState::Dropped(DropReason::ALL[0]),
            SampleState::Dropped(DropReason::ALL[10]),
        ] {
            let raw = encode_ledger_record(&key, &state);
            assert_eq!(decode_ledger_record(&raw), Some((key, state)));
        }
        assert_eq!(decode_ledger_record("junk"), None);
        assert_eq!(decode_ledger_record("00|00|1|P|extra"), None);
    }
}
