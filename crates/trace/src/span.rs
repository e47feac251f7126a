//! Spans, the leveled event journal, and the flight recorder.
//!
//! ## Determinism contract
//!
//! Everything a [`Tracer`] records — ids, ticks, record order — is a pure
//! function of the *logical* pipeline execution, never of the thread
//! schedule:
//!
//! * **Ticks.** Records are ordered by a logical tick counter, not by a
//!   clock. Sequential spans take a tick when they start and another when
//!   they finish; spans produced inside a `tero_pool::par_map` fan-out are
//!   buffered on the worker ([`TaskCtx`]) and assigned their ticks during
//!   [`StageCtx::flush`], which walks the buffers in *input order*.
//! * **Ids.** Span ids are FNV-1a hashes: a sequential span hashes
//!   `(parent id, name, start tick)`; a fan-out task span hashes
//!   `(stage id, input index)` — the "(poll, stage, input index)"
//!   derivation that makes ids stable across worker counts.
//! * **Lanes.** Exports label task spans with a *virtual* lane
//!   `1 + index % VIRTUAL_LANES` instead of the OS worker that happened to
//!   run them; sequential spans use lane 0. Real worker identity is
//!   schedule-dependent and would break byte-identical exports.
//!
//! Consequently the full record sequence — and therefore every exporter's
//! output — is byte-identical for `worker_threads ∈ {1, 2, 8, …}`.
//!
//! ## Flight recorder
//!
//! [`Tracer::set_flight_recorder`] bounds the span and event buffers to the
//! last N records each. When a record is evicted the `trace.ring.evicted`
//! counter is bumped, so a post-mortem dump after a chaos fault states how
//! much history was lost.
//!
//! ## Overhead
//!
//! A disabled tracer does one relaxed atomic load per call site and
//! allocates nothing — the same budget as a stage timer
//! ([`Registry::stage_timer`]) with timing off.

use crate::ledger::Ledger;
use crate::obs::{CounterHandle, HistogramHandle, Registry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tero_types::SimTime;

/// Number of virtual worker lanes used for fan-out task spans in exports.
///
/// Task spans are spread over `1 + index % VIRTUAL_LANES` by *input index*,
/// not by the OS thread that executed them, keeping exports byte-identical
/// across `worker_threads` settings. Lane 0 is the sequential coordinator.
pub(crate) const VIRTUAL_LANES: u64 = 8;

/// Severity of a journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Fine-grained flow tracing.
    Trace,
    /// Diagnostic detail (per-sample decisions).
    Debug,
    /// Notable but expected milestones.
    Info,
    /// Something degraded (retries, injected faults survived).
    Warn,
    /// Something was lost (dead letters, dropped writes).
    Error,
}

impl Level {
    /// All levels, lowest severity first.
    pub const ALL: [Level; 5] = [
        Level::Trace,
        Level::Debug,
        Level::Info,
        Level::Warn,
        Level::Error,
    ];

    /// The lower-case name used in metric names and exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Compact cross-process trace context, small enough to ride in a
/// `tero-net` frame header. The client stamps its in-flight operation
/// span here; the server opens its handling span via
/// [`Tracer::span_remote`] so both halves stitch into one tree when the
/// per-host tracers are merged by
/// [`merged_chrome_trace`](crate::export::merged_chrome_trace).
///
/// `trace_id` 0 is reserved for "no context" (the wire encodes an
/// absent context as all-zero words); span ids are never 0 either, so
/// any non-zero `trace_id` implies a valid `span`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identifies the originating client's trace (non-zero).
    pub trace_id: u64,
    /// Id of the in-flight operation span on the originating host.
    pub span: u64,
    /// The originator's logical tick when the context was captured.
    pub tick: u64,
}

/// A finished span, as retained by the recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Deterministic span id (see module docs for the derivation).
    pub id: u64,
    /// Id of the parent span, or 0 for a root span.
    pub parent: u64,
    /// Span name, e.g. `"stage.extract"`.
    pub name: Arc<str>,
    /// Input index for fan-out task spans, `None` for sequential spans.
    pub index: Option<u64>,
    /// Virtual lane (Chrome-trace tid): 0 = coordinator, 1..=8 = workers.
    pub lane: u64,
    /// Logical tick at which the span started.
    pub start_tick: u64,
    /// Logical tick at which the span finished (`>= start_tick`).
    pub end_tick: u64,
    /// Simulated time associated with the span, if stamped.
    pub sim_at: Option<SimTime>,
    /// Wall-clock duration in microseconds, if wall timing was enabled.
    pub wall_us: Option<u64>,
    /// The wire-carried context this span was opened under, if it was
    /// started by [`Tracer::span_remote`] on behalf of another host.
    pub remote: Option<TraceContext>,
}

/// A journal event, attached to a span (or to the run when `span == 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Id of the owning span, or 0 for a run-level event.
    pub span: u64,
    /// Virtual lane of the owning span.
    pub lane: u64,
    /// Severity.
    pub level: Level,
    /// Human-readable message.
    pub message: String,
    /// Logical tick at which the event was recorded.
    pub tick: u64,
    /// Simulated time associated with the event, if stamped.
    pub sim_at: Option<SimTime>,
}

/// Metric handles, resolved once when the tracer is instrumented.
struct TraceMetrics {
    spans: CounterHandle,
    events: [CounterHandle; 5],
    evicted: CounterHandle,
    export_bytes: CounterHandle,
}

impl TraceMetrics {
    fn new(registry: &Registry) -> Self {
        TraceMetrics {
            spans: registry.counter("trace.spans"),
            events: [
                registry.counter("trace.events.trace"),
                registry.counter("trace.events.debug"),
                registry.counter("trace.events.info"),
                registry.counter("trace.events.warn"),
                registry.counter("trace.events.error"),
            ],
            evicted: registry.counter("trace.ring.evicted"),
            export_bytes: registry.counter("trace.export_bytes"),
        }
    }

    fn event_counter(&self, level: Level) -> &CounterHandle {
        &self.events[level as usize]
    }
}

/// Mutable recorder state behind the tracer's mutex.
struct State {
    spans: VecDeque<SpanRecord>,
    events: VecDeque<EventRecord>,
    tick: u64,
    cap: Option<usize>,
    evicted: u64,
}

impl State {
    fn new() -> Self {
        State {
            spans: VecDeque::new(),
            events: VecDeque::new(),
            tick: 0,
            cap: None,
            evicted: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        let t = self.tick;
        self.tick += 1;
        t
    }

    fn push_span(&mut self, rec: SpanRecord) -> u64 {
        self.spans.push_back(rec);
        let mut dropped = 0;
        if let Some(cap) = self.cap {
            while self.spans.len() > cap {
                self.spans.pop_front();
                dropped += 1;
            }
        }
        self.evicted += dropped;
        dropped
    }

    fn push_event(&mut self, rec: EventRecord) -> u64 {
        self.events.push_back(rec);
        let mut dropped = 0;
        if let Some(cap) = self.cap {
            while self.events.len() > cap {
                self.events.pop_front();
                dropped += 1;
            }
        }
        self.evicted += dropped;
        dropped
    }
}

struct Inner {
    enabled: AtomicBool,
    wall: AtomicBool,
    state: Mutex<State>,
    metrics: OnceLock<TraceMetrics>,
    ledger: Ledger,
}

/// The tracing facade: a cheaply clonable handle to one shared recorder.
///
/// A fresh tracer is **disabled**: every call site degrades to a relaxed
/// atomic load (comparable to a stage timer with timing off) and the
/// provenance [`Ledger`] is the only part that still records. Enable with
/// [`Tracer::set_enabled`].
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("spans", &state.spans.len())
            .field("events", &state.events.len())
            .field("cap", &state.cap)
            .finish()
    }
}

impl Tracer {
    /// A new, disabled tracer with an unbounded recorder.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(false),
                wall: AtomicBool::new(false),
                state: Mutex::new(State::new()),
                metrics: OnceLock::new(),
                ledger: Ledger::new(),
            }),
        }
    }

    /// Turn span/event recording on or off. The [`Ledger`] is unaffected:
    /// provenance is always on.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether span/event recording is on.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Also capture wall-clock durations for sequential spans. Off by
    /// default because wall times differ run-to-run; determinism tests
    /// compare exports with wall timing off.
    pub fn set_wall_clock(&self, enabled: bool) {
        self.inner.wall.store(enabled, Ordering::Relaxed);
    }

    /// Bound the recorder to the last `cap` spans and last `cap` events
    /// (flight-recorder mode). `None` restores the unbounded recorder.
    pub fn set_flight_recorder(&self, cap: Option<usize>) {
        self.inner.state.lock().cap = cap;
    }

    /// Register `trace.*` metrics eagerly and report into `registry` from
    /// now on. Like `ChaosInjector::instrument`, only the first registry
    /// wins; later calls are no-ops.
    pub fn instrument(&self, registry: &Registry) {
        let _ = self
            .inner
            .metrics
            .get_or_init(|| TraceMetrics::new(registry));
    }

    /// Reset the recorder (spans, events, ticks, eviction count) and the
    /// provenance ledger for a fresh pipeline run. The flight-recorder cap
    /// and the enabled/wall flags survive.
    pub fn begin_run(&self) {
        let mut state = self.inner.state.lock();
        let cap = state.cap;
        *state = State::new();
        state.cap = cap;
        drop(state);
        self.inner.ledger.reset();
    }

    /// The sample-provenance ledger attached to this tracer.
    pub fn ledger(&self) -> &Ledger {
        &self.inner.ledger
    }

    /// Number of span/event records evicted by the flight recorder.
    pub fn evicted(&self) -> u64 {
        self.inner.state.lock().evicted
    }

    /// Open a root span.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.open_span(name, 0, None)
    }

    /// Open a root span stamped with a simulated time.
    pub fn span_at(&self, name: &str, at: SimTime) -> SpanGuard {
        self.open_span(name, 0, Some(at))
    }

    /// Open a span under a *remote* parent described by a wire-carried
    /// [`TraceContext`] — the server half of cross-process stitching.
    /// The span is parented to `ctx.span` (an id that lives in another
    /// host's tracer) and keeps the full context on its record so
    /// exporters can label the remote edge.
    pub fn span_remote(&self, name: &str, ctx: TraceContext) -> SpanGuard {
        let mut guard = self.open_span(name, ctx.span, None);
        if let Some(g) = guard.inner.as_mut() {
            g.remote = Some(ctx);
        }
        guard
    }

    /// Record a run-level journal event (no owning span).
    pub fn event(&self, level: Level, message: impl AsRef<str>) {
        if !self.enabled() {
            return;
        }
        self.record_event(0, 0, level, message.as_ref().to_string(), None);
    }

    /// Record a run-level journal event stamped with a simulated time.
    pub fn event_at(&self, level: Level, message: impl AsRef<str>, at: SimTime) {
        if !self.enabled() {
            return;
        }
        self.record_event(0, 0, level, message.as_ref().to_string(), Some(at));
    }

    /// Build a stamped context for fanning `stage` out across
    /// `tero_pool::par_map` workers, parented under `parent`.
    ///
    /// Hand [`StageCtx::task`] the input index inside the worker closure,
    /// return the [`TaskTrace`] alongside the real result, and call
    /// [`StageCtx::flush`] with the traces in input order after the merge.
    pub fn stage(&self, parent: &SpanGuard, name: &str) -> StageCtx {
        if !self.enabled() {
            return StageCtx { shared: None };
        }
        let parent_id = parent.id();
        let name: Arc<str> = Arc::from(name);
        let stage_id = fnv1a(&[parent_id, hash_str(&name), 0x57a6e]);
        StageCtx {
            shared: Some(StageShared {
                tracer: self.clone(),
                parent: parent_id,
                stage_id,
                name,
            }),
        }
    }

    /// Copies of the retained records, for exporters and tests: spans
    /// sorted by `(start_tick, id)`, events sorted by `(tick, span)`.
    pub fn records(&self) -> (Vec<SpanRecord>, Vec<EventRecord>) {
        let state = self.inner.state.lock();
        let mut spans: Vec<SpanRecord> = state.spans.iter().cloned().collect();
        let mut events: Vec<EventRecord> = state.events.iter().cloned().collect();
        drop(state);
        spans.sort_by_key(|s| (s.start_tick, s.id));
        events.sort_by_key(|e| (e.tick, e.span));
        (spans, events)
    }

    fn open_span(&self, name: &str, parent: u64, sim_at: Option<SimTime>) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard::detached(None);
        }
        let start_tick = self.inner.state.lock().next_tick();
        let name: Arc<str> = Arc::from(name);
        let id = fnv1a(&[parent, hash_str(&name), start_tick]);
        let wall = self.inner.wall.load(Ordering::Relaxed);
        SpanGuard {
            inner: Some(GuardInner {
                tracer: self.clone(),
                id,
                parent,
                name,
                start_tick,
                sim_at,
                wall,
                remote: None,
            }),
            started: wall.then(Instant::now),
            sink: None,
        }
    }

    fn record_event(
        &self,
        span: u64,
        lane: u64,
        level: Level,
        message: String,
        sim_at: Option<SimTime>,
    ) {
        let dropped = {
            let mut state = self.inner.state.lock();
            let tick = state.next_tick();
            state.push_event(EventRecord {
                span,
                lane,
                level,
                message,
                tick,
                sim_at,
            })
        };
        if let Some(m) = self.inner.metrics.get() {
            m.event_counter(level).inc();
            if dropped > 0 {
                m.evicted.add(dropped);
            }
        }
    }

    fn finish_span(&self, rec: SpanRecord) {
        let dropped = self.inner.state.lock().push_span(rec);
        if let Some(m) = self.inner.metrics.get() {
            m.spans.inc();
            if dropped > 0 {
                m.evicted.add(dropped);
            }
        }
    }

    pub(crate) fn note_export_bytes(&self, n: u64) {
        if let Some(m) = self.inner.metrics.get() {
            m.export_bytes.add(n);
        }
    }
}

struct GuardInner {
    tracer: Tracer,
    id: u64,
    parent: u64,
    name: Arc<str>,
    start_tick: u64,
    sim_at: Option<SimTime>,
    /// The tracer's wall-clock knob at open: whether the record keeps
    /// the guard's clock reading as `wall_us`.
    wall: bool,
    remote: Option<TraceContext>,
}

/// An open span, and the crate's one RAII wall-clock guard. The span is
/// recorded when the guard drops (or [`SpanGuard::finish`] is called);
/// children created via [`SpanGuard::child`] therefore appear *before*
/// their parent in raw record order, and exporters re-sort by start
/// tick. A guard from [`Registry::stage_timer`] has no span and only
/// times its sink.
#[must_use = "a SpanGuard records on drop; binding it to _ drops it immediately"]
pub struct SpanGuard {
    inner: Option<GuardInner>,
    /// The guard's one wall-clock reading, taken only when someone will
    /// consume it: the record (tracer wall clock on) or `sink`.
    started: Option<Instant>,
    /// A histogram that receives the same elapsed reading on drop
    /// ([`SpanGuard::timed`]).
    sink: Option<HistogramHandle>,
}

impl SpanGuard {
    /// A guard with no span that times `sink`, if given; with none it
    /// reads no clock. Built in place, not through [`SpanGuard::timed`]:
    /// a by-value pass of the guard doubled a disabled stage timer's
    /// cost (~12 ns against ~7 in `obs/stage_timer_disabled_1k`).
    #[inline]
    pub(crate) fn detached(sink: Option<HistogramHandle>) -> SpanGuard {
        SpanGuard {
            inner: None,
            started: sink.as_ref().map(|_| Instant::now()),
            sink,
        }
    }

    /// The span's deterministic id, or 0 when tracing is disabled.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map(|g| g.id).unwrap_or(0)
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Capture this span as a [`TraceContext`] to carry across the
    /// wire under the caller's `trace_id`, or `None` when the guard is
    /// not recording (so disabled tracing sends no context at all).
    pub fn context(&self, trace_id: u64) -> Option<TraceContext> {
        self.inner.as_ref().map(|g| TraceContext {
            trace_id,
            span: g.id,
            tick: g.start_tick,
        })
    }

    /// Open a child span.
    pub fn child(&self, name: &str) -> SpanGuard {
        match &self.inner {
            Some(g) => g.tracer.open_span(name, g.id, None),
            None => SpanGuard::detached(None),
        }
    }

    /// Make this guard also the timer of `hist`: it reads the wall
    /// clock once at open and once at drop, and hands that one elapsed
    /// reading to [`SpanRecord::wall_us`] (tracer wall clock on) and to
    /// `hist` (`registry` timing on) — so a stage's span and its latency
    /// histogram can never disagree. `hist` is recorded into even when
    /// tracing is disabled; with registry timing and the wall clock both
    /// off, the guard reads no clock and holds no handle.
    #[inline]
    pub fn timed(mut self, registry: &Registry, hist: &HistogramHandle) -> SpanGuard {
        if registry.timing_enabled() {
            self.sink = Some(hist.clone());
            self.started.get_or_insert_with(Instant::now);
        }
        self
    }

    /// Record an event under this span.
    pub fn event(&self, level: Level, message: impl AsRef<str>) {
        if let Some(g) = &self.inner {
            g.tracer
                .record_event(g.id, 0, level, message.as_ref().to_string(), None);
        }
    }

    /// Record an event under this span, stamped with a simulated time.
    pub fn event_at(&self, level: Level, message: impl AsRef<str>, at: SimTime) {
        if let Some(g) = &self.inner {
            g.tracer
                .record_event(g.id, 0, level, message.as_ref().to_string(), Some(at));
        }
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl GuardInner {
    /// Record the span, with the guard's clock reading when the tracer's
    /// wall clock was on at open.
    fn close(self, elapsed_us: Option<u64>) {
        let end_tick = self.tracer.inner.state.lock().next_tick();
        self.tracer.finish_span(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            index: None,
            lane: 0,
            start_tick: self.start_tick,
            end_tick,
            sim_at: self.sim_at,
            wall_us: elapsed_us.filter(|_| self.wall),
            remote: self.remote,
        });
    }
}

impl Drop for SpanGuard {
    // Inline so a disabled guard — a stage timer with timing off, a span
    // with tracing off — costs its callers two branches and no call.
    #[inline]
    fn drop(&mut self) {
        let elapsed_us = self.started.map(|t| t.elapsed().as_micros() as u64);
        if let (Some(sink), Some(us)) = (&self.sink, elapsed_us) {
            sink.record(us);
        }
        if let Some(g) = self.inner.take() {
            g.close(elapsed_us);
        }
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(g) => write!(f, "SpanGuard({} id={:#x})", g.name, g.id),
            None => f.write_str("SpanGuard(disabled)"),
        }
    }
}

struct StageShared {
    tracer: Tracer,
    parent: u64,
    stage_id: u64,
    name: Arc<str>,
}

/// Stamped context for one `par_map` fan-out stage.
///
/// Created on the coordinator via [`Tracer::stage`]; workers derive a
/// [`TaskCtx`] per input index, and the coordinator [`flush`es] the
/// resulting [`TaskTrace`]s in input order — the step that pins down ticks
/// and makes the trace independent of the worker schedule.
///
/// [`flush`es]: StageCtx::flush
pub struct StageCtx {
    shared: Option<StageShared>,
}

impl StageCtx {
    /// Start the stamped per-task context for input `index`. Cheap no-op
    /// when tracing is disabled.
    pub fn task(&self, index: u64) -> TaskCtx {
        match &self.shared {
            None => TaskCtx { buf: None },
            Some(s) => TaskCtx {
                buf: Some(TaskBuf {
                    span_id: fnv1a(&[s.stage_id, index, 0x7a5c]),
                    index,
                    sim_at: None,
                    events: Vec::new(),
                    wall: if s.tracer.inner.wall.load(Ordering::Relaxed) {
                        Some(Instant::now())
                    } else {
                        None
                    },
                }),
            },
        }
    }

    /// Append the buffered task traces to the recorder *in input order*,
    /// assigning deterministic ticks. Call once, after the ordered merge.
    pub fn flush(&self, traces: Vec<TaskTrace>) {
        let Some(s) = &self.shared else { return };
        let mut spans = 0u64;
        let mut dropped = 0u64;
        let mut event_counts = [0u64; 5];
        {
            let mut state = s.tracer.inner.state.lock();
            for trace in traces {
                let Some(buf) = trace.buf else { continue };
                let lane = 1 + buf.index % VIRTUAL_LANES;
                let start_tick = state.next_tick();
                for (level, message, sim_at) in buf.events {
                    let tick = state.next_tick();
                    event_counts[level as usize] += 1;
                    dropped += state.push_event(EventRecord {
                        span: buf.span_id,
                        lane,
                        level,
                        message,
                        tick,
                        sim_at,
                    });
                }
                let end_tick = state.next_tick();
                spans += 1;
                dropped += state.push_span(SpanRecord {
                    id: buf.span_id,
                    parent: s.parent,
                    name: s.name.clone(),
                    index: Some(buf.index),
                    lane,
                    start_tick,
                    end_tick,
                    sim_at: buf.sim_at,
                    wall_us: buf.wall.map(|t| t.elapsed().as_micros() as u64),
                    remote: None,
                });
            }
        }
        if let Some(m) = s.tracer.inner.metrics.get() {
            m.spans.add(spans);
            for (level, &n) in Level::ALL.iter().zip(event_counts.iter()) {
                if n > 0 {
                    m.event_counter(*level).add(n);
                }
            }
            if dropped > 0 {
                m.evicted.add(dropped);
            }
        }
    }
}

impl std::fmt::Debug for StageCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            Some(s) => write!(f, "StageCtx({})", s.name),
            None => f.write_str("StageCtx(disabled)"),
        }
    }
}

struct TaskBuf {
    span_id: u64,
    index: u64,
    sim_at: Option<SimTime>,
    events: Vec<(Level, String, Option<SimTime>)>,
    wall: Option<Instant>,
}

/// Worker-side buffer for one fan-out task's span and events.
///
/// Nothing touches the shared recorder until [`StageCtx::flush`]; the
/// buffer is plain local state, so tracing adds no cross-worker contention
/// inside `par_map`.
pub struct TaskCtx {
    buf: Option<TaskBuf>,
}

impl TaskCtx {
    /// Whether this context is actually recording.
    pub fn is_recording(&self) -> bool {
        self.buf.is_some()
    }

    /// Stamp the simulated time this task's input was generated at.
    pub fn set_sim_time(&mut self, at: SimTime) {
        if let Some(buf) = &mut self.buf {
            buf.sim_at = Some(at);
        }
    }

    /// Buffer an event under this task's span.
    pub fn event(&mut self, level: Level, message: impl AsRef<str>) {
        if let Some(buf) = &mut self.buf {
            buf.events.push((level, message.as_ref().to_string(), None));
        }
    }

    /// Buffer an event stamped with a simulated time.
    pub fn event_at(&mut self, level: Level, message: impl AsRef<str>, at: SimTime) {
        if let Some(buf) = &mut self.buf {
            buf.events
                .push((level, message.as_ref().to_string(), Some(at)));
        }
    }

    /// Seal the buffer for shipping back through the `par_map` merge.
    pub fn finish(self) -> TaskTrace {
        TaskTrace { buf: self.buf }
    }
}

impl std::fmt::Debug for TaskCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.buf {
            Some(b) => write!(f, "TaskCtx(index={})", b.index),
            None => f.write_str("TaskCtx(disabled)"),
        }
    }
}

/// A sealed [`TaskCtx`], ready to travel through the ordered merge back to
/// the coordinator. `Send`, cheap, and inert until flushed.
pub struct TaskTrace {
    buf: Option<TaskBuf>,
}

impl std::fmt::Debug for TaskTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.buf {
            Some(b) => write!(f, "TaskTrace(index={})", b.index),
            None => f.write_str("TaskTrace(disabled)"),
        }
    }
}

/// FNV-1a over a word slice — stable, dependency-free id hashing.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    // Reserve 0 as "no span".
    if h == 0 {
        1
    } else {
        h
    }
}

fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for byte in s.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        let root = tracer.span("root");
        assert!(!root.is_recording());
        assert_eq!(root.id(), 0);
        root.event(Level::Error, "ignored");
        drop(root);
        tracer.event(Level::Warn, "ignored");
        let (spans, events) = tracer.records();
        assert!(spans.is_empty());
        assert!(events.is_empty());
    }

    #[test]
    fn timed_records_while_timing_is_on() {
        let registry = Registry::new();
        let hist = registry.histogram("stage.x.us");
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let root = tracer.span("pipeline.run");
        let off = root.child("stage.x").timed(&registry, &hist);
        assert!(off.started.is_none(), "timing and wall clock off: no clock");
        drop(off);
        assert_eq!(hist.count(), 0);
        registry.set_timing(true);
        root.child("stage.x").timed(&registry, &hist).finish();
        assert_eq!(hist.count(), 1);
        drop(root);
        let (spans, _) = tracer.records();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.wall_us.is_none()), "wall clock off");
    }

    #[test]
    fn span_ids_are_deterministic() {
        let run = |tracer: &Tracer| {
            tracer.begin_run();
            let root = tracer.span("pipeline.run");
            let child = root.child("stage.extract");
            child.event(Level::Debug, "vote failed");
            drop(child);
            drop(root);
            tracer.records()
        };
        let a = Tracer::new();
        a.set_enabled(true);
        let b = Tracer::new();
        b.set_enabled(true);
        assert_eq!(run(&a), run(&b));
        assert_eq!(run(&a), run(&a), "re-running resets cleanly");
    }

    #[test]
    fn stage_flush_is_schedule_independent() {
        let run = |completion_order: &[usize]| {
            let tracer = Tracer::new();
            tracer.set_enabled(true);
            let root = tracer.span("run");
            let stage = tracer.stage(&root, "stage.analysis");
            // Simulate workers finishing tasks in an arbitrary order...
            let mut traces: Vec<(usize, TaskTrace)> = completion_order
                .iter()
                .map(|&i| {
                    let mut t = stage.task(i as u64);
                    t.set_sim_time(SimTime::from_secs(i as u64));
                    t.event(Level::Trace, format!("task {i}"));
                    (i, t.finish())
                })
                .collect();
            // ...then flush strictly in input order, as the merge does.
            traces.sort_by_key(|(i, _)| *i);
            stage.flush(traces.into_iter().map(|(_, t)| t).collect());
            drop(root);
            tracer.records()
        };
        let forward = run(&[0, 1, 2, 3]);
        let scrambled = run(&[2, 0, 3, 1]);
        assert_eq!(forward, scrambled);
        let lanes: Vec<u64> = forward
            .0
            .iter()
            .filter_map(|s| s.index.map(|_| s.lane))
            .collect();
        assert_eq!(lanes, vec![1, 2, 3, 4], "virtual lanes follow input index");
    }

    #[test]
    fn flight_recorder_bounds_history() {
        let registry = Registry::new();
        let tracer = Tracer::new();
        tracer.instrument(&registry);
        tracer.set_enabled(true);
        tracer.set_flight_recorder(Some(4));
        for i in 0..10 {
            let s = tracer.span(&format!("span{i}"));
            drop(s);
        }
        let (spans, _) = tracer.records();
        assert_eq!(spans.len(), 4, "only the last N spans survive");
        assert_eq!(&*spans[0].name, "span6");
        assert_eq!(tracer.evicted(), 6);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("trace.ring.evicted"), Some(6));
        assert_eq!(snap.counter("trace.spans"), Some(10));
    }

    #[test]
    fn event_metrics_count_by_level() {
        let registry = Registry::new();
        let tracer = Tracer::new();
        tracer.instrument(&registry);
        tracer.set_enabled(true);
        let root = tracer.span("run");
        root.event(Level::Info, "a");
        root.event(Level::Warn, "b");
        root.event(Level::Warn, "c");
        tracer.event(Level::Error, "d");
        drop(root);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("trace.events.info"), Some(1));
        assert_eq!(snap.counter("trace.events.warn"), Some(2));
        assert_eq!(snap.counter("trace.events.error"), Some(1));
        assert_eq!(snap.counter("trace.events.trace"), Some(0));
        assert_eq!(snap.counter("trace.events.debug"), Some(0));
    }

    #[test]
    fn wall_clock_is_opt_in() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let s = tracer.span("no-wall");
        drop(s);
        tracer.set_wall_clock(true);
        let s = tracer.span("wall");
        drop(s);
        let (spans, _) = tracer.records();
        assert_eq!(spans[0].wall_us, None);
        assert!(spans[1].wall_us.is_some());
    }

    #[test]
    fn sim_time_is_carried() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let s = tracer.span_at("poll", SimTime::from_mins(5));
        s.event_at(Level::Info, "tick", SimTime::from_mins(6));
        drop(s);
        let (spans, events) = tracer.records();
        assert_eq!(spans[0].sim_at, Some(SimTime::from_mins(5)));
        assert_eq!(events[0].sim_at, Some(SimTime::from_mins(6)));
        assert_eq!(events[0].span, spans[0].id);
    }
}
