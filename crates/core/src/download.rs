//! The download module (App. A).
//!
//! A *coordinator* polls the Twitch API (respecting its rate limit) to
//! detect streamers coming online, and hands their thumbnail URLs to lean
//! *downloaders* through the key-value store. Each downloader races the
//! CDN's 5-minute overwrite: it HEADs the URL to learn when the next
//! thumbnail lands, GETs it in time, stores the image in the object store
//! and pushes a processing task onto the work queue. Offline URLs redirect,
//! at which point the downloader signals the coordinator through the store.
//!
//! Load balancing follows the paper: "a downloader takes on a new streamer
//! whenever it becomes idle" — here, new URLs go to the downloader with
//! the fewest assignments.
//!
//! ## Failure handling
//!
//! The module survives every fault class `tero-chaos` can inject:
//!
//! * **API 5xx** on `Get Streams` → bounded retries with exponential
//!   backoff and deterministic jitter, then skip to the next regular poll;
//! * **CDN timeouts and truncated payloads** (detected via the
//!   content-length the header promises) → per-assignment retry/backoff,
//!   escalating to a circuit breaker that opens after
//!   `BREAKER_THRESHOLD` (3) consecutive faults and half-opens with a
//!   single probe after `BREAKER_COOLDOWN` (2 min);
//! * **Downloader crashes** → the coordinator notices on its next poll and
//!   moves the dead worker's streamers to the least-loaded survivor
//!   (deterministically, in assignment-id order);
//! * **Lost KV writes** → `active:*` registrations are TTL leases,
//!   refreshed on every successful fetch and swept each poll; a lapsed
//!   lease releases the assignment so the coordinator re-acquires it;
//! * **Poison queue entries** → quarantined onto the
//!   `queue:thumbs:dead` dead-letter list instead of silently dropped.

use crate::keys::parse_decimal;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use tero_pool::Pool;
use tero_store::{KvStore, ObjectStore};
use tero_trace::obs::{CounterHandle, GaugeHandle, HistogramHandle, Registry};
use tero_trace::{Level, SpanGuard, Tracer};
use tero_types::retry::{backoff_delay, Breaker, BreakerState};
use tero_types::{GameId, SimDuration, SimRng, SimTime, StreamerId};
use tero_world::twitch::{ApiError, CdnBody, CdnResponse, TwitchSim};
use tero_world::World;

/// KV list holding tasks that could not be processed (undecodable queue
/// entries, corrupt stored payloads). Never dropped silently; drained via
/// [`DownloadModule::drain_dead_letters`].
pub(crate) const DEAD_LETTER_QUEUE: &str = "queue:thumbs:dead";

/// Maximum consecutive backoff retries before giving up on a round
/// (API polls skip to the next regular poll; fetches defer to the
/// circuit breaker, which trips first).
const MAX_RETRIES: u32 = 4;
/// First-retry backoff; doubles per attempt, plus deterministic jitter.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);
/// Consecutive CDN faults on one assignment that trip its breaker.
const BREAKER_THRESHOLD: u32 = 3;
/// How long a tripped breaker stays open before its half-open probe.
const BREAKER_COOLDOWN: SimDuration = SimDuration::from_mins(2);
/// Cooldown after an offline redirect before the streamer may be
/// re-acquired (must stay below the poll interval so a comeback is
/// picked up on the next poll after expiry).
const OFFLINE_COOLDOWN: SimDuration = SimDuration::from_secs(90);
/// TTL of the `active:*` lease; refreshed on every successful fetch.
const ACTIVE_TTL: SimDuration = SimDuration::from_hours(2);
/// Seed of the retry-jitter stream (independent of the world seed).
const RETRY_SEED: u64 = 0x5eed_cafe;
/// Fetched thumbnails queued before they are rendered together on the
/// pool and stored. Bounds what the queue holds in rendered form to under
/// half a megabyte (14.4 KB each), whatever the window's length.
const RENDER_BATCH: usize = 32;
/// Fewer queued thumbnails than this render on the calling thread. A
/// fan-out spawns a scoped thread per worker beyond the caller — tens of
/// microseconds each (`pool.fanout_us` in `docs/PERFORMANCE.md`) against
/// ~190 µs a render — so splitting two or three renders saves at most
/// one or two of them and can lose that to a spawn on a busy host.
const POOL_MIN_BATCH: usize = 4;

/// Percent-escape a task field so `|` can never masquerade as the
/// separator (`%` itself is escaped first so decoding is unambiguous).
fn escape_field(s: &str) -> String {
    s.replace('%', "%25").replace('|', "%7C")
}

/// Reverse [`escape_field`]. Returns `None` for malformed escapes — the
/// caller routes such entries to the dead-letter list.
fn unescape_field(s: &str) -> Option<String> {
    if !s.contains('%') {
        return Some(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// A downloaded-thumbnail task pushed onto the processing queue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ThumbnailTask {
    /// The broadcaster.
    pub streamer: StreamerId,
    /// The game label on the stream at download time.
    pub game_label: GameId,
    /// Content timestamp of the thumbnail.
    pub generated_at: SimTime,
    /// Object-store key of the stored image.
    pub object_key: String,
}

impl ThumbnailTask {
    /// Serialise for the KV work queue. The username is percent-escaped so
    /// a `|` in it cannot corrupt the field layout.
    pub fn encode(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            escape_field(self.streamer.as_str()),
            self.game_label.slug(),
            self.generated_at.as_micros(),
            self.object_key
        )
    }

    /// Parse a queue entry. `None` means the entry is malformed and should
    /// be dead-lettered.
    pub fn decode(s: &str) -> Option<ThumbnailTask> {
        let mut parts = s.splitn(4, '|');
        let streamer = StreamerId::new(&unescape_field(parts.next()?)?);
        let slug = parts.next()?;
        let game_label = GameId::ALL.into_iter().find(|g| g.slug() == slug)?;
        let generated_at = SimTime::from_micros(parse_decimal(parts.next()?)?);
        let object_key = parts.next()?.to_string();
        Some(ThumbnailTask {
            streamer,
            game_label,
            generated_at,
            object_key,
        })
    }
}

/// Statistics of one download run. With the same world seed and the same
/// fault plan, two runs produce byte-identical stats (fault injection and
/// recovery are fully deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DownloadStats {
    /// API polls issued.
    pub polls: u64,
    /// Polls rejected by the rate limiter.
    pub rate_limited: u64,
    /// Polls failed by transient API 5xx errors.
    pub api_errors: u64,
    /// Thumbnails fetched and stored.
    pub downloaded: u64,
    /// Thumbnails lost to CDN overwrites (a new thumbnail replaced one we
    /// never fetched).
    pub missed: u64,
    /// Offline redirects observed.
    pub offline_signals: u64,
    /// CDN fetches that timed out or arrived truncated.
    pub cdn_faults: u64,
    /// Backoff retries scheduled (poll and fetch paths).
    pub retries: u64,
    /// Circuit-breaker trips (including half-open probes that re-opened).
    pub breaker_trips: u64,
    /// Assignments moved off a crashed downloader.
    pub reassigned: u64,
    /// Expired TTL keys removed by the per-poll sweep.
    pub swept: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Assignment {
    url: String,
    streamer: StreamerId,
    game_label: GameId,
    last_generated: Option<SimTime>,
    downloader: usize,
    /// The per-assignment circuit breaker: open, it swallows stray
    /// fetch events before the cooldown elapses and admits the scheduled
    /// one as the single half-open probe.
    breaker: Breaker,
    /// The assignment's fetch-event chain died on a crashed downloader and
    /// must be restarted when the assignment is reassigned.
    chain_dead: bool,
}

impl Assignment {
    fn new(url: String, streamer: StreamerId, game_label: GameId, downloader: usize) -> Self {
        Assignment {
            url,
            streamer,
            game_label,
            last_generated: None,
            downloader,
            breaker: Breaker::default(),
            chain_dead: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Ev {
    Poll,
    Fetch(u32),     // assignment id
    Crash(usize),   // downloader index dies
    Recover(usize), // downloader index comes back
}

#[derive(Debug, PartialEq, Eq)]
struct HeapEv(SimTime, u64, Ev);
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0, self.1).cmp(&(other.0, other.1))
    }
}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Resumable state of a windowed download run.
///
/// A cursor pins the run's global bounds `[from, until]` and carries
/// everything the event loop needs across windows: the pending event
/// heap (with its sequence counter, so replayed pop order is exact), the
/// assignment table, per-downloader load/busy/alive state, the retry-
/// jitter RNG, and the cumulative [`DownloadStats`]. Driving it through
/// `DownloadModule::run_cursor` (the engine does) over any increasing
/// window schedule performs exactly the same world calls, in the same
/// order, as a single full-range [`DownloadModule::run`].
///
/// Cursors serialize (`serde`) so the engine can persist one whenever a
/// window moved it and a fresh process can resume from the persisted copy.
#[derive(Debug)]
pub(crate) struct DownloadCursor {
    from: SimTime,
    until: SimTime,
    /// Where the next window starts (trace span bookkeeping only). Not
    /// serialised — it moves in every window, also in one that pops no
    /// event; a restoring engine sets it from its committed `ingested_to`.
    pub(crate) window_start: SimTime,
    /// A window initialised the cursor or popped an event since the last
    /// [`DownloadCursor::take_dirty`]: the serialised form has changed.
    dirty: bool,
    initialized: bool,
    heap: BinaryHeap<Reverse<HeapEv>>,
    seq: u64,
    assignments: HashMap<u32, Assignment>,
    next_assignment_id: u32,
    downloader_load: Vec<usize>,
    downloader_busy_until: Vec<SimTime>,
    downloader_alive: Vec<bool>,
    retry_rng: SimRng,
    poll_error_streak: u32,
    stats: DownloadStats,
}

/// What one [`DownloadModule::run_cursor`] call wrote that a later stage
/// reads — the engine's run conditions for the extract and locate stages.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Ingested {
    /// Thumbnails stored, each with its task on `queue:thumbs`.
    pub(crate) thumbnails: u64,
    /// A poll appended a country tag to a `tags:*` list.
    pub(crate) tags_grew: bool,
}

impl DownloadCursor {
    /// A fresh cursor covering `[from, until]`. Worker vectors and the
    /// initial poll/crash events are installed lazily by the first
    /// `run_cursor` call (they depend on module knobs).
    pub(crate) fn new(from: SimTime, until: SimTime) -> DownloadCursor {
        DownloadCursor {
            from,
            until,
            window_start: from,
            dirty: false,
            initialized: false,
            heap: BinaryHeap::new(),
            seq: 0,
            assignments: HashMap::new(),
            next_assignment_id: 0,
            downloader_load: Vec::new(),
            downloader_busy_until: Vec::new(),
            downloader_alive: Vec::new(),
            retry_rng: SimRng::new(RETRY_SEED),
            poll_error_streak: 0,
            stats: DownloadStats::default(),
        }
    }

    /// Cumulative statistics across every window driven so far.
    pub(crate) fn stats(&self) -> &DownloadStats {
        &self.stats
    }

    /// The run's global bounds, `(from, until)`.
    pub(crate) fn bounds(&self) -> (SimTime, SimTime) {
        (self.from, self.until)
    }

    /// Whether the cursor's serialised form changed since the last call
    /// (or since it was created or deserialised), clearing the flag.
    pub(crate) fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// Schedule `ev` at `at`; events at one instant pop in push order.
    fn push(&mut self, at: SimTime, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse(HeapEv(at, self.seq, ev)));
    }

    /// The least-loaded alive downloader takes on one more streamer;
    /// `None` when every downloader is down.
    fn take_on(&mut self, obs: &DownloadObs) -> Option<usize> {
        let DownloadCursor {
            downloader_load,
            downloader_alive,
            ..
        } = self;
        let d = (0..downloader_load.len())
            .filter(|&i| downloader_alive[i])
            .min_by_key(|&i| downloader_load[i])?;
        downloader_load[d] += 1;
        obs.queue_depth.record(downloader_load[d] as u64);
        obs.downloader_load.set(downloader_load[d] as i64);
        Some(d)
    }

    /// Hand a newly seen URL to a downloader ([`DownloadCursor::take_on`])
    /// and schedule its first fetch at `at`. `false` in a total outage:
    /// nothing was assigned.
    fn assign(
        &mut self,
        obs: &DownloadObs,
        at: SimTime,
        url: String,
        streamer: StreamerId,
        game_label: GameId,
    ) -> bool {
        let Some(d) = self.take_on(obs) else {
            return false;
        };
        obs.assignments.inc();
        if self.downloader_load[d] == 1 {
            obs.idle_steals.inc();
        }
        let id = self.next_assignment_id;
        self.next_assignment_id += 1;
        self.assignments
            .insert(id, Assignment::new(url, streamer, game_label, d));
        self.push(at, Ev::Fetch(id));
        true
    }

    /// Drop assignment `id` from downloader `d`'s load and the table.
    fn release(&mut self, obs: &DownloadObs, id: u32, d: usize) {
        self.downloader_load[d] = self.downloader_load[d].saturating_sub(1);
        obs.downloader_load.set(self.downloader_load[d] as i64);
        self.assignments.remove(&id);
    }

    /// Schedule `ev` again after the backoff of the `streak`-th
    /// consecutive failure (exponential, with deterministic jitter).
    fn retry_later(&mut self, obs: &DownloadObs, at: SimTime, streak: u32, ev: Ev) {
        let delay = backoff_delay(BACKOFF_BASE, streak, &mut self.retry_rng);
        self.stats.retries += 1;
        obs.retries.inc();
        obs.backoff_us.record(delay.as_micros());
        self.push(at + delay, ev);
    }
}

/// Serde mirror of [`DownloadCursor`]: the heap flattens to events sorted
/// by `(time, seq)` and the assignment table to id-sorted pairs, so equal
/// cursors serialize byte-identically.
#[derive(Serialize, Deserialize)]
struct CursorRepr {
    from: SimTime,
    until: SimTime,
    initialized: bool,
    events: Vec<(SimTime, u64, Ev)>,
    seq: u64,
    assignments: Vec<(u32, Assignment)>,
    next_assignment_id: u32,
    downloader_load: Vec<usize>,
    downloader_busy_until: Vec<SimTime>,
    downloader_alive: Vec<bool>,
    retry_rng: SimRng,
    poll_error_streak: u32,
    stats: DownloadStats,
}

impl Serialize for DownloadCursor {
    fn serialize(&self) -> serde::Value {
        let mut events: Vec<(SimTime, u64, Ev)> = self
            .heap
            .iter()
            .map(|Reverse(HeapEv(at, seq, ev))| (*at, *seq, *ev))
            .collect();
        events.sort_by_key(|&(at, seq, _)| (at, seq));
        let mut assignments: Vec<(u32, Assignment)> = self
            .assignments
            .iter()
            .map(|(id, a)| (*id, a.clone()))
            .collect();
        assignments.sort_by_key(|&(id, _)| id);
        CursorRepr {
            from: self.from,
            until: self.until,
            initialized: self.initialized,
            events,
            seq: self.seq,
            assignments,
            next_assignment_id: self.next_assignment_id,
            downloader_load: self.downloader_load.clone(),
            downloader_busy_until: self.downloader_busy_until.clone(),
            downloader_alive: self.downloader_alive.clone(),
            retry_rng: self.retry_rng.clone(),
            poll_error_streak: self.poll_error_streak,
            stats: self.stats.clone(),
        }
        .serialize()
    }
}

impl Deserialize for DownloadCursor {
    fn deserialize(v: &serde::Value) -> Result<DownloadCursor, serde::Error> {
        let repr = CursorRepr::deserialize(v)?;
        Ok(DownloadCursor {
            from: repr.from,
            until: repr.until,
            window_start: repr.from,
            dirty: false,
            initialized: repr.initialized,
            heap: repr
                .events
                .into_iter()
                .map(|(at, seq, ev)| Reverse(HeapEv(at, seq, ev)))
                .collect(),
            seq: repr.seq,
            assignments: repr.assignments.into_iter().collect(),
            next_assignment_id: repr.next_assignment_id,
            downloader_load: repr.downloader_load,
            downloader_busy_until: repr.downloader_busy_until,
            downloader_alive: repr.downloader_alive,
            retry_rng: repr.retry_rng,
            poll_error_streak: repr.poll_error_streak,
            stats: repr.stats,
        })
    }
}

/// The download module.
pub struct DownloadModule {
    kv: KvStore,
    objects: ObjectStore,
    obs: DownloadObs,
    trace: Tracer,
    /// Where fetched bodies are rendered; one worker (inline) by default.
    pool: Pool,
    /// How often the coordinator polls `Get Streams`.
    pub poll_interval: SimDuration,
    /// Number of downloader workers.
    pub downloaders: usize,
    /// Time a downloader spends fetching one thumbnail (serialised per
    /// worker — the reason the coordinator/downloader split exists).
    pub fetch_cost: SimDuration,
}

/// The module's metric handles, resolved where a registry is given
/// ([`DownloadModule::new`], [`DownloadModule::instrument`]): every
/// `download.*` name is registered (at zero) from then on, so the metric
/// catalogue is complete even on fault-free runs, and bumping a handle
/// inside the event loop is lock-free.
struct DownloadObs {
    /// The registry the handles record into; it holds the timing switch
    /// `run_us` obeys.
    registry: Registry,
    run_us: HistogramHandle,
    polls: CounterHandle,
    rate_limited: CounterHandle,
    api_errors: CounterHandle,
    get_attempts: CounterHandle,
    get_hits: CounterHandle,
    same_content: CounterHandle,
    fetch_deferred: CounterHandle,
    overwrite_missed: CounterHandle,
    offline_signals: CounterHandle,
    assignments: CounterHandle,
    idle_steals: CounterHandle,
    cdn_timeouts: CounterHandle,
    retries: CounterHandle,
    backoff_us: HistogramHandle,
    breaker_open: CounterHandle,
    reassigned: CounterHandle,
    ttl_swept: CounterHandle,
    queue_depth: HistogramHandle,
    downloader_load: GaugeHandle,
    dead_letter: CounterHandle,
    decode_failures: CounterHandle,
}

impl DownloadObs {
    fn resolve(obs: &Registry) -> Self {
        DownloadObs {
            registry: obs.clone(),
            run_us: obs.histogram("download.run_us"),
            polls: obs.counter("download.polls"),
            rate_limited: obs.counter("download.rate_limited"),
            api_errors: obs.counter("download.api_errors"),
            get_attempts: obs.counter("download.get_attempts"),
            get_hits: obs.counter("download.get_hits"),
            same_content: obs.counter("download.same_content"),
            fetch_deferred: obs.counter("download.fetch_deferred"),
            overwrite_missed: obs.counter("download.overwrite_missed"),
            offline_signals: obs.counter("download.offline_signals"),
            assignments: obs.counter("download.assignments"),
            idle_steals: obs.counter("download.idle_steals"),
            cdn_timeouts: obs.counter("download.cdn_timeouts"),
            retries: obs.counter("download.retries"),
            backoff_us: obs.histogram("download.backoff_us"),
            breaker_open: obs.counter("download.breaker_open"),
            reassigned: obs.counter("download.reassigned"),
            ttl_swept: obs.counter("download.ttl_swept"),
            queue_depth: obs.histogram("download.queue_depth"),
            downloader_load: obs.gauge("download.downloader_load"),
            dead_letter: obs.counter("download.dead_letter"),
            decode_failures: obs.counter("download.decode_failures"),
        }
    }
}

impl DownloadModule {
    /// A module writing into the given stores.
    pub fn new(kv: KvStore, objects: ObjectStore) -> Self {
        DownloadModule {
            kv,
            objects,
            obs: DownloadObs::resolve(&Registry::new()),
            trace: Tracer::new(),
            pool: Pool::new(1),
            poll_interval: SimDuration::from_mins(2),
            downloaders: 4,
            fetch_cost: SimDuration::from_millis(500),
        }
    }

    /// Record this module's metrics (`download.*`) into `registry` instead
    /// of the private default registry.
    pub fn instrument(&mut self, registry: &Registry) {
        self.obs = DownloadObs::resolve(registry);
    }

    /// Journal this module's spans and recovery events through `tracer`
    /// (the `download.run` span, breaker trips, crash reassignments,
    /// dead-letter quarantines). A no-op unless the tracer is enabled.
    pub fn set_trace(&mut self, tracer: &Tracer) {
        self.trace = tracer.clone();
    }

    /// Render fetched thumbnail bodies on `pool` instead of inline. What
    /// is stored, and in which order, does not depend on its width.
    pub(crate) fn set_pool(&mut self, pool: &Pool) {
        self.pool = pool.clone();
    }

    /// Run the module against the world from `from` to `until` (logical
    /// time). Thumbnails land in the object store (bucket `thumbs`) and
    /// tasks on the KV list `queue:thumbs`.
    ///
    /// Implemented as one full-range window over a fresh
    /// `DownloadCursor`; the engine drives `run_cursor` window by
    /// window.
    pub fn run(&mut self, world: &mut World, from: SimTime, until: SimTime) -> DownloadStats {
        let mut cursor = DownloadCursor::new(from, until);
        self.run_cursor(world, &mut cursor, until);
        cursor.stats
    }

    /// Advance `cursor` through every pending event at or before
    /// `window_end` (clamped to the cursor's global `until` bound), and
    /// return what that wrote for the stages downstream.
    ///
    /// The first call installs the initial poll, the planned crash
    /// windows, and the `active:*` lease recovery exactly as a full run
    /// would; later calls resume from the persisted heap. Driving one
    /// cursor over any increasing schedule of window ends makes exactly
    /// the same world calls in the same order as a single full-range
    /// [`DownloadModule::run`], so stats, stores and metrics stay
    /// byte-identical.
    ///
    /// A fetched thumbnail's pixels are not needed to decide anything, so
    /// the loop queues its `(object key, body)` and the queue is rendered
    /// on the pool and stored — in queue order — every `RENDER_BATCH` (32)
    /// fetches and before returning. Object puts therefore trail the KV
    /// operations of the events that caused them; puts among themselves
    /// and KV operations among themselves keep the loop's order.
    pub(crate) fn run_cursor(
        &self,
        world: &mut World,
        cursor: &mut DownloadCursor,
        window_end: SimTime,
    ) -> Ingested {
        let window_end = window_end.min(cursor.until);
        let sp_run = self
            .trace
            .span_at("download.run", cursor.window_start)
            .timed(&self.obs.registry, &self.obs.run_us);
        if !cursor.initialized {
            self.start(world, cursor);
        }
        let mut ingested = Ingested::default();
        let mut fetched: Vec<(String, CdnBody)> = Vec::new();
        while cursor
            .heap
            .peek()
            .is_some_and(|Reverse(next)| next.0 <= window_end)
        {
            let Reverse(HeapEv(at, _, ev)) = cursor.heap.pop().expect("peeked above");
            cursor.dirty = true;
            match ev {
                Ev::Poll => ingested.tags_grew |= self.poll(world, cursor, at, &sp_run),
                Ev::Fetch(id) => {
                    let stored = self.fetch(world, cursor, id, at, &sp_run, &mut fetched);
                    ingested.thumbnails += stored as u64;
                }
                Ev::Crash(d) => {
                    cursor.downloader_alive[d] = false;
                    if let Some(chaos) = world.chaos() {
                        chaos.note_crash();
                    }
                }
                Ev::Recover(d) => {
                    cursor.downloader_alive[d] = true;
                    cursor.downloader_busy_until[d] = at;
                }
            }
        }
        self.store_fetched(&world.twitch, &mut fetched);
        cursor.window_start = window_end;
        ingested
    }

    /// The first window's preamble: downloader state sized by the module's
    /// knobs, the first poll, the fault plan's crash windows, and the
    /// assignment table rebuilt from the `active:*` leases a previous
    /// module instance left in the store.
    fn start(&self, world: &World, cursor: &mut DownloadCursor) {
        let (from, until) = cursor.bounds();
        let downloaders = self.downloaders.max(1);
        cursor.initialized = true;
        cursor.dirty = true;
        cursor.downloader_load = vec![0; downloaders];
        cursor.downloader_busy_until = vec![SimTime::EPOCH; downloaders];
        cursor.downloader_alive = vec![true; downloaders];
        cursor.push(from, Ev::Poll);

        // Planned crash windows come from the world's fault injector.
        if let Some(chaos) = world.chaos() {
            for w in chaos.crash_windows() {
                if w.downloader >= downloaders || w.until <= from || w.at >= until {
                    continue;
                }
                cursor.push(w.at.max(from), Ev::Crash(w.downloader));
                cursor.push(w.until, Ev::Recover(w.downloader));
            }
        }

        // Drop leases that expired while the module was down, then
        // rebuild the assignment table from the survivors.
        cursor.stats.swept += self.kv.sweep_expired(from) as u64;

        // Crash recovery (App. A/B): after a restart, the coordinator
        // rebuilds its assignment table from the `active:*` keys
        // persisted in the KV store, so streamers being tracked before
        // the crash keep being downloaded without waiting for the next
        // status change. (Every downloader is up: crashes are events.)
        for key in self.kv.keys_with_prefix("active:") {
            let Some(url) = self.kv.get(&key) else {
                continue;
            };
            let username = key.trim_start_matches("active:");
            let game_label = self
                .kv
                .get(&format!("game:{username}"))
                .and_then(|slug| GameId::ALL.into_iter().find(|g| g.slug() == slug))
                .unwrap_or(GameId::LeagueOfLegends);
            cursor.assign(&self.obs, from, url, StreamerId::new(username), game_label);
        }
    }

    /// One coordinator tick at `at`: sweep, move streamers off crashed
    /// downloaders, poll `Get Streams` and assign every newly live
    /// streamer, then schedule the next tick. Returns whether a `tags:*`
    /// list grew.
    fn poll(
        &self,
        world: &mut World,
        cursor: &mut DownloadCursor,
        at: SimTime,
        sp_run: &SpanGuard,
    ) -> bool {
        let obs = &self.obs;
        // Expire lapsed TTL keys (`active:*` leases, offline cooldowns)
        // before reading any of them.
        let swept = self.kv.sweep_expired(at) as u64;
        cursor.stats.swept += swept;
        obs.ttl_swept.add(swept);
        self.reassign_dead(cursor, at, sp_run);

        let mut tags_grew = false;
        let next = match world.twitch.get_streams(at) {
            Ok(listings) => {
                cursor.poll_error_streak = 0;
                cursor.stats.polls += 1;
                obs.polls.inc();
                for l in listings {
                    let user = l.streamer.as_str();
                    // Recently went offline: let the cooldown lapse
                    // before re-acquiring.
                    if self.kv.exists(&format!("cooldown:{user}")) {
                        continue;
                    }
                    let key = format!("active:{user}");
                    if self.kv.exists(&key) {
                        continue;
                    }
                    self.kv
                        .set_with_ttl(&key, &l.thumbnail_url, at + ACTIVE_TTL);
                    self.kv.set(&format!("game:{user}"), l.game_label.slug());
                    // Record country tags for the location module's tag
                    // recovery.
                    if let Some(tag) = l.country_tag {
                        self.kv.rpush(&format!("tags:{user}"), tag);
                        tags_grew = true;
                    }
                    if !cursor.assign(obs, at, l.thumbnail_url, l.streamer, l.game_label) {
                        // Total outage: drop the lease so a later poll
                        // re-acquires once someone recovers.
                        self.kv.del(&key);
                    }
                }
                at + self.poll_interval
            }
            Err(ApiError::RateLimited(limited)) => {
                cursor.stats.rate_limited += 1;
                obs.rate_limited.inc();
                limited.retry_at
            }
            Err(ApiError::ServerError) => {
                cursor.stats.api_errors += 1;
                obs.api_errors.inc();
                cursor.poll_error_streak += 1;
                if cursor.poll_error_streak <= MAX_RETRIES {
                    cursor.retry_later(obs, at, cursor.poll_error_streak, Ev::Poll);
                    return false;
                }
                // Give up on this round; resume the regular poll cadence.
                cursor.poll_error_streak = 0;
                at + self.poll_interval
            }
        };
        cursor.push(next, Ev::Poll);
        tags_grew
    }

    /// Detect dead downloaders and move their streamers to the
    /// least-loaded survivor. Ids are visited sorted so the reassignment
    /// is deterministic.
    fn reassign_dead(&self, cursor: &mut DownloadCursor, at: SimTime, sp_run: &SpanGuard) {
        let mut dead_ids: Vec<u32> = cursor
            .assignments
            .iter()
            .filter(|(_, a)| !cursor.downloader_alive[a.downloader])
            .map(|(id, _)| *id)
            .collect();
        dead_ids.sort_unstable();
        for id in dead_ids {
            let Some(target) = cursor.take_on(&self.obs) else {
                break; // every downloader is down; wait for a recovery
            };
            let a = cursor.assignments.get_mut(&id).expect("id collected above");
            let old = std::mem::replace(&mut a.downloader, target);
            // A chain that died on the crashed downloader restarts here.
            let restart = std::mem::take(&mut a.chain_dead);
            cursor.downloader_load[old] = cursor.downloader_load[old].saturating_sub(1);
            self.obs.reassigned.inc();
            cursor.stats.reassigned += 1;
            sp_run.event_at(
                Level::Warn,
                format!("assignment {id} moved off crashed downloader {old}"),
                at,
            );
            if restart {
                cursor.push(at, Ev::Fetch(id));
            }
        }
    }

    /// One downloader wake-up for assignment `id` at `at`: fetch the URL
    /// if the downloader is up and free, the lease still held and the
    /// breaker closed, and schedule the assignment's next wake-up.
    /// Returns whether a new thumbnail was queued on `fetched`.
    fn fetch(
        &self,
        world: &mut World,
        cursor: &mut DownloadCursor,
        id: u32,
        at: SimTime,
        sp_run: &SpanGuard,
        fetched: &mut Vec<(String, CdnBody)>,
    ) -> bool {
        let obs = &self.obs;
        let Some(assignment) = cursor.assignments.get_mut(&id) else {
            return false;
        };
        let d = assignment.downloader;
        // A dead downloader executes nothing: the event chain stops here
        // and restarts when the coordinator reassigns the streamer on its
        // next poll.
        if !cursor.downloader_alive[d] {
            assignment.chain_dead = true;
            return false;
        }
        // Lease lapsed (TTL expiry or a lost KV write): release the
        // assignment; the coordinator re-acquires the streamer if it is
        // still live.
        let lease = format!("active:{}", assignment.streamer.as_str());
        if !self.kv.exists(&lease) {
            cursor.release(obs, id, d);
            return false;
        }
        // Open breaker: only the scheduled half-open probe may pass; stray
        // earlier events are swallowed (the probe event sustains the
        // chain).
        if !assignment.breaker.allows(at) {
            return false;
        }
        // Serialise fetches per downloader.
        if cursor.downloader_busy_until[d] > at {
            obs.fetch_deferred.inc();
            cursor.push(cursor.downloader_busy_until[d], Ev::Fetch(id));
            return false;
        }
        cursor.downloader_busy_until[d] = at + self.fetch_cost;
        obs.get_attempts.inc();
        match world.twitch.cdn_fetch(&assignment.url, at) {
            // A truncated payload is detectable at fetch time (fewer bytes
            // than the content length promised), so it takes the timeout's
            // path.
            fault @ (CdnResponse::TimedOut | CdnResponse::Truncated) => {
                if matches!(fault, CdnResponse::TimedOut) {
                    obs.cdn_timeouts.inc();
                }
                self.fetch_failed(cursor, id, at, sp_run);
                false
            }
            CdnResponse::Thumbnail {
                body,
                generated_at,
                next_update,
            } => {
                assignment.breaker.record_success();
                if let Some(last) = assignment.last_generated {
                    if generated_at == last {
                        // Same content; try again shortly.
                        obs.same_content.inc();
                        cursor.push(at + SimDuration::from_secs(30), Ev::Fetch(id));
                        return false;
                    }
                    // Count thumbnails we never saw (gap of more than one
                    // nominal interval).
                    let gap = generated_at.since(last).as_secs();
                    if gap > 400 {
                        cursor.stats.missed += gap / 330 - 1;
                        obs.overwrite_missed.add(gap / 330 - 1);
                    }
                }
                assignment.last_generated = Some(generated_at);
                let task = ThumbnailTask {
                    streamer: assignment.streamer.clone(),
                    game_label: assignment.game_label,
                    generated_at,
                    object_key: format!(
                        "{}/{}",
                        assignment.streamer.as_str(),
                        generated_at.as_micros()
                    ),
                };
                fetched.push((task.object_key.clone(), body));
                if fetched.len() == RENDER_BATCH {
                    self.store_fetched(&world.twitch, fetched);
                }
                self.kv.rpush("queue:thumbs", task.encode());
                // Refresh the activity lease.
                self.kv
                    .set_with_ttl(&lease, &assignment.url, at + ACTIVE_TTL);
                cursor.stats.downloaded += 1;
                obs.get_hits.inc();
                // Schedule the next fetch right after the next expected
                // overwrite.
                let next = next_update
                    .map(|t| t + SimDuration::from_secs(5))
                    .unwrap_or(at + SimDuration::from_mins(5));
                cursor.push(next.max(at + self.fetch_cost), Ev::Fetch(id));
                true
            }
            CdnResponse::Offline => {
                // Could be "live but first thumbnail pending": check
                // activity via another short retry, but only once — the KV
                // active flag with TTL keeps this bounded. Signal the
                // coordinator and set a short cooldown so a comeback is
                // re-acquired on the next poll after it lapses.
                let user = assignment.streamer.as_str();
                cursor.stats.offline_signals += 1;
                obs.offline_signals.inc();
                self.kv.rpush("offline", user.to_string());
                self.kv.del(&lease);
                self.kv.del(&format!("game:{user}"));
                self.kv
                    .set_with_ttl(&format!("cooldown:{user}"), "1", at + OFFLINE_COOLDOWN);
                cursor.release(obs, id, d);
                false
            }
        }
    }

    /// The fetch for assignment `id` timed out or arrived truncated:
    /// count the fault against the assignment's breaker and schedule the
    /// next attempt — after the backoff, or, if that opened the breaker,
    /// after its cooldown.
    fn fetch_failed(&self, cursor: &mut DownloadCursor, id: u32, at: SimTime, sp_run: &SpanGuard) {
        cursor.stats.cdn_faults += 1;
        let breaker = &mut cursor
            .assignments
            .get_mut(&id)
            .expect("the failed fetch was this assignment's")
            .breaker;
        if breaker.record_fault(at, BREAKER_THRESHOLD, BREAKER_COOLDOWN) == BreakerState::Open {
            // Trip (or re-open after a failed probe): stop hammering the
            // URL; probe again after the cooldown.
            cursor.stats.breaker_trips += 1;
            self.obs.breaker_open.inc();
            sp_run.event_at(
                Level::Warn,
                format!("circuit breaker opened (assignment {id})"),
                at,
            );
            cursor.push(at + BREAKER_COOLDOWN, Ev::Fetch(id));
        } else {
            let streak = breaker.fault_streak();
            cursor.retry_later(&self.obs, at, streak, Ev::Fetch(id));
        }
    }

    /// Render every queued body and store the payloads in queue order,
    /// emptying the queue: all at once on a pool that has workers, when
    /// the queue is worth a fan-out, else a body at a time (through the
    /// pool all the same, so `pool.tasks` counts every render).
    ///
    /// `put` makes the store's own copy of each payload, on this thread,
    /// and a round's payloads are freed together after it: one at a time
    /// that is the parent commit's allocation order, and a batch leaves a
    /// hole the next batch fits. Freeing a batch's payloads one by one
    /// between the puts lets the allocator split that hole for blobs
    /// sixteen bytes too big for it (+2 MB of resident set on a 21 MB
    /// run), and blobs built on the workers pin their arenas (+70 %).
    fn store_fetched(&self, twitch: &TwitchSim, fetched: &mut Vec<(String, CdnBody)>) {
        let fan_out = fetched.len() >= POOL_MIN_BATCH && self.pool.workers() > 1;
        let round = if fan_out { fetched.len() } else { 1 };
        for bodies in fetched.chunks(round) {
            let payloads = self.pool.par_map(bodies, |(_, body)| twitch.cdn_body(body));
            for ((object_key, _), payload) in bodies.iter().zip(&payloads) {
                self.objects.put("thumbs", object_key, payload.as_slice());
            }
        }
        fetched.clear();
    }

    /// Decode and drain every queued thumbnail task. Undecodable entries
    /// are moved to the dead-letter list (and counted) instead of being
    /// silently dropped.
    pub fn drain_tasks(&self) -> Vec<ThumbnailTask> {
        let mut out = Vec::new();
        while let Some(raw) = self.kv.lpop("queue:thumbs") {
            match ThumbnailTask::decode(&raw) {
                Some(task) => out.push(task),
                None => {
                    self.obs.decode_failures.inc();
                    self.dead_letter(raw);
                }
            }
        }
        out
    }

    /// Quarantine a poison entry onto the dead-letter list.
    pub fn dead_letter(&self, entry: impl Into<String>) {
        self.obs.dead_letter.inc();
        self.trace
            .event(Level::Error, "entry quarantined to the dead-letter queue");
        self.kv.rpush(DEAD_LETTER_QUEUE, entry.into());
    }

    /// Drain the dead-letter list: every quarantined raw entry, in arrival
    /// order.
    pub fn drain_dead_letters(&self) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(raw) = self.kv.lpop(DEAD_LETTER_QUEUE) {
            out.push(raw);
        }
        out
    }

    /// Current depth of the dead-letter list.
    pub fn dead_letter_depth(&self) -> usize {
        self.kv.llen(DEAD_LETTER_QUEUE)
    }

    /// Reinject quarantined tasks back onto `queue:thumbs` — the
    /// operator's "the fault plan is over, try again" lever. Entries that
    /// decode as [`ThumbnailTask`]s (typically parked because the object
    /// payload was corrupted by a chaos fault, not because the task
    /// itself was malformed) go back to the live queue in arrival order;
    /// entries that still fail to decode are genuine poison and stay
    /// quarantined. Returns `(requeued, still_dead)`.
    pub fn requeue_dead(&self) -> (usize, usize) {
        let mut requeued = 0;
        let mut poison = Vec::new();
        for raw in self.drain_dead_letters() {
            if ThumbnailTask::decode(&raw).is_some() {
                self.kv.rpush("queue:thumbs", raw);
                requeued += 1;
            } else {
                poison.push(raw);
            }
        }
        let still_dead = poison.len();
        for raw in poison {
            // Back onto the dead-letter list *without* re-counting it as
            // a fresh quarantine.
            self.kv.rpush(DEAD_LETTER_QUEUE, raw);
        }
        if requeued > 0 {
            self.trace.event(
                Level::Info,
                "dead-lettered tasks reinjected onto the live queue",
            );
        }
        (requeued, still_dead)
    }

    /// Fetch a stored thumbnail image back from the object store. `None`
    /// means the object is missing or its payload is corrupt (short header
    /// or a pixel-count mismatch) — corrupt payloads bump
    /// `download.decode_failures`, and the caller should route the task to
    /// [`DownloadModule::dead_letter`].
    pub fn load_image(&self, object_key: &str) -> Option<tero_vision::Image> {
        let bytes = self.objects.get("thumbs", object_key)?;
        let image = tero_vision::Image::from_payload(&bytes);
        if image.is_none() {
            self.obs.decode_failures.inc();
        }
        image
    }

    /// Delete a processed thumbnail from the object store: §7 drops an
    /// image once it has been processed. The extract stage calls it for
    /// every task it resolves; a dead-lettered task keeps its image for
    /// [`DownloadModule::requeue_dead`]. A key already deleted (two
    /// tasks fetched the same thumbnail) deletes nothing and still
    /// counts one `store.object.writes`.
    pub(crate) fn drop_image(&self, object_key: &str) {
        self.objects.delete("thumbs", object_key);
    }

    /// Country-tag history collected for a streamer during the run.
    pub fn tag_history(&self, username: &str) -> Vec<String> {
        let mut out = Vec::new();
        let key = format!("tags:{username}");
        while let Some(tag) = self.kv.lpop(&key) {
            out.push(tag);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_world::WorldConfig;

    fn small_world() -> World {
        World::build(WorldConfig {
            seed: 21,
            n_streamers: 25,
            days: 2,
            ..WorldConfig::default()
        })
    }

    #[test]
    fn task_roundtrip() {
        let task = ThumbnailTask {
            streamer: StreamerId::new("darkwolf42"),
            game_label: GameId::Dota2,
            generated_at: SimTime::from_mins(1234),
            object_key: "darkwolf42/74040000000".into(),
        };
        assert_eq!(ThumbnailTask::decode(&task.encode()), Some(task));
        for bad in ["garbage", "a|nope|1|k", "a|dota2|+1|k", "a|dota2|01|k"] {
            assert_eq!(ThumbnailTask::decode(bad), None, "{bad}");
        }
    }

    #[test]
    fn task_roundtrip_with_separator_in_username() {
        // A `|` in the username must not shift the field layout.
        let task = ThumbnailTask {
            streamer: StreamerId::new("dark|wolf%42"),
            game_label: GameId::Dota2,
            generated_at: SimTime::from_mins(7),
            object_key: "dark|wolf%42/420000000".into(),
        };
        let encoded = task.encode();
        assert_eq!(ThumbnailTask::decode(&encoded), Some(task));
        // Malformed escapes are rejected, not mis-decoded (`from_str_radix`
        // alone would read the sign-led `+C` as 12).
        assert_eq!(ThumbnailTask::decode("bad%zz|dota2|1|k"), None);
        assert_eq!(ThumbnailTask::decode("a%+C|dota2|1|k"), None);
        assert_eq!(ThumbnailTask::decode("trail%2|dota2|1|k"), None);
    }

    #[test]
    fn undecodable_queue_entries_are_dead_lettered() {
        let kv = KvStore::new();
        let module = DownloadModule::new(kv.clone(), ObjectStore::new());
        let good = ThumbnailTask {
            streamer: StreamerId::new("ok"),
            game_label: GameId::Dota2,
            generated_at: SimTime::from_mins(1),
            object_key: "ok/1".into(),
        };
        kv.rpush("queue:thumbs", good.encode());
        kv.rpush("queue:thumbs", "not|a|task");
        kv.rpush("queue:thumbs", "junk");
        let tasks = module.drain_tasks();
        assert_eq!(tasks, vec![good]);
        assert_eq!(module.dead_letter_depth(), 2);
        assert_eq!(
            module.drain_dead_letters(),
            vec!["not|a|task".to_string(), "junk".to_string()]
        );
        assert_eq!(module.dead_letter_depth(), 0);
    }

    #[test]
    fn downloads_track_world_thumbnails() {
        let mut world = small_world();
        let kv = KvStore::new();
        let objects = ObjectStore::new();
        let mut module = DownloadModule::new(kv, objects.clone());
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);

        let truth = world.total_samples() as u64;
        assert!(truth > 0);
        // With a 2-minute poll and per-streamer scheduling we should catch
        // the overwhelming majority of thumbnails.
        assert!(
            stats.downloaded as f64 > truth as f64 * 0.85,
            "downloaded {} of {truth}",
            stats.downloaded
        );
        assert!(stats.downloaded <= truth);
        assert_eq!(objects.snapshot().len() as u64, stats.downloaded);

        // Tasks decode and reference stored objects.
        let tasks = module.drain_tasks();
        assert_eq!(tasks.len() as u64, stats.downloaded);
        let img = module.load_image(&tasks[0].object_key).expect("image");
        assert_eq!(img.width, tero_vision::scene::THUMB_W);
    }

    #[test]
    fn metrics_mirror_run_stats() {
        let mut world = small_world();
        let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
        let registry = Registry::new();
        module.instrument(&registry);
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("download.polls"), Some(stats.polls));
        assert_eq!(snap.counter("download.get_hits"), Some(stats.downloaded));
        assert_eq!(
            snap.counter("download.offline_signals"),
            Some(stats.offline_signals)
        );
        assert_eq!(
            snap.counter("download.overwrite_missed"),
            Some(stats.missed)
        );
        assert!(snap.counter("download.get_attempts") >= snap.counter("download.get_hits"));
        assert!(snap.histogram("download.queue_depth").unwrap().count > 0);
        assert!(
            snap.gauge("download.downloader_load")
                .unwrap()
                .high_watermark
                >= 1
        );
        assert_eq!(
            snap.histogram("download.run_us").unwrap().count,
            0,
            "wall-clock timing stays off by default"
        );
        // Without a fault injector, the recovery machinery stays silent —
        // but all of its metrics are registered.
        assert_eq!(snap.counter("download.api_errors"), Some(0));
        assert_eq!(snap.counter("download.cdn_timeouts"), Some(0));
        assert_eq!(snap.counter("download.breaker_open"), Some(0));
        assert_eq!(snap.counter("download.reassigned"), Some(0));
        assert_eq!(snap.counter("download.dead_letter"), Some(0));
        assert_eq!(snap.counter("download.decode_failures"), Some(0));
    }

    #[test]
    fn instrumenting_registers_every_download_metric() {
        // The catalogue's `download.*` rows, name being the first backtick
        // span of a row.
        let catalogue: Vec<&str> = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/OPERATIONS.md"
        ))
        .lines()
        .filter_map(|line| Some(line.strip_prefix("| `")?.split_once('`')?.0))
        .filter(|name| name.starts_with("download."))
        .collect();
        assert!(catalogue.len() > 20, "found the catalogue");

        let registry = Registry::new();
        let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
        module.instrument(&registry);
        let registered = registry.metric_names();
        for name in &catalogue {
            assert!(
                registered.iter().any(|r| r == name),
                "{name} is not registered before the first run"
            );
        }
        assert_eq!(registered.len(), catalogue.len());

        // Running looks nothing up by name, so it registers nothing: not
        // the first window, not an idle one, not the store-facing helpers.
        let mut world = small_world();
        let mut cursor = DownloadCursor::new(SimTime::EPOCH, world.horizon);
        let first = SimTime::EPOCH + SimDuration::from_hours(1);
        module.run_cursor(&mut world, &mut cursor, first);
        assert!(cursor.take_dirty());
        let idle = module.run_cursor(&mut world, &mut cursor, first);
        assert_eq!(idle, Ingested::default());
        assert!(!cursor.take_dirty(), "the second call popped no event");
        module.dead_letter("junk");
        assert_eq!(module.drain_tasks().len() as u64, cursor.stats.downloaded);
        assert_eq!(module.load_image("no/such"), None);
        assert_eq!(registry.metric_names(), registered);
    }

    #[test]
    fn offline_streamers_are_released() {
        let mut world = small_world();
        let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);
        assert!(stats.offline_signals > 0, "streams end → offline signals");
        assert!(stats.polls > 100);
        assert!(stats.swept > 0, "offline cooldowns expire via the sweep");
    }

    #[test]
    fn offline_comeback_is_reacquired() {
        // Regression test for the Offline release path: a streamer whose
        // stream ends (offline redirect, lease released) and who later
        // starts a new stream must be re-assigned and downloaded again.
        let mut world = small_world();
        let kv = KvStore::new();
        let mut module = DownloadModule::new(kv.clone(), ObjectStore::new());
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);
        assert!(stats.offline_signals > 0);

        // Find streamers with at least two streams and verify thumbnails
        // were captured from a later stream (i.e. after an offline release).
        let tasks = module.drain_tasks();
        let mut comebacks = 0;
        for (streamer, timeline) in world.streamers().iter().zip(world.timelines()) {
            if timeline.len() < 2 {
                continue;
            }
            let later = &timeline[1];
            let captured_later = tasks.iter().any(|t| {
                t.streamer == streamer.id
                    && t.generated_at >= later.start
                    && t.generated_at < later.end
            });
            if captured_later {
                comebacks += 1;
            }
        }
        assert!(
            comebacks > 0,
            "no streamer was re-acquired after coming back online"
        );
        // The release path ran exactly once per offline signal: no key or
        // load-accounting residue survives beyond the final in-flight set.
        assert_eq!(kv.llen("offline") as u64, stats.offline_signals);
    }

    #[test]
    fn lean_downloaders_beat_one_slow_worker() {
        // DESIGN.md ablation 6: the coordinator/downloader split exists
        // because downloads are time-sensitive. One worker with a heavy
        // per-fetch cost loses thumbnails to CDN overwrites; a pool of
        // lean workers does not.
        let run = |workers: usize, cost_ms: u64| {
            let mut world = World::build(WorldConfig {
                seed: 404,
                n_streamers: 60,
                days: 1,
                ..WorldConfig::default()
            });
            let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
            module.downloaders = workers;
            module.fetch_cost = SimDuration::from_millis(cost_ms);
            let horizon = world.horizon;
            module.run(&mut world, SimTime::EPOCH, horizon).downloaded
        };
        let pool = run(4, 500);
        let single_slow = run(1, 45_000); // 45 s per fetch, one worker
        assert!(
            single_slow < pool,
            "a slow single worker must fall behind: {single_slow} vs {pool}"
        );
    }

    #[test]
    fn crash_recovery_resumes_from_kv_state() {
        // Run the first half with one module instance, "crash", and run
        // the second half with a fresh instance sharing the same stores:
        // the union must capture roughly what an uninterrupted run does.
        let kv = KvStore::new();
        let objects = ObjectStore::new();
        let horizon;
        let two_phase = {
            let mut world = small_world();
            horizon = world.horizon;
            let half = SimTime::from_micros(horizon.as_micros() / 2);
            let mut first = DownloadModule::new(kv.clone(), objects.clone());
            let s1 = first.run(&mut world, SimTime::EPOCH, half);
            drop(first); // the crash: all in-memory assignment state is lost
            let mut second = DownloadModule::new(kv.clone(), objects.clone());
            let s2 = second.run(&mut world, half, horizon);
            s1.downloaded + s2.downloaded
        };
        let uninterrupted = {
            let mut world = small_world();
            let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
            module.run(&mut world, SimTime::EPOCH, horizon).downloaded
        };
        assert!(
            two_phase as f64 > uninterrupted as f64 * 0.9,
            "recovery lost too much: {two_phase} vs {uninterrupted}"
        );
    }

    #[test]
    fn windowed_cursor_matches_single_shot() {
        // One cursor driven over many windows must make exactly the same
        // world calls as one full-range run(): stats, object store and
        // queue contents all byte-identical.
        let single = {
            let mut world = small_world();
            let kv = KvStore::new();
            let objects = ObjectStore::new();
            let mut module = DownloadModule::new(kv.clone(), objects.clone());
            let horizon = world.horizon;
            let stats = module.run(&mut world, SimTime::EPOCH, horizon);
            (stats, kv.snapshot(), objects.snapshot())
        };
        let windowed = {
            let mut world = small_world();
            let kv = KvStore::new();
            let objects = ObjectStore::new();
            let module = DownloadModule::new(kv.clone(), objects.clone());
            let horizon = world.horizon;
            let mut cursor = DownloadCursor::new(SimTime::EPOCH, horizon);
            let step = SimDuration::from_hours(5);
            let mut end = SimTime::EPOCH + step;
            loop {
                module.run_cursor(&mut world, &mut cursor, end);
                if end >= horizon {
                    break;
                }
                end = (end + step).min(horizon);
            }
            (cursor.stats.clone(), kv.snapshot(), objects.snapshot())
        };
        assert_eq!(
            serde_json::to_string(&single.0).unwrap(),
            serde_json::to_string(&windowed.0).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&single.1).unwrap(),
            serde_json::to_string(&windowed.1).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&single.2).unwrap(),
            serde_json::to_string(&windowed.2).unwrap()
        );
    }

    /// Everything one ingest leaves behind, as comparable bytes: stats,
    /// every `download.*` / `chaos.injected.*` / `store.object.*`
    /// counter, the cursor, the KV store (`queue:thumbs` and the leases)
    /// and every `thumbs/*` object. `step` drives it as windows.
    fn ingest_bytes(
        workers: usize,
        plan: Option<tero_chaos::FaultPlan>,
        step: Option<SimDuration>,
    ) -> [String; 5] {
        let mut world = small_world();
        let registry = Registry::new();
        if let Some(plan) = plan {
            let chaos = tero_chaos::ChaosInjector::new(plan);
            chaos.instrument(&registry);
            world.install_chaos(chaos);
        }
        let (kv, objects) = (KvStore::new(), ObjectStore::new());
        objects.instrument(&registry);
        let mut module = DownloadModule::new(kv.clone(), objects.clone());
        module.instrument(&registry);
        module.set_pool(&Pool::new(workers));
        let horizon = world.horizon;
        let mut cursor = DownloadCursor::new(SimTime::EPOCH, horizon);
        let mut end = step.map_or(horizon, |s| SimTime::EPOCH + s);
        loop {
            module.run_cursor(&mut world, &mut cursor, end);
            if end >= horizon {
                break;
            }
            end = (end + step.expect("a single shot ends at the horizon")).min(horizon);
        }
        let counters: Vec<(String, u64)> = registry
            .snapshot()
            .counters
            .into_iter()
            .map(|c| (c.name, c.value))
            .collect();
        assert!(
            cursor.stats.downloaded as usize > 3 * RENDER_BATCH,
            "the run fills whole batches"
        );
        [
            serde_json::to_string(&cursor.stats).unwrap(),
            format!("{counters:?}"),
            serde_json::to_string(&cursor).unwrap(),
            serde_json::to_string(&kv.snapshot()).unwrap(),
            serde_json::to_string(&objects.snapshot()).unwrap(),
        ]
    }

    #[test]
    fn ingest_is_identical_at_any_width_and_schedule() {
        // Where a body is rendered, and where a window boundary cuts the
        // render queue, decide nothing: not without faults, not under the
        // stock plan, not when most fetches time out.
        let timeouts = tero_chaos::FaultPlan {
            cdn_timeout_rate: 0.6,
            ..tero_chaos::FaultPlan::quiet(3)
        };
        for plan in [
            None,
            Some(tero_chaos::FaultPlan::default_plan(3)),
            Some(timeouts),
        ] {
            let reference = ingest_bytes(1, plan.clone(), None);
            // 7 h and 37 min windows end mid-batch, every time.
            for step in [None, Some(SimDuration::from_mins(7 * 60 + 37))] {
                for workers in [1, 2, 8] {
                    let got = ingest_bytes(workers, plan.clone(), step);
                    for (what, (a, b)) in ["stats", "counters", "cursor", "kv", "objects"]
                        .iter()
                        .zip(got.iter().zip(&reference))
                    {
                        assert!(
                            a == b,
                            "{what} differ: {workers} workers, windows {step:?}, plan {plan:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fetches_that_store_nothing_render_nothing() {
        // A body is rendered only by `store_fetched`, once, for the put
        // that follows: so puts equal to downloads, with same-content and
        // truncated fetches both present, means neither rendered.
        let mut world = small_world();
        let registry = Registry::new();
        let chaos = tero_chaos::ChaosInjector::new(tero_chaos::FaultPlan {
            cdn_truncate_rate: 0.1,
            ..tero_chaos::FaultPlan::quiet(9)
        });
        chaos.instrument(&registry);
        world.install_chaos(chaos);
        let objects = ObjectStore::new();
        objects.instrument(&registry);
        let mut module = DownloadModule::new(KvStore::new(), objects.clone());
        module.instrument(&registry);
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);
        let snap = registry.snapshot();
        let truncated = snap.counter("chaos.injected.cdn_truncated").unwrap();
        let same_content = snap.counter("download.same_content").unwrap();
        assert!(truncated > 50 && same_content > 50);
        assert_eq!(stats.cdn_faults, truncated);
        assert_eq!(snap.counter("store.object.writes"), Some(stats.downloaded));
        assert_eq!(objects.snapshot().len() as u64, stats.downloaded);
        assert_eq!(
            snap.counter("download.get_attempts").unwrap(),
            stats.downloaded + same_content + truncated + stats.offline_signals
        );
        // Every stored payload is a whole image: the halved ones never
        // reached the store.
        for task in module.drain_tasks() {
            assert!(module.load_image(&task.object_key).is_some());
        }
        assert_eq!(snap.counter("download.decode_failures"), Some(0));
    }

    #[test]
    fn cursor_serde_roundtrip_resumes_identically() {
        // Persist the cursor mid-run, resurrect it from JSON, and finish:
        // the result must equal an uninterrupted run over the same stores.
        let horizon = small_world().horizon;
        let half = SimTime::from_micros(horizon.as_micros() / 2);
        let direct = {
            let mut world = small_world();
            let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
            module.run(&mut world, SimTime::EPOCH, horizon)
        };
        let resumed = {
            let mut world = small_world();
            let kv = KvStore::new();
            let objects = ObjectStore::new();
            let module = DownloadModule::new(kv.clone(), objects.clone());
            let mut cursor = DownloadCursor::new(SimTime::EPOCH, horizon);
            module.run_cursor(&mut world, &mut cursor, half);
            assert!(cursor.take_dirty(), "a window that popped events moved it");
            let json = serde_json::to_string(&cursor).unwrap();
            // A window that pops no event moves only `window_start`, which
            // is not part of the serialised form.
            let next_event = cursor.heap.peek().expect("mid-run").0 .0;
            assert!(next_event > half + SimDuration::from_micros(1));
            module.run_cursor(&mut world, &mut cursor, half + SimDuration::from_micros(1));
            assert!(!cursor.take_dirty());
            assert_eq!(serde_json::to_string(&cursor).unwrap(), json);
            assert!(!json.contains("window_start"));
            drop(cursor); // the crash: in-memory cursor state is lost
            let mut revived: DownloadCursor = serde_json::from_str(&json).unwrap();
            // The revived cursor serializes back to the same bytes.
            assert_eq!(serde_json::to_string(&revived).unwrap(), json);
            assert_eq!(revived.bounds(), (SimTime::EPOCH, horizon));
            let module2 = DownloadModule::new(kv, objects);
            module2.run_cursor(&mut world, &mut revived, horizon);
            revived.stats.clone()
        };
        assert_eq!(
            serde_json::to_string(&direct).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
    }

    #[test]
    fn rate_limit_is_respected() {
        let mut world = World::build(WorldConfig {
            seed: 5,
            n_streamers: 10,
            days: 1,
            api_budget_per_min: 1,
            ..WorldConfig::default()
        });
        let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
        module.poll_interval = SimDuration::from_secs(10); // over budget
        let horizon = world.horizon;
        let stats = module.run(&mut world, SimTime::EPOCH, horizon);
        assert!(stats.rate_limited > 0, "limiter must have pushed back");
        // The module kept running regardless.
        assert!(stats.polls > 0);
    }
}
