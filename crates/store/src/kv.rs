//! A Redis-like, sharded, thread-safe key-value store.
//!
//! Supports the subset of Redis that the Tero pipeline uses (App. B):
//! strings, counters, lists (work queues), hashes
//! (streamer-location state), key scans by prefix, and TTLs against the
//! simulation's logical clock.
//!
//! Each public method counts itself in `store.kv.*`, takes its chaos
//! write-drop draws, then builds one [`KvRequest`] and runs it through
//! [`KvStore::apply`], which looks at the backend: the in-process shard
//! array (the default), whose executor lives here, or a [`RemoteStore`]
//! client speaking a wire protocol to networked store servers (see
//! `tero-net`) — which run each request through the `apply` of a plain
//! local store. The one other method that looks at the backend is
//! [`KvStore::get_with`], a `get` that lends the stored string instead
//! of copying it out: locally it reads through the same lookup as a
//! `Get` request, remotely it sends one. So both deployments observe
//! identical `store.kv.*` accounting and fault-injection draw order, and
//! a server behaves as the local store does. A remote store is its
//! client's own: the servers keep one store per client, so keys cross
//! the wire as written, and a scan, a TTL sweep or a snapshot sees only
//! that client's keys.

use crate::remote::{KvRequest, KvResponse, RemoteStore};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};
use tero_chaos::ChaosInjector;
use tero_trace::obs::{CounterHandle, HistogramHandle, Registry};
use tero_trace::SpanGuard;
use tero_types::SimTime;

const SHARDS: usize = 16;

/// Key prefix reserved for pipeline control-plane state (stage cursors,
/// committed counters, the provenance ledger). Writes under this prefix
/// bypass fault injection: chaos targets the *data* plane (queues,
/// leases, tag lists) the way a flaky Redis would, while the engine's
/// own commit records stay trustworthy — losing a commit marker would
/// corrupt resume bookkeeping rather than exercise recovery paths.
pub const PROTECTED_PREFIX: &str = "engine:";

/// Metric handles installed by [`KvStore::instrument`].
struct KvMetrics {
    reads: CounterHandle,
    writes: CounterHandle,
    op_us: HistogramHandle,
    registry: Registry,
}

/// A value held in the store.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    List(VecDeque<String>),
    Hash(HashMap<String, String>),
}

#[derive(Debug)]
struct Entry {
    value: Value,
    expires_at: Option<SimTime>,
}

#[derive(Default)]
struct Shard {
    map: Mutex<HashMap<String, Entry>>,
}

/// Where the data actually lives.
#[derive(Clone)]
enum Backend {
    /// The in-process shard array.
    Local(Arc<[Shard; SHARDS]>),
    /// A networked client (routing, retries and failover live there).
    Remote(Arc<dyn RemoteStore>),
}

/// A sharded key-value store. Cloning is cheap (shared handle).
#[derive(Clone)]
pub struct KvStore {
    backend: Backend,
    metrics: Arc<OnceLock<KvMetrics>>,
    chaos: Arc<OnceLock<ChaosInjector>>,
}

impl Default for KvStore {
    fn default() -> Self {
        Self::new()
    }
}

/// The payload of `$variant`, the answer the request asked for. A
/// `WrongType` answer panics with the message given, if any.
macro_rules! answer {
    ($resp:expr, $variant:ident $(, $($wrong:tt)+)?) => {
        match $resp {
            KvResponse::$variant(v) => v,
            $(KvResponse::WrongType => panic!($($wrong)+),)?
            other => unreachable!("answered {other:?}"),
        }
    };
}

/// The shard that holds `key`: `std`'s fixed-key SipHash, which reads
/// the key a word at a time. Placement never shows: every request on
/// more than one shard either sorts what it gathers (`KeysWithPrefix`,
/// `Snapshot`) or only counts (`SweepExpired`, `Len`), so any hash that
/// is the same for the same key serves. A remote store's routing
/// (`tero-net`) is a hash of its own and does not depend on this one.
fn key_hash(key: &str) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % SHARDS as u64) as usize
}

/// Run `f` on the string stored at `key`, under its shard's lock; `None`
/// when the key is missing or holds a list or a hash. The one local
/// lookup of a string: a `Get` request and [`KvStore::get_with`] both
/// read through here.
#[inline(always)]
fn read_str<R>(shards: &[Shard; SHARDS], key: &str, f: impl FnOnce(&str) -> R) -> Option<R> {
    match shards[key_hash(key)].map.lock().get(key).map(|e| &e.value) {
        Some(Value::Str(s)) => Some(f(s)),
        _ => None,
    }
}

impl KvStore {
    /// Create an empty in-process store.
    pub fn new() -> Self {
        KvStore {
            backend: Backend::Local(Arc::new(std::array::from_fn(|_| Shard::default()))),
            metrics: Arc::new(OnceLock::new()),
            chaos: Arc::new(OnceLock::new()),
        }
    }

    /// Create a store whose operations execute on a [`RemoteStore`]
    /// client instead of in-process memory. The facade semantics
    /// (metrics, chaos draws, the protected prefix) are unchanged —
    /// only the backend differs.
    pub fn remote(backend: Arc<dyn RemoteStore>) -> Self {
        KvStore {
            backend: Backend::Remote(backend),
            metrics: Arc::new(OnceLock::new()),
            chaos: Arc::new(OnceLock::new()),
        }
    }

    /// Install a fault injector: insert-type writes (`set`, `set_with_ttl`,
    /// `rpush`, `hset`) may then be acked but silently lost, per the
    /// injector's `kv_write_drop_rate`. Deletes and pops are never dropped
    /// (a lost delete would mask rather than surface pipeline bugs). First
    /// call wins; every clone shares the injector.
    pub fn inject_faults(&self, injector: ChaosInjector) {
        let _ = self.chaos.set(injector);
    }

    /// Whether a write to `key` should be silently dropped. Control-plane
    /// keys under [`PROTECTED_PREFIX`] are never dropped (and consume no
    /// fault-injection randomness).
    #[inline]
    fn dropped_write(&self, key: &str) -> bool {
        if key.starts_with(PROTECTED_PREFIX) {
            return false;
        }
        self.chaos.get().is_some_and(|c| c.drop_kv_write())
    }

    /// Register this store's operation metrics (`store.kv.*`) with a
    /// registry. The first call wins; every clone of this store — taken
    /// before or after — shares the installed handles. Un-instrumented
    /// stores pay a single atomic load per operation.
    pub fn instrument(&self, registry: &Registry) {
        let _ = self.metrics.set(KvMetrics {
            reads: registry.counter("store.kv.reads"),
            writes: registry.counter("store.kv.writes"),
            op_us: registry.histogram("store.kv.op_us"),
            registry: registry.clone(),
        });
    }

    /// Count one operation and (when timing is enabled) time it. Returns
    /// the guard whose drop records the elapsed microseconds.
    #[inline]
    fn observe(&self, write: bool) -> Option<SpanGuard> {
        let m = self.metrics.get()?;
        if write {
            m.writes.inc();
        } else {
            m.reads.inc();
        }
        Some(m.registry.stage_timer(&m.op_us))
    }

    /// Execute one request. An in-process store runs it on its shard
    /// array; a remote one hands it to its [`RemoteStore`]. A store
    /// server runs every request it decodes through here, on a plain
    /// local store. Neither counted nor fault-injected: both are the
    /// public methods' business. A write on a key of another type, or an
    /// increment of a non-numeric value, changes nothing and answers
    /// [`KvResponse::WrongType`].
    #[inline(always)]
    pub fn apply(&self, req: KvRequest<'_>) -> KvResponse {
        match &self.backend {
            Backend::Local(shards) => execute(shards, req),
            Backend::Remote(r) => r.kv(req),
        }
    }

    /// Set a string value (no TTL).
    pub fn set(&self, key: &str, value: impl Into<String>) {
        let _op = self.observe(true);
        if !self.dropped_write(key) {
            let value = Cow::Owned(value.into());
            self.apply(KvRequest::Set {
                key: key.into(),
                value,
            });
        }
    }

    /// Set a string value that expires at logical time `expires_at`.
    pub fn set_with_ttl(&self, key: &str, value: impl Into<String>, expires_at: SimTime) {
        let _op = self.observe(true);
        if !self.dropped_write(key) {
            let value = Cow::Owned(value.into());
            self.apply(KvRequest::SetWithTtl {
                key: key.into(),
                value,
                expires_at,
            });
        }
    }

    /// Get a string value. Returns `None` for missing keys or keys holding a
    /// non-string value.
    pub fn get(&self, key: &str) -> Option<String> {
        let _op = self.observe(false);
        answer!(self.apply(KvRequest::Get { key: key.into() }), MaybeStr)
    }

    /// Run `f` on the string value at `key` without copying it out, and
    /// return what `f` returns: `None`, without running `f`, for a
    /// missing key or one holding a non-string value. One read in
    /// `store.kv.*`, like [`KvStore::get`], and its timing includes `f`.
    /// An in-process store runs `f` under the key's shard lock, so `f`
    /// must not touch this store (or a clone of it); a remote store runs
    /// it on the `Get` answer.
    pub fn get_with<R>(&self, key: &str, f: impl FnOnce(&str) -> R) -> Option<R> {
        let _op = self.observe(false);
        match &self.backend {
            Backend::Local(shards) => read_str(shards, key, f),
            Backend::Remote(r) => {
                let value = answer!(r.kv(KvRequest::Get { key: key.into() }), MaybeStr);
                value.as_deref().map(f)
            }
        }
    }

    /// Delete a key of any type. Returns whether it existed.
    pub fn del(&self, key: &str) -> bool {
        let _op = self.observe(true);
        answer!(self.apply(KvRequest::Del { key: key.into() }), Bool)
    }

    /// Whether a key exists (of any type).
    pub fn exists(&self, key: &str) -> bool {
        let _op = self.observe(false);
        answer!(self.apply(KvRequest::Exists { key: key.into() }), Bool)
    }

    /// Atomically increment a counter key by `delta`, creating it at 0
    /// first if missing. Returns the new value. Panics if the key holds a
    /// non-numeric string or non-string value.
    pub fn incr_by(&self, key: &str, delta: i64) -> i64 {
        let _op = self.observe(true);
        let req = KvRequest::IncrBy {
            key: key.into(),
            delta,
        };
        answer!(
            self.apply(req),
            Int,
            "incr_by on non-numeric or non-string key {key}"
        )
    }

    /// Push a value to the tail of the list at `key`, creating the list if
    /// needed. Returns the new length.
    pub fn rpush(&self, key: &str, value: impl Into<String>) -> usize {
        let _op = self.observe(true);
        if self.dropped_write(key) {
            // Acked-but-lost: report the length the client expects to see.
            return self.list_len(key) + 1;
        }
        let value = Cow::Owned(value.into());
        let req = KvRequest::Rpush {
            key: key.into(),
            value,
        };
        answer!(self.apply(req), Uint, "rpush on non-list key {key}") as usize
    }

    /// Push a batch of values to the tail of the list at `key` as one
    /// request. Counts as one store operation. Each element is still
    /// subject to an independent fault-injection draw (matching a loop of
    /// [`KvStore::rpush`] calls), so replay streams line up whichever API
    /// the producer uses; only the kept elements are sent. Returns the
    /// length the client observes after the push.
    pub fn rpush_batch<I>(&self, key: &str, values: I) -> usize
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let _op = self.observe(true);
        let mut dropped = 0;
        let values = values
            .into_iter()
            .filter_map(|v| {
                let lost = self.dropped_write(key);
                dropped += lost as usize;
                (!lost).then(|| v.into())
            })
            .collect();
        let req = KvRequest::RpushBatch {
            key: key.into(),
            values,
        };
        answer!(self.apply(req), Uint, "rpush_batch on non-list key {key}") as usize + dropped
    }

    /// Pop from the head of the list at `key`.
    pub fn lpop(&self, key: &str) -> Option<String> {
        let _op = self.observe(true);
        answer!(self.apply(KvRequest::Lpop { key: key.into() }), MaybeStr)
    }

    /// Read the list at `key` from index `start` to the tail, without
    /// consuming anything (Redis `LRANGE key start -1`). Returns an empty
    /// vector when the list is missing or `start` is past the end.
    ///
    /// This is the read the streaming consumers use: a cursor-holding
    /// stage (see `tero-core`'s online clean stage) remembers how many
    /// records it has already processed and fetches only the suffix,
    /// while the list itself stays intact for replay after a crash — the
    /// non-destructive complement of [`KvStore::lpop`].
    pub fn lrange_from(&self, key: &str, start: usize) -> Vec<String> {
        let _op = self.observe(false);
        let req = KvRequest::LrangeFrom {
            key: key.into(),
            start: start as u64,
        };
        answer!(self.apply(req), Strs)
    }

    /// Length of the list at `key` (0 when missing).
    pub fn llen(&self, key: &str) -> usize {
        let _op = self.observe(false);
        self.list_len(key)
    }

    /// [`KvStore::llen`] uncounted: a dropped `rpush` answers from it.
    fn list_len(&self, key: &str) -> usize {
        answer!(self.apply(KvRequest::Llen { key: key.into() }), Uint) as usize
    }

    /// Set a field in the hash at `key`: [`KvStore::hset_many`] with one
    /// field.
    pub fn hset(&self, key: &str, field: &str, value: impl Into<String>) {
        self.hset_many(key, [(field.to_string(), value.into())]);
    }

    /// Set several fields of the hash at `key` as one store operation:
    /// one `store.kv.writes` tick, one request, however many fields.
    /// Fields apply in order (a repeated field keeps its last value) and
    /// each is still subject to an independent fault-injection draw, in
    /// field order, so replay streams line up with a loop of
    /// [`KvStore::hset`] calls. An empty list — or one whose every field
    /// was dropped — sends nothing.
    pub fn hset_many(&self, key: &str, fields: impl IntoIterator<Item = (String, String)>) {
        let _op = self.observe(true);
        let fields: Vec<_> = fields
            .into_iter()
            .filter(|_| !self.dropped_write(key))
            .collect();
        if fields.is_empty() {
            return;
        }
        let req = KvRequest::Hset {
            key: key.into(),
            fields,
        };
        if let KvResponse::WrongType = self.apply(req) {
            panic!("hset on non-hash key {key}");
        }
    }

    /// Get a field from the hash at `key`.
    pub fn hget(&self, key: &str, field: &str) -> Option<String> {
        let _op = self.observe(false);
        let req = KvRequest::Hget {
            key: key.into(),
            field: field.into(),
        };
        answer!(self.apply(req), MaybeStr)
    }

    /// All fields of the hash at `key`.
    pub fn hgetall(&self, key: &str) -> HashMap<String, String> {
        let _op = self.observe(false);
        let pairs = answer!(self.apply(KvRequest::Hgetall { key: key.into() }), Pairs);
        pairs.into_iter().collect()
    }

    /// All keys starting with `prefix`, sorted. O(total keys).
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let _op = self.observe(false);
        let req = KvRequest::KeysWithPrefix {
            prefix: prefix.into(),
        };
        // Sorted per shard; a remote store concatenates its shards'.
        let mut keys = answer!(self.apply(req), Strs);
        keys.sort_unstable();
        keys
    }

    /// Drop every key whose TTL is at or before `now` (logical time).
    /// Returns the number of keys removed. The pipeline's coordinator calls
    /// this on its periodic tick. On a remote backend the sweep reaches
    /// only this client's keys, so it runs at this client's logical clock
    /// and never expires another client's TTL leases.
    pub fn sweep_expired(&self, now: SimTime) -> usize {
        let _op = self.observe(true);
        answer!(self.apply(KvRequest::SweepExpired { now }), Uint) as usize
    }

    /// Total number of keys.
    pub fn len(&self) -> usize {
        answer!(self.apply(KvRequest::Len), Uint) as usize
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capture the full store contents as a deterministic, serializable
    /// snapshot: entries sorted by key, hash fields sorted by field name.
    /// Two stores holding the same data produce equal snapshots however
    /// the data arrived. Administrative — not counted in `store.kv.*`.
    pub fn snapshot(&self) -> KvSnapshot {
        answer!(self.apply(KvRequest::Snapshot), Snapshot)
    }

    /// Replace the full store contents with a snapshot's. TTLs are
    /// restored verbatim (logical clock, so they stay meaningful across
    /// processes). Bypasses fault injection and, like `snapshot`, is not
    /// counted in `store.kv.*`.
    pub fn restore(&self, snapshot: &KvSnapshot) {
        let snapshot = snapshot.clone();
        self.apply(KvRequest::Restore { snapshot });
    }
}

/// The local executor: run one request on the shard array.
#[inline(always)]
fn execute(shards: &[Shard; SHARDS], req: KvRequest<'_>) -> KvResponse {
    let shard = |key: &str| shards[key_hash(key)].map.lock();
    let entry = |value, expires_at| Entry { value, expires_at };
    match req {
        KvRequest::Set { key, value } => {
            let value = entry(Value::Str(value.into_owned()), None);
            shard(&key).insert(key.into_owned(), value);
            KvResponse::Unit
        }
        KvRequest::SetWithTtl {
            key,
            value,
            expires_at,
        } => {
            let value = entry(Value::Str(value.into_owned()), Some(expires_at));
            shard(&key).insert(key.into_owned(), value);
            KvResponse::Unit
        }
        KvRequest::Get { key } => KvResponse::MaybeStr(read_str(shards, &key, str::to_owned)),
        KvRequest::Del { key } => KvResponse::Bool(shard(&key).remove(&*key).is_some()),
        KvRequest::Exists { key } => KvResponse::Bool(shard(&key).contains_key(&*key)),
        KvRequest::IncrBy { key, delta } => upsert(
            &mut shard(&key),
            key,
            || Value::Str("0".into()),
            |value| {
                let Value::Str(s) = value else {
                    return KvResponse::WrongType;
                };
                let Ok(cur) = s.parse::<i64>() else {
                    return KvResponse::WrongType;
                };
                *s = (cur + delta).to_string();
                KvResponse::Int(cur + delta)
            },
        ),
        KvRequest::Rpush { key, value } => upsert(&mut shard(&key), key, list, |v| match v {
            Value::List(l) => {
                l.push_back(value.into_owned());
                KvResponse::Uint(l.len() as u64)
            }
            _ => KvResponse::WrongType,
        }),
        KvRequest::RpushBatch { key, values } => upsert(&mut shard(&key), key, list, |v| match v {
            Value::List(l) => {
                l.extend(values);
                KvResponse::Uint(l.len() as u64)
            }
            _ => KvResponse::WrongType,
        }),
        KvRequest::Lpop { key } => {
            KvResponse::MaybeStr(match shard(&key).get_mut(&*key).map(|e| &mut e.value) {
                Some(Value::List(l)) => l.pop_front(),
                _ => None,
            })
        }
        KvRequest::Llen { key } => {
            KvResponse::Uint(match shard(&key).get(&*key).map(|e| &e.value) {
                Some(Value::List(l)) => l.len() as u64,
                _ => 0,
            })
        }
        KvRequest::LrangeFrom { key, start } => {
            KvResponse::Strs(match shard(&key).get(&*key).map(|e| &e.value) {
                Some(Value::List(l)) => l.iter().skip(start as usize).cloned().collect(),
                _ => vec![],
            })
        }
        KvRequest::Hset { fields, .. } if fields.is_empty() => KvResponse::Unit,
        KvRequest::Hset { key, fields } => upsert(&mut shard(&key), key, hash, |v| match v {
            Value::Hash(h) => {
                for (field, value) in fields {
                    h.insert(field, value);
                }
                KvResponse::Unit
            }
            _ => KvResponse::WrongType,
        }),
        KvRequest::Hget { key, field } => {
            KvResponse::MaybeStr(match shard(&key).get(&*key).map(|e| &e.value) {
                Some(Value::Hash(h)) => h.get(&*field).cloned(),
                _ => None,
            })
        }
        KvRequest::Hgetall { key } => {
            KvResponse::Pairs(match shard(&key).get(&*key).map(|e| &e.value) {
                Some(Value::Hash(h)) => sorted(h),
                _ => vec![],
            })
        }
        KvRequest::KeysWithPrefix { prefix } => {
            let mut keys = Vec::new();
            for shard in shards {
                let map = shard.map.lock();
                keys.extend(map.keys().filter(|k| k.starts_with(&*prefix)).cloned());
            }
            keys.sort_unstable();
            KvResponse::Strs(keys)
        }
        KvRequest::SweepExpired { now } => {
            let mut removed = 0;
            for shard in shards {
                shard.map.lock().retain(|_, e| match e.expires_at {
                    Some(t) if t <= now => {
                        removed += 1;
                        false
                    }
                    _ => true,
                });
            }
            KvResponse::Uint(removed)
        }
        KvRequest::Len => KvResponse::Uint(shards.iter().map(|s| s.map.lock().len() as u64).sum()),
        KvRequest::Snapshot => {
            let mut entries = Vec::new();
            for shard in shards {
                for (key, entry) in shard.map.lock().iter() {
                    let value = match &entry.value {
                        Value::Str(s) => SnapshotValue::Str(s.clone()),
                        Value::List(l) => SnapshotValue::List(l.iter().cloned().collect()),
                        Value::Hash(h) => SnapshotValue::Hash(sorted(h)),
                    };
                    entries.push(SnapshotEntry {
                        key: key.clone(),
                        value,
                        expires_at: entry.expires_at,
                    });
                }
            }
            entries.sort_by(|a, b| a.key.cmp(&b.key));
            KvResponse::Snapshot(KvSnapshot { entries })
        }
        KvRequest::Restore { snapshot } => {
            for shard in shards {
                shard.map.lock().clear();
            }
            for SnapshotEntry {
                key,
                value,
                expires_at,
            } in snapshot.entries
            {
                let value = match value {
                    SnapshotValue::Str(s) => Value::Str(s),
                    SnapshotValue::List(l) => Value::List(l.into()),
                    SnapshotValue::Hash(fields) => Value::Hash(fields.into_iter().collect()),
                };
                shard(&key).insert(key, entry(value, expires_at));
            }
            KvResponse::Unit
        }
    }
}

/// A hash's `(field, value)` pairs, sorted by field: the same bytes
/// however the hash was built.
fn sorted(hash: &HashMap<String, String>) -> Vec<(String, String)> {
    let mut pairs: Vec<_> = hash.iter().map(|(f, v)| (f.clone(), v.clone())).collect();
    pairs.sort();
    pairs
}

/// Run `op` on the value at `key`, stored first as `empty()` if the key
/// is missing. A key that exists is looked up without being copied.
fn upsert(
    map: &mut HashMap<String, Entry>,
    key: Cow<'_, str>,
    empty: fn() -> Value,
    op: impl FnOnce(&mut Value) -> KvResponse,
) -> KvResponse {
    if let Some(entry) = map.get_mut(&*key) {
        return op(&mut entry.value);
    }
    let entry = map.entry(key.into_owned()).or_insert(Entry {
        value: empty(),
        expires_at: None,
    });
    op(&mut entry.value)
}

fn list() -> Value {
    Value::List(VecDeque::new())
}

fn hash() -> Value {
    Value::Hash(HashMap::new())
}

/// A point-in-time copy of a [`KvStore`], in deterministic order. Produced
/// by [`KvStore::snapshot`], consumed by [`KvStore::restore`]; serializable
/// so checkpoints can leave the process.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KvSnapshot {
    entries: Vec<SnapshotEntry>,
}

impl KvSnapshot {
    /// Number of keys captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every key that starts with `prefix`, with its value, in snapshot
    /// order, read without restoring the snapshot.
    pub fn entries_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a SnapshotValue)> + 'a {
        self.entries
            .iter()
            .filter(move |entry| entry.key.starts_with(prefix))
            .map(|entry| (entry.key.as_str(), &entry.value))
    }

    /// Merge entries from several snapshots into one, keeping entries
    /// sorted by key. Later snapshots win on key collisions, except:
    /// lists are concatenated in argument order, and hashes merge
    /// field-wise (later parts win per *field*) — the shapes a sharded
    /// deployment needs when folding disjoint per-streamer key spaces,
    /// shared ledger lists, and hashes whose fields are spread across
    /// engines back together.
    pub fn merged(parts: &[KvSnapshot]) -> KvSnapshot {
        let mut by_key: std::collections::BTreeMap<String, SnapshotEntry> =
            std::collections::BTreeMap::new();
        for part in parts {
            for entry in &part.entries {
                match by_key.get_mut(&entry.key) {
                    Some(prev) => match (&mut prev.value, &entry.value) {
                        (SnapshotValue::List(dst), SnapshotValue::List(src)) => {
                            dst.extend(src.iter().cloned());
                        }
                        (SnapshotValue::Hash(dst), SnapshotValue::Hash(src)) => {
                            for (field, value) in src {
                                match dst.iter_mut().find(|(f, _)| f == field) {
                                    Some((_, v)) => *v = value.clone(),
                                    None => dst.push((field.clone(), value.clone())),
                                }
                            }
                            dst.sort();
                        }
                        _ => *prev = entry.clone(),
                    },
                    None => {
                        by_key.insert(entry.key.clone(), entry.clone());
                    }
                }
            }
        }
        KvSnapshot {
            entries: by_key.into_values().collect(),
        }
    }

    /// Split into `parts` snapshots, entry by entry, by `part_of(key)` (an
    /// index below `parts`); each part stays sorted by key. A client that
    /// routes keys across several servers restores each server from its
    /// part.
    pub fn partition(self, parts: usize, part_of: impl Fn(&str) -> usize) -> Vec<KvSnapshot> {
        let mut out = vec![KvSnapshot::default(); parts];
        for entry in self.entries {
            out[part_of(&entry.key)].entries.push(entry);
        }
        out
    }
}

/// One key in a [`KvSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SnapshotEntry {
    key: String,
    value: SnapshotValue,
    expires_at: Option<SimTime>,
}

/// Snapshot form of a stored value (hash fields sorted for determinism).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotValue {
    /// A string (or counter) value.
    Str(String),
    /// A list, head first.
    List(Vec<String>),
    /// A hash, as sorted `(field, value)` pairs.
    Hash(Vec<(String, String)>),
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A remote `len` is a request on every shard: a debug print must
        // not move the mesh's counters or fault draws.
        let mut out = f.debug_struct("KvStore");
        match &self.backend {
            Backend::Local(_) => out.field("len", &self.len()),
            Backend::Remote(_) => out.field("backend", &"remote"),
        }
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_roundtrip() {
        let kv = KvStore::new();
        kv.set("a", "1");
        assert_eq!(kv.get("a").as_deref(), Some("1"));
        assert!(kv.exists("a"));
        assert!(kv.del("a"));
        assert!(!kv.exists("a"));
        assert!(!kv.del("a"));
        assert_eq!(kv.get("missing"), None);
    }

    #[test]
    fn get_with_lends_strings_only() {
        let kv = KvStore::new();
        let registry = Registry::new();
        kv.instrument(&registry);
        kv.set("s", "value");
        kv.rpush("l", "x");
        kv.hset("h", "f", "x");
        assert_eq!(kv.get_with("s", str::len), Some(5));
        for key in ["missing", "l", "h"] {
            let ran = std::cell::Cell::new(false);
            assert_eq!(kv.get_with(key, |_| ran.set(true)), None, "{key}");
            assert!(!ran.get(), "f ran on {key}");
        }
        assert_eq!(registry.counter("store.kv.reads").get(), 4);
    }

    #[test]
    fn counters() {
        let kv = KvStore::new();
        assert_eq!(kv.incr_by("c", 1), 1);
        assert_eq!(kv.incr_by("c", 5), 6);
        assert_eq!(kv.incr_by("c", -2), 4);
        assert_eq!(kv.get("c").as_deref(), Some("4"));
    }

    #[test]
    fn list_fifo_order() {
        let kv = KvStore::new();
        kv.rpush("q", "a");
        kv.rpush("q", "b");
        kv.rpush("q", "c");
        assert_eq!(kv.llen("q"), 3);
        assert_eq!(kv.lpop("q").as_deref(), Some("a"));
        assert_eq!(kv.lpop("q").as_deref(), Some("b"));
        assert_eq!(kv.lpop("q").as_deref(), Some("c"));
        assert_eq!(kv.lpop("q"), None);
    }

    #[test]
    fn lrange_from_reads_without_consuming() {
        let kv = KvStore::new();
        for i in 0..5 {
            kv.rpush("log", i.to_string());
        }
        assert_eq!(kv.lrange_from("log", 0).len(), 5);
        assert_eq!(kv.lrange_from("log", 3), vec!["3", "4"]);
        assert!(kv.lrange_from("log", 5).is_empty());
        assert!(kv.lrange_from("log", 99).is_empty());
        assert!(kv.lrange_from("missing", 0).is_empty());
        // The list is intact: a cursor consumer re-reads after a crash.
        assert_eq!(kv.llen("log"), 5);
        // Wrong type: a string key reads as an empty list, like llen.
        kv.set("str", "x");
        assert!(kv.lrange_from("str", 0).is_empty());
    }

    #[test]
    fn hashes() {
        let kv = KvStore::new();
        kv.hset("h", "x", "1");
        kv.hset("h", "y", "2");
        assert_eq!(kv.hget("h", "x").as_deref(), Some("1"));
        assert_eq!(kv.hget("h", "z"), None);
        assert_eq!(kv.hgetall("h").len(), 2);
        assert!(kv.hgetall("nope").is_empty());
    }

    #[test]
    fn hset_many_is_one_write_for_n_hsets() {
        let fields = [("x", "1"), ("y", "2"), ("x", "3"), ("z", "4")];
        let (many, singles) = (KvStore::new(), KvStore::new());
        let (many_obs, singles_obs) = (Registry::new(), Registry::new());
        many.instrument(&many_obs);
        singles.instrument(&singles_obs);
        many.hset("h", "w", "0");
        singles.hset("h", "w", "0");
        many.hset_many("h", fields.map(|(f, v)| (f.to_string(), v.to_string())));
        for (f, v) in fields {
            singles.hset("h", f, v);
        }
        assert_eq!(many.snapshot(), singles.snapshot());
        assert_eq!(many.hget("h", "x").as_deref(), Some("3"), "last value wins");
        assert_eq!(many_obs.counter("store.kv.writes").get(), 2);
        assert_eq!(singles_obs.counter("store.kv.writes").get(), 5);
        // No field, no hash — but still one counted operation.
        many.hset_many("empty", []);
        assert!(!many.exists("empty"));
        assert_eq!(many_obs.counter("store.kv.writes").get(), 3);
    }

    #[test]
    fn hset_many_draws_faults_like_n_hsets() {
        use tero_chaos::{ChaosInjector, FaultPlan};
        let plan = FaultPlan {
            kv_write_drop_rate: 0.5,
            ..FaultPlan::quiet(9)
        };
        let fields: Vec<(String, String)> =
            (0..64).map(|i| (format!("f{i}"), i.to_string())).collect();
        let (many, singles) = (KvStore::new(), KvStore::new());
        let (many_chaos, singles_chaos) = (
            ChaosInjector::new(plan.clone()),
            ChaosInjector::new(plan.clone()),
        );
        many.inject_faults(many_chaos.clone());
        singles.inject_faults(singles_chaos.clone());
        many.hset_many("data:h", fields.clone());
        // Protected keys take no draw, whichever call writes them.
        many.hset_many("engine:h", fields.clone());
        for (f, v) in &fields {
            singles.hset("data:h", f, v.as_str());
        }
        let kept = many.hgetall("data:h");
        assert_eq!(kept, singles.hgetall("data:h"), "the same fields dropped");
        assert!(kept.len() > 16 && kept.len() < 48, "kept {}", kept.len());
        assert_eq!(many.hgetall("engine:h").len(), 64);
        // Both injectors stand at the same draw.
        let next = |c: &ChaosInjector| (0..32).map(|_| c.drop_kv_write()).collect::<Vec<_>>();
        assert_eq!(next(&many_chaos), next(&singles_chaos));
    }

    #[test]
    fn prefix_scan() {
        let kv = KvStore::new();
        kv.set("streamer:alice", "x");
        kv.set("streamer:bob", "y");
        kv.set("other:carol", "z");
        let keys = kv.keys_with_prefix("streamer:");
        assert_eq!(keys, vec!["streamer:alice", "streamer:bob"]);
    }

    #[test]
    fn ttl_sweep() {
        let kv = KvStore::new();
        kv.set_with_ttl("t1", "a", SimTime::from_secs(10));
        kv.set_with_ttl("t2", "b", SimTime::from_secs(20));
        kv.set("forever", "c");
        assert_eq!(kv.sweep_expired(SimTime::from_secs(10)), 1);
        assert!(!kv.exists("t1"));
        assert!(kv.exists("t2"));
        assert_eq!(kv.sweep_expired(SimTime::from_secs(100)), 1);
        assert!(kv.exists("forever"));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn concurrent_producers_consumers() {
        let kv = KvStore::new();
        let mut handles = vec![];
        for p in 0..4 {
            let kv = kv.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    kv.rpush("mpmc", format!("{p}:{i}"));
                }
            }));
        }
        // Consumers race the producers: every pushed value is popped by
        // exactly one of them.
        let popped = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut consumers = vec![];
        for _ in 0..4 {
            let (kv, popped) = (kv.clone(), Arc::clone(&popped));
            consumers.push(std::thread::spawn(move || {
                let mut got = 0;
                while popped.load(std::sync::atomic::Ordering::SeqCst) < 400 {
                    match kv.lpop("mpmc") {
                        Some(_) => {
                            popped.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            got += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn rpush_batch_matches_looped_rpush() {
        let kv = KvStore::new();
        let loops = KvStore::new();
        kv.rpush_batch("q", ["a", "b", "c"].map(String::from));
        for v in ["a", "b", "c"] {
            loops.rpush("q", v);
        }
        assert_eq!(kv.snapshot(), loops.snapshot());
        assert_eq!(kv.rpush_batch("q", ["d".to_string()]), 4);
        assert_eq!(kv.lrange_from("q", 0), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let kv = KvStore::new();
        kv.set("s", "v");
        kv.set_with_ttl("lease", "x", SimTime::from_secs(30));
        kv.rpush("q", "1");
        kv.rpush("q", "2");
        kv.hset("h", "b", "2");
        kv.hset("h", "a", "1");
        let snap = kv.snapshot();
        assert_eq!(snap.len(), 4);
        let pairs = [("a", "1"), ("b", "2")].map(|(f, v)| (f.to_string(), v.to_string()));
        let hash = SnapshotValue::Hash(pairs.to_vec());
        let lease = SnapshotValue::Str("x".into());
        let list = SnapshotValue::List(vec!["1".into(), "2".into()]);
        let string = SnapshotValue::Str("v".into());
        let all = [
            ("h", &hash),
            ("lease", &lease),
            ("q", &list),
            ("s", &string),
        ];
        assert_eq!(snap.entries_with_prefix("").collect::<Vec<_>>(), all);
        assert_eq!(snap.entries_with_prefix("l").collect::<Vec<_>>(), [all[1]]);

        let other = KvStore::new();
        other.set("stale", "gone");
        other.restore(&snap);
        assert_eq!(other.get("s").as_deref(), Some("v"));
        assert!(!other.exists("stale"), "restore replaces prior contents");
        assert_eq!(other.lpop("q").as_deref(), Some("1"));
        assert_eq!(other.hget("h", "a").as_deref(), Some("1"));
        // TTLs survive: the lease still expires on the logical clock.
        assert_eq!(other.sweep_expired(SimTime::from_secs(30)), 1);
        assert!(!other.exists("lease"));
    }

    #[test]
    fn snapshot_is_deterministic_and_serializable() {
        let a = KvStore::new();
        let b = KvStore::new();
        // Same data, different arrival order.
        a.hset("h", "x", "1");
        a.hset("h", "y", "2");
        a.set("k", "v");
        b.set("k", "v");
        b.hset("h", "y", "2");
        b.hset("h", "x", "1");
        assert_eq!(a.snapshot(), b.snapshot());

        let json = serde_json::to_string(&a.snapshot()).unwrap();
        let back: KvSnapshot = serde_json::from_str(&json).unwrap();
        let fresh = KvStore::new();
        fresh.restore(&back);
        assert_eq!(fresh.snapshot(), a.snapshot());
    }

    #[test]
    fn snapshot_merge_and_partition() {
        let a = KvStore::new();
        a.set("x", "1");
        a.rpush("engine:ledger", "r1");
        let b = KvStore::new();
        b.set("y", "2");
        b.rpush("engine:ledger", "r2");

        let merged = KvSnapshot::merged(&[a.snapshot(), b.snapshot()]);
        let kv = KvStore::new();
        kv.restore(&merged);
        assert_eq!(kv.get("x").as_deref(), Some("1"));
        assert_eq!(kv.get("y").as_deref(), Some("2"));
        // Ledger lists concatenate in argument order.
        assert_eq!(kv.lrange_from("engine:ledger", 0), vec!["r1", "r2"]);

        // Partitioned parts hold every entry once, each part sorted, and
        // merge back into the whole.
        let parts = merged
            .clone()
            .partition(2, |key| key.starts_with("engine:") as usize);
        let keys: Vec<Vec<&str>> = parts
            .iter()
            .map(|part| part.entries_with_prefix("").map(|(key, _)| key).collect())
            .collect();
        assert_eq!(keys, [vec!["x", "y"], vec!["engine:ledger"]]);
        assert_eq!(KvSnapshot::merged(&parts), merged);
    }

    #[test]
    fn protected_prefix_bypasses_chaos() {
        use tero_chaos::{ChaosInjector, FaultPlan};
        let kv = KvStore::new();
        let mut plan = FaultPlan::quiet(1);
        plan.kv_write_drop_rate = 1.0; // drop every data-plane write
        kv.inject_faults(ChaosInjector::new(plan));
        kv.set("data", "lost");
        kv.rpush("queue", "lost");
        assert!(!kv.exists("data"));
        assert_eq!(kv.llen("queue"), 0);
        kv.set("engine:cursor", "kept");
        kv.rpush_batch("engine:ledger", ["a", "b"].map(String::from));
        assert_eq!(kv.get("engine:cursor").as_deref(), Some("kept"));
        assert_eq!(kv.llen("engine:ledger"), 2);
    }

    #[test]
    fn type_confusion_is_contained() {
        let kv = KvStore::new();
        kv.rpush("list", "x");
        assert_eq!(kv.get("list"), None, "get on a list returns None");
        kv.set("str", "v");
        assert_eq!(kv.lpop("str"), None, "lpop on a string returns None");
        assert_eq!(kv.hget("str", "f"), None);
    }
}
