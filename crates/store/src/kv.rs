//! A Redis-like, sharded, thread-safe key-value store.
//!
//! Supports the subset of Redis that the Tero pipeline uses (App. B):
//! strings, counters, lists (work queues), hashes
//! (streamer-location state), key scans by prefix, and TTLs against the
//! simulation's logical clock.
//!
//! The public API is a *facade* over one of two backends: the
//! in-process shard array (the default), or a [`RemoteStore`] client
//! speaking a wire protocol to networked store servers (see
//! `tero-net`). Metrics and chaos write-drops live in the facade, so
//! both deployments observe identical `store.kv.*` accounting and
//! fault-injection draw order.

use crate::remote::{KvRequest, KvResponse, RemoteStore};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use tero_chaos::ChaosInjector;
use tero_obs::{CounterHandle, HistogramHandle, Registry, StageTimer};
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
enum Backend {
    /// The in-process shard array.
    Local(Arc<[Shard; SHARDS]>),
    /// A networked client (routing, retries and failover live there).
    Remote(Arc<dyn RemoteStore>),
}

impl Clone for Backend {
    fn clone(&self) -> Self {
        match self {
            Backend::Local(shards) => Backend::Local(Arc::clone(shards)),
            Backend::Remote(r) => Backend::Remote(Arc::clone(r)),
        }
    }
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

fn key_hash(key: &str) -> usize {
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % SHARDS as u64) as usize
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
    fn observe(&self, write: bool) -> Option<StageTimer> {
        let m = self.metrics.get()?;
        if write {
            m.writes.inc();
        } else {
            m.reads.inc();
        }
        Some(m.registry.stage_timer(&m.op_us))
    }

    /// The local shard owning `key`. Panics on a remote backend — every
    /// caller dispatches on the backend first.
    fn local_shard<'a>(shards: &'a Arc<[Shard; SHARDS]>, key: &str) -> &'a Shard {
        &shards[key_hash(key)]
    }

    /// Set a string value (no TTL).
    pub fn set(&self, key: &str, value: impl Into<String>) {
        let _op = self.observe(true);
        if self.dropped_write(key) {
            return;
        }
        match &self.backend {
            Backend::Local(shards) => {
                let mut map = Self::local_shard(shards, key).map.lock();
                map.insert(
                    key.to_string(),
                    Entry {
                        value: Value::Str(value.into()),
                        expires_at: None,
                    },
                );
            }
            Backend::Remote(r) => {
                r.kv(KvRequest::Set {
                    key: key.to_string(),
                    value: value.into(),
                });
            }
        }
    }

    /// Set a string value that expires at logical time `expires_at`.
    pub fn set_with_ttl(&self, key: &str, value: impl Into<String>, expires_at: SimTime) {
        let _op = self.observe(true);
        if self.dropped_write(key) {
            return;
        }
        match &self.backend {
            Backend::Local(shards) => {
                let mut map = Self::local_shard(shards, key).map.lock();
                map.insert(
                    key.to_string(),
                    Entry {
                        value: Value::Str(value.into()),
                        expires_at: Some(expires_at),
                    },
                );
            }
            Backend::Remote(r) => {
                r.kv(KvRequest::SetWithTtl {
                    key: key.to_string(),
                    value: value.into(),
                    expires_at,
                });
            }
        }
    }

    /// Get a string value. Returns `None` for missing keys or keys holding a
    /// non-string value.
    pub fn get(&self, key: &str) -> Option<String> {
        let _op = self.observe(false);
        match &self.backend {
            Backend::Local(shards) => {
                let map = Self::local_shard(shards, key).map.lock();
                match map.get(key)?.value {
                    Value::Str(ref s) => Some(s.clone()),
                    _ => None,
                }
            }
            Backend::Remote(r) => match r.kv(KvRequest::Get {
                key: key.to_string(),
            }) {
                KvResponse::MaybeStr(v) => v,
                other => unreachable!("get returned {other:?}"),
            },
        }
    }

    /// Delete a key of any type. Returns whether it existed.
    pub fn del(&self, key: &str) -> bool {
        let _op = self.observe(true);
        match &self.backend {
            Backend::Local(shards) => Self::local_shard(shards, key)
                .map
                .lock()
                .remove(key)
                .is_some(),
            Backend::Remote(r) => match r.kv(KvRequest::Del {
                key: key.to_string(),
            }) {
                KvResponse::Bool(b) => b,
                other => unreachable!("del returned {other:?}"),
            },
        }
    }

    /// Whether a key exists (of any type).
    pub fn exists(&self, key: &str) -> bool {
        let _op = self.observe(false);
        match &self.backend {
            Backend::Local(shards) => Self::local_shard(shards, key).map.lock().contains_key(key),
            Backend::Remote(r) => match r.kv(KvRequest::Exists {
                key: key.to_string(),
            }) {
                KvResponse::Bool(b) => b,
                other => unreachable!("exists returned {other:?}"),
            },
        }
    }

    /// Atomically increment a counter key by `delta`, creating it at 0
    /// first if missing. Returns the new value. Panics if the key holds a
    /// non-numeric string or non-string value.
    pub fn incr_by(&self, key: &str, delta: i64) -> i64 {
        let _op = self.observe(true);
        match &self.backend {
            Backend::Local(shards) => {
                let mut map = Self::local_shard(shards, key).map.lock();
                let entry = map.entry(key.to_string()).or_insert(Entry {
                    value: Value::Str("0".to_string()),
                    expires_at: None,
                });
                match entry.value {
                    Value::Str(ref mut s) => {
                        let cur: i64 = s.parse().expect("incr_by on non-numeric value");
                        let next = cur + delta;
                        *s = next.to_string();
                        next
                    }
                    _ => panic!("incr_by on non-string key {key}"),
                }
            }
            Backend::Remote(r) => match r.kv(KvRequest::IncrBy {
                key: key.to_string(),
                delta,
            }) {
                KvResponse::Int(v) => v,
                other => unreachable!("incr_by returned {other:?}"),
            },
        }
    }

    /// Push a value to the tail of the list at `key`, creating the list if
    /// needed. Returns the new length.
    pub fn rpush(&self, key: &str, value: impl Into<String>) -> usize {
        let _op = self.observe(true);
        match &self.backend {
            Backend::Local(shards) => {
                let mut map = Self::local_shard(shards, key).map.lock();
                if self.dropped_write(key) {
                    // Acked-but-lost: report the length the client expects to see.
                    return match map.get(key).map(|e| &e.value) {
                        Some(Value::List(l)) => l.len() + 1,
                        _ => 1,
                    };
                }
                let entry = map.entry(key.to_string()).or_insert(Entry {
                    value: Value::List(VecDeque::new()),
                    expires_at: None,
                });
                match entry.value {
                    Value::List(ref mut l) => {
                        l.push_back(value.into());
                        l.len()
                    }
                    _ => panic!("rpush on non-list key {key}"),
                }
            }
            Backend::Remote(r) => {
                if self.dropped_write(key) {
                    // Acked-but-lost: report the expected post-push length.
                    return match r.kv(KvRequest::Llen {
                        key: key.to_string(),
                    }) {
                        KvResponse::Uint(n) => n as usize + 1,
                        other => unreachable!("llen returned {other:?}"),
                    };
                }
                match r.kv(KvRequest::Rpush {
                    key: key.to_string(),
                    value: value.into(),
                }) {
                    KvResponse::Uint(n) => n as usize,
                    other => unreachable!("rpush returned {other:?}"),
                }
            }
        }
    }

    /// Push a batch of values to the tail of the list at `key` under a
    /// single lock acquisition. Counts as one store operation. Each
    /// element is still subject to an independent fault-injection draw
    /// (matching a loop of [`KvStore::rpush`] calls), so replay streams
    /// line up whichever API the producer uses. Returns the length the
    /// client observes after the push.
    pub fn rpush_batch<I>(&self, key: &str, values: I) -> usize
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let _op = self.observe(true);
        match &self.backend {
            Backend::Local(shards) => {
                let mut map = Self::local_shard(shards, key).map.lock();
                let entry = map.entry(key.to_string()).or_insert(Entry {
                    value: Value::List(VecDeque::new()),
                    expires_at: None,
                });
                match entry.value {
                    Value::List(ref mut l) => {
                        let mut acked = l.len();
                        for v in values {
                            acked += 1;
                            if !self.dropped_write(key) {
                                l.push_back(v.into());
                            }
                        }
                        acked
                    }
                    _ => panic!("rpush_batch on non-list key {key}"),
                }
            }
            Backend::Remote(r) => {
                // Draw the per-element fault decisions at the facade (same
                // stream order as the local path), ship only the kept
                // elements, and ack the full count.
                let mut dropped = 0usize;
                let kept: Vec<String> = values
                    .into_iter()
                    .filter_map(|v| {
                        if self.dropped_write(key) {
                            dropped += 1;
                            None
                        } else {
                            Some(v.into())
                        }
                    })
                    .collect();
                match r.kv(KvRequest::RpushBatch {
                    key: key.to_string(),
                    values: kept,
                }) {
                    KvResponse::Uint(n) => n as usize + dropped,
                    other => unreachable!("rpush_batch returned {other:?}"),
                }
            }
        }
    }

    /// Pop from the head of the list at `key`.
    pub fn lpop(&self, key: &str) -> Option<String> {
        let _op = self.observe(true);
        match &self.backend {
            Backend::Local(shards) => {
                let mut map = Self::local_shard(shards, key).map.lock();
                match map.get_mut(key)?.value {
                    Value::List(ref mut l) => l.pop_front(),
                    _ => None,
                }
            }
            Backend::Remote(r) => match r.kv(KvRequest::Lpop {
                key: key.to_string(),
            }) {
                KvResponse::MaybeStr(v) => v,
                other => unreachable!("lpop returned {other:?}"),
            },
        }
    }

    /// Pop up to `n` values from the head of the list at `key`. Returns an
    /// empty vector when the list is missing or empty. Tero's batch-pulling
    /// workers use this: "each image-processing process pulls a fixed-size
    /// batch when ready" (App. B).
    pub fn lpop_batch(&self, key: &str, n: usize) -> Vec<String> {
        let _op = self.observe(true);
        match &self.backend {
            Backend::Local(shards) => {
                let mut map = Self::local_shard(shards, key).map.lock();
                match map.get_mut(key) {
                    Some(Entry {
                        value: Value::List(l),
                        ..
                    }) => {
                        let take = n.min(l.len());
                        l.drain(..take).collect()
                    }
                    _ => vec![],
                }
            }
            Backend::Remote(r) => match r.kv(KvRequest::LpopBatch {
                key: key.to_string(),
                n: n as u64,
            }) {
                KvResponse::Strs(v) => v,
                other => unreachable!("lpop_batch returned {other:?}"),
            },
        }
    }

    /// Read the list at `key` from index `start` to the tail, without
    /// consuming anything (Redis `LRANGE key start -1`). Returns an empty
    /// vector when the list is missing or `start` is past the end.
    ///
    /// This is the read the streaming consumers use: a cursor-holding
    /// stage (see `tero-core`'s online clean stage) remembers how many
    /// records it has already processed and fetches only the suffix,
    /// while the list itself stays intact for replay after a crash — the
    /// non-destructive complement of [`KvStore::lpop_batch`].
    pub fn lrange_from(&self, key: &str, start: usize) -> Vec<String> {
        let _op = self.observe(false);
        match &self.backend {
            Backend::Local(shards) => {
                let map = Self::local_shard(shards, key).map.lock();
                match map.get(key) {
                    Some(Entry {
                        value: Value::List(l),
                        ..
                    }) => l.iter().skip(start).cloned().collect(),
                    _ => vec![],
                }
            }
            Backend::Remote(r) => match r.kv(KvRequest::LrangeFrom {
                key: key.to_string(),
                start: start as u64,
            }) {
                KvResponse::Strs(v) => v,
                other => unreachable!("lrange_from returned {other:?}"),
            },
        }
    }

    /// Length of the list at `key` (0 when missing).
    pub fn llen(&self, key: &str) -> usize {
        let _op = self.observe(false);
        match &self.backend {
            Backend::Local(shards) => {
                let map = Self::local_shard(shards, key).map.lock();
                match map.get(key) {
                    Some(Entry {
                        value: Value::List(l),
                        ..
                    }) => l.len(),
                    _ => 0,
                }
            }
            Backend::Remote(r) => match r.kv(KvRequest::Llen {
                key: key.to_string(),
            }) {
                KvResponse::Uint(n) => n as usize,
                other => unreachable!("llen returned {other:?}"),
            },
        }
    }

    /// Set a field in the hash at `key`: [`KvStore::hset_many`] with one
    /// field.
    pub fn hset(&self, key: &str, field: &str, value: impl Into<String>) {
        self.hset_many(key, [(field.to_string(), value.into())]);
    }

    /// Set several fields of the hash at `key` as one store operation:
    /// one `store.kv.writes` tick, one lock acquisition, one request on a
    /// remote backend, however many fields. Fields apply in order (a
    /// repeated field keeps its last value) and each is still subject to
    /// an independent fault-injection draw, in field order, so replay
    /// streams line up with a loop of [`KvStore::hset`] calls. An empty
    /// list — or one whose every field was dropped — touches nothing.
    pub fn hset_many(&self, key: &str, fields: impl IntoIterator<Item = (String, String)>) {
        let _op = self.observe(true);
        let mut kept = fields.into_iter().filter(|_| !self.dropped_write(key));
        // The first kept field is taken by hand: a `peekable` (and
        // `HashMap::extend`'s reserve) cost the one-field call 10-30 ns of
        // its ~105 (`store.kv_hset_ns`).
        let Some((field, value)) = kept.next() else {
            return;
        };
        match &self.backend {
            Backend::Local(shards) => {
                let mut map = Self::local_shard(shards, key).map.lock();
                let entry = map.entry(key.to_string()).or_insert(Entry {
                    value: Value::Hash(HashMap::new()),
                    expires_at: None,
                });
                match entry.value {
                    Value::Hash(ref mut h) => {
                        h.insert(field, value);
                        for (field, value) in kept {
                            h.insert(field, value);
                        }
                    }
                    _ => panic!("hset on non-hash key {key}"),
                }
            }
            Backend::Remote(r) => {
                r.kv(KvRequest::Hset {
                    key: key.to_string(),
                    fields: std::iter::once((field, value)).chain(kept).collect(),
                });
            }
        }
    }

    /// Get a field from the hash at `key`.
    pub fn hget(&self, key: &str, field: &str) -> Option<String> {
        let _op = self.observe(false);
        match &self.backend {
            Backend::Local(shards) => {
                let map = Self::local_shard(shards, key).map.lock();
                match map.get(key)?.value {
                    Value::Hash(ref h) => h.get(field).cloned(),
                    _ => None,
                }
            }
            Backend::Remote(r) => match r.kv(KvRequest::Hget {
                key: key.to_string(),
                field: field.to_string(),
            }) {
                KvResponse::MaybeStr(v) => v,
                other => unreachable!("hget returned {other:?}"),
            },
        }
    }

    /// All fields of the hash at `key`.
    pub fn hgetall(&self, key: &str) -> HashMap<String, String> {
        let _op = self.observe(false);
        match &self.backend {
            Backend::Local(shards) => {
                let map = Self::local_shard(shards, key).map.lock();
                match map.get(key) {
                    Some(Entry {
                        value: Value::Hash(h),
                        ..
                    }) => h.clone(),
                    _ => HashMap::new(),
                }
            }
            Backend::Remote(r) => match r.kv(KvRequest::Hgetall {
                key: key.to_string(),
            }) {
                KvResponse::Pairs(pairs) => pairs.into_iter().collect(),
                other => unreachable!("hgetall returned {other:?}"),
            },
        }
    }

    /// All keys starting with `prefix`, across all shards. O(total keys).
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let _op = self.observe(false);
        match &self.backend {
            Backend::Local(shards) => {
                let mut out = Vec::new();
                for shard in shards.iter() {
                    let map = shard.map.lock();
                    out.extend(map.keys().filter(|k| k.starts_with(prefix)).cloned());
                }
                out.sort_unstable();
                out
            }
            Backend::Remote(r) => match r.kv(KvRequest::KeysWithPrefix {
                prefix: prefix.to_string(),
            }) {
                KvResponse::Strs(mut keys) => {
                    keys.sort_unstable();
                    keys
                }
                other => unreachable!("keys_with_prefix returned {other:?}"),
            },
        }
    }

    /// Drop every key whose TTL is at or before `now` (logical time).
    /// Returns the number of keys removed. The pipeline's coordinator calls
    /// this on its periodic tick.
    pub fn sweep_expired(&self, now: SimTime) -> usize {
        self.sweep_expired_scoped(now, "")
    }

    /// [`KvStore::sweep_expired`] restricted to keys starting with
    /// `prefix` (empty = everything). Multi-tenant servers need the
    /// scope: one tenant's periodic sweep runs at *its* logical clock,
    /// and letting it evict another tenant's TTL leases would expire
    /// them at times the other tenant never chose.
    pub fn sweep_expired_scoped(&self, now: SimTime, prefix: &str) -> usize {
        let _op = self.observe(true);
        match &self.backend {
            Backend::Local(shards) => {
                let mut removed = 0;
                for shard in shards.iter() {
                    let mut map = shard.map.lock();
                    map.retain(|k, e| match e.expires_at {
                        Some(t) if t <= now && k.starts_with(prefix) => {
                            removed += 1;
                            false
                        }
                        _ => true,
                    });
                }
                removed
            }
            Backend::Remote(r) => match r.kv(KvRequest::SweepExpired {
                now,
                prefix: prefix.to_string(),
            }) {
                KvResponse::Uint(n) => n as usize,
                other => unreachable!("sweep_expired returned {other:?}"),
            },
        }
    }

    /// Total number of keys.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Local(shards) => shards.iter().map(|s| s.map.lock().len()).sum(),
            Backend::Remote(r) => match r.kv(KvRequest::Len) {
                KvResponse::Uint(n) => n as usize,
                other => unreachable!("len returned {other:?}"),
            },
        }
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove every key (test helper).
    pub fn clear(&self) {
        match &self.backend {
            Backend::Local(shards) => {
                for shard in shards.iter() {
                    shard.map.lock().clear();
                }
            }
            Backend::Remote(r) => {
                r.kv(KvRequest::Clear);
            }
        }
    }

    /// Capture the full store contents as a deterministic, serializable
    /// snapshot: entries sorted by key, hash fields sorted by field name.
    /// Two stores holding the same data produce equal snapshots however
    /// the data arrived. Administrative — not counted in `store.kv.*`.
    pub fn snapshot(&self) -> KvSnapshot {
        match &self.backend {
            Backend::Local(shards) => {
                let mut entries = Vec::new();
                for shard in shards.iter() {
                    let map = shard.map.lock();
                    for (key, entry) in map.iter() {
                        let value = match &entry.value {
                            Value::Str(s) => SnapshotValue::Str(s.clone()),
                            Value::List(l) => SnapshotValue::List(l.iter().cloned().collect()),
                            Value::Hash(h) => {
                                let mut fields: Vec<(String, String)> =
                                    h.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                                fields.sort();
                                SnapshotValue::Hash(fields)
                            }
                        };
                        entries.push(SnapshotEntry {
                            key: key.clone(),
                            value,
                            expires_at: entry.expires_at,
                        });
                    }
                }
                entries.sort_by(|a, b| a.key.cmp(&b.key));
                KvSnapshot { entries }
            }
            Backend::Remote(r) => match r.kv(KvRequest::Snapshot) {
                KvResponse::Snapshot(s) => s,
                other => unreachable!("snapshot returned {other:?}"),
            },
        }
    }

    /// Replace the full store contents with a snapshot's. TTLs are
    /// restored verbatim (logical clock, so they stay meaningful across
    /// processes). Bypasses fault injection and, like `snapshot`, is not
    /// counted in `store.kv.*`.
    pub fn restore(&self, snapshot: &KvSnapshot) {
        match &self.backend {
            Backend::Local(shards) => {
                self.clear();
                for entry in &snapshot.entries {
                    let value = match &entry.value {
                        SnapshotValue::Str(s) => Value::Str(s.clone()),
                        SnapshotValue::List(l) => Value::List(l.iter().cloned().collect()),
                        SnapshotValue::Hash(fields) => {
                            Value::Hash(fields.iter().cloned().collect())
                        }
                    };
                    Self::local_shard(shards, &entry.key).map.lock().insert(
                        entry.key.clone(),
                        Entry {
                            value,
                            expires_at: entry.expires_at,
                        },
                    );
                }
            }
            Backend::Remote(r) => {
                r.kv(KvRequest::Restore {
                    snapshot: snapshot.clone(),
                });
            }
        }
    }
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

    /// The string stored under `key`, read without restoring the snapshot.
    pub fn get(&self, key: &str) -> Option<&str> {
        match &self.entry(key)?.value {
            SnapshotValue::Str(value) => Some(value),
            _ => None,
        }
    }

    /// The `(field, value)` pairs of the hash stored under `key`, sorted
    /// by field, read without restoring the snapshot.
    pub fn hash_fields(&self, key: &str) -> Option<&[(String, String)]> {
        match &self.entry(key)?.value {
            SnapshotValue::Hash(fields) => Some(fields),
            _ => None,
        }
    }

    fn entry(&self, key: &str) -> Option<&SnapshotEntry> {
        self.entries.iter().find(|entry| entry.key == key)
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

    /// A copy holding only the entries whose key starts with `prefix`,
    /// with the prefix stripped. Used by namespaced shard clients to
    /// carve their own view out of a shared server snapshot.
    pub fn strip_prefix(&self, prefix: &str) -> KvSnapshot {
        KvSnapshot {
            entries: self
                .entries
                .iter()
                .filter_map(|e| {
                    e.key.strip_prefix(prefix).map(|k| SnapshotEntry {
                        key: k.to_string(),
                        value: e.value.clone(),
                        expires_at: e.expires_at,
                    })
                })
                .collect(),
        }
    }

    /// Decompose into the per-key write requests that recreate this
    /// snapshot's entries on an empty (or pre-cleared) store. Unlike
    /// [`KvRequest::Restore`], which replaces
    /// a whole server's state, these requests are routable key-by-key —
    /// a namespaced sharded client uses them to restore only its own
    /// slice. List and hash entries are preceded by a `Del` so the
    /// sequence is a replacement even when keys already exist. TTLs are
    /// preserved for string entries (the only kind `set_with_ttl`
    /// produces).
    pub fn restore_requests(&self) -> Vec<crate::KvRequest> {
        use crate::KvRequest;
        let mut reqs = Vec::new();
        for entry in &self.entries {
            match &entry.value {
                SnapshotValue::Str(v) => reqs.push(match entry.expires_at {
                    Some(expires_at) => KvRequest::SetWithTtl {
                        key: entry.key.clone(),
                        value: v.clone(),
                        expires_at,
                    },
                    None => KvRequest::Set {
                        key: entry.key.clone(),
                        value: v.clone(),
                    },
                }),
                SnapshotValue::List(values) => {
                    reqs.push(KvRequest::Del {
                        key: entry.key.clone(),
                    });
                    reqs.push(KvRequest::RpushBatch {
                        key: entry.key.clone(),
                        values: values.clone(),
                    });
                }
                SnapshotValue::Hash(fields) => {
                    reqs.push(KvRequest::Del {
                        key: entry.key.clone(),
                    });
                    reqs.push(KvRequest::Hset {
                        key: entry.key.clone(),
                        fields: fields.clone(),
                    });
                }
            }
        }
        reqs
    }

    /// A copy with `prefix` prepended to every key — the inverse of
    /// [`KvSnapshot::strip_prefix`], used when a namespaced client pushes
    /// a snapshot back into the shared servers.
    pub fn with_prefix(&self, prefix: &str) -> KvSnapshot {
        KvSnapshot {
            entries: self
                .entries
                .iter()
                .map(|e| SnapshotEntry {
                    key: format!("{prefix}{}", e.key),
                    value: e.value.clone(),
                    expires_at: e.expires_at,
                })
                .collect(),
        }
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
enum SnapshotValue {
    /// A string (or counter) value.
    Str(String),
    /// A list, head first.
    List(Vec<String>),
    /// A hash, as sorted `(field, value)` pairs.
    Hash(Vec<(String, String)>),
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore").field("len", &self.len()).finish()
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
        assert_eq!(kv.lpop_batch("q", 10), vec!["b", "c"]);
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
        assert_eq!(kv.lpop_batch("q", 10), vec!["a", "b", "c", "d"]);
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
        assert_eq!(snap.get("s"), Some("v"));
        let pairs = [("a", "1"), ("b", "2")].map(|(f, v)| (f.to_string(), v.to_string()));
        assert_eq!(snap.hash_fields("h"), Some(&pairs[..]));
        // Each reads its own type only, like the store's own accessors.
        assert_eq!(snap.get("h"), None);
        assert_eq!(snap.hash_fields("s"), None);

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
    fn snapshot_merge_and_strip() {
        let a = KvStore::new();
        a.set("e0:x", "1");
        a.rpush("e0:engine:ledger", "r1");
        let b = KvStore::new();
        b.set("e1:y", "2");
        b.rpush("e1:engine:ledger", "r2");

        let sa = a.snapshot().strip_prefix("e0:");
        let sb = b.snapshot().strip_prefix("e1:");
        let merged = KvSnapshot::merged(&[sa, sb]);
        let kv = KvStore::new();
        kv.restore(&merged);
        assert_eq!(kv.get("x").as_deref(), Some("1"));
        assert_eq!(kv.get("y").as_deref(), Some("2"));
        // Ledger lists concatenate in argument order.
        assert_eq!(kv.lpop_batch("engine:ledger", 10), vec!["r1", "r2"]);
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

    #[test]
    fn remote_backend_round_trips_through_requests() {
        use crate::remote::{KvRequest, KvResponse, ObjRequest, ObjResponse, RemoteStore};

        /// A loopback remote: executes every request on one local store.
        struct Loopback(KvStore);
        impl RemoteStore for Loopback {
            fn kv(&self, req: KvRequest) -> KvResponse {
                crate::apply_kv(&self.0, req)
            }
            fn obj(&self, _req: ObjRequest) -> ObjResponse {
                unimplemented!("kv-only loopback")
            }
        }

        let kv = KvStore::remote(Arc::new(Loopback(KvStore::new())));
        kv.set("a", "1");
        assert_eq!(kv.get("a").as_deref(), Some("1"));
        assert_eq!(kv.incr_by("c", 7), 7);
        assert_eq!(kv.rpush("q", "x"), 1);
        assert_eq!(kv.rpush_batch("q", ["y", "z"].map(String::from)), 3);
        assert_eq!(kv.llen("q"), 3);
        assert_eq!(kv.lpop("q").as_deref(), Some("x"));
        assert_eq!(kv.lpop_batch("q", 2), vec!["y", "z"]);
        kv.hset("h", "f", "v");
        assert_eq!(kv.hget("h", "f").as_deref(), Some("v"));
        kv.hset_many(
            "h",
            [("g", "1"), ("f", "w")].map(|(f, v)| (f.to_string(), v.to_string())),
        );
        assert_eq!(kv.hget("h", "f").as_deref(), Some("w"));
        assert_eq!(kv.hgetall("h").len(), 2);
        kv.set_with_ttl("lease", "l", SimTime::from_secs(5));
        assert_eq!(kv.sweep_expired(SimTime::from_secs(5)), 1);
        assert_eq!(kv.keys_with_prefix("a"), vec!["a"]);
        assert!(kv.exists("a") && kv.del("a") && !kv.exists("a"));
        let snap = kv.snapshot();
        let local = KvStore::new();
        local.restore(&snap);
        assert_eq!(local.snapshot(), snap);
    }
}
