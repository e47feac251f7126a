//! The remote-store boundary: typed request/response pairs for every
//! KV and object operation, and the [`RemoteStore`] trait a networked
//! client implements.
//!
//! [`KvStore`](crate::KvStore) and [`ObjectStore`](crate::ObjectStore)
//! are facades: their public API is identical whether the backend is
//! the in-process shard array or a [`RemoteStore`] speaking a wire
//! protocol (see the `tero-net` crate). The facade keeps metrics and
//! chaos write-drops on its side of the boundary, so a networked
//! deployment observes exactly the same `store.*` accounting and fault
//! semantics as a single-process run — only the transport differs.
//!
//! Requests and responses are plain data so they can be framed onto a
//! wire verbatim; `tero-net::frame` gives them a length-prefixed
//! binary encoding. They carry keys and buckets exactly as the facade
//! was handed them: a store server keeps one store per client and
//! applies each request to the sender's, so tenancy never shows in a
//! key.

use crate::{KvSnapshot, ObjectSnapshot};
use serde::{Deserialize, Serialize};
use tero_types::SimTime;

/// One KV operation, as data. Mirrors the [`KvStore`](crate::KvStore)
/// method surface one-to-one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KvRequest {
    /// `set(key, value)`.
    Set {
        /// Target key.
        key: String,
        /// String value to store.
        value: String,
    },
    /// `set_with_ttl(key, value, expires_at)`.
    SetWithTtl {
        /// Target key.
        key: String,
        /// String value to store.
        value: String,
        /// Logical expiry instant.
        expires_at: SimTime,
    },
    /// `get(key)`.
    Get {
        /// Target key.
        key: String,
    },
    /// `del(key)`.
    Del {
        /// Target key.
        key: String,
    },
    /// `exists(key)`.
    Exists {
        /// Target key.
        key: String,
    },
    /// `incr_by(key, delta)` — applied atomically by the owning server.
    IncrBy {
        /// Target key.
        key: String,
        /// Signed increment.
        delta: i64,
    },
    /// `rpush(key, value)`.
    Rpush {
        /// Target list key.
        key: String,
        /// Element to append.
        value: String,
    },
    /// `rpush_batch(key, values)`.
    RpushBatch {
        /// Target list key.
        key: String,
        /// Elements to append, in order.
        values: Vec<String>,
    },
    /// `lpop(key)`.
    Lpop {
        /// Target list key.
        key: String,
    },
    /// `llen(key)`.
    Llen {
        /// Target list key.
        key: String,
    },
    /// `lrange_from(key, start)` — non-destructive suffix read.
    LrangeFrom {
        /// Target list key.
        key: String,
        /// Index of the first element to return.
        start: u64,
    },
    /// `hset_many(key, fields)` — `hset(key, field, value)` is the
    /// one-element list. Fields apply in order, so a repeated field keeps
    /// its last value; an empty list creates nothing.
    Hset {
        /// Target hash key.
        key: String,
        /// `(field, value)` pairs to set, in order.
        fields: Vec<(String, String)>,
    },
    /// `hget(key, field)`.
    Hget {
        /// Target hash key.
        key: String,
        /// Field name.
        field: String,
    },
    /// `hgetall(key)` — the response carries sorted `(field, value)`
    /// pairs so it is deterministic on the wire.
    Hgetall {
        /// Target hash key.
        key: String,
    },
    /// `keys_with_prefix(prefix)` — fans out to every shard.
    KeysWithPrefix {
        /// Key prefix to scan for.
        prefix: String,
    },
    /// `sweep_expired(now)` — fans out to every shard. A server sweeps
    /// the sender's store only, so one client's sweep never evicts
    /// another client's TTL leases.
    SweepExpired {
        /// Logical sweep instant.
        now: SimTime,
    },
    /// `len()` — fans out to every shard.
    Len,
    /// `snapshot()` — fans out and merges. A server answers with the
    /// sender's store only.
    Snapshot,
    /// `restore(snapshot)` — administrative replacement of the sender's
    /// store on one server; a client sends each shard the part of the
    /// snapshot that routes to it. Resync uses it too, so copying one
    /// client's state onto a peer leaves every other client's alone.
    Restore {
        /// State to install.
        snapshot: KvSnapshot,
    },
}

impl KvRequest {
    /// The key this request routes by, or `None` for fan-out
    /// (all-shard) operations.
    pub fn routing_key(&self) -> Option<&str> {
        match self {
            KvRequest::Set { key, .. }
            | KvRequest::SetWithTtl { key, .. }
            | KvRequest::Get { key }
            | KvRequest::Del { key }
            | KvRequest::Exists { key }
            | KvRequest::IncrBy { key, .. }
            | KvRequest::Rpush { key, .. }
            | KvRequest::RpushBatch { key, .. }
            | KvRequest::Lpop { key }
            | KvRequest::Llen { key }
            | KvRequest::LrangeFrom { key, .. }
            | KvRequest::Hset { key, .. }
            | KvRequest::Hget { key, .. }
            | KvRequest::Hgetall { key } => Some(key),
            _ => None,
        }
    }

    /// Whether this request mutates server state (and therefore must be
    /// replicated and deduplicated on retry).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            KvRequest::Set { .. }
                | KvRequest::SetWithTtl { .. }
                | KvRequest::Del { .. }
                | KvRequest::IncrBy { .. }
                | KvRequest::Rpush { .. }
                | KvRequest::RpushBatch { .. }
                | KvRequest::Lpop { .. }
                | KvRequest::Hset { .. }
                | KvRequest::SweepExpired { .. }
                | KvRequest::Restore { .. }
        )
    }
}

/// The result of one [`KvRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KvResponse {
    /// No payload (`set`, `hset`, `restore`).
    Unit,
    /// A boolean (`del`, `exists`).
    Bool(bool),
    /// A signed integer (`incr_by`).
    Int(i64),
    /// An unsigned count (`rpush`, `llen`, `sweep_expired`, `len`).
    Uint(u64),
    /// An optional string (`get`, `lpop`, `hget`).
    MaybeStr(Option<String>),
    /// A string list (`lrange_from`, `keys_with_prefix`).
    Strs(Vec<String>),
    /// Sorted `(field, value)` pairs (`hgetall`).
    Pairs(Vec<(String, String)>),
    /// A full-state snapshot (`snapshot`).
    Snapshot(KvSnapshot),
}

/// One object-store operation, as data. Mirrors the
/// [`ObjectStore`](crate::ObjectStore) method surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObjRequest {
    /// `put(bucket, key, data)`.
    Put {
        /// Target bucket.
        bucket: String,
        /// Object key.
        key: String,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// `get(bucket, key)`.
    Get {
        /// Target bucket.
        bucket: String,
        /// Object key.
        key: String,
    },
    /// `delete(bucket, key)`.
    Delete {
        /// Target bucket.
        bucket: String,
        /// Object key.
        key: String,
    },
    /// `snapshot()` — fans out and merges; a server answers with the
    /// sender's objects only.
    Snapshot,
    /// `restore(snapshot)` — administrative replacement of the sender's
    /// objects on one server, also used for resync.
    Restore {
        /// State to install.
        snapshot: ObjectSnapshot,
    },
}

impl ObjRequest {
    /// The bucket this request routes by, or `None` for fan-out
    /// operations.
    pub fn routing_bucket(&self) -> Option<&str> {
        match self {
            ObjRequest::Put { bucket, .. }
            | ObjRequest::Get { bucket, .. }
            | ObjRequest::Delete { bucket, .. } => Some(bucket),
            _ => None,
        }
    }

    /// Whether this request mutates server state.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            ObjRequest::Put { .. } | ObjRequest::Delete { .. } | ObjRequest::Restore { .. }
        )
    }
}

/// The result of one [`ObjRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObjResponse {
    /// No payload (`put`, `restore`).
    Unit,
    /// A boolean (`delete`).
    Bool(bool),
    /// Optional payload bytes (`get`).
    MaybeBytes(Option<Vec<u8>>),
    /// A full-state snapshot (`snapshot`).
    Snapshot(ObjectSnapshot),
}

/// A store backend reached over a transport rather than a shard array.
///
/// Implementations (see `tero-net::ShardedStoreClient`) own routing,
/// retries, deadlines, circuit breaking and failover: by the time a
/// call returns, the operation has durably happened on whichever
/// replica currently holds the shard lease. The facade treats the
/// remote exactly like local memory — which is the point: the engine
/// above never learns the difference.
pub trait RemoteStore: Send + Sync {
    /// Execute one KV operation to completion.
    fn kv(&self, req: KvRequest) -> KvResponse;
    /// Execute one object operation to completion.
    fn obj(&self, req: ObjRequest) -> ObjResponse;
}

/// Execute one [`KvRequest`] against a concrete store — the server side
/// of the wire protocol. Used by `tero-net::StoreServer` (and any
/// loopback test double).
pub fn apply_kv(store: &crate::KvStore, req: KvRequest) -> KvResponse {
    match req {
        KvRequest::Set { key, value } => {
            store.set(&key, value);
            KvResponse::Unit
        }
        KvRequest::SetWithTtl {
            key,
            value,
            expires_at,
        } => {
            store.set_with_ttl(&key, value, expires_at);
            KvResponse::Unit
        }
        KvRequest::Get { key } => KvResponse::MaybeStr(store.get(&key)),
        KvRequest::Del { key } => KvResponse::Bool(store.del(&key)),
        KvRequest::Exists { key } => KvResponse::Bool(store.exists(&key)),
        KvRequest::IncrBy { key, delta } => KvResponse::Int(store.incr_by(&key, delta)),
        KvRequest::Rpush { key, value } => KvResponse::Uint(store.rpush(&key, value) as u64),
        KvRequest::RpushBatch { key, values } => {
            KvResponse::Uint(store.rpush_batch(&key, values) as u64)
        }
        KvRequest::Lpop { key } => KvResponse::MaybeStr(store.lpop(&key)),
        KvRequest::Llen { key } => KvResponse::Uint(store.llen(&key) as u64),
        KvRequest::LrangeFrom { key, start } => {
            KvResponse::Strs(store.lrange_from(&key, start as usize))
        }
        KvRequest::Hset { key, fields } => {
            store.hset_many(&key, fields);
            KvResponse::Unit
        }
        KvRequest::Hget { key, field } => KvResponse::MaybeStr(store.hget(&key, &field)),
        KvRequest::Hgetall { key } => {
            let mut pairs: Vec<(String, String)> = store.hgetall(&key).into_iter().collect();
            pairs.sort();
            KvResponse::Pairs(pairs)
        }
        KvRequest::KeysWithPrefix { prefix } => KvResponse::Strs(store.keys_with_prefix(&prefix)),
        KvRequest::SweepExpired { now } => KvResponse::Uint(store.sweep_expired(now) as u64),
        KvRequest::Len => KvResponse::Uint(store.len() as u64),
        KvRequest::Snapshot => KvResponse::Snapshot(store.snapshot()),
        KvRequest::Restore { snapshot } => {
            store.restore(&snapshot);
            KvResponse::Unit
        }
    }
}

/// Execute one [`ObjRequest`] against a concrete store — the server
/// side of the wire protocol.
pub fn apply_obj(store: &crate::ObjectStore, req: ObjRequest) -> ObjResponse {
    match req {
        ObjRequest::Put { bucket, key, data } => {
            store.put(&bucket, &key, data);
            ObjResponse::Unit
        }
        ObjRequest::Get { bucket, key } => {
            ObjResponse::MaybeBytes(store.get(&bucket, &key).map(|b| b.to_vec()))
        }
        ObjRequest::Delete { bucket, key } => ObjResponse::Bool(store.delete(&bucket, &key)),
        ObjRequest::Snapshot => ObjResponse::Snapshot(store.snapshot()),
        ObjRequest::Restore { snapshot } => {
            store.restore(&snapshot);
            ObjResponse::Unit
        }
    }
}
