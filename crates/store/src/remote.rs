//! The store's one request path: typed request/response pairs for every
//! KV and object operation, and the [`RemoteStore`] trait a networked
//! client implements.
//!
//! Every public [`KvStore`](crate::KvStore) / [`ObjectStore`](crate::ObjectStore)
//! method counts itself in `store.*`, takes its chaos write-drop draws,
//! then builds one request and hands it to the store's `apply`, which
//! looks at the backend (so does `KvStore::get_with`, a `get` that
//! lends the value: a `Get` request on a remote store). On an
//! in-process store `apply` runs the request on the shard array (or
//! bucket map); on a remote one it passes the request to the
//! [`RemoteStore`]. A store server runs each request it decodes
//! through the `apply` of a plain local store, so server behaviour is
//! local behaviour by construction, and a networked deployment observes
//! exactly the same `store.*` accounting and fault semantics as a
//! single-process run — only the transport differs.
//!
//! Requests borrow their keys, buckets, fields and string values
//! (`Cow<'a, str>`), so a local read allocates no more than the map
//! lookup needs; a decoded request owns its strings. `tero-net::frame`
//! gives requests and responses a length-prefixed binary encoding. They
//! carry keys and buckets exactly as the facade was handed them: a store
//! server keeps one store per client and applies each request to the
//! sender's, so tenancy never shows in a key.

use crate::{KvSnapshot, ObjectSnapshot};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use tero_types::SimTime;

/// One KV operation, as data. Mirrors the [`KvStore`](crate::KvStore)
/// method surface one-to-one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KvRequest<'a> {
    /// `set(key, value)`.
    Set {
        /// Target key.
        key: Cow<'a, str>,
        /// String value to store.
        value: Cow<'a, str>,
    },
    /// `set_with_ttl(key, value, expires_at)`.
    SetWithTtl {
        /// Target key.
        key: Cow<'a, str>,
        /// String value to store.
        value: Cow<'a, str>,
        /// Logical expiry instant.
        expires_at: SimTime,
    },
    /// `get(key)`.
    Get {
        /// Target key.
        key: Cow<'a, str>,
    },
    /// `del(key)`.
    Del {
        /// Target key.
        key: Cow<'a, str>,
    },
    /// `exists(key)`.
    Exists {
        /// Target key.
        key: Cow<'a, str>,
    },
    /// `incr_by(key, delta)` — applied atomically by the owning server.
    IncrBy {
        /// Target key.
        key: Cow<'a, str>,
        /// Signed increment.
        delta: i64,
    },
    /// `rpush(key, value)`.
    Rpush {
        /// Target list key.
        key: Cow<'a, str>,
        /// Element to append.
        value: Cow<'a, str>,
    },
    /// `rpush_batch(key, values)`.
    RpushBatch {
        /// Target list key.
        key: Cow<'a, str>,
        /// Elements to append, in order.
        values: Vec<String>,
    },
    /// `lpop(key)`.
    Lpop {
        /// Target list key.
        key: Cow<'a, str>,
    },
    /// `llen(key)`.
    Llen {
        /// Target list key.
        key: Cow<'a, str>,
    },
    /// `lrange_from(key, start)` — non-destructive suffix read.
    LrangeFrom {
        /// Target list key.
        key: Cow<'a, str>,
        /// Index of the first element to return.
        start: u64,
    },
    /// `hset_many(key, fields)` — `hset(key, field, value)` is the
    /// one-element list. Fields apply in order, so a repeated field keeps
    /// its last value; an empty list creates nothing.
    Hset {
        /// Target hash key.
        key: Cow<'a, str>,
        /// `(field, value)` pairs to set, in order.
        fields: Vec<(String, String)>,
    },
    /// `hget(key, field)`.
    Hget {
        /// Target hash key.
        key: Cow<'a, str>,
        /// Field name.
        field: Cow<'a, str>,
    },
    /// `hgetall(key)` — the response carries sorted `(field, value)`
    /// pairs so it is deterministic on the wire.
    Hgetall {
        /// Target hash key.
        key: Cow<'a, str>,
    },
    /// `keys_with_prefix(prefix)` — fans out to every shard.
    KeysWithPrefix {
        /// Key prefix to scan for.
        prefix: Cow<'a, str>,
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

impl KvRequest<'_> {
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
            | KvRequest::Hgetall { key } => Some(&**key),
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
    /// A write met a key holding another type (`rpush` on a string, …),
    /// or an increment met a non-numeric value: nothing changed. The
    /// facade panics on it, as on any store that is used wrongly.
    WrongType,
}

/// One object-store operation, as data. Mirrors the
/// [`ObjectStore`](crate::ObjectStore) method surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObjRequest<'a> {
    /// `put(bucket, key, data)`.
    Put {
        /// Target bucket.
        bucket: Cow<'a, str>,
        /// Object key.
        key: Cow<'a, str>,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// `get(bucket, key)`.
    Get {
        /// Target bucket.
        bucket: Cow<'a, str>,
        /// Object key.
        key: Cow<'a, str>,
    },
    /// `delete(bucket, key)`.
    Delete {
        /// Target bucket.
        bucket: Cow<'a, str>,
        /// Object key.
        key: Cow<'a, str>,
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

impl ObjRequest<'_> {
    /// The bucket this request routes by, or `None` for fan-out
    /// operations.
    pub fn routing_bucket(&self) -> Option<&str> {
        match self {
            ObjRequest::Put { bucket, .. }
            | ObjRequest::Get { bucket, .. }
            | ObjRequest::Delete { bucket, .. } => Some(&**bucket),
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
    MaybeBytes(Option<Bytes>),
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
    fn kv(&self, req: KvRequest<'_>) -> KvResponse;
    /// Execute one object operation to completion.
    fn obj(&self, req: ObjRequest<'_>) -> ObjResponse;
}
