//! An S3/Ceph-like object store: buckets of named immutable blobs.
//!
//! Tero's download module stores every thumbnail it fetches here
//! (App. B) and image-processing reads it back; nothing in the pipeline
//! deletes one yet — §7's data-minimisation rule (drop an image once it
//! is processed) is what `delete` is for.
//!
//! Like [`KvStore`](crate::KvStore), each public method counts itself
//! and takes its chaos write-drop draw, then builds one [`ObjRequest`]
//! and runs it through [`ObjectStore::apply`], the only place that looks
//! at the backend: the in-process bucket map, whose executor lives here,
//! or a [`RemoteStore`] client, whose servers run each request through
//! a plain local store's `apply`. So both deployments account
//! identically. A remote store is its client's own: buckets cross the
//! wire as named, and a snapshot holds only that client's objects.

use crate::remote::{ObjRequest, ObjResponse, RemoteStore};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tero_chaos::ChaosInjector;
use tero_obs::{CounterHandle, HistogramHandle, Registry, StageTimer};

/// Bucket name → object key → payload.
type Buckets = HashMap<String, HashMap<String, Bytes>>;

/// Metric handles installed by [`ObjectStore::instrument`].
struct ObjectMetrics {
    reads: CounterHandle,
    writes: CounterHandle,
    put_bytes: CounterHandle,
    op_us: HistogramHandle,
    registry: Registry,
}

/// Where the objects actually live.
#[derive(Clone)]
enum Backend {
    Local(Arc<RwLock<Buckets>>),
    Remote(Arc<dyn RemoteStore>),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Local(Arc::default())
    }
}

/// A thread-safe in-memory object store. Cloning is cheap (shared handle).
#[derive(Clone, Default)]
pub struct ObjectStore {
    backend: Backend,
    metrics: Arc<OnceLock<ObjectMetrics>>,
    chaos: Arc<OnceLock<ChaosInjector>>,
}

impl ObjectStore {
    /// Create an empty in-process store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Create a store whose operations execute on a [`RemoteStore`]
    /// client instead of in-process memory.
    pub fn remote(backend: Arc<dyn RemoteStore>) -> Self {
        ObjectStore {
            backend: Backend::Remote(backend),
            ..ObjectStore::default()
        }
    }

    /// Register this store's operation metrics (`store.object.*`) with a
    /// registry. The first call wins; every clone shares the handles.
    pub fn instrument(&self, registry: &Registry) {
        let _ = self.metrics.set(ObjectMetrics {
            reads: registry.counter("store.object.reads"),
            writes: registry.counter("store.object.writes"),
            put_bytes: registry.counter("store.object.put_bytes"),
            op_us: registry.histogram("store.object.op_us"),
            registry: registry.clone(),
        });
    }

    /// Count one operation and (when timing is enabled) time it.
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

    /// Install a fault injector: `put` calls may then be acked but silently
    /// lost, per the injector's `object_write_drop_rate`. Deletes are never
    /// dropped. First call wins; every clone shares the injector.
    pub fn inject_faults(&self, injector: ChaosInjector) {
        let _ = self.chaos.set(injector);
    }

    /// Execute one request — the only place that looks at the backend.
    /// An in-process store runs it on its bucket map; a remote one hands
    /// it to its [`RemoteStore`]. A store server runs every request it
    /// decodes through here, on a plain local store. Neither counted nor
    /// fault-injected: both are the public methods' business.
    #[inline(always)]
    pub fn apply(&self, req: ObjRequest<'_>) -> ObjResponse {
        match &self.backend {
            Backend::Local(buckets) => execute(buckets, req),
            Backend::Remote(r) => r.obj(req),
        }
    }

    /// Store an object, replacing any previous object with the same key.
    /// The in-process store keeps the vector it is handed: a slice is
    /// copied once, a `Vec` not at all.
    pub fn put(&self, bucket: &str, key: &str, data: impl Into<Vec<u8>>) {
        let _op = self.observe(true);
        if self.chaos.get().is_some_and(|c| c.drop_object_write()) {
            return;
        }
        let data = data.into();
        if let Some(m) = self.metrics.get() {
            m.put_bytes.add(data.len() as u64);
        }
        self.apply(ObjRequest::Put {
            bucket: bucket.into(),
            key: key.into(),
            data,
        });
    }

    /// Fetch an object (cheap on the local backend: `Bytes` is
    /// reference-counted).
    pub fn get(&self, bucket: &str, key: &str) -> Option<Bytes> {
        let _op = self.observe(false);
        let req = ObjRequest::Get {
            bucket: bucket.into(),
            key: key.into(),
        };
        match self.apply(req) {
            ObjResponse::MaybeBytes(v) => v,
            other => unreachable!("get answered {other:?}"),
        }
    }

    /// Delete an object. Returns whether it existed.
    pub fn delete(&self, bucket: &str, key: &str) -> bool {
        let _op = self.observe(true);
        let req = ObjRequest::Delete {
            bucket: bucket.into(),
            key: key.into(),
        };
        match self.apply(req) {
            ObjResponse::Bool(b) => b,
            other => unreachable!("delete answered {other:?}"),
        }
    }

    /// Capture every object as a deterministic, serializable snapshot
    /// (sorted by bucket then key). Administrative — not counted in
    /// `store.object.*`.
    pub fn snapshot(&self) -> ObjectSnapshot {
        match self.apply(ObjRequest::Snapshot) {
            ObjResponse::Snapshot(s) => s,
            other => unreachable!("snapshot answered {other:?}"),
        }
    }

    /// Replace the full store contents with a snapshot's. Bypasses fault
    /// injection and is not counted in `store.object.*`.
    pub fn restore(&self, snapshot: &ObjectSnapshot) {
        let snapshot = snapshot.clone();
        self.apply(ObjRequest::Restore { snapshot });
    }
}

/// The local executor: run one request on the bucket map.
#[inline(always)]
fn execute(buckets: &RwLock<Buckets>, req: ObjRequest<'_>) -> ObjResponse {
    match req {
        ObjRequest::Put { bucket, key, data } => {
            let mut buckets = buckets.write();
            let objects = buckets.entry(bucket.into_owned()).or_default();
            objects.insert(key.into_owned(), Bytes::from(data));
            ObjResponse::Unit
        }
        ObjRequest::Get { bucket, key } => {
            let buckets = buckets.read();
            ObjResponse::MaybeBytes(buckets.get(&*bucket).and_then(|b| b.get(&*key)).cloned())
        }
        ObjRequest::Delete { bucket, key } => {
            let mut buckets = buckets.write();
            let removed = buckets.get_mut(&*bucket).and_then(|b| b.remove(&*key));
            ObjResponse::Bool(removed.is_some())
        }
        ObjRequest::Snapshot => {
            let mut objects = Vec::new();
            for (bucket, contents) in buckets.read().iter() {
                for (key, data) in contents {
                    objects.push((bucket.clone(), key.clone(), data.to_vec()));
                }
            }
            objects.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            ObjResponse::Snapshot(ObjectSnapshot { objects })
        }
        ObjRequest::Restore { snapshot } => {
            let mut buckets = buckets.write();
            buckets.clear();
            for (bucket, key, data) in snapshot.objects {
                let objects = buckets.entry(bucket).or_default();
                objects.insert(key, Bytes::from(data));
            }
            ObjResponse::Unit
        }
    }
}

/// A point-in-time copy of an [`ObjectStore`], in deterministic order.
/// Produced by [`ObjectStore::snapshot`], consumed by
/// [`ObjectStore::restore`]; serializable so checkpoints can leave the
/// process.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ObjectSnapshot {
    objects: Vec<(String, String, Vec<u8>)>,
}

impl ObjectSnapshot {
    /// Number of objects captured.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the snapshot holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Merge several snapshots into one, sorted by `(bucket, key)`.
    /// Later snapshots win on collisions.
    pub fn merged(parts: &[ObjectSnapshot]) -> ObjectSnapshot {
        let mut by_key: std::collections::BTreeMap<(String, String), Vec<u8>> =
            std::collections::BTreeMap::new();
        for part in parts {
            for (bucket, key, data) in &part.objects {
                by_key.insert((bucket.clone(), key.clone()), data.clone());
            }
        }
        ObjectSnapshot {
            objects: by_key
                .into_iter()
                .map(|((bucket, key), data)| (bucket, key, data))
                .collect(),
        }
    }

    /// Split into `parts` snapshots, object by object, by
    /// `part_of(bucket)` (an index below `parts`); each part stays sorted.
    /// A client that routes buckets across several servers restores each
    /// server from its part.
    pub fn partition(self, parts: usize, part_of: impl Fn(&str) -> usize) -> Vec<ObjectSnapshot> {
        let mut out = vec![ObjectSnapshot::default(); parts];
        for object in self.objects {
            out[part_of(&object.0)].objects.push(object);
        }
        out
    }
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.backend {
            Backend::Local(buckets) => f
                .debug_struct("ObjectStore")
                .field("buckets", &buckets.read().len())
                .finish(),
            Backend::Remote(_) => f
                .debug_struct("ObjectStore")
                .field("backend", &"remote")
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let s = ObjectStore::new();
        s.put("thumbs", "a.png", &b"abc"[..]);
        assert_eq!(
            s.get("thumbs", "a.png").unwrap(),
            Bytes::from_static(b"abc")
        );
        assert!(s.delete("thumbs", "a.png"));
        assert!(!s.delete("thumbs", "a.png"));
        assert!(s.get("thumbs", "a.png").is_none());
        assert!(s.get("nope", "a").is_none());
    }

    #[test]
    fn put_replaces() {
        let s = ObjectStore::new();
        s.put("b", "k", vec![0u8; 100]);
        s.put("b", "k", vec![1u8; 40]);
        assert_eq!(s.get("b", "k").unwrap(), Bytes::from(vec![1u8; 40]));
        assert_eq!(s.snapshot().len(), 1);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let s = ObjectStore::new();
        s.put("thumbs", "b", &b"two"[..]);
        s.put("thumbs", "a", &b"one"[..]);
        s.put("aux", "x", &b"y"[..]);
        let snap = s.snapshot();
        assert_eq!(snap.len(), 3);

        let other = ObjectStore::new();
        other.put("stale", "k", &b"gone"[..]);
        other.restore(&snap);
        assert_eq!(
            other.get("thumbs", "a").unwrap(),
            Bytes::from_static(b"one")
        );
        assert!(
            other.get("stale", "k").is_none(),
            "restore replaces prior contents"
        );
        assert_eq!(other.snapshot(), snap, "roundtrip is lossless");

        let json = serde_json::to_string(&snap).unwrap();
        let back: ObjectSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_merge_and_partition() {
        let a = ObjectStore::new();
        a.put("thumbs", "x", &b"1"[..]);
        let b = ObjectStore::new();
        b.put("thumbs", "y", &b"2"[..]);
        b.put("aux", "z", &b"3"[..]);
        let merged = ObjectSnapshot::merged(&[a.snapshot(), b.snapshot()]);
        let s = ObjectStore::new();
        s.restore(&merged);
        assert_eq!(s.get("thumbs", "x").unwrap(), Bytes::from_static(b"1"));
        assert_eq!(s.get("thumbs", "y").unwrap(), Bytes::from_static(b"2"));

        let parts = merged
            .clone()
            .partition(2, |bucket| (bucket == "thumbs") as usize);
        assert_eq!(
            parts.iter().map(ObjectSnapshot::len).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(ObjectSnapshot::merged(&parts), merged);
    }

    #[test]
    fn concurrent_writers() {
        let s = ObjectStore::new();
        let mut handles = vec![];
        for t in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    s.put("shared", &format!("{t}-{i}"), vec![1u8; 10]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().len(), 400);
    }
}
