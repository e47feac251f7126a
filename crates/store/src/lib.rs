//! # tero-store
//!
//! Storage substrate for the Tero pipeline, mirroring the paper's deployment
//! (App. B): the production system uses **Redis** for inter-process
//! communication and streamer-location state, an **S3-like object store**
//! (Ceph) for thumbnails and intermediate image-processing products, and
//! **MongoDB** for latency measurements and analysis.
//!
//! This crate provides in-process, thread-safe equivalents of the first
//! two. There is no document store: measurements live in the
//! `engine:samples:*` KV lists the extract stage appends to and the clean
//! stage replays — a stated substitution for App. B's MongoDB (DESIGN.md
//! §1).
//!
//! * [`KvStore`] — a sharded key-value store with strings, lists (work
//!   queues the consumers pull from when ready, and logs they read from a
//!   cursor), hashes, counters and logical-time TTLs;
//! * [`ObjectStore`] — buckets of immutable byte blobs keyed by name.
//!
//! Everything here follows the paper's push/pull discipline: producers push
//! into the relevant store and consumers pull when ready, which decouples
//! stages whose processing time varies "significantly — and sometimes
//! unpredictably" (App. B).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod kv;
mod object;
mod remote;

pub use kv::{KvSnapshot, KvStore, PROTECTED_PREFIX};
pub use object::{ObjectSnapshot, ObjectStore};
pub use remote::{KvRequest, KvResponse, ObjRequest, ObjResponse, RemoteStore};
