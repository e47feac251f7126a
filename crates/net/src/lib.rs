//! # tero-net
//!
//! The networked store: everything needed to run `tero-store` as a
//! wire-protocol service and reach it through a robust-by-construction
//! client, mirroring the paper's deployment (App. B) where Redis and the
//! object store are *services* the pipeline workers talk to over the
//! machine-room network — with all the partial failure that implies.
//!
//! Layers, bottom-up:
//!
//! * `frame` — length-prefixed binary framing for the typed
//!   [`KvRequest`](tero_store::KvRequest) / [`ObjRequest`](tero_store::ObjRequest)
//!   operations (plus `PING`), with `(client, seq)` headers for
//!   exactly-once retry semantics;
//! * `transport` — [`SimNet`], a deterministic in-process network of
//!   named hosts whose per-frame delays come from a
//!   [`LinkConfig`](tero_simnet::LinkConfig) and whose faults (drops,
//!   delays, partitions, host kills) come from a
//!   [`ChaosInjector`](tero_chaos::ChaosInjector)'s
//!   [`NetFault`](tero_chaos::NetFault) schedule;
//! * `server` — [`StoreServer`], one store shard: a local KV + object
//!   store and a request-deduplication entry per client, behind a frame
//!   handler that runs each request through the store's own `apply` and
//!   answers hostile bytes with nothing;
//! * `client` — [`ShardedStoreClient`], the [`RemoteStore`](tero_store::RemoteStore) the engine's
//!   store facade plugs into: consistent-hash routing, per-request
//!   deadlines, exponential backoff with deterministic jitter, per-shard
//!   circuit [`Breaker`](tero_types::retry::Breaker)s, and lease-based failover from a killed or
//!   partitioned primary to its replica;
//! * `health` — [`HealthMonitor`], the live observer of a running
//!   mesh: host reachability, the clients' failover state and registry
//!   deltas folded into a per-window [`HealthReport`] with a per-shard
//!   verdict, banded gauges and a network-vs-processing [`Starvation`]
//!   verdict.
//!
//! The contract the client upholds is the one the determinism suite
//! enforces end-to-end: under any survivable [`NetFault`](tero_chaos::NetFault) plan, every
//! store operation eventually completes with exactly the result a local
//! store would have produced, so the merged horizon report of a sharded
//! run is byte-identical to the fault-free single-process run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod client;
mod frame;
mod health;
mod server;
mod transport;

pub use client::ShardedStoreClient;
pub use frame::{decode, encode, Frame, FrameError, Payload};
pub use health::{
    GaugeBand, HealthMonitor, HealthReport, HostProbe, ShardHealth, ShardStatus, Starvation,
};
pub use server::StoreServer;
pub use transport::{default_link, default_net_fault, engine_host, NetError, SimNet};
