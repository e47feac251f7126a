//! # tero
//!
//! A full Rust reproduction of *Using Gaming Footage as a Source of
//! Internet Latency Information* (Alvarez & Argyraki, IMC '23) — the
//! **Tero** system — together with every substrate it depends on.
//!
//! Tero continuously downloads gaming-footage thumbnails, extracts the
//! on-screen latency values with OCR, geolocates streamers from public
//! profiles, cleans the time series, and publishes per-`{location, game}`
//! latency distributions.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `tero-types` | time, ids, geography, Table 1 parameters, RNG |
//! | [`obs`] | `tero-obs` | metrics: counters, gauges, histograms, snapshots |
//! | [`stats`] | `tero-stats` | probit, Wasserstein, PELT, LOF, iForest, MCD |
//! | [`store`] | `tero-store` | KV and object stores (App. B) |
//! | [`vision`] | `tero-vision` | HUD renderer, preprocessing, 3 OCR engines |
//! | [`geoparse`] | `tero-geoparse` | gazetteer + 5 geoparsing tools (App. D) |
//! | [`simnet`] | `tero-simnet` | network simulator + Fig 3 testbed |
//! | [`world`] | `tero-world` | synthetic Twitch world with ground truth |
//! | [`core`] | `tero-core` | the Tero pipeline itself |
//! | [`chaos`] | `tero-chaos` | deterministic fault injection (API 5xx, CDN faults, crashes, network faults) |
//! | [`net`] | `tero-net` | networked store: wire frames, shard servers, partition-tolerant client |
//! | [`pool`] | `tero-pool` | thread pool with deterministic ordered results |
//! | [`trace`] | `tero-trace` | structured tracing: spans, flight recorder, sample provenance |
//! | [`ops`] | `tero-ops` | live operations: mesh health model, starvation diagnosis, latency budgets |
//! | [`serve`] | `tero-serve` | distribution query front-end: sketch queries, hot-key cache, load generator |
//!
//! ## Quickstart
//!
//! ```
//! use tero::core::pipeline::{ExtractionMode, Tero};
//! use tero::world::{World, WorldConfig};
//!
//! let mut world = World::build(WorldConfig {
//!     seed: 42,
//!     n_streamers: 10,
//!     days: 2,
//!     ..WorldConfig::default()
//! });
//! let tero = Tero { mode: ExtractionMode::Calibrated, ..Tero::default() };
//! let report = tero.run(&mut world);
//! assert!(report.thumbnails > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use tero_chaos as chaos;
pub use tero_core as core;
pub use tero_geoparse as geoparse;
pub use tero_net as net;
pub use tero_obs as obs;
pub use tero_ops as ops;
pub use tero_pool as pool;
pub use tero_serve as serve;
pub use tero_simnet as simnet;
pub use tero_stats as stats;
pub use tero_store as store;
pub use tero_trace as trace;
pub use tero_types as types;
pub use tero_vision as vision;
pub use tero_world as world;
