//! # tero-core
//!
//! The Tero pipeline — the paper's primary contribution (§3):
//!
//! * [`download`] — the coordinator/downloader architecture of App. A,
//!   polling the (simulated) Twitch API under its rate limit and racing
//!   thumbnail overwrites on the CDN;
//! * [`location`] — the location module (§3.1): Twitch descriptions,
//!   Twitter/Steam profile matching, geoparsing combination, tag recovery,
//!   multi-location streamers;
//! * [`imageproc`] — the image-processing module (§3.2 / App. E): game-UI
//!   cropping plus the three-engine OCR voting front-end from
//!   `tero-vision`;
//! * [`analysis`] — the data-analysis module (§3.3): same-QoE segmentation,
//!   glitch/spike detection and correction, shared anomalies (App. F),
//!   latency clustering, static/mobile classification, end-point changes
//!   and per-`{location, game}` latency distributions;
//! * [`behavior`] — the §6 user-behaviour study: Probit marginal effects of
//!   spikes on server and game changes (Table 5);
//! * [`stages`] — the staged execution engine's stage layer (App. B):
//!   extract, locate, clean, agg and publish, plain structs connected
//!   through `tero-store` lists and blobs;
//! * [`engine`] — the [`engine::Engine`] that owns the wiring (stores,
//!   pool, download module, tracer, chaos) once and calls the stages
//!   windowed, with resumable cursors committed into the store;
//! * [`pipeline`] — the [`pipeline::Tero`] orchestrator: configuration,
//!   [`pipeline::PipelineMetrics`], and the [`pipeline::Tero::run`] /
//!   [`pipeline::Tero::run_window`] entry points against a `tero-world`
//!   platform;
//! * [`serving`] — the serving-layer key schema: where the engine commits
//!   mergeable quantile sketches into the store at each window boundary,
//!   and how the `tero-serve` query front-end finds them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod behavior;
pub mod download;
pub mod engine;
pub mod imageproc;
pub mod location;
pub mod pipeline;
pub mod serving;
pub mod sharded;
pub mod stages;

pub use engine::{CursorError, StoreSnapshot};
pub use pipeline::{Tero, TeroReport, WindowOutcome};
