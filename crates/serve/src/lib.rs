//! # tero-serve
//!
//! The distribution query front-end: what "heavy traffic from millions of
//! users" concretely means for this system. The paper's end product is
//! per-`{location, game}` latency distributions (§5.2 boxplot
//! percentiles, Fig 8 Wasserstein comparisons); this crate answers
//! percentile, CDF, histogram and Wasserstein-distance **queries** over
//! them at production rates, from the mergeable quantile sketches the
//! staged engine commits into `tero-store` (see `tero_core::serving`).
//!
//! * [`engine`] — the [`QueryEngine`]: typed [`Query`]s and [`Answer`]s
//!   over a serving store, through a hot-key cache of decoded sketches;
//! * `cache` — the `HotKeyCache`: bounded LRU, invalidated whole
//!   when the serving version moves (one bump per window commit);
//! * `loadgen` — the seeded [`LoadGen`] and [`run_load`] replay:
//!   a deterministic production-shaped query mix fanned out over
//!   `tero-pool` against one shared engine.
//!
//! ## Accuracy and determinism
//!
//! Served percentiles sit within the sketch's documented relative-error
//! bound (`QuantileSketch::relative_error_bound`, ≈ 2 % at the default
//! accuracy) of the exact nearest-rank values behind the run report, and
//! the committed sketches — hence every answer — are byte-identical
//! across worker counts and window schedules. Pinned by
//! `tests/serve_accuracy.rs` and the property tests in
//! `tests/sketch_props.rs`.
//!
//! ```
//! use tero_core::pipeline::{ExtractionMode, Tero};
//! use tero_serve::QueryEngine;
//! use tero_types::{GameId, Location};
//! use tero_world::{World, WorldConfig};
//!
//! // Streamers pinned to two countries so the publish stage has groups
//! // that clear `min_streamers` (a random small world publishes nothing).
//! let pinned = ["Netherlands", "Poland"]
//!     .map(|c| (Location::country(c), GameId::LeagueOfLegends, 12))
//!     .into_iter()
//!     .collect();
//! let mut world = World::build(WorldConfig {
//!     seed: 42, n_streamers: 0, days: 2, pinned,
//!     api_budget_per_min: 2_000, ..WorldConfig::default()
//! });
//! let tero = Tero { mode: ExtractionMode::Calibrated, min_streamers: 2, ..Tero::default() };
//! let report = tero.run(&mut world);
//! let engine = QueryEngine::new(tero.serving_store().unwrap(), &tero.obs);
//!
//! // Every served distribution answers; `distributions()` is key-sorted.
//! let served = engine.distributions();
//! assert!(!served.is_empty());
//! assert_eq!(served.len(), report.distributions.len());
//! for (granularity, game, location_key) in &served {
//!     let target = tero_serve::SketchRef::dist(*granularity, *game, location_key);
//!     assert!(engine.percentile(&target, 95.0).is_some());
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
pub mod engine;
mod loadgen;

pub use engine::{Answer, Query, QueryEngine, SketchRef};
pub use loadgen::{fold_answers, run_load, LoadGen, LoadReport, QUERY_PERCENTILES};
