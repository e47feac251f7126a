//! # tero-world
//!
//! The synthetic Twitch world that the Tero pipeline mines — a generative
//! model with complete ground truth, standing in for the live platform the
//! paper scraped for two years.
//!
//! * [`games`] — the nine processed games, their server deployments
//!   (Tables 6–7), game-regions and primary-server assignment (§2.1);
//! * [`population`] — where streamers live: gazetteer populations skewed by
//!   per-continent Twitch popularity (Fig 7);
//! * [`streamer`] — streamer generation: identity, true location, played
//!   games, ISP quality, social profiles and descriptions (feeding
//!   `tero-geoparse`), HUD quirks (feeding `tero-vision`), and behavioural
//!   propensities (ground truth for Table 5);
//! * [`textgen`] — description / Twitter-field text generation with known
//!   ground truth (formal, informal, misleading, bait, non-geographic);
//! * `latency` — the ground-truth latency process per
//!   `{streamer, server}`: corrected-distance propagation, ISP access
//!   delay, jitter, spikes, and regional shared-anomaly events;
//! * [`sessions`] — streams, thumbnail timing (Fig 13), breaks, mid-stream
//!   server changes, between-stream location changes, game changes;
//! * [`twitch`] — the platform simulator: a rate-limited Helix-like API and
//!   a CDN whose thumbnail URLs are overwritten every ~5 minutes and
//!   redirect when the streamer goes offline (App. A's environment);
//! * `world` — ties everything together behind a single [`World`] handle.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod games;
mod latency;
pub mod population;
pub mod sessions;
pub mod streamer;
pub mod textgen;
pub mod twitch;
mod world;

pub use latency::{NetProfile, SharedEvent, Spike};
pub use world::{World, WorldConfig};
