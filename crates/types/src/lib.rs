//! # tero-types
//!
//! Shared domain types for the Tero reproduction (*Using Gaming Footage as a
//! Source of Internet Latency Information*, IMC '23).
//!
//! This crate is deliberately dependency-light: everything else in the
//! workspace builds on the vocabulary defined here — simulated time
//! ([`SimTime`]), anonymised identifiers ([`ids`]), geography and the paper's
//! *corrected distance* ([`geo`]), the `{city, region, country}` location
//! tuple ([`Location`]), the configurable parameters of Table 1
//! ([`TeroParams`]), the deterministic random-number generator
//! ([`SimRng`]) that makes every experiment bit-reproducible, and the
//! backoff / circuit-breaker policy both retrying layers share ([`retry`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod geo;
pub mod ids;
pub mod latency;
pub mod location;
pub mod params;
pub mod retry;
pub mod rng;
pub mod time;

pub use geo::{corrected_distance_km, fiber_delay_ms, haversine_km, LatLon};
pub use ids::{consistent_hash, AnonId, GameId, ShardSpec, StreamerId};
pub use latency::LatencySample;
pub use location::{Continent, Location};
pub use params::TeroParams;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
