//! The data-analysis module (§3.3).
//!
//! Input: per-`{streamer, game}` sequences of extracted latency samples,
//! organised into streams. Output: cleaned series, detected anomalies,
//! latency clusters and per-`{location, game}` distributions.

pub mod anomaly;
pub mod clusters;
pub mod distributions;
pub mod segments;
pub mod shared;
