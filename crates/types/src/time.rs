//! Simulated time.
//!
//! All Tero components run against a simulated clock expressed in integer
//! **microseconds** since the simulation epoch — fine enough to model
//! packet serialization on gigabit links, while keeping event ordering
//! total and every experiment deterministic (no floating point, no
//! wall-clock types).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, in microseconds since the simulation epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since the epoch as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Minutes since the epoch (truncating).
    pub const fn as_mins(self) -> u64 {
        self.0 / 60_000_000
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of `self` and `other`.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of `self` and `other`.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Construct from fractional milliseconds, rounding to the nearest
    /// microsecond.
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms * 1_000.0).round().max(0.0) as u64)
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Length in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Length in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Length in whole minutes (truncating).
    pub const fn as_mins(self) -> u64 {
        self.0 / 60_000_000
    }

    /// Scale the duration by a float factor, rounding to microseconds.
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration((self.0 as f64 * k).round().max(0.0) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 / 1_000;
        let us = self.0 % 1_000;
        let (h, rem) = (ms / 3_600_000, ms % 3_600_000);
        let (m, rem) = (rem / 60_000, rem % 60_000);
        let (s, ms) = (rem / 1_000, rem % 1_000);
        if us == 0 {
            write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}{us:03}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 60_000_000 {
            write!(f, "{:.1}min", self.0 as f64 / 60_000_000.0)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}s", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_mins(3).as_secs(), 180);
        assert_eq!(SimTime::from_hours(1).as_mins(), 60);
        assert_eq!(SimDuration::from_secs(5).as_millis(), 5_000);
        assert_eq!(SimDuration::from_hours(2).as_mins(), 120);
        assert_eq!(SimDuration::from_micros(1_500).as_millis(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_secs(), 14);
        assert_eq!((t - d).as_secs(), 6);
        assert_eq!((t + d) - t, d);
        // Saturating subtraction never underflows.
        assert_eq!(SimTime::EPOCH - d, SimTime::EPOCH);
        assert_eq!(SimTime::EPOCH.since(t), SimDuration::from_micros(0));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5).as_millis(), 5_000);
        assert_eq!(d.mul_f64(0.0), SimDuration::from_micros(0));
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(0.0002).as_micros(), 200);
        assert_eq!(SimDuration::from_millis_f64(0.25).as_micros(), 250);
    }

    #[test]
    fn sub_millisecond_resolution() {
        // The motivating case: 1250-byte packets at 50 Mbps are 200 µs
        // apart — representable exactly.
        let d = SimDuration::from_secs_f64(1250.0 * 8.0 / 50e6);
        assert_eq!(d.as_micros(), 200);
        assert!((d.as_millis_f64() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(3_661_004).to_string(), "01:01:01.004");
        assert_eq!(SimDuration::from_micros(500).to_string(), "500us");
        assert_eq!(SimDuration::from_millis(500).to_string(), "500.00ms");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.50s");
        assert_eq!(SimDuration::from_mins(2).to_string(), "2.0min");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
