//! Log-bucketed histograms with interpolated percentiles.
//!
//! ## Bucket-boundary rounding
//!
//! Bucket 0 holds exactly the value `0`; bucket `i ≥ 1` holds the
//! half-open range `[2^(i-1), 2^i)`. The boundaries round *up*: a value
//! that is exactly a power of two is the **lower** bound of its bucket,
//! so `1023` lands in bucket 10 (`[512, 1024)`) while `1024` starts
//! bucket 11 (`[1024, 2048)`). Percentiles interpolate linearly by rank
//! inside the containing bucket and are clamped to the observed
//! `[min, max]`, which bounds the relative error by the bucket width (a
//! factor of two) and makes single-valued histograms exact.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`. 64 buckets cover all of
/// `u64`, so nothing clips.
const BUCKETS: usize = 64;

/// A fixed-memory histogram over `u64` values (µs latencies, depths).
///
/// Recording is one relaxed atomic add into a bucket picked by
/// `leading_zeros` — no allocation, no locks, safe from any thread.
/// Percentiles are read back with linear interpolation inside the bucket,
/// so relative error is bounded by the bucket width (a factor of two).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value.
    #[inline]
    fn bucket_for(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_for(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `p`-th percentile (0–100), linearly interpolated inside the
    /// containing bucket and clamped to the observed min/max. `None` when
    /// the histogram is empty — a percentile of nothing is not `0`, and
    /// conflating the two hid empty timing histograms behind legitimate
    /// zero readings.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // Nearest-rank target (1-based), like tero-stats' exact percentile.
        let target = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if cumulative + in_bucket >= target {
                // Interpolate position within [lo, hi) by rank.
                let (lo, hi) = bucket_bounds(i);
                let into = (target - cumulative) as f64 / in_bucket as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                return Some(est.clamp(self.min() as f64, self.max() as f64));
            }
            cumulative += in_bucket;
        }
        Some(self.max() as f64)
    }
}

/// `[lo, hi)` value bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        63 => (1u64 << 62, u64::MAX),
        _ => (1u64 << (i - 1), 1u64 << i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(Histogram::bucket_for(0), 0);
        assert_eq!(Histogram::bucket_for(1), 1);
        assert_eq!(Histogram::bucket_for(2), 2);
        assert_eq!(Histogram::bucket_for(3), 2);
        assert_eq!(Histogram::bucket_for(4), 3);
        assert_eq!(Histogram::bucket_for(1023), 10);
        assert_eq!(Histogram::bucket_for(1024), 11);
        assert_eq!(Histogram::bucket_for(u64::MAX), 63);
    }

    #[test]
    fn summary_stats() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 100);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
        assert!((h.mean() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        // A percentile of nothing is None, never a fake 0.0.
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), None, "p{p} of empty");
        }
    }

    #[test]
    fn single_observation_percentiles_are_exact() {
        // One recorded value: every percentile is that value, including
        // the rank-boundary cases p0 and p100.
        let h = Histogram::new();
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!((h.min(), h.max()), (7, 7));
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(7.0), "p{p}");
        }
        // A recorded zero is a real observation, distinct from empty.
        let z = Histogram::new();
        z.record(0);
        assert_eq!(z.percentile(50.0), Some(0.0));
    }

    #[test]
    fn percentiles_bounded_by_bucket_width() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Exact p50 is 500; the estimate must land within the containing
        // power-of-two bucket [512, 1024) or the one below.
        let p50 = h.percentile(50.0).unwrap();
        assert!((250.0..=1000.0).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(99.0).unwrap();
        assert!((500.0..=1000.0).contains(&p99), "p99 {p99}");
        // p100 == max exactly (clamped).
        assert_eq!(h.percentile(100.0), Some(1000.0));
    }

    #[test]
    fn single_value_percentiles_are_exact() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(42);
        }
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(42.0), "p{p}");
        }
    }

    #[test]
    fn power_of_two_boundary_rounds_up() {
        // The documented boundary rule: 2^k is the lower bound of bucket
        // k+1, so 1023 and 1024 land in different buckets.
        assert_eq!(Histogram::bucket_for(1023), 10);
        assert_eq!(Histogram::bucket_for(1024), 11);
    }
}
