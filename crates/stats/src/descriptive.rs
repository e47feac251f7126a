//! Descriptive statistics and the paper's boxplot representation.
//!
//! Every latency distribution in the paper is reported as the 5th, 25th,
//! 50th, 75th and 95th percentiles — deliberately *not* min/max, because up
//! to ~3.7 % of the points may be image-processing errors (§5.2), so the
//! tails are untrustworthy. [`BoxplotStats`] captures exactly that.

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns `NaN` for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Percentile `p ∈ [0, 100]` by linear interpolation between closest ranks
/// (the "linear" method of NumPy). The input need not be sorted. Returns
/// `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&sorted, p)
}

/// Percentile of an already-sorted slice (ascending). See [`percentile`].
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Nearest-rank percentile of an *unsorted* slice: the value at 1-based
/// rank `ceil(p/100 · n)`, clamped to at least rank 1. `None` when empty.
///
/// This is the definition shared by `tero_trace::obs::Histogram::percentile` and
/// [`QuantileSketch::quantile`](crate::QuantileSketch::quantile)
/// — the one docs/OPERATIONS.md quotes for every served p50/p95/p99. It
/// always returns an observed sample, unlike [`percentile`] which
/// linearly interpolates *between* samples (the §5.2 report method); on a
/// sorted slice the two differ by at most one rank position.
pub fn percentile_nearest_rank(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank - 1])
}

/// The five-number summary the paper uses for every latency distribution:
/// 5th, 25th, 50th, 75th and 95th percentiles, plus count and mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxplotStats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl BoxplotStats {
    /// Compute the summary. Returns `None` for an empty input.
    pub fn from_samples(xs: &[f64]) -> Option<BoxplotStats> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in boxplot input"));
        Some(BoxplotStats {
            n: sorted.len(),
            mean: mean(&sorted),
            p5: percentile_sorted(&sorted, 5.0),
            p25: percentile_sorted(&sorted, 25.0),
            p50: percentile_sorted(&sorted, 50.0),
            p75: percentile_sorted(&sorted, 75.0),
            p95: percentile_sorted(&sorted, 95.0),
        })
    }

    /// The inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }

    /// Scale every summary statistic by `k` (used for distance normalisation).
    pub fn scaled(&self, k: f64) -> BoxplotStats {
        BoxplotStats {
            n: self.n,
            mean: self.mean * k,
            p5: self.p5 * k,
            p25: self.p25 * k,
            p50: self.p50 * k,
            p75: self.p75 * k,
            p95: self.p95 * k,
        }
    }
}

impl std::fmt::Display for BoxplotStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p5={:.1} p25={:.1} p50={:.1} p75={:.1} p95={:.1}",
            self.n, self.p5, self.p25, self.p50, self.p75, self.p95
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
        assert!(variance(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 25.0) - 1.75).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
        // Out-of-range p clamps.
        assert_eq!(percentile(&xs, 150.0), 4.0);
    }

    #[test]
    fn nearest_rank_matches_shared_definition() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        // rank = ceil(p/100 · 5): p50 → rank 3 → 5.0, p95 → rank 5 → 9.0.
        assert_eq!(percentile_nearest_rank(&xs, 50.0), Some(5.0));
        assert_eq!(percentile_nearest_rank(&xs, 95.0), Some(9.0));
        assert_eq!(percentile_nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(percentile_nearest_rank(&xs, 100.0), Some(9.0));
        assert_eq!(percentile_nearest_rank(&[], 50.0), None);
        // Always an observed sample; linear interpolation is not.
        let pair = [1.0, 1000.0];
        assert_eq!(percentile_nearest_rank(&pair, 50.0), Some(1.0));
        assert!((percentile(&pair, 50.0) - 500.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&xs, 50.0), 5.0);
    }

    #[test]
    fn boxplot_from_uniform_grid() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let b = BoxplotStats::from_samples(&xs).unwrap();
        assert_eq!(b.n, 101);
        assert!((b.p5 - 5.0).abs() < 1e-12);
        assert!((b.p50 - 50.0).abs() < 1e-12);
        assert!((b.p95 - 95.0).abs() < 1e-12);
        assert!((b.iqr() - 50.0).abs() < 1e-12);
        assert!(BoxplotStats::from_samples(&[]).is_none());
    }

    #[test]
    fn boxplot_scaling() {
        let b = BoxplotStats::from_samples(&[10.0, 20.0, 30.0]).unwrap();
        let s = b.scaled(0.1);
        assert!((s.p50 - 2.0).abs() < 1e-12);
        assert_eq!(s.n, 3);
    }
}
