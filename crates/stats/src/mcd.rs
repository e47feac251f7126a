//! Minimum Covariance Determinant (Rousseeuw & Van Driessen \[45\]) — the
//! distribution-based baseline of App. J.
//!
//! For univariate data the MCD estimator is exact and cheap: the h-subset
//! with the smallest covariance determinant is the length-`h` window of the
//! sorted data with the smallest variance. Robust location/scale come from
//! that window; anomalies are points whose squared robust distance exceeds a
//! χ²₁ quantile, or — following the paper's usage — the top `contamination`
//! fraction by robust distance.

use crate::special::inv_norm_cdf;
use serde::{Deserialize, Serialize};

/// The univariate MCD estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnivariateMcd {
    /// Robust location (mean of the optimal h-subset).
    pub location: f64,
    /// Robust scale (std-dev of the optimal h-subset, consistency-corrected).
    pub scale: f64,
    /// Size of the h-subset used.
    pub h: usize,
}

impl UnivariateMcd {
    /// Fit with subset size `h` (defaults to `⌈(n+2)/2⌉` when `None`, the
    /// maximally robust choice). Returns `None` for fewer than 2 points.
    pub fn fit(xs: &[f64], h: Option<usize>) -> Option<UnivariateMcd> {
        let n = xs.len();
        if n < 2 {
            return None;
        }
        let h = h.unwrap_or((n + 2) / 2).clamp(2, n);
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in MCD input"));

        // Sliding window over the sorted data: variance of each length-h
        // window via prefix sums; pick the smallest.
        let mut s1 = vec![0.0; n + 1];
        let mut s2 = vec![0.0; n + 1];
        for (i, &x) in sorted.iter().enumerate() {
            s1[i + 1] = s1[i] + x;
            s2[i + 1] = s2[i] + x * x;
        }
        let mut best_var = f64::INFINITY;
        let mut best_start = 0;
        for start in 0..=(n - h) {
            let sum = s1[start + h] - s1[start];
            let sumsq = s2[start + h] - s2[start];
            let var = (sumsq - sum * sum / h as f64) / h as f64;
            if var < best_var {
                best_var = var;
                best_start = start;
            }
        }
        let sum = s1[best_start + h] - s1[best_start];
        let location = sum / h as f64;

        // Consistency correction for normal data: the h/n most central
        // points of a normal sample underestimate sigma by a known factor.
        let alpha = h as f64 / n as f64;
        let correction = consistency_factor(alpha);
        let scale = (best_var.max(0.0)).sqrt() * correction;

        Some(UnivariateMcd {
            location,
            scale: scale.max(1e-12),
            h,
        })
    }

    /// Squared robust (Mahalanobis) distance of a point.
    pub(crate) fn robust_distance_sq(&self, x: f64) -> f64 {
        let d = (x - self.location) / self.scale;
        d * d
    }

    /// Flag the top `contamination` fraction of points by robust distance —
    /// the "known contamination factor" usage the paper describes (App. J,
    /// swept over `[0.01, 0.5]`).
    pub fn outliers_by_contamination(&self, xs: &[f64], contamination: f64) -> Vec<usize> {
        let n = xs.len();
        if n == 0 {
            return vec![];
        }
        let k = ((n as f64) * contamination.clamp(0.0, 1.0)).round() as usize;
        if k == 0 {
            return vec![];
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            self.robust_distance_sq(xs[b])
                .partial_cmp(&self.robust_distance_sq(xs[a]))
                .unwrap()
        });
        let mut flagged: Vec<usize> = order.into_iter().take(k).collect();
        flagged.sort_unstable();
        flagged
    }
}

/// Consistency factor for the truncated-normal variance: for a central
/// fraction `alpha` of a standard normal, the variance of the kept mass is
/// `1 − 2 q φ(q) / alpha` with `q = Φ⁻¹((1+alpha)/2)`; the factor is the
/// reciprocal square root of that.
fn consistency_factor(alpha: f64) -> f64 {
    if alpha >= 0.999_999 {
        return 1.0;
    }
    let q = inv_norm_cdf((1.0 + alpha) / 2.0);
    let phi = crate::special::norm_pdf(q);
    let truncated_var = 1.0 - 2.0 * q * phi / alpha;
    if truncated_var <= 1e-12 {
        1.0
    } else {
        1.0 / truncated_var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_types::SimRng;

    #[test]
    fn recovers_location_and_scale_under_contamination() {
        let mut rng = SimRng::new(42);
        // 80% N(50, 2), 20% junk at 200.
        let mut xs: Vec<f64> = (0..400).map(|_| rng.normal_with(50.0, 2.0)).collect();
        xs.extend(std::iter::repeat_n(200.0, 100));
        let mcd = UnivariateMcd::fit(&xs, None).unwrap();
        assert!(
            (mcd.location - 50.0).abs() < 0.5,
            "location {}",
            mcd.location
        );
        // Under 20 % contamination the h-subset covers a wider central slice
        // of the clean component than h/n assumes, so the corrected scale
        // overshoots a little — the classical MCD behaviour.
        assert!((mcd.scale - 2.0).abs() < 0.9, "scale {}", mcd.scale);
    }

    #[test]
    fn plain_mean_would_be_fooled() {
        // Contrast with the non-robust mean, to document why MCD matters.
        let mut rng = SimRng::new(43);
        let mut xs: Vec<f64> = (0..400).map(|_| rng.normal_with(50.0, 2.0)).collect();
        xs.extend(std::iter::repeat_n(200.0, 100));
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(naive > 75.0, "naive mean {naive} pulled by contamination");
    }

    #[test]
    fn contamination_flagging_counts() {
        let mut rng = SimRng::new(9);
        let xs: Vec<f64> = (0..200).map(|_| rng.normal_with(10.0, 1.0)).collect();
        let mcd = UnivariateMcd::fit(&xs, None).unwrap();
        assert_eq!(mcd.outliers_by_contamination(&xs, 0.1).len(), 20);
        assert!(mcd.outliers_by_contamination(&xs, 0.0).is_empty());
        assert_eq!(mcd.outliers_by_contamination(&xs, 1.0).len(), 200);
    }

    #[test]
    fn clean_normal_data_unbiased_scale() {
        let mut rng = SimRng::new(11);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.normal_with(0.0, 3.0)).collect();
        let mcd = UnivariateMcd::fit(&xs, None).unwrap();
        assert!(mcd.location.abs() < 0.2, "location {}", mcd.location);
        assert!(
            (mcd.scale - 3.0).abs() < 0.25,
            "consistency-corrected scale {}",
            mcd.scale
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert!(UnivariateMcd::fit(&[], None).is_none());
        assert!(UnivariateMcd::fit(&[5.0], None).is_none());
        let constant = vec![4.0; 20];
        let mcd = UnivariateMcd::fit(&constant, None).unwrap();
        assert_eq!(mcd.location, 4.0);
        // A single deviant among constants is the one flagged.
        let mut xs = constant.clone();
        xs.push(10.0);
        let mcd = UnivariateMcd::fit(&xs, None).unwrap();
        assert_eq!(mcd.outliers_by_contamination(&xs, 1.0 / 21.0), vec![20]);
    }
}
