//! Inter-quartile-range outlier rule.
//!
//! App. J uses IQR whiskers (factor swept 0.5–2.0) to threshold Isolation
//! Forest scores instead of the original paper's contamination heuristic.

use crate::descriptive::percentile;

/// Indices of points above `Q3 + k·IQR` only (high-side outliers, used for
/// anomaly *scores* where only large values matter).
pub(crate) fn iqr_high_outliers(xs: &[f64], k: f64) -> Vec<usize> {
    if xs.len() < 4 {
        return vec![];
    }
    let q1 = percentile(xs, 25.0);
    let q3 = percentile(xs, 75.0);
    let hi = q3 + k * (q3 - q1);
    xs.iter()
        .enumerate()
        .filter(|(_, &x)| x > hi)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_side_only() {
        let mut xs: Vec<f64> = (0..100).map(|i| 50.0 + (i % 10) as f64).collect();
        xs.push(500.0);
        xs.push(-400.0);
        let out = iqr_high_outliers(&xs, 1.5);
        assert_eq!(out, vec![100]);
    }

    #[test]
    fn whisker_factor_matters() {
        let mut xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        xs.push(90.0);
        assert!(iqr_high_outliers(&xs, 0.5).contains(&50));
        assert!(iqr_high_outliers(&xs, 3.0).is_empty());
    }

    #[test]
    fn tiny_inputs_yield_nothing() {
        assert!(iqr_high_outliers(&[1.0, 100.0], 1.5).is_empty());
        assert!(iqr_high_outliers(&[1.0, 2.0, 3.0], 1.5).is_empty());
    }

    #[test]
    fn constant_data_has_no_outliers() {
        let xs = vec![5.0; 40];
        assert!(iqr_high_outliers(&xs, 1.5).is_empty());
    }
}
