//! 1-D Wasserstein (earth-mover) distance and the *uneven-ness* score of
//! Fig 8.
//!
//! The paper checks that, when multiple streamers play from one location,
//! their measurements are spread roughly uniformly over each 5-minute
//! interval rather than arriving in bursts. The score is the Wasserstein
//! distance between the observed arrival offsets and the uniform
//! distribution, normalised by the distance between the uniform distribution
//! and the most uneven one (all points at a single instant).

/// 1-D Wasserstein-1 distance between two empirical distributions given as
/// unsorted samples with equal weight per sample. Computed from the
/// quantile-function representation:
/// `W1 = ∫ |F⁻¹(q) − G⁻¹(q)| dq`.
pub fn wasserstein_1d(a: &[f64], b: &[f64]) -> f64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "wasserstein_1d: empty input"
    );
    let mut xa: Vec<f64> = a.to_vec();
    let mut xb: Vec<f64> = b.to_vec();
    xa.sort_by(|x, y| x.partial_cmp(y).expect("NaN in wasserstein input"));
    xb.sort_by(|x, y| x.partial_cmp(y).expect("NaN in wasserstein input"));

    // Merge the two sets of quantile breakpoints.
    let na = xa.len() as f64;
    let nb = xb.len() as f64;
    let mut dist = 0.0;
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut q_prev = 0.0;
    while ia < xa.len() && ib < xb.len() {
        let qa = (ia + 1) as f64 / na;
        let qb = (ib + 1) as f64 / nb;
        let q = qa.min(qb);
        dist += (xa[ia] - xb[ib]).abs() * (q - q_prev);
        q_prev = q;
        if qa <= qb + 1e-15 {
            ia += 1;
        }
        if qb <= qa + 1e-15 {
            ib += 1;
        }
    }
    dist
}

/// 1-D Wasserstein-1 distance between an empirical sample (offsets within
/// `[0, span]`) and the continuous uniform distribution on `[0, span]`.
///
/// Uses the CDF-difference integral with exact piecewise-linear integration:
/// `W1 = ∫₀^span |F_emp(x) − x/span| dx`.
pub(crate) fn wasserstein_to_uniform(samples: &[f64], span: f64) -> f64 {
    assert!(!samples.is_empty(), "wasserstein_to_uniform: empty input");
    assert!(span > 0.0, "wasserstein_to_uniform: span must be positive");
    let mut xs: Vec<f64> = samples.iter().map(|&x| x.clamp(0.0, span)).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let n = xs.len() as f64;

    // Between consecutive sample points the empirical CDF is constant at
    // k/n while the uniform CDF is x/span; integrate |k/n − x/span| exactly
    // (the integrand is piecewise linear, possibly crossing zero once).
    let mut total = 0.0;
    let mut prev = 0.0;
    for (k, &x) in xs.iter().enumerate() {
        total += segment_integral(prev, x, k as f64 / n, span);
        prev = x;
    }
    total += segment_integral(prev, span, 1.0, span);
    total
}

/// ∫ₐᵇ |c − x/span| dx for constants `c`, handling the sign change.
fn segment_integral(a: f64, b: f64, c: f64, span: f64) -> f64 {
    if b <= a {
        return 0.0;
    }
    let f = |x: f64| c - x / span; // linear, decreasing
    let fa = f(a);
    let fb = f(b);
    if fa >= 0.0 && fb >= 0.0 {
        (fa + fb) / 2.0 * (b - a)
    } else if fa <= 0.0 && fb <= 0.0 {
        -((fa + fb) / 2.0) * (b - a)
    } else {
        // Crosses zero at x0 = c * span.
        let x0 = c * span;
        (fa / 2.0) * (x0 - a) + (-fb / 2.0) * (b - x0)
    }
}

/// The Fig 8 *uneven-ness* score for arrival offsets within a window of
/// length `span`: the Wasserstein distance to the uniform distribution,
/// normalised by the worst case (all mass at one endpoint), so the score is
/// in `[0, 1]` — 0 means perfectly uniform coverage, 1 means a single burst
/// at the window edge.
pub fn unevenness_score(offsets: &[f64], span: f64) -> f64 {
    let w = wasserstein_to_uniform(offsets, span);
    // Worst case: all points at an endpoint. W1(δ_0, U[0,span]) = span/2.
    (w / (span / 2.0)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_zero_distance() {
        let a = [1.0, 2.0, 3.0];
        assert!(wasserstein_1d(&a, &a) < 1e-12);
    }

    #[test]
    fn translation_shifts_by_constant() {
        let a = [0.0, 1.0, 2.0, 3.0];
        let b: Vec<f64> = a.iter().map(|x| x + 2.5).collect();
        assert!((wasserstein_1d(&a, &b) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let a = [0.0, 5.0, 9.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        assert!((wasserstein_1d(&a, &b) - wasserstein_1d(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn different_sizes_supported() {
        // W1 between {0} and {0, 1} = 0.5 (half the mass moves 1).
        assert!((wasserstein_1d(&[0.0], &[0.0, 1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_samples_score_near_zero() {
        let span = 300.0;
        let offsets: Vec<f64> = (0..100).map(|i| (i as f64 + 0.5) * 3.0).collect();
        let s = unevenness_score(&offsets, span);
        assert!(s < 0.02, "score {s}");
    }

    #[test]
    fn burst_scores_near_one() {
        let span = 300.0;
        let offsets = vec![0.0; 50];
        let s = unevenness_score(&offsets, span);
        assert!(s > 0.98, "score {s}");
        // A burst in the middle is "half as uneven" as one at the edge.
        let mid = vec![150.0; 50];
        let sm = unevenness_score(&mid, span);
        assert!((sm - 0.5).abs() < 0.02, "mid score {sm}");
    }

    #[test]
    fn score_bounded() {
        let span = 300.0;
        for pts in [vec![10.0, 290.0], vec![100.0], vec![0.0, 150.0, 300.0]] {
            let s = unevenness_score(&pts, span);
            assert!((0.0..=1.0).contains(&s), "score {s} for {pts:?}");
        }
    }

    #[test]
    fn to_uniform_matches_sampled_uniform() {
        // A dense grid approximates the continuous uniform distribution, so
        // the discrete-discrete and discrete-continuous computations should
        // roughly agree for a test distribution.
        let span = 100.0;
        let sample = [10.0, 20.0, 80.0, 90.0];
        let grid: Vec<f64> = (0..10_000).map(|i| (i as f64 + 0.5) / 100.0).collect();
        let approx = wasserstein_1d(&sample, &grid);
        let exact = wasserstein_to_uniform(&sample, span);
        assert!(
            (approx - exact).abs() < 0.05,
            "approx {approx} exact {exact}"
        );
    }

    #[test]
    fn samples_outside_span_clamp() {
        let s = wasserstein_to_uniform(&[-5.0, 400.0], 300.0);
        let t = wasserstein_to_uniform(&[0.0, 300.0], 300.0);
        assert!((s - t).abs() < 1e-12);
    }
}
