//! Probit regression (§6, Table 5).
//!
//! The paper assesses the effect of latency spikes (a count "treatment") on
//! a binary outcome (server change / game change) with Probit models
//! [Huntington-Klein, 21], summarising each model by the **average marginal
//! effect** — the mean slope of the prediction function — and Wald
//! significance. We implement maximum likelihood by Fisher scoring with a
//! small dense solver; no external linear-algebra dependency.

use crate::special::{norm_cdf, norm_pdf};
use serde::{Deserialize, Serialize};

/// A Probit model specification: binary outcomes with one or more predictors
/// (an intercept is always added internally).
#[derive(Debug, Clone, Default)]
pub struct ProbitModel {
    xs: Vec<Vec<f64>>,
    ys: Vec<bool>,
}

/// The result of fitting a [`ProbitModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbitFit {
    /// Coefficients: `[intercept, b1, b2, …]`.
    pub beta: Vec<f64>,
    /// Standard errors, same layout as `beta`.
    pub std_err: Vec<f64>,
    /// Two-sided Wald p-values, same layout as `beta`.
    pub p_value: Vec<f64>,
    /// Average marginal effect of each predictor (excluding the intercept):
    /// `AME_j = mean_i[ φ(x_iᵀβ) ] · β_j`.
    pub marginal_effect: Vec<f64>,
    /// Final log-likelihood.
    pub log_likelihood: f64,
    /// Number of observations.
    pub n_obs: usize,
    /// Number of Fisher-scoring iterations used.
    pub iterations: usize,
    /// Whether the fit converged (step norm below tolerance).
    pub converged: bool,
}

/// Probability clamp to keep the likelihood finite under near-separation.
const P_EPS: f64 = 1e-10;

impl ProbitModel {
    /// Empty model; add observations with [`ProbitModel::push`].
    pub fn new() -> Self {
        ProbitModel::default()
    }

    /// Add one observation with a single predictor.
    pub fn push(&mut self, x: f64, y: bool) {
        self.xs.push(vec![x]);
        self.ys.push(y);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Fit by Fisher scoring. Returns `None` when the data is degenerate
    /// (no observations, or all outcomes identical — the MLE does not exist).
    pub fn fit(&self) -> Option<ProbitFit> {
        let n = self.ys.len();
        if n == 0 {
            return None;
        }
        let n_pos = self.ys.iter().filter(|&&y| y).count();
        if n_pos == 0 || n_pos == n {
            return None;
        }
        let k = self.xs[0].len() + 1; // + intercept

        // Design matrix rows with a leading 1.
        let rows: Vec<Vec<f64>> = self
            .xs
            .iter()
            .map(|x| {
                let mut r = Vec::with_capacity(k);
                r.push(1.0);
                r.extend_from_slice(x);
                r
            })
            .collect();

        // Start from the null model: Φ(β0) = mean(y).
        let mut beta = vec![0.0; k];
        beta[0] = crate::special::inv_norm_cdf((n_pos as f64 / n as f64).clamp(1e-6, 1.0 - 1e-6));

        let max_iter = 100;
        let tol = 1e-10;
        let mut converged = false;
        let mut iterations = 0;
        let mut info = vec![vec![0.0; k]; k];
        for it in 0..max_iter {
            iterations = it + 1;
            // Score vector and Fisher information.
            let mut score = vec![0.0; k];
            for r in info.iter_mut() {
                r.iter_mut().for_each(|v| *v = 0.0);
            }
            for (row, &y) in rows.iter().zip(&self.ys) {
                let eta: f64 = row.iter().zip(&beta).map(|(a, b)| a * b).sum();
                let phi = norm_pdf(eta);
                let cap = norm_cdf(eta).clamp(P_EPS, 1.0 - P_EPS);
                let resid = if y { 1.0 - cap } else { -cap };
                let w_score = phi * resid / (cap * (1.0 - cap));
                let w_info = phi * phi / (cap * (1.0 - cap));
                for i in 0..k {
                    score[i] += w_score * row[i];
                    for j in 0..k {
                        info[i][j] += w_info * row[i] * row[j];
                    }
                }
            }
            // Tiny ridge to guard against singular information.
            for (i, r) in info.iter_mut().enumerate() {
                r[i] += 1e-12;
            }
            let step = solve(&info, &score)?;
            let step_norm: f64 = step.iter().map(|s| s * s).sum::<f64>().sqrt();
            // Dampen huge steps (near-separation safety).
            let scale = if step_norm > 10.0 {
                10.0 / step_norm
            } else {
                1.0
            };
            for i in 0..k {
                beta[i] += scale * step[i];
            }
            if step_norm < tol {
                converged = true;
                break;
            }
        }

        // Covariance = inverse information at the optimum.
        let cov = invert(&info)?;
        let std_err: Vec<f64> = (0..k).map(|i| cov[i][i].max(0.0).sqrt()).collect();
        let p_value: Vec<f64> = beta
            .iter()
            .zip(&std_err)
            .map(|(&b, &se)| {
                if se <= 0.0 {
                    1.0
                } else {
                    2.0 * (1.0 - norm_cdf((b / se).abs()))
                }
            })
            .collect();

        // Average marginal effects and final log-likelihood.
        let mut mean_pdf = 0.0;
        let mut ll = 0.0;
        for (row, &y) in rows.iter().zip(&self.ys) {
            let eta: f64 = row.iter().zip(&beta).map(|(a, b)| a * b).sum();
            mean_pdf += norm_pdf(eta);
            let p = norm_cdf(eta).clamp(P_EPS, 1.0 - P_EPS);
            ll += if y { p.ln() } else { (1.0 - p).ln() };
        }
        mean_pdf /= n as f64;
        let marginal_effect: Vec<f64> = beta[1..].iter().map(|&b| b * mean_pdf).collect();

        Some(ProbitFit {
            beta,
            std_err,
            p_value,
            marginal_effect,
            log_likelihood: ll,
            n_obs: n,
            iterations,
            converged,
        })
    }
}

/// Solve `A x = b` for small dense symmetric `A` by Gaussian elimination
/// with partial pivoting. Returns `None` on (numerical) singularity.
#[allow(clippy::needless_range_loop)]
fn solve(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b)
        .map(|(row, &bi)| {
            let mut r = row.clone();
            r.push(bi);
            r
        })
        .collect();
    for col in 0..n {
        // Pivot.
        let piv = (col..n)
            .max_by(|&i, &j| m[i][col].abs().partial_cmp(&m[j][col].abs()).unwrap())
            .unwrap();
        if m[piv][col].abs() < 1e-300 {
            return None;
        }
        m.swap(col, piv);
        for row in col + 1..n {
            let f = m[row][col] / m[col][col];
            for c in col..=n {
                m[row][c] -= f * m[col][c];
            }
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = m[row][n];
        for c in row + 1..n {
            acc -= m[row][c] * x[c];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

/// Invert a small dense matrix by solving against identity columns.
fn invert(a: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = a.len();
    let mut cols = Vec::with_capacity(n);
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        cols.push(solve(a, &e)?);
    }
    // cols[j][i] = inv[i][j]; transpose.
    let mut inv = vec![vec![0.0; n]; n];
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            inv[i][j] = v;
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_types::SimRng;

    /// Generate from a true probit process and check recovery.
    fn synth(n: usize, b0: f64, b1: f64, seed: u64) -> ProbitModel {
        let mut rng = SimRng::new(seed);
        let mut m = ProbitModel::new();
        for _ in 0..n {
            let x = rng.below(10) as f64;
            let p = norm_cdf(b0 + b1 * x);
            m.push(x, rng.chance(p));
        }
        m
    }

    #[test]
    fn recovers_true_coefficients() {
        let m = synth(20_000, -1.5, 0.2, 42);
        let fit = m.fit().expect("fit");
        assert!(fit.converged);
        assert!((fit.beta[0] + 1.5).abs() < 0.08, "b0 {}", fit.beta[0]);
        assert!((fit.beta[1] - 0.2).abs() < 0.02, "b1 {}", fit.beta[1]);
        assert!(fit.p_value[1] <= 0.01, "p={}", fit.p_value[1]);
    }

    #[test]
    fn marginal_effect_is_attenuated() {
        let m = synth(20_000, -1.0, 0.15, 7);
        let fit = m.fit().unwrap();
        assert!(fit.marginal_effect[0] > 0.0);
        assert!(fit.marginal_effect[0] < 0.15, "AME is attenuated vs beta");
    }

    #[test]
    fn null_effect_is_insignificant() {
        let m = synth(5_000, -1.0, 0.0, 99);
        let fit = m.fit().unwrap();
        assert!(fit.beta[1].abs() < 0.05);
        assert!(fit.p_value[1] > 0.001, "p={}", fit.p_value[1]);
    }

    #[test]
    fn degenerate_outcomes_return_none() {
        let mut m = ProbitModel::new();
        for i in 0..100 {
            m.push(i as f64, true);
        }
        assert!(m.fit().is_none(), "all-positive outcomes have no MLE");
        assert!(ProbitModel::new().fit().is_none());
    }

    #[test]
    fn multi_predictor_fit() {
        let mut rng = SimRng::new(5);
        let mut m = ProbitModel::new();
        for _ in 0..20_000 {
            let x1 = rng.f64() * 4.0;
            let x2 = rng.f64() * 4.0;
            let p = norm_cdf(-1.0 + 0.5 * x1 - 0.3 * x2);
            m.xs.push(vec![x1, x2]);
            m.ys.push(rng.chance(p));
        }
        let fit = m.fit().unwrap();
        assert!((fit.beta[1] - 0.5).abs() < 0.05, "b1 {}", fit.beta[1]);
        assert!((fit.beta[2] + 0.3).abs() < 0.05, "b2 {}", fit.beta[2]);
        assert_eq!(fit.marginal_effect.len(), 2);
        assert!(fit.marginal_effect[0] > 0.0 && fit.marginal_effect[1] < 0.0);
    }

    #[test]
    fn log_likelihood_improves_over_null() {
        let m = synth(5_000, -1.0, 0.25, 3);
        let fit = m.fit().unwrap();
        // Null model log-likelihood.
        let n_pos = (0..m.len()).filter(|&i| m.ys[i]).count() as f64;
        let p = n_pos / m.len() as f64;
        let ll0 = n_pos * p.ln() + (m.len() as f64 - n_pos) * (1.0 - p).ln();
        assert!(
            fit.log_likelihood > ll0,
            "{} vs {}",
            fit.log_likelihood,
            ll0
        );
    }

    #[test]
    fn solver_handles_small_systems() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        let inv = invert(&a).unwrap();
        // A * A^-1 = I.
        let prod00 = a[0][0] * inv[0][0] + a[0][1] * inv[1][0];
        let prod01 = a[0][0] * inv[0][1] + a[0][1] * inv[1][1];
        assert!((prod00 - 1.0).abs() < 1e-10);
        assert!(prod01.abs() < 1e-10);
        // Singular matrix.
        let s = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(&s, &[1.0, 2.0]).is_none());
    }
}
