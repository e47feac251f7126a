//! The shared-anomaly statistical test (App. F, after Padmanabhan et al. \[41\]).
//!
//! For each `{location, game}` tuple Tero estimates the per-measurement spike
//! probability `p_e = #spikes / #measurements` (Eq. 1), requires the data to
//! be statistically significant (`#measurements · p_e · (1 − p_e) > 10`,
//! Eq. 2), and then, for `N` streamers active around a spike of which `D`
//! spiked, computes the probability that `D` spikes happened independently
//! (Eq. 3). If that probability is below `0.01 %`, the spikes form one
//! *shared anomaly*.

use crate::special::ln_choose;
use serde::{Deserialize, Serialize};

/// Binomial probability mass `Pr[X = k]` for `X ~ Bin(n, p)`, computed in
/// log space for stability.
pub(crate) fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    if k > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln.exp()
}

/// The App. F shared-anomaly test for one `{location, game}` aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedAnomalyTest {
    /// Estimated per-measurement spike probability `p_e` (Eq. 1).
    pub p_e: f64,
    /// Total measurements backing the estimate.
    pub measurements: u64,
    /// Significance threshold on the independence probability; the paper
    /// uses `0.01 %` (i.e. `1e-4`).
    pub alpha: f64,
}

impl SharedAnomalyTest {
    /// The paper's significance threshold for `Pr[D spikes]`: 0.01 %.
    pub(crate) const PAPER_ALPHA: f64 = 1e-4;

    /// Build the test from spike/measurement counts (Eq. 1).
    pub fn from_counts(spikes: u64, measurements: u64) -> Option<SharedAnomalyTest> {
        if measurements == 0 {
            return None;
        }
        Some(SharedAnomalyTest {
            p_e: spikes as f64 / measurements as f64,
            measurements,
            alpha: Self::PAPER_ALPHA,
        })
    }

    /// Eq. 2: is this aggregate statistically significant enough to test?
    /// (`#measurements · p_e · (1 − p_e) > 10`.)
    pub fn is_significant(&self) -> bool {
        self.measurements as f64 * self.p_e * (1.0 - self.p_e) > 10.0
    }

    /// Eq. 3: probability that `d` of the `n` concurrently-streaming
    /// streamers spiked independently.
    pub fn independence_probability(&self, n: u64, d: u64) -> f64 {
        binomial_pmf(n, d, self.p_e)
    }

    /// The verdict: do `d` spikes among `n` active streamers form a shared
    /// anomaly? Requires Eq. 2 to hold and Eq. 3 to fall below `alpha`.
    pub fn is_shared_anomaly(&self, n: u64, d: u64) -> bool {
        self.is_significant() && self.independence_probability(n, d) <= self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(10u64, 0.3), (25, 0.05), (40, 0.9)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-10, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn pmf_known_values() {
        // Bin(4, 0.5): Pr[X=2] = 6/16.
        assert!((binomial_pmf(4, 2, 0.5) - 0.375).abs() < 1e-12);
        // Degenerate p.
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 3, 0.0), 0.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
        assert_eq!(binomial_pmf(5, 7, 0.5), 0.0, "k > n");
    }

    #[test]
    fn significance_gate() {
        // 10,000 measurements at p=0.05: 10000*0.05*0.95 = 475 > 10 — ok.
        let t = SharedAnomalyTest::from_counts(500, 10_000).unwrap();
        assert!(t.is_significant());
        // 50 measurements at p=0.02: 50*0.02*0.98 ≈ 0.98 — not enough data.
        let t = SharedAnomalyTest::from_counts(1, 50).unwrap();
        assert!(!t.is_significant());
        assert!(SharedAnomalyTest::from_counts(0, 0).is_none());
    }

    #[test]
    fn shared_anomaly_verdicts() {
        // p_e = 1%: 8 of 10 streamers spiking together is wildly improbable.
        let t = SharedAnomalyTest::from_counts(100, 10_000).unwrap();
        assert!(t.is_shared_anomaly(10, 8));
        // 0 of 10 spiking is the expected case.
        assert!(!t.is_shared_anomaly(10, 0));
        // 1 of 10 at p_e=1% has probability ~0.091 — not shared.
        assert!(!t.is_shared_anomaly(10, 1));
    }

    #[test]
    fn insignificant_aggregate_never_fires() {
        // Even a "perfect" coincidence is rejected without enough data
        // (the paper's Eq. 2 gate).
        let t = SharedAnomalyTest::from_counts(1, 20).unwrap();
        assert!(!t.is_shared_anomaly(5, 5));
    }
}
