//! # tero-stats
//!
//! Statistics substrate for the Tero reproduction.
//!
//! Everything the paper's analysis needs, implemented from scratch:
//!
//! * [`descriptive`] — means, variances, percentiles, and the 5/25/50/75/95
//!   boxplot statistics used for every latency distribution (§5.2);
//! * `special` — `erf`, the normal pdf/cdf and its inverse, `ln Γ`;
//! * `binomial` — the shared-anomaly statistical test of App. F
//!   (after Padmanabhan et al. \[41\]);
//! * `wasserstein` — 1-D optimal transport distance and the *uneven-ness*
//!   score of Fig 8;
//! * `probit` — Probit regression by Newton–Raphson MLE with average
//!   marginal effects and Wald significance (§6, Table 5);
//! * [`changepoint`] — PELT (Killick et al. \[26\]), the changepoint baseline
//!   the paper tried before designing its QoE-based detector (§3.3.2);
//! * [`lof`], `iforest`, `mcd` — the three unsupervised anomaly-detection
//!   baselines of App. J (Local Outlier Factor, Isolation Forest, Minimum
//!   Covariance Determinant);
//! * `outliers` — the inter-quartile-range rule used to threshold
//!   Isolation-Forest scores (App. J);
//! * `sketch` — the mergeable DDSketch-style quantile sketch behind the
//!   `tero-serve` query front-end (percentile/CDF/histogram/Wasserstein
//!   answers within a documented relative-error bound).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod binomial;
pub mod changepoint;
pub mod descriptive;
mod iforest;
pub mod lof;
mod mcd;
mod outliers;
mod probit;
mod sketch;
mod special;
mod wasserstein;

pub use binomial::SharedAnomalyTest;
pub use changepoint::pelt_mean_shift;
pub use descriptive::{mean, percentile, percentile_nearest_rank, BoxplotStats};
pub use iforest::IsolationForest;
pub use mcd::UnivariateMcd;
pub use probit::{ProbitFit, ProbitModel};
pub use sketch::{QuantileSketch, DEFAULT_ALPHA};
pub use special::norm_cdf;
pub use wasserstein::{unevenness_score, wasserstein_1d};
