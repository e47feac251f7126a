//! PELT changepoint detection (Killick, Fearnhead & Eckley \[26\]) — batch
//! and streaming.
//!
//! The paper tried PELT on its latency series before designing the QoE-based
//! detector, and found it impractical on OCR-noisy data (§3.3.2). We
//! implement it both as a baseline for comparison and because Tero's own
//! detector "is a simple form of changepoint detection with extra steps".
//!
//! Two entry points share one implementation:
//!
//! * [`pelt_mean_shift`] — the offline baseline: hand it the whole series.
//! * [`OnlinePelt`] — the streaming form: [`OnlinePelt::push`] one value at
//!   a time and read [`OnlinePelt::segment_ends`] whenever a fresh
//!   segmentation is needed. The PELT recursion is already sequential in
//!   the series index — `f[t]` depends only on `f[0..t]` and prefix sums —
//!   so the online detector runs the *identical* float operations in the
//!   identical order, and its horizon output is **byte-equal** to the
//!   batch call on the same values (enforced by the tests here). The
//!   only caveat is the penalty: a data-
//!   dependent penalty like [`bic_penalty`] needs the full series, so the
//!   exact contract holds under any *fixed* penalty chosen up front.
//!
//! The cost function is the within-segment sum of squared deviations from
//! the segment mean (the classical mean-shift cost); the default penalty is
//! the BIC-style `β = 2 σ̂² ln n`.

/// Cost of segment `[a, b)` under the mean-shift model, from prefix sums:
/// `Σx² − (Σx)²/len`.
#[inline]
fn seg_cost(s1: &[f64], s2: &[f64], a: usize, b: usize) -> f64 {
    let len = (b - a) as f64;
    let sum = s1[b] - s1[a];
    (s2[b] - s2[a]) - sum * sum / len
}

/// Streaming PELT under the mean-shift cost (§3.3.2's changepoint
/// baseline, in online form).
///
/// §3.3.2 motivates this detector: Tero's glitch/spike scan "is a simple
/// form of changepoint detection with extra steps", and the paper
/// evaluated PELT on the same series before settling on the QoE-based
/// rules. App. J cross-validates the resulting anomaly labels against
/// LOF, Isolation Forest and MCD — the division of labour being that the
/// changepoint layer explains *level shifts* (server changes, route
/// changes) while the App. J outlier baselines explain *point anomalies*
/// (spikes, OCR glitches); `online_detector_cross_validates_against_app_j_baselines`
/// in this module pins that split.
///
/// State per tracked series is `O(n)` (prefix sums plus the dynamic-
/// programming arrays); each [`OnlinePelt::push`] costs `O(|candidates|)`,
/// which PELT's pruning keeps small on series with detectable structure.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlinePelt {
    penalty: f64,
    min_seg: usize,
    /// Prefix sums of the values (`s1[i]` = sum of the first `i`).
    s1: Vec<f64>,
    /// Prefix sums of the squared values.
    s2: Vec<f64>,
    /// `f[t]` = optimal cost of the first `t` values.
    f: Vec<f64>,
    /// `cp[t]` = last changepoint before `t` in the optimal segmentation.
    cp: Vec<usize>,
    /// PELT's pruned candidate set for the next step.
    candidates: Vec<usize>,
}

impl OnlinePelt {
    /// A fresh detector. `penalty` trades off fit against the number of
    /// changepoints (must be fixed up front — see the module docs for why
    /// a data-dependent penalty forfeits the byte-equality contract);
    /// `min_seg_len` is the minimum number of points per segment (≥ 1).
    pub fn new(penalty: f64, min_seg_len: usize) -> OnlinePelt {
        OnlinePelt {
            penalty,
            min_seg: min_seg_len.max(1),
            s1: vec![0.0],
            s2: vec![0.0],
            f: vec![-penalty],
            cp: vec![0],
            candidates: vec![0],
        }
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        self.s1.len() - 1
    }

    /// Whether no values have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feed the next value. Runs one step of the PELT recursion — the
    /// exact loop body of the batch algorithm at `t = len()`.
    pub fn push(&mut self, x: f64) {
        let i = self.len();
        self.s1.push(self.s1[i] + x);
        self.s2.push(self.s2[i] + x * x);
        self.f.push(f64::INFINITY);
        self.cp.push(0);
        let t = i + 1;
        if t < self.min_seg {
            return;
        }
        let min_seg = self.min_seg;
        let penalty = self.penalty;
        let (s1, s2, f, cp, candidates) = (
            &self.s1,
            &self.s2,
            &mut self.f,
            &mut self.cp,
            &mut self.candidates,
        );
        let mut best = f64::INFINITY;
        let mut best_tau = 0;
        for &tau in candidates.iter() {
            if t - tau < min_seg {
                continue;
            }
            let c = f[tau] + seg_cost(s1, s2, tau, t) + penalty;
            if c < best {
                best = c;
                best_tau = tau;
            }
        }
        f[t] = best;
        cp[t] = best_tau;

        // PELT pruning: drop candidates that can never be optimal again.
        let ft = f[t];
        candidates.retain(|&tau| t - tau < min_seg || f[tau] + seg_cost(s1, s2, tau, t) <= ft);
        candidates.push(t.saturating_sub(min_seg - 1).max(1).min(t));
        // Keep candidate list sorted-unique (push may duplicate).
        candidates.sort_unstable();
        candidates.dedup();
    }

    /// The current optimal segmentation: *segment end indices*
    /// (exclusive), always ending with `len()` — e.g. `[5, 12]` means
    /// segments `0..5` and `5..12`. Identical to
    /// [`pelt_mean_shift`] over the values pushed so far.
    pub fn segment_ends(&self) -> Vec<usize> {
        let n = self.len();
        if n == 0 {
            return vec![];
        }
        if n < 2 * self.min_seg {
            return vec![n];
        }
        let mut ends = vec![n];
        let mut t = n;
        while self.cp[t] > 0 {
            t = self.cp[t];
            ends.push(t);
        }
        ends.reverse();
        ends
    }

    /// Number of changepoints in the current optimal segmentation
    /// (segments − 1). Later pushes may *revise* this downward as well as
    /// up — PELT re-optimises globally — so a count read mid-stream is
    /// not a prefix of the final one.
    pub fn change_count(&self) -> usize {
        self.segment_ends().len().saturating_sub(1)
    }
}

/// Detect changepoints in `xs` with the PELT algorithm under the mean-shift
/// cost. Returns the *segment end indices* (exclusive), always ending with
/// `xs.len()` — e.g. `[5, 12]` means segments `0..5` and `5..12`.
///
/// `penalty` trades off fit against the number of changepoints; use
/// [`bic_penalty`] for a standard default. `min_seg_len` is the minimum
/// number of points per segment (≥ 1).
///
/// This is a thin wrapper over [`OnlinePelt`]: the batch and streaming
/// detectors are one implementation, which is what makes their
/// equivalence exact rather than approximate.
pub fn pelt_mean_shift(xs: &[f64], penalty: f64, min_seg_len: usize) -> Vec<usize> {
    let mut pelt = OnlinePelt::new(penalty, min_seg_len);
    for &x in xs {
        pelt.push(x);
    }
    pelt.segment_ends()
}

/// BIC-style penalty for the mean-shift cost: `2 σ̂² ln n`, with σ̂ estimated
/// robustly from first differences (MAD), so that level shifts do not
/// inflate it.
///
/// Note this penalty reads the *whole* series (`n` and the MAD), so it is
/// only available offline; the streaming [`OnlinePelt`] requires a fixed
/// penalty chosen up front (see the module docs).
pub fn bic_penalty(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 3 {
        return 1.0;
    }
    let mut diffs: Vec<f64> = xs.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
    diffs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mad = diffs[diffs.len() / 2];
    // σ ≈ MAD/ (0.6745 · sqrt(2)) for Gaussian first differences.
    let sigma = (mad / (0.6745 * std::f64::consts::SQRT_2)).max(1e-6);
    2.0 * sigma * sigma * (n as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_types::SimRng;

    fn noisy_levels(levels: &[(f64, usize)], sd: f64, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        let mut xs = Vec::new();
        for &(mu, len) in levels {
            for _ in 0..len {
                xs.push(rng.normal_with(mu, sd));
            }
        }
        xs
    }

    #[test]
    fn no_change_yields_single_segment() {
        let xs = noisy_levels(&[(50.0, 200)], 1.0, 1);
        let ends = pelt_mean_shift(&xs, bic_penalty(&xs), 3);
        assert_eq!(ends, vec![200]);
    }

    #[test]
    fn detects_single_shift() {
        let xs = noisy_levels(&[(30.0, 100), (80.0, 100)], 1.5, 2);
        let ends = pelt_mean_shift(&xs, bic_penalty(&xs), 3);
        assert_eq!(ends.len(), 2, "ends {ends:?}");
        assert!((ends[0] as i64 - 100).unsigned_abs() <= 2, "ends {ends:?}");
        assert_eq!(*ends.last().unwrap(), 200);
    }

    #[test]
    fn detects_multiple_shifts() {
        let xs = noisy_levels(&[(20.0, 80), (60.0, 60), (35.0, 80)], 2.0, 3);
        let ends = pelt_mean_shift(&xs, bic_penalty(&xs), 3);
        assert_eq!(ends.len(), 3, "ends {ends:?}");
        assert!((ends[0] as i64 - 80).unsigned_abs() <= 3);
        assert!((ends[1] as i64 - 140).unsigned_abs() <= 3);
    }

    #[test]
    fn penalty_controls_sensitivity() {
        let xs = noisy_levels(&[(30.0, 50), (45.0, 50)], 2.0, 4);
        // Huge penalty: no changepoints.
        let ends = pelt_mean_shift(&xs, 1e9, 3);
        assert_eq!(ends, vec![100]);
        // Tiny penalty: many changepoints.
        let ends = pelt_mean_shift(&xs, 1e-6, 3);
        assert!(ends.len() > 2);
    }

    #[test]
    fn respects_min_segment_length() {
        let xs = noisy_levels(&[(10.0, 30), (90.0, 30)], 1.0, 5);
        let ends = pelt_mean_shift(&xs, 1e-6, 10);
        for w in ends.windows(2) {
            assert!(w[1] - w[0] >= 10, "segment too short: {ends:?}");
        }
        assert!(ends[0] >= 10);
    }

    #[test]
    fn edge_cases() {
        assert!(pelt_mean_shift(&[], 1.0, 3).is_empty());
        assert_eq!(pelt_mean_shift(&[1.0], 1.0, 3), vec![1]);
        assert_eq!(pelt_mean_shift(&[1.0, 2.0, 3.0], 1.0, 3), vec![3]);
        let empty = OnlinePelt::new(1.0, 3);
        assert!(empty.is_empty());
        assert!(empty.segment_ends().is_empty());
        assert_eq!(empty.change_count(), 0);
    }

    #[test]
    fn segments_partition_input() {
        let xs = noisy_levels(&[(5.0, 40), (25.0, 40), (5.0, 40)], 1.0, 6);
        let ends = pelt_mean_shift(&xs, bic_penalty(&xs), 3);
        assert_eq!(*ends.last().unwrap(), xs.len());
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
    }

    /// The equivalence contract (docs/CLEANING.md): at every prefix
    /// length, the streaming detector's segmentation is byte-equal to the
    /// batch call on the same values — not approximately, exactly.
    #[test]
    fn online_matches_batch_at_every_prefix() {
        let xs = noisy_levels(&[(30.0, 40), (75.0, 35), (30.0, 25), (55.0, 30)], 2.5, 7);
        for (penalty, min_seg) in [(bic_penalty(&xs), 3), (50.0, 1), (5.0, 6), (1e9, 3)] {
            let mut online = OnlinePelt::new(penalty, min_seg);
            for (i, &x) in xs.iter().enumerate() {
                online.push(x);
                let batch = pelt_mean_shift(&xs[..=i], penalty, min_seg);
                assert_eq!(
                    online.segment_ends(),
                    batch,
                    "prefix {} penalty {penalty} min_seg {min_seg}",
                    i + 1
                );
            }
        }
    }

    /// Feeding the same values in differently-sized chunks (the window
    /// schedules of the staged engine) cannot change the detector: state
    /// depends only on the value sequence.
    #[test]
    fn online_state_is_schedule_invariant() {
        let xs = noisy_levels(&[(20.0, 50), (60.0, 50)], 1.5, 8);
        let feed = |chunk: usize| {
            let mut p = OnlinePelt::new(40.0, 3);
            for c in xs.chunks(chunk) {
                for &x in c {
                    p.push(x);
                }
            }
            p
        };
        let whole = feed(xs.len());
        for chunk in [1, 7, 33] {
            assert_eq!(feed(chunk), whole, "chunk size {chunk}");
        }
    }

    /// App. J cross-validation: on a series with one genuine level shift
    /// plus injected point spikes, the changepoint layer must explain the
    /// *shift* (a boundary near the true change) while the App. J outlier
    /// baselines — LOF, Isolation Forest, MCD — each flag the *spikes*
    /// and leave the shifted plateau alone. This is the division of
    /// labour docs/CLEANING.md documents: level shifts are structure,
    /// spikes are anomalies, and neither detector family explains the
    /// other's signal away.
    #[test]
    fn online_detector_cross_validates_against_app_j_baselines() {
        let mut xs = noisy_levels(&[(30.0, 60), (70.0, 60)], 1.0, 9);
        let spike_idxs = [20usize, 90];
        for &i in &spike_idxs {
            xs[i] = 160.0;
        }

        // Streaming changepoint: boundary near the true shift at 60.
        let mut online = OnlinePelt::new(bic_penalty(&xs), 5);
        for &x in &xs {
            online.push(x);
        }
        let ends = online.segment_ends();
        assert!(
            ends.iter().any(|&e| (e as i64 - 60).unsigned_abs() <= 3),
            "no boundary near the level shift: {ends:?}"
        );

        // LOF (App. J's k-tuned variant) flags the spikes, not the shift.
        let lof = crate::lof::lof_outliers(&xs, 5, 1.5);
        for &i in &spike_idxs {
            assert!(lof.contains(&i), "LOF missed spike at {i}: {lof:?}");
        }
        assert!(
            !lof.contains(&65),
            "LOF flagged the post-shift plateau as an outlier"
        );

        // Isolation Forest scores the spikes as the most isolated points.
        let mut rng = SimRng::new(42);
        let forest = crate::iforest::IsolationForest::fit(&xs, 100, 64, &mut rng);
        let scores = forest.scores(&xs);
        for &i in &spike_idxs {
            assert!(
                scores[i] > scores[65],
                "iForest score at spike {i} not above plateau"
            );
        }

        // MCD robust distances: spikes far outside, plateau inside.
        let mcd = crate::mcd::UnivariateMcd::fit(&xs, None).expect("fit succeeds");
        let outliers = mcd.outliers_by_contamination(&xs, 0.05);
        for &i in &spike_idxs {
            assert!(outliers.contains(&i), "MCD missed spike at {i}");
        }
    }
}
