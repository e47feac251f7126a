//! Detector cost comparison — the ablation behind §3.3.2's observation
//! that PELT "did not complete in useful time" while the QoE-based
//! detector is linear-ish, plus App. J's baselines (LOF quadratic, iForest
//! ensemble cost, MCD sort-based), plus the probit and Wasserstein costs.
//! The rows back EXPERIMENTS.md's App. J cost argument (docs/PERFORMANCE.md,
//! *Detector cost*).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tero_core::analysis::anomaly::detect_anomalies;
use tero_core::analysis::segments::segment_stream;
use tero_stats::lof::local_outlier_factor;
use tero_stats::{pelt_mean_shift, wasserstein_1d, IsolationForest, ProbitModel, UnivariateMcd};
use tero_types::{LatencySample, SimRng, SimTime, TeroParams};

fn noisy_series(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|i| {
            let level = if (i / 97) % 2 == 0 { 45.0 } else { 70.0 };
            let glitch = if rng.chance(0.02) { -35.0 } else { 0.0 };
            level + glitch + rng.normal_with(0.0, 2.0)
        })
        .collect()
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector_cost");
    for n in [300usize, 1_000, 3_000] {
        let xs = noisy_series(n, 1);
        let samples: Vec<LatencySample> = xs
            .iter()
            .enumerate()
            .map(|(i, &v)| LatencySample::new(SimTime::from_mins(5 * i as u64), v.max(1.0) as u32))
            .collect();
        let params = TeroParams::default();

        group.bench_with_input(BenchmarkId::new("qoe_based", n), &samples, |b, s| {
            b.iter(|| {
                let segs = segment_stream(0, s, &params);
                detect_anomalies(segs, &params)
            })
        });
        group.bench_with_input(BenchmarkId::new("pelt", n), &xs, |b, xs| {
            b.iter(|| pelt_mean_shift(xs, tero_stats::changepoint::bic_penalty(xs), 3))
        });
        group.bench_with_input(BenchmarkId::new("lof_k10", n), &xs, |b, xs| {
            b.iter(|| local_outlier_factor(xs, 10))
        });
        group.bench_with_input(BenchmarkId::new("mcd", n), &xs, |b, xs| {
            b.iter(|| UnivariateMcd::fit(xs, None))
        });
        group.bench_with_input(BenchmarkId::new("iforest", n), &xs, |b, xs| {
            b.iter(|| {
                let mut rng = SimRng::new(2);
                IsolationForest::fit(xs, 50, 128, &mut rng).scores(xs)
            })
        });
    }
    group.finish();
}

fn bench_probit(c: &mut Criterion) {
    let mut rng = SimRng::new(3);
    let mut model = ProbitModel::new();
    for _ in 0..10_000 {
        let x = rng.below(6) as f64;
        let p = tero_stats::norm_cdf(-1.2 + 0.2 * x);
        model.push(x, rng.chance(p));
    }
    c.bench_function("probit_fit_10k", |b| b.iter(|| model.fit()));
}

fn bench_wasserstein(c: &mut Criterion) {
    let a = noisy_series(2_000, 4);
    let b_ = noisy_series(2_000, 5);
    c.bench_function("wasserstein_2k_vs_2k", |b| {
        b.iter(|| wasserstein_1d(&a, &b_))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_detectors, bench_probit, bench_wasserstein);
criterion_main!(benches);
