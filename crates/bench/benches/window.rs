//! Long-horizon cleaning under windowed execution: the cost of one more
//! window must track that window's new data, not the history behind it
//! (docs/CLEANING.md cites these rows). What windowing itself costs — a
//! run sliced into N windows against the single shot, and the floor of a
//! window that ingests nothing — is measured by the benchmark harness
//! (`run_s` and `engine.window_empty_us` of `bash benchmark/run.sh`),
//! not here.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use tero_core::pipeline::{ExtractionMode, Tero, WindowOutcome};
use tero_types::{SimDuration, SimTime};
use tero_world::{World, WorldConfig};

fn build_tero() -> Tero {
    Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        worker_threads: 2,
        ..Tero::default()
    }
}

fn bench_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("window");
    group.sample_size(10);

    // Long-horizon cleaning: the cost of one more 1-day window must track
    // that window's new data, not the total history (docs/CLEANING.md —
    // the online cleaner seals finished blocks and re-detects only the
    // anchor + tail). Setup drives the run to day `days - 2`; the
    // measured routine executes the *next* 1-day window — same new data
    // in every variant, history growing from 1 to 7 days — so a flat
    // series across `days` is the proof. `min_streamers` is set above
    // any group size so the aggregation pass's distribution rebuilds
    // (which legitimately summarise all history, like sketch commits)
    // stay out of the measurement.
    // The same scaling claim from the other side: 16 near-empty sliver
    // windows *after the whole history has been fed and sealed*. A
    // sliver feeds (almost) no new samples, so the cleaner's work is a
    // cursor scan plus an unchanged-membership serving check — if any
    // part of the per-window path re-touched sealed history, this row
    // would grow ~4× from `3` to `9`. It must stay flat.
    for days in [3u64, 5, 9] {
        group.bench_function(BenchmarkId::new("clean_sliver_after_days", days), |b| {
            b.iter_batched(
                || {
                    let mut world = World::build(WorldConfig {
                        seed: 7,
                        n_streamers: 12,
                        days,
                        ..WorldConfig::default()
                    });
                    let tero = Tero {
                        min_streamers: usize::MAX,
                        ..build_tero()
                    };
                    let day = SimDuration::from_hours(24);
                    let mut to = SimTime::EPOCH + day;
                    for _ in 0..days - 1 {
                        assert!(matches!(
                            tero.run_window(&mut world, SimTime::EPOCH, to),
                            WindowOutcome::Advanced
                        ));
                        to += day;
                    }
                    (world, tero, to - day)
                },
                |(mut world, tero, mut to)| {
                    for _ in 0..16 {
                        to += SimDuration::from_secs(1);
                        match tero.run_window(&mut world, SimTime::EPOCH, to) {
                            WindowOutcome::Advanced => {}
                            _ => unreachable!("bound is below the horizon"),
                        }
                    }
                    black_box(to)
                },
                BatchSize::PerIteration,
            )
        });
    }

    for days in [3u64, 5, 9] {
        group.bench_function(BenchmarkId::new("clean_marginal_day", days), |b| {
            b.iter_batched(
                || {
                    let mut world = World::build(WorldConfig {
                        seed: 7,
                        n_streamers: 12,
                        days,
                        ..WorldConfig::default()
                    });
                    let tero = Tero {
                        min_streamers: usize::MAX,
                        ..build_tero()
                    };
                    let day = SimDuration::from_hours(24);
                    let mut to = SimTime::EPOCH + day;
                    for _ in 0..days - 2 {
                        assert!(matches!(
                            tero.run_window(&mut world, SimTime::EPOCH, to),
                            WindowOutcome::Advanced
                        ));
                        to += day;
                    }
                    (world, tero, to)
                },
                |(mut world, tero, to)| {
                    assert!(matches!(
                        tero.run_window(&mut world, SimTime::EPOCH, to),
                        WindowOutcome::Advanced
                    ));
                    black_box(to)
                },
                BatchSize::PerIteration,
            )
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_window
}
criterion_main!(benches);
