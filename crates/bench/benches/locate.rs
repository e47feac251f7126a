//! Budgeted locate + incremental aggregation overhead: what the
//! per-window locate slice and the dirty-group aggregation pass cost as
//! history grows. The scaling claim (docs/AGGREGATION.md): a window's
//! aggregation cost tracks *that window's dirty groups*, not total
//! history — clean groups keep their analyses, so a window
//! that feeds no new data re-analyses nothing. The numbers feed
//! docs/PERFORMANCE.md.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use tero_core::pipeline::{ExtractionMode, Tero, WindowOutcome};
use tero_types::{GameId, Location, SimDuration, SimTime};
use tero_world::{World, WorldConfig};

/// The §5.2 pinned workload shape, so `{location, game}` groups clear
/// `min_streamers` and the aggregation pass has real groups to maintain
/// (a random small world rarely publishes anything mid-run).
fn build_world(days: u64) -> World {
    let locations = [
        Location::country("Netherlands"),
        Location::country("Poland"),
        Location::region("United States", "Illinois"),
    ];
    let pinned = locations
        .iter()
        .map(|l| (l.clone(), GameId::LeagueOfLegends, 8))
        .collect();
    World::build(WorldConfig {
        seed: 7,
        n_streamers: 0,
        days,
        pinned,
        api_budget_per_min: 2_000,
        ..WorldConfig::default()
    })
}

fn build_tero() -> Tero {
    Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        worker_threads: 2,
        ..Tero::default()
    }
}

fn bench_locate(c: &mut Criterion) {
    let mut group = c.benchmark_group("locate");
    group.sample_size(10);

    // Dirty-group scaling, from the clean side: 16 near-empty sliver
    // windows *after the whole history has been fed*. A sliver feeds no
    // new samples, so no series is pending, no group membership moves,
    // and the aggregation pass re-analyses zero groups — its work is a
    // membership diff over the live groups plus the locate stage's
    // empty-queue scan. If any part of the per-window locate/agg path
    // re-analysed committed groups against total history, this series
    // would grow from `3` to `9` days. It must stay flat.
    for days in [3u64, 5, 9] {
        group.bench_function(BenchmarkId::new("agg_sliver_after_days", days), |b| {
            b.iter_batched(
                || {
                    let mut world = build_world(days);
                    let tero = build_tero();
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

    // The marginal full window: setup drives the run to day `days - 2`,
    // the measured routine executes the *next* 1-day window — the same
    // new data in every variant, history growing from 1 to 7 days. Every
    // group with a fed member is dirty, so this row pays the locate
    // slice and the dirty-group re-analyses, which re-serve; the
    // dirty-group *count* is the same in every variant, so growth across
    // `days` is bounded by the re-analysed members' own histories, never
    // by groups the window left clean.
    for days in [3u64, 5, 9] {
        group.bench_function(BenchmarkId::new("agg_marginal_day", days), |b| {
            b.iter_batched(
                || {
                    let mut world = build_world(days);
                    let tero = build_tero();
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

    // The budget dial: one first window, unlimited vs tightly budgeted.
    // A tight budget defers most profile lookups (and their simulated
    // API calls) to later windows, trading per-window locate cost for
    // provisional serving — the deferral machinery itself must cost
    // nothing measurable.
    for (label, budget) in [("unlimited", None), ("budget_10", Some(10u64))] {
        group.bench_function(BenchmarkId::new("first_window", label), |b| {
            b.iter_batched(
                || {
                    let world = build_world(3);
                    let tero = Tero {
                        locate_budget: budget,
                        ..build_tero()
                    };
                    (world, tero)
                },
                |(mut world, tero)| {
                    let day = SimDuration::from_hours(24);
                    assert!(matches!(
                        tero.run_window(&mut world, SimTime::EPOCH, SimTime::EPOCH + day),
                        WindowOutcome::Advanced
                    ));
                    black_box(tero.engine_snapshot().is_some())
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
    targets = bench_locate
}
criterion_main!(benches);
