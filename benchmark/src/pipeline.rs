//! The pipeline and mesh workloads: one repetition drives a fresh world
//! from the first window call to the completed report, through the public
//! facade only (`Tero::run_window`, `run_sharded_observed`), and checks the
//! report against the single-threaded reference.

use crate::fixture::{tero, Fixture, MIN_STREAMERS};
use crate::record::Row;
use crate::spans::Spans;
use crate::stats::{lower_floor, percentile_sorted, sorted, supported_percentile};
use crate::workloads::Kind;
use std::time::Instant;
use tero::chaos::FaultPlan;
use tero::core::pipeline::{ExtractionMode, TeroReport, WindowOutcome};
use tero::core::sharded::{run_sharded_observed, ShardedConfig, ShardedOutcome};
use tero::net::default_net_fault;
use tero::types::{SimDuration, SimTime};
use tero::world::World;

/// One repetition of a pipeline or mesh workload.
pub struct Rep {
    pub run_s: f64,
    pub finalize_s: f64,
    pub thumbnails: u64,
    /// Wall time of each window that did not finalize, in call order (ms).
    pub windows_ms: Vec<f64>,
    /// Window calls made (the final one included).
    pub attempted: u64,
    /// Window calls that came back `Killed`.
    pub killed: u64,
    /// `Err` fails every operation of the repetition.
    pub check: Result<(), String>,
}

impl Rep {
    pub fn failed(&self) -> u64 {
        if self.check.is_err() {
            self.attempted
        } else {
            self.killed
        }
    }
}

fn check_report(report: &TeroReport, fx: &Fixture) -> Result<(), String> {
    if report.digest() == fx.digest {
        Ok(())
    } else {
        Err(format!(
            "report digest differs from the single-threaded single-shot run \
             ({} vs {} thumbnails)",
            report.thumbnails, fx.reference.thumbnails
        ))
    }
}

/// Drive `fx`'s world through `window`-wide slices on `workers` threads.
pub fn windowed_rep(fx: &Fixture, window: SimDuration, workers: usize, spans: &mut Spans) -> Rep {
    let mut world = World::build(fx.config.clone());
    let tero = tero(fx.mode, workers);
    let horizon = world.horizon;
    let mut windows_ms = Vec::new();
    let (mut attempted, mut killed) = (0, 0);
    let mut to = SimTime::EPOCH + window;
    let start = Instant::now();
    let (report, finalize_s) = loop {
        let (outcome, us) = spans.record("core.run_window", |_| {
            tero.run_window(&mut world, SimTime::EPOCH, to)
        });
        attempted += 1;
        match outcome {
            WindowOutcome::Complete(report) => break (report, us / 1e6),
            WindowOutcome::Advanced => {
                windows_ms.push(us / 1e3);
                to = (to + window).min(horizon);
            }
            // No chaos is installed, so this is a failed operation; the
            // engine resumes from its commit on the next call.
            WindowOutcome::Killed => killed += 1,
        }
    };
    let run_s = start.elapsed().as_secs_f64();
    let check = check_report(&report, fx).and_then(|()| {
        tero.trace
            .ledger()
            .reconcile(&tero.obs)
            .map(|_| ())
            .map_err(|e| format!("ledger does not reconcile: {e:?}"))
    });
    Rep {
        run_s,
        finalize_s,
        thumbnails: report.thumbnails,
        windows_ms,
        attempted,
        killed,
        check,
    }
}

pub fn mesh_config(
    fx: &Fixture,
    engines: usize,
    shards: usize,
    windows: u64,
    seed: u64,
    workers: usize,
) -> ShardedConfig {
    ShardedConfig {
        engines,
        shards,
        windows,
        world: fx.config.clone(),
        mode: ExtractionMode::Calibrated,
        min_streamers: MIN_STREAMERS,
        plan: FaultPlan {
            net: default_net_fault(shards, windows),
            ..FaultPlan::quiet(seed)
        },
        net_seed: seed,
        merge_workers: workers,
        ..ShardedConfig::default()
    }
}

/// One sharded run. Windows are timed from the observer's stamps (it is
/// called after every completed window); what follows the last stamp is
/// merge plus finalize.
pub fn mesh_rep(fx: &Fixture, cfg: &ShardedConfig, spans: &mut Spans) -> (Rep, ShardedOutcome) {
    let start = Instant::now();
    let mut stamps = Vec::with_capacity(cfg.windows as usize);
    let (out, us) = spans.record("core.run_sharded_observed", |_| {
        run_sharded_observed(cfg, |_| stamps.push(start.elapsed().as_secs_f64()))
    });
    let run_s = us / 1e6;
    let windows_ms: Vec<f64> = stamps
        .iter()
        .scan(0.0, |prev, &t| {
            let d = t - *prev;
            *prev = t;
            Some(d * 1e3)
        })
        .collect();
    let completed = windows_ms.len() as u64;
    let rep = Rep {
        run_s,
        finalize_s: run_s - stamps.last().copied().unwrap_or(0.0),
        thumbnails: out.report.thumbnails,
        windows_ms,
        // Every scheduled window plus the merge-and-finalize step.
        attempted: cfg.windows + 1,
        killed: cfg.windows - completed.min(cfg.windows),
        check: check_report(&out.report, fx),
    };
    (rep, out)
}

pub fn one_rep(fx: &Fixture, kind: Kind, seed: u64, workers: usize, spans: &mut Spans) -> Rep {
    match kind {
        Kind::Pipeline { window, .. } => windowed_rep(fx, window, workers, spans),
        Kind::Mesh {
            engines,
            shards,
            windows,
        } => {
            mesh_rep(
                fx,
                &mesh_config(fx, engines, shards, windows, seed, workers),
                spans,
            )
            .0
        }
        Kind::Serve { .. } => unreachable!("serve workloads have their own loop"),
    }
}

/// End-to-end rows of a pipeline or mesh workload and the percentile the
/// tail stands for. Every repetition makes the same window calls over the
/// same world, so each call keeps its fastest occurrence (see [`Row`]): the
/// window percentiles are taken over those floors, and `run_s` is their sum
/// plus the fastest horizon call, which is all a run consists of.
pub fn e2e_rows(reps: &[Rep]) -> (Vec<Row>, f64) {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let mut floors_ms = Vec::new();
    for rep in reps {
        lower_floor(&mut floors_ms, &rep.windows_ms);
    }
    let finalize_s = per_rep(&|r| r.finalize_s);
    let finalize_floor_s = finalize_s.iter().copied().fold(f64::INFINITY, f64::min);
    let run_floor_s = floors_ms.iter().sum::<f64>() / 1e3 + finalize_floor_s;
    let floors_ms = sorted(floors_ms);
    let tail = supported_percentile(floors_ms.len());
    let pct = |p: f64| per_rep(&|r| percentile_sorted(&sorted(r.windows_ms.clone()), p));
    let mut rows = vec![
        Row::floor("run_s", "s", run_floor_s, &per_rep(&|r| r.run_s)),
        Row::floor(
            "thumbs_per_s",
            "1/s",
            reps[0].thumbnails as f64 / run_floor_s,
            &per_rep(&|r| r.thumbnails as f64 / r.run_s),
        ),
        Row::floor(
            "window_p50_ms",
            "ms",
            percentile_sorted(&floors_ms, 50.0),
            &pct(50.0),
        ),
    ];
    if tail >= 99.0 {
        rows.push(Row::floor(
            "window_p99_ms",
            "ms",
            percentile_sorted(&floors_ms, 99.0),
            &pct(99.0),
        ));
    }
    rows.push(Row::floor("finalize_s", "s", finalize_floor_s, &finalize_s));
    (rows, tail)
}
