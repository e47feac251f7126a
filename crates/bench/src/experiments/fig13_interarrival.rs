//! Fig 13 — CDF of thumbnail inter-arrival time.
//!
//! Measured from the download module's actual fetch timestamps over a
//! simulated world. The paper: inter-arrivals concentrate in [300 s,
//! ~400 s] with a 90th percentile of 6 minutes (which sets App. F's
//! 12-minute shared-anomaly window).

use crate::{header, Args, Outcome, Text};
use serde::Serialize;
use tero_core::download::DownloadModule;
use tero_store::{KvStore, ObjectStore};
use tero_types::SimTime;
use tero_world::{World, WorldConfig};

#[derive(Serialize)]
struct Output {
    count: usize,
    p10_s: f64,
    p50_s: f64,
    p90_s: f64,
    p99_s: f64,
    cdf: Vec<(u64, f64)>,
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let n = args.count("--n");
    header(&mut text, "Fig 13: CDF of thumbnail inter-arrival time");

    let mut world = World::build(WorldConfig {
        seed: 13,
        n_streamers: n,
        days: 5,
        ..WorldConfig::default()
    });
    let mut module = DownloadModule::new(KvStore::new(), ObjectStore::new());
    let horizon = world.horizon;
    module.run(&mut world, SimTime::EPOCH, horizon);
    let mut tasks = module.drain_tasks();
    tasks.sort_by_key(|t| (t.streamer.as_str().to_string(), t.generated_at));

    // Inter-arrivals between consecutive thumbnails of the same streamer,
    // within one stream (gaps beyond 45 min are stream boundaries).
    let mut gaps_s: Vec<f64> = Vec::new();
    for pair in tasks.windows(2) {
        if pair[0].streamer == pair[1].streamer {
            let gap = pair[1]
                .generated_at
                .since(pair[0].generated_at)
                .as_secs_f64();
            if gap < 2_700.0 {
                gaps_s.push(gap);
            }
        }
    }
    gaps_s.sort_by(f64::total_cmp);
    let pct = |p: f64| tero_stats::descriptive::percentile_sorted(&gaps_s, p);

    writeln!(text, "inter-arrivals measured: {}", gaps_s.len());
    writeln!(
        text,
        "p10 {:.0} s   p50 {:.0} s   p90 {:.0} s   p99 {:.0} s",
        pct(10.0),
        pct(50.0),
        pct(90.0),
        pct(99.0)
    );
    writeln!(
        text,
        "(paper: mass in [300 s, ~400 s], 90th percentile = 6 min = 360 s)"
    );
    writeln!(text);
    writeln!(text, "CDF:");
    let mut cdf = Vec::new();
    for &t in &[300u64, 320, 340, 360, 380, 400, 600, 1200, 2400] {
        let frac =
            gaps_s.iter().filter(|&&g| g <= t as f64).count() as f64 / gaps_s.len().max(1) as f64;
        writeln!(text, "  ≤ {t:>5} s: {:>5.1}%", 100.0 * frac);
        cdf.push((t, frac));
    }

    Outcome::with_json(
        text,
        "fig13_interarrival",
        &Output {
            count: gaps_s.len(),
            p10_s: pct(10.0),
            p50_s: pct(50.0),
            p90_s: pct(90.0),
            p99_s: pct(99.0),
            cdf,
        },
    )
}
