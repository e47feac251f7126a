//! Set-up shared by every workload: the seed-sized world and the
//! single-threaded, single-shot reference run whose digest is the
//! correctness gate (and whose wall time is the single-thread baseline).
//! All of it is charged to `setup_s`.

use crate::spans::Spans;
use crate::workloads::{Size, Workload};
use tero::core::pipeline::{ExtractionMode, Tero, TeroReport};
use tero::store::KvStore;
use tero::world::{World, WorldConfig};

/// Publish threshold used throughout: small pinned groups must clear it.
pub const MIN_STREAMERS: usize = 2;

pub fn tero(mode: ExtractionMode, workers: usize) -> Tero {
    Tero {
        mode,
        min_streamers: MIN_STREAMERS,
        worker_threads: workers,
        ..Tero::default()
    }
}

pub struct Fixture {
    pub config: WorldConfig,
    /// World seeds drawn before one met the stated size.
    pub draws: usize,
    pub world_samples: usize,
    pub mode: ExtractionMode,
    pub reference: TeroReport,
    pub digest: String,
    /// Wall time of the single-threaded `Tero::run` (seconds).
    pub reference_s: f64,
    /// The reference run's committed store: serving sketches, sample
    /// lists, counters — what the store and sketch probes size against.
    pub store: KvStore,
}

pub fn build(workload: &Workload, size: &Size, seed: u64, spans: &mut Spans) -> Fixture {
    let (config, draws) = workload.world_config(size, seed);
    let mode = workload.mode();
    let (mut world, _) = spans.record("world.build", |_| World::build(config.clone()));
    let world_samples = world.total_samples();
    let single = tero(mode, 1);
    let (reference, us) = spans.record("core.run", |_| single.run(&mut world));
    let store = single
        .serving_store()
        .expect("a completed run leaves its store behind");
    Fixture {
        config,
        draws,
        world_samples,
        mode,
        digest: reference.digest(),
        reference,
        reference_s: us / 1e6,
        store,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
