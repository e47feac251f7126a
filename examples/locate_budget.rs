//! Budgeted-locate explorer: drive a pinned-streamer world through
//! 1-day windows under a deliberately tight per-window API budget and
//! watch the location coverage ramp — spend, carry-over queue, and the
//! served distributions flipping from provisional (`p`) to canonical
//! (`c`) as budgeted profile lookups land (docs/AGGREGATION.md).
//!
//! ```sh
//! cargo run --release --example locate_budget           # default seed
//! cargo run --release --example locate_budget -- 7      # explicit seed
//! ```
//!
//! Every window the locate stage admits queued streamers while the
//! budget covers the worst-case lookup cost, defers the rest, and
//! locates the still-queued provisionally from their social profile; the
//! aggregation pass groups series under whatever locations are canonical
//! so far, else provisional, and serves the groups it re-analysed. At the
//! horizon the queue is drained regardless of budget, so the final
//! report and committed state are byte-identical to an unbudgeted run
//! (`tests/determinism.rs`). Each window line ends with an FNV-1a digest
//! of every served distribution sketch and marker, key and value, so the
//! mid-run serving bytes are checked too. Stdout is **byte-stable**: for
//! a fixed seed it is identical across repeat runs and worker counts,
//! because everything printed derives from committed `engine:locate:*` /
//! `engine:serve:*` state and deterministic counters. `scripts/ci.sh`
//! runs this example twice and diffs stdout.

use tero::core::pipeline::{ExtractionMode, Tero, WindowOutcome};
use tero::core::serving::{dist_meta_key, dist_provenance, DistProvenance, DIST_SKETCH_PREFIX};
use tero::core::stages::locate::LOCATE_PROFILES_KEY;
use tero::core::stages::NAMES_KEY;
use tero::store::KvStore;
use tero::types::{GameId, Location, SimDuration, SimTime};
use tero::world::{World, WorldConfig};

/// Canonical-vs-provisional marker counts over every committed
/// distribution sketch.
fn served_provenance(kv: &KvStore) -> (usize, usize) {
    let mut canonical = 0;
    let mut provisional = 0;
    for key in kv.keys_with_prefix(DIST_SKETCH_PREFIX) {
        match dist_provenance(kv, &key).expect("every served sketch carries a marker") {
            DistProvenance::Canonical => canonical += 1,
            DistProvenance::Provisional => provisional += 1,
        }
    }
    (canonical, provisional)
}

/// FNV-1a over every committed distribution sketch and its marker, key
/// and value, in key order.
fn served_digest(kv: &KvStore) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for key in kv.keys_with_prefix(DIST_SKETCH_PREFIX) {
        let meta = dist_meta_key(&key).expect("a dist key");
        let (sketch, marker) = (kv.get(&key), kv.get(&meta));
        for part in [Some(key), sketch, Some(meta), marker] {
            for byte in part.unwrap_or_default().bytes().chain([0]) {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("seed must be a u64"))
        .unwrap_or(7);

    // The §5.2 workload shape (streamers pinned to a few places, so
    // groups clear `min_streamers` from the first window on), with a
    // budget tight enough that coverage takes several windows to ramp:
    // 24 streamers, worst-case 5 calls each, 10 calls per window.
    let locations = [
        Location::country("Netherlands"),
        Location::country("Poland"),
        Location::region("United States", "Illinois"),
    ];
    let pinned = locations
        .iter()
        .map(|l| (l.clone(), GameId::LeagueOfLegends, 8))
        .collect();
    let mut world = World::build(WorldConfig {
        seed,
        n_streamers: 0,
        days: 6,
        pinned,
        api_budget_per_min: 2_000,
        ..WorldConfig::default()
    });
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        locate_budget: Some(10),
        ..Tero::default()
    };

    println!("== budgeted locate ramp (seed {seed}, budget 10 calls/window) ==");
    let horizon = world.horizon;
    let day = SimDuration::from_hours(24);
    let mut to = SimTime::EPOCH + day;
    let mut window = 0u32;
    let report = loop {
        match tero.run_window(&mut world, SimTime::EPOCH, to) {
            WindowOutcome::Complete(report) => break report,
            WindowOutcome::Advanced => {
                window += 1;
                let snap = tero.engine_snapshot().expect("run in flight");
                let kv = KvStore::new();
                kv.restore(&snap.kv);
                let seen = kv.hgetall(NAMES_KEY).len();
                let settled = kv.hgetall(LOCATE_PROFILES_KEY).len();
                let metrics = tero.metrics_snapshot();
                let spent = metrics.counter("locate.budget.spent").unwrap_or(0);
                let queued = metrics
                    .gauge("locate.queue.depth")
                    .map(|g| g.value)
                    .unwrap_or(0);
                let (canonical, provisional) = served_provenance(&kv);
                println!(
                    "window {window}: spent={spent} settled={settled}/{seen} queued={queued} \
                     served c={canonical} p={provisional} digest={:016x}",
                    served_digest(&kv)
                );
                to = (to + day).min(horizon);
            }
            WindowOutcome::Killed => unreachable!("no chaos installed"),
        }
    };

    // The horizon drain ignores the budget: the queue empties, the
    // aggregation pass after it flips every provisional group to the
    // settled canonical analysis, and every marker reads canonical.
    let store = tero.serving_store().expect("run completed");
    let (canonical, provisional) = served_provenance(&store);
    assert_eq!(
        provisional, 0,
        "the horizon serves canonical locations only"
    );
    println!();
    println!(
        "horizon: {} streamers located, served c={canonical} p={provisional} digest={:016x}",
        report.locations.len(),
        served_digest(&store)
    );
    let metrics = tero.metrics_snapshot();
    println!(
        "budget: {} calls spent in total, {} deferrals along the way",
        metrics.counter("locate.budget.spent").unwrap_or(0),
        metrics.counter("locate.budget.deferred").unwrap_or(0)
    );
}
