//! Live ops console: watch a sharded run's health while it runs.
//!
//! ```sh
//! cargo run --release --example ops_console        # defaults
//! cargo run --release --example ops_console -- 7   # explicit seed
//! ```
//!
//! Runs the sharded topology (2 engines, 3 store shards, 6 windows)
//! under the stock `default_net_fault` schedule — background frame
//! drop/delay, shard 1's primary killed for the middle third, engine 0
//! partitioned from shard 2's primary just past halfway — with a
//! [`HealthMonitor`] checking every store host's reachability after
//! every window. The console prints:
//!
//! * one health dashboard per window: per-shard
//!   healthy/degraded/partitioned, every derived gauge with its healthy
//!   band, and the network-vs-processing starvation verdict;
//! * the per-stage latency-budget table aggregated from the stitched
//!   mesh trace (logical ticks, so the numbers replay exactly);
//! * the mesh Chrome-trace size — the export `tests/observability.rs`
//!   pins byte-identical across worker counts and replays.
//!
//! Stdout is **byte-stable** for a fixed seed: the fault timeline is
//! planned, a reachability check draws no randomness, and every table
//! is a pure function of deterministic state. `scripts/ci.sh` runs it
//! twice and diffs.

use tero::chaos::FaultPlan;
use tero::core::pipeline::ExtractionMode;
use tero::core::sharded::{run_sharded_observed, ShardedConfig};
use tero::core::stages::default_stage_budgets;
use tero::net::{default_net_fault, HealthMonitor, ShardStatus};
use tero::trace::{BudgetSource, BudgetTable, SpanRecord};
use tero::world::WorldConfig;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("seed must be a u64"))
        .unwrap_or(4242);

    // Same pinned world as sharded_explore: two concentrated location
    // groups so the publish stage has something to publish.
    let pinned = [
        tero::types::Location::country("Netherlands"),
        tero::types::Location::country("Poland"),
    ]
    .map(|l| (l, tero::types::GameId::LeagueOfLegends, 5))
    .into_iter()
    .collect();
    let world = WorldConfig {
        seed,
        n_streamers: 6,
        days: 1,
        shared_events: 1,
        pinned,
        ..WorldConfig::default()
    };
    let (engines, shards, windows) = (2usize, 3usize, 6u64);
    let cfg = ShardedConfig {
        engines,
        shards,
        windows,
        world,
        mode: ExtractionMode::Calibrated,
        min_streamers: 3,
        plan: FaultPlan {
            net: default_net_fault(shards, windows),
            ..FaultPlan::quiet(seed)
        },
        net_seed: seed,
        trace: true,
        ..ShardedConfig::default()
    };

    println!("== ops console (seed {seed}) ==");
    println!(
        "{engines} engines, {shards} store shards (primary + replica), \
         {windows} windows, stock net-fault schedule"
    );
    println!();

    // The monitor is created inside the first observation (the net
    // registry only exists once the run is underway) and observes the
    // mesh after every window.
    let mut monitor: Option<HealthMonitor> = None;
    let mut reports = Vec::new();
    let out = run_sharded_observed(&cfg, |view| {
        let monitor =
            monitor.get_or_insert_with(|| HealthMonitor::new(view.net, view.net_registry));
        let report = monitor.observe(view.window, view.clients, view.engine_registries);
        print!("{}", report.render_text());
        println!();
        reports.push(report);
    });

    // The injected incident and its recovery, as the monitor saw them.
    let partitioned: Vec<u64> = reports
        .iter()
        .filter(|r| r.count(ShardStatus::Partitioned) > 0)
        .map(|r| r.window)
        .collect();
    println!("windows with a partitioned shard: {partitioned:?}");
    let last = reports.last().expect("at least one window ran");
    assert_eq!(
        last.count(ShardStatus::Healthy),
        shards as u64,
        "the mesh must have recovered by the horizon"
    );
    println!("final window {}: all {shards} shards healthy", last.window);

    // Per-stage latency budgets over the whole mesh trace, in logical
    // ticks — deterministic, so safe to pin on stdout.
    let spans: Vec<SpanRecord> = out
        .mesh
        .iter()
        .flat_map(|(_, tracer)| tracer.records().0)
        .collect();
    let table = BudgetTable::from_spans(&spans, &default_stage_budgets(), BudgetSource::Ticks);
    println!("\n== latency budgets (logical ticks) ==");
    print!("{}", table.render_text());
    println!("any stage over budget: {}", table.any_over());

    // The stitched mesh trace (every host, client spans + server-side
    // handling under them).
    let trace_json = out.mesh_chrome_trace();
    let host_names: Vec<&str> = out.mesh.iter().map(|(name, _)| name.as_str()).collect();
    println!("\n== mesh trace ==");
    println!("hosts: {}", host_names.join(", "));
    println!(
        "chrome trace: {} events, {} bytes",
        trace_json.matches("\"ph\":").count(),
        trace_json.len()
    );
    println!(
        "merged report: {} streamers seen, {} samples extracted, {} distributions",
        out.report.streamers_seen,
        out.report.extracted,
        out.report.distributions.len()
    );
}
