//! Sharded-deployment explorer: run the pipeline as N engines over the
//! networked store mesh — under the stock `NetFault` schedule or a
//! quiet one — and check the merged horizon report byte-for-byte
//! against a fault-free single-process run of the same world.
//!
//! ```sh
//! cargo run --release --example sharded_explore            # defaults
//! cargo run --release --example sharded_explore -- 7       # explicit seed
//! cargo run --release --example sharded_explore -- 7 quiet # no faults
//! ```
//!
//! The first argument is the world seed, the optional second the fault
//! mode: `faulty` (default — the stock `default_net_fault` schedule:
//! background frame drop/delay plus one planned partition and one
//! planned primary kill) or `quiet`. Stdout is **byte-stable**: for a
//! fixed seed and mode it is identical across repeat runs, because the
//! merged report digest equals the single-process digest by the
//! sharded-merge contract, and the `net.*` / `chaos.injected.net_*`
//! counters replay exactly under a fixed plan and net seed
//! (`tests/net_failover.rs`). It also prints how many thumbnail blobs
//! the mesh's hosts still hold after the merge. `scripts/ci.sh` runs the
//! faulty mode twice and diffs stdout, then the quiet mode once.

use tero::chaos::FaultPlan;
use tero::core::pipeline::{ExtractionMode, Tero};
use tero::core::sharded::{run_sharded, ShardedConfig};
use tero::net::default_net_fault;
use tero::world::{World, WorldConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be a u64"))
        .unwrap_or(4242);
    let mode = args.next().unwrap_or_else(|| "faulty".into());
    let quiet = match mode.as_str() {
        "quiet" => true,
        "faulty" => false,
        other => panic!("mode must be `faulty` or `quiet`, got `{other}`"),
    };

    // A couple of pinned location groups so the publish stage has
    // something to publish (random small worlds rarely concentrate
    // enough streamers anywhere), plus a few free-roaming streamers.
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
    let (engines, shards, windows) = (2, 3, 4);
    let plan = if quiet {
        FaultPlan::quiet(seed)
    } else {
        FaultPlan {
            net: default_net_fault(shards, windows),
            ..FaultPlan::quiet(seed)
        }
    };
    let cfg = ShardedConfig {
        engines,
        shards,
        windows,
        world: world.clone(),
        mode: ExtractionMode::Calibrated,
        min_streamers: 3,
        plan,
        net_seed: seed,
        ..ShardedConfig::default()
    };

    println!("== sharded topology (seed {seed}, mode {mode}) ==");
    println!("{engines} engines, {shards} store shards (primary + replica), {windows} windows");
    let out = run_sharded(&cfg);

    // The contract under test: the merged report is byte-identical to a
    // fault-free single-process run over the same world.
    let mut solo_world = World::build(world);
    let solo = Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 3,
        ..Tero::default()
    }
    .run(&mut solo_world);
    let merged_digest = out.report.digest();
    let digests_match = merged_digest == solo.digest();
    println!(
        "merged report: {} streamers seen, {} samples extracted, {} distributions",
        out.report.streamers_seen,
        out.report.extracted,
        out.report.distributions.len()
    );
    println!("merged == single-process: {digests_match}");
    assert!(digests_match, "sharded merge lost byte-identity");
    // Every engine deletes a thumbnail once it is extracted, or once its
    // shard filter drops it, so no host keeps a blob for any engine.
    let blobs: usize = out
        .net
        .hosts()
        .iter()
        .filter_map(|host| out.net.server(host))
        .flat_map(|server| (0..engines as u64).filter_map(move |c| server.objects(c)))
        .map(|objects| objects.snapshot().len())
        .sum();
    println!("blobs left on the mesh: {blobs}");

    // Deterministic under a fixed plan + net seed, so safe on stdout.
    println!("\n== injected faults ==");
    let snap = out.net_registry.snapshot();
    for name in [
        "chaos.injected.net_partition_drop",
        "chaos.injected.net_frame_drop",
        "chaos.injected.net_frame_delay",
        "chaos.injected.net_shard_kill",
    ] {
        println!("{name:40} {}", snap.counter(name).unwrap_or(0));
    }
    println!("\n== client recovery ==");
    for name in [
        "net.requests",
        "net.frames",
        "net.bytes",
        "net.timeouts",
        "net.retries",
        "net.failovers",
        "net.lease_renewals",
        "net.resyncs",
        "net.breaker_open",
    ] {
        println!("{name:40} {}", snap.counter(name).unwrap_or(0));
    }
}
