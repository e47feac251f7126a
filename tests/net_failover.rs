//! The sharded-deployment invariant: N engines over the networked
//! store, under partitions, shard kills and frame loss, produce a
//! merged horizon report **byte-identical** to a fault-free
//! single-process run over the same world — and replaying the same
//! fault plan reproduces the same `net.*` recovery metrics.

use tero::chaos::{FaultPlan, HostKill, NetFault, NetPartition};
use tero::core::pipeline::{ExtractionMode, Tero};
use tero::core::sharded::{run_sharded, ShardedConfig, ShardedOutcome};
use tero::net::default_net_fault;
use tero::types::{GameId, Location, SimDuration};
use tero::world::{World, WorldConfig};

fn world_cfg() -> WorldConfig {
    WorldConfig {
        seed: 4242,
        n_streamers: 12,
        days: 1,
        shared_events: 1,
        ..WorldConfig::default()
    }
}

fn single_process_digest() -> String {
    let mut world = World::build(world_cfg());
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 3,
        ..Tero::default()
    };
    tero.run(&mut world).digest()
}

/// The acceptance scenario: 3 store shards (primary + replica each),
/// 2 engines, one primary killed for the middle windows and one
/// engine↔primary pair partitioned mid-run, plus background frame loss
/// and delay.
fn faulty_config() -> ShardedConfig {
    let windows = 4;
    ShardedConfig {
        engines: 2,
        shards: 3,
        windows,
        world: world_cfg(),
        mode: ExtractionMode::Calibrated,
        min_streamers: 3,
        plan: FaultPlan {
            net: NetFault {
                frame_drop_rate: 0.01,
                frame_delay_rate: 0.02,
                frame_delay: SimDuration::from_millis(2),
                partitions: vec![NetPartition {
                    a: "engine0".into(),
                    b: "shard2p".into(),
                    from_window: 2,
                    until_window: 3,
                }],
                kills: vec![HostKill {
                    host: "shard1p".into(),
                    from_window: 1,
                    until_window: 3,
                }],
            },
            ..FaultPlan::quiet(97)
        },
        net_seed: 7,
        ..ShardedConfig::default()
    }
}

fn counter(out: &ShardedOutcome, name: &str) -> u64 {
    out.net_registry.snapshot().counter(name).unwrap_or(0)
}

#[test]
fn sharded_run_under_net_faults_matches_single_process() {
    let out = run_sharded(&faulty_config());
    assert_eq!(
        out.report.digest(),
        single_process_digest(),
        "merged sharded report must be byte-identical to the fault-free single-process run"
    );
    // The plan's faults actually fired and the client actually recovered.
    assert!(
        counter(&out, "chaos.injected.net_shard_kill") >= 1,
        "the shard kill fired"
    );
    assert!(
        counter(&out, "chaos.injected.net_partition_drop") >= 1,
        "the partition fired"
    );
    assert!(
        counter(&out, "net.failovers") >= 1,
        "a replica was promoted"
    );
    assert!(
        counter(&out, "net.resyncs") >= 1,
        "a revived peer was resynced"
    );
    assert!(
        counter(&out, "net.retries") >= 1,
        "lost frames were retried"
    );
}

#[test]
fn quiet_sharded_run_matches_single_process() {
    let cfg = ShardedConfig {
        plan: FaultPlan::quiet(97),
        ..faulty_config()
    };
    let out = run_sharded(&cfg);
    assert_eq!(out.report.digest(), single_process_digest());
    assert_eq!(counter(&out, "net.failovers"), 0);
    assert_eq!(counter(&out, "net.timeouts"), 0);
}

#[test]
fn net_recovery_metrics_replay_identically() {
    let names = [
        "net.requests",
        "net.frames",
        "net.bytes",
        "net.retries",
        "net.timeouts",
        "net.failovers",
        "net.lease_renewals",
        "net.resyncs",
        "net.breaker_open",
        "chaos.injected.net_partition_drop",
        "chaos.injected.net_frame_drop",
        "chaos.injected.net_frame_delay",
        "chaos.injected.net_shard_kill",
    ];
    let run = || {
        let out = run_sharded(&faulty_config());
        names
            .iter()
            .map(|n| (*n, counter(&out, n)))
            .collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "same fault plan and seed must reproduce identical net.* recovery metrics"
    );
}

#[test]
fn more_engines_and_shards_still_merge_identically() {
    let cfg = ShardedConfig {
        engines: 3,
        shards: 2,
        windows: 3,
        plan: FaultPlan {
            net: NetFault {
                kills: vec![HostKill {
                    host: "shard0p".into(),
                    from_window: 1,
                    until_window: 2,
                }],
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(5)
        },
        ..faulty_config()
    };
    let out = run_sharded(&cfg);
    assert_eq!(out.report.digest(), single_process_digest());
}

/// Both resync directions, each copying one engine's state only:
/// `shard0r` misses window 0's writes, so each engine heals its own copy
/// there from the primary; later `engine1` is cut off from `shard0p` long
/// enough to fail over and, at lease expiry, reclaim the primary by a
/// copy from the replica — while `engine0` kept writing to both.
#[test]
fn per_engine_resyncs_in_both_directions_merge_identically() {
    let cfg = ShardedConfig {
        windows: 6,
        plan: FaultPlan {
            net: NetFault {
                kills: vec![HostKill {
                    host: "shard0r".into(),
                    from_window: 0,
                    until_window: 1,
                }],
                partitions: vec![NetPartition {
                    a: "engine1".into(),
                    b: "shard0p".into(),
                    from_window: 2,
                    until_window: 4,
                }],
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(97)
        },
        ..faulty_config()
    };
    let out = run_sharded(&cfg);
    assert_eq!(out.report.digest(), single_process_digest());
    assert!(counter(&out, "net.failovers") >= 1, "engine1 failed over");
    assert!(counter(&out, "net.resyncs") >= 2, "both directions ran");
}

/// A world with organically placed streamers beside pinned ones, under
/// the stock fault plan. Its merge lost a `(streamer, game)` series while
/// one engine's resync of a store host replaced every engine's state
/// there with the peer's, dropping writes the other engine had made.
#[test]
fn organic_world_under_the_stock_plan_keeps_every_series() {
    let world = WorldConfig {
        seed: 17_026_080_507_310_378_593,
        n_streamers: 2,
        days: 1,
        pinned: ["Netherlands", "Poland"]
            .map(|country| (Location::country(country), GameId::LeagueOfLegends, 3))
            .to_vec(),
        api_budget_per_min: 2_000,
        ..WorldConfig::default()
    };
    let single = Tero {
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        ..Tero::default()
    }
    .run(&mut World::build(world.clone()));
    let out = run_sharded(&ShardedConfig {
        engines: 2,
        shards: 3,
        windows: 4,
        world,
        mode: ExtractionMode::Calibrated,
        min_streamers: 2,
        plan: FaultPlan {
            net: default_net_fault(3, 4),
            ..FaultPlan::quiet(105)
        },
        net_seed: 105,
        ..ShardedConfig::default()
    });
    assert_eq!(
        out.report.streams.keys().collect::<Vec<_>>(),
        single.streams.keys().collect::<Vec<_>>()
    );
    assert_eq!(out.report.digest(), single.digest());
}
