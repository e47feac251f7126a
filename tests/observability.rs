//! The observability pins: the stitched mesh trace is byte-identical
//! across merge worker counts and replays, the mesh health reports flag
//! the injected partition window (and the recovery) deterministically
//! without perturbing the run they watch, and a stage's span and its
//! latency histogram hold the same clock readings.

use tero::chaos::FaultPlan;
use tero::core::pipeline::{ExtractionMode, Tero, WindowOutcome};
use tero::core::sharded::{run_sharded, run_sharded_observed, ShardedConfig, ShardedOutcome};
use tero::core::stages::default_stage_budgets;
use tero::net::{default_net_fault, HealthMonitor, HealthReport, ShardStatus, Starvation};
use tero::types::{SimDuration, SimTime};
use tero::world::{World, WorldConfig};

/// The trace-id derivation `ShardedStoreClient::set_trace` uses, so the
/// stitching assertion can attribute server spans to their engine.
fn trace_id_of(engine: u64) -> u64 {
    (engine + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
}

fn world_cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        n_streamers: 6,
        days: 1,
        shared_events: 1,
        ..WorldConfig::default()
    }
}

/// A small traced mesh under the stock fault schedule.
fn traced_cfg(merge_workers: usize) -> ShardedConfig {
    let (shards, windows) = (2usize, 4u64);
    ShardedConfig {
        engines: 2,
        shards,
        windows,
        world: world_cfg(914),
        mode: ExtractionMode::Calibrated,
        min_streamers: 3,
        plan: FaultPlan {
            net: default_net_fault(shards, windows),
            ..FaultPlan::quiet(914)
        },
        net_seed: 914,
        trace: true,
        merge_workers,
    }
}

#[test]
fn mesh_trace_is_byte_identical_across_merge_workers_and_replays() {
    let base = run_sharded(&traced_cfg(1));
    let trace = base.mesh_chrome_trace();
    for workers in [2usize, 8] {
        let out = run_sharded(&traced_cfg(workers));
        assert_eq!(
            out.mesh_chrome_trace(),
            trace,
            "mesh trace must not depend on merge worker count ({workers})"
        );
    }
    let replay = run_sharded(&traced_cfg(1));
    assert_eq!(replay.mesh_chrome_trace(), trace, "replay must be exact");

    // Every mesh participant is announced as a named process.
    for host in [
        "engine0", "engine1", "merge", "shard0p", "shard0r", "shard1p", "shard1r",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{host}\"")),
            "missing process_name for {host}"
        );
    }
    assert!(trace.contains("\"name\":\"process_sort_index\""));
}

#[test]
fn server_spans_stitch_under_their_engine_op_spans() {
    let out = run_sharded(&traced_cfg(1));

    // Collect each engine's client-side op span ids, keyed by the trace
    // id its frames carried.
    let mut op_ids: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
        std::collections::HashMap::new();
    for (host, tracer) in &out.mesh {
        let Some(engine) = host.strip_prefix("engine") else {
            continue;
        };
        let engine: u64 = engine.parse().expect("engine hosts are engine<i>");
        let ids = op_ids.entry(trace_id_of(engine)).or_default();
        for s in tracer.records().0 {
            if s.name.starts_with("net.") {
                ids.insert(s.id);
            }
        }
    }

    let mut stitched = 0usize;
    for (host, tracer) in &out.mesh {
        if !host.starts_with("shard") {
            continue;
        }
        for s in tracer.records().0 {
            let ctx = s
                .remote
                .expect("every server span carries its remote context");
            assert_eq!(
                s.parent, ctx.span,
                "server span parents under the wire-carried span id"
            );
            let ids = op_ids
                .get(&ctx.trace_id)
                .unwrap_or_else(|| panic!("unknown trace id {:#x} on {host}", ctx.trace_id));
            assert!(
                ids.contains(&s.parent),
                "server span {} on {host} must stitch under a recorded engine op span",
                s.name
            );
            stitched += 1;
        }
    }
    assert!(
        stitched > 100,
        "a real run stitches many server spans: {stitched}"
    );
}

#[test]
fn health_reports_flag_the_injected_partition_and_recovery() {
    // The ops_console geometry: 3 shards, 6 windows, stock schedule —
    // shard 1's primary killed over windows [2, 4), engine 0 partitioned
    // from shard 2's primary over [3, 4).
    let (shards, windows) = (3usize, 6u64);
    let cfg = ShardedConfig {
        engines: 2,
        shards,
        windows,
        world: world_cfg(4242),
        mode: ExtractionMode::Calibrated,
        min_streamers: 3,
        plan: FaultPlan {
            net: default_net_fault(shards, windows),
            ..FaultPlan::quiet(4242)
        },
        net_seed: 4242,
        trace: true,
        merge_workers: 0,
    };
    let run = || {
        let mut monitor: Option<HealthMonitor> = None;
        let mut reports: Vec<HealthReport> = Vec::new();
        let out = run_sharded_observed(&cfg, |view| {
            let monitor =
                monitor.get_or_insert_with(|| HealthMonitor::new(view.net, view.net_registry));
            reports.push(monitor.observe(view.window, view.clients, view.engine_registries));
        });
        (reports, out)
    };
    let (reports, watched) = run();
    assert_eq!(reports.len(), windows as usize);

    // The kill window reads Partitioned with the primary visibly down,
    // and the verdict is *network* starvation.
    let w2 = &reports[2];
    assert_eq!(w2.shards[1].status, ShardStatus::Partitioned);
    assert!(!w2.shards[1].primary.reachable);
    assert_eq!(w2.starvation, Starvation::Network);

    // Full recovery by the final window.
    let last = reports.last().expect("six windows ran");
    assert_eq!(
        last.count(ShardStatus::Healthy),
        shards as u64,
        "all shards healthy at the horizon: {}",
        last.render_text()
    );

    // Reports replay identically.
    assert_eq!(reports, run().0);

    // Monitoring perturbs nothing: the same config run with no observer
    // records the same mesh trace, the same network and fault counters,
    // and the same report.
    let unwatched = run_sharded(&cfg);
    assert!(
        watched.mesh_chrome_trace() == unwatched.mesh_chrome_trace(),
        "monitoring changed the mesh trace"
    );
    let mesh_counters = |out: &ShardedOutcome| -> Vec<(String, u64)> {
        let snap = out.net_registry.snapshot();
        snap.counters
            .into_iter()
            .filter(|c| c.name.starts_with("net.") || c.name.starts_with("chaos."))
            .map(|c| (c.name, c.value))
            .collect()
    };
    let counters = mesh_counters(&watched);
    assert!(counters.iter().any(|(name, _)| name == "net.frames"));
    assert_eq!(counters, mesh_counters(&unwatched));
    assert_eq!(watched.report.digest(), unwatched.report.digest());
}

/// Stage time has one source: each stage invocation opens one guard —
/// its `stage.<name>` span — whose single clock reading feeds both the
/// span's `wall_us` and the `stage.<name>.us` histogram. The budget
/// table reads the same spans, so each of its rows must name one.
#[test]
fn stage_time_has_one_source() {
    let run = |knobs_on: bool| {
        let mut world = World::build(world_cfg(77));
        let tero = Tero {
            mode: ExtractionMode::Calibrated,
            min_streamers: 2,
            ..Tero::default()
        };
        tero.trace.set_enabled(true);
        tero.trace.set_wall_clock(knobs_on);
        tero.obs.set_timing(knobs_on);
        let horizon = world.horizon;
        let step = SimDuration::from_hours(6);
        let mut to = SimTime::EPOCH + step;
        while !matches!(
            tero.run_window(&mut world, SimTime::EPOCH, to),
            WindowOutcome::Complete(_)
        ) {
            to = (to + step).min(horizon);
        }
        (tero.trace.records().0, tero.metrics_snapshot())
    };

    let (spans, snap) = run(true);
    // Every declared budget row names a span the run records.
    for budget in default_stage_budgets() {
        assert!(
            spans.iter().any(|s| *s.name == *budget.stage),
            "budget row {} matches no recorded span",
            budget.stage
        );
    }
    for stage in ["ingest", "extract", "locate", "clean", "publish"] {
        let name = format!("stage.{stage}");
        let walls: Vec<u64> = spans
            .iter()
            .filter(|s| *s.name == *name)
            .map(|s| s.wall_us.expect("wall clock on: every stage span is timed"))
            .collect();
        let us = snap.histogram(&format!("{name}.us")).expect("registered");
        let runs = snap.counter(&format!("{name}.runs")).expect("registered");
        assert!(runs > 0, "{name} never ran");
        assert_eq!(walls.len() as u64, runs, "{name}: one span per invocation");
        assert_eq!(
            us.count, runs,
            "{name}: one histogram sample per invocation"
        );
        assert_eq!(
            us.sum,
            walls.iter().sum::<u64>(),
            "{name}: the histogram and the spans hold the same readings"
        );
    }

    // Both knobs off: no stage histogram moves, no span carries wall time.
    let (spans, snap) = run(false);
    assert!(spans.iter().any(|s| &*s.name == "stage.clean"));
    assert!(spans.iter().all(|s| s.wall_us.is_none()));
    for h in snap
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("stage."))
    {
        assert_eq!(h.count, 0, "{} moved with timing off", h.name);
    }
}
