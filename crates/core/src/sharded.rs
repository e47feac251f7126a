//! The sharded deployment topology: N engines over a networked store.
//!
//! [`run_sharded`] runs `engines` [`Tero`] instances, each owning one
//! shard of the streamer population ([`ShardSpec`]), against a shared
//! mesh of `shards` primary/replica store-server pairs on a
//! [`SimNet`]. Every engine read and write crosses the simulated wire
//! through its own partition-tolerant [`ShardedStoreClient`] — with
//! deadlines, retries, circuit breakers and lease-based failover — so
//! the whole pipeline keeps committing through the `NetFault` schedule
//! of the supplied [`FaultPlan`]. The store servers keep one store per
//! client, so every engine writes its keys as a single-process run
//! would, and sees, sweeps, snapshots and resyncs only its own.
//!
//! # How the merge preserves byte-identity
//!
//! Each engine ingests the **full world** (the download schedule is a
//! pure function of the seed, so every engine's committed cursor is
//! identical) but extracts only the streamers its shard owns. Per-shard
//! state is therefore:
//!
//! * **disjoint** for sample lists, raw sketches and name-hash fields —
//!   each streamer is owned by exactly one engine;
//! * **identical** for the download cursor and progress markers;
//! * **additive** for the per-engine task counters and the funnel
//!   ledger.
//!
//! Each engine is an [`Engine`] driven window by window with the same
//! calls as any windowed run, the window that reaches the horizon
//! included; none of them finishes. Engines run sequentially within
//! each window, with [`SimNet::set_window`] advancing the fault timeline
//! first. At the horizon the per-engine snapshots — each holding that
//! engine's state only, because the servers keep it apart — are folded
//! with [`KvSnapshot::merged`] (lists concatenate, hashes merge
//! field-wise), the additive markers are corrected to their
//! across-engine sums, and the merged state is restored
//! ([`Engine::restore`]) into one engine of a fresh local [`Tero`] over
//! engine 0's world, whose only remaining work is `Engine::finish`. Its
//! aggregation pass replaces the engines' partial distribution groups
//! with the merged ones. The report that produces is byte-identical to a
//! fault-free single-process run over the same world — the invariant
//! `tests/net_failover.rs` pins down.

use crate::committed::StoreSnapshot;
use crate::engine::{Engine, ENGINE_KEY};
use crate::pipeline::{ExtractionMode, Tero, TeroReport, WindowOutcome};
use std::sync::Arc;
use tero_chaos::{ChaosInjector, FaultPlan};
use tero_net::{default_link, engine_host, ShardedStoreClient, SimNet};
use tero_store::{KvSnapshot, KvStore, ObjectSnapshot, ObjectStore, RemoteStore};
use tero_trace::obs::Registry;
use tero_trace::{merged_chrome_trace, Tracer};
use tero_types::{ShardSpec, SimTime};
use tero_world::{World, WorldConfig};

/// Configuration of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Engine instances; each owns `1/engines` of the streamers.
    pub engines: usize,
    /// Store shards; each is a primary/replica server pair on the mesh.
    pub shards: usize,
    /// Number of equal windows the horizon is cut into. Faults in the
    /// plan's `NetFault` schedule are expressed in these window indices.
    pub windows: u64,
    /// The world every engine builds its private copy of.
    pub world: WorldConfig,
    /// Extraction mode of every engine.
    pub mode: ExtractionMode,
    /// `min_streamers` of the merged finalize.
    pub min_streamers: usize,
    /// Fault plan. Only its `net` schedule is exercised here: the
    /// per-engine worlds carry no chaos injector (API/CDN faults would
    /// be drawn from per-engine streams and are covered by the
    /// single-process chaos suite), so the deterministic-merge
    /// invariant isolates exactly the network's contribution.
    pub plan: FaultPlan,
    /// Seed of the per-client backoff-jitter streams (engine index is
    /// folded in per client).
    pub net_seed: u64,
    /// Record a stitched mesh trace: every store host, engine and the
    /// merge instance gets its own enabled [`Tracer`] (collected in
    /// [`ShardedOutcome::mesh`]), and every store operation's span
    /// context rides the wire so server-side handling nests under the
    /// client op that caused it. Off by default — tracing a run it
    /// wasn't asked for would change nothing but still cost memory.
    pub trace: bool,
    /// Worker threads of the merge/finalize [`Tero`] instance. `0` (the
    /// default) keeps the machine default. The per-engine instances
    /// always run at `worker_threads: 1` (see the field comment in
    /// [`run_sharded_observed`]); this knob is how the worker-count
    /// invariance of the report *and the mesh trace* is exercised —
    /// both are byte-identical for every value.
    pub merge_workers: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            engines: 2,
            shards: 3,
            windows: 4,
            world: WorldConfig::default(),
            mode: ExtractionMode::Calibrated,
            min_streamers: 5,
            plan: FaultPlan::quiet(1),
            net_seed: 1,
            trace: false,
            merge_workers: 0,
        }
    }
}

/// The live state of a sharded run, handed to the observer closure of
/// [`run_sharded_observed`] after every completed window. Everything is
/// a borrow of the run's own handles — the observer reads (or checks
/// reachability through `net`) without owning any of it.
pub struct MeshView<'a> {
    /// The window that just completed (`0..windows`).
    pub window: u64,
    /// Total windows in the schedule.
    pub windows: u64,
    /// The store network — live servers, current fault window, and the
    /// quiet [`SimNet::reachable`] check.
    pub net: &'a SimNet,
    /// The registry holding the run's `net.*` and `chaos.*` families.
    pub net_registry: &'a Registry,
    /// One store client per engine, in engine order: the failover state
    /// the health monitor reads.
    pub clients: &'a [Arc<ShardedStoreClient>],
    /// Each engine's own metric registry (`download.*`, `stage.*`, …),
    /// in engine order.
    pub engine_registries: &'a [Registry],
}

/// What a sharded run produces: the merged horizon report plus the
/// handles needed to assert on the run's network behaviour.
pub struct ShardedOutcome {
    /// The merged-and-finalized report. Byte-identical (see
    /// [`TeroReport::digest`]) to a fault-free single-process
    /// [`Tero::run`] over the same world.
    pub report: TeroReport,
    /// The registry all `net.*` client metrics and `chaos.injected.net_*`
    /// counters were recorded into.
    pub net_registry: Registry,
    /// The store network, post-run (server inspection in tests).
    pub net: SimNet,
    /// The mesh trace: one `(host, tracer)` per participant, sorted by
    /// host name — every engine (`engine0`, …), every store server
    /// (`shard0p`, `shard0r`, …) and the merge/finalize instance
    /// (`merge`). Empty unless [`ShardedConfig::trace`] was set.
    pub mesh: Vec<(String, Tracer)>,
}

impl ShardedOutcome {
    /// Export the stitched mesh trace as one Chrome-trace JSON document
    /// (`chrome://tracing` / Perfetto), one process per host. Requires
    /// [`ShardedConfig::trace`]; byte-identical across replays of the
    /// same `(plan, seed)` and across merge worker counts.
    pub fn mesh_chrome_trace(&self) -> String {
        let hosts: Vec<(&str, &Tracer)> = self
            .mesh
            .iter()
            .map(|(name, tracer)| (name.as_str(), tracer))
            .collect();
        merged_chrome_trace(&hosts)
    }
}

/// Run the sharded topology end to end. See the module docs for the
/// execution and merge model.
///
/// # Panics
///
/// Panics if the configuration is degenerate (`engines == 0`,
/// `shards == 0`, `windows == 0`), or if the fault plan makes recovery
/// impossible (both replicas of a store shard unreachable at once —
/// the client's panic, surfaced unchanged).
pub fn run_sharded(cfg: &ShardedConfig) -> ShardedOutcome {
    run_sharded_observed(cfg, |_| {})
}

/// [`run_sharded`] with an ops-plane observer: `observe` is called with
/// a [`MeshView`] after every completed window (fault timeline already
/// at that window), which is where a [`tero_net::HealthMonitor`]
/// observes the mesh mid-run. The observer sees the live network: it
/// must send no frame and only ask the quiet [`SimNet::reachable`], or
/// it would perturb the data plane's deterministic fault accounting.
///
/// # Panics
///
/// As [`run_sharded`].
pub fn run_sharded_observed(
    cfg: &ShardedConfig,
    mut observe: impl FnMut(&MeshView<'_>),
) -> ShardedOutcome {
    assert!(cfg.engines > 0, "need at least one engine");
    assert!(cfg.shards > 0, "need at least one store shard");
    assert!(cfg.windows > 0, "need at least one window");
    let net_registry = Registry::new();
    let chaos = ChaosInjector::new(cfg.plan.clone());
    chaos.instrument(&net_registry);
    let net = SimNet::with_shards(default_link(), chaos, cfg.shards);

    // When tracing, every store host records its handling into its own
    // tracer — attached before any client can reach the server, so the
    // trace covers the run from the first frame.
    let mut mesh: Vec<(String, Tracer)> = Vec::new();
    if cfg.trace {
        for host in net.hosts() {
            let tracer = Tracer::new();
            tracer.set_enabled(true);
            net.server(&host)
                .expect("with_shards registered every host it listed")
                .set_trace(&tracer);
            mesh.push((host, tracer));
        }
    }

    // One Tero + private world + engine per engine. Store facades go
    // through the mesh; `worker_threads: 1` keeps every store access (and
    // therefore every chaos draw on the shared net stream) in one
    // deterministic sequential order. The merged report is unaffected:
    // reports are identical at any worker count.
    let mut clients: Vec<Arc<ShardedStoreClient>> = Vec::with_capacity(cfg.engines);
    let mut engines: Vec<(Tero, World, Engine)> = (0..cfg.engines)
        .map(|i| {
            let client = Arc::new(ShardedStoreClient::new(
                net.clone(),
                i,
                cfg.shards,
                &net_registry,
                cfg.net_seed,
            ));
            let remote: Arc<dyn RemoteStore> = client.clone();
            let kv = KvStore::remote(remote.clone());
            let objects = ObjectStore::remote(remote);
            let tero = Tero {
                mode: cfg.mode,
                min_streamers: cfg.min_streamers,
                worker_threads: 1,
                stores: Some((kv, objects)),
                shard: Some(ShardSpec {
                    index: i as u32,
                    count: cfg.engines as u32,
                }),
                ..Tero::default()
            };
            if cfg.trace {
                // The engine's own tracer doubles as the host tracer for
                // its `net.*` op spans: client-side attempt/failover
                // activity nests under the pipeline stage that caused it.
                tero.trace.set_enabled(true);
                client.set_trace(&tero.trace);
                mesh.push((engine_host(i), tero.trace.clone()));
            }
            clients.push(client);
            let world = World::build(cfg.world.clone());
            let engine = Engine::new(&tero, &world, SimTime::EPOCH);
            (tero, world, engine)
        })
        .collect();
    let engine_registries: Vec<Registry> = engines
        .iter()
        .map(|(tero, _, _)| tero.obs.clone())
        .collect();

    // Drive every engine through the same window schedule, sequentially
    // within each window, advancing the fault timeline first. The
    // observer runs after each window, against the same fault window the
    // engines just lived through.
    let horizon = engines[0].1.horizon;
    for w in 0..cfg.windows {
        net.set_window(w);
        let to = SimTime::from_micros(horizon.as_micros() * (w + 1) / cfg.windows);
        for (tero, world, engine) in engines.iter_mut() {
            let outcome = engine.drive(tero, world, to);
            assert!(
                matches!(outcome, WindowOutcome::Advanced),
                "the worlds carry no engine kills"
            );
        }
        observe(&MeshView {
            window: w,
            windows: cfg.windows,
            net: &net,
            net_registry: &net_registry,
            clients: &clients,
            engine_registries: &engine_registries,
        });
    }

    // Merge: the per-engine snapshots, plus a correction part (appended
    // last, so its fields win) fixing the additive progress markers to
    // their across-engine sums.
    let mut kv_parts = Vec::with_capacity(cfg.engines + 1);
    let mut obj_parts = Vec::with_capacity(cfg.engines);
    let mut tasks_processed = 0u64;
    let mut extracted = 0u64;
    for (_, _, engine) in &engines {
        let snap = engine.snapshot();
        kv_parts.push(snap.kv);
        obj_parts.push(snap.objects);
        let marker = |field: &str| -> u64 {
            engine
                .kv_store()
                .hget(ENGINE_KEY, field)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        tasks_processed += marker("tasks_processed");
        extracted += marker("extracted");
    }
    let correction = KvStore::new();
    correction.hset(ENGINE_KEY, "tasks_processed", tasks_processed.to_string());
    correction.hset(ENGINE_KEY, "extracted", extracted.to_string());
    kv_parts.push(correction.snapshot());
    let merged = StoreSnapshot {
        kv: KvSnapshot::merged(&kv_parts),
        objects: ObjectSnapshot::merged(&obj_parts),
    };

    // Finalize the merged state exactly once, locally: the restored
    // engine's ingest and extract are already at the horizon, so it only
    // finishes — its first pass runs every gated call, and the
    // aggregation pass replaces the engines' partial groups with the
    // merged ones.
    // Finishing reads the gazetteer and the social directory, which
    // ingest leaves alone, and a profile only for a name still queued;
    // the drain leaves none, so engine 0's world serves.
    let mut merge_tero = Tero {
        mode: cfg.mode,
        min_streamers: cfg.min_streamers,
        ..Tero::default()
    };
    if cfg.merge_workers > 0 {
        merge_tero.worker_threads = cfg.merge_workers;
    }
    if cfg.trace {
        merge_tero.trace.set_enabled(true);
        mesh.push(("merge".to_string(), merge_tero.trace.clone()));
    }
    let world = &mut engines[0].1;
    let report = Engine::restore(&merge_tero, world, &merged)
        .expect("the merged snapshot decodes through FAMILIES")
        .finish(&merge_tero, world);
    mesh.sort_by(|a, b| a.0.cmp(&b.0));
    ShardedOutcome {
        report,
        net_registry,
        net,
        mesh,
    }
}
