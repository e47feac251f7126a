//! The live mesh health model.
//!
//! [`HealthMonitor`] is the ops-plane observer of a sharded run. Each
//! window it combines three live sources into one typed
//! [`HealthReport`]:
//!
//! 1. **Host reachability** — a [`SimNet::reachable`] check of every
//!    shard host (subject to the same partitions and host kills as data
//!    traffic, but sending no frame, drawing no chaos RNG and bumping no
//!    injected-fault counters, so monitoring never perturbs replay
//!    determinism);
//! 2. **Client-side failover state** — every engine client's shard
//!    views: active leases, open breakers, stale peers;
//! 3. **Registry deltas** — `net.*` and `download.*` movement since the
//!    previous report, each folded into a [`GaugeBand`] with its
//!    documented "healthy and intentional" range.
//!
//! The per-shard verdict is deliberately coarse (see [`ShardStatus`]),
//! and the run-level [`Starvation`] verdict answers the one question a
//! responder actually has mid-incident: *is the mesh starving the
//! pipeline, or is the pipeline starving itself?* Network starvation
//! shows up as unreachable primaries, active leases, breaker opens and
//! retry storms; processing starvation shows up as a deep download
//! queue with a quiet network. docs/OPERATIONS.md walks through both
//! diagnoses band by band.
//!
//! Everything here is deterministic: reachability follows the planned
//! fault timeline, bands are integer-valued, and
//! [`HealthReport::render_text`] is a pure function of the report — two
//! replays of the same plan render byte-identical reports.

use crate::client::{ShardView, ShardedStoreClient};
use crate::transport::{primary_host, replica_host, SimNet};
use std::sync::Arc;
use tero_obs::{CounterHandle, GaugeHandle, Registry, Snapshot};

/// Host name the monitor checks reachability from. Not registered as a
/// server: partitions may name it.
const OPS_HOST: &str = "ops0";

/// Healthy band for `net.retry_per_mille` (retries per 1000 frames).
/// The stock plan's 2 % drop + 5 % delay keeps honest windows well
/// under this; kill/partition windows blow through it.
const RETRY_PER_MILLE_HI: u64 = 150;

/// Healthy band ceiling for the mean download queue depth, in
/// milli-thumbnails (4000 = a mean backlog of 4 per poll).
const QUEUE_DEPTH_MILLI_HI: u64 = 4000;

/// One shard's coarse health verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Both hosts answer, no lease, no open breaker, no stale peer.
    Healthy,
    /// Serving, but impaired: an open breaker, a stale peer awaiting
    /// resync, or an unreachable replica (writes land primary-only).
    Degraded,
    /// The configured primary is out of service: unreachable this
    /// window, or a failover lease has the replica acting as primary.
    Partitioned,
}

/// The run-level starvation verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Starvation {
    /// Neither signature is present.
    None,
    /// The mesh is the bottleneck: primaries unreachable, leases
    /// active, breakers opening, or the retry rate over band.
    Network,
    /// The pipeline is the bottleneck: the download queue is deep
    /// while the network is quiet.
    Processing,
}

impl Starvation {
    /// One-line operator description, used by [`HealthReport::render_text`].
    pub fn describe(self) -> &'static str {
        match self {
            Starvation::None => "none (all gauges in band)",
            Starvation::Network => {
                "network (primaries down, leases active or retries over band — \
                 the mesh is starving the pipeline)"
            }
            Starvation::Processing => {
                "processing (download queue deep while the network is quiet — \
                 the pipeline is starving itself)"
            }
        }
    }
}

/// The result of checking one host's reachability from the monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostProbe {
    /// Host name (`shard0p`, `shard0r`, …).
    pub host: String,
    /// Could the monitor reach the host this window?
    pub reachable: bool,
}

/// One shard's combined server-side and client-side health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// The coarse verdict (see [`ShardStatus`] for the rule).
    pub status: ShardStatus,
    /// Reachability of the configured primary.
    pub primary: HostProbe,
    /// Reachability of the replica.
    pub replica: HostProbe,
    /// Engine clients currently holding a failover lease on this shard.
    pub leases_active: u64,
    /// Engine clients whose breaker for this shard is open or half-open.
    pub breakers_open: u64,
    /// Stale peers (primary or replica awaiting resync) across clients.
    pub stale_peers: u64,
}

/// One gauge with its documented "healthy and intentional" band
/// (seans-arcade style: every number earns a range, and a value out of
/// band is either an incident or an intentional, documented state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeBand {
    /// Gauge name (derived, not a registry metric).
    pub name: String,
    /// Observed value this window.
    pub value: u64,
    /// Inclusive lower edge of the healthy band.
    pub lo: u64,
    /// Inclusive upper edge of the healthy band.
    pub hi: u64,
}

impl GaugeBand {
    /// Is the value inside its healthy band?
    pub fn healthy(&self) -> bool {
        self.value >= self.lo && self.value <= self.hi
    }
}

/// One window's typed health report for the whole mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Window index the report describes.
    pub window: u64,
    /// Per-shard verdicts, in shard order.
    pub shards: Vec<ShardHealth>,
    /// Derived gauges with their healthy bands, in emission order.
    pub bands: Vec<GaugeBand>,
    /// The run-level starvation verdict. Nothing consumes it yet: a
    /// backpressure signal lands together with its consumer, not before.
    pub starvation: Starvation,
}

impl HealthReport {
    /// Shards currently at `status`.
    pub fn count(&self, status: ShardStatus) -> u64 {
        self.shards.iter().filter(|s| s.status == status).count() as u64
    }

    /// Aligned-text dashboard: one row per shard, one row per gauge
    /// band, and the starvation verdict. Byte-identical across replays.
    pub fn render_text(&self) -> String {
        let mut out = format!("== mesh health · window {} ==\n", self.window);
        out.push_str(&format!(
            "{:<5} {:<9} {:<9} {:<12} {:>6} {:>9} {:>6}\n",
            "shard", "primary", "replica", "status", "leases", "breakers", "stale"
        ));
        for s in &self.shards {
            let up = |p: &HostProbe| if p.reachable { "up" } else { "DOWN" };
            let status = match s.status {
                ShardStatus::Healthy => "healthy",
                ShardStatus::Degraded => "degraded",
                ShardStatus::Partitioned => "partitioned",
            };
            out.push_str(&format!(
                "{:<5} {:<9} {:<9} {:<12} {:>6} {:>9} {:>6}\n",
                s.shard,
                up(&s.primary),
                up(&s.replica),
                status,
                s.leases_active,
                s.breakers_open,
                s.stale_peers,
            ));
        }
        out.push_str(&format!(
            "{:<34} {:>8} {:>12} {:>8}\n",
            "gauge", "value", "band", "verdict"
        ));
        for b in &self.bands {
            out.push_str(&format!(
                "{:<34} {:>8} {:>12} {:>8}\n",
                b.name,
                b.value,
                format!("{}..{}", b.lo, b.hi),
                if b.healthy() { "ok" } else { "OVER" },
            ));
        }
        out.push_str(&format!("starvation: {}\n", self.starvation.describe()));
        out
    }
}

/// Eagerly-registered ops-plane metrics, so the catalogue contract
/// covers them even before the first report.
struct OpsMetrics {
    polls: CounterHandle,
    poll_failures: CounterHandle,
    reports: CounterHandle,
    starvation_network: CounterHandle,
    starvation_processing: CounterHandle,
    shards_healthy: GaugeHandle,
    shards_degraded: GaugeHandle,
    shards_partitioned: GaugeHandle,
}

impl OpsMetrics {
    fn register(registry: &Registry) -> OpsMetrics {
        OpsMetrics {
            polls: registry.counter("ops.polls"),
            poll_failures: registry.counter("ops.poll_failures"),
            reports: registry.counter("ops.reports"),
            starvation_network: registry.counter("health.starvation_network"),
            starvation_processing: registry.counter("health.starvation_processing"),
            shards_healthy: registry.gauge("health.shards_healthy"),
            shards_degraded: registry.gauge("health.shards_degraded"),
            shards_partitioned: registry.gauge("health.shards_partitioned"),
        }
    }
}

/// The ops-plane observer of one mesh. Construct it once against the
/// run's net registry, then call [`HealthMonitor::observe`] per window;
/// band values are deltas since the previous call.
pub struct HealthMonitor {
    net: SimNet,
    registry: Registry,
    metrics: OpsMetrics,
    net_baseline: Snapshot,
    engine_baselines: Vec<Snapshot>,
}

impl HealthMonitor {
    /// Build a monitor for `net`, registering the `ops.*` / `health.*`
    /// metrics in `registry` (the registry the mesh's `net.*` and
    /// `chaos.*` families live in).
    pub fn new(net: &SimNet, registry: &Registry) -> HealthMonitor {
        HealthMonitor {
            net: net.clone(),
            registry: registry.clone(),
            metrics: OpsMetrics::register(registry),
            net_baseline: Registry::new().snapshot(),
            engine_baselines: Vec::new(),
        }
    }

    /// Check whether the monitor can reach `host` this window.
    fn probe(&self, host: String) -> HostProbe {
        self.metrics.polls.inc();
        let reachable = self.net.reachable(OPS_HOST, &host).is_ok();
        if !reachable {
            self.metrics.poll_failures.inc();
        }
        HostProbe { host, reachable }
    }

    /// Build this window's report: probe every shard host, fold in the
    /// clients' failover state, and band the registry deltas since the
    /// previous call. `engines` are the per-engine registries whose
    /// `download.*` family feeds the processing-starvation signal.
    pub fn observe(
        &mut self,
        window: u64,
        clients: &[Arc<ShardedStoreClient>],
        engines: &[Registry],
    ) -> HealthReport {
        assert!(!clients.is_empty(), "a mesh without clients has no health");
        let shard_count = clients[0].shard_count();
        let views: Vec<Vec<ShardView>> = clients.iter().map(|c| c.shard_views()).collect();

        let mut shards = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let primary = self.probe(primary_host(shard));
            let replica = self.probe(replica_host(shard));
            let leases_active = views.iter().filter(|v| v[shard].lease_active).count() as u64;
            let breakers_open = views
                .iter()
                .filter(|v| v[shard].breaker != tero_types::retry::BreakerState::Closed)
                .count() as u64;
            let stale_peers = views
                .iter()
                .map(|v| v[shard].primary_stale as u64 + v[shard].replica_stale as u64)
                .sum();
            let status = if leases_active > 0 || !primary.reachable {
                ShardStatus::Partitioned
            } else if breakers_open > 0 || stale_peers > 0 || !replica.reachable {
                ShardStatus::Degraded
            } else {
                ShardStatus::Healthy
            };
            shards.push(ShardHealth {
                shard,
                status,
                primary,
                replica,
                leases_active,
                breakers_open,
                stale_peers,
            });
        }

        // Registry deltas since the previous report.
        let net_delta = self.registry.delta_since(&self.net_baseline);
        self.net_baseline = self.registry.snapshot();
        self.engine_baselines
            .resize(engines.len().max(self.engine_baselines.len()), {
                Registry::new().snapshot()
            });
        let engine_counter = |name: &str| -> u64 {
            engines
                .iter()
                .zip(self.engine_baselines.iter())
                .map(|(reg, base)| reg.delta_since(base).counter(name).unwrap_or(0))
                .sum()
        };
        let net_counter = |name: &str| net_delta.counter(name).unwrap_or(0);

        let frames = net_counter("net.frames").max(1);
        let retry_per_mille = net_counter("net.retries") * 1000 / frames;
        let (queue_count, queue_sum) = engines
            .iter()
            .zip(self.engine_baselines.iter())
            .map(|(reg, base)| {
                let delta = reg.delta_since(base);
                delta
                    .histogram("download.queue_depth")
                    .map(|h| (h.count, h.sum))
                    .unwrap_or((0, 0))
            })
            .fold((0u64, 0u64), |(c, s), (dc, ds)| (c + dc, s + ds));
        let queue_mean_milli = (queue_sum * 1000).checked_div(queue_count).unwrap_or(0);
        let download_breaker = engine_counter("download.breaker_open");
        let download_dead = engine_counter("download.dead_letter");
        for (reg, base) in engines.iter().zip(self.engine_baselines.iter_mut()) {
            *base = reg.snapshot();
        }

        let band = |name: &str, value: u64, hi: u64| GaugeBand {
            name: name.to_string(),
            value,
            lo: 0,
            hi,
        };
        let bands = vec![
            band("net.retry_per_mille", retry_per_mille, RETRY_PER_MILLE_HI),
            band("net.failovers_delta", net_counter("net.failovers"), 0),
            band(
                "net.lease_renewals_delta",
                net_counter("net.lease_renewals"),
                0,
            ),
            band("net.breaker_open_delta", net_counter("net.breaker_open"), 0),
            band("net.resyncs_delta", net_counter("net.resyncs"), 0),
            band(
                "download.queue_depth_mean_milli",
                queue_mean_milli,
                QUEUE_DEPTH_MILLI_HI,
            ),
            band("download.breaker_open_delta", download_breaker, 0),
            band("download.dead_letter_delta", download_dead, 0),
        ];

        let network_signal = shards.iter().any(|s| !s.primary.reachable)
            || shards.iter().any(|s| s.leases_active > 0)
            || net_counter("net.failovers") > 0
            || net_counter("net.lease_renewals") > 0
            || net_counter("net.breaker_open") > 0
            || retry_per_mille > RETRY_PER_MILLE_HI
            || download_breaker > 0;
        let starvation = if network_signal {
            Starvation::Network
        } else if queue_mean_milli > QUEUE_DEPTH_MILLI_HI {
            Starvation::Processing
        } else {
            Starvation::None
        };

        let report = HealthReport {
            window,
            shards,
            bands,
            starvation,
        };
        self.metrics.reports.inc();
        match starvation {
            Starvation::Network => self.metrics.starvation_network.inc(),
            Starvation::Processing => self.metrics.starvation_processing.inc(),
            Starvation::None => {}
        }
        self.metrics
            .shards_healthy
            .set(report.count(ShardStatus::Healthy) as i64);
        self.metrics
            .shards_degraded
            .set(report.count(ShardStatus::Degraded) as i64);
        self.metrics
            .shards_partitioned
            .set(report.count(ShardStatus::Partitioned) as i64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::default_link;
    use tero_chaos::{ChaosInjector, FaultPlan, HostKill, NetFault};
    use tero_store::{KvStore, RemoteStore};

    fn quiet_mesh(shards: usize) -> (SimNet, Registry, Vec<Arc<ShardedStoreClient>>) {
        let registry = Registry::new();
        let net = SimNet::with_shards(
            default_link(),
            ChaosInjector::new(FaultPlan::quiet(3)),
            shards,
        );
        let client = Arc::new(ShardedStoreClient::new(
            net.clone(),
            0,
            shards,
            &registry,
            7,
        ));
        (net, registry, vec![client])
    }

    #[test]
    fn quiet_mesh_reports_all_healthy() {
        let (net, registry, clients) = quiet_mesh(2);
        let mut monitor = HealthMonitor::new(&net, &registry);
        let report = monitor.observe(0, &clients, &[]);
        assert_eq!(report.count(ShardStatus::Healthy), 2);
        assert_eq!(report.starvation, Starvation::None);
        assert!(report.bands.iter().all(GaugeBand::healthy), "{report:?}");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ops.polls"), Some(4));
        assert_eq!(snap.counter("ops.poll_failures"), Some(0));
        assert_eq!(snap.gauge("health.shards_healthy").unwrap().value, 2);
    }

    #[test]
    fn killed_primary_reads_partitioned_then_recovers() {
        let registry = Registry::new();
        let plan = FaultPlan {
            net: NetFault {
                kills: vec![HostKill {
                    host: "shard0p".into(),
                    from_window: 1,
                    until_window: 2,
                }],
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(3)
        };
        let net = SimNet::with_shards(default_link(), ChaosInjector::new(plan), 1);
        let client = Arc::new(ShardedStoreClient::new(net.clone(), 0, 1, &registry, 7));
        let kv = KvStore::remote(client.clone() as Arc<dyn RemoteStore>);
        let clients = vec![client];
        let mut monitor = HealthMonitor::new(&net, &registry);

        kv.set("a", "1");
        let w0 = monitor.observe(0, &clients, &[]);
        assert_eq!(w0.shards[0].status, ShardStatus::Healthy);

        net.set_window(1);
        kv.set("b", "2"); // forces the failover + lease
        let w1 = monitor.observe(1, &clients, &[]);
        assert_eq!(w1.shards[0].status, ShardStatus::Partitioned);
        assert!(!w1.shards[0].primary.reachable);
        assert_eq!(w1.starvation, Starvation::Network);

        // Past the kill and the lease: the next op reclaims the primary.
        net.set_window(3);
        kv.set("c", "3");
        let w3 = monitor.observe(3, &clients, &[]);
        assert_eq!(w3.shards[0].status, ShardStatus::Healthy);
        // The reclaim resync shows up (intentionally) out of band.
        let resyncs = w3
            .bands
            .iter()
            .find(|b| b.name == "net.resyncs_delta")
            .unwrap();
        assert!(!resyncs.healthy(), "reclaim resync is visible: {resyncs:?}");
    }

    #[test]
    fn report_text_is_deterministic() {
        let render = || {
            let (net, registry, clients) = quiet_mesh(2);
            let mut monitor = HealthMonitor::new(&net, &registry);
            monitor.observe(0, &clients, &[]).render_text()
        };
        let text = render();
        assert_eq!(text, render());
        assert!(text.contains("starvation: none"));
    }
}
