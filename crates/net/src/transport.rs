//! The deterministic store network.
//!
//! [`SimNet`] is a registry of named hosts plus a delay/fault model. A
//! request/response exchange between two hosts costs logical time from
//! the shared [`LinkConfig`]'s
//! [`transfer_delay`](LinkConfig::transfer_delay) (serialization +
//! propagation per frame, one leg each way), and is subject to the
//! [`NetFault`] schedule of the attached
//! [`ChaosInjector`]:
//!
//! * **partitions** sever a host pair over a window range — checked
//!   first, no RNG consumed;
//! * **host kills** make a destination answer nothing over a window
//!   range — checked second, no RNG consumed;
//! * **frame faults** (random drop or extra delay) draw once per frame
//!   leg from the injector's dedicated net stream.
//!
//! A dropped *request* leg means the server never saw the operation; a
//! dropped *response* leg means it did — which is exactly why the
//! server deduplicates retries (see [`crate::server`]).
//!
//! Time is window-indexed: the orchestrator calls [`SimNet::set_window`]
//! before each engine round, and every planned fault is expressed in
//! window ranges, so the whole fault timeline replays from the plan.

use crate::server::StoreServer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tero_chaos::{ChaosInjector, HostKill, NetFault, NetFrameFault, NetPartition};
use tero_simnet::LinkConfig;
use tero_types::SimDuration;

/// Host name of engine `i` on the store network.
pub fn engine_host(i: usize) -> String {
    format!("engine{i}")
}

/// Host name of shard `s`'s primary store server.
pub(crate) fn primary_host(s: usize) -> String {
    format!("shard{s}p")
}

/// Host name of shard `s`'s replica store server.
pub(crate) fn replica_host(s: usize) -> String {
    format!("shard{s}r")
}

/// The link every store frame traverses: a 1 Gb/s machine-room link
/// with 200 µs propagation — fast enough that the store round-trips
/// stay far below the engine's window cadence, slow enough that the
/// `net.*` timing metrics are non-trivial.
pub fn default_link() -> LinkConfig {
    LinkConfig {
        rate_bps: 1e9,
        prop: SimDuration::from_micros(200),
        queue_packets: 64,
    }
}

/// The standard sharded chaos mix used by CI and the failover suite:
/// modest random frame loss and delay, shard 1's primary killed for the
/// middle third of the run, and engine 0 partitioned from the last
/// shard's primary for one window just past halfway. Survivable by
/// construction for any `shards ≥ 1`, `windows ≥ 2`.
pub fn default_net_fault(shards: usize, windows: u64) -> NetFault {
    let third = (windows / 3).max(1);
    NetFault {
        frame_drop_rate: 0.02,
        frame_delay_rate: 0.05,
        frame_delay: SimDuration::from_millis(5),
        partitions: vec![NetPartition {
            a: engine_host(0),
            b: primary_host(shards.saturating_sub(1)),
            from_window: windows / 2,
            until_window: (windows / 2 + 1).min(windows),
        }],
        kills: vec![HostKill {
            host: primary_host(1 % shards.max(1)),
            from_window: third,
            until_window: (2 * third).min(windows),
        }],
    }
}

/// Why an exchange failed. The client treats every variant as "the
/// deadline expired": it charges the attempt timeout and retries or
/// fails over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The host pair is partitioned this window.
    Partitioned,
    /// The destination host is killed this window.
    HostDown,
    /// A frame leg was dropped in flight — the request may or may not
    /// have been applied, only the server's dedup cache knows — or the
    /// server answered nothing because the frame was no request.
    FrameLost,
    /// No host with that name is registered.
    UnknownHost,
}

struct NetInner {
    link: LinkConfig,
    chaos: ChaosInjector,
    window: AtomicU64,
    hosts: Mutex<HashMap<String, StoreServer>>,
}

/// The deterministic in-process store network. Cloning shares the
/// registry, window and fault state.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<NetInner>,
}

impl SimNet {
    /// Create a network with the given delay model and fault source.
    pub fn new(link: LinkConfig, chaos: ChaosInjector) -> SimNet {
        SimNet {
            inner: Arc::new(NetInner {
                link,
                chaos,
                window: AtomicU64::new(0),
                hosts: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Build a network and register `shards` primary/replica server
    /// pairs on it, named `shard{s}p` / `shard{s}r`.
    pub fn with_shards(link: LinkConfig, chaos: ChaosInjector, shards: usize) -> SimNet {
        let net = SimNet::new(link, chaos);
        for s in 0..shards {
            net.register(StoreServer::new(primary_host(s)));
            net.register(StoreServer::new(replica_host(s)));
        }
        net
    }

    /// Register a store host under its own name.
    pub fn register(&self, server: StoreServer) {
        self.inner
            .hosts
            .lock()
            .insert(server.name().to_string(), server);
    }

    /// Look up a registered host (tests, resync verification).
    pub fn server(&self, name: &str) -> Option<StoreServer> {
        self.inner.hosts.lock().get(name).cloned()
    }

    /// Advance the fault timeline to window `w`. Called by the
    /// orchestrator before each engine round.
    pub fn set_window(&self, w: u64) {
        self.inner.window.store(w, Ordering::SeqCst);
    }

    /// The current window index.
    pub fn window(&self) -> u64 {
        self.inner.window.load(Ordering::SeqCst)
    }

    /// The fault source driving this network.
    pub fn chaos(&self) -> &ChaosInjector {
        &self.inner.chaos
    }

    /// All registered host names, sorted.
    pub fn hosts(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.hosts.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Could `from` reach `to` this window? The same windowed partition /
    /// host-kill / unknown-host checks as [`SimNet::exchange`], but
    /// *quiet* — no frame sent, no RNG draw, no chaos counters or
    /// journal entries, and no time charged — so health monitoring
    /// observes a faulty mesh without perturbing the data plane's
    /// deterministic fault accounting or replay behaviour.
    pub fn reachable(&self, from: &str, to: &str) -> Result<(), NetError> {
        let window = self.window();
        let chaos = &self.inner.chaos;
        if chaos.net_partitioned_quiet(from, to, window) {
            return Err(NetError::Partitioned);
        }
        if chaos.net_host_killed_quiet(to, window) {
            return Err(NetError::HostDown);
        }
        if !self.inner.hosts.lock().contains_key(to) {
            return Err(NetError::UnknownHost);
        }
        Ok(())
    }

    /// One request/response exchange from `from` to `to`. Returns the
    /// logical time the exchange consumed (even on failure) and either
    /// the response frame or the failure.
    pub fn exchange(
        &self,
        from: &str,
        to: &str,
        frame: &[u8],
    ) -> (SimDuration, Result<Vec<u8>, NetError>) {
        let window = self.window();
        let chaos = &self.inner.chaos;
        if chaos.net_partitioned(from, to, window) {
            return (SimDuration(0), Err(NetError::Partitioned));
        }
        if chaos.net_host_killed(to, window) {
            return (SimDuration(0), Err(NetError::HostDown));
        }
        let mut elapsed = SimDuration(0);
        // Request leg.
        match chaos.net_frame_fault() {
            Some(NetFrameFault::Drop) => {
                return (elapsed, Err(NetError::FrameLost));
            }
            Some(NetFrameFault::Delay(d)) => elapsed += d,
            None => {}
        }
        elapsed += self.inner.link.transfer_delay(frame.len() as u64);
        let server = match self.inner.hosts.lock().get(to).cloned() {
            Some(s) => s,
            None => return (elapsed, Err(NetError::UnknownHost)),
        };
        // A frame the server cannot take as a request gets no answer.
        let Some(response) = server.handle(frame) else {
            return (elapsed, Err(NetError::FrameLost));
        };
        // Response leg — a drop here loses the reply *after* the server
        // applied the request; the retry hits the dedup cache.
        match chaos.net_frame_fault() {
            Some(NetFrameFault::Drop) => {
                return (elapsed, Err(NetError::FrameLost));
            }
            Some(NetFrameFault::Delay(d)) => elapsed += d,
            None => {}
        }
        elapsed += self.inner.link.transfer_delay(response.len() as u64);
        (elapsed, Ok(response))
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("window", &self.window())
            .field("hosts", &self.inner.hosts.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode, Frame, Payload};
    use tero_chaos::FaultPlan;

    fn ping(seq: u64) -> Vec<u8> {
        encode(&Frame {
            client: 0,
            seq,
            ctx: None,
            payload: Payload::Ping,
        })
    }

    fn quiet_net(shards: usize) -> SimNet {
        SimNet::with_shards(
            default_link(),
            ChaosInjector::new(FaultPlan::quiet(1)),
            shards,
        )
    }

    #[test]
    fn healthy_exchange_round_trips_and_costs_time() {
        let net = quiet_net(1);
        let (elapsed, result) = net.exchange("engine0", "shard0p", &ping(1));
        assert!(result.is_ok());
        assert!(elapsed > SimDuration(0), "transfer time is charged");
        assert_eq!(
            net.exchange("engine0", "nowhere", &ping(2)).1,
            Err(NetError::UnknownHost)
        );
    }

    #[test]
    fn partitions_and_kills_follow_the_window() {
        let plan = FaultPlan {
            net: NetFault {
                partitions: vec![NetPartition {
                    a: "engine0".into(),
                    b: "shard0p".into(),
                    from_window: 1,
                    until_window: 2,
                }],
                kills: vec![HostKill {
                    host: "shard0r".into(),
                    from_window: 1,
                    until_window: 3,
                }],
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(5)
        };
        let net = SimNet::with_shards(default_link(), ChaosInjector::new(plan), 1);
        assert!(net.exchange("engine0", "shard0p", &ping(1)).1.is_ok());
        net.set_window(1);
        assert_eq!(
            net.exchange("engine0", "shard0p", &ping(2)).1,
            Err(NetError::Partitioned)
        );
        assert_eq!(
            net.exchange("engine0", "shard0r", &ping(3)).1,
            Err(NetError::HostDown)
        );
        // Another engine still reaches the primary.
        assert!(net.exchange("engine1", "shard0p", &ping(1)).1.is_ok());
        net.set_window(2);
        assert!(net.exchange("engine0", "shard0p", &ping(4)).1.is_ok());
    }

    #[test]
    fn a_frame_the_server_refuses_is_lost() {
        let net = quiet_net(1);
        let pong = encode(&Frame {
            client: 0,
            seq: 1,
            ctx: None,
            payload: Payload::Pong,
        });
        for bytes in [&b"garbage"[..], &pong] {
            assert_eq!(
                net.exchange("engine0", "shard0p", bytes).1,
                Err(NetError::FrameLost)
            );
        }
    }

    #[test]
    fn certain_frame_drop_loses_every_frame() {
        let plan = FaultPlan {
            net: NetFault {
                frame_drop_rate: 1.0,
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(5)
        };
        let net = SimNet::with_shards(default_link(), ChaosInjector::new(plan), 1);
        assert_eq!(
            net.exchange("engine0", "shard0p", &ping(1)).1,
            Err(NetError::FrameLost)
        );
    }

    #[test]
    fn reachability_sees_faults_but_never_counts_them() {
        let plan = FaultPlan {
            net: NetFault {
                frame_drop_rate: 1.0, // would kill every data-plane frame
                partitions: vec![NetPartition {
                    a: "ops0".into(),
                    b: "shard0p".into(),
                    from_window: 1,
                    until_window: 2,
                }],
                kills: vec![HostKill {
                    host: "shard0r".into(),
                    from_window: 1,
                    until_window: 2,
                }],
                ..NetFault::quiet()
            },
            ..FaultPlan::quiet(5)
        };
        let registry = tero_trace::obs::Registry::new();
        let chaos = ChaosInjector::new(plan);
        chaos.instrument(&registry);
        let net = SimNet::with_shards(default_link(), chaos, 1);
        // Certain frame drop does not touch reachability.
        assert_eq!(net.reachable("ops0", "shard0p"), Ok(()));
        assert_eq!(net.reachable("ops0", "nowhere"), Err(NetError::UnknownHost));
        net.set_window(1);
        assert_eq!(net.reachable("ops0", "shard0p"), Err(NetError::Partitioned));
        assert_eq!(net.reachable("ops0", "shard0r"), Err(NetError::HostDown));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("chaos.injected.net_partition_drop"),
            Some(0),
            "checking a partition must not count as an injected fault"
        );
        assert_eq!(snap.counter("chaos.injected.net_shard_kill"), Some(0));
        assert_eq!(snap.counter("chaos.injected.net_frame_drop"), Some(0));
    }

    #[test]
    fn hosts_are_listed_sorted() {
        let net = quiet_net(2);
        assert_eq!(net.hosts(), ["shard0p", "shard0r", "shard1p", "shard1r"]);
    }

    #[test]
    fn default_net_fault_is_well_formed() {
        for shards in [1usize, 2, 3, 5] {
            for windows in [2u64, 4, 6, 12] {
                let f = default_net_fault(shards, windows);
                for p in &f.partitions {
                    assert!(p.from_window < p.until_window);
                    assert!(p.until_window <= windows);
                }
                for k in &f.kills {
                    assert!(k.from_window < k.until_window);
                    assert!(k.until_window <= windows, "kill heals before the horizon");
                }
            }
        }
    }
}
