//! The discrete-event simulator core: event heap, routing, dispatch.

use crate::game::{GameClient, GameServerSession};
use crate::link::{Link, LinkConfig, LinkId, Offer};
use crate::packet::{NodeId, Packet, PacketKind};
use crate::tcp::{TcpActions, TcpFlow};
use crate::udp::UdpFlow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use tero_obs::{CounterHandle, GaugeHandle, Registry};
use tero_types::{SimDuration, SimRng, SimTime};

/// Scheduled work.
#[derive(Debug)]
enum Event {
    /// A packet arrives at a node (after crossing a link).
    Deliver { node: NodeId, pkt: Packet },
    /// A link's transmitter becomes free.
    LinkFree { link: LinkId },
    /// A UDP flow's next packet is due.
    UdpSend { flow: usize },
    /// A TCP flow should (re)try sending (start or pacing tick).
    TcpPace { flow: usize },
    /// A TCP retransmission timer fires (valid only if `gen` is current).
    TcpRto { flow: usize, gen: u64 },
    /// A game client emits its next input packet.
    GameClientTick { client: usize },
    /// The game server emits its next update for one client.
    GameServerTick { client: usize },
}

struct HeapEntry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Pacing tick for application-limited TCP flows.
const TCP_PACE_INTERVAL: SimDuration = SimDuration(10_000); // 10 ms

/// The network simulator: nodes, links, routes, flows, game endpoints.
pub struct Simulator {
    now: SimTime,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    seq: u64,
    node_count: usize,
    links: Vec<Link>,
    /// Directed adjacency: `links_from[node]` lists `(link_id, to)`.
    links_from: Vec<Vec<(LinkId, NodeId)>>,
    routes: HashMap<(NodeId, NodeId), LinkId>,
    /// UDP flows.
    pub udp_flows: Vec<UdpFlow>,
    /// TCP flows.
    pub tcp_flows: Vec<TcpFlow>,
    /// Game clients.
    pub game_clients: Vec<GameClient>,
    /// Per-client server sessions (parallel to `game_clients`).
    pub game_sessions: Vec<GameServerSession>,
    game_server_node: Option<NodeId>,
    /// Total packets that reached a destination.
    pub delivered_packets: u64,
    rng: SimRng,
    obs: Option<SimObs>,
}

/// Metric handles installed by [`Simulator::instrument`], resolved once so
/// the event loop never touches the registry's name table.
struct SimObs {
    events: CounterHandle,
    scheduled: CounterHandle,
    heap_depth: GaugeHandle,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.node_count)
            .field("links", &self.links.len())
            .field("pending_events", &self.heap.len())
            .field("delivered_packets", &self.delivered_packets)
            .finish()
    }
}

impl Simulator {
    /// An empty simulator at t = 0.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::EPOCH,
            heap: BinaryHeap::new(),
            seq: 0,
            node_count: 0,
            links: Vec::new(),
            links_from: Vec::new(),
            routes: HashMap::new(),
            udp_flows: Vec::new(),
            tcp_flows: Vec::new(),
            game_clients: Vec::new(),
            game_sessions: Vec::new(),
            game_server_node: None,
            delivered_packets: 0,
            rng: SimRng::new(1),
            obs: None,
        }
    }

    /// Register simulator metrics (`simnet.*`) with a registry: events
    /// dispatched, events scheduled, and the event-heap occupancy gauge
    /// (whose high-watermark records peak backlog).
    pub fn instrument(&mut self, registry: &Registry) {
        self.obs = Some(SimObs {
            events: registry.counter("simnet.events"),
            scheduled: registry.counter("simnet.scheduled"),
            heap_depth: registry.gauge("simnet.heap_depth"),
        });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.node_count;
        self.node_count += 1;
        self.links_from.push(Vec::new());
        id
    }

    /// Add a duplex link between `a` and `b`; returns the directed link
    /// ids `(a→b, b→a)`.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        let ab = self.links.len();
        self.links.push(Link::new(cfg, b));
        self.links_from[a].push((ab, b));
        let ba = self.links.len();
        self.links.push(Link::new(cfg, a));
        self.links_from[b].push((ba, a));
        (ab, ba)
    }

    /// Compute shortest-path (hop-count) routes for every `(node, dst)`
    /// pair by BFS. Must be called after topology construction and before
    /// running.
    pub fn compute_routes(&mut self) {
        self.routes.clear();
        for dst in 0..self.node_count {
            // BFS backwards from dst over reversed edges: for each node,
            // the first hop on a shortest path to dst.
            let mut dist = vec![usize::MAX; self.node_count];
            dist[dst] = 0;
            let mut queue = VecDeque::from([dst]);
            while let Some(n) = queue.pop_front() {
                // Find nodes m with a link m→n.
                for m in 0..self.node_count {
                    for &(lid, to) in &self.links_from[m] {
                        if to == n && dist[m] == usize::MAX {
                            dist[m] = dist[n] + 1;
                            self.routes.insert((m, dst), lid);
                            queue.push_back(m);
                        }
                    }
                }
            }
        }
    }

    /// Access a link (e.g. to read the bottleneck queue).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id]
    }

    /// Register a UDP flow and schedule its first packet.
    pub fn add_udp_flow(&mut self, flow: UdpFlow) -> usize {
        let idx = self.udp_flows.len();
        let start = flow.start;
        self.udp_flows.push(flow);
        self.schedule(start, Event::UdpSend { flow: idx });
        idx
    }

    /// Register a TCP flow and schedule its start.
    pub fn add_tcp_flow(&mut self, flow: TcpFlow) -> usize {
        let idx = self.tcp_flows.len();
        let start = flow.start;
        self.tcp_flows.push(flow);
        self.schedule(start, Event::TcpPace { flow: idx });
        idx
    }

    /// Register a game client + its server session; schedules both tick
    /// loops. `set_game_server` must have been called first.
    pub fn add_game_client(&mut self, client: GameClient) -> usize {
        assert!(
            self.game_server_node.is_some(),
            "call set_game_server before add_game_client"
        );
        let idx = self.game_clients.len();
        let session = GameServerSession::new(client.node);
        let start = SimTime::EPOCH;
        self.game_clients.push(client);
        self.game_sessions.push(session);
        self.schedule(start, Event::GameClientTick { client: idx });
        self.schedule(start, Event::GameServerTick { client: idx });
        idx
    }

    /// Declare which node hosts the game server.
    pub fn set_game_server(&mut self, node: NodeId) {
        self.game_server_node = Some(node);
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        let at = at.max(self.now);
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry {
            at,
            seq: self.seq,
            event,
        }));
        if let Some(obs) = &self.obs {
            obs.scheduled.inc();
            obs.heap_depth.set(self.heap.len() as i64);
        }
    }

    /// Inject a packet at its source node (routing begins immediately).
    pub fn inject(&mut self, pkt: Packet) {
        let node = pkt.src;
        self.route_from(node, pkt);
    }

    fn route_from(&mut self, node: NodeId, pkt: Packet) {
        if pkt.dst == node {
            // Delivered locally.
            let now = self.now;
            self.schedule(now, Event::Deliver { node, pkt });
            return;
        }
        let Some(&lid) = self.routes.get(&(node, pkt.dst)) else {
            // Unroutable: drop silently (like a null route).
            return;
        };
        let now = self.now;
        if let (
            Offer::Transmit {
                free_at,
                deliver_at,
            },
            Some(p),
        ) = self.links[lid].offer(pkt, now)
        {
            let to = self.links[lid].to;
            self.schedule(free_at, Event::LinkFree { link: lid });
            self.schedule(deliver_at, Event::Deliver { node: to, pkt: p });
        } // else: queued or dropped
    }

    fn apply_tcp_actions(&mut self, flow: usize, actions: TcpActions) {
        for pkt in actions.send {
            self.inject(pkt);
        }
        if let Some(at) = actions.set_rto_at {
            let gen = self.tcp_flows[flow].rto_gen;
            self.schedule(at, Event::TcpRto { flow, gen });
        }
    }

    /// Run until the given time (inclusive of events at exactly `until`).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if entry.at > until {
                break;
            }
            let Reverse(HeapEntry { at, event, .. }) = self.heap.pop().unwrap();
            self.now = at;
            if let Some(obs) = &self.obs {
                obs.events.inc();
                obs.heap_depth.set(self.heap.len() as i64);
            }
            self.handle(event);
        }
        self.now = self.now.max(until);
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::LinkFree { link } => {
                let now = self.now;
                if let Some((pkt, free_at, deliver_at)) = self.links[link].on_free(now) {
                    let to = self.links[link].to;
                    self.schedule(free_at, Event::LinkFree { link });
                    self.schedule(deliver_at, Event::Deliver { node: to, pkt });
                }
            }
            Event::Deliver { node, pkt } => {
                if pkt.dst != node {
                    // Transit node: forward.
                    self.route_from(node, pkt);
                    return;
                }
                self.delivered_packets += 1;
                let now = self.now;
                match pkt.kind {
                    PacketKind::Udp { flow } => {
                        self.udp_flows[flow].received += 1;
                    }
                    PacketKind::TcpData { flow, seq } => {
                        let ack = self.tcp_flows[flow].on_data(seq, now, flow);
                        self.inject(ack);
                    }
                    PacketKind::TcpAck { flow, ack } => {
                        let actions = self.tcp_flows[flow].on_ack(ack, now, flow);
                        self.apply_tcp_actions(flow, actions);
                    }
                    PacketKind::GameInput {
                        client,
                        echo_ts,
                        hold_ms,
                    } => {
                        self.game_sessions[client].on_input(echo_ts, hold_ms, now);
                    }
                    PacketKind::GameUpdate {
                        client,
                        server_ts,
                        displayed_ms,
                    } => {
                        self.game_clients[client].on_update(server_ts, displayed_ms, now);
                    }
                }
            }
            Event::UdpSend { flow } => {
                let now = self.now;
                let f = &mut self.udp_flows[flow];
                if now >= f.stop {
                    return;
                }
                let interval = f.next_interval(&mut self.rng);
                if f.active_at(now) {
                    f.sent += 1;
                    let pkt = Packet {
                        src: f.src,
                        dst: f.dst,
                        size_bytes: f.packet_bytes,
                        kind: PacketKind::Udp { flow },
                        created: now,
                    };
                    self.inject(pkt);
                    self.schedule(now + interval, Event::UdpSend { flow });
                } else {
                    // Not started yet: wake at start.
                    let start = f.start;
                    self.schedule(start.max(now + interval), Event::UdpSend { flow });
                }
            }
            Event::TcpPace { flow } => {
                let now = self.now;
                let stop = self.tcp_flows[flow].stop;
                let actions = self.tcp_flows[flow].try_send(now, flow);
                self.apply_tcp_actions(flow, actions);
                // App-limited flows need periodic pacing wake-ups.
                if self.tcp_flows[flow].app_limit_bps.is_some() && now < stop {
                    self.schedule(now + TCP_PACE_INTERVAL, Event::TcpPace { flow });
                }
            }
            Event::TcpRto { flow, gen } => {
                if self.tcp_flows[flow].rto_gen != gen {
                    return; // stale timer
                }
                let now = self.now;
                let actions = self.tcp_flows[flow].on_rto(now, flow);
                self.apply_tcp_actions(flow, actions);
            }
            Event::GameClientTick { client } => {
                let now = self.now;
                let pkt = self.game_clients[client].tick(now, client);
                let interval = self.game_clients[client].input_interval;
                self.inject(pkt);
                self.schedule(now + interval, Event::GameClientTick { client });
            }
            Event::GameServerTick { client } => {
                let now = self.now;
                let server = self.game_server_node.expect("game server set");
                let pkt = self.game_sessions[client].tick(now, server, client);
                let interval = self.game_sessions[client].update_interval;
                self.inject(pkt);
                self.schedule(now + interval, Event::GameServerTick { client });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two nodes, one duplex link.
    fn two_nodes(rate_bps: f64, queue: usize) -> (Simulator, NodeId, NodeId, LinkId) {
        let mut sim = Simulator::new();
        let a = sim.add_node();
        let b = sim.add_node();
        let (ab, _) = sim.add_duplex_link(
            a,
            b,
            LinkConfig {
                rate_bps,
                prop: SimDuration::from_millis(5),
                queue_packets: queue,
            },
        );
        sim.compute_routes();
        (sim, a, b, ab)
    }

    #[test]
    fn udp_flow_delivers_at_rate() {
        let (mut sim, a, b, _) = two_nodes(10e6, 100);
        sim.add_udp_flow(UdpFlow::cbr(
            a,
            b,
            1e6,
            1250,
            SimTime::EPOCH,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_secs(2));
        let f = &sim.udp_flows[0];
        // 1 Mbps of 10-kbit packets = 100 pkt/s for 1 s.
        assert_eq!(f.sent, 100);
        assert_eq!(f.received, 100, "uncongested link loses nothing");
    }

    #[test]
    fn metrics_track_event_loop() {
        let (mut sim, a, b, _) = two_nodes(10e6, 100);
        let registry = Registry::new();
        sim.instrument(&registry);
        sim.add_udp_flow(UdpFlow::cbr(
            a,
            b,
            1e6,
            1250,
            SimTime::EPOCH,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_secs(2));
        let snap = registry.snapshot();
        let events = snap.counter("simnet.events").unwrap();
        let scheduled = snap.counter("simnet.scheduled").unwrap();
        assert!(events > 100, "events {events}");
        assert!(scheduled >= events, "every handled event was scheduled");
        let depth = snap.gauge("simnet.heap_depth").unwrap();
        assert!(depth.high_watermark >= 1);
        assert_eq!(depth.value, 0, "heap drained at quiescence");
    }

    #[test]
    fn udp_overload_fills_queue_and_drops() {
        // 2 Mbps offered into a 1 Mbps link with a 10-packet queue.
        let (mut sim, a, b, ab) = two_nodes(1e6, 10);
        sim.add_udp_flow(UdpFlow::cbr(
            a,
            b,
            2e6,
            1250,
            SimTime::EPOCH,
            SimTime::from_secs(2),
        ));
        sim.run_until(SimTime::from_secs(1));
        let link = sim.link(ab);
        assert_eq!(link.queue_len(), 10, "standing queue at capacity");
        assert!(link.drops > 0, "drop-tail engaged");
        // Queue latency ≈ 10 pkt × 10 ms = 100 ms (+ tx + prop).
        let lat = link.current_latency_ms(1250);
        assert!((lat - 115.0).abs() < 1.0, "latency {lat}");
    }

    #[test]
    fn multihop_routing_works() {
        // a — m — b chain.
        let mut sim = Simulator::new();
        let a = sim.add_node();
        let m = sim.add_node();
        let b = sim.add_node();
        let cfg = LinkConfig {
            rate_bps: 10e6,
            prop: SimDuration::from_millis(2),
            queue_packets: 50,
        };
        sim.add_duplex_link(a, m, cfg);
        sim.add_duplex_link(m, b, cfg);
        sim.compute_routes();
        sim.add_udp_flow(UdpFlow::cbr(
            a,
            b,
            1e6,
            1250,
            SimTime::EPOCH,
            SimTime::from_millis(100),
        ));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.udp_flows[0].received, sim.udp_flows[0].sent);
        assert!(sim.udp_flows[0].sent > 0);
    }

    #[test]
    fn tcp_transfers_data_without_loss() {
        let (mut sim, a, b, _) = two_nodes(10e6, 100);
        sim.add_tcp_flow(TcpFlow::new(a, b, SimTime::EPOCH, SimTime::from_secs(2)));
        sim.run_until(SimTime::from_secs(3));
        let f = &sim.tcp_flows[0];
        assert!(f.delivered > 100, "delivered {}", f.delivered);
        assert_eq!(f.timeouts, 0, "no timeouts on a clean link");
        assert!(f.srtt_ms().is_some());
        // A greedy flow bloats the 100-packet buffer: base RTT is ~11 ms,
        // and a full queue adds 100 × 1.2 ms ≈ 120 ms.
        let srtt = f.srtt_ms().unwrap();
        assert!((5.0..200.0).contains(&srtt), "srtt {srtt}");
    }

    #[test]
    fn tcp_recovers_from_congestion_loss() {
        // Tight queue forces drops; TCP must keep delivering via
        // retransmissions.
        let (mut sim, a, b, _) = two_nodes(2e6, 5);
        sim.add_tcp_flow(TcpFlow::new(a, b, SimTime::EPOCH, SimTime::from_secs(10)));
        sim.run_until(SimTime::from_secs(12));
        let f = &sim.tcp_flows[0];
        assert!(f.retransmits > 0, "expected losses");
        assert!(f.delivered > 500, "delivered {}", f.delivered);
        // Goodput close to the link rate: 2 Mbps / 12 kbit ≈ 166 seg/s.
        let goodput = f.delivered as f64 / 10.0;
        assert!(goodput > 100.0, "goodput {goodput} seg/s");
    }

    #[test]
    fn game_latency_reflects_path_rtt() {
        let mut sim = Simulator::new();
        let client = sim.add_node();
        let server = sim.add_node();
        sim.add_duplex_link(
            client,
            server,
            LinkConfig {
                rate_bps: 100e6,
                prop: SimDuration::from_millis(15),
                queue_packets: 100,
            },
        );
        sim.compute_routes();
        sim.set_game_server(server);
        sim.add_game_client(GameClient::new(client, server));
        sim.run_until(SimTime::from_secs(10));
        let displayed = sim.game_clients[0].displayed_ms.unwrap();
        // RTT ≈ 2 × 15 ms + small tx; display should be close.
        assert!((displayed - 30.0).abs() < 2.0, "displayed {displayed}");
    }

    #[test]
    fn game_latency_rises_under_cross_traffic() {
        // Client→server path shares a 2 Mbps bottleneck with UDP overload.
        let mut sim = Simulator::new();
        let client = sim.add_node();
        let router = sim.add_node();
        let server = sim.add_node();
        let fast = LinkConfig {
            rate_bps: 100e6,
            prop: SimDuration::from_millis(1),
            queue_packets: 500,
        };
        let slow = LinkConfig {
            rate_bps: 2e6,
            prop: SimDuration::from_millis(1),
            queue_packets: 20,
        };
        sim.add_duplex_link(client, router, fast);
        sim.add_duplex_link(router, server, slow);
        sim.compute_routes();
        sim.set_game_server(server);
        sim.add_game_client(GameClient::new(client, server));
        // Warm up without load.
        sim.run_until(SimTime::from_secs(5));
        let calm = sim.game_clients[0].displayed_ms.unwrap();
        // Saturating UDP from client side toward the server.
        sim.add_udp_flow(
            UdpFlow::cbr(
                client,
                server,
                4e6,
                1250,
                SimTime::from_secs(5),
                SimTime::from_secs(20),
            )
            .with_jitter(0.1),
        );
        sim.run_until(SimTime::from_secs(15));
        let loaded = sim.game_clients[0].displayed_ms.unwrap();
        assert!(
            loaded > calm + 30.0,
            "display should rise under congestion: {calm} -> {loaded}"
        );
    }
}
