//! The Fig 3 testbed: two play-stations, a controlled bottleneck, and
//! traffic generator/sink devices.
//!
//! ```text
//!  Control ── Switch1 ── Server
//!                 │
//!  Test ── Switch2 ── Router ──(joins Switch1)
//!            │          │
//!           Sink       Gen
//! ```
//!
//! The Control play-station shares the path to the game server with the
//! Test play-station, except that Test's path crosses an additional
//! bottleneck (Router → Switch2) whose bandwidth and queue size we control
//! and which carries the generator→sink background traffic.

use crate::game::GameClient;
use crate::link::{LinkConfig, LinkId};
use crate::packet::NodeId;
use crate::sim::Simulator;
use tero_types::SimDuration;

/// Node/link handles of a built testbed.
#[derive(Debug)]
pub struct Testbed {
    /// The simulator with topology and routes ready.
    pub sim: Simulator,
    /// Control play-station node.
    pub control: NodeId,
    /// Test play-station node.
    pub test: NodeId,
    /// Background-traffic generator node (router side).
    pub gen: NodeId,
    /// Background-traffic sink node (switch-2 side).
    pub sink: NodeId,
    /// Game-server node.
    pub server: NodeId,
    /// The bottleneck link Router → Switch2 (congested direction).
    pub bottleneck_down: LinkId,
    /// The reverse direction Switch2 → Router.
    pub bottleneck_up: LinkId,
    /// Index of the Control game client.
    pub control_client: usize,
    /// Index of the Test game client.
    pub test_client: usize,
}

/// Build the testbed.
///
/// * `bottleneck_bps` / `bottleneck_queue` — the Table 2 knobs;
/// * `server_one_way` — propagation to the game server (sets the base
///   gaming latency, which differs per game);
/// * `display_window` — the server's RTT-averaging window.
pub(crate) fn build_testbed(
    bottleneck_bps: f64,
    bottleneck_queue: usize,
    server_one_way: SimDuration,
    display_window: SimDuration,
) -> Testbed {
    let mut sim = Simulator::new();
    let control = sim.add_node();
    let test = sim.add_node();
    let gen = sim.add_node();
    let sink = sim.add_node();
    let switch1 = sim.add_node();
    let switch2 = sim.add_node();
    let router = sim.add_node();
    let server = sim.add_node();

    // LAN links: 1 Gbps, 50 µs propagation, deep queues.
    let lan = LinkConfig {
        rate_bps: 1e9,
        prop: SimDuration::from_micros(50),
        queue_packets: 1_000,
    };
    sim.add_duplex_link(control, switch1, lan);
    sim.add_duplex_link(test, switch2, lan);
    sim.add_duplex_link(gen, router, lan);
    sim.add_duplex_link(sink, switch2, lan);
    sim.add_duplex_link(router, switch1, lan);

    // Bottleneck between Router and Switch2.
    let bottleneck = LinkConfig {
        rate_bps: bottleneck_bps,
        prop: SimDuration::from_micros(100),
        queue_packets: bottleneck_queue,
    };
    let (bottleneck_down, bottleneck_up) = sim.add_duplex_link(router, switch2, bottleneck);

    // Server uplink carries the game's base propagation delay.
    let server_link = LinkConfig {
        rate_bps: 1e9,
        prop: server_one_way,
        queue_packets: 1_000,
    };
    sim.add_duplex_link(switch1, server, server_link);

    sim.compute_routes();
    sim.set_game_server(server);

    let mut control_gc = GameClient::new(control, server);
    control_gc.input_interval = SimDuration::from_millis(33);
    let mut test_gc = GameClient::new(test, server);
    test_gc.input_interval = SimDuration::from_millis(33);
    let control_client = sim.add_game_client(control_gc);
    let test_client = sim.add_game_client(test_gc);
    for s in &mut sim.game_sessions {
        s.window = display_window;
    }

    Testbed {
        sim,
        control,
        test,
        gen,
        sink,
        server,
        bottleneck_down,
        bottleneck_up,
        control_client,
        test_client,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tero_types::SimTime;

    #[test]
    fn both_clients_see_base_latency_when_idle() {
        let mut tb = build_testbed(
            100e6,
            500,
            SimDuration::from_millis(18),
            SimDuration::from_secs(3),
        );
        tb.sim.run_until(SimTime::from_secs(20));
        let control = tb.sim.game_clients[tb.control_client].displayed_ms.unwrap();
        let test = tb.sim.game_clients[tb.test_client].displayed_ms.unwrap();
        // Base RTT ≈ 2×18 ms plus sub-ms overheads, same for both.
        assert!((control - 36.0).abs() < 2.0, "control {control}");
        assert!(
            (test - control).abs() < 1.0,
            "paths agree: test {test} control {control}"
        );
    }

    #[test]
    fn test_path_crosses_bottleneck_and_control_does_not() {
        let mut tb = build_testbed(
            1e6, // 1 Mbps so congestion is easy to create
            20,
            SimDuration::from_millis(5),
            SimDuration::from_secs(1),
        );
        // Saturate the bottleneck downstream (gen → sink).
        tb.sim.add_udp_flow(
            crate::udp::UdpFlow::cbr(
                tb.gen,
                tb.sink,
                2e6,
                1250,
                SimTime::from_secs(5),
                SimTime::from_secs(30),
            )
            .with_jitter(0.1),
        );
        tb.sim.run_until(SimTime::from_secs(25));
        let control = tb.sim.game_clients[tb.control_client].displayed_ms.unwrap();
        let test = tb.sim.game_clients[tb.test_client].displayed_ms.unwrap();
        assert!(
            test > control + 50.0,
            "bottleneck must hit Test only: test {test} control {control}"
        );
        assert!(control < 15.0, "control unaffected: {control}");
    }
}
