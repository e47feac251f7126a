//! The game client/server protocol and the displayed-latency model.
//!
//! Real games measure the client↔server RTT "at the server (in a
//! proprietary manner, presumably at the application layer)" and display a
//! smoothed value on the client's HUD (§2.1). We model the common echo
//! protocol: every server update carries a server timestamp; the client's
//! next input echoes that timestamp together with how long the client held
//! it, so the server recovers the pure network RTT; the server averages
//! RTT samples over a sliding window of a few seconds and ships the
//! average back in its updates for the HUD to display.
//!
//! That **windowed average is the entire mechanism** behind the paper's
//! Fig 4 observation that "when network latency increases, gaming latency
//! takes a few seconds to reflect the increase".

use crate::packet::{NodeId, Packet, PacketKind};
use std::collections::VecDeque;
use tero_types::{SimDuration, SimTime};

/// A game client (play-station).
#[derive(Debug)]
pub struct GameClient {
    /// The client's node.
    pub node: NodeId,
    /// The server's node.
    pub server: NodeId,
    /// Interval between input packets.
    pub input_interval: SimDuration,
    /// Wire size of an input packet.
    pub input_bytes: u32,
    /// Latest server timestamp received (echoed on the next input).
    last_server_ts: Option<(SimTime, SimTime)>, // (server_ts, received_at)
    /// The latency currently displayed on the HUD (ms).
    pub displayed_ms: Option<f64>,
}

impl GameClient {
    /// New client with typical parameters (input every 33 ms, 100-byte
    /// packets).
    pub fn new(node: NodeId, server: NodeId) -> Self {
        GameClient {
            node,
            server,
            input_interval: SimDuration::from_millis(33),
            input_bytes: 100,
            last_server_ts: None,
            displayed_ms: None,
        }
    }

    /// Client tick: emit the next input packet.
    pub fn tick(&mut self, now: SimTime, client_idx: usize) -> Packet {
        let (echo_ts, hold_ms) = match self.last_server_ts {
            Some((ts, recv_at)) => (ts, now.since(recv_at).as_millis()),
            None => (SimTime::EPOCH, u64::MAX), // no echo yet
        };
        Packet {
            src: self.node,
            dst: self.server,
            size_bytes: self.input_bytes,
            kind: PacketKind::GameInput {
                client: client_idx,
                echo_ts,
                hold_ms,
            },
            created: now,
        }
    }

    /// Handle a server update.
    pub(crate) fn on_update(&mut self, server_ts: SimTime, displayed_ms: f64, now: SimTime) {
        self.last_server_ts = Some((server_ts, now));
        self.displayed_ms = Some(displayed_ms);
    }
}

/// Per-client server state: RTT samples within the averaging window.
#[derive(Debug)]
pub struct GameServerSession {
    /// The client's node (updates are addressed there).
    pub client_node: NodeId,
    /// Interval between state updates.
    pub update_interval: SimDuration,
    /// Wire size of an update packet.
    pub update_bytes: u32,
    /// Length of the RTT averaging window.
    pub window: SimDuration,
    samples: VecDeque<(SimTime, f64)>,
    /// Most recent raw RTT sample (ms), for diagnostics.
    pub last_rtt_ms: Option<f64>,
}

impl GameServerSession {
    /// New session with typical parameters (updates every 33 ms, 3-second
    /// averaging window, 200-byte updates).
    pub fn new(client_node: NodeId) -> Self {
        GameServerSession {
            client_node,
            update_interval: SimDuration::from_millis(33),
            update_bytes: 200,
            window: SimDuration::from_secs(3),
            samples: VecDeque::new(),
            last_rtt_ms: None,
        }
    }

    /// Handle an input packet: recover the network RTT from the echo.
    pub(crate) fn on_input(&mut self, echo_ts: SimTime, hold_ms: u64, now: SimTime) {
        if hold_ms == u64::MAX || echo_ts == SimTime::EPOCH {
            return; // client had nothing to echo yet
        }
        let total_ms = now.since(echo_ts).as_millis_f64();
        let rtt = (total_ms - hold_ms as f64).max(0.0);
        self.last_rtt_ms = Some(rtt);
        self.samples.push_back((now, rtt));
        let cutoff = now - self.window;
        while self.samples.front().is_some_and(|&(t, _)| t < cutoff) {
            self.samples.pop_front();
        }
    }

    /// The windowed-average latency the HUD should display.
    pub fn displayed_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, r)| r).sum::<f64>() / self.samples.len() as f64
    }

    /// Server tick: emit the next update packet for this client.
    pub fn tick(&self, now: SimTime, server_node: NodeId, client_idx: usize) -> Packet {
        Packet {
            src: server_node,
            dst: self.client_node,
            size_bytes: self.update_bytes,
            kind: PacketKind::GameUpdate {
                client: client_idx,
                server_ts: now,
                displayed_ms: self.displayed_ms(),
            },
            created: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_recovers_pure_network_rtt() {
        let mut s = GameServerSession::new(1);
        // Server stamped an update at t=1000 ms; the client received it and
        // held it 20 ms before echoing; the echo arrives at t=1070 ms.
        // Network RTT = 1070 - 1000 - 20 = 50 ms.
        s.on_input(SimTime::from_millis(1_000), 20, SimTime::from_millis(1_070));
        assert_eq!(s.last_rtt_ms, Some(50.0));
        assert!((s.displayed_ms() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn no_echo_yet_is_ignored() {
        let mut s = GameServerSession::new(1);
        s.on_input(SimTime::EPOCH, u64::MAX, SimTime::from_millis(100));
        assert_eq!(s.last_rtt_ms, None);
        assert_eq!(s.displayed_ms(), 0.0);
    }

    #[test]
    fn window_average_lags_step_change() {
        let mut s = GameServerSession::new(1);
        // 3 s of 30 ms RTTs, sampled every 100 ms.
        let mut now = SimTime::EPOCH;
        for _ in 0..30 {
            now += SimDuration::from_millis(100);
            let sent = now - SimDuration::from_millis(30);
            s.on_input(sent, 0, now);
        }
        assert!((s.displayed_ms() - 30.0).abs() < 1e-9);
        // RTT jumps to 130 ms. Right after the jump, display is still
        // dominated by old samples.
        now += SimDuration::from_millis(100);
        let sent = now - SimDuration::from_millis(130);
        s.on_input(sent, 0, now);
        assert!(
            s.displayed_ms() < 40.0,
            "display lags: {}",
            s.displayed_ms()
        );
        // After a full window of high samples, the display converges.
        for _ in 0..30 {
            now += SimDuration::from_millis(100);
            let sent = now - SimDuration::from_millis(130);
            s.on_input(sent, 0, now);
        }
        assert!(
            (s.displayed_ms() - 130.0).abs() < 1.0,
            "{}",
            s.displayed_ms()
        );
    }

    #[test]
    fn client_echo_cycle() {
        let mut c = GameClient::new(0, 9);
        let p = c.tick(SimTime::from_millis(10), 3);
        match p.kind {
            PacketKind::GameInput { hold_ms, .. } => assert_eq!(hold_ms, u64::MAX),
            _ => panic!(),
        }
        c.on_update(SimTime::from_millis(5), 42.0, SimTime::from_millis(40));
        assert_eq!(c.displayed_ms, Some(42.0));
        let p = c.tick(SimTime::from_millis(73), 3);
        match p.kind {
            PacketKind::GameInput {
                echo_ts, hold_ms, ..
            } => {
                assert_eq!(echo_ts, SimTime::from_millis(5));
                assert_eq!(hold_ms, 33);
            }
            _ => panic!(),
        }
    }
}
