//! Packets and node identifiers.

use tero_types::SimTime;

/// Index of a node in the simulated topology.
pub type NodeId = usize;

/// What a packet carries. Flow indices refer to the simulator's flow
/// tables; game fields implement the RTT-echo protocol of the `game` module.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// UDP constant-bit-rate background traffic.
    Udp {
        /// Index into the simulator's UDP flow table.
        flow: usize,
    },
    /// A TCP data segment.
    TcpData {
        /// Index into the simulator's TCP flow table.
        flow: usize,
        /// Segment sequence number (in segments, not bytes).
        seq: u64,
    },
    /// A (cumulative) TCP acknowledgement.
    TcpAck {
        /// Index into the simulator's TCP flow table.
        flow: usize,
        /// Next expected segment number.
        ack: u64,
    },
    /// A game-client input packet, echoing the latest server timestamp.
    GameInput {
        /// Index into the simulator's game-client table.
        client: usize,
        /// The latest `server_ts` the client received (0 if none yet).
        echo_ts: SimTime,
        /// How long the client held that timestamp before echoing it; the
        /// server subtracts this to get a pure network RTT.
        hold_ms: u64,
    },
    /// A game-server state update carrying the server's timestamp and the
    /// latency value the client should display.
    GameUpdate {
        /// Index into the simulator's game-client table.
        client: usize,
        /// Server transmit timestamp (echoed back by the client).
        server_ts: SimTime,
        /// The windowed-average latency the HUD displays, in ms.
        displayed_ms: f64,
    },
}

/// A simulated packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Wire size in bytes (headers included).
    pub size_bytes: u32,
    /// Payload discriminator.
    pub kind: PacketKind,
    /// Creation time (for diagnostics).
    pub created: SimTime,
}

impl Packet {
    /// Serialization time of this packet on a link of the given rate.
    pub(crate) fn tx_time_ms(&self, rate_bps: f64) -> f64 {
        (self.size_bytes as f64 * 8.0) / rate_bps * 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time() {
        let p = Packet {
            src: 0,
            dst: 1,
            size_bytes: 1250,
            kind: PacketKind::Udp { flow: 0 },
            created: SimTime::EPOCH,
        };
        // 1250 B = 10,000 bits; at 100 Mbps that is 0.1 ms.
        assert!((p.tx_time_ms(100e6) - 0.1).abs() < 1e-12);
        // At 1 Gbps, 0.01 ms.
        assert!((p.tx_time_ms(1e9) - 0.01).abs() < 1e-12);
    }
}
