//! Constant-bit-rate UDP background flows (Table 2's "2 UDP flows, 50 % BD
//! each").

use crate::packet::NodeId;
use tero_types::{SimDuration, SimRng, SimTime};

/// A CBR UDP flow: `rate_bps` of `packet_bytes`-sized packets from `src`
/// to `dst`, active on `[start, stop)`.
///
/// `jitter` is the fractional send-interval jitter (0.0 = perfectly
/// periodic). Real traffic generators (the paper uses iperf3) carry OS
/// scheduling jitter; perfectly periodic arrivals phase-lock with the
/// bottleneck's service times and starve other traffic of queue slots — a
/// simulation artifact, not a network behaviour — so experiments should
/// use a small non-zero jitter.
#[derive(Debug, Clone)]
pub struct UdpFlow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Sending rate in bits per second.
    pub rate_bps: f64,
    /// Packet size in bytes.
    pub packet_bytes: u32,
    /// First transmission time.
    pub start: SimTime,
    /// No transmissions at or after this time.
    pub stop: SimTime,
    /// Fractional send-interval jitter in `[0, 1)`.
    pub jitter: f64,
    /// Packets sent so far.
    pub sent: u64,
    /// Packets received at the destination.
    pub received: u64,
}

impl UdpFlow {
    /// A perfectly periodic CBR flow.
    pub fn cbr(
        src: NodeId,
        dst: NodeId,
        rate_bps: f64,
        packet_bytes: u32,
        start: SimTime,
        stop: SimTime,
    ) -> Self {
        UdpFlow {
            src,
            dst,
            rate_bps,
            packet_bytes,
            start,
            stop,
            jitter: 0.0,
            sent: 0,
            received: 0,
        }
    }

    /// Builder-style jitter override.
    pub(crate) fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 0.99);
        self
    }

    /// Nominal interval between consecutive packets.
    pub fn interval(&self) -> SimDuration {
        let secs = (self.packet_bytes as f64 * 8.0) / self.rate_bps;
        SimDuration::from_secs_f64(secs.max(1e-6))
    }

    /// The interval to the next packet, with jitter applied (mean remains
    /// the nominal interval).
    pub(crate) fn next_interval(&self, rng: &mut SimRng) -> SimDuration {
        let nominal = self.interval();
        if self.jitter <= 0.0 {
            return nominal;
        }
        let factor = 1.0 + self.jitter * (2.0 * rng.f64() - 1.0);
        nominal.mul_f64(factor).max(SimDuration::from_micros(1))
    }

    /// Whether the flow transmits at time `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_matches_rate() {
        let f = UdpFlow::cbr(0, 1, 50e6, 1250, SimTime::EPOCH, SimTime::from_secs(10));
        // 10,000 bits at 50 Mbps = 200 µs.
        assert_eq!(f.interval().as_micros(), 200);
    }

    #[test]
    fn jitter_preserves_mean_interval() {
        let f =
            UdpFlow::cbr(0, 1, 1e6, 1250, SimTime::EPOCH, SimTime::from_secs(10)).with_jitter(0.2);
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mean_us: f64 = (0..n)
            .map(|_| f.next_interval(&mut rng).as_micros() as f64)
            .sum::<f64>()
            / n as f64;
        let nominal = f.interval().as_micros() as f64;
        assert!(
            (mean_us - nominal).abs() < nominal * 0.01,
            "mean {mean_us} vs nominal {nominal}"
        );
        // Zero jitter is exactly periodic.
        let p = UdpFlow::cbr(0, 1, 1e6, 1250, SimTime::EPOCH, SimTime::from_secs(1));
        assert_eq!(p.next_interval(&mut rng), p.interval());
    }

    #[test]
    fn activity_window() {
        let f = UdpFlow::cbr(
            0,
            1,
            1e6,
            1250,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(!f.active_at(SimTime::from_millis(999)));
        assert!(f.active_at(SimTime::from_secs(1)));
        assert!(!f.active_at(SimTime::from_secs(2)));
    }
}
