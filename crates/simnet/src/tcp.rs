//! A Reno-style TCP model for background traffic.
//!
//! Implements the sender/receiver behaviour the Table 2 experiments need:
//! slow start, congestion avoidance, fast retransmit / fast recovery on
//! three duplicate ACKs, retransmission timeouts with exponential backoff,
//! Karn-style RTT sampling (no samples from retransmitted segments), an
//! out-of-order receive buffer with cumulative ACKs, and an optional
//! application-layer rate limit (the paper's "10 % BD each" flows are
//! app-limited, not greedy).
//!
//! Sequence numbers count *segments*, not bytes — each data packet carries
//! exactly one maximum-size segment, which is all that store-and-forward
//! queueing dynamics need.

use crate::packet::{NodeId, Packet, PacketKind};
use std::collections::{BTreeSet, HashMap};
use tero_types::{SimDuration, SimTime};

/// Sender congestion-control state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CcState {
    SlowStart,
    CongestionAvoidance,
    FastRecovery,
}

/// One TCP flow (sender and receiver state live together; the simulator
/// routes packets between the two endpoints).
#[derive(Debug)]
pub(crate) struct TcpFlow {
    /// Sender node.
    pub src: NodeId,
    /// Receiver node.
    pub dst: NodeId,
    /// Data-segment wire size in bytes.
    pub seg_bytes: u32,
    /// ACK wire size in bytes.
    pub ack_bytes: u32,
    /// First transmission time.
    pub start: SimTime,
    /// The sender stops offering new data at this time.
    pub stop: SimTime,
    /// Application-limited rate in bits/s (`None` = greedy).
    pub app_limit_bps: Option<f64>,

    // Sender state.
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    cc: CcState,
    recover: u64,
    pub(crate) srtt_ms: Option<f64>,
    rttvar_ms: f64,
    rto: SimDuration,
    /// Generation counter: a scheduled RTO event is valid only if its
    /// generation matches (restarting the timer bumps the generation).
    pub rto_gen: u64,
    send_times: HashMap<u64, SimTime>,
    tokens_bytes: f64,
    tokens_at: SimTime,

    // Receiver state.
    rcv_nxt: u64,
    ooo: BTreeSet<u64>,

    // Statistics.
    /// Segments delivered in order to the receiving application.
    pub delivered: u64,
    /// Segments retransmitted.
    pub retransmits: u64,
    /// Timeout events.
    pub timeouts: u64,
}

/// What the flow asks the simulator to do after handling an event.
#[derive(Debug, Default)]
pub(crate) struct TcpActions {
    /// Packets to inject at the appropriate source node.
    pub send: Vec<Packet>,
    /// Restart the RTO timer at this absolute time (with the flow's new
    /// `rto_gen`).
    pub set_rto_at: Option<SimTime>,
}

impl TcpFlow {
    /// Create a flow with standard parameters (1500-byte segments, 40-byte
    /// ACKs, initial cwnd 2, initial RTO 1 s).
    pub(crate) fn new(src: NodeId, dst: NodeId, start: SimTime, stop: SimTime) -> Self {
        TcpFlow {
            src,
            dst,
            seg_bytes: 1_500,
            ack_bytes: 40,
            start,
            stop,
            app_limit_bps: None,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: 2.0,
            ssthresh: 64.0,
            dupacks: 0,
            cc: CcState::SlowStart,
            recover: 0,
            srtt_ms: None,
            rttvar_ms: 0.0,
            rto: SimDuration::from_secs(1),
            rto_gen: 0,
            send_times: HashMap::new(),
            tokens_bytes: 0.0,
            tokens_at: start,
            rcv_nxt: 0,
            ooo: BTreeSet::new(),
            delivered: 0,
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// App-limited variant (Table 2's staggered 10 %-BD flows).
    pub(crate) fn with_app_limit(mut self, bps: f64) -> Self {
        self.app_limit_bps = Some(bps);
        self
    }

    /// Segments in flight.
    pub(crate) fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn data_packet(&self, seq: u64, now: SimTime, flow_idx: usize) -> Packet {
        Packet {
            src: self.src,
            dst: self.dst,
            size_bytes: self.seg_bytes,
            kind: PacketKind::TcpData {
                flow: flow_idx,
                seq,
            },
            created: now,
        }
    }

    fn refill_tokens(&mut self, now: SimTime) {
        if let Some(bps) = self.app_limit_bps {
            let dt = now.since(self.tokens_at).as_secs_f64();
            self.tokens_bytes =
                (self.tokens_bytes + bps / 8.0 * dt).min(8.0 * self.seg_bytes as f64); // small burst bucket
            self.tokens_at = now;
        }
    }

    /// Offer the sender a chance to transmit new segments (called on
    /// start, on ACKs, and on pacing ticks for app-limited flows).
    pub(crate) fn try_send(&mut self, now: SimTime, flow_idx: usize) -> TcpActions {
        let mut actions = TcpActions::default();
        if now < self.start || now >= self.stop {
            return actions;
        }
        self.refill_tokens(now);
        while (self.flight() as f64) < self.cwnd {
            if let Some(_bps) = self.app_limit_bps {
                if self.tokens_bytes < self.seg_bytes as f64 {
                    break;
                }
                self.tokens_bytes -= self.seg_bytes as f64;
            }
            let seq = self.snd_nxt;
            self.snd_nxt += 1;
            self.send_times.insert(seq, now);
            actions.send.push(self.data_packet(seq, now, flow_idx));
        }
        if !actions.send.is_empty() {
            self.rto_gen += 1;
            actions.set_rto_at = Some(now + self.rto);
        }
        actions
    }

    /// Receiver side: handle an arriving data segment; returns the ACK to
    /// send back.
    pub(crate) fn on_data(&mut self, seq: u64, now: SimTime, flow_idx: usize) -> Packet {
        if seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            self.delivered += 1;
            // Drain any buffered contiguous segments.
            while self.ooo.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
                self.delivered += 1;
            }
        } else if seq > self.rcv_nxt {
            self.ooo.insert(seq);
        } // duplicate below rcv_nxt: ignore, still ACK
        Packet {
            src: self.dst,
            dst: self.src,
            size_bytes: self.ack_bytes,
            kind: PacketKind::TcpAck {
                flow: flow_idx,
                ack: self.rcv_nxt,
            },
            created: now,
        }
    }

    /// Sender side: handle a cumulative ACK.
    pub(crate) fn on_ack(&mut self, ack: u64, now: SimTime, flow_idx: usize) -> TcpActions {
        let mut actions = TcpActions::default();
        if ack > self.snd_una {
            // New data acknowledged.
            let newly = ack - self.snd_una;
            // Karn: RTT sample only from a never-retransmitted segment.
            if let Some(sent) = self.send_times.remove(&(ack - 1)) {
                let sample = now.since(sent).as_millis_f64();
                self.update_rtt(sample);
            }
            for s in self.snd_una..ack {
                self.send_times.remove(&s);
            }
            self.snd_una = ack;
            self.dupacks = 0;
            match self.cc {
                CcState::FastRecovery => {
                    if ack >= self.recover {
                        // Full recovery.
                        self.cwnd = self.ssthresh;
                        self.cc = CcState::CongestionAvoidance;
                    } else {
                        // Partial ACK: retransmit the next hole.
                        self.retransmits += 1;
                        actions
                            .send
                            .push(self.data_packet(self.snd_una, now, flow_idx));
                    }
                }
                CcState::SlowStart => {
                    self.cwnd += newly as f64;
                    if self.cwnd >= self.ssthresh {
                        self.cc = CcState::CongestionAvoidance;
                    }
                }
                CcState::CongestionAvoidance => {
                    self.cwnd += newly as f64 / self.cwnd;
                }
            }
            // Restart the timer if data remains outstanding.
            self.rto_gen += 1;
            if self.flight() > 0 {
                actions.set_rto_at = Some(now + self.rto);
            }
            let more = self.try_send(now, flow_idx);
            actions.send.extend(more.send);
            if let Some(t) = more.set_rto_at {
                actions.set_rto_at = Some(t);
            }
        } else if ack == self.snd_una && self.flight() > 0 {
            // Duplicate ACK.
            self.dupacks += 1;
            match self.cc {
                CcState::FastRecovery => {
                    // Window inflation lets new segments out per dupack.
                    self.cwnd += 1.0;
                    let more = self.try_send(now, flow_idx);
                    actions.send.extend(more.send);
                }
                _ if self.dupacks == 3 => {
                    // Fast retransmit.
                    self.ssthresh = (self.flight() as f64 / 2.0).max(2.0);
                    self.cwnd = self.ssthresh + 3.0;
                    self.recover = self.snd_nxt;
                    self.cc = CcState::FastRecovery;
                    self.retransmits += 1;
                    self.send_times.remove(&self.snd_una); // Karn
                    actions
                        .send
                        .push(self.data_packet(self.snd_una, now, flow_idx));
                    self.rto_gen += 1;
                    actions.set_rto_at = Some(now + self.rto);
                }
                _ => {}
            }
        }
        actions
    }

    /// Retransmission timeout fired (the simulator checks `gen` against
    /// `rto_gen` before calling).
    pub(crate) fn on_rto(&mut self, now: SimTime, flow_idx: usize) -> TcpActions {
        let mut actions = TcpActions::default();
        if self.flight() == 0 {
            return actions;
        }
        self.timeouts += 1;
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.cc = CcState::SlowStart;
        self.dupacks = 0;
        // Exponential backoff, capped at 60 s.
        self.rto = SimDuration::from_micros((self.rto.as_micros() * 2).min(60_000_000));
        self.retransmits += 1;
        self.send_times.remove(&self.snd_una); // Karn
        actions
            .send
            .push(self.data_packet(self.snd_una, now, flow_idx));
        self.rto_gen += 1;
        actions.set_rto_at = Some(now + self.rto);
        actions
    }

    fn update_rtt(&mut self, sample_ms: f64) {
        match self.srtt_ms {
            None => {
                self.srtt_ms = Some(sample_ms);
                self.rttvar_ms = sample_ms / 2.0;
            }
            Some(srtt) => {
                self.rttvar_ms = 0.75 * self.rttvar_ms + 0.25 * (srtt - sample_ms).abs();
                self.srtt_ms = Some(0.875 * srtt + 0.125 * sample_ms);
            }
        }
        let rto_ms = self.srtt_ms.unwrap() + (4.0 * self.rttvar_ms).max(1.0);
        self.rto = SimDuration::from_millis_f64(rto_ms.clamp(200.0, 60_000.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> TcpFlow {
        TcpFlow::new(0, 1, SimTime::EPOCH, SimTime::from_secs(100))
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut f = flow();
        let a = f.try_send(SimTime::EPOCH, 0);
        assert_eq!(a.send.len(), 2, "initial window");
        // ACK both: cwnd 2 -> 4, and with nothing left in flight the whole
        // window opens.
        let t = SimTime::from_millis(50);
        let a = f.on_ack(2, t, 0);
        assert!((f.cwnd - 4.0).abs() < 1e-9);
        assert_eq!(a.send.len(), 4, "window growth releases segments");
    }

    #[test]
    fn congestion_avoidance_linear() {
        let mut f = flow();
        f.ssthresh = 4.0;
        // Grow past ssthresh.
        f.try_send(SimTime::EPOCH, 0);
        f.on_ack(2, SimTime::from_millis(10), 0);
        assert_eq!(f.cc, CcState::CongestionAvoidance);
        let before = f.cwnd;
        f.on_ack(4, SimTime::from_millis(20), 0);
        let growth = f.cwnd - before;
        assert!(growth < 1.0, "sub-linear growth per ack batch: {growth}");
    }

    #[test]
    fn fast_retransmit_on_three_dupacks() {
        let mut f = flow();
        f.cwnd = 8.0;
        let a = f.try_send(SimTime::EPOCH, 0);
        assert_eq!(a.send.len(), 8);
        // Segment 0 lost: receiver acks 0 repeatedly as 1..3 arrive.
        let t = SimTime::from_millis(30);
        assert!(f.on_ack(0, t, 0).send.is_empty());
        assert!(f.on_ack(0, t, 0).send.is_empty());
        let third = f.on_ack(0, t, 0);
        assert_eq!(third.send.len(), 1, "fast retransmit");
        assert!(matches!(
            third.send[0].kind,
            PacketKind::TcpData { seq: 0, .. }
        ));
        assert_eq!(f.cc, CcState::FastRecovery);
        assert_eq!(f.retransmits, 1);
        // Recovery completes on a new ACK covering `recover`.
        let done = f.on_ack(8, SimTime::from_millis(60), 0);
        assert_eq!(f.cc, CcState::CongestionAvoidance);
        assert!((f.cwnd - f.ssthresh).abs() < 1e-9);
        let _ = done;
    }

    #[test]
    fn rto_collapses_window() {
        let mut f = flow();
        f.cwnd = 16.0;
        f.try_send(SimTime::EPOCH, 0);
        let before_rto = f.rto;
        let a = f.on_rto(SimTime::from_secs(1), 0);
        assert_eq!(a.send.len(), 1, "retransmit head of line");
        assert!((f.cwnd - 1.0).abs() < 1e-9);
        assert_eq!(f.cc, CcState::SlowStart);
        assert_eq!(f.rto.as_micros(), before_rto.as_micros() * 2, "backoff");
        assert_eq!(f.timeouts, 1);
        // RTO with nothing in flight is a no-op.
        let mut idle = flow();
        assert!(idle.on_rto(SimTime::from_secs(1), 0).send.is_empty());
    }

    #[test]
    fn receiver_buffers_out_of_order() {
        let mut f = flow();
        let t = SimTime::from_millis(5);
        // Segments 1, 2 arrive before 0.
        let ack = f.on_data(1, t, 0);
        assert!(matches!(ack.kind, PacketKind::TcpAck { ack: 0, .. }));
        let ack = f.on_data(2, t, 0);
        assert!(matches!(ack.kind, PacketKind::TcpAck { ack: 0, .. }));
        let ack = f.on_data(0, t, 0);
        assert!(matches!(ack.kind, PacketKind::TcpAck { ack: 3, .. }));
        assert_eq!(f.delivered, 3);
        // Duplicate segment still produces an ACK and no double-count.
        let ack = f.on_data(1, t, 0);
        assert!(matches!(ack.kind, PacketKind::TcpAck { ack: 3, .. }));
        assert_eq!(f.delivered, 3);
    }

    #[test]
    fn app_limit_throttles_sending() {
        // 12 kbps = 1 segment (1500 B) per second.
        let mut f = flow().with_app_limit(12_000.0);
        f.cwnd = 100.0;
        let a = f.try_send(SimTime::EPOCH, 0);
        assert_eq!(a.send.len(), 0, "no tokens yet");
        let a = f.try_send(SimTime::from_secs(1), 0);
        assert_eq!(a.send.len(), 1);
        let a = f.try_send(SimTime::from_secs(3), 0);
        assert_eq!(a.send.len(), 2);
    }

    #[test]
    fn rtt_estimation_reasonable() {
        let mut f = flow();
        f.try_send(SimTime::EPOCH, 0);
        f.on_ack(1, SimTime::from_millis(100), 0);
        assert!((f.srtt_ms.unwrap() - 100.0).abs() < 1e-9);
        // RTO at least 200 ms (clamped), at most srtt + 4*rttvar.
        assert!(f.rto.as_millis() >= 200);
        assert!(f.rto.as_millis() <= 400);
    }

    #[test]
    fn stops_offering_after_stop_time() {
        let mut f = TcpFlow::new(0, 1, SimTime::EPOCH, SimTime::from_secs(1));
        assert!(f.try_send(SimTime::from_secs(2), 0).send.is_empty());
    }
}
