//! Store-and-forward links with drop-tail FIFO queues.
//!
//! A link serializes one packet at a time at `rate_bps`, then propagates it
//! for `prop` before delivery at the far end. Packets arriving while the
//! transmitter is busy wait in a finite FIFO; arrivals to a full queue are
//! dropped (drop-tail), which is what drives both the latency and the loss
//! behaviour of the Fig 3 bottleneck.

use crate::packet::{NodeId, Packet};
use std::collections::VecDeque;
use tero_types::{SimDuration, SimTime};

/// Index of a directed link.
pub(crate) type LinkId = usize;

/// Static configuration of a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Transmission rate in bits per second.
    pub rate_bps: f64,
    /// Propagation delay.
    pub prop: SimDuration,
    /// Queue capacity in packets (not counting the one in transmission).
    pub queue_packets: usize,
}

impl LinkConfig {
    /// The uncontended one-way transfer time of a `bytes`-long frame over
    /// this link: serialization at `rate_bps` plus propagation. This is
    /// the delay model the networked store's transport uses per frame —
    /// it deliberately ignores queueing (store frames are small and the
    /// transport is request/response), so the result is a pure function
    /// of `(bytes, config)` and replays byte-identically.
    pub fn transfer_delay(&self, bytes: u64) -> SimDuration {
        let tx_s = (bytes as f64 * 8.0) / self.rate_bps;
        SimDuration::from_secs_f64(tx_s) + self.prop
    }
}

/// A directed link and its dynamic state.
#[derive(Debug)]
pub struct Link {
    /// Configuration.
    pub cfg: LinkConfig,
    /// The node this link delivers to.
    pub to: NodeId,
    queue: VecDeque<Packet>,
    busy: bool,
    /// Total packets dropped at this link's queue.
    pub drops: u64,
    /// Total packets that completed transmission.
    pub delivered: u64,
    queued_bytes: u64,
}

/// What `Link::offer` decided.
#[derive(Debug, Clone, PartialEq)]
pub enum Offer {
    /// The link was idle: start transmitting; the caller must schedule
    /// `LinkFree` at `free_at` and `Deliver` at `deliver_at`.
    Transmit {
        /// When the transmitter becomes free.
        free_at: SimTime,
        /// When the packet arrives at the far end.
        deliver_at: SimTime,
    },
    /// The packet was queued behind the current transmission.
    Queued,
    /// The queue was full; the packet was dropped.
    Dropped,
}

impl Link {
    /// Create an idle link.
    pub fn new(cfg: LinkConfig, to: NodeId) -> Self {
        Link {
            cfg,
            to,
            queue: VecDeque::new(),
            busy: false,
            drops: 0,
            delivered: 0,
            queued_bytes: 0,
        }
    }

    /// Offer a packet to the link at time `now`.
    pub(crate) fn offer(&mut self, pkt: Packet, now: SimTime) -> (Offer, Option<Packet>) {
        if !self.busy {
            self.busy = true;
            let tx = SimDuration::from_secs_f64(pkt.tx_time_ms(self.cfg.rate_bps) / 1_000.0);
            let free_at = now + tx;
            let deliver_at = free_at + self.cfg.prop;
            (
                Offer::Transmit {
                    free_at,
                    deliver_at,
                },
                Some(pkt),
            )
        } else if self.queue.len() < self.cfg.queue_packets {
            self.queued_bytes += pkt.size_bytes as u64;
            self.queue.push_back(pkt);
            (Offer::Queued, None)
        } else {
            self.drops += 1;
            (Offer::Dropped, None)
        }
    }

    /// The transmitter finished a packet; start the next queued one, if
    /// any. Returns the same schedule information as [`Link::offer`].
    pub(crate) fn on_free(&mut self, now: SimTime) -> Option<(Packet, SimTime, SimTime)> {
        self.delivered += 1;
        match self.queue.pop_front() {
            Some(pkt) => {
                self.queued_bytes -= pkt.size_bytes as u64;
                let tx = SimDuration::from_secs_f64(pkt.tx_time_ms(self.cfg.rate_bps) / 1_000.0);
                let free_at = now + tx;
                let deliver_at = free_at + self.cfg.prop;
                Some((pkt, free_at, deliver_at))
            }
            None => {
                self.busy = false;
                None
            }
        }
    }

    /// Instantaneous one-way latency a new arrival would experience:
    /// queued bytes drained at line rate, plus its own serialization,
    /// plus propagation. In milliseconds.
    pub(crate) fn current_latency_ms(&self, packet_bytes: u32) -> f64 {
        let queue_ms = (self.queued_bytes as f64 * 8.0) / self.cfg.rate_bps * 1_000.0;
        let tx_ms = (packet_bytes as f64 * 8.0) / self.cfg.rate_bps * 1_000.0;
        queue_ms + tx_ms + self.cfg.prop.as_millis() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn pkt(size: u32) -> Packet {
        Packet {
            src: 0,
            dst: 1,
            size_bytes: size,
            kind: PacketKind::Udp { flow: 0 },
            created: SimTime::EPOCH,
        }
    }

    fn link(queue: usize) -> Link {
        Link::new(
            LinkConfig {
                rate_bps: 1e6, // 1 Mbps: 1250 B = 10 ms
                prop: SimDuration::from_millis(5),
                queue_packets: queue,
            },
            1,
        )
    }

    #[test]
    fn idle_link_transmits_immediately() {
        let mut l = link(10);
        let now = SimTime::from_millis(100);
        match l.offer(pkt(1250), now) {
            (
                Offer::Transmit {
                    free_at,
                    deliver_at,
                },
                Some(_),
            ) => {
                assert_eq!(free_at, SimTime::from_millis(110));
                assert_eq!(deliver_at, SimTime::from_millis(115));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn busy_link_queues_then_drops() {
        let mut l = link(2);
        let now = SimTime::EPOCH;
        assert!(matches!(l.offer(pkt(1250), now).0, Offer::Transmit { .. }));
        assert_eq!(l.offer(pkt(1250), now).0, Offer::Queued);
        assert_eq!(l.offer(pkt(1250), now).0, Offer::Queued);
        assert_eq!(l.offer(pkt(1250), now).0, Offer::Dropped);
        assert_eq!(l.drops, 1);
        assert_eq!(l.queue.len(), 2);
        assert_eq!(l.queued_bytes, 2_500);
    }

    #[test]
    fn on_free_drains_fifo() {
        let mut l = link(5);
        let t0 = SimTime::EPOCH;
        l.offer(pkt(1250), t0);
        l.offer(pkt(625), t0);
        l.offer(pkt(1250), t0);
        // First transmission finishes at 10 ms.
        let (next, free_at, _) = l.on_free(SimTime::from_millis(10)).unwrap();
        assert_eq!(next.size_bytes, 625, "FIFO order");
        assert_eq!(free_at, SimTime::from_millis(15)); // 625 B = 5 ms
        let (next, _, _) = l.on_free(SimTime::from_millis(15)).unwrap();
        assert_eq!(next.size_bytes, 1250);
        assert!(l.on_free(SimTime::from_millis(25)).is_none());
        assert_eq!(l.delivered, 3);
        // Link is idle again.
        assert!(matches!(
            l.offer(pkt(1250), SimTime::from_millis(30)).0,
            Offer::Transmit { .. }
        ));
    }

    #[test]
    fn transfer_delay_is_serialization_plus_prop() {
        let cfg = LinkConfig {
            rate_bps: 1e6,
            prop: SimDuration::from_millis(5),
            queue_packets: 8,
        };
        // 1250 B at 1 Mbps = 10 ms tx + 5 ms prop.
        assert_eq!(cfg.transfer_delay(1250), SimDuration::from_millis(15));
        // Zero-length frames still pay propagation.
        assert_eq!(cfg.transfer_delay(0), SimDuration::from_millis(5));
    }

    #[test]
    fn latency_estimate_tracks_queue() {
        let mut l = link(100);
        let now = SimTime::EPOCH;
        // Empty: tx (10 ms) + prop (5 ms).
        assert!((l.current_latency_ms(1250) - 15.0).abs() < 1e-9);
        l.offer(pkt(1250), now); // in transmission, not queued
        for _ in 0..4 {
            l.offer(pkt(1250), now);
        }
        // 4 queued packets = 40 ms extra.
        assert!((l.current_latency_ms(1250) - 55.0).abs() < 1e-9);
    }
}
