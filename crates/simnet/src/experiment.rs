//! The Table 2 experiment matrix and the Fig 4 measurement protocol.
//!
//! Each experiment lasts 5 minutes: 2 minutes of start-up without
//! background traffic, 1 minute with 2 UDP flows (50 % of the bottleneck
//! bandwidth each), 1 minute with the UDP flows plus 8 TCP flows (10 % BD
//! each, staggered by 5 s), and 1 minute of die-down. Throughout, the
//! *displayed gaming latency* at Test and Control is sampled 5× per second,
//! together with the bottleneck's instantaneous network latency.

use crate::tcp::TcpFlow;
use crate::testbed::{build_testbed, Testbed};
use crate::udp::UdpFlow;
use serde::Serialize;
use tero_types::{SimDuration, SimTime};

/// The game being played during an experiment (§4.1 uses two: Genshin
/// Impact and League of Legends, chosen for their practice modes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GameProfile {
    /// Display name.
    pub name: &'static str,
    /// One-way propagation to the game server, ms (sets the base latency:
    /// ≈15 ms for Genshin Impact, ≈37 ms for League of Legends at Control).
    pub server_one_way_ms: u64,
    /// The server's RTT-averaging window, milliseconds (real games smooth
    /// their ping readout over a second or two).
    pub display_window_ms: u64,
}

impl GameProfile {
    /// Genshin Impact (Control displays ≈15 ms in the paper).
    pub const GENSHIN: GameProfile = GameProfile {
        name: "Genshin Impact",
        server_one_way_ms: 7,
        display_window_ms: 1_200,
    };
    /// League of Legends (Control displays ≈37 ms in the paper).
    pub const LOL: GameProfile = GameProfile {
        name: "League of Legends",
        server_one_way_ms: 18,
        display_window_ms: 1_500,
    };
}

/// One cell of the Table 2 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ExperimentConfig {
    /// The game played on both play-stations.
    pub game: GameProfile,
    /// Bottleneck bandwidth, bits/s (Table 2: 1 Gbps, 100 Mbps).
    pub bottleneck_bps: f64,
    /// Bottleneck queue size, packets (Table 2: 50, 500, 1000, 5000).
    pub bottleneck_queue: usize,
    /// Background packet size, bytes.
    pub bg_packet_bytes: u32,
}

impl ExperimentConfig {
    /// The full 2-game × 2-bandwidth × 4-queue Table 2 matrix for one game
    /// (8 experiments, as in the paper).
    pub fn matrix(game: GameProfile) -> Vec<ExperimentConfig> {
        let mut out = Vec::new();
        for &bw in &[1e9, 100e6] {
            for &q in &[50usize, 500, 1000, 5000] {
                out.push(ExperimentConfig {
                    game,
                    bottleneck_bps: bw,
                    bottleneck_queue: q,
                    bg_packet_bytes: 1250,
                });
            }
        }
        out
    }
}

/// One 200 ms sample row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Sample {
    /// Sample time, ms since experiment start.
    pub t_ms: u64,
    /// Displayed gaming latency at Test, ms.
    pub test_ms: f64,
    /// Displayed gaming latency at Control, ms.
    pub control_ms: f64,
    /// Instantaneous bottleneck network latency, ms (queue + serialization
    /// + round-trip propagation of the bottleneck link).
    pub bottleneck_ms: f64,
}

/// The result of one experiment run.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// Configuration used.
    pub config: ExperimentConfig,
    /// All samples at 5 Hz.
    pub samples: Vec<Sample>,
    /// Whether Control and Test agreed during start-up (the paper aborts
    /// the run otherwise).
    pub startup_ok: bool,
    /// Packets dropped at the bottleneck.
    pub bottleneck_drops: u64,
}

impl ExperimentResult {
    /// The per-sample |adjusted gaming latency − bottleneck network
    /// latency| series, where adjusted = Test − Control (Fig 4's quantity).
    /// Start-up samples (display warm-up) are skipped.
    pub fn differences(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.t_ms >= 10_000)
            .map(|s| ((s.test_ms - s.control_ms) - s.bottleneck_ms).abs())
            .collect()
    }

    /// Largest bottleneck network latency observed (Fig 4's x-axis).
    pub fn max_bottleneck_ms(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.bottleneck_ms)
            .fold(0.0, f64::max)
    }

    /// Times (ms) of samples whose difference exceeds `threshold_ms`,
    /// used to verify that large differences cluster at the start/end of
    /// background traffic (§4.1's "lag" analysis).
    pub fn large_difference_times(&self, threshold_ms: f64) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| s.t_ms >= 10_000)
            .filter(|s| ((s.test_ms - s.control_ms) - s.bottleneck_ms).abs() > threshold_ms)
            .map(|s| s.t_ms)
            .collect()
    }

    /// Mean and standard deviation of Control's displayed latency (the
    /// parenthesised numbers in Fig 4's legend).
    pub fn control_stats(&self) -> (f64, f64) {
        let xs: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.t_ms >= 10_000)
            .map(|s| s.control_ms)
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len().max(1) as f64;
        (mean, var.sqrt())
    }
}

/// Phase boundaries of the 5-minute protocol, in seconds.
pub const STARTUP_END_S: u64 = 120;
/// When the UDP flows stop (end of the mixed phase).
pub const UDP_END_S: u64 = 240;
/// When the TCP flows start.
pub const TCP_START_S: u64 = 180;
/// Total experiment duration, seconds.
pub(crate) const EXPERIMENT_END_S: u64 = 300;

/// Run one experiment. `duration_scale` shrinks the 5-minute protocol for
/// tests (1.0 = the paper's timeline).
pub fn run_experiment(config: ExperimentConfig, duration_scale: f64) -> ExperimentResult {
    let scale = |s: u64| SimTime::from_secs_f64(s as f64 * duration_scale);

    let mut tb: Testbed = build_testbed(
        config.bottleneck_bps,
        config.bottleneck_queue,
        SimDuration::from_millis(config.game.server_one_way_ms),
        SimDuration::from_millis(config.game.display_window_ms),
    );

    // Two UDP flows at 50 % BD each, during [startup_end, udp_end).
    // iperf3's "-b 50M" meters *payload* bits; on the wire each datagram
    // carries ~42 B of UDP/IP/Ethernet framing plus 20 B of preamble and
    // inter-frame gap, so two 50 %-payload flows overdrive the bottleneck
    // by ~5 % — which is what pins the queue at capacity in the paper's
    // testbed (their reported 590 ms = a full 5000-packet queue at
    // 100 Mbps).
    let wire_overhead = 1.0 + 62.0 / config.bg_packet_bytes as f64;
    for _ in 0..2 {
        tb.sim.add_udp_flow(
            UdpFlow::cbr(
                tb.gen,
                tb.sink,
                config.bottleneck_bps * 0.5 * wire_overhead,
                config.bg_packet_bytes,
                scale(STARTUP_END_S),
                scale(UDP_END_S),
            )
            .with_jitter(0.1),
        );
    }
    // Eight TCP flows at 10 % BD each, staggered by 5 s, during the mixed
    // minute.
    for i in 0..8u64 {
        let start =
            scale(TCP_START_S) + SimDuration::from_secs_f64(5.0 * i as f64 * duration_scale);
        let flow = TcpFlow::new(tb.gen, tb.sink, start, scale(UDP_END_S))
            .with_app_limit(config.bottleneck_bps * 0.1);
        tb.sim.add_tcp_flow(flow);
    }

    // Sample at 5 Hz. The bottleneck's network latency is measured the way
    // a ping-based monitor would: instantaneous readings smoothed over a
    // sub-second window (the comparison in Fig 4 is between two *measured*
    // quantities, both with finite time resolution).
    let mut samples = Vec::new();
    let sample_every = SimDuration::from_millis(200);
    let end = scale(EXPERIMENT_END_S);
    let mut t = SimTime::EPOCH;
    let mut startup_ok = true;
    let mut bneck_window: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
    while t <= end {
        tb.sim.run_until(t);
        let test_ms = tb.sim.game_clients[tb.test_client]
            .displayed_ms
            .unwrap_or(0.0);
        let control_ms = tb.sim.game_clients[tb.control_client]
            .displayed_ms
            .unwrap_or(0.0);
        let link = tb.sim.link(tb.bottleneck_down);
        // Round trip across the bottleneck: queue + tx downstream, plus
        // propagation both ways (the reverse direction is uncongested).
        let instantaneous =
            link.current_latency_ms(config.bg_packet_bytes) + link.cfg.prop.as_millis_f64();
        bneck_window.push_back(instantaneous);
        if bneck_window.len() > 4 {
            bneck_window.pop_front();
        }
        let bottleneck_ms = bneck_window.iter().sum::<f64>() / bneck_window.len() as f64;
        if t >= SimTime::from_secs(10)
            && t < scale(STARTUP_END_S)
            && (test_ms - control_ms).abs() > 3.0
        {
            startup_ok = false;
        }
        samples.push(Sample {
            t_ms: t.as_millis(),
            test_ms,
            control_ms,
            bottleneck_ms,
        });
        t += sample_every;
    }

    let bottleneck_drops = tb.sim.link(tb.bottleneck_down).drops;
    ExperimentResult {
        config,
        samples,
        startup_ok,
        bottleneck_drops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shortened experiment (12× faster) still shows the Fig 4 shape.
    #[test]
    fn gaming_latency_tracks_network_latency() {
        let cfg = ExperimentConfig {
            game: GameProfile::GENSHIN,
            bottleneck_bps: 20e6, // scaled down for test speed
            bottleneck_queue: 200,
            bg_packet_bytes: 1250,
        };
        let result = run_experiment(cfg, 1.0 / 12.0);
        assert!(result.startup_ok, "start-up check failed");

        let diffs = result.differences();
        assert!(!diffs.is_empty());
        let mut sorted = diffs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = sorted[sorted.len() / 2];
        assert!(p50 < 10.0, "median difference {p50} ms too large");

        // The bottleneck actually got congested at some point.
        assert!(
            result.max_bottleneck_ms() > 20.0,
            "max bottleneck {} ms",
            result.max_bottleneck_ms()
        );
    }

    #[test]
    fn control_baseline_matches_game_profile() {
        let cfg = ExperimentConfig {
            game: GameProfile::LOL,
            bottleneck_bps: 50e6,
            bottleneck_queue: 100,
            bg_packet_bytes: 1250,
        };
        let result = run_experiment(cfg, 1.0 / 20.0);
        let (mean, sd) = result.control_stats();
        // LoL base RTT ≈ 36-37 ms at Control, small deviation.
        assert!((mean - 36.5).abs() < 2.5, "control mean {mean}");
        assert!(sd < 3.0, "control sd {sd}");
    }

    #[test]
    fn matrix_enumerates_table2() {
        let m = ExperimentConfig::matrix(GameProfile::GENSHIN);
        assert_eq!(m.len(), 8);
        assert!(m
            .iter()
            .any(|c| c.bottleneck_bps == 1e9 && c.bottleneck_queue == 50));
        assert!(m
            .iter()
            .any(|c| c.bottleneck_bps == 100e6 && c.bottleneck_queue == 5000));
    }
}
