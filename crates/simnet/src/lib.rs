//! # tero-simnet
//!
//! A discrete-event network simulator, built to reproduce the paper's
//! gaming-vs-network-latency evaluation (§4.1, Fig 3, Fig 4, Table 2).
//!
//! The simulator models:
//!
//! * store-and-forward [`link::Link`]s with finite drop-tail FIFO queues,
//!   serialization delay and propagation delay;
//! * switches that forward along BFS-computed shortest-path routes;
//! * UDP constant-bit-rate background flows ([`udp`]);
//! * a Reno-style TCP with slow start, congestion avoidance, fast
//!   retransmit and RTO (`tcp`), optionally application-rate-limited
//!   (Table 2's "10 % BD each" flows);
//! * a game client/server protocol whose server measures application-layer
//!   RTT and displays a **windowed average** — the mechanism behind the
//!   paper's observation that gaming latency lags network latency by a few
//!   seconds at sharp congestion transitions (`game`);
//! * the Fig 3 testbed and the Table 2 experiment matrix (`testbed`,
//!   [`experiment`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiment;
mod game;
pub mod link;
mod packet;
pub mod sim;
mod tcp;
mod testbed;
pub mod udp;

pub use game::{GameClient, GameServerSession};
pub use link::LinkConfig;
pub use packet::{NodeId, Packet, PacketKind};
pub use sim::Simulator;
pub use testbed::Testbed;
