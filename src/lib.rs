//! # Wi-Fi Goes to Town — a full-system reproduction in Rust
//!
//! This crate is the facade over the reproduction of *Wi-Fi Goes to Town:
//! Rapid Picocell Switching for Wireless Transit Networks* (SIGCOMM 2017):
//! a roadside array of Wi-Fi picocell APs whose controller switches each
//! client's downlink between APs at millisecond timescales, using
//! CSI-derived Effective SNR, a cross-AP queue-handoff protocol, Block-ACK
//! forwarding, and uplink de-duplication.
//!
//! The paper's physical testbed (eight modified TP-Link APs, directional
//! antennas, cars) is replaced by a deterministic discrete-event simulation
//! of the full stack; the WGTT algorithms themselves are implemented as in
//! the paper. See `DESIGN.md` for the substitution map and `EXPERIMENTS.md`
//! for reproduced-vs-paper results.
//!
//! ## Crate map
//!
//! * [`sim`] — discrete-event engine, deterministic RNG, statistics;
//! * [`phy`] — 802.11n PHY: geometry, mobility, fading, CSI, ESNR,
//!   MCS/PER, rate control;
//! * [`mac`] — 802.11 MAC: DCF, A-MPDU aggregation, Block ACK, association;
//! * [`net`] — packets, tunneling, backhaul, mini-TCP (Reno), UDP flows;
//! * [`core`] — the WGTT controller/AP/client logic, the Enhanced 802.11r
//!   baseline, and the simulation world;
//! * [`workloads`] — video streaming, conferencing, and web QoE models.
//!
//! ## Quick start
//!
//! ```no_run
//! use wgtt::core::{Scenario, SystemConfig, FlowSpec, run};
//!
//! // A client drives past the eight-AP array at 15 mph pulling greedy TCP.
//! let scenario = Scenario::single_drive(
//!     SystemConfig::default(),
//!     15.0,
//!     vec![FlowSpec::DownlinkTcp { limit: None }],
//!     42,
//! );
//! let result = run(scenario);
//! println!(
//!     "TCP goodput {:.2} Mbit/s over {} AP switches",
//!     result.downlink_bps(0) / 1e6,
//!     result.world.clients[0].metrics.switch_count(),
//! );
//! ```

#![forbid(unsafe_code)]

pub use wgtt_core as core;
pub use wgtt_mac as mac;
pub use wgtt_net as net;
pub use wgtt_phy as phy;
pub use wgtt_sim as sim;
pub use wgtt_workloads as workloads;
