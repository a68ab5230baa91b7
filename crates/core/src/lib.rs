//! # wgtt-core — Wi-Fi Goes to Town
//!
//! The paper's contribution, implemented over the `wgtt-sim`/`wgtt-phy`/
//! `wgtt-mac`/`wgtt-net` substrates:
//!
//! * [`cyclic`] — the 12-bit-indexed per-client cyclic queues (§3.1.2);
//! * [`selection`] — median-of-window ESNR AP selection (§3.1.1);
//! * [`switching`] — the `stop`/`start`/`ack` switch protocol with the
//!   30 ms retransmission timeout and Table 1 timing model;
//! * [`dedup`] — 48-bit-key uplink de-duplication (§3.2.2–3.2.3);
//! * [`controller`] — the controller state tying those together;
//! * [`ap`] / [`client`] — per-node state including NIC queues, Block ACK
//!   scoreboards, and (for clients) transport endpoints;
//! * [`config`] — what an experiment varies, including ablation switches;
//! * [`world`] — the discrete-event orchestration of radio, backhaul, and
//!   control planes, runnable in WGTT or Enhanced-802.11r mode;
//! * [`runner`] — scenario description, the one builder of a primed
//!   simulator (`Scenario::build`), and one-call experiment execution;
//! * [`metrics`] — the measurements behind every table and figure;
//! * [`digest`] — the one fingerprint of a run, over every counter;
//! * [`oracle`] — the best-AP oracle behind Table 2 and the capacity-loss
//!   figures: recorded in the event loop, evaluated off it.
//!
//! ## Quick start
//!
//! ```no_run
//! use wgtt_core::config::SystemConfig;
//! use wgtt_core::runner::{run, FlowSpec, Scenario};
//!
//! let scenario = Scenario::single_drive(
//!     SystemConfig::default(),
//!     15.0,                                   // mph
//!     vec![FlowSpec::DownlinkTcp { limit: None }],
//!     42,                                     // seed
//! );
//! let result = run(scenario);
//! println!("TCP goodput: {:.2} Mbit/s", result.downlink_bps(0) / 1e6);
//! ```

#![forbid(unsafe_code)]

pub mod ap;
pub mod client;
pub mod config;
pub mod controller;
pub mod cyclic;
pub mod dedup;
pub mod digest;
pub mod health;
pub mod metrics;
pub mod oracle;
pub mod protocol_check;
pub mod recovery;
pub mod replica;
pub mod runner;
pub mod seam;
pub mod selection;
pub mod shard;
pub mod switching;
pub mod world;

pub use config::{BaselineConfig, Mode, SystemConfig};
pub use health::ApHealth;
pub use runner::{run, ClientSpec, FlowSpec, RunResult, Scenario, TrajectorySpec};
pub use selection::{ApSelector, SelectionConfig, WindowEstimator};
pub use shard::{run_sharded, Migration, ShardedRunResult, ShardedScenario};
pub use switching::{AbandonRecord, SwitchEngine, SwitchMsg, SwitchRecord};
pub use world::{prime_migrant_events, Ev, FlowKind, MigrantFlow, MigrantSpec, WgttWorld};
