//! # wgtt-net — the network substrate
//!
//! Packet representation, controller⇄AP tunneling, the wired Ethernet
//! backhaul model, a miniature TCP (Reno/NewReno) implementation, and UDP
//! flow machinery. Together these provide the end-to-end transport path the
//! paper's experiments run over:
//!
//! ```text
//! server ── controller ══ backhaul ══ AP ~~ 802.11 ~~ client
//!              (tunnel)                     (wgtt-mac / wgtt-phy)
//! ```
//!
//! Everything is a poll-style state machine in the smoltcp tradition: no
//! hidden I/O, explicit time, fully unit-testable.

#![forbid(unsafe_code)]

pub mod backhaul;
pub mod packet;
pub mod tcp;
pub mod tunnel;
pub mod udp;

pub use backhaul::{Backhaul, BackhaulDelivery};
pub use packet::{
    overhead, ApId, ClientId, Direction, FlowId, Packet, PacketFactory, Payload, SackBlocks,
};
pub use tcp::{CongPhase, TcpConfig, TcpReceiver, TcpSegmentOut, TcpSender};
pub use tunnel::TUNNEL_OVERHEAD_BYTES;
pub use udp::{CbrSource, UdpSink};
