//! Controller ⇄ AP packet tunneling (paper §3.1.3, §3.2.2).
//!
//! Downlink packets keep the *client's* layer-2/3 addresses (the AP must
//! know which station to deliver to), so the controller wraps each one in
//! an outer IP/UDP/Ethernet header addressed to the AP. Uplink packets
//! received by an AP are likewise encapsulated toward the controller with
//! the receiving AP as source, which is how the controller knows which AP
//! heard which copy.
//!
//! In simulation the interesting effects of tunneling are (a) the extra
//! bytes on the backhaul wire and (b) the AP-of-record on uplink copies,
//! both captured by [`Tunneled`].

use crate::packet::{ApId, Packet};

/// Outer-header overhead added by the tunnel: Ethernet (18) + IPv4 (20) +
/// UDP (8) bytes.
pub const TUNNEL_OVERHEAD_BYTES: usize = 18 + 20 + 8;

/// Endpoints on the wired backhaul.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackhaulNode {
    /// The central controller.
    Controller,
    /// One of the APs.
    Ap(ApId),
}

impl std::fmt::Display for BackhaulNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackhaulNode::Controller => write!(f, "ctrl"),
            BackhaulNode::Ap(ap) => write!(f, "{ap}"),
        }
    }
}

/// A tunneled packet in flight on the backhaul.
#[derive(Debug, Clone, PartialEq)]
pub struct Tunneled {
    /// Outer source.
    pub src: BackhaulNode,
    /// Outer destination.
    pub dst: BackhaulNode,
    /// The encapsulated packet.
    pub inner: Packet,
}

impl Tunneled {
    /// Encapsulates a downlink packet from the controller toward an AP.
    pub fn down(ap: ApId, inner: Packet) -> Self {
        Tunneled {
            src: BackhaulNode::Controller,
            dst: BackhaulNode::Ap(ap),
            inner,
        }
    }

    /// Encapsulates an uplink packet from a receiving AP toward the
    /// controller.
    pub fn up(from_ap: ApId, inner: Packet) -> Self {
        Tunneled {
            src: BackhaulNode::Ap(from_ap),
            dst: BackhaulNode::Controller,
            inner,
        }
    }

    /// Total bytes on the backhaul wire.
    pub fn wire_bytes(&self) -> usize {
        self.inner.len_bytes + TUNNEL_OVERHEAD_BYTES
    }

    /// The AP that sent this uplink copy, if it is an uplink tunnel.
    pub fn uplink_ap(&self) -> Option<ApId> {
        match self.src {
            BackhaulNode::Ap(ap) => Some(ap),
            BackhaulNode::Controller => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{ClientId, Direction, FlowId, PacketFactory, Payload};
    use wgtt_sim::SimTime;

    fn pkt() -> Packet {
        PacketFactory::new().make(
            ClientId(1),
            FlowId(0),
            Direction::Downlink,
            1500,
            SimTime::ZERO,
            Payload::Udp { seq: 7 },
        )
    }

    #[test]
    fn down_tunnel_addressing() {
        let t = Tunneled::down(ApId(3), pkt());
        assert_eq!(t.src, BackhaulNode::Controller);
        assert_eq!(t.dst, BackhaulNode::Ap(ApId(3)));
        assert_eq!(t.uplink_ap(), None);
    }

    #[test]
    fn up_tunnel_records_receiving_ap() {
        let t = Tunneled::up(ApId(5), pkt());
        assert_eq!(t.src, BackhaulNode::Ap(ApId(5)));
        assert_eq!(t.dst, BackhaulNode::Controller);
        assert_eq!(t.uplink_ap(), Some(ApId(5)));
    }

    #[test]
    fn wire_bytes_include_overhead() {
        let t = Tunneled::down(ApId(0), pkt());
        assert_eq!(t.wire_bytes(), 1500 + 46);
    }

    #[test]
    fn node_display() {
        assert_eq!(format!("{}", BackhaulNode::Controller), "ctrl");
        assert_eq!(format!("{}", BackhaulNode::Ap(ApId(2))), "ap2");
    }
}
