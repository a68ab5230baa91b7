//! Controller ⇄ AP packet tunneling (paper §3.1.3, §3.2.2).
//!
//! Downlink packets keep the *client's* layer-2/3 addresses (the AP must
//! know which station to deliver to), so the controller wraps each one in
//! an outer IP/UDP/Ethernet header addressed to the AP. Uplink packets
//! received by an AP are likewise encapsulated toward the controller with
//! the receiving AP as source, which is how the controller knows which AP
//! heard which copy.
//!
//! In simulation the interesting effect of tunneling is the extra bytes on
//! the backhaul wire, [`TUNNEL_OVERHEAD_BYTES`] per packet; the
//! AP-of-record on an uplink copy travels in its backhaul event.

/// Outer-header overhead added by the tunnel: Ethernet (18) + IPv4 (20) +
/// UDP (8) bytes.
pub const TUNNEL_OVERHEAD_BYTES: usize = 18 + 20 + 8;
