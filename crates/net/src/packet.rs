//! Packet representation.
//!
//! The simulation tracks packets at datagram granularity: lengths, flow
//! identity, transport payload (UDP sequence or TCP segment/ack), and the
//! identifiers WGTT's mechanisms key on — the client address, the IP
//! identification field used by uplink de-duplication, and the 12-bit WGTT
//! index number assigned by the controller for cyclic-queue addressing.

use wgtt_sim::SimTime;

/// A client (station) identifier — stands in for the client's MAC/IP
/// address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

/// An AP identifier — index into the deployment's AP array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ApId(pub u32);

/// A transport flow identifier (one per application flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}
impl std::fmt::Display for ApId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ap{}", self.0)
    }
}
impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Direction of travel relative to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Internet → controller → AP → client.
    Downlink,
    /// Client → AP → controller → Internet.
    Uplink,
}

/// Transport-layer payload carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// A UDP datagram with a flow-level sequence number.
    Udp {
        /// Monotone per-flow sequence number.
        seq: u64,
    },
    /// A TCP data segment covering bytes `[seq, seq+len)`.
    TcpData {
        /// First byte sequence number.
        seq: u64,
        /// Segment length in bytes.
        len: u64,
    },
    /// A TCP acknowledgement: cumulative ack plus up to three SACK blocks
    /// (selective acknowledgement of out-of-order ranges, RFC 2018).
    TcpAck {
        /// Next expected byte.
        ack: u64,
        /// SACK blocks, relative to `ack`.
        sack: SackBlocks,
    },
    /// Anything else (management, probes).
    Raw,
}

/// The SACK option of one acknowledgement: up to three blocks, each stored
/// as `(offset of its start above the ack, length)` with length 0 marking
/// an unused slot — 24 bytes where absolute `[start, end)` pairs took 72 in
/// every packet, event and queue slot. Only [`SackBlocks::new`] and
/// [`SackBlocks::blocks`] know the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks([(u32, u32); 3]);

impl SackBlocks {
    /// Encodes the first three of `blocks` (`[start, end)`, as
    /// [`crate::TcpReceiver::sack_blocks`] lists them) against the
    /// cumulative `ack` they travel with. A block that is empty, starts
    /// below `ack`, or whose offset or length does not fit 32 bits is left
    /// out: SACK is advisory (RFC 2018), so the sender merely learns less.
    pub fn new(ack: u64, blocks: &[(u64, u64)]) -> Self {
        let mut slots = [(0, 0); 3];
        let fitting = blocks.iter().filter_map(|&(start, end)| {
            let offset = u32::try_from(start.checked_sub(ack)?).ok()?;
            let len = u32::try_from(end.checked_sub(start)?).ok()?;
            (len > 0).then_some((offset, len))
        });
        for (slot, block) in slots.iter_mut().zip(fitting) {
            *slot = block;
        }
        SackBlocks(slots)
    }

    /// The blocks as absolute `[start, end)` ranges, in the order they were
    /// given; `ack` is the one they were encoded against (with any other,
    /// the ranges shift and saturate rather than wrap).
    pub fn blocks(&self, ack: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let used = self.0.iter().filter(|&&(_, len)| len > 0);
        used.map(move |&(offset, len)| {
            let start = ack.saturating_add(offset as u64);
            (start, start.saturating_add(len as u64))
        })
    }
}

/// One simulated packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// The client this packet is to (downlink) or from (uplink).
    pub client: ClientId,
    /// Application flow.
    pub flow: FlowId,
    /// Travel direction.
    pub direction: Direction,
    /// On-the-wire length in bytes (transport payload + TCP/UDP/IP
    /// headers; link-layer overhead is added by the MAC model).
    pub len_bytes: usize,
    /// Creation timestamp (for latency accounting).
    pub created: SimTime,
    /// Transport payload.
    pub payload: Payload,
    /// IP identification field — with the source address, the uplink
    /// de-duplication key (§3.2.2 of the paper). Wraps at 2¹⁶ like the
    /// real field.
    pub ip_ident: u16,
    /// WGTT 12-bit per-client index number, assigned by the controller to
    /// downlink data packets (`None` before assignment / for uplink).
    pub index: Option<u16>,
}

/// Allocates per-client IP idents.
#[derive(Debug, Default)]
pub struct PacketFactory {
    next_ident: std::collections::HashMap<ClientId, u16>,
}

impl PacketFactory {
    /// Creates a factory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a packet, assigning the next IP ident for the packet's source
    /// (client for uplink, server for downlink — we track per client
    /// either way, which is what the dedup key needs).
    pub fn make(
        &mut self,
        client: ClientId,
        flow: FlowId,
        direction: Direction,
        len_bytes: usize,
        created: SimTime,
        payload: Payload,
    ) -> Packet {
        let ident = self.next_ident.entry(client).or_insert(0);
        let ip_ident = *ident;
        *ident = ident.wrapping_add(1);
        Packet {
            client,
            flow,
            direction,
            len_bytes,
            created,
            payload,
            ip_ident,
            index: None,
        }
    }

    /// The IP ident the next packet sourced by `client` will carry.
    pub fn peek_ident(&self, client: ClientId) -> u16 {
        self.next_ident.get(&client).copied().unwrap_or(0)
    }

    /// Continues `client`'s IP-ident stream at `ident` — used when a
    /// client's identity migrates between worlds so its dedup-key stream
    /// stays monotone instead of restarting at 0.
    pub fn resume_ident(&mut self, client: ClientId, ident: u16) {
        self.next_ident.insert(client, ident);
    }
}

/// Typical header sizes, bytes.
pub mod overhead {
    /// IPv4 header without options.
    pub const IPV4: usize = 20;
    /// UDP header.
    pub const UDP: usize = 8;
    /// TCP header without options.
    pub const TCP: usize = 20;
    /// 802.11 data frame MAC header + FCS (QoS data).
    pub const DOT11: usize = 34;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_ident_increments_per_client() {
        let mut f = PacketFactory::new();
        let mk = |f: &mut PacketFactory, c: u32| {
            f.make(
                ClientId(c),
                FlowId(0),
                Direction::Uplink,
                100,
                SimTime::ZERO,
                Payload::Raw,
            )
            .ip_ident
        };
        assert_eq!(mk(&mut f, 1), 0);
        assert_eq!(mk(&mut f, 1), 1);
        assert_eq!(mk(&mut f, 2), 0); // separate counter per client
        assert_eq!(mk(&mut f, 1), 2);
    }

    #[test]
    fn ip_ident_wraps() {
        let mut f = PacketFactory::new();
        f.next_ident.insert(ClientId(9), u16::MAX);
        let a = f.make(
            ClientId(9),
            FlowId(0),
            Direction::Uplink,
            64,
            SimTime::ZERO,
            Payload::Raw,
        );
        let b = f.make(
            ClientId(9),
            FlowId(0),
            Direction::Uplink,
            64,
            SimTime::ZERO,
            Payload::Raw,
        );
        assert_eq!(a.ip_ident, u16::MAX);
        assert_eq!(b.ip_ident, 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ClientId(3)), "c3");
        assert_eq!(format!("{}", ApId(5)), "ap5");
        assert_eq!(format!("{}", FlowId(1)), "f1");
    }

    #[test]
    fn sack_blocks_round_trip_and_leave_out_what_does_not_fit() {
        let ack = 10_000;
        let blocks = [(11_448, 12_896), (14_344, 15_792), (20_000, 21_448)];
        let sack = SackBlocks::new(ack, &blocks);
        assert_eq!(sack.blocks(ack).collect::<Vec<_>>(), blocks);
        // A fourth block has no slot; none at all is the default.
        let four = [blocks[0], blocks[1], blocks[2], (30_000, 31_000)];
        assert_eq!(SackBlocks::new(ack, &four), sack);
        assert_eq!(SackBlocks::new(ack, &[]), SackBlocks::default());
        // Below the ack, empty, inverted, or wider than 32 bits: left out,
        // and the blocks after it move up.
        let far = ack + (1 << 32);
        let odd = [
            (9_000, 12_000),
            (12_000, 12_000),
            (13_000, 12_500),
            (far, far + 10),
            (11_000, far + 11_000),
            (11_448, 12_896),
        ];
        let kept: Vec<_> = SackBlocks::new(ack, &odd).blocks(ack).collect();
        assert_eq!(kept, [(11_448, 12_896)]);
        // The largest block that fits, at the largest ack that can carry it.
        let top = u64::MAX - 2 * u32::MAX as u64;
        let wide = [(top + u32::MAX as u64, u64::MAX)];
        let kept: Vec<_> = SackBlocks::new(top, &wide).blocks(top).collect();
        assert_eq!(kept, wide);
    }

    #[test]
    fn a_packet_is_seventy_two_bytes() {
        assert_eq!(std::mem::size_of::<SackBlocks>(), 24);
        assert!(std::mem::size_of::<Payload>() <= 40);
        assert!(
            std::mem::size_of::<Packet>() <= 72,
            "{}",
            std::mem::size_of::<Packet>()
        );
    }

    #[test]
    fn index_starts_unset() {
        let mut f = PacketFactory::new();
        let p = f.make(
            ClientId(0),
            FlowId(0),
            Direction::Downlink,
            1500,
            SimTime::from_millis(5),
            Payload::TcpData { seq: 0, len: 1448 },
        );
        assert_eq!(p.index, None);
        assert_eq!(p.created, SimTime::from_millis(5));
    }
}
