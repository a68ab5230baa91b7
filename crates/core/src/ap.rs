//! WGTT access-point state.
//!
//! Each AP keeps per-client state mirroring Fig 7 of the paper: the cyclic
//! queue fed by the controller's fan-out, a small NIC/hardware queue that
//! the radio actually drains (and which keeps draining for a few
//! milliseconds after a `stop`, as §3.1.2 observes), the Block ACK
//! transmitter scoreboard, and a Minstrel rate controller. One radio per AP
//! serves all clients round-robin.

use crate::cyclic::CyclicQueue;
use crate::switching::{ApSwitchGuard, ClientResyncState, ResyncReply, TermGuard};
use std::collections::{HashSet, VecDeque};
use wgtt_mac::blockack::TxScoreboard;
use wgtt_mac::dcf::Backoff;
use wgtt_mac::ApAssoc;
use wgtt_net::{ApId, ClientId, Packet};
use wgtt_phy::mcs::GuardInterval;
use wgtt_phy::MinstrelLite;
use wgtt_sim::SimTime;

/// Upper bound on the NIC hardware queue, packets. One full aggregate
/// beyond the in-flight one — drains in roughly the 6 ms the paper
/// measures.
pub const NIC_QUEUE_CAP: usize = 32;

/// Retry limit for one MPDU at the link layer.
pub const MPDU_RETRY_LIMIT: u32 = 7;

/// Guard interval of every transmission (the testbed runs short GI).
pub(crate) const GUARD_INTERVAL: GuardInterval = GuardInterval::Short;

/// Default bound on the degraded-mode uplink buffer: packets an AP holds
/// for the controller while it is crashed (the
/// [`crate::config::SystemConfig::degraded_uplink_cap`] knob's default).
/// On overflow the *oldest* held packet is dropped (and counted) — fresh
/// uplink is worth more than stale when the buffer finally flushes.
pub const DEGRADED_UPLINK_CAP: usize = 256;

/// Bound on the ring of recently forwarded uplink dedup keys an AP keeps
/// so a rebooted controller can conservatively re-prime its duplicate
/// suppression table.
pub const RECENT_UPLINK_KEYS: usize = 1024;

/// A packet committed to the NIC queue, with link-layer retry accounting.
#[derive(Debug, Clone)]
pub struct NicEntry {
    /// The packet (index still attached).
    pub packet: Packet,
    /// 802.11 sequence number — equal to the WGTT index, which keeps the
    /// client's reorder window consistent across AP switches.
    pub seq: u16,
    /// Link-layer transmission attempts so far.
    pub retries: u32,
    /// Whether the sequence is already registered in the scoreboard.
    pub registered: bool,
}

/// Per-(AP, client) state.
#[derive(Debug)]
pub struct ApClientState {
    /// Association bookkeeping.
    pub assoc: ApAssoc,
    /// The WGTT cyclic queue (also used as the plain buffer in baseline
    /// mode — one AP at a time then).
    pub cyclic: CyclicQueue,
    /// What this AP does with the client's downlink (Fig 7).
    pub role: Role,
    /// Downlink Block ACK scoreboard.
    pub scoreboard: TxScoreboard,
    /// Downlink rate control.
    pub ratectl: MinstrelLite,
    /// NIC/hardware transmit queue.
    pub nic_queue: VecDeque<NicEntry>,
    /// Last CSI report sent to the controller for this client.
    pub last_csi_report: Option<SimTime>,
    /// Block ACKs already applied (dedup for the forwarding path).
    pub seen_bas: HashSet<(u16, u64)>,
    /// Switch-epoch admission guard: rejects stale `stop`/`start`
    /// generations and suppresses duplicate `start` re-application.
    /// Wiped with the rest of the soft state on a crash.
    pub guard: ApSwitchGuard,
}

/// The downlink role an AP plays for one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Neither transmitting nor draining.
    Idle,
    /// The one AP transmitting to the client.
    Serving,
    /// Lost the serving role; drains the NIC queue (≈6 ms of frames after
    /// a WGTT `stop`, §3.1.2), and the cyclic queue too when `cyclic`
    /// (baseline old AP, no-flush ablation).
    Draining {
        /// Also pull from the cyclic queue.
        cyclic: bool,
    },
}

impl Default for ApClientState {
    /// Fresh state for a newly known client.
    fn default() -> Self {
        ApClientState {
            assoc: ApAssoc::new(),
            cyclic: CyclicQueue::new(),
            role: Role::Idle,
            scoreboard: TxScoreboard::new(0),
            ratectl: MinstrelLite::new(GUARD_INTERVAL),
            nic_queue: VecDeque::new(),
            last_csi_report: None,
            seen_bas: HashSet::new(),
            guard: ApSwitchGuard::default(),
        }
    }
}

impl ApClientState {
    /// True while this AP is the one transmitting to the client.
    pub fn serving(&self) -> bool {
        self.role == Role::Serving
    }

    /// Moves packets from the cyclic queue into the NIC queue up to its
    /// cap. Only meaningful while serving.
    ///
    /// Returns the number of packets *discarded* instead of queued because
    /// their sequence was already in the MAC pipeline (NIC queue or Block
    /// ACK window): a duplicated backhaul delivery of an already-pulled
    /// index rewinds the cyclic head (indistinguishable there from a late
    /// first arrival), and re-queueing it would double-register the
    /// sequence and retransmit a frame already in flight.
    pub fn refill_nic(&mut self) -> u64 {
        let mut dup_drops = 0;
        while self.nic_queue.len() < NIC_QUEUE_CAP {
            match self.cyclic.pop_head() {
                Some(p) => {
                    // Invariant: `CyclicQueue::insert` rejects un-indexed
                    // packets (pinned by its `#[should_panic]` test), so
                    // everything popped from it carries one.
                    let seq = p.index.expect("cyclic packets carry an index");
                    if self.scoreboard.in_window(seq) || self.nic_queue.iter().any(|e| e.seq == seq)
                    {
                        dup_drops += 1;
                        continue;
                    }
                    self.nic_queue.push_back(NicEntry {
                        packet: p,
                        seq,
                        retries: 0,
                        registered: false,
                    });
                }
                None => break,
            }
        }
        dup_drops
    }

    /// First unsent index — the `k` of `start(c, k)`. Packets in the NIC
    /// queue count as "sent" (the paper lets them drain over the old link).
    pub fn first_unsent_index(&self) -> u16 {
        self.cyclic.head()
    }

    /// Whether this AP currently has anything to put on the air for the
    /// client.
    pub fn has_downlink_work(&self) -> bool {
        match self.role {
            Role::Idle => false,
            Role::Serving => {
                !self.nic_queue.is_empty()
                    || self.cyclic.backlog() > 0
                    || self.scoreboard.has_unacked()
            }
            Role::Draining { cyclic } => {
                !self.nic_queue.is_empty() || (cyclic && self.cyclic.backlog() > 0)
            }
        }
    }

    /// Total downlink backlog visible at this AP (the paper's ~1,600–2,000
    /// packets at 50–90 Mbit/s offered load).
    pub fn backlog(&self) -> usize {
        self.cyclic.backlog() + self.nic_queue.len()
    }
}

/// One access point. Its id is its index in the world's AP list.
#[derive(Debug, Default)]
pub struct ApState {
    /// Per-client state, dense by client index (clients are numbered 0..n
    /// at world construction). Index order equals ascending-id order, so
    /// every scan is deterministic without per-call sorting.
    pub clients: Vec<Option<ApClientState>>,
    /// DCF backoff state for the AP's radio.
    pub backoff: Backoff,
    /// Round-robin cursor over clients.
    pub rr_cursor: usize,
    /// Degraded mode: uplink held for the controller while it is down
    /// (bounded by [`DEGRADED_UPLINK_CAP`]), flushed after resync.
    pub uplink_buffer: VecDeque<Packet>,
    /// Dedup keys of recently *forwarded* uplink packets (bounded ring),
    /// reported at resync so the rebooted controller drops cross-restart
    /// retransmissions instead of delivering them twice.
    pub recent_uplink_keys: VecDeque<u64>,
    /// Controller-term admission guard: fences control/resync frames from
    /// a zombie ex-primary whose reign a standby has superseded. Wiped
    /// with the rest of the soft state on an AP crash (lease-less — see
    /// [`TermGuard`]).
    pub term_guard: TermGuard,
}

impl ApState {
    /// Degraded mode: holds an uplink packet while the controller is
    /// down, bounded at `cap`. Returns `true` when the packet fit;
    /// `false` means the buffer was full and the **oldest** held packet
    /// was evicted to make room (the caller counts the loss) — when the
    /// buffer finally flushes, the freshest `cap` packets are the ones
    /// worth delivering.
    pub fn buffer_uplink(&mut self, packet: Packet, cap: usize) -> bool {
        if cap == 0 {
            return false;
        }
        let fit = self.uplink_buffer.len() < cap;
        if !fit {
            self.uplink_buffer.pop_front();
        }
        self.uplink_buffer.push_back(packet);
        fit
    }

    /// Remembers the dedup key of an uplink packet this AP just forwarded
    /// to the controller (bounded ring, oldest evicted first).
    pub fn note_forwarded_key(&mut self, key: u64) {
        if self.recent_uplink_keys.len() >= RECENT_UPLINK_KEYS {
            self.recent_uplink_keys.pop_front();
        }
        self.recent_uplink_keys.push_back(key);
    }

    /// Snapshot of this AP's authoritative per-client switch-protocol
    /// state, for answering round `seq` of a restarted controller's
    /// `Resync` broadcast as AP `ap`. The dense slab yields clients in
    /// ascending id order, so the reply is deterministic by construction.
    pub fn resync_reply(&self, ap: ApId, seq: u64) -> ResyncReply {
        let clients = self
            .clients_iter()
            .map(|(id, st)| ClientResyncState {
                client: id,
                epoch_high_water: st.guard.latest(),
                start_applied: st.guard.start_applied(),
                serving: st.serving(),
                queue_head: st.cyclic.head(),
                queue_tail: st.cyclic.tail(),
            })
            .collect();
        ResyncReply {
            ap,
            seq,
            clients,
            recent_uplink_keys: self.recent_uplink_keys.iter().copied().collect(),
        }
    }

    /// The state for a client, if this AP knows it.
    pub fn client(&self, client: ClientId) -> Option<&ApClientState> {
        self.clients.get(client.0 as usize)?.as_ref()
    }

    /// Mutable state for a client this AP already knows.
    pub fn client_get_mut(&mut self, client: ClientId) -> Option<&mut ApClientState> {
        self.clients.get_mut(client.0 as usize)?.as_mut()
    }

    /// Known clients in ascending id order.
    pub fn clients_iter(&self) -> impl Iterator<Item = (ClientId, &ApClientState)> {
        self.clients
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|st| (ClientId(i as u32), st)))
    }

    /// Gets or creates the state for a client.
    pub fn client_mut(&mut self, client: ClientId) -> &mut ApClientState {
        let i = client.0 as usize;
        if self.clients.len() <= i {
            self.clients.resize_with(i + 1, || None);
        }
        self.clients[i].get_or_insert_with(ApClientState::default)
    }

    /// Whether the AP radio has any pending downlink work.
    pub fn has_work(&self) -> bool {
        self.clients.iter().flatten().any(|c| c.has_downlink_work())
    }

    /// Picks the next client to serve, round-robin over those with work.
    /// The dense slab iterates in ascending id order, so the cursor walks
    /// the same sequence the sorted-id implementation produced — without
    /// collecting or sorting ids per call.
    pub fn pick_client(&mut self) -> Option<ClientId> {
        let with_work =
            |s: &Option<ApClientState>| s.as_ref().is_some_and(|c| c.has_downlink_work());
        let n = self.clients.iter().filter(|s| with_work(s)).count();
        if n == 0 {
            return None;
        }
        let k = self.rr_cursor % n;
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        self.clients
            .iter()
            .enumerate()
            .filter(|(_, s)| with_work(s))
            .nth(k)
            .map(|(i, _)| ClientId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::{Direction, FlowId, PacketFactory, Payload};

    fn pkt(f: &mut PacketFactory, idx: u16) -> Packet {
        let mut p = f.make(
            ClientId(0),
            FlowId(0),
            Direction::Downlink,
            1500,
            SimTime::ZERO,
            Payload::Udp { seq: idx as u64 },
        );
        p.index = Some(idx);
        p
    }

    #[test]
    fn refill_moves_cyclic_to_nic() {
        let mut f = PacketFactory::new();
        let mut s = ApClientState::default();
        for i in 0..10 {
            s.cyclic.insert(pkt(&mut f, i));
        }
        s.role = Role::Serving;
        s.refill_nic();
        assert_eq!(s.nic_queue.len(), 10);
        assert_eq!(s.cyclic.backlog(), 0);
        assert!(s.has_downlink_work());
        assert_eq!(s.nic_queue[0].seq, 0);
    }

    #[test]
    fn refill_respects_cap() {
        let mut f = PacketFactory::new();
        let mut s = ApClientState::default();
        for i in 0..(NIC_QUEUE_CAP as u16 + 50) {
            s.cyclic.insert(pkt(&mut f, i));
        }
        s.refill_nic();
        assert_eq!(s.nic_queue.len(), NIC_QUEUE_CAP);
        assert_eq!(s.cyclic.backlog(), 50);
        assert_eq!(s.backlog(), NIC_QUEUE_CAP + 50);
    }

    #[test]
    fn first_unsent_excludes_nic_queue() {
        let mut f = PacketFactory::new();
        let mut s = ApClientState::default();
        for i in 0..10 {
            s.cyclic.insert(pkt(&mut f, i));
        }
        // Pull 4 into the NIC queue by temporarily capping.
        for _ in 0..4 {
            let p = s.cyclic.pop_head().unwrap();
            let seq = p.index.unwrap();
            s.nic_queue.push_back(NicEntry {
                packet: p,
                seq,
                retries: 0,
                registered: false,
            });
        }
        // k = 4: the NIC queue (0–3) drains on the old link.
        assert_eq!(s.first_unsent_index(), 4);
    }

    #[test]
    fn idle_client_has_no_work() {
        let s = ApClientState::default();
        assert!(!s.has_downlink_work());
        let mut f = PacketFactory::new();
        let mut s2 = ApClientState::default();
        s2.cyclic.insert(pkt(&mut f, 0));
        // Not serving, not draining: buffered but silent.
        assert!(!s2.has_downlink_work());
        s2.role = Role::Serving;
        assert!(s2.serving());
        assert!(s2.has_downlink_work());
    }

    #[test]
    fn draining_state_has_work_until_empty() {
        let mut f = PacketFactory::new();
        let mut s = ApClientState::default();
        s.cyclic.insert(pkt(&mut f, 0));
        s.role = Role::Serving;
        s.refill_nic();
        s.role = Role::Draining { cyclic: false };
        assert!(!s.serving());
        assert!(s.has_downlink_work());
        s.nic_queue.clear();
        // A NIC-only drain leaves the remaining cyclic backlog silent.
        s.cyclic.insert(pkt(&mut f, 1));
        assert!(!s.has_downlink_work());
        s.role = Role::Draining { cyclic: true };
        assert!(s.has_downlink_work());
    }

    #[test]
    fn round_robin_cycles_clients() {
        let mut f0 = PacketFactory::new();
        let mut ap = ApState::default();
        for c in 0..3u32 {
            let st = ap.client_mut(ClientId(c));
            st.role = Role::Serving;
            let mut p = f0.make(
                ClientId(c),
                FlowId(0),
                Direction::Downlink,
                1500,
                SimTime::ZERO,
                Payload::Raw,
            );
            p.index = Some(0);
            st.cyclic.insert(p);
        }
        let picks: Vec<ClientId> = (0..6).map(|_| ap.pick_client().unwrap()).collect();
        assert_eq!(picks[0], picks[3]);
        assert_eq!(picks[1], picks[4]);
        let distinct: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(distinct.len(), 3);
        assert!(ap.has_work());
    }

    #[test]
    fn degraded_buffer_overflow_drops_oldest() {
        let mut f = PacketFactory::new();
        let mut ap = ApState::default();
        // Cap of 3: packets 0–2 fit; 3 and 4 evict 0 and 1 respectively.
        for i in 0..3 {
            assert!(ap.buffer_uplink(pkt(&mut f, i), 3));
        }
        assert!(!ap.buffer_uplink(pkt(&mut f, 3), 3));
        assert!(!ap.buffer_uplink(pkt(&mut f, 4), 3));
        assert_eq!(ap.uplink_buffer.len(), 3);
        // The freshest packets survive, in arrival order.
        let held: Vec<u16> = ap.uplink_buffer.iter().map(|p| p.index.unwrap()).collect();
        assert_eq!(held, vec![2, 3, 4]);
        // A zero cap holds nothing.
        let mut none = ApState::default();
        assert!(!none.buffer_uplink(pkt(&mut f, 0), 0));
        assert!(none.uplink_buffer.is_empty());
    }

    #[test]
    fn pick_skips_idle_clients() {
        let mut ap = ApState::default();
        ap.client_mut(ClientId(0));
        assert_eq!(ap.pick_client(), None);
        assert!(!ap.has_work());
    }
}
