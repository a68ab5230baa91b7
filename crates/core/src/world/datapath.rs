//! The tunnelled datapath: server ↔ controller ↔ AP hops over the
//! backhaul, cyclic-queue fill, the Block ACK forwarding hop (`air.rs`
//! applies what arrives), client reorder and application delivery, and the
//! traffic sources that feed it.

use super::*;

/// One-way latency between the traffic server and the controller (the
/// paper caches content on a local server).
const SERVER_LATENCY: SimDuration = SimDuration::from_millis(1);

/// Datapath events: traffic sources, the backhaul hops of a data packet,
/// forwarded Block ACKs, and the client's reorder timer.
#[derive(Clone)]
pub enum Data {
    /// CBR downlink source is due.
    UdpDownTick(usize),
    /// Client-side uplink CBR source is due.
    UplinkAppTick(usize),
    /// Ask the TCP sender for more segments.
    TcpPump(usize),
    /// Retransmission-timer check for a TCP flow.
    TcpRtoCheck(usize),
    /// Downlink packet reaches the controller from the server.
    PacketAtController(Packet),
    /// Tunneled downlink packet reaches an AP.
    PacketAtAp { ap: usize, packet: Packet },
    /// Uplink copy reaches the controller from an AP.
    UplinkCopyAtController { from_ap: usize, packet: Packet },
    /// De-duplicated uplink packet reaches the server.
    PacketAtServer(Packet),
    /// Forwarded Block ACK arrives at the serving AP.
    BaForwardAtAp {
        ap: usize,
        client: usize,
        ba: BlockAckFrame,
    },
    /// Client reorder-buffer release timeout.
    ReorderFlush { client: usize },
}

impl Data {
    /// See [`Ev::client`]: exhaustive on purpose.
    pub(super) fn client(&self, flows: &[ServerFlow]) -> Option<usize> {
        match self {
            Data::UdpDownTick(f)
            | Data::UplinkAppTick(f)
            | Data::TcpPump(f)
            | Data::TcpRtoCheck(f) => Some(flows[*f].client),
            Data::PacketAtController(p) | Data::PacketAtServer(p) => Some(p.client.0 as usize),
            Data::PacketAtAp { packet, .. } | Data::UplinkCopyAtController { packet, .. } => {
                Some(packet.client.0 as usize)
            }
            Data::BaForwardAtAp { client, .. } | Data::ReorderFlush { client } => Some(*client),
        }
    }
}

/// A downlink traffic flow at the server.
pub enum FlowKind {
    /// Constant-bit-rate UDP toward the client.
    DownUdp(CbrSource),
    /// TCP (greedy or size-limited) toward the client (boxed: the sender's
    /// SACK scoreboard makes it much larger than the CBR variants).
    DownTcp(Box<TcpSender>),
    /// Client-sourced CBR UDP toward the server.
    UpUdp(CbrSource),
}

/// One application flow.
pub struct ServerFlow {
    /// Flow id.
    pub id: FlowId,
    /// Client endpoint (index into `clients`).
    pub client: usize,
    /// Traffic kind and state.
    pub kind: FlowKind,
    /// Sink for uplink flows (at the server).
    pub up_sink: Option<UdpSink>,
    /// Completion time of a size-limited TCP flow.
    pub completed_at: Option<SimTime>,
    /// Application start time (TCP flows wait for this; CBR sources embed
    /// their own schedule).
    pub start: SimTime,
    /// Earliest scheduled RTO check (suppresses duplicate timer events).
    pub(super) rto_check_at: Option<SimTime>,
}

impl ServerFlow {
    /// The event that starts this flow's traffic source, and when: a CBR
    /// source's first emission, a TCP sender's first pump; `fallback` where
    /// the source names no time of its own.
    pub(super) fn first_tick(&self, fidx: usize, fallback: SimTime) -> (SimTime, Data) {
        match &self.kind {
            FlowKind::DownUdp(src) => (
                src.next_emit_time().unwrap_or(fallback),
                Data::UdpDownTick(fidx),
            ),
            FlowKind::UpUdp(src) => (
                src.next_emit_time().unwrap_or(fallback),
                Data::UplinkAppTick(fidx),
            ),
            FlowKind::DownTcp(_) => (fallback, Data::TcpPump(fidx)),
        }
    }
}

/// How long a client holds frames behind a reorder-window hole before
/// skipping it.
const REORDER_TIMEOUT: SimDuration = SimDuration::from_millis(50);

impl WgttWorld {
    pub(super) fn handle_data(&mut self, ev: Data, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Data::UdpDownTick(f) => self.on_cbr_tick(ctx, f, false),
            Data::UplinkAppTick(f) => self.on_cbr_tick(ctx, f, true),
            Data::TcpPump(f) => self.pump_tcp(ctx, f),
            Data::TcpRtoCheck(f) => self.on_tcp_rto_check(ctx, f),
            Data::PacketAtController(p) => self.on_packet_at_controller(ctx, p),
            Data::PacketAtAp { ap, packet } => self.on_packet_at_ap(ctx, ap, packet),
            Data::UplinkCopyAtController { from_ap, packet } => {
                self.on_uplink_copy(ctx, from_ap, packet)
            }
            Data::PacketAtServer(p) => self.on_packet_at_server(ctx, p),
            Data::BaForwardAtAp { ap, client, ba } => self.on_ba_forward_at_ap(ap, client, ba),
            Data::ReorderFlush { client } => self.on_reorder_flush(ctx, client),
        }
    }

    pub(super) fn backhaul_send(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        bytes: usize,
        lossy: bool,
        ev: Ev,
    ) {
        if lossy {
            let keep = !self.rng.chance(self.cfg.control_loss_prob);
            if !keep {
                return;
            }
        }
        // Layer on any scheduled backhaul impairment; a no-op impairment
        // makes the healthy transit's RNG draws and delay.
        let imp = self.faults.backhaul_at(ctx.now());
        let delivery = self.backhaul.transit_faulty(bytes, &imp);
        if let Some(d2) = delivery.duplicate {
            self.sys.backhaul_dup_deliveries += 1;
            ctx.schedule_in(d2, ev.clone());
        }
        if delivery.reordered {
            self.sys.backhaul_reorders += 1;
        }
        if let Some(d) = delivery.primary {
            ctx.schedule_in(d, ev);
        }
    }

    /// Whether `ap` can exchange backhaul messages with the controller.
    pub(super) fn ap_reachable(&self, ap: usize, now: SimTime) -> bool {
        !self.ap_down[ap] && !self.faults.partitioned(ap, now)
    }

    /// Tunnels one uplink copy from `from_ap` to the controller.
    pub(super) fn tunnel_uplink(&mut self, ctx: &mut Ctx<'_, Ev>, from_ap: usize, packet: Packet) {
        let wire = packet.len_bytes + wgtt_net::TUNNEL_OVERHEAD_BYTES;
        let arrival = Data::UplinkCopyAtController { from_ap, packet };
        self.backhaul_send(ctx, wire, false, Ev::Data(arrival));
    }

    // ---------- downlink path ----------

    pub(super) fn on_packet_at_controller(&mut self, ctx: &mut Ctx<'_, Ev>, mut packet: Packet) {
        if !self.controller_admits() {
            return;
        }
        let c = packet.client.0 as usize;
        let now = ctx.now();
        let mut targets = std::mem::take(&mut self.fanout);
        match self.cfg.mode {
            Mode::Wgtt => self.ctrl.fanout(now, packet.client, &mut targets),
            Mode::Enhanced80211r => {
                targets.clear();
                targets.extend(self.serving_of(c));
            }
        }
        // With no target the client is unreachable (pre-association or out
        // of coverage): dropped before an index is consumed, like a bridge
        // with no forwarding entry.
        if !targets.is_empty() {
            let idx = self.ctrl.assign_index(packet.client);
            packet.index = Some(idx);
            self.sys.downlink_copies += targets.len() as u64;
            let wire = packet.len_bytes + wgtt_net::TUNNEL_OVERHEAD_BYTES;
            for &ap in &targets {
                let packet = packet.clone();
                let arrival = Data::PacketAtAp { ap, packet };
                self.backhaul_send(ctx, wire, false, Ev::Data(arrival));
            }
        }
        self.fanout = targets;
    }

    fn on_packet_at_ap(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize, packet: Packet) {
        if !self.ap_reachable(ap, ctx.now()) {
            return;
        }
        let client = packet.client;
        let st = self.aps[ap].client_mut(client);
        st.cyclic.insert(packet);
        self.ensure_round(ctx);
    }

    /// Releases in-order packets from the client's reorder buffer to the
    /// application, managing the reorder release timer. With `force`, a
    /// stale head-of-window hole is skipped first.
    pub(super) fn release_reordered(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, force: bool) {
        let now = ctx.now();
        loop {
            if force {
                self.clients[c].rx_reorder.skip_hole();
            }
            let before = self.clients[c].rx_reorder.win_start();
            let released = self.clients[c].rx_reorder.release_in_order();
            for i in 0..released {
                let seq = wgtt_mac::seq_add(before, i as u16);
                if let Some(pkt) = self.clients[c].rx_buffer.remove(&seq) {
                    self.deliver_to_client_app(ctx, c, pkt);
                }
            }
            if !(force && released > 0) {
                break;
            }
            // After a forced skip, further holes may remain; loop once more
            // only while forcing.
            if self.clients[c].rx_buffer.is_empty() {
                break;
            }
        }
        // Manage the release timer: if frames remain buffered behind a
        // hole, arm a flush; otherwise clear it.
        if self.clients[c].rx_buffer.is_empty() {
            self.clients[c].hole_since = None;
        } else if self.clients[c].hole_since.is_none() {
            self.clients[c].hole_since = Some(now);
            ctx.schedule_in(REORDER_TIMEOUT, Ev::Data(Data::ReorderFlush { client: c }));
        }
    }

    fn on_reorder_flush(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        let now = ctx.now();
        match self.clients[c].hole_since {
            Some(since) if now.saturating_since(since) >= REORDER_TIMEOUT => {
                self.clients[c].hole_since = None;
                self.release_reordered(ctx, c, true);
            }
            Some(since) => {
                // Timer superseded by progress; re-arm for the remainder.
                let remain = REORDER_TIMEOUT - now.saturating_since(since);
                ctx.schedule_in(remain, Ev::Data(Data::ReorderFlush { client: c }));
            }
            None => {}
        }
    }

    // ---------- uplink at controller / server ----------

    pub(super) fn on_uplink_copy(&mut self, ctx: &mut Ctx<'_, Ev>, from_ap: usize, packet: Packet) {
        if !self.controller_admits() {
            return;
        }
        let Some(packet) = self.hold_for_resync(from_ap, packet) else {
            return;
        };
        self.sys.uplink_copies += 1;
        if self.cfg.uplink_dedup && !self.ctrl.dedup.check(&packet) {
            self.sys.uplink_duplicates += 1;
            return;
        }
        self.journal_forwarded(&packet);
        ctx.schedule_in(SERVER_LATENCY, Ev::Data(Data::PacketAtServer(packet)));
    }

    pub(super) fn on_packet_at_server(&mut self, ctx: &mut Ctx<'_, Ev>, packet: Packet) {
        let now = ctx.now();
        let fidx = packet.flow.0 as usize;
        if fidx >= self.flows.len() {
            return;
        }
        match (&mut self.flows[fidx].kind, packet.payload) {
            (FlowKind::DownTcp(sender), Payload::TcpAck { ack, sack }) => {
                let mut blocks = [(0, 0); 3];
                let mut n = 0;
                for block in sack.blocks(ack) {
                    blocks[n] = block;
                    n += 1;
                }
                sender.on_ack_sack(now, ack, &blocks[..n]);
                if sender.is_complete() && self.flows[fidx].completed_at.is_none() {
                    self.flows[fidx].completed_at = Some(now);
                }
                self.pump_tcp(ctx, fidx);
            }
            (FlowKind::UpUdp(_), Payload::Udp { seq }) => {
                if let Some(sink) = &mut self.flows[fidx].up_sink {
                    if sink.on_receive(now, seq, packet.len_bytes) {
                        let c = self.flows[fidx].client;
                        self.clients[c]
                            .metrics
                            .uplink
                            .add(now, (packet.len_bytes * 8) as f64);
                    }
                }
            }
            _ => {}
        }
    }

    // ---------- traffic generation ----------

    /// A CBR source is due: the server's (`uplink` false — each datagram
    /// heads for the controller) or the client's own (queued on its radio).
    fn on_cbr_tick(&mut self, ctx: &mut Ctx<'_, Ev>, fidx: usize, uplink: bool) {
        let now = ctx.now();
        if now >= self.traffic_until {
            return;
        }
        let flow = &mut self.flows[fidx];
        let ((FlowKind::DownUdp(src), false) | (FlowKind::UpUdp(src), true)) =
            (&mut flow.kind, uplink)
        else {
            return;
        };
        let (c, id) = (flow.client, flow.id);
        let len = src.payload_bytes + overhead::UDP + overhead::IPV4;
        let dir = if uplink {
            Direction::Uplink
        } else {
            Direction::Downlink
        };
        while let Some(seq) = src.emit(now) {
            let payload = Payload::Udp { seq };
            let pkt = self
                .factory
                .make(ClientId(c as u32), id, dir, len, now, payload);
            if uplink {
                self.clients[c].enqueue_uplink(pkt);
            } else {
                ctx.schedule_in(SERVER_LATENCY, Ev::Data(Data::PacketAtController(pkt)));
            }
        }
        let next = src.next_emit_time().filter(|&t| t < self.traffic_until);
        if uplink {
            self.ensure_round(ctx);
        }
        if let Some(t) = next {
            let tick = if uplink {
                Data::UplinkAppTick(fidx)
            } else {
                Data::UdpDownTick(fidx)
            };
            ctx.schedule_at(t, Ev::Data(tick));
        }
    }

    fn pump_tcp(&mut self, ctx: &mut Ctx<'_, Ev>, fidx: usize) {
        let now = ctx.now();
        if now >= self.traffic_until {
            return;
        }
        // The transfer starts at its scheduled time, once the client is
        // reachable (mirrors starting the application after the Wi-Fi
        // connection is up).
        if now < self.flows[fidx].start {
            ctx.schedule_at(self.flows[fidx].start, Ev::Data(Data::TcpPump(fidx)));
            return;
        }
        let client_idx = self.flows[fidx].client;
        if self.serving_of(client_idx).is_none() {
            ctx.schedule_in(SimDuration::from_millis(20), Ev::Data(Data::TcpPump(fidx)));
            return;
        }
        let flow = &mut self.flows[fidx];
        let FlowKind::DownTcp(sender) = &mut flow.kind else {
            return;
        };
        let client = ClientId(flow.client as u32);
        let id = flow.id;
        let mut segs = Vec::new();
        while let Some(seg) = sender.next_segment(now) {
            segs.push(seg);
        }
        let deadline = sender.rto_deadline();
        for seg in segs {
            let pkt = self.factory.make(
                client,
                id,
                Direction::Downlink,
                seg.len + overhead::TCP + overhead::IPV4,
                now,
                Payload::TcpData {
                    seq: seg.seq,
                    len: seg.len as u64,
                },
            );
            ctx.schedule_in(SERVER_LATENCY, Ev::Data(Data::PacketAtController(pkt)));
        }
        // Arm the RTO check if needed.
        if let Some(d) = deadline {
            let flow = &mut self.flows[fidx];
            let need = flow.rto_check_at.map_or(true, |at| at > d || at <= now);
            if need {
                flow.rto_check_at = Some(d);
                ctx.schedule_at(d.max(now), Ev::Data(Data::TcpRtoCheck(fidx)));
            }
        }
    }

    fn on_tcp_rto_check(&mut self, ctx: &mut Ctx<'_, Ev>, fidx: usize) {
        let now = ctx.now();
        {
            let flow = &mut self.flows[fidx];
            flow.rto_check_at = None;
            let FlowKind::DownTcp(sender) = &mut flow.kind else {
                return;
            };
            match sender.rto_deadline() {
                Some(d) if d <= now => {
                    sender.on_rto_check(now);
                }
                Some(d) => {
                    // Deadline moved later; re-arm.
                    flow.rto_check_at = Some(d);
                    ctx.schedule_at(d, Ev::Data(Data::TcpRtoCheck(fidx)));
                    return;
                }
                None => return,
            }
        }
        self.pump_tcp(ctx, fidx);
    }

    // ---------- client app delivery ----------

    fn deliver_to_client_app(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, packet: Packet) {
        let now = ctx.now();
        match packet.payload {
            Payload::Udp { seq } => {
                let payload = packet
                    .len_bytes
                    .saturating_sub(overhead::UDP + overhead::IPV4);
                let cl = &mut self.clients[c];
                if let Some(sink) = cl.udp_sink.get_mut(&packet.flow) {
                    if sink.on_receive(now, seq, payload) {
                        cl.metrics.downlink.add(now, (payload * 8) as f64);
                        cl.log_delivery(DeliveryRecord {
                            at: now,
                            flow: packet.flow,
                            seq,
                            bytes: payload,
                        });
                    }
                }
            }
            Payload::TcpData { seq, len } => {
                let cl = &mut self.clients[c];
                let Some(rx) = cl.tcp_rx.get_mut(&packet.flow) else {
                    return;
                };
                let before = rx.rcv_nxt();
                let ack = rx.on_data(seq, len as usize);
                let delivered = ack.saturating_sub(before);
                if delivered > 0 {
                    cl.metrics.downlink.add(now, (delivered * 8) as f64);
                    cl.log_delivery(DeliveryRecord {
                        at: now,
                        flow: packet.flow,
                        seq: ack,
                        bytes: delivered as usize,
                    });
                }
                // Enqueue the cumulative ACK with SACK blocks describing
                // whatever is buffered out of order.
                let blocks = cl
                    .tcp_rx
                    .get(&packet.flow)
                    .map(|r| r.sack_blocks(3))
                    .unwrap_or_default();
                let sack = SackBlocks::new(ack, &blocks);
                let ack_pkt = self.factory.make(
                    ClientId(c as u32),
                    packet.flow,
                    Direction::Uplink,
                    overhead::TCP + overhead::IPV4 + 12,
                    now,
                    Payload::TcpAck { ack, sack },
                );
                self.clients[c].enqueue_uplink(ack_pkt);
                self.ensure_round(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ap::NicEntry;
    use crate::runner::tests::one_vehicle;
    use wgtt_sim::Simulator;

    const AP: usize = 2;
    const SEQ: u16 = 5;

    /// Puts `SEQ` back in flight at `AP`: outstanding in the scoreboard and
    /// queued at the NIC, as a duplicated data delivery that rewinds the
    /// cyclic head re-registers it.
    fn put_in_flight(w: &mut WgttWorld, factory: &mut PacketFactory) {
        let mut packet = factory.make(
            ClientId(0),
            FlowId(0),
            Direction::Downlink,
            1500,
            SimTime::ZERO,
            Payload::Udp { seq: 0 },
        );
        packet.index = Some(SEQ);
        let st = w.aps[AP].client_mut(ClientId(0));
        st.scoreboard.register(SEQ);
        st.nic_queue.push_back(NicEntry {
            packet,
            seq: SEQ,
            retries: 0,
            registered: true,
        });
    }

    /// A second copy of a forwarded Block ACK (backhaul duplication) must
    /// not ack a sequence that was re-registered after the first copy
    /// applied: `seen_bas` remembers the frame, the scoreboard alone does
    /// not.
    #[test]
    fn a_duplicated_ba_forward_applies_once() {
        // Nothing primed: the two forwards below are the only events.
        let mut sim = Simulator::new(one_vehicle().build().into_world());
        let mut factory = PacketFactory::new();
        let ba = BlockAckFrame {
            start_seq: SEQ,
            bitmap: 1,
        };
        let forward = Ev::Data(Data::BaForwardAtAp {
            ap: AP,
            client: 0,
            ba,
        });
        put_in_flight(sim.world_mut(), &mut factory);
        sim.schedule_at(SimTime::from_millis(1), forward.clone());
        assert!(sim.step());
        let st = sim.world_mut().aps[AP].client_mut(ClientId(0));
        assert!(!st.scoreboard.is_unacked(SEQ), "the first copy acks");
        assert!(st.nic_queue.is_empty());

        put_in_flight(sim.world_mut(), &mut factory);
        sim.schedule_at(SimTime::from_millis(2), forward);
        assert!(sim.step());
        let w = sim.world_mut();
        assert_eq!(w.clients[0].metrics.ba_forwarded_applied, 1);
        let st = w.aps[AP].client_mut(ClientId(0));
        assert!(st.scoreboard.is_unacked(SEQ), "the second copy acked");
        assert_eq!(st.nic_queue.len(), 1, "the second copy dequeued");
    }
}
