//! Shard seams, world side: the migration record and its residue, the
//! departed-client outbox, pending imports, and the effects `shard.rs`
//! calls at a lockstep barrier.

use super::*;

/// Seam events.
#[derive(Clone)]
pub enum Seam {
    /// Re-inject seam datagrams deposited after a migrant's first
    /// association (outbox forwards from a later lockstep barrier). The
    /// sharding layer schedules this at the barrier instant; worlds never
    /// emit it themselves.
    MigrantFlush { client: usize },
}

impl Seam {
    /// See [`Ev::client`]: exhaustive on purpose.
    pub(super) fn client(&self) -> Option<usize> {
        match self {
            Seam::MigrantFlush { client } => Some(*client),
        }
    }
}

/// One CBR UDP flow carried across a shard boundary with its client.
/// TCP flows do not migrate (v1 limitation: a mid-stream TCP sender's
/// scoreboard is not transplantable; sharded scenarios use UDP traffic).
#[derive(Debug, Clone)]
pub struct MigrantFlow {
    /// Offered rate, payload bits/s.
    pub rate_bps: u64,
    /// Datagram payload, bytes.
    pub payload: usize,
    /// `true` = client→server, `false` = server→client.
    pub uplink: bool,
}

impl From<&MigrantFlow> for FlowSpec {
    fn from(f: &MigrantFlow) -> Self {
        let (rate_bps, payload) = (f.rate_bps, f.payload);
        if f.uplink {
            FlowSpec::UplinkUdp { rate_bps, payload }
        } else {
            FlowSpec::DownlinkUdp { rate_bps, payload }
        }
    }
}

/// Everything a destination shard needs to re-instantiate a client that
/// crossed its boundary. Coordinates are in the *destination* shard's
/// local frame; the sharding layer translates before delivery.
#[derive(Debug, Clone)]
pub struct MigrantSpec {
    /// Along-road position at admission time, m (destination frame).
    pub entry_x: f64,
    /// Lane y-coordinate, m.
    pub lane_y: f64,
    /// Signed along-road speed, m/s.
    pub speed_mps: f64,
    /// Flows to re-attach.
    pub flows: Vec<MigrantFlow>,
}

/// One in-flight or queued datagram crossing a shard seam, tagged with
/// where in the pipeline it was captured so the destination world can
/// re-inject it at the equivalent stage. The packet's `client`/`flow`
/// ids are in whichever world's space the containing collection says
/// ([`MigrationRecord`] = source ordinals, `pending_import` = already
/// rewritten to the destination).
#[derive(Debug, Clone)]
pub enum SeamPayload {
    /// Server→client datagram: cyclic-queue residue or an in-flight copy
    /// captured between server, controller, and AP. Re-injected at the
    /// destination controller (fresh index assignment, fresh fan-out);
    /// the client's per-flow sequence dedup collapses overlapping copies.
    Downlink(Packet),
    /// Client→controller copy an AP had already forwarded. Re-injected at
    /// the destination dedup filter, where a transferred primed key drops
    /// it if the source controller already delivered it.
    UplinkCopy(Packet),
    /// An unacknowledged entry from the client's own uplink queue, with
    /// its link-layer retry count (the health state of the transfer). The
    /// destination re-enqueues it for transmission under a fresh 802.11
    /// sequence.
    UplinkQueued(Packet, u32),
    /// A deduplicated uplink datagram already past the controller, caught
    /// mid-flight to the server. Re-injected at the destination server.
    ServerBound(Packet),
}

impl SeamPayload {
    /// The carried packet.
    pub fn packet(&self) -> &Packet {
        match self {
            SeamPayload::Downlink(p)
            | SeamPayload::UplinkCopy(p)
            | SeamPayload::UplinkQueued(p, _)
            | SeamPayload::ServerBound(p) => p,
        }
    }

    fn packet_mut(&mut self) -> &mut Packet {
        match self {
            SeamPayload::Downlink(p)
            | SeamPayload::UplinkCopy(p)
            | SeamPayload::UplinkQueued(p, _)
            | SeamPayload::ServerBound(p) => p,
        }
    }
}

/// One migration-record residue entry: a seam datagram plus the ordinal
/// of its flow *within the client's flow list* (flow ids differ between
/// worlds; the ordinal is the invariant both sides agree on because the
/// barrier re-attaches the same flow list in the same order).
#[derive(Debug, Clone)]
pub struct SeamEntry {
    /// Position of the packet's flow in the client's flow list.
    pub ordinal: usize,
    /// The datagram and its capture stage.
    pub payload: SeamPayload,
}

impl SeamEntry {
    /// Tags `payload` with its flow's position in `flow_ids`, the owning
    /// client's flow list.
    fn of(flow_ids: &[FlowId], payload: SeamPayload) -> Self {
        let flow = payload.packet().flow;
        let ordinal = flow_ids.iter().position(|&f| f == flow).unwrap_or(0);
        SeamEntry { ordinal, payload }
    }
}

/// Everything the destination controller needs to resume a migrated
/// client without losing or double-delivering a datagram across the
/// seam — the inter-controller handoff record (DESIGN.md §6e; the
/// crash-PR resync machinery is its intellectual seed).
#[derive(Debug, Clone, Default)]
pub struct MigrationRecord {
    /// Switch-epoch high-water at the source: the engine's allocation
    /// counter joined with every AP guard mark for the client. The
    /// destination resumes strictly above this.
    pub epoch_max: u32,
    /// The IP ident the client's next packet would have carried at the
    /// source. Continuing the stream keeps fresh destination idents from
    /// colliding with the transferred dedup keys below.
    pub next_ident: u16,
    /// IP idents of this client's uplink packets the source controller
    /// recently saw, oldest first — re-primed at the destination so a
    /// cross-seam retransmit of a delivered packet drops instead of
    /// reaching the Internet twice.
    pub dedup_idents: Vec<u16>,
    /// Per-flow next CBR sequence numbers, in flow-ordinal order. The
    /// destination's re-attached sources resume here so the client sink's
    /// sequence space stays monotone across the seam.
    pub flow_seqs: Vec<u64>,
    /// Undelivered datagrams: the serving AP's cyclic-queue tail (in
    /// index order), the client's unacked uplink queue (oldest first),
    /// and any seam datagrams still awaiting re-injection from a previous
    /// hop. The destination re-enqueues all of it.
    pub residue: Vec<SeamEntry>,
}

impl WgttWorld {
    pub(super) fn handle_seam(&mut self, ev: Seam, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Seam::MigrantFlush { client } => self.on_migrant_flush(ctx, client),
        }
    }

    /// What becomes of an event that names departed client `c`.
    /// Data-bearing events are captured into the seam outbox so the next
    /// barrier can forward the datagram to the client's destination shard;
    /// control/timer stragglers (CSI reports, probe ticks, switch legs, …)
    /// are pure bookkeeping and are dropped where they stand.
    pub(super) fn capture_departed(&mut self, c: usize, event: Ev) {
        let payload = match event {
            // A downlink datagram between server, controller, and AP: not
            // yet on the air, so not yet "sent on the old link" — it
            // belongs to the destination.
            Ev::Data(Data::PacketAtController(p)) => SeamPayload::Downlink(p),
            Ev::Data(Data::PacketAtAp { packet, .. }) => SeamPayload::Downlink(packet),
            // An AP→controller uplink copy: must cross the seam so the
            // destination's dedup filter arbitrates delivery.
            Ev::Data(Data::UplinkCopyAtController { packet, .. }) => {
                SeamPayload::UplinkCopy(packet)
            }
            // Already deduplicated, caught on the server hop.
            Ev::Data(Data::PacketAtServer(p)) => SeamPayload::ServerBound(p),
            _ => {
                self.sys.departed_ctrl_drops += 1;
                return;
            }
        };
        self.capture_seam(c, payload);
    }

    // ---------- shard-boundary migration ----------

    /// Whether client `c` is still resident in this world (not yet retired
    /// to a neighboring shard).
    pub fn is_resident(&self, c: usize) -> bool {
        !self.departed[c]
    }

    /// Flow ids belonging to client `c`, in ascending registration order —
    /// the ordinal space both sides of a migration agree on.
    fn client_flow_ids(&self, c: usize) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| f.client == c)
            .map(|f| f.id)
            .collect()
    }

    /// The AP holding the authoritative cyclic queue for `client` — the
    /// serving AP, or under a frozen mid-switch the freshest claimant by
    /// the same total order the resync reconstruction uses (newest applied
    /// `start`, newest guard epoch, lowest AP id). Fan-out copies on other
    /// APs are already counted as sent and would only re-deliver
    /// duplicates, so only this AP's tail is exported as residue.
    fn best_claimant_ap(&self, client: ClientId) -> Option<usize> {
        let claim = |a: usize| {
            let st = self.aps[a].client(client)?;
            let key = (st.serving(), st.guard.start_applied(), st.guard.latest());
            Some((key, std::cmp::Reverse(a)))
        };
        let best = (0..self.aps.len()).filter_map(claim).max();
        best.map(|(_, std::cmp::Reverse(a))| a)
    }

    /// Retires a client that crossed this shard's boundary and exports its
    /// [`MigrationRecord`]: switch-epoch high-water (engine counter joined
    /// with every AP guard mark), the next IP ident, the dedup filter's
    /// recent idents, per-flow CBR sequence positions, and the undelivered
    /// residue — the best claimant AP's cyclic tail, the client's unacked
    /// uplink queue, and any not-yet-flushed seam imports from a previous
    /// hop. After export every piece of live protocol state referencing
    /// the client — per-AP association slots, controller maps, the
    /// pending-switch engine — is dropped, and `departed[c]` routes the
    /// in-flight events that still name it into the seam outbox instead of
    /// the void. The client's metrics stay in place (they belong to this
    /// shard's leg of the journey); the slab itself is never removed, so
    /// no other client's index shifts.
    ///
    /// Only called at lockstep barriers; no event handler retires clients,
    /// so within an epoch residency is constant and the export is a
    /// deterministic function of the barrier-instant world state.
    pub fn retire_client(&mut self, c: usize, now: SimTime) -> MigrationRecord {
        assert!(!self.departed[c], "client {c} retired twice");
        self.departed[c] = true;
        self.sys.migrated_out += 1;
        let id = ClientId(c as u32);
        let flow_ids = self.client_flow_ids(c);
        let mut rec = MigrationRecord {
            epoch_max: self.ctrl.engine.current_epoch(id),
            next_ident: self.factory.peek_ident(id),
            dedup_idents: self.ctrl.dedup.idents_for(id),
            ..MigrationRecord::default()
        };
        for ap in &self.aps {
            if let Some(st) = ap.client(id) {
                rec.epoch_max = rec.epoch_max.max(st.guard.latest());
            }
        }
        for &fid in &flow_ids {
            rec.flow_seqs.push(match &self.flows[fid.0 as usize].kind {
                FlowKind::DownUdp(s) | FlowKind::UpUdp(s) => s.next_seq(),
                FlowKind::DownTcp(_) => 0, // TCP flows do not migrate (v1)
            });
        }
        // The residue is reserved at exactly what is drained into it below:
        // it is fanned out to the next cluster's APs in one instant, so a
        // vector grown by doubling would hold up to as much again empty.
        let best = self.best_claimant_ap(id);
        let backlog = best
            .and_then(|a| self.aps[a].client(id))
            .map_or(0, |st| st.cyclic.backlog());
        let drained = backlog + self.clients[c].uplink_queue.len() + self.pending_import[c].len();
        rec.residue.reserve_exact(drained);
        // Downlink residue: drain the authoritative cyclic tail, in index
        // order (pop_head walks head → tail past delivery gaps).
        if let Some(best) = best {
            if let Some(st) = self.aps[best].client_get_mut(id) {
                while let Some(p) = st.cyclic.pop_head() {
                    let payload = SeamPayload::Downlink(p);
                    rec.residue.push(SeamEntry::of(&flow_ids, payload));
                }
            }
        }
        // Uplink residue: the client's own unacked queue, oldest first,
        // carrying link-layer retry counts (the health state).
        self.set_serving(c, None, now);
        for e in self.clients[c].uplink_queue.drain(..) {
            let payload = SeamPayload::UplinkQueued(e.packet, e.retries);
            rec.residue.push(SeamEntry::of(&flow_ids, payload));
        }
        // Seam datagrams imported on a previous hop but never flushed (the
        // client crossed again before associating): they ride along.
        for payload in std::mem::take(&mut self.pending_import[c]) {
            rec.residue.push(SeamEntry::of(&flow_ids, payload));
        }
        debug_assert_eq!(rec.residue.len(), drained);
        for ap in &mut self.aps {
            if let Some(slot) = ap.clients.get_mut(c) {
                *slot = None;
            }
        }
        self.ctrl.selectors.remove(&id);
        self.ctrl.allocators.remove(&id);
        self.ctrl.serving.remove(&id);
        self.ctrl.engine.abort(id);
        self.pending_reattach[c] = None;
        self.pending_failover[c] = None;
        rec
    }

    /// Admits a migrant from a neighboring shard as a brand-new resident
    /// client: fresh per-AP channel realizations (forked off this shard's
    /// root seed, keyed by admission ordinal so any admission sequence maps
    /// to a unique, reproducible stream), a constant-speed trajectory
    /// placed so its position at `now` is `spec.entry_x`, and new flow
    /// endpoints. Returns the new client index; the caller schedules its
    /// events via [`prime_migrant_events`].
    ///
    /// Association is not carried over — the client attaches through the
    /// normal probe → CSI → selection pipeline, which models a handoff
    /// between independently-controlled clusters (the multi-controller
    /// split of DESIGN.md §6d). Protocol identity *is* carried over when a
    /// [`MigrationRecord`] is supplied: switch epochs resume strictly
    /// above the source's high-water, the source's recent dedup idents are
    /// re-primed under the new address, the IP-ident and per-flow CBR
    /// sequence streams continue where the source left them, and the
    /// undelivered residue is parked in `pending_import` until the first
    /// association re-injects it. Passing `None` is the naive no-transfer
    /// handoff (fresh identity, residue lost) kept for the loss-accounting
    /// shim.
    pub fn admit_migrant(
        &mut self,
        spec: &MigrantSpec,
        record: Option<&MigrationRecord>,
        now: SimTime,
    ) -> usize {
        let ordinal = self.sys.migrated_in;
        self.sys.migrated_in += 1;
        let traj = wgtt_phy::mobility::ConstantSpeed {
            start: wgtt_phy::Position::new(
                spec.entry_x - spec.speed_mps * now.as_secs_f64(),
                spec.lane_y,
                1.5,
            ),
            speed_mps: spec.speed_mps,
        };
        let rng = self.rng.clone();
        let c = self.push_client(Box::new(traj), false, |a| {
            rng.fork(&format!("migrant-link/{a}/n{ordinal}"))
        });
        for f in &spec.flows {
            self.attach_flow(c, &FlowSpec::from(f), now);
        }
        if let Some(rec) = self.import_record(c, record) {
            self.pending_import[c] = rec;
        }
        c
    }

    /// Applies the controller-and-stream half of a migration record to the
    /// freshly admitted client `c` and returns its residue rewritten into
    /// this world's id space (ready for `pending_import`). `None` record —
    /// the naive no-transfer mode — returns `None` and leaves the fresh
    /// identity untouched.
    fn import_record(
        &mut self,
        c: usize,
        record: Option<&MigrationRecord>,
    ) -> Option<Vec<SeamPayload>> {
        let rec = record?;
        let id = ClientId(c as u32);
        self.factory.resume_ident(id, rec.next_ident);
        // A fresh admission has no pending switch: the source froze the
        // client at the barrier before exporting.
        debug_assert!(
            !self.ctrl.engine.in_flight(id),
            "imported client {id} still has a pending switch"
        );
        self.ctrl
            .import_migration(id, rec.epoch_max, &rec.dedup_idents);
        let flow_ids = self.client_flow_ids(c);
        for (ordinal, &seq) in rec.flow_seqs.iter().enumerate() {
            if let Some(&fid) = flow_ids.get(ordinal) {
                match &mut self.flows[fid.0 as usize].kind {
                    FlowKind::DownUdp(s) | FlowKind::UpUdp(s) => s.resume_seq(seq),
                    FlowKind::DownTcp(_) => {}
                }
            }
        }
        let mut imported = Vec::with_capacity(rec.residue.len());
        for entry in &rec.residue {
            if let Some(payload) = self.localize(c, &flow_ids, entry.clone()) {
                self.sys.residue_transferred += 1;
                imported.push(payload);
            }
        }
        Some(imported)
    }

    /// Rewrites one seam entry into this world's id space, as client `c`'s.
    /// An entry whose flow has no counterpart here (traffic window closed)
    /// has nowhere to land and is counted as a seam data loss.
    fn localize(&mut self, c: usize, flow_ids: &[FlowId], entry: SeamEntry) -> Option<SeamPayload> {
        let mut payload = entry.payload;
        let p = payload.packet_mut();
        let Some(&fid) = flow_ids.get(entry.ordinal) else {
            self.count_seam_loss(1, p.len_bytes as u64);
            return None;
        };
        p.client = ClientId(c as u32);
        p.flow = fid;
        // Downlink indices are allocator-scoped; the destination
        // controller assigns fresh ones.
        p.index = None;
        Some(payload)
    }

    /// Drains every departed client's seam outbox, in ascending client
    /// order, resolving each datagram's flow to its ordinal (the flow
    /// list survives retirement, so the mapping is still available). The
    /// sharding layer calls this at each lockstep barrier and forwards the
    /// entries to each client's destination shard.
    pub fn drain_outbox(&mut self) -> Vec<(usize, Vec<SeamEntry>)> {
        let mut out = Vec::new();
        for c in 0..self.outbox.len() {
            if self.outbox[c].is_empty() {
                continue;
            }
            let flow_ids = self.client_flow_ids(c);
            let entries: Vec<SeamEntry> = std::mem::take(&mut self.outbox[c])
                .into_iter()
                .map(|payload| SeamEntry::of(&flow_ids, payload))
                .collect();
            out.push((c, entries));
        }
        out
    }

    /// Deposits late seam datagrams (outbox forwards from a barrier after
    /// the client's admission) into its pending-import buffer, rewritten
    /// into this world's id space. If the client has *already departed
    /// onward* by the time the batch lands (it crossed another boundary
    /// while the forward was in flight), the datagrams are re-captured
    /// into this slot's own seam outbox so the next barrier chases them
    /// along the route chain instead of dropping them. Returns `true` if
    /// the client is resident and already associated — the caller must
    /// then schedule an [`Seam::MigrantFlush`] to re-inject, since the
    /// first-association hook has already run.
    pub fn deposit_seam(&mut self, c: usize, entries: Vec<SeamEntry>) -> bool {
        let flow_ids = self.client_flow_ids(c);
        for entry in entries {
            let Some(payload) = self.localize(c, &flow_ids, entry) else {
                continue;
            };
            self.sys.seam_forwarded += 1;
            if self.departed[c] {
                self.capture_seam(c, payload);
            } else {
                self.pending_import[c].push(payload);
            }
        }
        !self.departed[c] && self.clients[c].serving.is_some()
    }

    /// Reverses a retirement whose two-phase handoff **aborted**: the
    /// destination never acknowledged the `MigratePrepare` within the
    /// retry budget, so the source — which retained the full record —
    /// readopts the client (DESIGN.md §6f graceful degradation). The
    /// record is re-applied through the same import path a destination
    /// would use; every identity field maps back onto itself (resume to
    /// the exported counters is a no-op because the departed-event guard
    /// froze the client's streams at retirement), and the residue returns
    /// to `pending_import` for the next association to flush. The caller
    /// must re-prime the client's timer chains with
    /// [`prime_migrant_events`] — retirement let them die unrescheduled.
    pub fn readopt_client(&mut self, c: usize, record: &MigrationRecord) {
        assert!(self.departed[c], "client {c} is not departed");
        self.departed[c] = false;
        if let Some(imported) = self.import_record(c, Some(record)) {
            self.pending_import[c].extend(imported);
        }
    }

    /// Idempotently re-applies a migration record to a client this world
    /// **already admitted** — the merge path for a re-exported
    /// `MigratePrepare` (the source aborted on a lost commit, readopted,
    /// and handed the client over again at its next boundary pass). Only
    /// the monotone halves of the import run: the epoch space joins by
    /// max and dedup-key priming is a no-op for seen keys, but the
    /// ident/sequence streams are *not* resumed — the live incarnation
    /// has advanced them past the record, and rewinding would stall the
    /// flow behind the sink's sequence filter. Residue rides the normal
    /// late-forward deposit, where anything both incarnations delivered
    /// collapses at the end-to-end dedup layers. Returns `true` when the
    /// client is resident and associated (caller schedules a flush).
    pub fn reimport_migrant(&mut self, c: usize, record: &MigrationRecord) -> bool {
        if !self.departed[c] {
            let id = ClientId(c as u32);
            self.ctrl
                .import_migration(id, record.epoch_max, &record.dedup_idents);
        }
        self.deposit_seam(c, record.residue.clone())
    }

    /// Counts a migration record (or outbox batch) that could not be
    /// delivered to any destination — a forward past its retry budget, or
    /// the naive-handoff mode.
    /// Every residue datagram is a seam data loss, charged in packets and
    /// wire bytes so retention accounting sees it.
    pub fn count_seam_loss(&mut self, packets: u64, bytes: u64) {
        self.sys.departed_data_drops += packets;
        self.sys.departed_data_bytes += bytes;
    }

    /// Captures a data event addressed to a departed client into its seam
    /// outbox. Downlink fan-out means the same datagram can arrive as
    /// several events (one `PacketAtAp` per fan-out AP, plus the original
    /// `PacketAtController` leg); the `(flow, ip_ident)` pair identifies
    /// the datagram uniquely within a client, so later copies collapse
    /// into the first rather than multiplying across the seam.
    fn capture_seam(&mut self, c: usize, payload: SeamPayload) {
        if matches!(payload, SeamPayload::Downlink(_)) {
            let p = payload.packet();
            let dup = self.outbox[c].iter().any(|q| {
                matches!(q, SeamPayload::Downlink(_))
                    && q.packet().flow == p.flow
                    && q.packet().ip_ident == p.ip_ident
            });
            if dup {
                return;
            }
        }
        self.outbox[c].push(payload);
    }

    /// Re-injects a migrant's imported seam datagrams at their pipeline
    /// stages. Called at the client's first association (when the
    /// controller gains a fan-out set for it) and again by
    /// [`Seam::MigrantFlush`] for deposits arriving at later barriers.
    /// Duplication safety does not depend on injection order: downlink
    /// copies collapse at the client sink's sequence filter, uplink copies
    /// at the controller's (transferred) dedup keys.
    pub(super) fn flush_seam(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        if self.pending_import[c].is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.pending_import[c]);
        for payload in entries {
            match payload {
                SeamPayload::Downlink(p) => self.on_packet_at_controller(ctx, p),
                SeamPayload::UplinkCopy(p) => {
                    // The forwarding AP's identity died with the source
                    // world; the dedup filter only keys on the packet.
                    self.on_uplink_copy(ctx, 0, p)
                }
                SeamPayload::ServerBound(p) => self.on_packet_at_server(ctx, p),
                SeamPayload::UplinkQueued(p, retries) => {
                    let cl = &mut self.clients[c];
                    cl.enqueue_uplink(p);
                    if let Some(e) = cl.uplink_queue.back_mut() {
                        e.retries = retries;
                    }
                }
            }
        }
        self.ensure_round(ctx);
    }

    /// Handles [`Seam::MigrantFlush`]: re-inject if the client associated
    /// before the deposit; otherwise the first-association hook will.
    fn on_migrant_flush(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        if self.clients[c].serving.is_some() {
            self.flush_seam(ctx, c);
        }
    }
}

/// Schedules the recurring events a freshly admitted migrant needs: its
/// keep-alive probe timer (which bootstraps CSI flow and thereby its first
/// association) and one tick per flow attached at admission. The lockstep
/// barrier calls this right after [`WgttWorld::admit_migrant`]; together
/// they are the migrant-side analogue of [`prime_events`].
pub fn prime_migrant_events(sim: &mut wgtt_sim::Simulator<WgttWorld>, client: usize) {
    let now = sim.now();
    sim.schedule_at(now, Ev::Probe(Probe::ProbeTick { client }));
    let flow_ticks: Vec<(SimTime, Data)> = sim
        .world()
        .flows
        .iter()
        .enumerate()
        // TCP flows do not migrate: one that rode along is left unpumped.
        .filter(|(_, f)| f.client == client && !matches!(f.kind, FlowKind::DownTcp(_)))
        .map(|(fidx, f)| f.first_tick(fidx, now))
        .collect();
    for (at, tick) in flow_ticks {
        sim.schedule_at(at.max(now), Ev::Data(tick));
    }
}
