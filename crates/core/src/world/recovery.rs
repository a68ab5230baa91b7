//! Faults and what repairs them: AP and controller crash edges, the
//! resync round every restart ends in, the journal-fed warm standby, and
//! the fenced zombie ex-primary.

use super::*;
use crate::recovery::{Hold, ReplyVerdict, ResyncRound, RESYNC_DEADLINE};
use crate::replica::ApplyOutcome;

/// Fault edges and the recovery protocols they set off.
#[derive(Clone)]
pub enum Recovery {
    /// Fault injection: an AP crashes (state wiped, radio dark).
    ApCrash(usize),
    /// Fault injection: a crashed AP comes back with blank state.
    ApReboot(usize),
    /// Fault injection: the controller process crashes (soft state wiped;
    /// nothing sent, everything inbound dropped, no timers fire).
    ControllerCrash,
    /// Fault injection: the controller restarts blank under a new term and
    /// broadcasts `Resync` to every reachable AP.
    ControllerRecover,
    /// A restarted controller's `Resync` arrives at an AP, stamped with its
    /// term (a zombie's stale term is fenced here) and the round it opened
    /// (0 from a zombie, which opens none), which the reply echoes.
    ResyncAtAp { ap: usize, term: u32, seq: u64 },
    /// An AP's resync reply arrives back at the controller.
    ResyncReplyAtController { reply: ResyncReply },
    /// Fallback: finalize resync session `seq` with whatever replies
    /// arrived (an AP may have died between broadcast and reply).
    ResyncDeadline { seq: u64 },
    /// Local-autonomy guard: an AP that applied a `stop` while the
    /// controller was down checks whether its client was left serverless
    /// (the `start` never landed anywhere) and re-adopts it.
    ReAdoptTimeout {
        ap: usize,
        client: usize,
        epoch: u32,
    },
    /// Primary ships one journal batch to the standby (armed runs only).
    JournalShip,
    /// A journal batch arrives at the standby replica.
    JournalAtStandby { batch: JournalBatch },
    /// Standby failure-detector tick: promote on journal silence.
    StandbyCheck,
    /// The crashed ex-primary process un-freezes and, unaware it was
    /// superseded, tries to resume its reign with stale state.
    ZombieWake,
    /// The zombie's resync round got no takers (every AP fenced it): it
    /// concludes it was superseded and stands down.
    ZombieDeadline,
}

impl Recovery {
    /// See [`Ev::client`]: exhaustive on purpose.
    pub(super) fn client(&self) -> Option<usize> {
        match self {
            Recovery::ReAdoptTimeout { client, .. } => Some(*client),
            Recovery::ApCrash(_)
            | Recovery::ApReboot(_)
            | Recovery::ControllerCrash
            | Recovery::ControllerRecover
            | Recovery::ResyncAtAp { .. }
            | Recovery::ResyncReplyAtController { .. }
            | Recovery::ResyncDeadline { .. }
            | Recovery::JournalShip
            | Recovery::JournalAtStandby { .. }
            | Recovery::StandbyCheck
            | Recovery::ZombieWake
            | Recovery::ZombieDeadline => None,
        }
    }
}

/// Local-autonomy guard: how long an AP that applied a `stop` while the
/// controller was down waits before re-adopting a client that no `start`
/// ever claimed. Far above the one-way backhaul latency plus AP processing,
/// so a merely slow (not lost) `start` always wins the race.
pub(super) const READOPT_GUARD: SimDuration = SimDuration::from_millis(100);

/// Cadence of primary→standby journal batches. The batch doubles as the
/// primary's heartbeat toward the standby.
const JOURNAL_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Standby failure-detector tick: how often it re-evaluates journal
/// silence.
const STANDBY_CHECK_INTERVAL: SimDuration = SimDuration::from_millis(5);

impl WgttWorld {
    pub(super) fn handle_recovery(&mut self, ev: Recovery, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Recovery::ApCrash(ap) => self.on_ap_crash(ctx, ap),
            Recovery::ApReboot(ap) => self.on_ap_reboot(ctx, ap),
            Recovery::ControllerCrash => self.on_controller_crash(ctx),
            Recovery::ControllerRecover => self.on_controller_recover(ctx),
            Recovery::ResyncAtAp { ap, term, seq } => self.on_resync_at_ap(ctx, ap, term, seq),
            Recovery::ResyncReplyAtController { reply } => {
                self.on_resync_reply_at_controller(ctx, reply)
            }
            Recovery::ResyncDeadline { seq } => self.on_resync_deadline(ctx, seq),
            Recovery::ReAdoptTimeout { ap, client, epoch } => {
                self.on_readopt_timeout(ctx, ap, client, epoch)
            }
            Recovery::JournalShip => self.on_journal_ship(ctx),
            Recovery::JournalAtStandby { batch } => self.on_journal_at_standby(ctx, batch),
            Recovery::StandbyCheck => self.on_standby_check(ctx),
            Recovery::ZombieWake => self.on_zombie_wake(ctx),
            Recovery::ZombieDeadline => self.sys.zombie_standdowns += 1,
        }
    }

    /// Local-autonomy re-adoption (degraded mode): fires `READOPT_GUARD`
    /// after an AP applied a `stop` with the controller down. If by then
    /// no AP anywhere serves the client — the `start` was lost and nobody
    /// can retransmit it — the stopped AP promotes itself back to serving.
    /// In the real system this is driven by the client side: a client
    /// hearing no serving AP probes its last one, which re-adopts it.
    fn on_readopt_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize, c: usize, epoch: u32) {
        if !self.controller_down || self.ap_down[ap] {
            // Once the controller is back, resync owns conflict repair; a
            // local re-adoption racing it could manufacture dual-serving.
            return;
        }
        let client = ClientId(c as u32);
        let orphaned = !self
            .aps
            .iter()
            .any(|a| a.client(client).is_some_and(|s| s.serving()));
        if !orphaned {
            return;
        }
        let st = self.aps[ap].client_mut(client);
        // Only the generation that demoted us may re-adopt: a newer epoch
        // at the guard means a later switch owns this client.
        if st.guard.latest() != epoch {
            return;
        }
        st.role = Role::Serving;
        self.sys.local_readoptions += 1;
        self.ensure_round(ctx);
    }

    // ---------- fault injection ----------

    fn on_ap_crash(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize) {
        if self.ap_down[ap] {
            return;
        }
        self.ap_down[ap] = true;
        self.sys.ap_crashes += 1;
        // Volatile AP state is gone: NIC queues, scoreboards, associations.
        self.aps[ap] = ApState::default();
        let now = ctx.now();
        for c in 0..self.clients.len() {
            if self.clients[c].serving == Some(ApId(ap as u32)) {
                self.pending_failover[c].get_or_insert(now);
            }
        }
    }

    fn on_ap_reboot(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize) {
        if !self.ap_down[ap] {
            return;
        }
        self.ap_down[ap] = false;
        self.sys.ap_reboots += 1;
        if self.cfg.mode == Mode::Wgtt {
            // The controller re-pushes the shared association state the
            // crash wiped (§4.3), so the AP is usable again immediately.
            let now = ctx.now();
            for c in 0..self.clients.len() {
                if self.clients[c].serving.is_some() || self.pending_reattach[c].is_some() {
                    self.aps[ap]
                        .client_mut(ClientId(c as u32))
                        .assoc
                        .install_shared_association(now);
                }
            }
        }
        self.ensure_round(ctx);
    }

    // ---------- controller crash / resync ----------

    fn on_controller_crash(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.controller_down {
            return;
        }
        self.controller_down = true;
        self.sys.controller_crashes += 1;
        // Freeze what the dying process held — its term and in-flight
        // switches are exactly what a zombie replays at wake — and start
        // the takeover-latency clock; an open resync round dies with it.
        self.recovery.on_crash(ctx.now(), &self.ctrl.engine);
        // The process is gone and every piece of soft state with it:
        // selectors, epoch table, dedup table, health tracker, serving
        // map. In-flight switch timers and re-attach retries die silently
        // (their events are eaten while `controller_down` is set).
        self.ctrl.crash_wipe();
        self.pending_reattach.fill(None);
    }

    fn on_controller_recover(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if !self.controller_down {
            return;
        }
        self.controller_down = false;
        self.sys.controller_recoveries += 1;
        if self.cfg.mode != Mode::Wgtt {
            return; // the baseline keeps no controller soft state to resync
        }
        self.start_resync(ctx, self.recovery.on_restart());
    }

    /// Sends one reliable management frame to every AP reachable right
    /// now, in AP order.
    fn broadcast(&mut self, ctx: &mut Ctx<'_, Ev>, frame: impl Fn(usize) -> Recovery) {
        for ap in 0..self.aps.len() {
            if self.ap_reachable(ap, ctx.now()) {
                self.send_control(ctx, false, Ev::Recovery(frame(ap)));
            }
        }
    }

    /// Starts reign `term` — a cold restart's or a promoted standby's, the
    /// one recovery path — with a resync round: `Resync` to every reachable
    /// AP over the management channel (reliable TCP, not the lossy datagram
    /// fast path), each raising that AP's fence as it answers, then state
    /// rebuilt from whatever answers arrive before the deadline.
    fn start_resync(&mut self, ctx: &mut Ctx<'_, Ev>, term: u32) {
        self.ctrl.engine.set_term(term);
        let now = ctx.now();
        let expected = (0..self.aps.len())
            .filter(|&ap| self.ap_reachable(ap, now))
            .count();
        let (seq, closed) = self.recovery.begin(now, expected);
        self.broadcast(ctx, |ap| Recovery::ResyncAtAp { ap, term, seq });
        match closed {
            Some(round) => self.finish_resync(ctx, round),
            None => {
                let deadline = Recovery::ResyncDeadline { seq };
                ctx.schedule_in(RESYNC_DEADLINE, Ev::Recovery(deadline));
            }
        }
    }

    fn on_resync_at_ap(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize, term: u32, seq: u64) {
        // Unlike the other two AP-bound frames, a resync tests
        // `controller_down` *before* admission: if the controller crashed
        // again while its broadcast was in flight, the frame must not even
        // raise the fence — nobody is left to hear the reply it would earn.
        // Then the fence, before anything observable: a zombie ex-primary's
        // resync must neither earn a reply nor flush held uplink. The reply
        // is cut at the instant the fence rises, so every frame of an older
        // reign either shows in it or is dropped here from now on.
        if self.controller_down || !self.ap_admits(ap, term, ctx.now()) {
            return;
        }
        let reply = self.aps[ap].resync_reply(ApId(ap as u32), seq);
        let reply = Recovery::ResyncReplyAtController { reply };
        self.send_control(ctx, false, Ev::Recovery(reply));
        // Anything that is a cross-restart duplicate will be caught by the
        // re-primed dedup table (copies are parked until resync finishes).
        self.flush_degraded_uplink(ctx, ap);
    }

    /// Degraded-mode uplink held at `ap` while no controller was listening
    /// flows again, toward whichever controller now reigns.
    fn flush_degraded_uplink(&mut self, ctx: &mut Ctx<'_, Ev>, ap: usize) {
        let held: Vec<Packet> = self.aps[ap].uplink_buffer.drain(..).collect();
        for packet in held {
            self.sys.degraded_uplink_flushed += 1;
            self.tunnel_uplink(ctx, ap, packet);
        }
    }

    fn on_resync_reply_at_controller(&mut self, ctx: &mut Ctx<'_, Ev>, reply: ResyncReply) {
        if !self.controller_admits() {
            return;
        }
        match self.recovery.on_reply(reply) {
            ReplyVerdict::Orphan => self.sys.orphaned_control_dropped += 1,
            ReplyVerdict::Wait => self.sys.resync_replies += 1,
            ReplyVerdict::Finish(round) => {
                self.sys.resync_replies += 1;
                self.finish_resync(ctx, round);
            }
        }
    }

    fn on_resync_deadline(&mut self, ctx: &mut Ctx<'_, Ev>, seq: u64) {
        if let Some(round) = self.recovery.on_deadline(seq) {
            self.finish_resync(ctx, round);
        }
    }

    /// Parks an uplink copy that reaches the controller mid-resync until
    /// the dedup table is re-primed from the replies. Outside a round the
    /// packet comes straight back.
    pub(super) fn hold_for_resync(&mut self, from_ap: usize, packet: Packet) -> Option<Packet> {
        match self.recovery.hold((from_ap, packet)) {
            Hold::Pass((_, packet)) => Some(packet),
            Hold::Parked => None,
            Hold::Displaced => {
                self.sys.resync_held_overflow += 1;
                None
            }
        }
    }

    /// Rebuilds controller state from the collected resync replies and
    /// repairs any inconsistency they reveal (dual-serving, orphaned
    /// mid-protocol clients), then releases uplink copies parked during
    /// the round.
    fn finish_resync(&mut self, ctx: &mut Ctx<'_, Ev>, round: ResyncRound<(usize, Packet)>) {
        let now = ctx.now();
        let actions = self.ctrl.apply_resync(now, &round.replies);
        for action in actions {
            match action {
                ResyncAction::Adopted { client, ap } => {
                    let c = client.0 as usize;
                    if self.clients[c].serving != Some(ap) {
                        self.set_serving(c, Some(ap), now);
                    }
                    self.resolve_failover(c, now);
                }
                ResyncAction::RepairSwitch {
                    client,
                    stop,
                    adopt,
                } => {
                    // Two APs both believe they serve the client; demote
                    // the stale one with a fresh epoch-stamped switch.
                    self.sys.resync_repairs += 1;
                    self.issue_switch(ctx, client.0 as usize, stop.0 as usize, adopt.0 as usize);
                }
                ResyncAction::RepairAdopt {
                    client,
                    adopt,
                    head,
                } => {
                    // Nobody serves a client the protocol had touched: a
                    // crash-orphaned half-open switch. Send a direct
                    // fresh-epoch `start` (no `stop` leg — nobody is
                    // serving) at the queue head the chosen AP itself
                    // reported, with the usual re-attach retry timer.
                    self.sys.resync_repairs += 1;
                    self.begin_direct_start(ctx, client.0 as usize, adopt.0 as usize, head);
                }
            }
        }
        self.sys
            .resyncs
            .push((now, now.saturating_since(round.started_at)));
        for (from_ap, packet) in round.held {
            self.on_uplink_copy(ctx, from_ap, packet);
        }
        self.ensure_round(ctx);
    }

    // ---------- warm standby: journal, takeover, zombie fencing ----------

    /// Remembers the dedup key of an uplink packet the controller just
    /// forwarded, for the next journal batch — so the standby's restored
    /// dedup table suppresses cross-takeover duplicates of it. Armed runs
    /// only.
    pub(super) fn journal_forwarded(&mut self, packet: &Packet) {
        if self.faults.has_failover() {
            let key = Deduplicator::key(packet.client, packet.ip_ident);
            self.recovery.note_forwarded(key);
        }
    }

    /// Primary side: snapshot controller soft state into a journal batch
    /// and ship it to the standby. The batch doubles as the heartbeat, so
    /// the tick keeps rescheduling while the primary is down — silence,
    /// not absence of the timer, is what the standby detects.
    fn on_journal_ship(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        if self.ticking(now) {
            ctx.schedule_in(JOURNAL_INTERVAL, Ev::Recovery(Recovery::JournalShip));
        }
        if self.controller_down {
            return; // a dead primary ships nothing: this is the heartbeat gap
        }
        let term = self.ctrl.engine.term();
        let Some(batch) = self.recovery.ship(term, || self.ctrl.journal_snapshot()) else {
            return; // the standby *is* the controller now; nobody tails it
        };
        self.sys.journal_batches_shipped += 1;
        let bytes = batch.wire_bytes();
        // The journal rides its own replication channel: serialized by the
        // backhaul's bandwidth model but exempt from the datagram-path
        // impairments (it is TCP-like; the replica's seq numbers absorb
        // what reordering remains). Scheduled lag windows model a
        // congested or throttled replication link.
        let lag = self.faults.journal_lag_at(now);
        if let Some(d) = self.backhaul.transit(bytes) {
            let arrival = Recovery::JournalAtStandby { batch };
            ctx.schedule_in(d + lag, Ev::Recovery(arrival));
        }
    }

    /// Standby side: absorb one journal batch into the replica.
    fn on_journal_at_standby(&mut self, ctx: &mut Ctx<'_, Ev>, batch: JournalBatch) {
        let outcome = self.recovery.on_journal(ctx.now(), &batch);
        if outcome != ApplyOutcome::Stale {
            self.sys.journal_batches_applied += 1;
            if outcome == ApplyOutcome::AppliedAfterGap {
                self.sys.journal_gaps += 1;
            }
        }
    }

    /// Standby failure detector. `controller_down` is the sim's stand-in
    /// for a lease protocol that prevents spurious promotion.
    fn on_standby_check(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        if self.ticking(now) {
            ctx.schedule_in(STANDBY_CHECK_INTERVAL, Ev::Recovery(Recovery::StandbyCheck));
        }
        let Some(promote) = self.recovery.on_check(now, self.controller_down) else {
            return;
        };
        // Takeover: the standby is the controller from here on. What the
        // journal held (nothing, if never fed) seeds it; the new term's
        // round, as after a cold restart, corrects whatever the journal
        // missed — it can trail the crash by a batch.
        let replica = &promote.replica;
        self.sys.standby_takeovers += 1;
        self.sys
            .takeovers
            .push((now, now.saturating_since(promote.down_since)));
        self.controller_down = false;
        self.ctrl
            .restore_from_journal(replica.clients(), replica.keys());
        self.start_resync(ctx, promote.term);
    }

    /// The ex-primary process un-freezes, unaware a standby superseded
    /// it, and resumes its reign from where it stopped: re-driving its
    /// in-flight `stop`s and broadcasting a resync — all stamped with its
    /// stale term, so every fenced AP drops them on arrival. This is the
    /// split-brain scenario; the term guards are what make it structurally
    /// harmless.
    fn on_zombie_wake(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let (term, pending) = self.recovery.on_wake();
        for (client, p) in pending {
            let (from, to) = (p.from.0 as usize, p.to.0 as usize);
            self.send_stop(ctx, from, client.0 as usize, to, p.epoch, term);
        }
        self.broadcast(ctx, |ap| Recovery::ResyncAtAp { ap, term, seq: 0 });
        // No fence ever answers: the zombie hears nothing by its resync
        // deadline (`ZombieDeadline`: every AP fenced it), concludes it was
        // superseded, and stands down for good.
        ctx.schedule_in(RESYNC_DEADLINE, Ev::Recovery(Recovery::ZombieDeadline));
    }
}
