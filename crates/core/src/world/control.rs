//! The control plane: the selection tick, the `stop`/`start`/`ack` legs
//! of a switch, and the health layer's emergency re-attach. Also the two
//! admission points every control frame passes — `ap_admits` at an AP,
//! `controller_admits` at the controller — and `send_control`, the one
//! sender.

use super::recovery::READOPT_GUARD;
use super::*;
use crate::switching::{StartVerdict, StopVerdict, SwitchEngine, SwitchTimings};

/// The controller evaluates AP selection at this cadence.
const SELECTION_TICK: SimDuration = SimDuration::from_millis(1);
/// Extra delay a control packet waits at a busy AP when
/// `control_priority` is off.
const NO_PRIORITY_PENALTY: SimDuration = SimDuration::from_millis(15);

/// What every leg of a switch carries: the AP handling it, the client,
/// the switch generation, and the controller reign that issued it.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    /// The AP this leg is addressed to (for an `ack`: the AP it is from).
    pub ap: usize,
    /// The client being switched.
    pub client: usize,
    /// Per-client switch generation.
    pub epoch: u32,
    /// Controller term the generation was issued under.
    pub term: u32,
}

/// Control-plane events.
#[derive(Clone)]
pub enum Ctl {
    /// `stop(c)` control packet arrives at the old AP.
    StopAtAp { leg: Leg, to_ap: usize },
    /// Old AP finished processing the stop (kernel query done).
    StopDone { leg: Leg, to_ap: usize },
    /// `start(c, k)` arrives at the new AP.
    StartAtAp { leg: Leg, k: u16 },
    /// New AP finished processing the start.
    StartDone { leg: Leg, k: u16 },
    /// `ack` arrives back at the controller.
    AckAtController(Leg),
    /// CSI report arrives at the controller.
    CsiAtController {
        ap: usize,
        client: usize,
        esnr_db: f64,
    },
    /// Switch-protocol retransmission timer.
    SwitchTimeout { client: usize },
    /// Controller evaluates AP selection.
    SelectionTick,
    /// Retry timer for an emergency re-attach after a serving-AP death.
    ReattachTimeout { client: usize },
}

impl Ctl {
    /// See [`Ev::client`]: exhaustive on purpose.
    pub(super) fn client(&self) -> Option<usize> {
        match self {
            Ctl::StopAtAp { leg, .. }
            | Ctl::StopDone { leg, .. }
            | Ctl::StartAtAp { leg, .. }
            | Ctl::StartDone { leg, .. }
            | Ctl::AckAtController(leg) => Some(leg.client),
            Ctl::CsiAtController { client, .. }
            | Ctl::SwitchTimeout { client }
            | Ctl::ReattachTimeout { client } => Some(*client),
            Ctl::SelectionTick => None,
        }
    }
}

impl WgttWorld {
    pub(super) fn handle_ctl(&mut self, ev: Ctl, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ctl::StopAtAp { leg, to_ap } => self.on_stop_at_ap(ctx, leg, to_ap),
            Ctl::StopDone { leg, to_ap } => self.on_stop_done(ctx, leg, to_ap),
            Ctl::StartAtAp { leg, k } => self.on_start_at_ap(ctx, leg, k),
            Ctl::StartDone { leg, k } => self.on_start_done(ctx, leg, k),
            Ctl::AckAtController(leg) => self.on_ack_at_controller(ctx, leg),
            Ctl::CsiAtController {
                ap,
                client,
                esnr_db,
            } => self.on_csi_at_controller(ap, client, esnr_db, ctx.now()),
            Ctl::SwitchTimeout { client } => self.on_switch_timeout(ctx, client),
            Ctl::SelectionTick => self.on_selection_tick(ctx),
            Ctl::ReattachTimeout { client } => self.on_reattach_timeout(ctx, client),
        }
    }

    // ---------- admission and sending ----------

    /// The one door a controller→AP control frame comes through:
    /// reachability first (a frame that never arrives is neither counted
    /// nor allowed to raise the fence), then the term fence — a frame from
    /// a superseded controller reign is dropped, and counted, before it can
    /// touch any state.
    pub(super) fn ap_admits(&mut self, ap: usize, term: u32, now: SimTime) -> bool {
        if !self.ap_reachable(ap, now) {
            return false;
        }
        let stale = self.aps[ap].term_guard.on_frame(term) == TermVerdict::Stale;
        if stale {
            self.sys.stale_term_dropped += 1;
        }
        !stale
    }

    /// The one door a frame addressed to the controller comes through: a
    /// crashed controller hears nothing, and everything it misses is
    /// counted.
    pub(super) fn controller_admits(&mut self) -> bool {
        if self.controller_down {
            self.sys.controller_rx_dropped += 1;
        }
        !self.controller_down
    }

    /// Sends one control frame over the backhaul — the only place
    /// `control_packets` is counted and a control frame's wire size chosen.
    /// `lossy` is the datagram fast path (`stop`/`start`/`ack`); the
    /// management channel (resync rounds) is reliable.
    pub(super) fn send_control(&mut self, ctx: &mut Ctx<'_, Ev>, lossy: bool, ev: Ev) {
        let bytes = match &ev {
            // A resync reply scales with what it carries: per-client
            // protocol state plus the recent-uplink-key ring.
            Ev::Recovery(Recovery::ResyncReplyAtController { reply }) => {
                CONTROL_PACKET_BYTES + reply.clients.len() * 16 + reply.recent_uplink_keys.len() * 8
            }
            _ => CONTROL_PACKET_BYTES,
        };
        self.sys.control_packets += 1;
        self.backhaul_send(ctx, bytes, lossy, ev);
    }

    /// A fast-path control frame originated by AP `from` (the AP→AP
    /// `start`, the `ack`): nothing leaves a partitioned AP.
    fn ap_send_control(&mut self, ctx: &mut Ctx<'_, Ev>, from: usize, ev: Ev) {
        if !self.faults.partitioned(from, ctx.now()) {
            self.send_control(ctx, true, ev);
        }
    }

    /// Control packets are prioritized past data queues; without priority
    /// they wait behind the backlog.
    fn ap_processing(&self, sampled: SimDuration) -> SimDuration {
        if self.cfg.control_priority {
            sampled
        } else {
            sampled + NO_PRIORITY_PENALTY
        }
    }

    /// Whether the controller-side periodic ticks (selection, journal,
    /// standby detector) re-arm: until half a second past the end of
    /// traffic.
    pub(super) fn ticking(&self, now: SimTime) -> bool {
        now < self.traffic_until + SimDuration::from_millis(500)
    }

    // ---------- who serves whom ----------

    /// Serving AP according to the control plane.
    pub(super) fn serving_of(&self, c: usize) -> Option<usize> {
        self.clients[c].serving.map(|a| a.0 as usize)
    }

    /// Records which AP (if any) serves client `c` from now on: on the
    /// client, and in its association timeline.
    pub(super) fn set_serving(&mut self, c: usize, ap: Option<ApId>, now: SimTime) {
        self.clients[c].serving = ap;
        self.clients[c].metrics.record_assoc(now, ap);
    }

    /// Client `c` is served again, by `ap`: the association is recorded and
    /// a failover blackout, if one was running, ends here.
    fn served_by(&mut self, c: usize, ap: ApId, now: SimTime) {
        self.set_serving(c, Some(ap), now);
        self.resolve_failover(c, now);
    }

    /// Closes the failover-latency book for a client that just re-attached.
    pub(super) fn resolve_failover(&mut self, c: usize, now: SimTime) {
        if let Some(crash_at) = self.pending_failover[c].take() {
            let latency = now.saturating_since(crash_at);
            self.clients[c].metrics.failovers.push((now, latency));
        }
    }

    // ---------- switching protocol ----------

    pub(super) fn issue_switch(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, from: usize, to: usize) {
        let client = ClientId(c as u32);
        let now = ctx.now();
        if self.ctrl.health.is_blacklisted(ApId(to as u32), now) {
            // Defense in depth: selection already excludes blacklisted
            // targets, so reaching here means a wedge loop was about to
            // re-issue a switch to a dead AP.
            self.sys.re_wedged_switches += 1;
            return;
        }
        let Some(SwitchMsg::Stop { epoch, term, .. }) =
            self.ctrl
                .engine
                .issue(now, client, ApId(from as u32), ApId(to as u32))
        else {
            return;
        };
        self.ctrl.selector_mut(client).record_switch(now);
        self.send_stop(ctx, from, c, to, epoch, term);
        let timeout = self.ctrl.engine.timeout();
        ctx.schedule_in(timeout, Ev::Ctl(Ctl::SwitchTimeout { client: c }));
    }

    /// Puts one `stop(c)` for `from`, naming successor `to`, on the lossy
    /// fast path — first transmissions, retransmissions and the zombie's
    /// stale replays alike.
    pub(super) fn send_stop(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        from: usize,
        c: usize,
        to: usize,
        epoch: u32,
        term: u32,
    ) {
        let leg = Leg {
            ap: from,
            client: c,
            epoch,
            term,
        };
        self.send_control(ctx, true, Ev::Ctl(Ctl::StopAtAp { leg, to_ap: to }));
    }

    fn on_stop_at_ap(&mut self, ctx: &mut Ctx<'_, Ev>, leg: Leg, to_ap: usize) {
        if !self.ap_admits(leg.ap, leg.term, ctx.now()) {
            return; // lost or fenced; the controller's switch timeout drives retries
        }
        let delay = SwitchTimings::TABLE1.sample_stop(&mut self.rng);
        let done = Ctl::StopDone { leg, to_ap };
        ctx.schedule_in(self.ap_processing(delay), Ev::Ctl(done));
    }

    fn on_stop_done(&mut self, ctx: &mut Ctx<'_, Ev>, leg: Leg, to_ap: usize) {
        let Leg { ap, client: c, .. } = leg;
        if self.ap_down[ap] {
            // Crashed while processing the stop: the frame's target state
            // died under it. Counted — a burst here during a fault window
            // is the observable trace of orphaned control traffic.
            self.sys.orphaned_control_dropped += 1;
            return;
        }
        let flush = self.cfg.flush_on_switch;
        let st = self.aps[ap].client_mut(ClientId(c as u32));
        // The epoch guard is consulted at the apply point: a `stop` from a
        // superseded switch generation (delayed, duplicated, or reordered
        // on the backhaul) must not demote the AP again.
        if let StopVerdict::Stale = st.guard.on_stop(leg.epoch) {
            self.sys.stale_control_dropped += 1;
            return;
        }
        // The scoreboard stays intact: the NIC-queue drain (≈6 ms of
        // frames, sent over the old link per §3.1.2) still needs Block ACK
        // tracking and link-layer retries.
        st.role = Role::Draining { cyclic: !flush };
        let k = if flush {
            st.first_unsent_index()
        } else {
            // Ablation: no queue handoff — the new AP starts from the
            // stream head (newest); the old AP drains its whole backlog.
            st.cyclic.tail()
        };
        let start = Ctl::StartAtAp {
            leg: Leg { ap: to_ap, ..leg },
            k,
        };
        self.ap_send_control(ctx, ap, Ev::Ctl(start));
        if self.controller_down {
            // No controller means no `stop` retransmissions and no switch
            // timeout: if the AP→AP `start` above is lost on the wire the
            // client is orphaned with nobody to notice. Arm the local
            // re-adoption guard so this AP takes the client back itself.
            let epoch = leg.epoch;
            let readopt = Recovery::ReAdoptTimeout {
                ap,
                client: c,
                epoch,
            };
            ctx.schedule_in(READOPT_GUARD, Ev::Recovery(readopt));
        }
        self.ensure_round(ctx);
    }

    fn on_start_at_ap(&mut self, ctx: &mut Ctx<'_, Ev>, leg: Leg, k: u16) {
        if !self.ap_admits(leg.ap, leg.term, ctx.now()) {
            return;
        }
        let delay = SwitchTimings::TABLE1.sample_start(&mut self.rng);
        let done = Ctl::StartDone { leg, k };
        ctx.schedule_in(self.ap_processing(delay), Ev::Ctl(done));
    }

    fn on_start_done(&mut self, ctx: &mut Ctx<'_, Ev>, leg: Leg, k: u16) {
        let Leg { ap, client: c, .. } = leg;
        if self.ap_down[ap] {
            // Crashed while processing the start — see `on_stop_done`.
            self.sys.orphaned_control_dropped += 1;
            return;
        }
        let st = self.aps[ap].client_mut(ClientId(c as u32));
        match st.guard.on_start(leg.epoch) {
            StartVerdict::Stale => {
                // A superseded generation's `start` must not resurrect the
                // serving role or rewind the cyclic queue head.
                self.sys.stale_control_dropped += 1;
                return;
            }
            StartVerdict::DupReAck => {
                // Same generation already applied (retransmitted or
                // duplicated `start`): re-send the ack so the controller
                // can close, but touch no queue or scoreboard state.
                self.sys.dup_control_dropped += 1;
                self.ap_send_control(ctx, ap, Ev::Ctl(Ctl::AckAtController(leg)));
                return;
            }
            StartVerdict::Apply => {}
        }
        let before = st.cyclic.backlog();
        st.cyclic.start_from(k);
        self.sys.flushed_packets += (before - st.cyclic.backlog()) as u64;
        st.role = Role::Serving;
        // Fresh serving epoch: anything left over from a previous stint is
        // stale (the old AP covered it or the controller re-sent it).
        st.nic_queue.clear();
        st.scoreboard.flush();
        st.assoc.install_shared_association(ctx.now());
        self.ap_send_control(ctx, ap, Ev::Ctl(Ctl::AckAtController(leg)));
        self.ensure_round(ctx);
    }

    /// The ack's echoed term is intentionally unchecked: the controller
    /// is the term authority, and the per-client epoch already pins the
    /// ack to the exact switch generation (terms order *reigns*, epochs
    /// order generations within them).
    fn on_ack_at_controller(&mut self, ctx: &mut Ctx<'_, Ev>, ack: Leg) {
        if !self.controller_admits() {
            return;
        }
        let c = ack.client;
        let client = ClientId(c as u32);
        let from = ApId(ack.ap as u32);
        let now = ctx.now();
        match self.ctrl.on_switch_ack(now, client, from, ack.epoch) {
            AckOutcome::Completed(rec) => {
                // Consistency tripwire: the completed generation's `start`
                // must actually be applied at the named AP (unless the AP
                // crashed in the ack's flight window and lost soft state).
                let ap_idx = rec.to.0 as usize;
                if !self.ap_down[ap_idx]
                    && self.aps[ap_idx]
                        .client(client)
                        .is_some_and(|s| s.guard.start_applied() != rec.epoch)
                {
                    self.sys.mis_switches += 1;
                }
                self.served_by(c, rec.to, now);
            }
            AckOutcome::StaleEpoch | AckOutcome::WrongSource => {
                // An ack that names the wrong generation or the wrong AP
                // would, pre-epoch, have completed the pending switch
                // against the wrong target.
                self.sys.stale_control_dropped += 1;
            }
            AckOutcome::NoPending => match self.pending_reattach[c] {
                Some((target, _, epoch)) if target == ack.ap && epoch == ack.epoch => {
                    // Emergency re-attach completed: the new AP acked the
                    // direct start(c, k).
                    self.pending_reattach[c] = None;
                    self.ctrl.serving.insert(client, from);
                    self.ctrl.health.on_ack_proof(from, epoch);
                    self.served_by(c, from, now);
                    self.ensure_round(ctx);
                }
                // A straggler ack while a re-attach to a different AP (or
                // generation) is pending: pre-epoch this would have
                // completed the re-attach against the wrong AP.
                Some(_) => self.sys.stale_control_dropped += 1,
                // Duplicate of an ack that already completed.
                None => self.sys.dup_control_dropped += 1,
            },
        }
    }

    fn on_switch_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        if self.controller_down {
            return; // the crashed controller's timers die with it
        }
        let client = ClientId(c as u32);
        if let Some(SwitchMsg::Stop {
            to_ap, epoch, term, ..
        }) = self.ctrl.engine.on_timeout(ctx.now(), client)
        {
            let from = self.ctrl.engine.pending(client).map_or(0, |p| p.from.0);
            self.send_stop(ctx, from as usize, c, to_ap.0 as usize, epoch, term);
        } else if !self.ctrl.engine.in_flight(client) {
            self.drain_abandons(ctx);
            return;
        }
        // Single re-arm site, shared by the retransmit path and a timer
        // that fired early relative to a retransmission.
        let timeout = self.ctrl.engine.timeout();
        ctx.schedule_in(timeout, Ev::Ctl(Ctl::SwitchTimeout { client: c }));
    }

    /// Processes switch abandonments the engine recorded: counts them,
    /// feeds the health tracker (stale APs implicated in an abandon get
    /// blacklisted), and — when the abandoning client's serving AP is the
    /// stale one — performs an emergency re-attach instead of letting the
    /// selection loop re-issue a `stop` to the corpse.
    ///
    /// Health actions only engage under a non-empty fault schedule. The
    /// gate is behaviour, not a fork: with it (and `select_for`'s) removed,
    /// the fault-free `convoy_drive` golden moves — `emergency_reattaches`
    /// 0 → 1, `events` 135 982 → 136 400, `switch_history.n` 101 → 100 —
    /// because a healthy serving AP can stay CSI-silent past the staleness
    /// horizon in a convoy (ROADMAP open question).
    fn drain_abandons(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        let faulty = !self.faults.is_empty();
        while let Some(rec) = self.ctrl.engine.next_unprocessed_abandon() {
            self.sys.abandoned_switches += 1;
            if !faulty {
                continue;
            }
            for ap in [rec.from, rec.to] {
                if self.ctrl.health.csi_stale(ap, now) {
                    self.ctrl.health.on_abandon(ap, now, rec.epoch);
                }
            }
            let c = rec.client.0 as usize;
            if self.clients[c].serving == Some(rec.from)
                && self.ctrl.health.csi_stale(rec.from, now)
                && self.pending_reattach[c].is_none()
            {
                self.reattach_away_from(ctx, c, rec.from);
            }
        }
    }

    /// The serving AP `dead` has gone CSI-silent: re-attach the client to
    /// the best live, non-blacklisted AP, if the selector knows one.
    fn reattach_away_from(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, dead: ApId) {
        let now = ctx.now();
        let excluded = self.ctrl.health.blacklisted(now);
        let target = self
            .ctrl
            .selector_mut(ClientId(c as u32))
            .best_excluding(now, &excluded)
            .map(|(ap, _)| ap)
            .filter(|&ap| ap != dead && !self.ctrl.health.csi_stale(ap, now));
        if let Some(t) = target {
            self.emergency_reattach(ctx, c, t.0 as usize);
        }
    }

    /// Re-attaches a client whose serving AP is presumed dead: skips the
    /// `stop` leg (there is nobody to stop) and sends `start(c, k)`
    /// directly to the new AP, with its own retry timer.
    fn emergency_reattach(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, target: usize) {
        let now = ctx.now();
        let client = ClientId(c as u32);
        self.ctrl.engine.abort(client);
        if let Some(old) = self.serving_of(c).filter(|&o| !self.ap_down[o]) {
            // The old AP is merely presumed dead; make sure it stops
            // serving if it is in fact alive.
            self.aps[old].client_mut(client).role = Role::Idle;
        }
        self.ctrl.serving.remove(&client);
        self.set_serving(c, None, now);
        self.sys.emergency_reattaches += 1;
        let k = self.ctrl.peek_index(client);
        self.begin_direct_start(ctx, c, target, k);
    }

    /// Opens a re-attach generation: a direct `start(c, k)` to `target`
    /// with no `stop` leg, under its own fresh epoch — a straggler ack from
    /// an aborted switch (or an earlier generation) must not be able to
    /// complete it.
    pub(super) fn begin_direct_start(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        c: usize,
        target: usize,
        k: u16,
    ) {
        let client = ClientId(c as u32);
        self.ctrl.selector_mut(client).record_switch(ctx.now());
        let epoch = self.ctrl.engine.allocate_epoch(client);
        self.send_direct_start(ctx, c, k, (target, 0, epoch));
    }

    /// Sends attempt `attempt.1` of the direct `start` of re-attach
    /// `(target, retries, epoch)` and arms its retry timer.
    fn send_direct_start(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        c: usize,
        k: u16,
        attempt: (usize, u32, u32),
    ) {
        self.pending_reattach[c] = Some(attempt);
        let leg = Leg {
            ap: attempt.0,
            client: c,
            epoch: attempt.2,
            term: self.ctrl.engine.term(),
        };
        self.send_control(ctx, true, Ev::Ctl(Ctl::StartAtAp { leg, k }));
        let timeout = self.ctrl.engine.timeout();
        ctx.schedule_in(timeout, Ev::Ctl(Ctl::ReattachTimeout { client: c }));
    }

    fn on_reattach_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        if self.controller_down {
            return; // the crashed controller's timers die with it
        }
        let Some((target, retries, epoch)) = self.pending_reattach[c] else {
            return; // answered (or superseded) already
        };
        if retries >= SwitchEngine::MAX_RETRIES
            || self.ctrl.health.csi_stale(ApId(target as u32), ctx.now())
        {
            // Give up on this target; the selection loop's first-association
            // path re-attaches once fresh CSI identifies a live AP.
            self.pending_reattach[c] = None;
            return;
        }
        // Retransmissions keep the original epoch: they are the same
        // re-attach generation, and the target AP's guard turns an
        // already-applied duplicate into a bare re-ack.
        let k = self.ctrl.peek_index(ClientId(c as u32));
        self.send_direct_start(ctx, c, k, (target, retries + 1, epoch));
    }

    // ---------- selection ----------

    fn on_selection_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        // A dead controller makes no decisions. The tick stays alive (it
        // draws no RNG) so selection resumes right after recovery.
        if !self.controller_down && self.cfg.mode == Mode::Wgtt {
            for c in 0..self.clients.len() {
                if !self.departed[c] {
                    self.select_for(ctx, c);
                }
            }
        }
        if self.ticking(ctx.now()) {
            ctx.schedule_in(SELECTION_TICK, Ev::Ctl(Ctl::SelectionTick));
        }
    }

    /// One client's turn of the selection tick.
    fn select_for(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        let now = ctx.now();
        let client = ClientId(c as u32);
        // A restarted reign decides nothing until its resync round closes.
        let busy = self.ctrl.engine.in_flight(client) || self.pending_reattach[c].is_some();
        if busy || self.recovery.round_open() {
            return;
        }
        let current = self.ctrl.serving(client);
        // Health layer, fault runs only: a serving AP gone CSI-silent past
        // the staleness horizon is presumed dead — re-attach directly
        // instead of addressing a stop to it. In a fault-free convoy a
        // healthy AP can go that silent too; see `drain_abandons` for what
        // dropping the gate moves.
        let faulty = !self.faults.is_empty();
        if let Some(cur) = current.filter(|&cur| faulty && self.ctrl.health.csi_stale(cur, now)) {
            return self.reattach_away_from(ctx, c, cur);
        }
        let excluded = if faulty {
            self.ctrl.health.blacklisted(now)
        } else {
            Vec::new()
        };
        let decision = self
            .ctrl
            .selector_mut(client)
            .decide_excluding(now, current, &excluded);
        let Some(target) = decision else { return };
        let Some(cur) = current else {
            // First association: WGTT shares state so the client is usable
            // at every AP instantly (§4.3).
            for ap in 0..self.aps.len() {
                if self.ap_down[ap] {
                    continue; // re-installed on reboot
                }
                self.aps[ap]
                    .client_mut(client)
                    .assoc
                    .install_shared_association(now);
            }
            self.aps[target.0 as usize].client_mut(client).role = Role::Serving;
            self.ctrl.serving.insert(client, target);
            self.ctrl.selector_mut(client).record_switch(now);
            self.served_by(c, target, now);
            // A migrant's imported seam residue waited for this moment: the
            // controller now has a fan-out set, so re-injection can't
            // silently drop.
            self.flush_seam(ctx, c);
            return self.ensure_round(ctx);
        };
        self.issue_switch(ctx, c, cur.0 as usize, target.0 as usize);
    }

    fn on_csi_at_controller(&mut self, ap: usize, c: usize, esnr_db: f64, now: SimTime) {
        if self.controller_admits() {
            self.ctrl
                .on_csi(now, ApId(ap as u32), ClientId(c as u32), esnr_db);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::one_vehicle;
    use wgtt_sim::Simulator;

    const AP: usize = 1;
    const T: SimTime = SimTime::from_millis(1);

    /// One vehicle, nothing primed: the only events are the ones a test
    /// schedules and what their handlers schedule in turn.
    fn bare(faults: FaultSchedule) -> Simulator<WgttWorld> {
        let mut s = one_vehicle();
        s.faults = faults;
        Simulator::new(s.build().into_world())
    }

    /// Handles `ev` at `T`, and says whether that left nothing scheduled.
    fn dies_at_the_door(sim: &mut Simulator<WgttWorld>, ev: Ev) -> bool {
        sim.schedule_at(T, ev);
        assert!(sim.step());
        !sim.step()
    }

    /// The three controller→AP control frames, addressed to `AP` under `term`.
    fn ap_bound(term: u32) -> [(&'static str, Ev); 3] {
        let leg = Leg {
            ap: AP,
            client: 0,
            epoch: 1,
            term,
        };
        [
            ("Stop", Ev::Ctl(Ctl::StopAtAp { leg, to_ap: 2 })),
            ("Start", Ev::Ctl(Ctl::StartAtAp { leg, k: 0 })),
            (
                "Resync",
                Ev::Recovery(Recovery::ResyncAtAp {
                    ap: AP,
                    term,
                    seq: 1,
                }),
            ),
        ]
    }

    #[test]
    fn an_unreachable_ap_counts_nothing_and_keeps_its_fence() {
        for (name, frame) in ap_bound(5) {
            let faults =
                FaultSchedule::new().with_partition(AP, SimTime::ZERO, SimTime::from_secs(1));
            let mut sim = bare(faults);
            assert!(
                dies_at_the_door(&mut sim, frame),
                "{name} scheduled something"
            );
            let w = sim.world();
            assert_eq!(w.aps[AP].term_guard.latest(), 0, "{name} raised the fence");
            assert_eq!(w.sys.stale_term_dropped, 0, "{name}");
            assert_eq!(w.sys.control_packets, 0, "{name}");
        }
    }

    #[test]
    fn a_stale_term_is_counted_once_and_goes_no_further() {
        for (name, frame) in ap_bound(3) {
            let mut sim = bare(FaultSchedule::new());
            sim.world_mut().aps[AP].term_guard.on_frame(7);
            assert!(
                dies_at_the_door(&mut sim, frame),
                "{name} scheduled something"
            );
            let w = sim.world();
            assert_eq!(w.sys.stale_term_dropped, 1, "{name}");
            assert_eq!(w.aps[AP].term_guard.latest(), 7, "{name}");
            assert_eq!(w.sys.control_packets, 0, "{name}");
        }
    }

    #[test]
    fn a_higher_term_raises_the_fence_for_the_next_frame() {
        for ((name, frame), (_, older)) in ap_bound(9).into_iter().zip(ap_bound(8)) {
            let mut sim = bare(FaultSchedule::new());
            sim.world_mut().aps[AP].term_guard.on_frame(7);
            // The second frame is the same kind, one reign older; both are
            // due at `T`, ahead of anything the first one schedules.
            sim.schedule_at(T, frame);
            sim.schedule_at(T, older);
            assert!(sim.step());
            assert_eq!(sim.world().aps[AP].term_guard.latest(), 9, "{name}");
            assert_eq!(sim.world().sys.stale_term_dropped, 0, "{name}");
            assert!(sim.step());
            assert_eq!(sim.world().sys.stale_term_dropped, 1, "{name}");
            assert_eq!(sim.world().aps[AP].term_guard.latest(), 9, "{name}");
        }
    }

    #[test]
    fn resync_reaching_an_ap_after_a_second_crash_leaves_the_fence_alone() {
        let mut sim = bare(FaultSchedule::new());
        sim.world_mut().controller_down = true;
        let [_, _, (_, resync)] = ap_bound(9);
        assert!(dies_at_the_door(&mut sim, resync));
        assert_eq!(sim.world().aps[AP].term_guard.latest(), 0);
        assert_eq!(sim.world().sys.control_packets, 0);
    }

    /// The five frames addressed to the controller.
    fn controller_bound(w: &mut WgttWorld) -> [(&'static str, Ev); 5] {
        let leg = Leg {
            ap: AP,
            client: 0,
            epoch: 1,
            term: 1,
        };
        let mut packet = |dir| {
            let payload = Payload::Udp { seq: 0 };
            w.factory.make(ClientId(0), FlowId(0), dir, 200, T, payload)
        };
        let down = Data::PacketAtController(packet(Direction::Downlink));
        let up = Data::UplinkCopyAtController {
            from_ap: AP,
            packet: packet(Direction::Uplink),
        };
        let csi = Ctl::CsiAtController {
            ap: AP,
            client: 0,
            esnr_db: 20.0,
        };
        let reply = w.aps[AP].resync_reply(ApId(AP as u32), 1);
        [
            ("PacketAtController", Ev::Data(down)),
            ("UplinkCopyAtController", Ev::Data(up)),
            ("AckAtController", Ev::Ctl(Ctl::AckAtController(leg))),
            ("CsiAtController", Ev::Ctl(csi)),
            (
                "ResyncReplyAtController",
                Ev::Recovery(Recovery::ResyncReplyAtController { reply }),
            ),
        ]
    }

    #[test]
    fn a_down_controller_counts_each_frame_it_misses_exactly_once() {
        for (name, frame) in controller_bound(bare(FaultSchedule::new()).world_mut()) {
            let mut sim = bare(FaultSchedule::new());
            sim.world_mut().controller_down = true;
            assert!(
                dies_at_the_door(&mut sim, frame),
                "{name} scheduled something"
            );
            assert_eq!(sim.world().sys.controller_rx_dropped, 1, "{name}");
        }
    }
}
