//! The control plane: the selection tick, the `stop`/`start`/`ack` legs
//! of a switch, and the health layer's emergency re-attach.

use super::*;

/// Control-plane events.
#[derive(Clone)]
pub enum Ctl {
    /// `stop(c)` control packet arrives at the old AP.
    StopAtAp {
        ap: usize,
        client: usize,
        to_ap: usize,
        epoch: u32,
        term: u32,
    },
    /// Old AP finished processing the stop (kernel query done).
    StopDone {
        ap: usize,
        client: usize,
        to_ap: usize,
        epoch: u32,
        term: u32,
    },
    /// `start(c, k)` arrives at the new AP.
    StartAtAp {
        ap: usize,
        client: usize,
        k: u16,
        epoch: u32,
        term: u32,
    },
    /// New AP finished processing the start.
    StartDone {
        ap: usize,
        client: usize,
        k: u16,
        epoch: u32,
        term: u32,
    },
    /// `ack` arrives back at the controller.
    AckAtController {
        client: usize,
        from_ap: usize,
        epoch: u32,
        term: u32,
    },
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
            Ctl::StopAtAp { client, .. }
            | Ctl::StopDone { client, .. }
            | Ctl::StartAtAp { client, .. }
            | Ctl::StartDone { client, .. }
            | Ctl::AckAtController { client, .. }
            | Ctl::CsiAtController { client, .. }
            | Ctl::SwitchTimeout { client }
            | Ctl::ReattachTimeout { client } => Some(*client),
            Ctl::SelectionTick => None,
        }
    }
}

impl WgttWorld {
    /// Serving AP according to the control plane.
    pub(super) fn serving_of(&self, c: usize) -> Option<usize> {
        self.clients[c].serving.map(|a| a.0 as usize)
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
        self.sys.control_packets += 1;
        self.backhaul_send(
            ctx,
            CONTROL_PACKET_BYTES,
            true,
            Ev::Ctl(Ctl::StopAtAp {
                ap: from,
                client: c,
                to_ap: to,
                epoch,
                term,
            }),
        );
        let timeout = self.ctrl.engine.timeout();
        ctx.schedule_in(timeout, Ev::Ctl(Ctl::SwitchTimeout { client: c }));
    }

    pub(super) fn on_stop_at_ap(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        c: usize,
        to_ap: usize,
        epoch: u32,
        term: u32,
    ) {
        if !self.ap_reachable(ap, ctx.now()) {
            return; // lost; the controller's switch timeout drives retries
        }
        // Term fence at frame arrival: a frame from a superseded
        // controller reign is dropped before it can touch any state.
        if let TermVerdict::Stale = self.aps[ap].term_guard.on_frame(term) {
            self.sys.stale_term_dropped += 1;
            return;
        }
        // Control packets are prioritized past data queues; without
        // priority they wait behind the backlog.
        let mut delay = self.cfg.switch_timings.sample_stop(&mut self.rng);
        if !self.cfg.control_priority {
            delay += self.cfg.no_priority_penalty;
        }
        ctx.schedule_in(
            delay,
            Ev::Ctl(Ctl::StopDone {
                ap,
                client: c,
                to_ap,
                epoch,
                term,
            }),
        );
    }

    pub(super) fn on_stop_done(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        c: usize,
        to_ap: usize,
        epoch: u32,
        term: u32,
    ) {
        if self.ap_down[ap] {
            // Crashed while processing the stop: the frame's target state
            // died under it. Counted — a burst here during a fault window
            // is the observable trace of orphaned control traffic.
            self.sys.orphaned_control_dropped += 1;
            return;
        }
        let gi = self.cfg.gi;
        let flush = self.cfg.flush_on_switch;
        let st = self.aps[ap].client_mut(ClientId(c as u32), gi);
        // The epoch guard is consulted at the apply point: a `stop` from a
        // superseded switch generation (delayed, duplicated, or reordered
        // on the backhaul) must not demote the AP again.
        if let crate::switching::StopVerdict::Stale = st.guard.on_stop(epoch) {
            self.sys.stale_control_dropped += 1;
            return;
        }
        let was_serving = st.serving;
        st.serving = false;
        st.draining = true;
        let k = if flush {
            st.first_unsent_index()
        } else {
            // Ablation: no queue handoff — the new AP starts from the
            // stream head (newest); the old AP drains its whole backlog.
            st.cyclic.tail()
        };
        st.drain_cyclic = !flush;
        // The scoreboard stays intact: the NIC-queue drain (≈6 ms of
        // frames, sent over the old link per §3.1.2) still needs Block ACK
        // tracking and link-layer retries.
        let _ = was_serving;
        if !self.faults.partitioned(ap, ctx.now()) {
            self.sys.control_packets += 1;
            self.backhaul_send(
                ctx,
                CONTROL_PACKET_BYTES,
                true,
                Ev::Ctl(Ctl::StartAtAp {
                    ap: to_ap,
                    client: c,
                    k,
                    epoch,
                    term,
                }),
            );
        }
        if self.controller_down {
            // No controller means no `stop` retransmissions and no switch
            // timeout: if the AP→AP `start` above is lost on the wire the
            // client is orphaned with nobody to notice. Arm the local
            // re-adoption guard so this AP takes the client back itself.
            ctx.schedule_in(
                READOPT_GUARD,
                Ev::Recovery(Recovery::ReAdoptTimeout {
                    ap,
                    client: c,
                    epoch,
                }),
            );
        }
        self.ensure_round(ctx);
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_start_at_ap(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        c: usize,
        k: u16,
        epoch: u32,
        term: u32,
    ) {
        if !self.ap_reachable(ap, ctx.now()) {
            return;
        }
        if let TermVerdict::Stale = self.aps[ap].term_guard.on_frame(term) {
            self.sys.stale_term_dropped += 1;
            return;
        }
        let mut delay = self.cfg.switch_timings.sample_start(&mut self.rng);
        if !self.cfg.control_priority {
            delay += self.cfg.no_priority_penalty;
        }
        ctx.schedule_in(
            delay,
            Ev::Ctl(Ctl::StartDone {
                ap,
                client: c,
                k,
                epoch,
                term,
            }),
        );
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_start_done(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        c: usize,
        k: u16,
        epoch: u32,
        term: u32,
    ) {
        if self.ap_down[ap] {
            // Crashed while processing the start — see `on_stop_done`.
            self.sys.orphaned_control_dropped += 1;
            return;
        }
        let gi = self.cfg.gi;
        let st = self.aps[ap].client_mut(ClientId(c as u32), gi);
        match st.guard.on_start(epoch) {
            crate::switching::StartVerdict::Stale => {
                // A superseded generation's `start` must not resurrect the
                // serving role or rewind the cyclic queue head.
                self.sys.stale_control_dropped += 1;
                return;
            }
            crate::switching::StartVerdict::DupReAck => {
                // Same generation already applied (retransmitted or
                // duplicated `start`): re-send the ack so the controller
                // can close, but touch no queue or scoreboard state.
                self.sys.dup_control_dropped += 1;
                if !self.faults.partitioned(ap, ctx.now()) {
                    self.sys.control_packets += 1;
                    self.backhaul_send(
                        ctx,
                        CONTROL_PACKET_BYTES,
                        true,
                        Ev::Ctl(Ctl::AckAtController {
                            client: c,
                            from_ap: ap,
                            epoch,
                            term,
                        }),
                    );
                }
                return;
            }
            crate::switching::StartVerdict::Apply => {}
        }
        let st = self.aps[ap].client_mut(ClientId(c as u32), gi);
        let before = st.cyclic.backlog();
        st.cyclic.start_from(k);
        let after = st.cyclic.backlog();
        self.sys.flushed_packets += (before - after) as u64;
        st.serving = true;
        st.draining = false;
        st.drain_cyclic = false;
        // Fresh serving epoch: anything left over from a previous stint is
        // stale (the old AP covered it or the controller re-sent it).
        st.nic_queue.clear();
        st.scoreboard.flush();
        st.assoc.install_shared_association(ctx.now());
        if !self.faults.partitioned(ap, ctx.now()) {
            self.sys.control_packets += 1;
            self.backhaul_send(
                ctx,
                CONTROL_PACKET_BYTES,
                true,
                Ev::Ctl(Ctl::AckAtController {
                    client: c,
                    from_ap: ap,
                    epoch,
                    term,
                }),
            );
        }
        self.ensure_round(ctx);
    }

    /// The ack's echoed term is intentionally unchecked: the controller
    /// is the term authority, and the per-client epoch already pins the
    /// ack to the exact switch generation (terms order *reigns*, epochs
    /// order generations within them).
    pub(super) fn on_ack_at_controller(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        c: usize,
        from_ap: usize,
        epoch: u32,
    ) {
        if self.controller_down {
            self.sys.controller_rx_dropped += 1;
            return;
        }
        let client = ClientId(c as u32);
        let now = ctx.now();
        match self
            .ctrl
            .on_switch_ack(now, client, ApId(from_ap as u32), epoch)
        {
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
                self.clients[c].serving = Some(rec.to);
                self.clients[c].metrics.record_assoc(now, Some(rec.to));
                self.resolve_failover(c, now);
            }
            AckOutcome::StaleEpoch | AckOutcome::WrongSource => {
                // An ack that names the wrong generation or the wrong AP
                // would, pre-epoch, have completed the pending switch
                // against the wrong target.
                self.sys.stale_control_dropped += 1;
            }
            AckOutcome::NoPending => {
                if let Some((target, _, r_epoch)) = self.pending_reattach[c] {
                    if target == from_ap && epoch == r_epoch {
                        // Emergency re-attach completed: the new AP acked
                        // the direct start(c, k).
                        self.pending_reattach[c] = None;
                        let ap = ApId(target as u32);
                        self.ctrl.serving.insert(client, ap);
                        self.ctrl.health.on_ack_proof(ap, epoch);
                        self.clients[c].serving = Some(ap);
                        self.clients[c].metrics.record_assoc(now, Some(ap));
                        self.resolve_failover(c, now);
                        self.ensure_round(ctx);
                    } else {
                        // A straggler ack while a re-attach to a different
                        // AP (or generation) is pending: pre-epoch this
                        // would have completed the re-attach against the
                        // wrong AP.
                        self.sys.stale_control_dropped += 1;
                    }
                } else {
                    // Duplicate of an ack that already completed.
                    self.sys.dup_control_dropped += 1;
                }
            }
        }
    }

    pub(super) fn on_switch_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        if self.controller_down {
            return; // the crashed controller's timers die with it
        }
        let client = ClientId(c as u32);
        if let Some(SwitchMsg::Stop {
            to_ap, epoch, term, ..
        }) = self.ctrl.engine.on_timeout(ctx.now(), client)
        {
            let from = self
                .ctrl
                .engine
                .pending(client)
                .map(|p| p.from.0 as usize)
                .unwrap_or(0);
            let to = to_ap.0 as usize;
            self.sys.control_packets += 1;
            self.backhaul_send(
                ctx,
                CONTROL_PACKET_BYTES,
                true,
                Ev::Ctl(Ctl::StopAtAp {
                    ap: from,
                    client: c,
                    to_ap: to,
                    epoch,
                    term,
                }),
            );
        } else if !self.ctrl.engine.in_flight(client) {
            self.drain_abandons(ctx);
            return;
        }
        // Single re-arm site, shared by the retransmit path and a timer
        // that fired early relative to a retransmission.
        ctx.schedule_in(
            self.ctrl.engine.timeout(),
            Ev::Ctl(Ctl::SwitchTimeout { client: c }),
        );
    }

    /// Processes switch abandonments the engine recorded: counts them,
    /// feeds the health tracker (stale APs implicated in an abandon get
    /// blacklisted), and — when the abandoning client's serving AP is the
    /// stale one — performs an emergency re-attach instead of letting the
    /// selection loop re-issue a `stop` to the corpse.
    ///
    /// Health actions only engage under a non-empty fault schedule so
    /// fault-free runs remain bit-identical to the pre-fault engine.
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
                let excluded = self.ctrl.health.blacklisted(now);
                let target = self
                    .ctrl
                    .selector_mut(rec.client)
                    .best_excluding(now, &excluded)
                    .map(|(ap, _)| ap)
                    .filter(|&ap| ap != rec.from && !self.ctrl.health.csi_stale(ap, now));
                if let Some(t) = target {
                    self.emergency_reattach(ctx, c, t.0 as usize);
                }
            }
        }
    }

    /// Re-attaches a client whose serving AP is presumed dead: skips the
    /// `stop` leg (there is nobody to stop) and sends `start(c, k)`
    /// directly to the new AP, with its own retry timer.
    fn emergency_reattach(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, target: usize) {
        let now = ctx.now();
        let client = ClientId(c as u32);
        self.ctrl.engine.abort(client);
        if let Some(old) = self.clients[c].serving.take() {
            let o = old.0 as usize;
            if !self.ap_down[o] {
                // The old AP is merely presumed dead; make sure it stops
                // serving if it is in fact alive.
                let gi = self.cfg.gi;
                let st = self.aps[o].client_mut(client, gi);
                st.serving = false;
                st.draining = false;
                st.drain_cyclic = false;
            }
        }
        self.ctrl.serving.remove(&client);
        self.clients[c].metrics.record_assoc(now, None);
        self.ctrl.selector_mut(client).record_switch(now);
        let k = self.ctrl.peek_index(client);
        // The direct `start` gets its own fresh epoch: a straggler ack
        // from the aborted switch (or an earlier generation) must not be
        // able to complete this re-attach.
        let epoch = self.ctrl.engine.allocate_epoch(client);
        self.sys.emergency_reattaches += 1;
        self.sys.control_packets += 1;
        self.pending_reattach[c] = Some((target, 0, epoch));
        let term = self.ctrl.engine.term();
        self.backhaul_send(
            ctx,
            CONTROL_PACKET_BYTES,
            true,
            Ev::Ctl(Ctl::StartAtAp {
                ap: target,
                client: c,
                k,
                epoch,
                term,
            }),
        );
        ctx.schedule_in(
            self.ctrl.engine.timeout(),
            Ev::Ctl(Ctl::ReattachTimeout { client: c }),
        );
    }

    pub(super) fn on_reattach_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        if self.controller_down {
            return; // the crashed controller's timers die with it
        }
        let Some((target, retries, epoch)) = self.pending_reattach[c] else {
            return; // answered (or superseded) already
        };
        let now = ctx.now();
        if retries >= crate::switching::SwitchEngine::MAX_RETRIES
            || self.ctrl.health.csi_stale(ApId(target as u32), now)
        {
            // Give up on this target; the selection loop's first-association
            // path re-attaches once fresh CSI identifies a live AP.
            self.pending_reattach[c] = None;
            return;
        }
        let client = ClientId(c as u32);
        let k = self.ctrl.peek_index(client);
        // Retransmissions keep the original epoch: they are the same
        // re-attach generation, and the target AP's guard turns an
        // already-applied duplicate into a bare re-ack.
        self.pending_reattach[c] = Some((target, retries + 1, epoch));
        self.sys.control_packets += 1;
        let term = self.ctrl.engine.term();
        self.backhaul_send(
            ctx,
            CONTROL_PACKET_BYTES,
            true,
            Ev::Ctl(Ctl::StartAtAp {
                ap: target,
                client: c,
                k,
                epoch,
                term,
            }),
        );
        ctx.schedule_in(
            self.ctrl.engine.timeout(),
            Ev::Ctl(Ctl::ReattachTimeout { client: c }),
        );
    }

    /// Closes the failover-latency book for a client that just re-attached.
    pub(super) fn resolve_failover(&mut self, c: usize, now: SimTime) {
        if let Some(crash_at) = self.pending_failover[c].take() {
            let latency = now.saturating_since(crash_at);
            let m = &mut self.clients[c].metrics;
            m.failovers.push((now, latency));
            m.blackout_total += latency;
        }
    }

    // ---------- selection ----------

    pub(super) fn on_selection_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        if self.controller_down {
            // A dead controller makes no decisions. Keep the tick alive
            // (it draws no RNG) so selection resumes right after recovery.
            if now < self.traffic_until + SimDuration::from_millis(500) {
                ctx.schedule_in(self.cfg.selection_tick, Ev::Ctl(Ctl::SelectionTick));
            }
            return;
        }
        if self.cfg.mode == Mode::Wgtt {
            let faulty = !self.faults.is_empty();
            for c in 0..self.clients.len() {
                if self.departed[c] {
                    continue;
                }
                let client = ClientId(c as u32);
                if self.ctrl.engine.in_flight(client) || self.pending_reattach[c].is_some() {
                    continue;
                }
                let current = self.ctrl.serving(client);
                // Health layer (fault runs only, to keep fault-free runs
                // bit-identical): a serving AP gone CSI-silent past the
                // staleness horizon is presumed dead — re-attach directly
                // instead of addressing a stop to it.
                if faulty {
                    if let Some(cur) = current {
                        if self.ctrl.health.csi_stale(cur, now) {
                            let excluded = self.ctrl.health.blacklisted(now);
                            let target = self
                                .ctrl
                                .selector_mut(client)
                                .best_excluding(now, &excluded)
                                .map(|(ap, _)| ap)
                                .filter(|&ap| ap != cur && !self.ctrl.health.csi_stale(ap, now));
                            if let Some(t) = target {
                                self.emergency_reattach(ctx, c, t.0 as usize);
                            }
                            continue;
                        }
                    }
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
                let Some(target) = decision else { continue };
                match current {
                    None => {
                        // First association: WGTT shares state so the client
                        // is usable at every AP instantly (§4.3).
                        let gi = self.cfg.gi;
                        for ap in 0..self.aps.len() {
                            if self.ap_down[ap] {
                                continue; // re-installed on reboot
                            }
                            self.aps[ap]
                                .client_mut(client, gi)
                                .assoc
                                .install_shared_association(now);
                        }
                        let st = self.aps[target.0 as usize].client_mut(client, gi);
                        st.serving = true;
                        self.ctrl.serving.insert(client, target);
                        self.clients[c].serving = Some(target);
                        self.clients[c].metrics.record_assoc(now, Some(target));
                        self.ctrl.selector_mut(client).record_switch(now);
                        self.resolve_failover(c, now);
                        // A migrant's imported seam residue waited for this
                        // moment: the controller now has a fan-out set, so
                        // re-injection can't silently drop.
                        self.flush_seam(ctx, c);
                        self.ensure_round(ctx);
                    }
                    Some(cur) => {
                        self.issue_switch(ctx, c, cur.0 as usize, target.0 as usize);
                    }
                }
            }
        }
        if now < self.traffic_until + SimDuration::from_millis(500) {
            ctx.schedule_in(self.cfg.selection_tick, Ev::Ctl(Ctl::SelectionTick));
        }
    }

    pub(super) fn on_csi_at_controller(&mut self, ap: usize, c: usize, esnr_db: f64, now: SimTime) {
        if self.controller_down {
            self.sys.controller_rx_dropped += 1;
            return;
        }
        self.ctrl
            .on_csi(now, ApId(ap as u32), ClientId(c as u32), esnr_db);
    }
}

impl WgttWorld {
    pub(super) fn handle_ctl(&mut self, ev: Ctl, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ctl::StopAtAp {
                ap,
                client,
                to_ap,
                epoch,
                term,
            } => self.on_stop_at_ap(ctx, ap, client, to_ap, epoch, term),
            Ctl::StopDone {
                ap,
                client,
                to_ap,
                epoch,
                term,
            } => self.on_stop_done(ctx, ap, client, to_ap, epoch, term),
            Ctl::StartAtAp {
                ap,
                client,
                k,
                epoch,
                term,
            } => self.on_start_at_ap(ctx, ap, client, k, epoch, term),
            Ctl::StartDone {
                ap,
                client,
                k,
                epoch,
                term,
            } => self.on_start_done(ctx, ap, client, k, epoch, term),
            Ctl::AckAtController {
                client,
                from_ap,
                epoch,
                term: _,
            } => self.on_ack_at_controller(ctx, client, from_ap, epoch),
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
}
