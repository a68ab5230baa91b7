//! Client-driven periodic events: keep-alive probes, the accuracy-oracle
//! tick, and the Enhanced 802.11r baseline's beacon/roam machine.

use super::air::BASE_RATE;
use super::*;

/// A client sends a null (keep-alive) frame once it has been silent this
/// long, keeping CSI flowing when no uplink data exists.
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Baseline beacon interval (paper: 100 ms).
const BEACON_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Baseline over-the-air reassociation retry limit before the attempt is
/// abandoned (the client then re-scans).
const REASSOC_RETRIES: u32 = 6;
/// Gap between baseline reassociation retries.
const REASSOC_RETRY_GAP: SimDuration = SimDuration::from_millis(20);

/// Client-driven periodic events and the 802.11r baseline's roam machine.
#[derive(Clone)]
pub enum Probe {
    /// Client keep-alive probe timer.
    ProbeTick { client: usize },
    /// Oracle accuracy/capacity sampling.
    AccuracyTick,
    /// Baseline: APs beacon.
    BeaconTick,
    /// Baseline: client evaluates roaming.
    RoamCheck { client: usize },
    /// Baseline: reassociation request reaches the air.
    RoamReqArrive {
        client: usize,
        target: usize,
        retries: u32,
    },
    /// Baseline: reassociation response heads back.
    RoamRespArrive {
        client: usize,
        target: usize,
        retries: u32,
    },
    /// Baseline: handover downtime over — data may flow via the new AP.
    RoamComplete { client: usize, target: usize },
}

impl Probe {
    /// See [`Ev::client`]: exhaustive on purpose.
    pub(super) fn client(&self) -> Option<usize> {
        match self {
            Probe::ProbeTick { client }
            | Probe::RoamCheck { client }
            | Probe::RoamReqArrive { client, .. }
            | Probe::RoamRespArrive { client, .. }
            | Probe::RoamComplete { client, .. } => Some(*client),
            Probe::AccuracyTick | Probe::BeaconTick => None,
        }
    }
}

impl WgttWorld {
    pub(super) fn handle_probe(&mut self, ev: Probe, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Probe::ProbeTick { client } => self.on_probe_tick(ctx, client),
            Probe::AccuracyTick => self.on_accuracy_tick(ctx),
            Probe::BeaconTick => self.on_beacon_tick(ctx),
            Probe::RoamCheck { client } => self.on_roam_check(ctx, client),
            Probe::RoamReqArrive {
                client,
                target,
                retries,
            } => self.on_roam_req(ctx, client, target, retries),
            Probe::RoamRespArrive {
                client,
                target,
                retries,
            } => self.on_roam_resp(ctx, client, target, retries),
            Probe::RoamComplete { client, target } => self.on_roam_complete(ctx, client, target),
        }
    }

    // ---------- oracle sampling ----------

    /// Hands the oracle one sample per resident vehicle (see
    /// [`crate::oracle`]); what becomes of them is not the event loop's
    /// business.
    fn on_accuracy_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        for c in 0..self.clients.len() {
            if self.departed[c] {
                continue;
            }
            let sample = Sample {
                t: now,
                client: c as u32,
                serving: self.clients[c].serving.map(|a| a.0),
                pos: self.clients[c].position(now),
                speed: self.clients[c].speed(now),
            };
            self.oracle.record(
                sample,
                &self.ap_down,
                WorldView {
                    links: &self.links,
                    cfg: &self.cfg,
                    clients: &mut self.clients,
                },
            );
        }
        if now < self.traffic_until {
            ctx.schedule_in(SimDuration::from_millis(1), Ev::Probe(Probe::AccuracyTick));
        }
    }

    /// Sends this world's oracle samples to a run pool's background queue.
    pub(crate) fn attach_oracle(&mut self, jobs: &wgtt_sim::pool::Jobs) {
        self.oracle.attach(jobs, &self.cfg);
    }

    /// Sees every recorded oracle sample into the clients' metrics and
    /// lets go of the pool; a no-op for a world that was never attached.
    pub(crate) fn drain_oracle(&mut self) {
        self.oracle.drain(WorldView {
            links: &self.links,
            cfg: &self.cfg,
            clients: &mut self.clients,
        });
    }

    // ---------- probes & baseline roaming ----------

    fn on_probe_tick(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        let now = ctx.now();
        if now < self.traffic_until {
            let cl = &self.clients[c];
            let idle = now.saturating_since(cl.last_uplink_tx) >= PROBE_INTERVAL;
            if idle && cl.uplink_queue.is_empty() {
                let pkt = self.factory.make(
                    ClientId(c as u32),
                    FlowId(u32::MAX),
                    Direction::Uplink,
                    36,
                    now,
                    Payload::Raw,
                );
                self.clients[c].enqueue_uplink(pkt);
                self.ensure_round(ctx);
            }
            ctx.schedule_in(PROBE_INTERVAL, Ev::Probe(Probe::ProbeTick { client: c }));
        }
    }

    fn on_beacon_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        if self.cfg.mode == Mode::Enhanced80211r {
            for ap in 0..self.aps.len() {
                if self.ap_down[ap] {
                    continue;
                }
                for c in 0..self.clients.len() {
                    if self.departed[c] || !self.in_radio_range(ap, c, now) {
                        continue;
                    }
                    let (mut esnr, rssi_db) = self.beacon(ap, c, now);
                    // Beacons are ~250 B.
                    if self.frame_heard(&mut esnr, BASE_RATE, 250) {
                        let alpha = self.cfg.baseline.rssi_ewma_alpha;
                        self.clients[c]
                            .rssi
                            .entry(ApId(ap as u32))
                            .or_insert_with(|| wgtt_sim::stats::Ewma::new(alpha))
                            .update(rssi_db);
                        if self.clients[c].serving == Some(ApId(ap as u32)) {
                            self.clients[c].last_serving_beacon = Some(now);
                        }
                    }
                }
            }
        }
        if now < self.traffic_until {
            ctx.schedule_in(BEACON_INTERVAL, Ev::Probe(Probe::BeaconTick));
        }
    }

    fn on_roam_check(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize) {
        let now = ctx.now();
        if self.cfg.mode == Mode::Enhanced80211r && self.clients[c].roam.is_none() {
            let serving = self.clients[c].serving;
            let best = self.clients[c].best_rssi_ap();
            let hysteresis_ok = self.clients[c].last_roam.map_or(true, |t| {
                now.saturating_since(t) >= self.cfg.baseline.hysteresis
            });
            // Beacon-miss detection: after many missed beacons the client
            // declares the link lost and rescans — the full scan across
            // channels takes on the order of a second on real clients.
            let beacons_stale = self.clients[c]
                .last_serving_beacon
                .is_some_and(|t| now.saturating_since(t) >= BEACON_INTERVAL * 12);
            let target = match (serving, best) {
                (None, Some((ap, _))) => Some(ap),
                (Some(cur), Some((ap, _))) if ap != cur && hysteresis_ok => {
                    let cur_rssi = self.clients[c].rssi_db(cur).unwrap_or(f64::NEG_INFINITY);
                    (beacons_stale || cur_rssi < self.cfg.baseline.rssi_threshold_db).then_some(ap)
                }
                _ => None,
            };
            if let Some(t) = target {
                self.clients[c].roam = Some(crate::client::RoamAttempt {
                    target: t,
                    retries: 0,
                });
                self.clients[c].last_roam = Some(now);
                // Reassociation request hits the air ~1 ms later (queueing
                // + contention for a tiny frame).
                ctx.schedule_in(
                    SimDuration::from_millis(1),
                    Ev::Probe(Probe::RoamReqArrive {
                        client: c,
                        target: t.0 as usize,
                        retries: 0,
                    }),
                );
            }
        }
        if now < self.traffic_until {
            ctx.schedule_in(BEACON_INTERVAL, Ev::Probe(Probe::RoamCheck { client: c }));
        }
    }

    /// One frame of client `c`'s reassociation exchange with `target`
    /// crosses the air: whether it was decoded, or `None` when the attempt
    /// it belongs to was superseded or abandoned in the meantime.
    fn reassoc_frame_heard(
        &mut self,
        c: usize,
        target: usize,
        frame: MgmtFrame,
        now: SimTime,
    ) -> Option<bool> {
        if self.clients[c].roam.map(|r| r.target.0 as usize) != Some(target) {
            return None;
        }
        let mut esnr = self.memo(target, c, now);
        Some(self.frame_heard(&mut esnr, BASE_RATE, wgtt_mac::mgmt_frame_bytes(frame)))
    }

    fn on_roam_req(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, target: usize, retries: u32) {
        let now = ctx.now();
        match self.reassoc_frame_heard(c, target, MgmtFrame::ReassocReq, now) {
            None => {}
            Some(false) => self.retry_roam(ctx, c, target, retries),
            Some(true) => {
                let st = self.aps[target].client_mut(ClientId(c as u32));
                st.assoc.install_shared_auth();
                let _resp = st.assoc.on_frame(now, MgmtFrame::ReassocReq);
                let resp = Probe::RoamRespArrive {
                    client: c,
                    target,
                    retries,
                };
                ctx.schedule_in(SimDuration::from_millis(1), Ev::Probe(resp));
            }
        }
    }

    fn retry_roam(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, target: usize, retries: u32) {
        if retries + 1 > REASSOC_RETRIES {
            // Roam failed; the client stays with (or without) its old AP.
            self.clients[c].roam = None;
            return;
        }
        if let Some(r) = &mut self.clients[c].roam {
            r.retries = retries + 1;
        }
        ctx.schedule_in(
            REASSOC_RETRY_GAP,
            Ev::Probe(Probe::RoamReqArrive {
                client: c,
                target,
                retries: retries + 1,
            }),
        );
    }

    fn on_roam_resp(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, target: usize, retries: u32) {
        let now = ctx.now();
        match self.reassoc_frame_heard(c, target, MgmtFrame::ReassocResp, now) {
            None => {}
            Some(false) => self.retry_roam(ctx, c, target, retries),
            Some(true) => {
                // Reassociation exchange done: the client leaves the old AP
                // immediately, but data only flows again once keys and
                // forwarding state are installed (handover downtime).
                let client = ClientId(c as u32);
                if let Some(old) = self.serving_of(c) {
                    let st = self.aps[old].client_mut(client);
                    // Baseline pathology: the old AP keeps draining its
                    // whole backlog toward a client that no longer listens
                    // (deliveries fail: `client_listens_to` is false for a
                    // non-serving AP in baseline mode).
                    st.role = Role::Draining { cyclic: true };
                    st.assoc.disassociate();
                }
                self.ctrl.serving.remove(&client);
                self.set_serving(c, None, now);
                let done = Probe::RoamComplete { client: c, target };
                ctx.schedule_in(self.cfg.baseline.handover_latency, Ev::Probe(done));
            }
        }
    }

    fn on_roam_complete(&mut self, ctx: &mut Ctx<'_, Ev>, c: usize, target: usize) {
        let client = ClientId(c as u32);
        self.aps[target].client_mut(client).role = Role::Serving;
        self.ctrl.serving.insert(client, ApId(target as u32));
        // `set_serving`, not `served_by`: a roam is not the health layer's
        // re-attach and closes no failover blackout.
        self.set_serving(c, Some(ApId(target as u32)), ctx.now());
        self.clients[c].roam = None;
        self.ensure_round(ctx);
    }
}
