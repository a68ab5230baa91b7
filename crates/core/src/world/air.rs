//! The radio: DCF contention rounds, the in-flight table, scratch pools,
//! and what a finished transmission delivered to whom (`TxDone` reception,
//! the overhear sweep, and the Block ACKs monitors relay for it).
//!
//! Medium access is resolved in *contention rounds*: whenever the channel
//! goes idle and stations have pending frames, each draws a backoff from
//! its contention window; the smallest draw transmits, ties collide. An AP
//! transmission is an A-MPDU + SIFS + Block ACK exchange; a client
//! transmission is a short uplink burst answered by AP acknowledgements
//! (where simultaneous AP responses can collide — the paper's §5.3.2
//! microbenchmark). Per-MPDU delivery is Bernoulli with probability from
//! the ESNR→PER model evaluated on the link's CSI at transmission time.

use super::*;
use crate::client::UplinkEntry;
use wgtt_mac::timing::{ACK_BYTES, BLOCK_ACK_BYTES};
use wgtt_phy::{Position, CONTROLLER_MODULATION};

/// Radio events.
#[derive(Clone)]
pub enum Air {
    /// Resolve one DCF contention round.
    ContentionRound,
    /// A radio transmission completes.
    TxDone(u64),
}

impl Air {
    /// See [`Ev::client`]: exhaustive on purpose.
    pub(super) fn client(&self) -> Option<usize> {
        match self {
            Air::ContentionRound | Air::TxDone(_) => None,
        }
    }
}

/// Identifies a radio transmitter for busy-tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey {
    /// An access point's radio.
    Ap(usize),
    /// A client's radio.
    Client(usize),
}

/// Mean SNR floor below which frames are never received at all, dB.
pub const RANGE_FLOOR_DB: f64 = -2.0;
/// The 24 Mbit/s basic control rate of Block ACKs and ACKs (QPSK-3/4-like
/// robustness).
const CONTROL_RATE: Mcs = Mcs(2);
/// The base rate (BPSK) of the Enhanced 802.11r baseline's beacons and
/// reassociation frames.
pub(super) const BASE_RATE: Mcs = Mcs(0);
/// Minimum spacing of CSI reports per (AP, client) link: bounds control
/// traffic, and mirrors the CSI tool's per-frame reporting at realistic
/// frame rates.
const CSI_REPORT_INTERVAL: SimDuration = SimDuration::from_millis(1);
/// Uplink burst size limit (client-side aggregation of small frames).
const UPLINK_BURST: usize = 16;
/// Client uplink retry limit.
const UPLINK_RETRY_LIMIT: u32 = 7;
/// Capture margin for AP-response collisions at the client, dB.
const CAPTURE_MARGIN_DB: f64 = 8.0;
/// CCA detection window: a later AP response within this of an earlier one
/// fails to defer, µs.
const CCA_WINDOW_US: f64 = 1.0;
/// Carrier-sense range. Spatial reuse: transmitters farther apart than this
/// (directional antennas, metres-scale cells) neither carrier-sense nor
/// interfere with each other, so several may transmit concurrently — this
/// is what makes two opposing cars at opposite ends of the array cheap to
/// serve simultaneously (paper Fig 20).
const CS_RANGE_M: f64 = 25.0;

/// Transmitter and intended-receiver positions of one transmission.
type Span = (Position, Position);

/// Whether two transmissions are out of each other's carrier-sense range.
fn compatible(a: Span, b: Span) -> bool {
    a.0.distance(&b.0) > CS_RANGE_M
        && a.0.distance(&b.1) > CS_RANGE_M
        && b.0.distance(&a.1) > CS_RANGE_M
}

/// One MPDU of an A-MPDU: `(seq, packet, retries)`.
type Mpdu = (u16, Packet, u32);

/// What a transmission carries.
enum Burst {
    /// AP → client A-MPDU.
    ApAggregate {
        ap: usize,
        client: usize,
        mpdus: Vec<Mpdu>,
    },
    /// Client → BSSID uplink burst.
    ClientBurst {
        client: usize,
        entries: Vec<UplinkEntry>,
    },
}

/// How a burst went on the air.
#[derive(Clone, Copy)]
struct Shot {
    mcs: Mcs,
    /// Destroyed by a same-slot DCF collision.
    collided: bool,
    /// First symbol on the air; the channel is sampled here.
    start: SimTime,
}

/// A transmission in flight on the radio: what `TxDone` resolves, and the
/// geometry the carrier-sense scan needs while it lasts.
struct AirTx {
    id: u64,
    burst: Burst,
    shot: Shot,
    /// End of the exchange (PPDU + SIFS + Block ACK): `TxDone` fires and
    /// the medium frees.
    end: SimTime,
    span: Span,
    node: NodeKey,
}

/// Transmissions on the air, sorted by tx id. Ids are monotone, so inserts
/// append and the order never needs repair; id order makes every scan
/// cross-process deterministic. Steady-state population is the handful of
/// concurrent exchanges, so binary-search removal beats a tree and
/// allocates nothing once warm.
#[derive(Default)]
struct InFlight {
    txs: Vec<AirTx>,
    next_id: u64,
}

impl InFlight {
    /// Registers a transmission under the next id and returns the id.
    fn insert(&mut self, burst: Burst, shot: Shot, end: SimTime, span: Span, node: NodeKey) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.txs.push(AirTx {
            id,
            burst,
            shot,
            end,
            span,
            node,
        });
        id
    }

    fn remove(&mut self, id: u64) -> Option<AirTx> {
        let i = self.txs.binary_search_by_key(&id, |tx| tx.id).ok()?;
        Some(self.txs.remove(i))
    }

    /// The transmissions still occupying the medium at `now`, in id order.
    /// One that has reached its end no longer blocks anyone, even if its
    /// `TxDone` — due at that same instant — has yet to remove it.
    fn active(&self, now: SimTime) -> impl Iterator<Item = &AirTx> {
        self.txs.iter().filter(move |tx| tx.end > now)
    }
}

/// A contender the round lets transmit.
struct Grant {
    node: NodeKey,
    draw: u32,
    span: Span,
    chan: usize,
    collided: bool,
}

/// Reusable contention-round buffers (cleared each round, capacity
/// retained) — the round runs per-event, so per-call allocation here
/// dominated steady-state heap traffic.
#[derive(Default)]
struct RoundScratch {
    busy: Vec<NodeKey>,
    contenders: Vec<(NodeKey, u32)>,
    /// Span and channel of each ongoing transmission.
    active: Vec<(Span, usize)>,
    granted: Vec<Grant>,
}

/// Reusable per-burst buffers, on loan to whoever builds or resolves a
/// transmission (each overwrites what it uses; capacity retained) — `TxDone`
/// is the top row of every event loop, and its per-burst `Vec`s were most of
/// what it asked the allocator for.
#[derive(Default)]
struct BurstScratch {
    /// Wire lengths of the MPDUs in the burst being built.
    lens: Vec<usize>,
    /// The delivery draw of each MPDU of the A-MPDU being resolved.
    delivered: Vec<bool>,
    /// Sequences the Block ACK newly acknowledged.
    newly: Vec<u16>,
    /// The uplink sequences each receiving AP decoded, in burst order, all
    /// APs' runs back to back…
    got: Vec<u16>,
    /// …and whose run is where: `(ap, start, end)` into `got`, by AP index.
    heard_by: Vec<(usize, usize, usize)>,
    /// Acknowledging APs: `(ap, response jitter in µs, mean SNR in dB)`.
    resp: Vec<(usize, f64, f64)>,
    /// Delivery probability by MPDU length, for one receiver of one burst.
    p_by_len: Vec<(usize, f64)>,
}

/// `PerModel::success_with` for an MPDU of `bytes`, evaluated once per
/// distinct length in `memo` — rate and channel snapshot are the burst's,
/// so the host `exp` and `powf` behind it see identical arguments for every
/// MPDU of one length (nearly always: all of them).
fn success_by_len(
    memo: &mut Vec<(usize, f64)>,
    per: &wgtt_phy::PerModel,
    esnr: &mut EsnrMemo,
    mcs: Mcs,
    bytes: usize,
) -> f64 {
    if let Some(&(_, p)) = memo.iter().find(|&&(len, _)| len == bytes) {
        return p;
    }
    let p = per.success_with(esnr, mcs, bytes);
    memo.push((bytes, p));
    p
}

/// Private state of the radio layer.
#[derive(Default)]
pub(super) struct AirState {
    in_flight: InFlight,
    round_scheduled: bool,
    /// Livelock guard: consecutive contention rounds at one timestamp.
    rounds_at_ts: (SimTime, u32),
    scratch: RoundScratch,
    burst_scratch: BurstScratch,
    /// Emptied A-MPDU and uplink-burst vectors of retired transmissions,
    /// waiting for the next burst: at most one per transmission ever on the
    /// air at once.
    free_mpdus: Vec<Vec<Mpdu>>,
    free_entries: Vec<Vec<UplinkEntry>>,
    /// Monitors that overheard the current A-MPDU's Block ACK (cleared per
    /// A-MPDU, capacity retained).
    overheard: Vec<usize>,
}

impl WgttWorld {
    pub(super) fn handle_air(&mut self, ev: Air, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Air::ContentionRound => self.on_contention_round(ctx),
            Air::TxDone(id) => self.on_tx_done(ctx, id),
        }
    }

    // ---------- helpers ----------

    fn client_pos(&self, c: usize, t: SimTime) -> Position {
        self.clients[c].position(t)
    }

    fn mean_snr(&self, ap: usize, c: usize, t: SimTime) -> f64 {
        self.links[ap][c].mean_snr_db(&self.client_pos(c, t))
    }

    pub(super) fn in_radio_range(&self, ap: usize, c: usize, t: SimTime) -> bool {
        self.mean_snr(ap, c, t) >= RANGE_FLOOR_DB
    }

    /// The ESNR memo of the channel from `ap` to client `c` at `t`.
    pub(super) fn memo(&self, ap: usize, c: usize, t: SimTime) -> EsnrMemo {
        let (pos, speed) = (self.client_pos(c, t), self.clients[c].speed(t));
        self.links[ap][c].memo(t, &pos, speed)
    }

    /// [`Self::memo`] and the RSSI (dB) client `c` reads off `ap`'s beacon.
    pub(super) fn beacon(&self, ap: usize, c: usize, t: SimTime) -> (EsnrMemo, f64) {
        let (pos, speed) = (self.client_pos(c, t), self.clients[c].speed(t));
        self.links[ap][c].beacon(t, &pos, speed)
    }

    pub(super) fn ensure_round(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.air.round_scheduled {
            return;
        }
        let any_ap = self.aps.iter().any(|a| a.has_work());
        let any_client = self.clients.iter().any(|c| c.has_uplink_work());
        if !any_ap && !any_client {
            return;
        }
        self.air.round_scheduled = true;
        ctx.schedule_at(ctx.now(), Ev::Air(Air::ContentionRound));
    }

    /// Whether AP `ap` and client `c` share a channel under the channel
    /// plan (§7): with a single-channel plan, always; otherwise the client
    /// is tuned to its serving AP's channel (or hears everything while
    /// scanning/unassociated).
    fn same_channel(&self, ap: usize, c: usize) -> bool {
        if self.cfg.channel_stride <= 1 {
            return true;
        }
        match self.serving_of(c) {
            Some(s) => self.cfg.channel_of(ap) == self.cfg.channel_of(s),
            None => true,
        }
    }

    /// The channel `node` transmits on.
    fn chan_of(&self, node: NodeKey) -> usize {
        match node {
            NodeKey::Ap(ap) => self.cfg.channel_of(ap),
            NodeKey::Client(c) => self.serving_of(c).map_or(0, |s| self.cfg.channel_of(s)),
        }
    }

    /// Where `node` would transmit from and to, for carrier sensing.
    fn span_of(&self, node: NodeKey, now: SimTime) -> Span {
        match node {
            NodeKey::Ap(ap) => {
                let site = &self.deployment.aps[ap];
                // Receiver: the client this AP would serve (lowest id with
                // work — any other pick would make the CS geometry, and
                // hence multi-client results, depend on iteration order);
                // fall back to the boresight patch.
                let rx = self.aps[ap]
                    .clients_iter()
                    .filter(|(_, s)| s.has_downlink_work())
                    .min_by_key(|(c, _)| c.0)
                    .map_or(site.boresight_target, |(c, _)| {
                        self.client_pos(c.0 as usize, now)
                    });
                (site.position, rx)
            }
            NodeKey::Client(c) => {
                let txp = self.client_pos(c, now);
                let rx = self.clients[c]
                    .serving
                    .map_or(txp, |a| self.deployment.aps[a.0 as usize].position);
                (txp, rx)
            }
        }
    }

    /// Who has work, for the livelock tripwire: per AP with work each
    /// client's `(id, role, (NIC queue, cyclic backlog), outstanding)`, per
    /// client with uplink work its queue length, and the transmissions
    /// still on the air.
    fn work_summary(&self, now: SimTime) -> String {
        let per_client = |a: &ApState| -> Vec<_> {
            a.clients_iter()
                .map(|(c, s)| {
                    let queued = (s.nic_queue.len(), s.cyclic.backlog());
                    let outstanding = s.scoreboard.outstanding();
                    (c.0, s.role, queued, outstanding)
                })
                .collect()
        };
        let aps = self.aps.iter().enumerate().filter(|(_, a)| a.has_work());
        let clients = self.clients.iter().enumerate();
        format!(
            "active={} ap_work={:?} cl_work={:?}",
            self.air.in_flight.active(now).count(),
            aps.map(|(i, a)| (i, per_client(a))).collect::<Vec<_>>(),
            clients
                .filter(|(_, c)| c.has_uplink_work())
                .map(|(i, c)| (i, c.uplink_queue.len()))
                .collect::<Vec<_>>(),
        )
    }

    // ---------- radio: contention rounds ----------

    fn on_contention_round(&mut self, ctx: &mut Ctx<'_, Ev>) {
        // Loan the pooled buffers to the round body; every exit path comes
        // back through here, so the capacity survives for the next round.
        let mut scratch = std::mem::take(&mut self.air.scratch);
        scratch.busy.clear();
        scratch.contenders.clear();
        scratch.active.clear();
        scratch.granted.clear();
        self.contention_round_body(ctx, &mut scratch);
        self.air.scratch = scratch;
    }

    fn contention_round_body(&mut self, ctx: &mut Ctx<'_, Ev>, scratch: &mut RoundScratch) {
        let RoundScratch {
            busy,
            contenders,
            active,
            granted,
        } = scratch;
        self.air.round_scheduled = false;
        let now = ctx.now();
        // Livelock guard: a node that reports work but can never build a
        // transmission would otherwise reschedule rounds at this same
        // instant forever.
        if self.air.rounds_at_ts.0 == now {
            self.air.rounds_at_ts.1 += 1;
            if self.air.rounds_at_ts.1 > 10_000 {
                panic!("contention livelock at {now}: {}", self.work_summary(now));
            }
        } else {
            self.air.rounds_at_ts = (now, 0);
        }
        // Gather contenders: nodes with pending frames whose radio is not
        // already mid-transmission. The active set is a handful of entries,
        // so a linear `contains` beats hashing and allocates nothing.
        for tx in self.air.in_flight.active(now) {
            busy.push(tx.node);
            active.push((tx.span, self.chan_of(tx.node)));
        }
        for ap in 0..self.aps.len() {
            if !self.ap_down[ap] && self.aps[ap].has_work() && !busy.contains(&NodeKey::Ap(ap)) {
                let draw = self.aps[ap].backoff.draw(&mut self.rng);
                contenders.push((NodeKey::Ap(ap), draw));
            }
        }
        for c in 0..self.clients.len() {
            if self.clients[c].has_uplink_work() && !busy.contains(&NodeKey::Client(c)) {
                let draw = self.clients[c].backoff.draw(&mut self.rng);
                contenders.push((NodeKey::Client(c), draw));
            }
        }
        if contenders.is_empty() {
            // Nothing eligible; when transmissions finish, TxDone will
            // re-arm the round.
            return;
        }
        contenders.sort_by_key(|&(n, d)| {
            (
                d,
                match n {
                    NodeKey::Ap(i) => i,
                    NodeKey::Client(i) => 1000 + i,
                },
            )
        });
        let min_draw = contenders[0].1;
        for &(node, draw) in contenders.iter() {
            let span = self.span_of(node, now);
            let chan = self.chan_of(node);
            // A contender within carrier-sense range of an ongoing
            // same-channel transmission defers (it hears the medium busy);
            // different channels never interact.
            if !active
                .iter()
                .all(|&(other, ch)| ch != chan || compatible(span, other))
            {
                continue;
            }
            let clear = granted
                .iter()
                .all(|g| g.chan != chan || compatible(span, g.span));
            if !clear && draw != min_draw {
                continue; // defers, contends again next round
            }
            if !clear {
                // Same backoff slot as an incompatible transmission:
                // classic DCF collision — both the newcomer and every
                // granted transmission it can sense are destroyed.
                for g in granted.iter_mut() {
                    g.collided |= g.chan == chan && !compatible(span, g.span);
                }
                self.dcf_collisions += 1;
            }
            // (Clear: out of carrier-sense range, or off-channel, of
            // everything granted — it transmits concurrently.)
            granted.push(Grant {
                node,
                draw,
                span,
                chan,
                collided: !clear,
            });
        }
        if granted.is_empty() {
            // Everyone with work is inside an active transmission's CS
            // range; retry when the earliest one ends.
            if let Some(end) = self.air.in_flight.active(now).map(|tx| tx.end).min() {
                self.air.round_scheduled = true;
                ctx.schedule_at(end.max(now), Ev::Air(Air::ContentionRound));
            }
            return;
        }
        let mut latest_end = now;
        for g in granted.iter() {
            let start = now + difs() + slot() * g.draw as u64;
            let built = match g.node {
                NodeKey::Ap(ap) => self.build_ap_tx(ap, now),
                NodeKey::Client(c) => self.build_client_tx(c, now, start),
            };
            let Some((burst, mcs, airtime)) = built else {
                continue;
            };
            let shot = Shot {
                mcs,
                collided: g.collided,
                start,
            };
            let end = start + airtime + sifs() + block_ack_airtime();
            let id = self.air.in_flight.insert(burst, shot, end, g.span, g.node);
            ctx.schedule_at(end, Ev::Air(Air::TxDone(id)));
            latest_end = latest_end.max(end);
        }
        if latest_end > now {
            self.medium.occupy(now, latest_end - now);
        }
        self.ensure_round(ctx);
    }

    /// Steps a rate down as a frame's retry count climbs (ath9k-style
    /// multi-rate retry), so a stale Minstrel estimate cannot burn the
    /// whole retry budget at an undeliverable rate.
    fn retry_rate(mut mcs: Mcs, retries: u32) -> Mcs {
        for _ in 0..(retries / 2).min(4) {
            mcs = mcs.down().unwrap_or(mcs);
        }
        mcs
    }

    /// Builds one AP A-MPDU from the NIC queue head of the next client in
    /// round-robin order: the burst, its rate, and its airtime.
    fn build_ap_tx(&mut self, ap: usize, now: SimTime) -> Option<(Burst, Mcs, SimDuration)> {
        let client = self.aps[ap].pick_client()?;
        let max_dur = SimDuration::from_millis(4);
        let st = self.aps[ap].client_get_mut(client)?;
        if matches!(st.role, Role::Serving | Role::Draining { cyclic: true }) {
            self.sys.dup_data_dropped += st.refill_nic();
        }
        let mcs = st.ratectl.select(now, &mut self.rng);
        let mcs = Self::retry_rate(mcs, st.nic_queue.front().map_or(0, |e| e.retries));
        let mut mpdus = self.air.free_mpdus.pop().unwrap_or_default();
        let lens = &mut self.air.burst_scratch.lens;
        lens.clear();
        let mut bytes = 0usize;
        while mpdus.len() < wgtt_mac::BA_WINDOW as usize {
            let Some(mut entry) = st.nic_queue.pop_front() else {
                break;
            };
            let wire = entry.packet.len_bytes + overhead::DOT11;
            lens.push(wire);
            let fits = mpdus.is_empty()
                || (bytes + wire <= MAX_AMPDU_BYTES
                    && ampdu_airtime(lens, mcs, GUARD_INTERVAL) <= max_dur);
            if !fits || (!entry.registered && st.scoreboard.available() == 0) {
                // Does not go in this aggregate: back to the queue head.
                lens.pop();
                st.nic_queue.push_front(entry);
                break;
            }
            if !entry.registered {
                st.scoreboard.register(entry.seq);
                entry.registered = true;
            }
            entry.retries += 1;
            bytes += wire;
            mpdus.push((entry.seq, entry.packet, entry.retries));
        }
        if mpdus.is_empty() {
            self.air.free_mpdus.push(mpdus);
            return None;
        }
        let airtime = ampdu_airtime(lens, mcs, GUARD_INTERVAL);
        let burst = Burst::ApAggregate {
            ap,
            client: client.0 as usize,
            mpdus,
        };
        Some((burst, mcs, airtime))
    }

    /// Builds one client uplink burst, on the air from `start`.
    fn build_client_tx(
        &mut self,
        c: usize,
        now: SimTime,
        start: SimTime,
    ) -> Option<(Burst, Mcs, SimDuration)> {
        let cl = &mut self.clients[c];
        if cl.uplink_queue.is_empty() {
            return None;
        }
        let all_probes = cl
            .uplink_queue
            .iter()
            .take(UPLINK_BURST)
            .all(|e| matches!(e.packet.payload, Payload::Raw));
        let mcs = if cl.serving.is_none() || all_probes {
            // Probe/null frames ride the base rate (like real management
            // traffic), so every nearby AP can measure CSI from them.
            Mcs(0)
        } else {
            cl.ratectl.select(now, &mut self.rng)
        };
        let mcs = Self::retry_rate(mcs, cl.uplink_queue.front().map_or(0, |e| e.retries));
        let count = cl.uplink_queue.len().min(UPLINK_BURST);
        let mut entries = self.air.free_entries.pop().unwrap_or_default();
        entries.extend(cl.uplink_queue.drain(..count));
        let lens = &mut self.air.burst_scratch.lens;
        lens.clear();
        lens.extend(entries.iter().map(|e| e.packet.len_bytes + overhead::DOT11));
        let airtime = if lens.len() == 1 {
            frame_airtime(lens[0], mcs, GUARD_INTERVAL)
        } else {
            ampdu_airtime(lens, mcs, GUARD_INTERVAL)
        };
        cl.last_uplink_tx = start;
        Some((Burst::ClientBurst { client: c, entries }, mcs, airtime))
    }

    // ---------- radio: transmission resolution ----------

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_, Ev>, tx_id: u64) {
        if let Some(tx) = self.air.in_flight.remove(tx_id) {
            // Loan the pooled buffers to the resolution; every exit path
            // comes back through here, and what is left in the burst's own
            // vector by then is dropped.
            let mut scratch = std::mem::take(&mut self.air.burst_scratch);
            match tx.burst {
                Burst::ApAggregate {
                    ap,
                    client,
                    mut mpdus,
                } => {
                    self.resolve_ap_tx(ctx, ap, client, &mut mpdus, tx.shot, &mut scratch);
                    mpdus.clear();
                    self.air.free_mpdus.push(mpdus);
                }
                Burst::ClientBurst {
                    client,
                    mut entries,
                } => {
                    self.resolve_client_tx(ctx, client, &mut entries, tx.shot, &mut scratch);
                    entries.clear();
                    self.air.free_entries.push(entries);
                }
            }
            self.air.burst_scratch = scratch;
        }
        self.ensure_round(ctx);
    }

    /// Draws whether one frame of `bytes` sent at the fixed rate `mcs`
    /// ([`CONTROL_RATE`], [`BASE_RATE`]) is decoded over the snapshot behind
    /// `esnr`.
    pub(super) fn frame_heard(&mut self, esnr: &mut EsnrMemo, mcs: Mcs, bytes: usize) -> bool {
        let p = self.cfg.per_model.success_with(esnr, mcs, bytes);
        self.rng.chance(p)
    }

    /// Only associated APs bridge a client's data frames and answer them.
    fn ap_associated(&self, ap: usize, client: ClientId) -> bool {
        self.aps[ap]
            .client(client)
            .is_some_and(|s| s.assoc.state() == AssocState::Associated)
    }

    fn resolve_ap_tx(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        c: usize,
        mpdus: &mut Vec<Mpdu>,
        shot: Shot,
        scratch: &mut BurstScratch,
    ) {
        let Shot {
            mcs,
            collided,
            start,
        } = shot;
        let BurstScratch {
            delivered,
            newly,
            p_by_len,
            ..
        } = scratch;
        let now = ctx.now();
        if self.ap_down[ap] {
            return; // crashed mid-transmission: the PPDU died with it
        }
        let client = ClientId(c as u32);
        // One snapshot serves the whole exchange — per-MPDU data draws, the
        // QPSK Block ACK, and the controller's 16-QAM report — so memoize
        // the per-modulation ESNR integrations across all of them. A burst
        // that collided or that the client does not hear delivers nothing,
        // so nothing reads one.
        let heard = !collided && self.client_listens_to(ap, c);
        let mut esnr = heard.then(|| self.memo(ap, c, start));
        let rate_mbps = mcs.data_rate_mbps(GUARD_INTERVAL);
        let m = &mut self.clients[c].metrics;
        m.mpdu_attempts += mpdus.len() as u64;
        m.mpdu_retransmits += mpdus.iter().filter(|&&(_, _, r)| r > 1).count() as u64;

        // Per-MPDU delivery draws.
        delivered.clear();
        p_by_len.clear();
        for (_, packet, _) in mpdus.iter() {
            let p = match &mut esnr {
                None => 0.0,
                Some(esnr) => {
                    let bytes = packet.len_bytes + overhead::DOT11;
                    success_by_len(p_by_len, &self.cfg.per_model, esnr, mcs, bytes)
                }
            };
            delivered.push(self.rng.chance(p));
        }

        // Client-side reorder + app delivery.
        for ((seq, packet, _), _) in mpdus.iter().zip(delivered.iter()).filter(|(_, &d)| d) {
            if self.clients[c].rx_reorder.on_mpdu(*seq) {
                self.clients[c].rx_buffer.insert(*seq, packet.clone());
                let m = &mut self.clients[c].metrics;
                m.mpdu_successes += 1;
                m.rate_bin_sum.add(now, rate_mbps);
                m.rate_bin_count.add(now, 1.0);
            }
        }
        let any_received = delivered.contains(&true);
        if any_received {
            self.release_reordered(ctx, c, false);
        }

        // Block ACK response (only if the client heard the PPDU at all):
        // the frame, and whether the serving AP decoded it. It travels
        // client→AP on the reciprocal channel.
        let mut esnr = esnr.filter(|_| any_received);
        let ba: Option<(BlockAckFrame, bool)> = esnr.as_mut().map(|esnr| {
            let frame = self.clients[c].rx_reorder.block_ack();
            (frame, self.frame_heard(esnr, CONTROL_RATE, BLOCK_ACK_BYTES))
        });

        // Every AP that decodes the client's Block ACK — serving or
        // monitor-mode neighbour — measures CSI from it (the CSI tool
        // reports every incoming frame, §3.1.1). Monitors that heard a BA
        // the serving AP missed forward it over the backhaul (§3.2.1).
        self.air.overheard.clear();
        if ba.is_some() {
            for other in 0..self.aps.len() {
                if other == ap
                    || self.ap_down[other]
                    || !self.in_radio_range(other, c, now)
                    || !self.same_channel(other, c)
                {
                    continue;
                }
                // Monitors measure the QPSK BA and, on success, report the
                // 16-QAM controller metric off the same snapshot.
                let mut other_esnr = self.memo(other, c, start);
                if self.frame_heard(&mut other_esnr, CONTROL_RATE, BLOCK_ACK_BYTES) {
                    self.air.overheard.push(other);
                    self.report_csi(ctx, other, c, &mut other_esnr, now);
                }
            }
        }
        if let (Some((_, true)), Some(esnr)) = (ba, esnr.as_mut()) {
            self.report_csi(ctx, ap, c, esnr, now);
        }
        let Some(st) = self.aps[ap].client_get_mut(client) else {
            return; // state wiped by a crash/reboot cycle mid-flight
        };
        match ba {
            Some((frame, true)) => {
                st.seen_bas.insert((frame.start_seq, frame.bitmap));
                st.scoreboard.on_block_ack_into(&frame, newly);
                for _ in newly.iter() {
                    st.ratectl.on_tx_result(now, mcs, true);
                }
                // Anything the Block ACK (cumulatively) covers is done; the
                // rest — including previously acked sequences the frame
                // still carries — goes back for retransmission.
                let unacked = mpdus;
                unacked.retain(|(seq, ..)| !frame.covers(*seq) && st.scoreboard.is_unacked(*seq));
                // Rate control must see the failures too, or it pins at the
                // top rate on the optimism of acked-only feedback.
                for _ in unacked.iter() {
                    st.ratectl.on_tx_result(now, mcs, false);
                }
                self.requeue_lost(ap, c, unacked, mcs, now);
                self.aps[ap].backoff.on_success();
            }
            lost => {
                if let Some((frame, _)) = lost {
                    self.clients[c].metrics.ba_lost_at_serving += 1;
                    // Block ACK forwarding: monitor-mode neighbours that
                    // overheard it relay it over the backhaul (§3.2.1).
                    if self.cfg.mode == Mode::Wgtt && self.cfg.ba_forwarding {
                        // By index: `backhaul_send` needs the whole world.
                        for i in 0..self.air.overheard.len() {
                            if self.faults.partitioned(self.air.overheard[i], now) {
                                continue; // monitor cut off from the backhaul
                            }
                            let ba = frame;
                            let fwd = Data::BaForwardAtAp { ap, client: c, ba };
                            self.backhaul_send(ctx, 100, false, Ev::Data(fwd));
                        }
                    }
                }
                let Some(st) = self.aps[ap].client_get_mut(client) else {
                    return;
                };
                st.ratectl.on_tx_result(now, mcs, false);
                // Without an acknowledgement the AP must assume nothing got
                // through: the entire aggregate is retransmitted (§3.2.1's
                // cost) — unless a forwarded Block ACK arrives first and
                // prunes the NIC queue.
                self.requeue_lost(ap, c, mpdus, mcs, now);
                self.aps[ap].backoff.on_failure();
            }
        }
    }

    /// Applies a Block ACK that a monitor overheard and relayed because
    /// the serving AP `ap` missed it (§3.2.1): through the scoreboard entry
    /// `resolve_ap_tx` uses for its own, into the same loaned `newly`.
    pub(super) fn on_ba_forward_at_ap(&mut self, ap: usize, c: usize, ba: BlockAckFrame) {
        if self.cfg.mode != Mode::Wgtt || !self.cfg.ba_forwarding || self.ap_down[ap] {
            return;
        }
        let Some(st) = self.aps[ap].client_get_mut(ClientId(c as u32)) else {
            return;
        };
        if !st.seen_bas.insert((ba.start_seq, ba.bitmap)) {
            return; // already applied (own reception or earlier forward)
        }
        let newly = &mut self.air.burst_scratch.newly;
        st.scoreboard.on_block_ack_into(&ba, newly);
        if newly.is_empty() {
            return;
        }
        // `newly` is at most one 64-frame window: scanning it costs less
        // than hashing it.
        st.nic_queue.retain(|e| !newly.contains(&e.seq));
        self.clients[c].metrics.ba_forwarded_applied += newly.len() as u64;
    }

    /// Moves unacknowledged MPDUs back to the NIC queue front (in order)
    /// or drops them past the retry limit.
    fn requeue_lost(
        &mut self,
        ap: usize,
        c: usize,
        unacked: &mut Vec<Mpdu>,
        mcs: Mcs,
        now: SimTime,
    ) {
        let client = ClientId(c as u32);
        let Some(st) = self.aps[ap].client_get_mut(client) else {
            return;
        };
        for (seq, packet, retries) in unacked.drain(..).rev() {
            if retries > MPDU_RETRY_LIMIT {
                st.scoreboard.drop_seq(seq);
                st.ratectl.on_tx_result(now, mcs, false);
                continue;
            }
            st.nic_queue.push_front(crate::ap::NicEntry {
                packet,
                seq,
                retries,
                registered: true,
            });
        }
    }

    /// Whether the client decodes frames from this AP: always in WGTT
    /// (single BSSID), only from the serving AP in baseline mode.
    fn client_listens_to(&self, ap: usize, c: usize) -> bool {
        if !self.same_channel(ap, c) {
            return false;
        }
        match self.cfg.mode {
            Mode::Wgtt => true,
            Mode::Enhanced80211r => self.serving_of(c) == Some(ap),
        }
    }

    fn resolve_client_tx(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        c: usize,
        entries: &mut Vec<UplinkEntry>,
        shot: Shot,
        scratch: &mut BurstScratch,
    ) {
        let Shot {
            mcs,
            collided,
            start,
        } = shot;
        let BurstScratch {
            got,
            heard_by,
            resp,
            p_by_len,
            ..
        } = scratch;
        let now = ctx.now();
        let client = ClientId(c as u32);
        // Reception per AP.
        got.clear();
        heard_by.clear();
        // A collided burst decodes nowhere: no draw, no report, no snapshot.
        let receivers = if collided { 0..0 } else { 0..self.aps.len() };
        for ap in receivers {
            if self.ap_down[ap] || !self.in_radio_range(ap, c, start) || !self.same_channel(ap, c) {
                continue;
            }
            // One memo per receiving AP: every uplink MPDU in the burst
            // draws against the same snapshot, and the CSI report reuses it.
            let mut esnr = self.memo(ap, c, start);
            let first = got.len();
            p_by_len.clear();
            for e in entries.iter() {
                let bytes = e.packet.len_bytes + overhead::DOT11;
                let p = success_by_len(p_by_len, &self.cfg.per_model, &mut esnr, mcs, bytes);
                if self.rng.chance(p) {
                    got.push(e.seq);
                }
            }
            if got.len() > first {
                // CSI measurement from this reception, rate-limited.
                self.report_csi(ctx, ap, c, &mut esnr, now);
                heard_by.push((ap, first, got.len()));
            }
        }

        // Forwarding to the controller (uplink diversity).
        let serving = self.serving_of(c);
        for &(from_ap, first, end) in heard_by.iter() {
            let got = &got[first..end];
            let forwards = match self.cfg.mode {
                Mode::Wgtt => self.cfg.uplink_diversity || Some(from_ap) == serving,
                Mode::Enhanced80211r => Some(from_ap) == serving,
            };
            if !forwards
                || !self.ap_associated(from_ap, client)
                || self.faults.partitioned(from_ap, now)
            {
                continue;
            }
            // `got` lists, in burst order, the sequences of `entries` this
            // AP decoded. Probes terminate at the AP.
            let heard = entries.iter().filter(|e| got.contains(&e.seq));
            for e in heard.filter(|e| !matches!(e.packet.payload, Payload::Raw)) {
                let pkt = e.packet.clone();
                if self.controller_down {
                    // Local autonomy: hold uplink at the AP (bounded)
                    // while the controller is down; flushed at resync.
                    if self.aps[from_ap].buffer_uplink(pkt, DEGRADED_UPLINK_CAP) {
                        self.sys.degraded_uplink_buffered += 1;
                    } else {
                        self.sys.degraded_uplink_dropped += 1;
                    }
                    continue;
                }
                // Remember forwarded keys so a rebooted controller can
                // conservatively re-prime its dedup table.
                self.aps[from_ap].note_forwarded_key(Deduplicator::key(pkt.client, pkt.ip_ident));
                self.tunnel_uplink(ctx, from_ap, pkt);
            }
        }

        // Acknowledgement responses and collisions (§5.3.2).
        // Serving AP responds promptly; others add µs-scale backoff.
        resp.clear();
        for &(ap, ..) in heard_by.iter() {
            if !self.ap_associated(ap, client) {
                continue;
            }
            let jitter_us = if Some(ap) == serving {
                self.rng.range(0.0..3.0)
            } else {
                self.rng.range(0.0..100.0)
            };
            resp.push((ap, jitter_us, self.mean_snr(ap, c, now)));
        }
        resp.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut acked_by: Option<usize> = None;
        if let Some(&(first_ap, first_jitter, first_snr)) = resp.first() {
            self.clients[c].metrics.ack_responses += 1;
            // Later responders defer via CCA unless within the detection
            // window; overlapping comparable-power responses collide.
            let collision = resp[1..].iter().any(|&(_, jitter, snr)| {
                jitter - first_jitter < CCA_WINDOW_US && (first_snr - snr).abs() < CAPTURE_MARGIN_DB
            });
            if collision {
                self.clients[c].metrics.ack_collisions += 1;
            } else {
                // The client hears the first response if its own downlink
                // from that AP works at the control rate.
                let mut esnr = self.memo(first_ap, c, now);
                if self.frame_heard(&mut esnr, CONTROL_RATE, ACK_BYTES) {
                    acked_by = Some(first_ap);
                }
            }
        }

        // Client-side retransmission bookkeeping: what the acking AP got is
        // done, the rest goes back on the queue.
        let acked: &[u16] = heard_by
            .iter()
            .find(|&&(ap, ..)| Some(ap) == acked_by)
            .map_or(&[], |&(_, first, end)| &got[first..end]);
        let mut successes = 0u32;
        // Reverse iteration + push_front keeps the surviving entries in
        // their original order at the queue head.
        for mut e in entries.drain(..).rev() {
            if acked.contains(&e.seq) {
                successes += 1;
                continue;
            }
            e.retries += 1;
            if e.retries > UPLINK_RETRY_LIMIT {
                continue;
            }
            if self.departed[c] {
                // The burst spanned a retirement barrier: the unacked
                // datagram crosses the seam instead of re-queueing on the
                // wiped client.
                self.outbox[c].push(SeamPayload::UplinkQueued(e.packet, e.retries));
            } else {
                self.clients[c].uplink_queue.push_front(e);
            }
        }
        let cl = &mut self.clients[c];
        if acked_by.is_some() {
            cl.backoff.on_success();
            for _ in 0..successes {
                cl.ratectl.on_tx_result(now, mcs, true);
            }
        } else {
            cl.backoff.on_failure();
            cl.ratectl.on_tx_result(now, mcs, false);
        }
    }

    /// Emits a rate-limited CSI report from `ap` about client `c`: the
    /// controller's 16-QAM ESNR of the snapshot behind `esnr`, integrated
    /// only once the report is known to leave.
    fn report_csi(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        ap: usize,
        c: usize,
        esnr: &mut EsnrMemo,
        now: SimTime,
    ) {
        if !self.ap_reachable(ap, now) {
            return;
        }
        let drop_p = self.faults.csi_drop_prob(now);
        if drop_p > 0.0 && self.fault_rng.chance(drop_p) {
            return;
        }
        let st = self.aps[ap].client_mut(ClientId(c as u32));
        if st
            .last_csi_report
            .is_some_and(|t| now.saturating_since(t) < CSI_REPORT_INTERVAL)
        {
            return;
        }
        st.last_csi_report = Some(now);
        let report = Ctl::CsiAtController {
            ap,
            client: c,
            esnr_db: esnr.esnr_db(CONTROLLER_MODULATION),
        };
        self.backhaul_send(ctx, 300, false, Ev::Ctl(report));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// Puts an empty uplink burst from client `c` on the air until `end`.
    fn launch(table: &mut InFlight, c: usize, end: SimTime) -> u64 {
        let burst = Burst::ClientBurst {
            client: c,
            entries: Vec::new(),
        };
        let shot = Shot {
            mcs: Mcs(0),
            collided: false,
            start: SimTime::ZERO,
        };
        let span = (Position::default(), Position::default());
        table.insert(burst, shot, end, span, NodeKey::Client(c))
    }

    fn ids(table: &InFlight) -> Vec<u64> {
        table.txs.iter().map(|tx| tx.id).collect()
    }

    #[test]
    fn ids_stay_sorted_across_out_of_order_tx_done() {
        let mut table = InFlight::default();
        for c in 0..4 {
            assert_eq!(launch(&mut table, c, ms(10 * (4 - c as u64))), c as u64);
        }
        // The last launched ends first: TxDone order is 3, 2, 1, 0.
        assert_eq!(table.remove(3).map(|tx| tx.node), Some(NodeKey::Client(3)));
        assert_eq!(table.remove(1).map(|tx| tx.node), Some(NodeKey::Client(1)));
        assert_eq!(ids(&table), [0, 2]);
        // A later launch appends above every id ever handed out.
        assert_eq!(launch(&mut table, 7, ms(50)), 4);
        assert_eq!(ids(&table), [0, 2, 4]);
        // Removal is by id, once.
        assert!(table.remove(1).is_none());
        assert_eq!(table.remove(2).map(|tx| tx.node), Some(NodeKey::Client(2)));
        assert_eq!(ids(&table), [0, 4]);
    }

    #[test]
    fn a_round_sees_only_unfinished_transmissions() {
        let mut table = InFlight::default();
        let ends = [ms(10), ms(20), ms(30)];
        for (c, &end) in ends.iter().enumerate() {
            launch(&mut table, c, end);
        }
        let active = |now| -> Vec<u64> { table.active(now).map(|tx| tx.id).collect() };
        assert_eq!(active(ms(5)), [0, 1, 2]);
        // A round at the very instant a transmission ends no longer counts
        // it, whether or not its TxDone has run yet…
        assert_eq!(active(ms(20)), [2]);
        assert_eq!(active(ms(30)), [] as [u64; 0]);
        // …but the entry is still there for that TxDone to resolve.
        assert_eq!(table.remove(1).map(|tx| tx.end), Some(ms(20)));
    }
}
