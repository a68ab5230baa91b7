//! Spatially sharded worlds: a corridor of picocell clusters advancing in
//! deterministic lockstep (DESIGN.md §6d; the seam handoff is §6e).
//!
//! The paper evaluates one 8-AP road segment; a transit corridor is many
//! such segments, each with its own controller (§6 sketches exactly this
//! multi-controller split). This module models the corridor as a ring of
//! independent [`WgttWorld`] shards — separate radio mediums, backhauls,
//! and controllers — driven by [`wgtt_sim::lockstep`]. The only
//! cross-shard interaction is a vehicle leaving one cluster's coverage and
//! entering the next (the last cluster's the first), which maps onto the
//! lockstep mailbox discipline:
//!
//! * **Within an epoch** every shard runs its own event queue to the
//!   shared horizon. Shards share no state, so worker scheduling order is
//!   invisible.
//! * **At the barrier** boundary crossings are detected by scanning shards
//!   in ascending id and clients in ascending index, staged as
//!   [`Migration`] messages keyed `(sender shard, sender-local sequence)`,
//!   and applied in that fixed total order. Identical staging and
//!   application order at any worker count ⇒ byte-identical results.
//!
//! ## Geometry and the epoch horizon
//!
//! Every shard uses the same local deployment frame spanning `[lo, hi]`.
//! Conceptually the corridor concatenates shards with an isolation gap of
//! `gap_m` between the last AP of one cluster and the first AP of the
//! next, so clusters never interact over the air. A client *exits* its
//! shard when its local x passes `hi + gap_m − entry_lead_m`, and is
//! admitted to the next shard at local `lo − entry_lead_m + overshoot`,
//! where `overshoot` is how far past the exit threshold the barrier found
//! it — positions are translated exactly, never snapped, so the epoch
//! length affects only *when* the handoff is applied, not *where* the
//! client re-appears.
//!
//! The safe epoch horizon bounds that detection delay: a client moving at
//! `v` overshoots by at most `v·epoch` before the barrier catches it, and
//! [`ShardedScenario::safe_epoch`] keeps that below half the inter-cluster
//! gap (`epoch ≤ (gap − lead) / 2v`, additionally capped at 50 ms), so a
//! migrant always re-appears well before the destination's first AP and
//! rides the normal probe → CSI → selection association ramp. Worker
//! count never enters this derivation — the epoch is a scenario constant.
//!
//! ## The seam is a lossy channel (DESIGN.md §6f)
//!
//! Inter-controller handoff rides the same backhaul the fault schedules
//! impair, so the transfer is the two-phase prepare/commit protocol of
//! [`crate::seam`] — retained records, deterministic retry, abort and
//! readopt, idempotent term-fenced import — rather than a function call:
//! a sustained seam outage degrades to *late* handoffs, never lost ones.
//! Every protocol decision is a [`SeamEngine`] verdict. This module is the
//! engine's transport and its hands: `Corridor` carries the frames (one
//! epoch of latency, loss and duplication drawn from a dedicated seam RNG
//! fork, consumed only inside an active fault window) and applies each
//! verdict to the shard worlds, all inside the serial barrier — so the
//! machinery is worker-count invariant like everything else there.

use crate::config::SystemConfig;
use crate::metrics::SystemMetrics;
use crate::oracle::helper_count;
use crate::runner::{ClientSpec, FlowSpec, Scenario, TrajectorySpec};
use crate::seam::{CommitVerdict, Due, Handoff, PrepareVerdict, SeamEngine};
use crate::world::{
    prime_migrant_events, Ev, MigrantFlow, MigrantSpec, MigrationRecord, Seam, SeamEntry, WgttWorld,
};
use std::collections::{BTreeMap, HashMap};
use wgtt_phy::{mph_to_mps, Deployment};
use wgtt_sim::lockstep::{self, LockstepShard};
use wgtt_sim::{pool, FaultSchedule, SimDuration, SimRng, SimTime, Simulator};

/// Hard ceiling on the lockstep epoch: even when the geometry would allow
/// coarser steps, barriers at least this often keep migration latency and
/// the per-epoch work granularity predictable.
const EPOCH_CAP: SimDuration = SimDuration::from_millis(50);

/// A corridor of identical picocell clusters with through traffic.
#[derive(Debug, Clone)]
pub struct ShardedScenario {
    /// Per-cluster system configuration (all clusters identical).
    pub config: SystemConfig,
    /// Number of clusters in the corridor.
    pub shards: usize,
    /// Vehicles initially resident in each cluster.
    pub clients_per_shard: usize,
    /// Vehicle speed, mph (all traffic drives +x).
    pub mph: f64,
    /// Bumper-to-bumper spacing between successive vehicles, m.
    pub headway_m: f64,
    /// Flows attached to every vehicle (UDP only — TCP does not migrate).
    pub flows: Vec<MigrantFlow>,
    /// Traffic duration.
    pub duration: SimDuration,
    /// Root seed; shard `i` derives its own world seed from it.
    pub seed: u64,
    /// Isolation gap between the last AP of one cluster and the first AP
    /// of the next, m. Must comfortably exceed radio range.
    pub gap_m: f64,
    /// How far before a cluster's first AP a migrant is re-admitted, m.
    pub entry_lead_m: f64,
    /// Per-shard fault schedules (empty = no faults anywhere; otherwise
    /// exactly one entry per shard).
    pub shard_faults: Vec<FaultSchedule>,
    /// `true` disables the inter-controller migration protocol: migrants
    /// are admitted with a fresh identity and the exported record is
    /// counted as seam loss. This is the pre-handoff behaviour, kept as a
    /// measurable shim — experiments and tests compare it against the real
    /// transfer to show what the isolation gap was hiding.
    pub naive_handoff: bool,
}

/// A [`ShardedScenario`] that cannot run: the geometry or fault wiring is
/// inconsistent. Produced by [`ShardedScenario::validate`] so callers fail
/// at construction with a message naming the offending values, instead of
/// panicking deep inside `safe_epoch` at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

impl ShardedScenario {
    /// A ring corridor with the given shape and bulk downlink UDP per
    /// vehicle — the canonical lockstep workload.
    pub fn ring_corridor(
        config: SystemConfig,
        shards: usize,
        clients_per_shard: usize,
        mph: f64,
        rate_bps: u64,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        ShardedScenario {
            config,
            shards,
            clients_per_shard,
            mph,
            headway_m: 8.0,
            flows: vec![MigrantFlow {
                rate_bps,
                payload: 1472,
                uplink: false,
            }],
            duration,
            seed,
            gap_m: 40.0,
            entry_lead_m: 4.0,
            shard_faults: Vec::new(),
            naive_handoff: false,
        }
    }

    /// Checks the scenario for consistency. [`run_sharded`] calls this on
    /// entry; callers building scenarios programmatically should call it
    /// at construction so a bad geometry is reported where it was written.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.shards < 1 {
            return Err(ScenarioError("need at least one shard".into()));
        }
        if self.gap_m <= self.entry_lead_m {
            return Err(ScenarioError(format!(
                "inter-shard gap ({} m) must exceed the entry lead ({} m): \
                 the guard distance gap − lead bounds how far a vehicle can \
                 overshoot the boundary before a barrier catches it, and a \
                 non-positive guard admits no safe epoch",
                self.gap_m, self.entry_lead_m
            )));
        }
        if !self.shard_faults.is_empty() && self.shard_faults.len() != self.shards {
            return Err(ScenarioError(format!(
                "shard_faults must be empty or provide one schedule per \
                 shard (got {} schedules for {} shards)",
                self.shard_faults.len(),
                self.shards
            )));
        }
        self.config.migration.validate().map_err(ScenarioError)
    }

    /// The derived safe epoch: `min(50 ms, (gap − lead) / 2v)` (see the
    /// module docs for why). The guard distance is positive for any
    /// scenario that passes [`Self::validate`]; an invalid geometry
    /// re-raises that validation error here rather than dividing by a
    /// non-positive guard.
    pub fn safe_epoch(&self) -> SimDuration {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        let v = mph_to_mps(self.mph).max(0.1);
        let guard_m = self.gap_m - self.entry_lead_m;
        EPOCH_CAP.min(SimDuration::from_secs_f64(guard_m / (2.0 * v)))
    }

    /// Shard `i` as an ordinary scenario: `clients_per_shard` residents
    /// `headway_m` apart, the first `entry_lead_m` before the cluster's
    /// first AP, each with every flow, under shard `i`'s seed and faults.
    pub fn cluster(&self, i: usize) -> Scenario {
        let flows: Vec<FlowSpec> = self.flows.iter().map(FlowSpec::from).collect();
        let clients = (0..self.clients_per_shard)
            .map(|j| ClientSpec {
                trajectory: TrajectorySpec::DriveByOffset {
                    mph: self.mph,
                    lead_in_m: self.entry_lead_m,
                    offset_m: j as f64 * self.headway_m,
                    far_lane: false,
                },
                flows: flows.clone(),
            })
            .collect();
        Scenario {
            config: self.config.clone(),
            clients,
            duration: self.duration,
            seed: shard_seed(self.seed, i),
            log_deliveries: false,
            flow_start: SimDuration::from_millis(1),
            faults: self.shard_faults.get(i).cloned().unwrap_or_default(),
        }
    }
}

/// One cluster plus its event clock.
struct Shard {
    sim: Simulator<WgttWorld>,
}

impl LockstepShard for Shard {
    fn advance_to(&mut self, horizon: SimTime) {
        self.sim.run_until(horizon);
    }
}

impl Shard {
    /// Charges `entries` as seam loss, in packets and wire bytes.
    fn lose(&mut self, entries: &[SeamEntry]) {
        let bytes = entries
            .iter()
            .map(|e| e.payload.packet().len_bytes as u64)
            .sum();
        self.sim
            .world_mut()
            .count_seam_loss(entries.len() as u64, bytes);
    }

    /// Hands seam datagrams to local client `c`, scheduling the flush
    /// the world asks for.
    fn deposit(&mut self, now: SimTime, c: usize, entries: Vec<SeamEntry>) {
        if self.sim.world_mut().deposit_seam(c, entries) {
            self.sim
                .schedule_at(now, Ev::Seam(Seam::MigrantFlush { client: c }));
        }
    }
}

/// One frame of the two-phase seam protocol. Frames sent at one barrier
/// deliver at the next — the seam has a one-epoch one-way latency, riding
/// the same mailbox discipline as the lockstep contract itself.
#[derive(Debug, Clone)]
enum SeamMsg {
    /// Phase 1, source → destination: the full handoff record. Every
    /// retransmit re-stamps `term`, the source controller's failover term
    /// at send time.
    Prepare {
        seq: u64,
        term: u32,
        handoff: Handoff<Exported>,
    },
    /// Phase 2, destination → source: the admission receipt, carrying the
    /// destination-local index so the source can install the route.
    Commit { seq: u64, from: usize, local: usize },
    /// Residue chasing a committed migration: outbox datagrams that landed
    /// at a shard after their client moved on.
    Forward { fid: u64, fwd: Forward },
    /// Receipt for a [`SeamMsg::Forward`], addressed back to its sender.
    ForwardAck { fid: u64, src: usize },
}

/// What the source retains of an exported client until the commit lands
/// — the crash-safety anchor: until then it can readopt the client
/// bit-exactly — and what every prepare carries.
#[derive(Debug, Clone)]
struct Exported {
    spec: MigrantSpec,
    state: MigrationRecord,
    /// Barrier of the export. The destination advances the entry position
    /// by the limbo time so positions stay exact no matter how many
    /// retries the prepare needed.
    at: SimTime,
}

/// A batch of residue sent by shard `src` to `dest`, a (shard, local
/// client index) pair like the `route` entries it comes from.
#[derive(Debug, Clone)]
struct Forward {
    src: usize,
    dest: (usize, usize),
    entries: Vec<SeamEntry>,
}

/// The corridor at a barrier: the seam channel (frames in flight, the
/// lossy send), the [`SeamEngine`] and the effects of its verdicts on the
/// shards. A fault-free run draws nothing from `rng`.
struct Corridor<'a> {
    scenario: &'a ShardedScenario,
    /// Local x past which a client has left its shard.
    exit_x: f64,
    /// How a client that just reached `exit_x` re-appears in the next
    /// shard; one found further along enters as much further in.
    entry: MigrantSpec,
    /// (shard, retired local index) → (shard, local index) of the client's
    /// next hop, installed when a handoff commits. Seam datagrams captured
    /// after a client left follow this chain to wherever it lives now.
    route: HashMap<(usize, usize), (usize, usize)>,
    seam: SeamEngine<Exported, Forward>,
    /// Outbox datagrams drained while handoff `seq` was un-committed. They
    /// ride to the destination as a forward once the commit lands, or
    /// return to the client on abort.
    trailing: BTreeMap<u64, Vec<SeamEntry>>,
    inflight: Vec<SeamMsg>,
    rng: SimRng,
    migrations: Vec<Migration>,
}

impl<'a> Corridor<'a> {
    /// The corridor of `scenario`, whose every cluster is laid out as `dep`.
    fn new(scenario: &'a ShardedScenario, dep: &Deployment) -> Self {
        let (lo, hi) = dep.extent();
        Corridor {
            scenario,
            exit_x: hi + scenario.gap_m - scenario.entry_lead_m,
            entry: MigrantSpec {
                entry_x: lo - scenario.entry_lead_m,
                lane_y: dep.lane_near_y,
                speed_mps: mph_to_mps(scenario.mph),
                flows: scenario.flows.clone(),
            },
            route: HashMap::new(),
            seam: SeamEngine::default(),
            trailing: BTreeMap::new(),
            inflight: Vec::new(),
            rng: SimRng::new(scenario.seed).fork("seam"),
            migrations: Vec::new(),
        }
    }

    /// The serial barrier. (The naive shim exports nothing, so for it
    /// steps 1 and 3 find nothing to do and step 4 no one to forward to.)
    fn at_barrier(&mut self, shards: &mut [&mut Shard], now: SimTime) {
        // Step 1: deliver every frame sent at the previous barrier, in
        // send order — prepares admit migrants, commits release retained
        // records, forwards deposit chased residue. The responses wait
        // for the next barrier.
        for msg in std::mem::take(&mut self.inflight) {
            self.deliver(shards, now, msg);
        }
        self.export_crossings(shards, now);
        self.sweep(shards, now);
        self.drain_outboxes(shards, now);
    }

    /// Sends a frame through the seam channel under the *sending* shard's
    /// migration fault windows: a loss draw first (the frame vanishes),
    /// then a duplication draw (two copies enter flight).
    fn send(&mut self, shards: &[&mut Shard], sender: usize, now: SimTime, msg: SeamMsg) {
        let faults = &shards[sender].sim.world().faults;
        let loss = faults.migration_loss_prob(now);
        let dup = faults.migration_dup_prob(now);
        if loss > 0.0 && self.rng.chance(loss) {
            return;
        }
        if dup > 0.0 && self.rng.chance(dup) {
            self.inflight.push(msg.clone());
        }
        self.inflight.push(msg);
    }

    /// (Re-)sends the prepare of retained handoff `seq`, stamped with the
    /// source controller's current term.
    fn send_prepare(
        &mut self,
        shards: &[&mut Shard],
        seq: u64,
        handoff: Handoff<Exported>,
        now: SimTime,
    ) {
        let from = handoff.from;
        let term = shards[from].sim.world().ctrl.engine.term();
        let msg = SeamMsg::Prepare { seq, term, handoff };
        self.send(shards, from, now, msg);
    }

    /// Registers a residue forward and sends it (acked, retried).
    fn forward(&mut self, shards: &[&mut Shard], now: SimTime, fwd: Forward) {
        let src = fwd.src;
        let fid = self
            .seam
            .forward(now, &self.scenario.config.migration, fwd.clone());
        self.send(shards, src, now, SeamMsg::Forward { fid, fwd });
    }

    fn deliver(&mut self, shards: &mut [&mut Shard], now: SimTime, msg: SeamMsg) {
        match msg {
            SeamMsg::Prepare {
                seq,
                term,
                handoff: mut h,
            } => {
                let dest = &mut shards[h.to];
                let local = match self.seam.on_prepare(seq, term, &h) {
                    PrepareVerdict::StaleTerm => {
                        dest.sim.world_mut().sys.stale_term_dropped += 1;
                        return;
                    }
                    PrepareVerdict::Duplicate { local } => {
                        dest.sim.world_mut().sys.migration_dups_dropped += 1;
                        local
                    }
                    PrepareVerdict::Rejoin { local } => {
                        // Heal the transient split: merge the monotone
                        // state into the live incarnation.
                        let world = dest.sim.world_mut();
                        if world.reimport_migrant(local, &h.record.state) {
                            let flush = Ev::Seam(Seam::MigrantFlush { client: local });
                            dest.sim.schedule_at(now, flush);
                        }
                        local
                    }
                    PrepareVerdict::Admit => {
                        // The client kept moving while the prepare (and
                        // any retries) were in flight.
                        let Exported { spec, state, at } = &mut h.record;
                        spec.entry_x += spec.speed_mps * (now - *at).as_secs_f64();
                        let local = dest.sim.world_mut().admit_migrant(spec, Some(state), now);
                        prime_migrant_events(&mut dest.sim, local);
                        self.seam.admitted(seq, &h, local);
                        local
                    }
                };
                let (from, to) = (h.from, h.to);
                self.send(shards, to, now, SeamMsg::Commit { seq, from, local });
            }
            SeamMsg::Commit { seq, from, local } => match self.seam.on_commit(seq) {
                CommitVerdict::Release(h) => {
                    self.route.insert((from, h.src_client), (h.to, local));
                    if let Some(entries) = self.trailing.remove(&seq) {
                        let dest = (h.to, local);
                        let fwd = Forward {
                            src: from,
                            dest,
                            entries,
                        };
                        self.forward(shards, now, fwd);
                    }
                }
                CommitVerdict::AfterAbort => {}
                CommitVerdict::Duplicate => {
                    shards[from].sim.world_mut().sys.migration_dups_dropped += 1;
                }
            },
            SeamMsg::Forward { fid, fwd } => {
                let (to, local) = fwd.dest;
                if self.seam.on_forward(fid) {
                    shards[to].deposit(now, local, fwd.entries);
                } else {
                    shards[to].sim.world_mut().sys.migration_dups_dropped += 1;
                }
                let ack = SeamMsg::ForwardAck { fid, src: fwd.src };
                self.send(shards, to, now, ack);
            }
            SeamMsg::ForwardAck { fid, src } => {
                if !self.seam.on_forward_ack(fid) {
                    shards[src].sim.world_mut().sys.migration_dups_dropped += 1;
                }
            }
        }
    }

    /// Step 2: stages boundary crossings — ascending sender shard id,
    /// ascending client index, the (sender, sequence) total order of the
    /// lockstep contract — and exports them serially in that order: retire
    /// at the source and start the two-phase handoff. The naive shim
    /// admits a fresh identity immediately and drops the record, charging
    /// its residue as seam loss.
    fn export_crossings(&mut self, shards: &mut [&mut Shard], now: SimTime) {
        let n = shards.len();
        let mut staged: Vec<(usize, usize)> = Vec::new(); // (from, local client)
        for (i, shard) in shards.iter().enumerate() {
            let w = shard.sim.world();
            for c in 0..w.clients.len() {
                if w.is_resident(c) && w.clients[c].position(now).x >= self.exit_x {
                    staged.push((i, c));
                }
            }
        }
        for (from, c) in staged {
            let to = (from + 1) % n;
            self.migrations.push(Migration { at: now, from, to });
            let overshoot = shards[from].sim.world().clients[c].position(now).x - self.exit_x;
            let state = shards[from].sim.world_mut().retire_client(c, now);
            let mut spec = self.entry.clone();
            spec.entry_x += overshoot;
            if self.scenario.naive_handoff {
                let local = shards[to].sim.world_mut().admit_migrant(&spec, None, now);
                prime_migrant_events(&mut shards[to].sim, local);
                shards[from].lose(&state.residue);
                continue;
            }
            let handoff = Handoff {
                from,
                to,
                src_client: c,
                record: Exported {
                    spec,
                    state,
                    at: now,
                },
            };
            // The engine retains the record itself; the prepare carries a copy.
            let copy = handoff.clone();
            let seq = self
                .seam
                .export(now, &self.scenario.config.migration, handoff);
            self.send_prepare(shards, seq, copy, now);
        }
    }

    /// Step 3: acts on every retry timer that ran out. An overdue prepare
    /// or forward is re-sent; past the budget a handoff aborts (the source
    /// readopts the client — graceful degradation) and a forward surfaces
    /// as seam loss at its origin.
    fn sweep(&mut self, shards: &mut [&mut Shard], now: SimTime) {
        for due in self.seam.due(now, &self.scenario.config.migration) {
            match due {
                Due::Resend { seq, handoff, .. } => {
                    shards[handoff.from].sim.world_mut().sys.migration_retries += 1;
                    self.send_prepare(shards, seq, handoff, now);
                }
                Due::Abort(seq, h) => {
                    let source = &mut shards[h.from];
                    let w = source.sim.world_mut();
                    w.sys.migration_aborts += 1;
                    w.readopt_client(h.src_client, &h.record.state);
                    if let Some(entries) = self.trailing.remove(&seq) {
                        source.deposit(now, h.src_client, entries);
                    }
                    // Retirement let the client's timer chains die
                    // unrescheduled; relaunch them.
                    prime_migrant_events(&mut source.sim, h.src_client);
                }
                Due::ResendForward(fid, fwd) => {
                    shards[fwd.src].sim.world_mut().sys.migration_retries += 1;
                    self.send(shards, fwd.src, now, SeamMsg::Forward { fid, fwd });
                }
                Due::ForwardLost(fwd) => shards[fwd.src].lose(&fwd.entries),
            }
        }
    }

    /// Step 4: drains seam outboxes — datagrams that reached a shard after
    /// their client had already left (downlink still in flight through the
    /// backhaul, late uplink copies, unacked-requeue spill) — ascending
    /// (shard, client). A committed destination gets an acked forward, an
    /// un-committed handoff accumulates the batch as trailing residue, and
    /// a readopted client takes its datagrams back directly.
    fn drain_outboxes(&mut self, shards: &mut [&mut Shard], now: SimTime) {
        for from in 0..shards.len() {
            let drained = shards[from].sim.world_mut().drain_outbox();
            for (c, entries) in drained {
                let mut home = (from, c);
                while let Some(&next) = self.route.get(&home) {
                    home = next;
                }
                if home != (from, c) {
                    let fwd = Forward {
                        src: from,
                        dest: home,
                        entries,
                    };
                    self.forward(shards, now, fwd);
                } else if let Some((seq, _)) = self.seam.pending_for(from, c) {
                    self.trailing.entry(seq).or_default().extend(entries);
                } else if shards[from].sim.world().is_resident(c) {
                    // Aborted and readopted.
                    shards[from].deposit(now, c, entries);
                } else {
                    // Departed with no route, no pending handoff, and no
                    // readoption: the naive shim has no forwarding channel.
                    shards[from].lose(&entries);
                }
            }
        }
    }
}

/// One boundary crossing (for assertions and reports). Under
/// the two-phase protocol this marks the *export* — the retirement and
/// prepare send; the destination admits when the prepare delivers, at
/// least one barrier later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Barrier at which the client was exported.
    pub at: SimTime,
    /// Source shard.
    pub from: usize,
    /// Destination shard: the next one along the ring.
    pub to: usize,
}

/// Outcome of a sharded run.
pub struct ShardedRunResult {
    /// Final per-shard worlds, ascending shard id (all metrics inside).
    pub worlds: Vec<WgttWorld>,
    /// Events processed across all shards.
    pub events: u64,
    /// All shards' counters merged in ascending shard id order.
    pub sys: SystemMetrics,
    /// Applied boundary crossings, in application order.
    pub migrations: Vec<Migration>,
    /// Host wall-clock spent inside the lockstep drive, including the
    /// end-of-run drain of oracle samples still queued for evaluation.
    pub wall: std::time::Duration,
    /// Traffic duration that was simulated.
    pub duration: SimDuration,
}

impl ShardedRunResult {
    /// The run's digest ([`crate::digest`]): the migration log, every
    /// shard's world through the same per-world writer as
    /// [`RunResult::fingerprint`](crate::runner::RunResult::fingerprint),
    /// and the merged counters. Byte-identical across worker counts by the
    /// lockstep contract — the determinism suites diff this string.
    pub fn fingerprint(&self) -> String {
        crate::digest::of_sharded(self)
    }
}

/// Deterministic per-shard seed derivation (splitmix64 over the root
/// seed + shard id) — shards get unrelated channel realizations without
/// consuming any RNG stream.
fn shard_seed(root: u64, shard: usize) -> u64 {
    let mut z = root
        .wrapping_add(0x9E3779B97F4A7C15)
        .wrapping_add((shard as u64).wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Builds and runs a sharded corridor on `workers` lockstep threads.
///
/// `workers = 1` is the serial reference; any other count must produce a
/// byte-identical [`ShardedRunResult::fingerprint`] — enforced by the
/// `lockstep_determinism` suite and the CI worker matrix.
///
/// # Panics
/// On a scenario [`ShardedScenario::validate`] rejects, with its message;
/// [`try_run_sharded`] returns it instead.
pub fn run_sharded(scenario: &ShardedScenario, workers: usize) -> ShardedRunResult {
    try_run_sharded(scenario, workers).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_sharded`], reporting an invalid scenario instead of panicking.
pub fn try_run_sharded(
    scenario: &ShardedScenario,
    workers: usize,
) -> Result<ShardedRunResult, ScenarioError> {
    run_sharded_impl(scenario, workers, None)
}

/// [`run_sharded`] with exactly `helpers` oracle helper threads — the
/// sharded twin of
/// [`run_with_oracle_helpers`](crate::runner::run_with_oracle_helpers).
#[doc(hidden)]
pub fn run_sharded_with_oracle_helpers(
    scenario: &ShardedScenario,
    workers: usize,
    helpers: usize,
) -> ShardedRunResult {
    run_sharded_impl(scenario, workers, Some(helpers)).unwrap_or_else(|e| panic!("{e}"))
}

fn run_sharded_impl(
    scenario: &ShardedScenario,
    workers: usize,
    oracle_helpers: Option<usize>,
) -> Result<ShardedRunResult, ScenarioError> {
    scenario.validate()?;
    let traffic_until = SimTime::ZERO + scenario.duration;
    let mut shards: Vec<Shard> = (0..scenario.shards)
        .map(|i| Shard {
            sim: scenario.cluster(i).build(),
        })
        .collect();
    let mut corridor = Corridor::new(scenario, &shards[0].sim.world().deployment);
    // Run past the traffic end so in-flight packets settle (same margin as
    // the unsharded runner).
    let end = traffic_until + SimDuration::from_millis(500);
    let epoch = scenario.safe_epoch();
    let loop_threads = workers.clamp(1, scenario.shards);
    let helpers = oracle_helpers.unwrap_or_else(|| helper_count(loop_threads, pool::cores()));
    let mut cells: Vec<&mut Shard> = shards.iter_mut().collect();
    let wall = pool::scope(loop_threads + helpers, lockstep::advance, |pool| {
        if helpers > 0 {
            for shard in cells.iter_mut() {
                shard.sim.world_mut().attach_oracle(pool.jobs());
            }
        }
        let started = std::time::Instant::now();
        lockstep::drive_on(
            pool,
            &mut cells,
            workers,
            SimTime::ZERO,
            end,
            epoch,
            |shards, now| corridor.at_barrier(shards, now),
        );
        // Every shard, retired clients and all: a sample stays with the
        // world that recorded it, whose metrics callers sum.
        for shard in cells.iter_mut() {
            shard.sim.world_mut().drain_oracle();
        }
        started.elapsed()
    });

    let mut events = 0u64;
    let worlds: Vec<WgttWorld> = shards
        .into_iter()
        .map(|s| {
            events += s.sim.events_processed();
            s.sim.into_world()
        })
        .collect();
    let mut sys = SystemMetrics::default();
    for w in &worlds {
        sys.merge(&w.sys);
    }
    Ok(ShardedRunResult {
        worlds,
        events,
        sys,
        migrations: corridor.migrations,
        wall,
        duration: scenario.duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::digest::assert_same;

    /// A small, fast corridor that still forces boundary crossings: short
    /// clusters, one vehicle each, fast traffic.
    fn tiny() -> ShardedScenario {
        let mut cfg = SystemConfig::default();
        cfg.deployment.num_aps = 4;
        ShardedScenario::ring_corridor(cfg, 2, 1, 35.0, 2_000_000, SimDuration::from_secs(6), 42)
    }

    #[test]
    fn vehicles_cross_shard_boundaries() {
        let s = tiny();
        let r = run_sharded(&s, 1);
        assert!(
            !r.migrations.is_empty(),
            "6 s at 35 mph must cross a 22.5 m cluster + 40 m gap"
        );
        assert_eq!(r.sys.migrated_out, r.migrations.len() as u64);
        // Admission happens when the prepare delivers, one barrier after
        // the export — so `migrated_in` trails by at most the handoffs
        // still in flight at the end of the run (one per vehicle).
        let crossings = r.migrations.len() as u64;
        let vehicles = 2;
        assert!(r.sys.migrated_in <= crossings);
        assert!(
            r.sys.migrated_in + vehicles >= crossings,
            "migrated_in {} lags crossings {} by more than the fleet",
            r.sys.migrated_in,
            crossings
        );
        assert!(r.sys.migrated_in > 0, "no handoff ever committed");
        for m in &r.migrations {
            assert_eq!(m.to, (m.from + 1) % s.shards, "the ring drops no vehicle");
        }
    }

    #[test]
    fn fingerprint_is_worker_count_invariant() {
        let scenario = tiny();
        let reference = run_sharded(&scenario, 1).fingerprint();
        for workers in [2usize, 4] {
            let got = run_sharded(&scenario, workers).fingerprint();
            assert_same(&format!("workers={workers} vs serial"), &got, &reference);
        }
    }

    #[test]
    fn validate_checks_both_sides_of_the_guard_boundary() {
        // Just above the lead: a positive guard distance exists → valid.
        let mut ok = tiny();
        ok.gap_m = 4.5;
        ok.entry_lead_m = 4.0;
        assert!(ok.validate().is_ok());
        assert!(ok.safe_epoch() > SimDuration::ZERO);
        // Equal: zero guard → rejected with both values in the message.
        let mut eq = tiny();
        eq.gap_m = 4.0;
        eq.entry_lead_m = 4.0;
        let err = eq.validate().unwrap_err().to_string();
        assert!(err.contains("gap (4 m)"), "message names the gap: {err}");
        assert!(
            err.contains("entry lead (4 m)"),
            "message names the lead: {err}"
        );
        // Below: negative guard → rejected too.
        let mut neg = tiny();
        neg.gap_m = 2.0;
        neg.entry_lead_m = 4.0;
        assert!(neg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "must exceed the entry lead")]
    fn safe_epoch_reports_invalid_geometry_descriptively() {
        let mut s = tiny();
        s.gap_m = 1.0;
        s.entry_lead_m = 4.0;
        let _ = s.safe_epoch();
    }

    #[test]
    fn mismatched_fault_schedules_are_rejected() {
        let mut s = tiny();
        s.shard_faults = vec![FaultSchedule::new()]; // 1 schedule, 2 shards
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("1 schedules for 2 shards"), "{err}");
    }

    #[test]
    fn migration_transfers_residue_where_naive_handoff_loses_it() {
        // Real transfer: every datagram caught mid-flight at a boundary
        // crossing is re-enqueued at the destination — zero seam loss.
        let real = run_sharded(&tiny(), 1);
        assert!(
            real.sys.residue_transferred > 0,
            "a 2 Mbit/s stream crossing a boundary must strand some backlog"
        );
        assert_eq!(
            real.sys.departed_data_drops, 0,
            "the migration protocol must not lose seam datagrams"
        );
        assert_eq!(real.sys.departed_data_bytes, 0);
        // The naive shim (pre-handoff behaviour): the same crossings drop
        // the record, and the loss is now visible in the metrics instead
        // of hidden by the isolation gap.
        let mut shim = tiny();
        shim.naive_handoff = true;
        let naive = run_sharded(&shim, 1);
        assert!(
            naive.sys.departed_data_drops > 0,
            "the no-transfer shim must show the seam loss it causes"
        );
        assert!(naive.sys.departed_data_bytes > 0);
        assert_eq!(naive.sys.residue_transferred, 0);
    }

    #[test]
    fn naive_fingerprint_is_worker_count_invariant_too() {
        let mut s = tiny();
        s.naive_handoff = true;
        let reference = run_sharded(&s, 1).fingerprint();
        let got = run_sharded(&s, 2).fingerprint();
        assert_same("2 workers vs serial", &got, &reference);
    }

    /// `tiny()` with seam loss and duplication windows covering the whole
    /// run (settle margin included) on every shard.
    fn seam_faulted(loss: f64, dup: f64) -> ShardedScenario {
        let mut s = tiny();
        let horizon = SimTime::ZERO + s.duration + SimDuration::from_secs(1);
        let mut fs = FaultSchedule::new();
        if loss > 0.0 {
            fs = fs.with_migration_loss(SimTime::ZERO, horizon, loss);
        }
        if dup > 0.0 {
            fs = fs.with_migration_dup(SimTime::ZERO, horizon, dup);
        }
        s.shard_faults = vec![fs.clone(), fs];
        s
    }

    #[test]
    fn seam_faults_are_retried_deduped_and_lose_nothing() {
        let s = seam_faulted(0.5, 0.5);
        let r = run_sharded(&s, 1);
        assert!(
            r.sys.migration_retries > 0,
            "50% seam loss must force prepare retries"
        );
        assert!(
            r.sys.migration_dups_dropped > 0,
            "50% duplication must hit the idempotence ledger"
        );
        assert_eq!(
            r.sys.departed_data_drops, 0,
            "the two-phase handoff must not lose seam data under loss+dup"
        );
        assert_eq!(r.sys.departed_data_bytes, 0);
        assert!(r.sys.migrated_in > 0, "no handoff ever committed");
        // The protocol's RNG draws happen only in the serial barrier, so
        // the faulty run is still worker-count invariant.
        let two = run_sharded(&s, 2).fingerprint();
        assert_same("2 workers vs serial", &two, &r.fingerprint());
    }

    #[test]
    fn sustained_seam_outage_aborts_readopts_and_recovers() {
        let mut s = tiny();
        // Fast retry budget so aborts fit inside the outage window.
        s.config.migration.retry_timeout = SimDuration::from_millis(50);
        s.config.migration.backoff = 1.0;
        s.config.migration.max_attempts = 3;
        // Total seam blackout covering the first boundary crossings
        // (~4.0 s at 35 mph), healing before the run ends.
        let fs = FaultSchedule::new().with_migration_loss(
            SimTime::from_secs(3),
            SimTime::from_secs(5),
            1.0,
        );
        s.shard_faults = vec![fs.clone(), fs];
        let r = run_sharded(&s, 1);
        assert!(
            r.sys.migration_aborts > 0,
            "a total outage outlasting the retry budget must abort"
        );
        assert_eq!(
            r.sys.departed_data_drops, 0,
            "aborted handoffs readopt the client — nothing is lost"
        );
        assert_eq!(r.sys.departed_data_bytes, 0);
        // Once the seam heals, the readopted vehicles re-export at the
        // next barrier and the handoff completes.
        assert!(
            r.sys.migrated_in > 0,
            "readopted clients must migrate after the outage heals"
        );
        let two = run_sharded(&s, 2).fingerprint();
        assert_same("2 workers vs serial", &two, &r.fingerprint());
    }

    #[test]
    fn degenerate_migration_policy_is_rejected() {
        let mut s = tiny();
        s.config.migration.max_attempts = 0;
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("max_attempts"), "{err}");
        // The fallible runner returns the same error instead of running.
        let refused = try_run_sharded(&s, 1).err().expect("must not run");
        assert_eq!(refused.to_string(), err);
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn run_sharded_panics_with_the_validation_message() {
        let mut s = tiny();
        s.config.migration.max_attempts = 0;
        let _ = run_sharded(&s, 1);
    }

    #[test]
    fn safe_epoch_respects_geometry_and_cap() {
        let s = tiny();
        let e = s.safe_epoch();
        // 36 m guard at 35 mph (15.6 m/s): (36 / 2·15.6) s ≈ 1.15 s,
        // so the 50 ms cap binds.
        assert_eq!(e, SimDuration::from_millis(50));
        let mut slow = s;
        slow.gap_m = 5.0;
        slow.entry_lead_m = 4.0;
        // 1 m guard at 15.6 m/s → 32 ms, under the cap.
        let e2 = slow.safe_epoch();
        assert!(e2 < SimDuration::from_millis(50));
        assert!(e2 > SimDuration::from_millis(20));
    }
}
