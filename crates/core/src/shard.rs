//! Spatially sharded worlds: a corridor of picocell clusters advancing in
//! deterministic lockstep (ROADMAP items 2 and 3).
//!
//! The paper evaluates one 8-AP road segment; a transit corridor is many
//! such segments, each with its own controller (§6 sketches exactly this
//! multi-controller split). This module models the corridor as a chain of
//! independent [`WgttWorld`] shards — separate radio mediums, backhauls,
//! and controllers — driven by [`wgtt_sim::lockstep`]. The only
//! cross-shard interaction is a vehicle leaving one cluster's coverage and
//! entering the next, which maps onto the lockstep mailbox discipline:
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
//! impair, so the transfer is a two-phase protocol rather than a function
//! call. The source retires the client, sends an idempotent, term-stamped
//! [`SeamMsg::Prepare`], and *retains* the full record until the
//! destination's [`SeamMsg::Commit`] lands; un-acked prepares re-send on
//! a deterministic exponential backoff
//! ([`MigrationConfig`](crate::config::MigrationConfig)), and when the
//! destination stays unreachable past the retry budget the source aborts
//! and readopts the client — it re-exports at its next boundary pass, so
//! a sustained seam outage degrades to *late* handoffs, never lost ones.
//! Imports are idempotent (a double-applied prepare is a bit-identical
//! no-op answered with a fresh commit) and term-fenced, so duplicated or
//! delayed frames and mid-migration controller failovers cannot
//! split-brain a client. All protocol state lives in the barrier closure
//! and every random draw comes from a dedicated seam RNG fork consumed
//! only inside an active fault window, so the machinery is worker-count
//! invariant like everything else at the barrier.

use crate::config::{MigrationConfig, SystemConfig};
use crate::metrics::SystemMetrics;
use crate::world::{
    prime_events, prime_migrant_events, Ev, MigrantFlow, MigrantSpec, MigrationRecord, SeamEntry,
    WgttWorld,
};
use std::collections::{BTreeMap, BTreeSet};
use wgtt_phy::mobility::ConstantSpeed;
use wgtt_phy::{mph_to_mps, Position, Trajectory};
use wgtt_sim::lockstep::{drive, LockstepShard};
use wgtt_sim::{FaultSchedule, SimDuration, SimRng, SimTime, Simulator};

/// Hard ceiling on the lockstep epoch: even when the geometry would allow
/// coarser steps, barriers at least this often keep migration latency and
/// the scaling experiment's work granularity predictable.
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
    /// Lockstep epoch override; `None` derives [`Self::safe_epoch`].
    pub epoch: Option<SimDuration>,
    /// `true` wraps the corridor into a ring: vehicles leaving the last
    /// cluster re-enter the first, keeping per-shard load constant (the
    /// scaling experiment uses this).
    pub ring: bool,
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
            epoch: None,
            ring: true,
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
        if let Err(e) = self.config.migration.validate() {
            return Err(ScenarioError(e));
        }
        Ok(())
    }

    /// The derived safe epoch: `min(50 ms, (gap − lead) / 2v)` (see the
    /// module docs for why). The guard distance is positive for any
    /// scenario that passes [`Self::validate`]; an invalid geometry
    /// re-raises that validation error here rather than dividing by a
    /// non-positive guard.
    pub fn safe_epoch(&self) -> SimDuration {
        if let Some(e) = self.epoch {
            return e;
        }
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        let v = mph_to_mps(self.mph).max(0.1);
        let guard_m = self.gap_m - self.entry_lead_m;
        EPOCH_CAP.min(SimDuration::from_secs_f64(guard_m / (2.0 * v)))
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

/// The client-routing table: (shard, retired local index) → (shard, local
/// index) of the client's next hop, installed when a handoff commits.
type RouteTable = Vec<std::collections::HashMap<usize, (usize, usize)>>;

/// One message of the two-phase seam protocol. Frames sent at barrier `k`
/// deliver at the first barrier strictly after `sent_at` — the seam has a
/// one-epoch one-way latency, riding the same mailbox discipline as the
/// lockstep contract itself.
#[derive(Debug, Clone)]
enum SeamMsg {
    /// Phase 1, source → destination: the full handoff record. Idempotent
    /// (keyed by `seq` — a duplicate is answered with a fresh commit, not
    /// re-applied) and term-fenced (`term` is the source controller's
    /// failover term at send time; the destination drops prepares older
    /// than the newest term it has seen from that source, and every
    /// retransmit re-stamps the sender's current term).
    Prepare {
        seq: u64,
        from: usize,
        to: usize,
        /// Source-local client index — the readoption and rejoin key.
        src_client: usize,
        term: u32,
        /// Barrier at which the source exported. The destination advances
        /// the entry position by the limbo time so positions stay exact
        /// no matter how many retries the prepare needed.
        exported_at: SimTime,
        spec: MigrantSpec,
        record: MigrationRecord,
    },
    /// Phase 2, destination → source: the admission receipt, carrying the
    /// destination-local index so the source can install the route.
    Commit {
        seq: u64,
        from: usize,
        to: usize,
        local: usize,
    },
    /// Residue chasing a committed migration: outbox datagrams that landed
    /// at a shard after their client moved on. Acked and retried like a
    /// prepare; an exhausted retry budget surfaces as seam loss at the
    /// origin instead of silently vanishing.
    Forward {
        fid: u64,
        src: usize,
        to: usize,
        local: usize,
        entries: Vec<SeamEntry>,
    },
    /// Receipt for a [`SeamMsg::Forward`], addressed back to its sender.
    ForwardAck { fid: u64, src: usize },
}

/// A seam frame in flight between barriers.
struct SeamFrame {
    sent_at: SimTime,
    msg: SeamMsg,
}

/// A handoff the source exported but has not yet seen committed. The
/// retained `record` is the crash-safety anchor: until the commit lands
/// the source can readopt the client bit-exactly.
struct PendingMig {
    from: usize,
    to: usize,
    src_client: usize,
    spec: MigrantSpec,
    record: MigrationRecord,
    exported_at: SimTime,
    /// Prepares sent so far (the initial send included).
    attempts: u32,
    next_retry: SimTime,
    /// Outbox datagrams drained while the handoff was un-committed. They
    /// ride to the destination as a forward once the commit lands, or
    /// return to the client on abort.
    trailing: Vec<SeamEntry>,
}

/// An un-acked residue forward.
struct PendingFwd {
    src: usize,
    to: usize,
    local: usize,
    entries: Vec<SeamEntry>,
    attempts: u32,
    next_retry: SimTime,
}

/// All two-phase seam protocol state. Owned by the barrier closure and
/// touched only there — barriers run serially, so worker count cannot
/// reorder any of it, and every random draw comes from the dedicated
/// `rng` fork, consumed only while a seam fault window is active (a
/// fault-free run draws nothing at all).
struct SeamState {
    inflight: Vec<SeamFrame>,
    pending: BTreeMap<u64, PendingMig>,
    /// Aborted-and-readopted handoffs by seq. A late commit for one of
    /// these means the destination *did* admit — the transient split
    /// heals when the readopted client re-exports and hits the rejoin
    /// path, so the commit is absorbed rather than counted as a dup.
    aborted: BTreeSet<u64>,
    fwd_pending: BTreeMap<u64, PendingFwd>,
    /// Idempotence ledger: seq → destination-local index of every applied
    /// prepare.
    applied: BTreeMap<u64, usize>,
    applied_fwd: BTreeSet<u64>,
    /// (source shard, source-local index) → (dest shard, dest-local
    /// index) of every admission — the rejoin key for a re-exported
    /// client whose earlier handoff the source aborted on a lost commit.
    admitted: BTreeMap<(usize, usize), (usize, usize)>,
    /// Term fence, per (destination, source) pair.
    term_seen: BTreeMap<(usize, usize), u32>,
    next_seq: u64,
    next_fid: u64,
    rng: SimRng,
    mig: MigrationConfig,
}

impl SeamState {
    fn new(seed: u64, mig: MigrationConfig) -> Self {
        SeamState {
            inflight: Vec::new(),
            pending: BTreeMap::new(),
            aborted: BTreeSet::new(),
            fwd_pending: BTreeMap::new(),
            applied: BTreeMap::new(),
            applied_fwd: BTreeSet::new(),
            admitted: BTreeMap::new(),
            term_seen: BTreeMap::new(),
            next_seq: 0,
            next_fid: 0,
            rng: SimRng::new(seed).fork("seam"),
            mig,
        }
    }

    /// Sends a frame through the seam channel under the *sending* shard's
    /// migration fault windows: a loss draw first (the frame vanishes),
    /// then a duplication draw (two copies enter flight).
    fn send(&mut self, shards: &[Shard], sender: usize, now: SimTime, msg: SeamMsg) {
        let faults = &shards[sender].sim.world().faults;
        let loss = faults.migration_loss_prob(now);
        let dup = faults.migration_dup_prob(now);
        if loss > 0.0 && self.rng.chance(loss) {
            return;
        }
        if dup > 0.0 && self.rng.chance(dup) {
            self.inflight.push(SeamFrame {
                sent_at: now,
                msg: msg.clone(),
            });
        }
        self.inflight.push(SeamFrame { sent_at: now, msg });
    }

    /// Exports a retired client: sends the prepare and retains the record
    /// until the destination commits.
    fn export(
        &mut self,
        shards: &[Shard],
        hop: Migration,
        src_client: usize,
        spec: MigrantSpec,
        record: MigrationRecord,
    ) {
        let Migration { at: now, from, to } = hop;
        let seq = self.next_seq;
        self.next_seq += 1;
        let term = shards[from].sim.world().ctrl.engine.term();
        self.send(
            shards,
            from,
            now,
            SeamMsg::Prepare {
                seq,
                from,
                to,
                src_client,
                term,
                exported_at: now,
                spec: spec.clone(),
                record: record.clone(),
            },
        );
        self.pending.insert(
            seq,
            PendingMig {
                from,
                to,
                src_client,
                spec,
                record,
                exported_at: now,
                attempts: 1,
                next_retry: now + self.mig.retry_delay(1),
                trailing: Vec::new(),
            },
        );
    }

    /// Registers a residue forward and sends it (acked, retried).
    fn queue_forward(
        &mut self,
        shards: &[Shard],
        now: SimTime,
        src: usize,
        to: usize,
        local: usize,
        entries: Vec<SeamEntry>,
    ) {
        let fid = self.next_fid;
        self.next_fid += 1;
        self.fwd_pending.insert(
            fid,
            PendingFwd {
                src,
                to,
                local,
                entries: entries.clone(),
                attempts: 1,
                next_retry: now + self.mig.retry_delay(1),
            },
        );
        self.send(
            shards,
            src,
            now,
            SeamMsg::Forward {
                fid,
                src,
                to,
                local,
                entries,
            },
        );
    }

    /// Delivers every frame sent before this barrier, in send order.
    /// Responses generated during delivery carry `sent_at = now` and so
    /// wait for the next barrier — the one-epoch seam latency.
    fn deliver_due(&mut self, shards: &mut [Shard], route: &mut RouteTable, now: SimTime) {
        let mut due = Vec::new();
        let mut rest = Vec::new();
        for f in self.inflight.drain(..) {
            if f.sent_at < now {
                due.push(f.msg);
            } else {
                rest.push(f);
            }
        }
        self.inflight = rest;
        for msg in due {
            self.deliver(shards, route, now, msg);
        }
    }

    fn deliver(
        &mut self,
        shards: &mut [Shard],
        route: &mut RouteTable,
        now: SimTime,
        msg: SeamMsg,
    ) {
        match msg {
            SeamMsg::Prepare {
                seq,
                from,
                to,
                src_client,
                term,
                exported_at,
                spec,
                record,
            } => {
                let fence = self.term_seen.entry((to, from)).or_insert(0);
                if term < *fence {
                    // A prepare stamped by a pre-failover source
                    // incarnation; its retransmits carry the live term.
                    shards[to].sim.world_mut().sys.stale_term_dropped += 1;
                    return;
                }
                *fence = term;
                if let Some(&local) = self.applied.get(&seq) {
                    // Idempotence: the record is already applied — absorb
                    // the duplicate and refresh the (possibly lost)
                    // commit.
                    shards[to].sim.world_mut().sys.migration_dups_dropped += 1;
                    self.send(
                        shards,
                        to,
                        now,
                        SeamMsg::Commit {
                            seq,
                            from,
                            to,
                            local,
                        },
                    );
                    return;
                }
                if let Some(&(_, local)) = self.admitted.get(&(from, src_client)) {
                    // Re-export of a client this shard already admitted:
                    // the source aborted an earlier handoff on a lost
                    // commit, readopted, and handed over again. Merge the
                    // monotone state into the live incarnation and heal
                    // the transient split.
                    let flush = shards[to].sim.world_mut().reimport_migrant(local, &record);
                    if flush {
                        shards[to]
                            .sim
                            .schedule_at(now, Ev::MigrantFlush { client: local });
                    }
                    self.applied.insert(seq, local);
                    self.send(
                        shards,
                        to,
                        now,
                        SeamMsg::Commit {
                            seq,
                            from,
                            to,
                            local,
                        },
                    );
                    return;
                }
                let mut spec = spec;
                // The client kept moving while the prepare (and any
                // retries) were in flight; advance the entry position by
                // the limbo time so positions stay exact.
                spec.entry_x += spec.speed_mps * (now - exported_at).as_secs_f64();
                let local = shards[to]
                    .sim
                    .world_mut()
                    .admit_migrant(&spec, Some(&record), now);
                prime_migrant_events(&mut shards[to].sim, local);
                self.applied.insert(seq, local);
                self.admitted.insert((from, src_client), (to, local));
                self.send(
                    shards,
                    to,
                    now,
                    SeamMsg::Commit {
                        seq,
                        from,
                        to,
                        local,
                    },
                );
            }
            SeamMsg::Commit {
                seq,
                from,
                to,
                local,
            } => {
                if let Some(p) = self.pending.remove(&seq) {
                    route[from].insert(p.src_client, (to, local));
                    if !p.trailing.is_empty() {
                        self.queue_forward(shards, now, from, to, local, p.trailing);
                    }
                } else if self.aborted.remove(&seq) {
                    // Too late for the retry budget but the destination
                    // did admit. The readopted client is live at the
                    // source; its next boundary pass re-exports and the
                    // rejoin path above merges the two incarnations, so
                    // there is nothing to install here.
                } else {
                    shards[from].sim.world_mut().sys.migration_dups_dropped += 1;
                }
            }
            SeamMsg::Forward {
                fid,
                src,
                to,
                local,
                entries,
            } => {
                if self.applied_fwd.contains(&fid) {
                    shards[to].sim.world_mut().sys.migration_dups_dropped += 1;
                } else {
                    self.applied_fwd.insert(fid);
                    if shards[to].sim.world_mut().deposit_seam(local, entries) {
                        shards[to]
                            .sim
                            .schedule_at(now, Ev::MigrantFlush { client: local });
                    }
                }
                self.send(shards, to, now, SeamMsg::ForwardAck { fid, src });
            }
            SeamMsg::ForwardAck { fid, src } => {
                if self.fwd_pending.remove(&fid).is_none() {
                    shards[src].sim.world_mut().sys.migration_dups_dropped += 1;
                }
            }
        }
    }

    /// Retries due prepares and forwards; past the retry budget a prepare
    /// aborts (the source readopts the client — graceful degradation) and
    /// a forward surfaces as seam loss at its origin.
    fn sweep(&mut self, shards: &mut [Shard], now: SimTime) {
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.next_retry)
            .map(|(&s, _)| s)
            .collect();
        for seq in due {
            if self.pending[&seq].attempts >= self.mig.max_attempts {
                let p = self.pending.remove(&seq).unwrap();
                self.aborted.insert(seq);
                {
                    let w = shards[p.from].sim.world_mut();
                    w.sys.migration_aborts += 1;
                    w.readopt_client(p.src_client, &p.record);
                }
                if !p.trailing.is_empty()
                    && shards[p.from]
                        .sim
                        .world_mut()
                        .deposit_seam(p.src_client, p.trailing)
                {
                    shards[p.from].sim.schedule_at(
                        now,
                        Ev::MigrantFlush {
                            client: p.src_client,
                        },
                    );
                }
                // Retirement let the client's timer chains die
                // unrescheduled; relaunch them.
                prime_migrant_events(&mut shards[p.from].sim, p.src_client);
            } else {
                let (from, msg) = {
                    let term = shards[self.pending[&seq].from]
                        .sim
                        .world()
                        .ctrl
                        .engine
                        .term();
                    let p = self.pending.get_mut(&seq).unwrap();
                    p.attempts += 1;
                    p.next_retry = now + self.mig.retry_delay(p.attempts);
                    (
                        p.from,
                        SeamMsg::Prepare {
                            seq,
                            from: p.from,
                            to: p.to,
                            src_client: p.src_client,
                            term,
                            exported_at: p.exported_at,
                            spec: p.spec.clone(),
                            record: p.record.clone(),
                        },
                    )
                };
                shards[from].sim.world_mut().sys.migration_retries += 1;
                self.send(shards, from, now, msg);
            }
        }
        let due_fwd: Vec<u64> = self
            .fwd_pending
            .iter()
            .filter(|(_, p)| now >= p.next_retry)
            .map(|(&f, _)| f)
            .collect();
        for fid in due_fwd {
            if self.fwd_pending[&fid].attempts >= self.mig.max_attempts {
                let p = self.fwd_pending.remove(&fid).unwrap();
                let bytes: u64 = p
                    .entries
                    .iter()
                    .map(|e| e.payload.packet().len_bytes as u64)
                    .sum();
                shards[p.src]
                    .sim
                    .world_mut()
                    .count_seam_loss(p.entries.len() as u64, bytes);
            } else {
                let (src, msg) = {
                    let p = self.fwd_pending.get_mut(&fid).unwrap();
                    p.attempts += 1;
                    p.next_retry = now + self.mig.retry_delay(p.attempts);
                    (
                        p.src,
                        SeamMsg::Forward {
                            fid,
                            src: p.src,
                            to: p.to,
                            local: p.local,
                            entries: p.entries.clone(),
                        },
                    )
                };
                shards[src].sim.world_mut().sys.migration_retries += 1;
                self.send(shards, src, now, msg);
            }
        }
    }
}

/// One boundary crossing (for assertions and the scaling report). Under
/// the two-phase protocol this marks the *export* — the retirement and
/// prepare send; the destination admits when the prepare delivers, at
/// least one barrier later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Barrier at which the client was exported.
    pub at: SimTime,
    /// Source shard.
    pub from: usize,
    /// Destination shard (`usize::MAX` when the vehicle left a non-ring
    /// corridor entirely).
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
pub fn run_sharded(scenario: &ShardedScenario, workers: usize) -> ShardedRunResult {
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
    run_sharded_impl(scenario, workers, Some(helpers))
}

fn run_sharded_impl(
    scenario: &ShardedScenario,
    workers: usize,
    oracle_helpers: Option<usize>,
) -> ShardedRunResult {
    if let Err(e) = scenario.validate() {
        panic!("{e}");
    }
    let dep = scenario.config.deployment.build();
    let (lo, hi) = dep.extent();
    let lane_y = dep.lane_near_y;
    let speed = mph_to_mps(scenario.mph);
    let exit_x = hi + scenario.gap_m - scenario.entry_lead_m;
    let traffic_until = SimTime::ZERO + scenario.duration;
    let epoch = scenario.safe_epoch();

    let mut shards: Vec<Shard> = (0..scenario.shards)
        .map(|i| {
            let trajectories: Vec<Box<dyn Trajectory>> = (0..scenario.clients_per_shard)
                .map(|j| {
                    Box::new(ConstantSpeed {
                        start: Position::new(
                            lo - scenario.entry_lead_m - j as f64 * scenario.headway_m,
                            lane_y,
                            1.5,
                        ),
                        speed_mps: speed,
                    }) as Box<dyn Trajectory>
                })
                .collect();
            let mut world = WgttWorld::new(
                scenario.config.clone(),
                trajectories,
                shard_seed(scenario.seed, i),
                traffic_until,
                false,
            );
            if let Some(f) = scenario.shard_faults.get(i) {
                world.faults = f.clone();
            }
            for c in 0..scenario.clients_per_shard {
                for f in &scenario.flows {
                    let kind = if f.uplink {
                        crate::world::FlowKind::UpUdp(wgtt_net::CbrSource::new(
                            f.rate_bps,
                            f.payload,
                            SimTime::from_millis(1),
                        ))
                    } else {
                        crate::world::FlowKind::DownUdp(wgtt_net::CbrSource::new(
                            f.rate_bps,
                            f.payload,
                            SimTime::from_millis(1),
                        ))
                    };
                    let fidx = world.add_flow(c, kind);
                    world.flows[fidx].start = SimTime::from_millis(1);
                }
            }
            let mut sim = Simulator::new(world);
            prime_events(&mut sim);
            Shard { sim }
        })
        .collect();

    // Run past the traffic end so in-flight packets settle (same margin as
    // the unsharded runner).
    let settle = SimDuration::from_millis(500);
    let end = traffic_until + settle;
    let mut migrations: Vec<Migration> = Vec::new();
    let n = scenario.shards;
    let ring = scenario.ring;
    let naive = scenario.naive_handoff;
    let flows = scenario.flows.clone();
    // Persistent routing table: installed when a handoff *commits*. Seam
    // datagrams captured after a client left follow this chain to
    // wherever it currently lives.
    let mut route: RouteTable = vec![std::collections::HashMap::new(); n];
    let mut seam = SeamState::new(scenario.seed, scenario.config.migration);
    let mut at_barrier = |shards: &mut [Shard], now: SimTime| {
        // 1. Deliver seam frames sent before this barrier: prepares
        // admit migrants, commits release retained records, forwards
        // deposit chased residue. (The naive shim has no channel.)
        if !naive {
            seam.deliver_due(shards, &mut route, now);
        }
        // 2. Stage boundary crossings: ascending sender shard id,
        // ascending client index — the (sender, sequence) total order
        // of the lockstep contract.
        let mut staged: Vec<(usize, usize)> = Vec::new(); // (from, local client)
        for (i, shard) in shards.iter().enumerate() {
            let w = shard.sim.world();
            for c in 0..w.clients.len() {
                if w.is_resident(c) && w.clients[c].position(now).x >= exit_x {
                    staged.push((i, c));
                }
            }
        }
        // Export serially in staging order: retire at the source and
        // start the two-phase handoff — the record (switch-epoch
        // high-water, primed dedup keys, undelivered residue) stays
        // retained at the source until the destination commits. The
        // naive shim admits a fresh identity immediately and drops
        // the record, charging its residue as seam loss.
        for (from, c) in staged {
            let to = if from + 1 < n {
                from + 1
            } else if ring {
                0
            } else {
                usize::MAX
            };
            let overshoot = {
                let w = shards[from].sim.world();
                w.clients[c].position(now).x - exit_x
            };
            let rec = shards[from].sim.world_mut().retire_client(c, now);
            if to == usize::MAX {
                // Corridor exit: nothing to hand the record to.
                shards[from]
                    .sim
                    .world_mut()
                    .count_seam_loss(rec.residue.len() as u64, rec.residue_bytes());
            } else {
                let spec = MigrantSpec {
                    entry_x: lo - scenario.entry_lead_m + overshoot,
                    lane_y,
                    speed_mps: speed,
                    flows: flows.clone(),
                    log_deliveries: false,
                };
                if naive {
                    let local = shards[to].sim.world_mut().admit_migrant(&spec, None, now);
                    prime_migrant_events(&mut shards[to].sim, local);
                    shards[from]
                        .sim
                        .world_mut()
                        .count_seam_loss(rec.residue.len() as u64, rec.residue_bytes());
                } else {
                    seam.export(shards, Migration { at: now, from, to }, c, spec, rec);
                }
            }
            migrations.push(Migration { at: now, from, to });
        }
        // 3. Retry/abort sweep: re-send overdue prepares and
        // forwards; past the budget, abort the handoff and readopt
        // the client at the source.
        if !naive {
            seam.sweep(shards, now);
        }
        // 4. Drain seam outboxes: datagrams that reached a shard
        // after their client had already left (downlink still in
        // flight through the backhaul, late uplink copies,
        // unacked-requeue spill). Drained ascending (shard, client):
        // committed destinations get an acked forward, un-committed
        // handoffs accumulate the batch as trailing residue, and a
        // readopted client takes its datagrams back directly.
        for from in 0..n {
            let drained = shards[from].sim.world_mut().drain_outbox();
            for (c, entries) in drained {
                if naive {
                    // The shim has no forwarding channel: the
                    // datagrams die at the seam.
                    let bytes: u64 = entries
                        .iter()
                        .map(|e| e.payload.packet().len_bytes as u64)
                        .sum();
                    shards[from]
                        .sim
                        .world_mut()
                        .count_seam_loss(entries.len() as u64, bytes);
                    continue;
                }
                let (mut s, mut lc) = (from, c);
                while let Some(&(ns, nc)) = route[s].get(&lc) {
                    s = ns;
                    lc = nc;
                }
                if s != from || lc != c {
                    seam.queue_forward(shards, now, from, s, lc, entries);
                    continue;
                }
                if let Some(p) = seam
                    .pending
                    .values_mut()
                    .find(|p| p.from == from && p.src_client == c)
                {
                    p.trailing.extend(entries);
                    continue;
                }
                if shards[from].sim.world().is_resident(c) {
                    // Aborted and readopted: the datagrams return to
                    // the client itself.
                    if shards[from].sim.world_mut().deposit_seam(c, entries) {
                        shards[from]
                            .sim
                            .schedule_at(now, Ev::MigrantFlush { client: c });
                    }
                    continue;
                }
                // Departed with no route, no pending handoff, and no
                // readoption: the client left a non-ring corridor.
                let bytes: u64 = entries
                    .iter()
                    .map(|e| e.payload.packet().len_bytes as u64)
                    .sum();
                shards[from]
                    .sim
                    .world_mut()
                    .count_seam_loss(entries.len() as u64, bytes);
            }
        }
    };
    let loop_threads = workers.clamp(1, n);
    let wall = crate::oracle::with_helpers(loop_threads, oracle_helpers, |pool| {
        if let Some(pool) = pool {
            for shard in &mut shards {
                shard.sim.world_mut().attach_oracle(pool);
            }
        }
        let started = std::time::Instant::now();
        drive(
            &mut shards,
            workers,
            SimTime::ZERO,
            end,
            epoch,
            &mut at_barrier,
        );
        // Every shard, retired clients and all: a sample stays with the
        // world that recorded it, whose metrics callers sum.
        for shard in &mut shards {
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
    ShardedRunResult {
        worlds,
        events,
        sys,
        migrations,
        wall,
        duration: scenario.duration,
    }
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
        let r = run_sharded(&tiny(), 1);
        assert!(
            !r.migrations.is_empty(),
            "6 s at 35 mph must cross a 22.5 m cluster + 40 m gap"
        );
        assert_eq!(r.sys.migrated_out, r.migrations.len() as u64);
        // Admission happens when the prepare delivers, one barrier after
        // the export — so `migrated_in` trails by at most the handoffs
        // still in flight at the end of the run (one per vehicle).
        let crossings = r.migrations.iter().filter(|m| m.to != usize::MAX).count() as u64;
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
            assert!(m.to != usize::MAX, "ring corridor never drops vehicles");
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
    fn non_ring_corridor_drops_vehicles_at_the_end() {
        let mut s = tiny();
        s.ring = false;
        let r = run_sharded(&s, 1);
        assert!(r
            .migrations
            .iter()
            .any(|m| m.from == 1 && m.to == usize::MAX));
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
