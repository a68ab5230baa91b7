//! The WGTT switching protocol (paper §3.1.2).
//!
//! Three steps move a client's downlink from AP₁ to AP₂ without losing the
//! backlog:
//!
//! 1. controller → AP₁: `stop(c)` — stop sending to client `c`; the packet
//!    names AP₂;
//! 2. AP₁ → AP₂: `start(c, k)` — `k` is the index of AP₁'s first unsent
//!    packet (queried from the kernel in the real system; from the cyclic
//!    queue head here);
//! 3. AP₂ → controller: `ack` — AP₂ begins transmitting from its own
//!    cyclic queue at index `k`.
//!
//! Control packets are prioritized past data queues at the APs. The
//! controller retransmits `stop` if no `ack` arrives within 30 ms, and
//! never issues a second switch for a client while one is in flight
//! (footnote 2). Table 1 of the paper measures the full protocol at
//! 17–21 ms mean — dominated by user-space Click and kernel `ioctl`
//! processing at the APs, which `SwitchTimings::TABLE1` models as
//! calibrated delay distributions.

use crate::replica::ClientJournalState;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use wgtt_net::{ApId, ClientId};
use wgtt_sim::{SimDuration, SimRng, SimTime};

/// The control-plane message the [`SwitchEngine`] emits: a `stop`. The
/// `start` (AP₁ → AP₂) and `ack` (AP₂ → controller) legs travel as the
/// world's `Ctl` events and the checker's `NetMsg`, and reach the guards
/// as calls ([`ApSwitchGuard::on_start`], [`SwitchEngine::on_ack`]).
///
/// Every message carries the switch **epoch** — a per-client monotonically
/// increasing generation number the controller allocates when it issues
/// the switch. The network may lose, delay, duplicate, or reorder control
/// frames; without the epoch, a retransmitted `stop` or a late
/// `start`/`ack` from switch N is indistinguishable from switch N+1's
/// (the classic ABA hazard), and the receiver would reposition the wrong
/// AP's queue head or complete a switch that never ran.
///
/// Every message additionally carries the **controller term** — a
/// monotonically increasing generation number for the controller identity
/// itself. Epochs fence switch generations *within* one controller's
/// reign; the term fences *across* controllers: when a warm standby takes
/// over after a primary crash it does so under `term + 1`, and a zombie
/// ex-primary that wakes up later can only stamp frames with its stale
/// term, which every AP's [`TermGuard`] rejects. Without the term, a
/// zombie with a journal-lagged epoch table could issue `stop`s that pass
/// the per-client epoch guards (split brain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchMsg {
    /// Controller → old AP: cease transmitting to the client; hand over to
    /// the named target AP.
    Stop {
        /// Client being switched.
        client: ClientId,
        /// The AP taking over.
        to_ap: ApId,
        /// Switch generation this `stop` belongs to.
        epoch: u32,
        /// Controller term this `stop` was issued under.
        term: u32,
    },
}

/// Control packet wire size, bytes (layer-2 addresses + opcode + index,
/// padded to minimum Ethernet frame).
pub const CONTROL_PACKET_BYTES: usize = 64;

/// One client's switch-protocol state as reported by an AP in answer to a
/// restarted controller's `Resync` broadcast. The APs hold the
/// authoritative copies of everything the controller lost: guard
/// high-water epochs, cyclic queue positions, and who is actually serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientResyncState {
    /// Client this entry describes.
    pub client: ClientId,
    /// Highest switch epoch this AP's guard has seen for the client.
    pub epoch_high_water: u32,
    /// Epoch of the last `start` this AP applied (0 = never started).
    pub start_applied: u32,
    /// Whether this AP currently serves the client's downlink.
    pub serving: bool,
    /// The AP's cyclic-queue head — the queue generation/position a
    /// repair `start` should resume from.
    pub queue_head: u16,
    /// The AP's cyclic-queue tail — where the controller's downlink index
    /// stream had reached, used to resume the index allocator.
    pub queue_tail: u16,
}

/// One AP's complete answer to the controller's `Resync` broadcast.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResyncReply {
    /// The replying AP.
    pub ap: ApId,
    /// The round the `Resync` opened, echoed so a reply to any other round
    /// (an earlier one, or a zombie's probe, which carries 0) is an orphan.
    pub seq: u64,
    /// Per-client protocol state, in ascending client order (the sender
    /// sorts, so reply processing is deterministic).
    pub clients: Vec<ClientResyncState>,
    /// Dedup keys of uplink packets this AP recently forwarded — the
    /// controller re-primes its dedup table with these so no duplicate
    /// uplink delivery can cross the restart.
    pub recent_uplink_keys: Vec<u64>,
}

/// AP-side processing-delay model for the switch protocol, calibrated so
/// the end-to-end protocol time reproduces the paper's Table 1
/// (mean 17–21 ms, σ 3–5 ms, flat across 50–90 Mbit/s offered load).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SwitchTimings {
    /// Old AP: user-space handling of `stop` + kernel `ioctl` round trip to
    /// learn the first-unsent index + backlog filtering. Normal mean, s.
    stop_processing_mean_s: f64,
    /// Standard deviation of the above.
    stop_processing_std_s: f64,
    /// New AP: `start` handling and cyclic-queue head repositioning.
    start_processing_mean_s: f64,
    /// Standard deviation of the above.
    start_processing_std_s: f64,
    /// Floor applied after sampling (processing can't be negative or
    /// instant).
    floor_s: f64,
}

impl SwitchTimings {
    /// The calibration every run uses.
    pub(crate) const TABLE1: SwitchTimings = SwitchTimings {
        stop_processing_mean_s: 0.009,
        stop_processing_std_s: 0.0025,
        start_processing_mean_s: 0.007,
        start_processing_std_s: 0.0025,
        floor_s: 0.001,
    };

    /// Samples the old AP's `stop` processing delay.
    pub(crate) fn sample_stop(&self, rng: &mut SimRng) -> SimDuration {
        let s = rng
            .normal(self.stop_processing_mean_s, self.stop_processing_std_s)
            .max(self.floor_s);
        SimDuration::from_secs_f64(s)
    }

    /// Samples the new AP's `start` processing delay.
    pub(crate) fn sample_start(&self, rng: &mut SimRng) -> SimDuration {
        let s = rng
            .normal(self.start_processing_mean_s, self.start_processing_std_s)
            .max(self.floor_s);
        SimDuration::from_secs_f64(s)
    }
}

/// One in-flight switch, tracked by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PendingSwitch {
    /// AP being switched away from.
    pub from: ApId,
    /// AP being switched to.
    pub to: ApId,
    /// When the controller first issued the `stop` (Table 1's start).
    pub issued_at: SimTime,
    /// When the current `stop` was (re)transmitted.
    pub sent_at: SimTime,
    /// Number of `stop` retransmissions so far.
    pub retries: u32,
    /// This switch's generation number.
    pub epoch: u32,
}

/// Completed-switch record (for metrics and Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchRecord {
    /// Client switched.
    pub client: ClientId,
    /// Source AP.
    pub from: ApId,
    /// Target AP.
    pub to: ApId,
    /// When the controller first issued the `stop`.
    pub issued_at: SimTime,
    /// When the `ack` arrived back at the controller.
    pub completed_at: SimTime,
    /// `stop` retransmissions needed.
    pub retries: u32,
    /// This switch's generation number.
    pub epoch: u32,
}

impl SwitchRecord {
    /// End-to-end protocol execution time — the Table 1 metric.
    pub fn execution_time(&self) -> SimDuration {
        self.completed_at.saturating_since(self.issued_at)
    }
}

/// Record of a switch the engine gave up on after exhausting the `stop`
/// retry budget — the forensic trail the dead-AP failover logic (and any
/// operator staring at a wedged client) works from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbandonRecord {
    /// Client whose switch was abandoned.
    pub client: ClientId,
    /// AP the `stop` messages were addressed to.
    pub from: ApId,
    /// AP the switch was trying to hand over to.
    pub to: ApId,
    /// When the switch was first issued.
    pub issued_at: SimTime,
    /// When the retry budget ran out.
    pub abandoned_at: SimTime,
    /// `stop` retransmissions spent before giving up.
    pub retries: u32,
    /// The abandoned switch's generation number — the health layer keys
    /// its blacklist on this so a late `ack` from an earlier epoch can't
    /// pass for proof of life.
    pub epoch: u32,
}

/// The controller's verdict on an incoming `ack`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AckOutcome {
    /// The `ack` matched the pending switch's target and epoch; the switch
    /// is closed and recorded.
    Completed(SwitchRecord),
    /// No switch is in flight for this client — a duplicate of an already
    /// completed exchange (or an emergency re-attach ack, which the caller
    /// validates separately).
    NoPending,
    /// A switch is in flight but the `ack` carries a different epoch — a
    /// late straggler from an earlier switch. Accepting it would complete
    /// a switch that never ran.
    StaleEpoch,
    /// Right epoch, wrong source: the `ack` did not come from the AP this
    /// switch is handing over to.
    WrongSource,
}

/// Controller-side switch protocol engine.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct SwitchEngine {
    pending: BTreeMap<ClientId, PendingSwitch>,
    /// Last epoch allocated per client (0 = none yet; real epochs start
    /// at 1). Monotonic for the life of the engine — `abort` never rolls
    /// it back, so an abandoned epoch can never be reused.
    epochs: BTreeMap<ClientId, u32>,
    history: Vec<SwitchRecord>,
    /// Every abandoned switch, in order.
    abandon_log: Vec<AbandonRecord>,
    /// First `abandon_log` entry not yet drained via
    /// [`SwitchEngine::next_unprocessed_abandon`].
    abandon_cursor: usize,
    /// `ack` wait before retransmitting `stop`.
    timeout: SimDuration,
    /// Controller term stamped into every `stop` this engine issues
    /// (0 is reserved as "no term witnessed"; real terms start at 1).
    term: u32,
}

impl SwitchEngine {
    /// Creates an engine with the paper's 30 ms retransmission timeout.
    pub fn new() -> Self {
        SwitchEngine {
            pending: BTreeMap::new(),
            epochs: BTreeMap::new(),
            history: Vec::new(),
            abandon_log: Vec::new(),
            abandon_cursor: 0,
            timeout: SimDuration::from_millis(30),
            term: 1,
        }
    }

    /// The controller term this engine stamps into issued messages.
    pub fn term(&self) -> u32 {
        self.term
    }

    /// Installs the controller term (used by standby takeover, which must
    /// issue under a term strictly above the crashed primary's). Never
    /// lowers the current term.
    pub fn set_term(&mut self, term: u32) {
        self.term = self.term.max(term);
    }

    /// Allocates the next switch epoch for `client`. Used internally by
    /// [`SwitchEngine::issue`] and by the emergency re-attach path, which
    /// bypasses the `stop` leg but must still stamp its direct `start`
    /// with a fresh generation.
    pub fn allocate_epoch(&mut self, client: ClientId) -> u32 {
        let e = self.epochs.entry(client).or_insert(0);
        *e += 1;
        *e
    }

    /// The most recently allocated epoch for `client` (0 = none yet).
    pub fn current_epoch(&self, client: ClientId) -> u32 {
        self.epochs.get(&client).copied().unwrap_or(0)
    }

    /// Raises the epoch floor for `client` so the next allocation is
    /// strictly above `floor`. The post-crash resync feeds every AP's
    /// reported guard high-water through this; without it a rebooted
    /// controller would re-allocate generations still alive in AP guards
    /// and in-flight frames — the exact ABA the epochs exist to prevent.
    pub fn resume_epochs_above(&mut self, client: ClientId, floor: u32) {
        let e = self.epochs.entry(client).or_insert(0);
        *e = (*e).max(floor);
    }

    /// The retransmission timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// True while a switch for `client` is unacknowledged — the controller
    /// must not issue another (paper footnote 2).
    pub fn in_flight(&self, client: ClientId) -> bool {
        self.pending.contains_key(&client)
    }

    /// The pending switch for `client`, if any.
    pub fn pending(&self, client: ClientId) -> Option<&PendingSwitch> {
        self.pending.get(&client)
    }

    /// Every in-flight switch in ascending client order — what a crashed
    /// primary's zombie re-drives under its stale term when it wakes.
    pub fn pending_sorted(&self) -> Vec<(ClientId, PendingSwitch)> {
        self.pending.iter().map(|(&c, &p)| (c, p)).collect()
    }

    /// The controller process dies: every piece of switch state is gone,
    /// epochs included. The term is the one durable scalar (persisted at
    /// bump time); whoever restarts the controller — the process itself or
    /// a promoted standby — installs a term above it before issuing
    /// anything, so the dead reign's frames still on the wire are fenced.
    pub fn crash_wipe(&mut self) {
        *self = SwitchEngine {
            term: self.term,
            ..SwitchEngine::new()
        };
    }

    /// The engine's share of a [`crate::replica::JournalBatch`]: every
    /// client's epoch high water (serving AP and allocator position are the
    /// controller's to fill in), in ascending client order so standby
    /// replay is deterministic.
    pub fn journal_snapshot(&self) -> Vec<ClientJournalState> {
        let blank = |(&client, &epoch)| ClientJournalState {
            client,
            epoch,
            serving: None,
            alloc_next: 0,
        };
        self.epochs.iter().map(blank).collect()
    }

    /// Takeover from a journal: epochs resume strictly above the journaled
    /// high water. The journal may trail the crash, so this is a floor, not
    /// the answer: the takeover's resync round raises it to what the AP
    /// guards report ([`SwitchEngine::resume_from_resync`]).
    pub fn restore_from_journal(&mut self, clients: &[ClientJournalState]) {
        for cs in clients {
            self.resume_epochs_above(cs.client, cs.epoch);
        }
    }

    /// Restart from the APs' resync replies: epochs resume strictly above
    /// the maximum guard high-water any AP reported, so no recycled
    /// generation can alias an in-flight pre-crash frame.
    pub fn resume_from_resync(&mut self, replies: &[ResyncReply]) {
        for cs in replies.iter().flat_map(|r| &r.clients) {
            self.resume_epochs_above(cs.client, cs.epoch_high_water);
        }
    }

    /// Starts a switch, returning the `stop` message to transmit. Returns
    /// `None` (and does nothing) if one is already in flight.
    pub fn issue(
        &mut self,
        now: SimTime,
        client: ClientId,
        from: ApId,
        to: ApId,
    ) -> Option<SwitchMsg> {
        if self.in_flight(client) {
            return None;
        }
        let epoch = self.allocate_epoch(client);
        self.pending.insert(
            client,
            PendingSwitch {
                from,
                to,
                issued_at: now,
                sent_at: now,
                retries: 0,
                epoch,
            },
        );
        Some(SwitchMsg::Stop {
            client,
            to_ap: to,
            epoch,
            term: self.term,
        })
    }

    /// Maximum `stop` retransmissions before an unacknowledged switch is
    /// abandoned (an AP that answers nothing for ~10 timeouts is gone; the
    /// controller must be free to pick a new target rather than wedging
    /// this client forever).
    pub const MAX_RETRIES: u32 = 10;

    /// Called when the retransmission timer fires. If the switch is still
    /// unacknowledged, returns the `stop` to retransmit; after
    /// [`SwitchEngine::MAX_RETRIES`] the switch is abandoned and `None` is
    /// returned with the in-flight slot cleared. The abandon is never
    /// silent: an [`AbandonRecord`] lands in [`SwitchEngine::abandoned`]
    /// and is delivered once through
    /// [`SwitchEngine::next_unprocessed_abandon`] so the caller can react
    /// (blacklist the dead hop, re-attach the client) instead of re-arming
    /// the timer into a wedge.
    pub fn on_timeout(&mut self, now: SimTime, client: ClientId) -> Option<SwitchMsg> {
        let p = self.pending.get_mut(&client)?;
        if now.saturating_since(p.sent_at) < self.timeout {
            return None;
        }
        if p.retries >= Self::MAX_RETRIES {
            let p = *p;
            self.abandon_log.push(AbandonRecord {
                client,
                from: p.from,
                to: p.to,
                issued_at: p.issued_at,
                abandoned_at: now,
                retries: p.retries,
                epoch: p.epoch,
            });
            self.abort(client);
            return None;
        }
        p.sent_at = now;
        p.retries += 1;
        Some(SwitchMsg::Stop {
            client,
            to_ap: p.to,
            epoch: p.epoch,
            term: self.term,
        })
    }

    /// Processes an `ack`, closing the pending switch only when both the
    /// source AP and the epoch match — a late `ack` from a previous switch
    /// (or from an AP that was never this switch's target) is rejected
    /// with a verdict the caller turns into a drop counter.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        client: ClientId,
        from_ap: ApId,
        epoch: u32,
    ) -> AckOutcome {
        let Entry::Occupied(slot) = self.pending.entry(client) else {
            return AckOutcome::NoPending;
        };
        if epoch != slot.get().epoch {
            return AckOutcome::StaleEpoch;
        }
        if from_ap != slot.get().to {
            return AckOutcome::WrongSource;
        }
        let p = slot.remove();
        let rec = SwitchRecord {
            client,
            from: p.from,
            to: p.to,
            issued_at: p.issued_at,
            completed_at: now,
            retries: p.retries,
            epoch: p.epoch,
        };
        self.history.push(rec);
        AckOutcome::Completed(rec)
    }

    /// Abandons an in-flight switch (e.g. client left the network).
    pub fn abort(&mut self, client: ClientId) -> bool {
        self.pending.remove(&client).is_some()
    }

    /// All completed switches.
    pub fn history(&self) -> &[SwitchRecord] {
        &self.history
    }

    /// All abandoned switches, in order (the full forensic log).
    pub fn abandoned(&self) -> &[AbandonRecord] {
        &self.abandon_log
    }

    /// The next abandoned switch not yet handled by the caller, if any.
    /// Each record is returned exactly once; [`SwitchEngine::abandoned`]
    /// still exposes the full log afterwards.
    pub fn next_unprocessed_abandon(&mut self) -> Option<AbandonRecord> {
        let rec = self.abandon_log.get(self.abandon_cursor).copied()?;
        self.abandon_cursor += 1;
        Some(rec)
    }
}

/// AP-side verdict on an incoming `stop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopVerdict {
    /// Fresh (or retransmitted current-epoch) `stop`: stop serving,
    /// recompute `k`, emit the `start`. Reprocessing the current epoch is
    /// required — if the `start` leg was lost, the controller's
    /// retransmitted `stop` is the only way to regenerate it, and
    /// recomputing `k` at the current first-unsent index is always safe.
    Process,
    /// Strictly older epoch than this AP has already seen for the client:
    /// a straggler from a superseded switch. Processing it would silence
    /// an AP that a later switch made (or is making) the serving one.
    Stale,
}

/// AP-side verdict on an incoming `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartVerdict {
    /// First `start` of this epoch: reposition the queue head at `k`,
    /// take over serving, ack.
    Apply,
    /// Duplicate of a `start` this AP already applied (retransmitted
    /// `stop` upstream, or a network-duplicated frame): the `ack` must be
    /// re-sent — it may have been the leg that was lost — but the queue
    /// head, NIC queue, and scoreboard are NOT touched again, or the
    /// re-application would discard frames delivered since.
    DupReAck,
    /// Strictly older epoch: a stale `start` whose `k` belongs to a
    /// superseded switch. Applying it would reposition the head of the
    /// wrong generation and resurrect a non-serving AP.
    Stale,
}

/// Per-(AP, client) epoch guard — the AP side of the ABA defence, shared
/// verbatim by the simulator's AP handlers (`world/control.rs`) and the
/// small-scope interleaving checker (`protocol_check`) so the checker
/// exercises the exact production admission logic.
///
/// Epoch 0 is reserved as "nothing seen yet"; real epochs start at 1.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApSwitchGuard {
    /// Highest epoch seen in any control message for this client.
    latest: u32,
    /// Epoch of the last `start` actually applied (0 = none).
    start_applied: u32,
}

impl ApSwitchGuard {
    /// Admission check for a `stop` carrying `epoch`.
    pub fn on_stop(&mut self, epoch: u32) -> StopVerdict {
        if epoch < self.latest {
            return StopVerdict::Stale;
        }
        self.latest = epoch;
        StopVerdict::Process
    }

    /// Admission check for a `start` carrying `epoch`.
    pub fn on_start(&mut self, epoch: u32) -> StartVerdict {
        if epoch < self.latest {
            return StartVerdict::Stale;
        }
        self.latest = epoch;
        if epoch == self.start_applied {
            return StartVerdict::DupReAck;
        }
        self.start_applied = epoch;
        StartVerdict::Apply
    }

    /// Highest epoch this AP has seen for the client.
    pub fn latest(&self) -> u32 {
        self.latest
    }

    /// Epoch of the last `start` this AP actually applied (0 = none).
    pub fn start_applied(&self) -> u32 {
        self.start_applied
    }
}

/// AP-side verdict on the controller term carried by an incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermVerdict {
    /// Term at or above this AP's high-water mark: admit the frame (and
    /// the mark is raised to it).
    Accept,
    /// Term strictly below the high-water mark: the frame was stamped by
    /// a fenced ex-controller (a zombie primary that lost a takeover).
    /// Processing it would let a dead controller's stale epoch table
    /// drive switches — the split-brain hazard the term exists to close.
    Stale,
}

/// Per-AP controller-term guard — the AP side of the takeover fence,
/// mirroring [`ApSwitchGuard`]'s high-water idiom one level up: the epoch
/// guard orders switch generations within a controller's reign, the term
/// guard orders the reigns themselves. Shared verbatim by the simulator's
/// AP-side admission (`ap_admits` in `world/control.rs`) and the
/// interleaving checker (`protocol_check`).
///
/// Term 0 is reserved as "no controller witnessed"; real terms start
/// at 1. Like the epoch guard, the mark lives in volatile AP state and is
/// wiped by an AP crash — a rebooted AP re-learns the current term from
/// the first frame it admits (documented limitation: lease-less fencing,
/// same trust model as the epoch guards).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermGuard {
    /// Highest controller term seen in any admitted frame.
    latest: u32,
}

impl TermGuard {
    /// Admission check for a frame stamped with `term`.
    pub fn on_frame(&mut self, term: u32) -> TermVerdict {
        if term < self.latest {
            return TermVerdict::Stale;
        }
        self.latest = term;
        TermVerdict::Accept
    }

    /// Highest controller term this AP has witnessed.
    pub fn latest(&self) -> u32 {
        self.latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }
    const C: ClientId = ClientId(1);

    /// Unwraps a completed ack in tests.
    fn completed(out: AckOutcome) -> SwitchRecord {
        match out {
            AckOutcome::Completed(rec) => rec,
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn issue_then_ack() {
        let mut e = SwitchEngine::new();
        let msg = e.issue(t(100), C, ApId(1), ApId(2)).unwrap();
        assert_eq!(
            msg,
            SwitchMsg::Stop {
                client: C,
                to_ap: ApId(2),
                epoch: 1,
                term: 1,
            }
        );
        assert!(e.in_flight(C));
        let rec = completed(e.on_ack(t(118), C, ApId(2), 1));
        assert_eq!(rec.from, ApId(1));
        assert_eq!(rec.to, ApId(2));
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.execution_time(), SimDuration::from_millis(18));
        assert_eq!(rec.retries, 0);
        assert!(!e.in_flight(C));
        assert_eq!(e.history().len(), 1);
    }

    #[test]
    fn epochs_are_per_client_and_monotonic() {
        let mut e = SwitchEngine::new();
        e.issue(t(0), C, ApId(0), ApId(1));
        completed(e.on_ack(t(10), C, ApId(1), 1));
        e.issue(t(20), C, ApId(1), ApId(2));
        assert_eq!(e.pending(C).unwrap().epoch, 2);
        // Abort does not roll the counter back — epoch 2 is burned.
        e.abort(C);
        let msg = e.issue(t(30), C, ApId(1), ApId(2)).unwrap();
        assert!(matches!(msg, SwitchMsg::Stop { epoch: 3, .. }));
        // Other clients count independently.
        let msg2 = e.issue(t(30), ClientId(9), ApId(0), ApId(1)).unwrap();
        assert!(matches!(msg2, SwitchMsg::Stop { epoch: 1, .. }));
        assert_eq!(e.current_epoch(C), 3);
        assert_eq!(e.current_epoch(ClientId(9)), 1);
    }

    /// Post-crash resync must resume epochs strictly above the max any AP
    /// reported, never below what this engine already allocated.
    #[test]
    fn resume_epochs_above_sets_floor_monotonically() {
        let mut e = SwitchEngine::new();
        e.resume_epochs_above(C, 7);
        assert_eq!(e.current_epoch(C), 7);
        assert_eq!(e.allocate_epoch(C), 8);
        // A lower floor (a lagging AP's report) never rolls back.
        e.resume_epochs_above(C, 3);
        assert_eq!(e.current_epoch(C), 8);
        // Untouched clients keep starting at 1.
        assert_eq!(e.allocate_epoch(ClientId(9)), 1);
    }

    /// Satellite regression: a stale `ack` from the *previous* switch's
    /// target arriving after a new switch is issued must not complete the
    /// new switch (the foreign-ack ABA the epoch-less engine had).
    #[test]
    fn stale_ack_from_previous_target_is_rejected() {
        let mut e = SwitchEngine::new();
        // Switch 1: AP0 → AP1, completed normally…
        e.issue(t(0), C, ApId(0), ApId(1));
        completed(e.on_ack(t(15), C, ApId(1), 1));
        // …but the network duplicated its ack. Switch 2: AP1 → AP2.
        e.issue(t(50), C, ApId(1), ApId(2));
        // The duplicated epoch-1 ack from AP1 straggles in. The old engine
        // would have closed switch 2 here (any ack matched on client id).
        assert_eq!(e.on_ack(t(55), C, ApId(1), 1), AckOutcome::StaleEpoch);
        assert!(e.in_flight(C), "switch 2 must stay in flight");
        // An epoch-2 ack from the wrong AP is rejected too.
        assert_eq!(e.on_ack(t(56), C, ApId(1), 2), AckOutcome::WrongSource);
        assert!(e.in_flight(C));
        // Only the genuine ack closes it.
        let rec = completed(e.on_ack(t(60), C, ApId(2), 2));
        assert_eq!(rec.to, ApId(2));
        assert_eq!(e.history().len(), 2);
    }

    #[test]
    fn guard_drops_stale_and_suppresses_duplicate_starts() {
        let mut g = ApSwitchGuard::default();
        // Fresh start of epoch 2 applies; its duplicate re-acks only.
        assert_eq!(g.on_start(2), StartVerdict::Apply);
        assert_eq!(g.on_start(2), StartVerdict::DupReAck);
        // A straggling epoch-1 stop or start is stale.
        assert_eq!(g.on_stop(1), StopVerdict::Stale);
        assert_eq!(g.on_start(1), StartVerdict::Stale);
        // Epoch 3 stop processes, and reprocesses on retransmission.
        assert_eq!(g.on_stop(3), StopVerdict::Process);
        assert_eq!(g.on_stop(3), StopVerdict::Process);
        // After seeing the epoch-3 stop, the epoch-2 start is stale: the
        // AP is being switched away from — it must not re-serve.
        assert_eq!(g.on_start(2), StartVerdict::Stale);
        assert_eq!(g.latest(), 3);
        // The epoch-4 start of the next switch back to this AP applies.
        assert_eq!(g.on_start(4), StartVerdict::Apply);
    }

    #[test]
    fn term_guard_fences_zombie_frames() {
        let mut g = TermGuard::default();
        // First controller witnessed: term 1 admits and raises the mark.
        assert_eq!(g.on_frame(1), TermVerdict::Accept);
        assert_eq!(g.on_frame(1), TermVerdict::Accept);
        // Standby takeover: term 2 admits, and from then on the zombie
        // ex-primary's term-1 frames are structurally rejected.
        assert_eq!(g.on_frame(2), TermVerdict::Accept);
        assert_eq!(g.on_frame(1), TermVerdict::Stale);
        assert_eq!(g.latest(), 2);
        // A fresh guard (crash-wiped AP) re-learns from the first frame —
        // including a zombie's; that is the documented lease-less window.
        let mut wiped = TermGuard::default();
        assert_eq!(wiped.on_frame(1), TermVerdict::Accept);
    }

    #[test]
    fn engine_stamps_its_term_and_never_lowers_it() {
        let mut e = SwitchEngine::new();
        assert_eq!(e.term(), 1);
        e.set_term(3);
        let msg = e.issue(t(0), C, ApId(0), ApId(1)).unwrap();
        assert!(matches!(msg, SwitchMsg::Stop { term: 3, .. }));
        // Retransmissions carry the current term too.
        let again = e.on_timeout(t(30), C).unwrap();
        assert!(matches!(again, SwitchMsg::Stop { term: 3, .. }));
        // A lower term never rolls back.
        e.set_term(2);
        assert_eq!(e.term(), 3);
    }

    #[test]
    fn no_concurrent_switch_for_same_client() {
        let mut e = SwitchEngine::new();
        assert!(e.issue(t(0), C, ApId(0), ApId(1)).is_some());
        assert!(e.issue(t(5), C, ApId(1), ApId(2)).is_none());
        // Different clients are independent.
        assert!(e.issue(t(5), ClientId(2), ApId(1), ApId(2)).is_some());
    }

    #[test]
    fn timeout_retransmits_stop() {
        let mut e = SwitchEngine::new();
        e.issue(t(0), C, ApId(0), ApId(1));
        // Too early: no retransmission.
        assert!(e.on_timeout(t(29), C).is_none());
        let again = e.on_timeout(t(30), C).unwrap();
        assert_eq!(
            again,
            SwitchMsg::Stop {
                client: C,
                to_ap: ApId(1),
                epoch: 1,
                term: 1,
            }
        );
        assert_eq!(e.pending(C).unwrap().retries, 1);
        // Execution time measured from first issue.
        let rec = completed(e.on_ack(t(45), C, ApId(1), 1));
        assert_eq!(rec.execution_time(), SimDuration::from_millis(45));
        assert_eq!(rec.retries, 1);
    }

    #[test]
    fn timeout_gives_up_after_retry_cap() {
        let mut e = SwitchEngine::new();
        e.issue(t(0), C, ApId(0), ApId(1));
        let mut at = 30;
        for _ in 0..SwitchEngine::MAX_RETRIES {
            assert!(e.on_timeout(t(at), C).is_some());
            at += 30;
        }
        // The cap hit: the switch is abandoned, freeing the client for a
        // fresh decision.
        assert!(e.on_timeout(t(at), C).is_none());
        assert!(!e.in_flight(C));
        assert!(e.issue(t(at + 1), C, ApId(0), ApId(2)).is_some());
    }

    #[test]
    fn abandon_leaves_a_record() {
        let mut e = SwitchEngine::new();
        e.issue(t(0), C, ApId(3), ApId(5));
        let mut at = 30;
        for _ in 0..SwitchEngine::MAX_RETRIES {
            e.on_timeout(t(at), C);
            at += 30;
        }
        assert!(e.abandoned().is_empty(), "not abandoned before the cap");
        assert!(e.on_timeout(t(at), C).is_none());
        let log = e.abandoned().to_vec();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].client, C);
        assert_eq!(log[0].from, ApId(3));
        assert_eq!(log[0].to, ApId(5));
        assert_eq!(log[0].issued_at, t(0));
        assert_eq!(log[0].abandoned_at, t(at));
        assert_eq!(log[0].retries, SwitchEngine::MAX_RETRIES);
        assert_eq!(log[0].epoch, 1);
        // Drained exactly once.
        assert_eq!(e.next_unprocessed_abandon(), Some(log[0]));
        assert_eq!(e.next_unprocessed_abandon(), None);
        assert_eq!(e.abandoned().len(), 1, "log persists after draining");
    }

    #[test]
    fn timeouts_after_abandon_stay_quiet() {
        let mut e = SwitchEngine::new();
        e.issue(t(0), C, ApId(0), ApId(1));
        let mut at = 30;
        for _ in 0..=SwitchEngine::MAX_RETRIES {
            e.on_timeout(t(at), C);
            at += 30;
        }
        // Stale timer firings after the abandon must not retransmit,
        // re-arm, or duplicate the abandon record.
        assert!(e.on_timeout(t(at), C).is_none());
        assert!(e.on_timeout(t(at + 30), C).is_none());
        assert_eq!(e.abandoned().len(), 1);
    }

    #[test]
    fn ack_without_pending_is_ignored() {
        let mut e = SwitchEngine::new();
        assert_eq!(e.on_ack(t(10), C, ApId(1), 1), AckOutcome::NoPending);
        assert!(e.on_timeout(t(10), C).is_none());
    }

    #[test]
    fn abort_clears() {
        let mut e = SwitchEngine::new();
        e.issue(t(0), C, ApId(0), ApId(1));
        assert!(e.abort(C));
        assert!(!e.abort(C));
        assert!(!e.in_flight(C));
        assert_eq!(e.on_ack(t(5), C, ApId(1), 1), AckOutcome::NoPending);
    }

    #[test]
    fn timings_land_in_table1_range() {
        // The sum of the modeled delays (plus ~1 ms of backhaul hops)
        // should average in the paper's 17–21 ms band with σ ≈ 3–5 ms.
        let timings = SwitchTimings::TABLE1;
        let mut rng = SimRng::new(42);
        let samples: Vec<f64> = (0..2000)
            .map(|_| {
                let backhaul = 0.0009; // three ~0.3 ms hops
                (timings.sample_stop(&mut rng) + timings.sample_start(&mut rng)).as_secs_f64()
                    + backhaul
            })
            .collect();
        let mean = wgtt_sim::stats::mean(&samples) * 1000.0;
        let std = wgtt_sim::stats::std_dev(&samples) * 1000.0;
        assert!((15.0..22.0).contains(&mean), "mean {mean} ms");
        assert!((2.0..6.0).contains(&std), "std {std} ms");
    }

    #[test]
    fn timing_samples_respect_floor() {
        let timings = SwitchTimings {
            stop_processing_mean_s: 0.001,
            stop_processing_std_s: 0.05,
            ..SwitchTimings::TABLE1
        };
        let mut rng = SimRng::new(7);
        for _ in 0..500 {
            assert!(timings.sample_stop(&mut rng) >= SimDuration::from_millis(1));
        }
    }
}
