//! Small-scope exhaustive checker for the switch control plane.
//!
//! The three-step switch protocol (§3.1.2) runs over a backhaul that may
//! lose, delay, duplicate, or reorder control frames. The simulator only
//! ever samples one interleaving per seed; this module instead reaches
//! every state a few overlapping switches can get into within small
//! budgets (bounded duplications, drops, and retransmission timeouts) and
//! checks safety invariants on every step — the "small scope hypothesis"
//! style of checking: protocol bugs of this shape show up in tiny
//! configurations if they exist at all.
//!
//! [`check`] searches states, not schedules: breadth-first, with a visited
//! set of whole states — the production engines, the in-flight frames as a
//! sorted multiset, the budgets left and the ground truth, every one of
//! them deriving `Hash`/`Eq`. A state many schedules reach is expanded
//! once, so the cost is the [`CheckReport::states`] and
//! [`CheckReport::transitions`] of the slice, and the first trace the
//! search finds to a violation kind is a shortest one.
//!
//! The checker drives the *production* state machines, not a
//! re-implementation, so what it certifies is the code the simulator runs:
//! every slice the [`SwitchEngine`] and the APs' epoch guards; the crash
//! ([`CheckerConfig::max_crashes`]) and standby failover
//! ([`CheckerConfig::max_failovers`]) slices also the [`RecoveryEngine`]
//! (DESIGN.md §6i), whose term-stamped resync round is every restart — cold,
//! takeover or mid-migration bounce — and the APs' term fences; the seam
//! slices ([`CheckerConfig::max_migrations`]) the [`SeamEngine`] (§6f).
//! Around them it is the wire and the ground truth. Five behaviours are
//! forged harness-side, each the absence of one guard, so the tests can
//! show the checker sees the family that guard kills:
//! [`CheckerConfig::epoch_guard`], [`CheckerConfig::resync_naive`],
//! [`CheckerConfig::fencing`], [`CheckerConfig::migration_naive`] and
//! [`CheckerConfig::migration_retention`].
//!
//! Invariants checked on every transition / terminal state:
//!
//! * **At most one AP serving** the client at any instant.
//! * **Queue heads only move forward across generations** — a `start`
//!   from a superseded switch epoch never repositions a queue head after
//!   a newer generation has been applied ([`ViolationKind::StaleHeadWrite`]).
//! * **An epoch-N ack never completes epoch-M** — every completion's
//!   target AP must actually have applied that generation's `start`
//!   ([`ViolationKind::ForeignAck`]).
//! * **No silent wedges** — every abandoned switch surfaces an
//!   [`crate::switching::AbandonRecord`]; a quiescent run that completed
//!   all its switches ends with exactly the last target serving at the
//!   handoff index ([`ViolationKind::TerminalMismatch`]).
//! * **Epochs are monotone across controller restarts and seams** — a
//!   switch issued after a crash, a takeover or a migration must carry an
//!   epoch strictly above every generation any AP has seen, or the whole
//!   ABA family the guards kill is re-armed
//!   ([`ViolationKind::EpochRegression`]).
//! * **No zombie steers the network** ([`ViolationKind::SplitBrain`]),
//!   and a migration moves the client exactly once, with its dedup keys
//!   and its residue ([`ViolationKind::CrossSeamDuplicate`],
//!   [`ViolationKind::LostResidue`], [`ViolationKind::DoubleImport`],
//!   [`ViolationKind::SplitMigration`]).
//!
//! Two steps are atomic by design: a restart's resync round (DESIGN.md
//! §6i argues why nothing can interleave with it), and an export, which
//! waits for a quiescent wire as the lockstep barrier does.

mod explore;
mod recovery;
mod seam;
mod switch;
#[cfg(test)]
mod tests;
mod wire;

pub use explore::check;

use crate::recovery::RecoveryEngine;
use crate::replica::JournalBatch;
use crate::seam::SeamEngine;
use crate::switching::SwitchEngine;
use std::collections::{BTreeSet, VecDeque};
use wgtt_net::ClientId;
use wgtt_sim::SimTime;
use wire::{ModelAp, NetMsg};

/// The single client every scenario switches. The value is arbitrary but
/// deliberately non-zero so index/id mix-ups would surface.
const CLIENT: ClientId = ClientId(7);

/// Deterministic ground-truth handoff index for a switch generation —
/// stands in for "where the old AP's queue head happened to be". Distinct
/// per epoch so a stale generation's `k` is distinguishable.
fn k_of(epoch: u32) -> u16 {
    (epoch as u16) * 10
}

/// A checker scenario: which switches run, over how hostile a network.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Number of APs in the scenario.
    pub n_aps: usize,
    /// The switch sequence as `(from, to)` AP indices. The first is issued
    /// immediately; each subsequent one is issued the moment the previous
    /// resolves (completes or is abandoned), so its control frames overlap
    /// the predecessor's stragglers.
    pub switches: Vec<(usize, usize)>,
    /// APs that silently eat every control frame addressed to them
    /// (crashed: reachable only in the sense that the wire accepts the
    /// frame). Drives the abandon/no-wedge paths.
    pub dead_aps: Vec<usize>,
    /// Budget of network-duplicated deliveries per schedule.
    pub max_dups: u32,
    /// Budget of dropped frames per schedule.
    pub max_drops: u32,
    /// Budget of retransmission-timer firings per schedule. Eleven are
    /// needed to walk a switch through the full retry ladder to abandon.
    pub max_timeouts: u32,
    /// `true` runs the shipped engine (epoch-validated acks, AP-side
    /// guards). `false` replicates the pre-epoch engine: guards bypassed,
    /// any ack completes the pending switch.
    pub epoch_guard: bool,
    /// Budget of controller crash/recover cycles per schedule. Each crash
    /// wipes the engine's soft state at an arbitrary point; recovery is a
    /// separate choice, so every down-window width is enumerated.
    pub max_crashes: u32,
    /// `true` forges a broken recovery whose epoch space restarts at zero
    /// instead of resuming above the AP-reported high-water marks — the
    /// naive-resync shim the test suite uses to prove the checker sees
    /// the cross-restart aliasing family.
    pub resync_naive: bool,
    /// Budget of standby failovers per schedule. Each one kills the
    /// primary at an arbitrary point, promotes the journal-fed standby
    /// under a bumped term, and arms the zombie replay choice.
    pub max_failovers: u32,
    /// `true` runs the shipped AP-side term fences. `false` forges the
    /// fence away: zombie frames with a superseded term reach the guards,
    /// and any that mutate AP state surface as
    /// [`ViolationKind::SplitBrain`].
    pub fencing: bool,
    /// How many `issue`s the standby's journal may trail the primary by at
    /// failover (each failover is enumerated at every lag up to this): the
    /// last batch it heard was cut just before that many of the primary's
    /// most recent switches were issued. `0` is a journal current to the
    /// instant of the crash.
    pub max_journal_lag: u32,
    /// Budget of inter-controller client migrations per schedule: each
    /// arms [`Choice::MigrateExport`] once every configured switch has
    /// resolved (migrations happen at lockstep barriers).
    pub max_migrations: u32,
    /// `true` forges the pre-handoff no-transfer admission: the delivered
    /// record is discarded, the destination starts with a fresh identity —
    /// the shim the test suite uses to prove the checker catches the
    /// epoch-regression, cross-seam-duplicate, and lost-residue families.
    pub migration_naive: bool,
    /// `true` (the shipped protocol) lets the source act on the record the
    /// engine retains until the commit lands: retries re-send it, and an
    /// abort readopts the client bit-exactly. `false` forges a source that
    /// ignores it: a dropped prepare loses the record outright (the
    /// destination admits the arriving vehicle blind), and the only abort
    /// is a blind readopt — the shim the test suite uses to prove the
    /// checker sees [`ViolationKind::SplitMigration`].
    pub migration_retention: bool,
    /// Budget of seam-frame drops per schedule ([`Choice::DropMigration`];
    /// seam frames are exempt from the generic drop budget).
    pub max_mig_drops: u32,
    /// Budget of seam-frame duplications per schedule
    /// ([`Choice::DupMigration`]).
    pub max_mig_dups: u32,
    /// Prepare re-sends per handoff ([`Choice::MigrateRetry`]) before the
    /// engine aborts it: the slice runs the production ladder with
    /// `max_attempts` one above this.
    pub max_mig_retries: u32,
    /// Budget of mid-migration controller bounces per schedule
    /// ([`Choice::CrashDuringMigration`]).
    pub max_mig_crashes: u32,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            n_aps: 3,
            switches: vec![(0, 1), (1, 2)],
            dead_aps: Vec::new(),
            max_dups: 1,
            max_drops: 1,
            max_timeouts: 1,
            epoch_guard: true,
            max_crashes: 0,
            resync_naive: false,
            max_failovers: 0,
            fencing: true,
            max_journal_lag: 0,
            max_migrations: 0,
            migration_naive: false,
            migration_retention: true,
            max_mig_drops: 0,
            max_mig_dups: 0,
            max_mig_retries: 1,
            max_mig_crashes: 0,
        }
    }
}

impl CheckerConfig {
    /// The APs a broadcast reaches, in AP order.
    fn live_aps(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_aps).filter(|ap| !self.dead_aps.contains(ap))
    }
}

/// What a schedule did at one step. Traces are attached to violations so
/// a failure is replayable by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver (and consume) the in-flight frame at this index of the
    /// wire, which is kept sorted.
    Deliver(usize),
    /// Deliver a duplicate copy, leaving the original in flight.
    Duplicate(usize),
    /// Drop the in-flight frame at this net index.
    Drop(usize),
    /// Fire the controller's retransmission timer.
    Timeout,
    /// Crash the controller: soft state wiped, timers dead, inbound acks
    /// eaten until recovery. AP↔AP legs keep flowing.
    CrashController,
    /// Restart the controller under a new term and rebuild it from the
    /// resync round (or naively, under [`CheckerConfig::resync_naive`]).
    RecoverController,
    /// Kill the primary and promote the standby on a journal trailing it by
    /// this many `issue`s: what the journal held restored, then the new
    /// term's resync round — while the dead primary's own frames stay on
    /// the wire.
    FailoverToStandby(u32),
    /// The dead primary's zombie wakes, re-injects its in-flight `stop` and
    /// probes every AP with a `Resync`, all stamped with its superseded
    /// term.
    ZombiePrimary,
    /// Lockstep barrier, source side: retire the client and put its
    /// term-stamped `MigPrepare` (epoch high-water, dedup keys, downlink
    /// residue) on the wire, retaining the record until the commit lands.
    MigrateExport,
    /// Drop the seam frame at this net index (spends the seam-drop
    /// budget; seam frames are exempt from the generic [`Choice::Drop`]).
    /// Under the no-retention shim, dropping an undelivered prepare loses
    /// the record outright — the vehicle still arrives, so the
    /// destination admits it blind.
    DropMigration(usize),
    /// Deliver a duplicate copy of the seam frame at this net index,
    /// leaving the original in flight.
    DupMigration(usize),
    /// The source's retry timer: re-send the pending prepare, re-stamped
    /// with the controller's current term.
    MigrateRetry,
    /// The retry budget is spent and the commit never landed: the source
    /// aborts the handoff and readopts the client — bit-exactly from the
    /// retained record, or under the no-retention shim blind, not knowing
    /// whether the destination admitted.
    MigrateAbort,
    /// Bounce the source controller mid-handoff (crash, restart under a new
    /// term, resync round). The retained migration record is durable and
    /// survives.
    CrashDuringMigration,
}

/// An invariant the protocol broke on some schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two APs believed they were serving the client at once.
    DualServing,
    /// A superseded generation's `start` repositioned a queue head after
    /// a newer generation had already been applied.
    StaleHeadWrite,
    /// A switch completed whose target AP never applied that generation's
    /// `start` — the controller was lied to about who is serving.
    ForeignAck,
    /// An abandoned switch failed to surface an abandon record, or a
    /// quiescent state still had a switch in flight with timer budget
    /// left.
    Wedge,
    /// A run that completed every switch ended with the wrong AP serving
    /// or the wrong queue head installed.
    TerminalMismatch,
    /// A switch was issued with an epoch not strictly above every
    /// generation the AP guards have seen — a controller reborn into a
    /// colliding epoch space, re-arming the cross-restart ABA family.
    EpochRegression,
    /// An AP mutated state for a frame stamped with a term below its term
    /// high-water mark — a superseded (zombie) controller steering the
    /// network after its standby took over. Structurally impossible with
    /// the term fence on; the `fencing = false` shim exists to show the
    /// checker sees it.
    SplitBrain,
    /// An uplink packet the source controller had already delivered to the
    /// Internet was delivered a second time by the destination — the
    /// migration failed to carry the dedup keys across the seam, so the
    /// client's post-handoff retransmit of a forwarded-but-unacked packet
    /// reached the server twice.
    CrossSeamDuplicate,
    /// A downlink datagram stranded in the source AP's queue at the
    /// barrier never reached the client through the destination — the
    /// migration dropped the record's residue.
    LostResidue,
    /// The destination applied one `seq`'s record twice (admitted or merged
    /// it again): the idempotence ledger failed to absorb a duplicated or
    /// retried prepare.
    DoubleImport,
    /// The run quiesced with the client live at *both* controllers and no
    /// admission on file to merge them when the source re-exports — a
    /// two-generals outcome the retained record turns into "exactly-once
    /// ownership, or a record that will reconcile it". Only the
    /// no-retention shim can reach it.
    SplitMigration,
}

/// What a step of the search comes to: `Ok`, or the invariant it broke.
type Checked = Result<(), ViolationKind>;

/// One invariant violation, with a schedule that produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// A shortest schedule prefix that reaches the violation.
    pub trace: Vec<Choice>,
}

/// Aggregate result of exploring a scenario. The counters below
/// [`CheckReport::violations`] are summed over every transition taken.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Distinct states reached, the initial one included.
    pub states: u64,
    /// Choices applied: every edge of the state graph, those that lead to
    /// a state already reached or break an invariant included.
    pub transitions: u64,
    /// States with no choice left.
    pub terminals: u64,
    /// Transitions and terminal states that broke an invariant.
    pub violation_count: u64,
    /// One violation of each kind found, in the order found.
    pub violations: Vec<Violation>,
    /// Switch completions.
    pub completions: u64,
    /// Switch abandonments.
    pub abandons: u64,
    /// Control frames the epoch guards rejected as stale.
    pub stale_drops: u64,
    /// Duplicate `start`s answered with a bare re-ack.
    pub dup_reacks: u64,
    /// Acks eaten by a crashed controller.
    pub crash_drops: u64,
    /// Frames from a superseded controller term the AP fences dropped.
    pub term_fence_drops: u64,
    /// Completed client migrations (export + import pairs).
    pub migrations: u64,
    /// Cross-seam retransmits the destination's re-primed dedup filter
    /// dropped — the transfer visibly working.
    pub seam_dedup_drops: u64,
    /// `MigPrepare` re-sends fired.
    pub seam_retries: u64,
    /// Handoffs aborted-and-readopted at the source.
    pub seam_aborts: u64,
    /// Idempotence absorptions: duplicate prepares re-acked, duplicate or
    /// post-abort commits swallowed.
    pub seam_absorbed: u64,
    /// Terminal states with a switch still in flight: the timer budget ran
    /// out (bounded exploration, not a protocol wedge).
    pub incomplete: u64,
}

/// One node of the state graph: everything that decides what can happen
/// next and what the invariants see, and nothing else — two schedules that
/// reach equal states are explored once. (`Default` is only the base of
/// [`State::initial`]: its engine would have no timeout.)
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct State {
    engine: SwitchEngine,
    aps: Vec<ModelAp>,
    /// The frames in flight, sorted: the wire is a multiset.
    net: Vec<NetMsg>,
    now: SimTime,
    dups_left: u32,
    drops_left: u32,
    timeouts_left: u32,
    /// Next entry of `cfg.switches` to issue.
    next_switch: usize,
    /// The AP this reign takes to be serving: the last completion's target
    /// or what its resync round settled on (`None`: it knows of none).
    view: Option<usize>,
    /// Whether the controller is currently crashed.
    controller_down: bool,
    crashes_left: u32,
    failovers_left: u32,
    /// The production recovery protocol: resync round, standby, and what
    /// the dead primary's zombie remembers.
    recovery: RecoveryEngine,
    /// Whether a failed-over primary has yet to wake as a zombie.
    zombie_asleep: bool,
    /// Batches cut just before each of the last
    /// [`CheckerConfig::max_journal_lag`] `issue`s, oldest first.
    journal_tail: VecDeque<JournalBatch>,
    /// Switches completed: with every configured one completed, the
    /// terminal state is checked against the last.
    completed: usize,
    /// Target AP index and epoch of the most recent completion — the
    /// ground truth the terminal head check compares against (epochs are
    /// no longer a pure function of the switch count once a crash can
    /// advance the space past the reported high-water mark).
    last_completed: Option<(usize, u32)>,
    /// Exports the client may still make: the configured migrations, plus
    /// the one a readopted client owes (see `mig_reexports_left`).
    migrations_left: u32,
    /// The production seam protocol, both halves; the record the source
    /// retains is the epoch high-water.
    seam: SeamEngine<u32>,
    /// Whether the client is live at the source controller.
    source_active: bool,
    /// Whether the client is live at the destination controller.
    dest_active: bool,
    mig_drops_left: u32,
    mig_dups_left: u32,
    mig_crashes_left: u32,
    /// Aborts that still grant a re-export (the readopted client passing
    /// the boundary again); bounded so the state space is finite.
    mig_reexports_left: u32,
    /// Idents the destination controller's dedup filter remembers:
    /// transferred keys plus everything delivered post-seam.
    dest_seen: BTreeSet<u16>,
    /// Residue idents actually re-delivered by the destination.
    dest_down_delivered: BTreeSet<u16>,
    /// Every `seq` whose record the destination applied — the ground
    /// truth the engine's idempotence is checked against.
    dest_imported: BTreeSet<u64>,
}
