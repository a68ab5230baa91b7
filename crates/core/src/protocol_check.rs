//! Small-scope exhaustive interleaving checker for the switch control
//! plane.
//!
//! The three-step switch protocol (§3.1.2) runs over a backhaul that may
//! lose, delay, duplicate, or reorder control frames. The simulator only
//! ever samples one interleaving per seed; this module instead *enumerates*
//! every delivery schedule of one or two overlapping switches within small
//! budgets (bounded duplications, drops, and retransmission timeouts) and
//! checks safety invariants on each one — the "small scope hypothesis"
//! style of checking: protocol bugs of this shape show up in tiny
//! configurations if they exist at all.
//!
//! The checker drives the *production* control-plane state machines, not
//! a re-implementation, so what it certifies is the code the simulator
//! runs: every slice the [`SwitchEngine`] and the APs' [`ApSwitchGuard`]s;
//! the crash and failover slices also the [`RecoveryEngine`] (DESIGN.md
//! §6i), the APs' [`TermGuard`]s and the `SwitchEngine` halves of crash
//! wipe, journal snapshot and restore, and resync floor; the seam slices
//! the [`SeamEngine`]. Around them it is the wire and the ground truth.
//! Three behaviours are forged harness-side, one per guard, so the test
//! suite can show the checker sees the family each guard kills:
//! [`CheckerConfig::epoch_guard`]` = false` bypasses the epoch guards and
//! completes the pending switch on *any* ack (the pre-epoch engine's
//! stale-`start`/foreign-`ack` ABA family), [`CheckerConfig::resync_naive`]
//! ignores the resync replies, and [`CheckerConfig::fencing`]` = false`
//! ignores a stale term verdict.
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
//! * **Epochs are monotone across controller restarts** — a switch issued
//!   after a crash/recovery must carry an epoch strictly above every
//!   generation any AP has seen, or the whole ABA family the guards kill
//!   is re-armed by the reborn controller
//!   ([`ViolationKind::EpochRegression`]).
//!
//! [`CheckerConfig::max_crashes`] adds a controller crash/recover choice
//! pair to the schedule alphabet: a crash is the production wipe (timers
//! die, acks are eaten) while AP↔AP `start` legs keep flowing; a recovery
//! starts a new term and runs the engine's resync round over replies built
//! from the AP guards as `ApState::resync_reply` builds them, resumes above
//! the floor they report and acts on [`resync_verdicts`] as the world does
//! — unless `resync_naive` restarts at zero, the cross-restart aliasing
//! family. Every restart — cold, takeover, mid-migration bounce — is that
//! one step.
//!
//! [`CheckerConfig::max_migrations`] adds the inter-controller handoff
//! slice. Its protocol is the [`SeamEngine`] the sharded runner ships
//! ([`crate::seam`]); the checker is only the engine's wire and its ground
//! truth: [`Choice::MigrateExport`] hands the engine the record to retain
//! (the switch-epoch high-water; the dedup keys and downlink residue it
//! stands for are the `MIG_*` constants), a delivered
//! `MigPrepare` frame asks it whether to fence, absorb, rejoin or
//! admit, [`Choice::MigrateRetry`] / [`Choice::MigrateAbort`] fire its
//! retry timer, and [`Choice::DropMigration`], [`Choice::DupMigration`]
//! and [`Choice::CrashDuringMigration`] make the wire and the source
//! controller hostile around it — the retained record is durable and
//! survives. On the ground, the destination must resume its epoch space
//! above the record's high-water, re-prime the transferred dedup keys,
//! deliver every residue datagram, apply each `seq` once and never leave
//! both incarnations live with nothing to reconcile them
//! ([`ViolationKind::EpochRegression`], [`ViolationKind::CrossSeamDuplicate`],
//! [`ViolationKind::LostResidue`], [`ViolationKind::DoubleImport`],
//! [`ViolationKind::SplitMigration`]). Two shims prove the checker sees
//! every family, forged harness-side as `epoch_guard = false` is:
//! [`CheckerConfig::migration_naive`] discards the record at import (the
//! data-plane families), and [`CheckerConfig::migration_retention`]` =
//! false` plays a source that ignores what the engine retains — a dropped
//! prepare loses the record outright (the vehicle still arrives, so the
//! destination admits it blind), and the only abort is a *blind* readopt
//! that cannot know whether the destination admitted.
//!
//! [`CheckerConfig::max_failovers`] adds the hot-standby choice pair.
//! [`Choice::FailoverToStandby`] feeds the standby one last
//! [`JournalBatch`] — the production snapshot, up to
//! [`CheckerConfig::max_journal_lag`] issues stale — kills the primary
//! mid-schedule and acts on the engine's promotion: its replica restored,
//! then its term's resync round, as after a cold restart. [`Choice::ZombiePrimary`]
//! replays what the engine remembers of the dead reign, `stop`s and
//! `Resync` probes, under its stale term; the term guards drop every such
//! frame before it touches state, and `fencing = false` shows the
//! split-brain family ([`ViolationKind::SplitBrain`]) they exist to kill.

use crate::config::MigrationConfig;
use crate::recovery::{
    resync_verdicts, RecoveryEngine, ReplyVerdict, ResyncAction, ResyncRound, TAKEOVER_TIMEOUT,
};
use crate::replica::JournalBatch;
use crate::seam::{CommitVerdict, Due, Handoff, PrepareVerdict, SeamEngine};
use crate::switching::{
    AckOutcome, ApSwitchGuard, ClientResyncState, ResyncReply, StartVerdict, StopVerdict,
    SwitchEngine, SwitchMsg, TermGuard, TermVerdict,
};
use std::collections::VecDeque;
use wgtt_net::{ApId, ClientId};
use wgtt_sim::{SimDuration, SimTime};

/// The single client every scenario switches. The value is arbitrary but
/// deliberately non-zero so index/id mix-ups would surface.
const CLIENT: ClientId = ClientId(7);

/// Deterministic ground-truth handoff index for a switch generation —
/// stands in for "where the old AP's queue head happened to be". Distinct
/// per epoch so a stale generation's `k` is distinguishable.
fn k_of(epoch: u32) -> u16 {
    (epoch as u16) * 10
}

/// Uplink idents the source controller delivered to the Internet before
/// the barrier (the keys its dedup filter remembers and exports).
const MIG_SRC_DELIVERED: [u16; 2] = [0, 1];

/// Uplink idents the client retransmits after crossing the seam. Ident 1
/// was forwarded-but-unacked at the source — the classic cross-seam
/// duplicate unless the destination re-primes the transferred keys; ident
/// 2 was never delivered and must pass.
const MIG_RETRANSMITS: [u16; 2] = [1, 2];

/// Downlink idents stranded in the source AP's cyclic queue at the
/// barrier — the residue the record carries across the seam.
const MIG_DOWN_RESIDUE: [u16; 1] = [100];

/// The migration slice's two controllers as the seam engine numbers them,
/// and the client's local index at each. Distinct and non-zero where they
/// can be, for the same reason as [`CLIENT`].
const SRC: usize = 0;
const DST: usize = 1;
const SRC_CLIENT: usize = CLIENT.0 as usize;
const DST_LOCAL: usize = 3;

/// The slice's one handoff, carrying `epoch_max` as its record.
fn handoff(epoch_max: u32) -> Handoff<u32> {
    Handoff {
        from: SRC,
        to: DST,
        src_client: SRC_CLIENT,
        record: epoch_max,
    }
}

/// The production retry ladder with the slice's budget: the first send
/// plus [`CheckerConfig::max_mig_retries`] re-sends, then abort.
fn seam_policy(cfg: &CheckerConfig) -> MigrationConfig {
    MigrationConfig {
        max_attempts: 1 + cfg.max_mig_retries,
        ..MigrationConfig::default()
    }
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
    /// Budget of inter-controller client migrations per schedule. Each one
    /// arms an export choice once every configured switch has resolved
    /// (migrations happen at lockstep barriers, with no switch in flight);
    /// the export puts a `MigPrepare` on the wire, and delivering it
    /// admits the client at a fresh destination controller and sends the
    /// commit back.
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
    /// Hard cap on explored schedules (the DFS stops cleanly there).
    pub max_schedules: u64,
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
            max_schedules: 1_000_000,
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
    /// Deliver (and consume) the in-flight frame at this net index.
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

/// One invariant violation, with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// The exact schedule prefix that reached the violation.
    pub trace: Vec<Choice>,
}

/// Aggregate result of exploring a scenario.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Distinct delivery schedules explored (each DFS path is one).
    pub schedules: u64,
    /// Total invariant violations found.
    pub violation_count: u64,
    /// The first violations found (traces kept for the first
    /// [`MAX_KEPT_VIOLATIONS`]; the rest only counted).
    pub violations: Vec<Violation>,
    /// Switch completions summed over all schedules.
    pub completions: u64,
    /// Switch abandonments summed over all schedules.
    pub abandons: u64,
    /// Control frames the epoch guards rejected as stale, summed.
    pub stale_drops: u64,
    /// Duplicate `start`s answered with a bare re-ack, summed.
    pub dup_reacks: u64,
    /// Acks eaten by a crashed controller, summed over all schedules.
    pub crash_drops: u64,
    /// Frames from a superseded controller term the AP fences dropped,
    /// summed over all schedules.
    pub term_fence_drops: u64,
    /// Completed client migrations (export + import pairs), summed over
    /// all schedules.
    pub migrations: u64,
    /// Cross-seam retransmits the destination's re-primed dedup filter
    /// dropped, summed over all schedules — the transfer visibly working.
    pub seam_dedup_drops: u64,
    /// `MigPrepare` re-sends fired, summed over all schedules.
    pub seam_retries: u64,
    /// Handoffs aborted-and-readopted at the source, summed.
    pub seam_aborts: u64,
    /// Idempotence absorptions: duplicate prepares re-acked, duplicate or
    /// post-abort commits swallowed, summed over all schedules.
    pub seam_absorbed: u64,
    /// Schedules cut short by budget exhaustion with a switch still in
    /// flight (bounded exploration, not a protocol wedge).
    pub incomplete: u64,
    /// Whether the `max_schedules` cap stopped the exploration early.
    pub truncated: bool,
}

/// An in-flight control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetMsg {
    /// Controller → old AP.
    Stop {
        ap: usize,
        to_ap: usize,
        epoch: u32,
        term: u32,
    },
    /// Old AP → new AP.
    Start {
        ap: usize,
        k: u16,
        epoch: u32,
        term: u32,
    },
    /// New AP → controller. Deliberately un-termed: the controller is the
    /// term authority and the epoch already pins the generation.
    Ack { from_ap: usize, epoch: u32 },
    /// Client → destination controller: a post-seam uplink retransmission
    /// (the dup window straddling the migration barrier).
    UplinkAtDest { ident: u16 },
    /// Destination controller → client: a transferred residue datagram
    /// being re-delivered. Rides the barrier-serialized transfer, not the
    /// lossy wire, so it is never a drop choice — dropping it would model
    /// a loss the protocol cannot see and forge `LostResidue`.
    DownAtDest { ident: u16 },
    /// Source controller → destination controller: the two-phase export,
    /// carrying the record the [`SeamEngine`] retains (the epoch
    /// high-water; the keys and residue it stands for are the `MIG_*`
    /// constants), the engine's `seq` and the source's current `term`.
    MigPrepare { seq: u64, epoch_max: u32, term: u32 },
    /// Destination controller → source controller: the prepare with this
    /// `seq` was applied (or absorbed); the source may release its
    /// retained record.
    MigCommit { seq: u64 },
}

/// Model of one AP's per-client soft state.
#[derive(Debug, Clone)]
struct ModelAp {
    serving: bool,
    head: Option<u16>,
    guard: ApSwitchGuard,
    /// The production term fence.
    fence: TermGuard,
    /// Epochs whose `start` this AP actually applied — the ground truth
    /// completions are checked against.
    applied: Vec<u32>,
}

/// One node of the schedule tree.
#[derive(Debug, Clone)]
struct State {
    engine: SwitchEngine,
    aps: Vec<ModelAp>,
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
    /// Newest epoch whose `start` has been applied anywhere.
    max_applied_epoch: u32,
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
    /// the boundary again); bounded so the DFS terminates.
    mig_reexports_left: u32,
    /// Residue idents the destination owes the client (from the record,
    /// or from the discarded record under the naive shim).
    mig_residue: Vec<u16>,
    /// Idents the destination controller's dedup filter remembers:
    /// transferred keys plus everything delivered post-seam.
    dest_seen: Vec<u16>,
    /// Residue idents actually re-delivered by the destination.
    dest_down_delivered: Vec<u16>,
    /// Every `seq` whose record the destination applied — the ground
    /// truth the engine's idempotence is checked against.
    dest_imported: Vec<u64>,
    completions: u64,
    abandons: u64,
    stale_drops: u64,
    dup_reacks: u64,
    crash_drops: u64,
    term_fence_drops: u64,
    migrations: u64,
    seam_dedup_drops: u64,
    seam_retries: u64,
    seam_aborts: u64,
    seam_absorbed: u64,
    trace: Vec<Choice>,
}

impl State {
    fn initial(cfg: &CheckerConfig) -> State {
        let mut st = State {
            engine: SwitchEngine::new(),
            aps: (0..cfg.n_aps)
                .map(|_| ModelAp {
                    serving: false,
                    head: None,
                    guard: ApSwitchGuard::default(),
                    fence: TermGuard::default(),
                    applied: Vec::new(),
                })
                .collect(),
            net: Vec::new(),
            now: SimTime::ZERO,
            dups_left: cfg.max_dups,
            drops_left: cfg.max_drops,
            timeouts_left: cfg.max_timeouts,
            next_switch: 0,
            view: None,
            max_applied_epoch: 0,
            controller_down: false,
            crashes_left: cfg.max_crashes,
            failovers_left: cfg.max_failovers,
            recovery: RecoveryEngine::new(0),
            zombie_asleep: false,
            journal_tail: VecDeque::new(),
            last_completed: None,
            migrations_left: cfg.max_migrations,
            seam: SeamEngine::new(seam_policy(cfg)),
            source_active: true,
            dest_active: false,
            mig_drops_left: cfg.max_mig_drops,
            mig_dups_left: cfg.max_mig_dups,
            mig_crashes_left: cfg.max_mig_crashes,
            mig_reexports_left: 1,
            mig_residue: Vec::new(),
            dest_seen: Vec::new(),
            dest_down_delivered: Vec::new(),
            dest_imported: Vec::new(),
            completions: 0,
            abandons: 0,
            stale_drops: 0,
            dup_reacks: 0,
            crash_drops: 0,
            term_fence_drops: 0,
            migrations: 0,
            seam_dedup_drops: 0,
            seam_retries: 0,
            seam_aborts: 0,
            seam_absorbed: 0,
            trace: Vec::new(),
        };
        if let Some(&(from, _)) = cfg.switches.first() {
            st.aps[from].serving = true;
            st.aps[from].head = Some(0);
        }
        st.issue_next(cfg)
            .expect("no AP has seen an epoch before the first issue");
        st
    }

    /// Highest switch generation any AP guard has witnessed — the floor
    /// the AP-sourced resync reports to a rebooted controller.
    fn guard_floor(&self) -> u32 {
        self.aps.iter().map(|a| a.guard.latest()).max().unwrap_or(0)
    }

    /// Issues the next configured switch, if any remain.
    fn issue_next(&mut self, cfg: &CheckerConfig) -> Result<(), ViolationKind> {
        while let Some(&(from, to)) = cfg.switches.get(self.next_switch) {
            self.next_switch += 1;
            // The selection loop leaves the AP this reign takes to be
            // serving: a configured switch that leaves another one is moot.
            if self.view.map_or(true, |ap| ap == from) {
                return self.issue(cfg, from, to);
            }
        }
        Ok(())
    }

    /// The primary's next journal batch: the production snapshot of the
    /// production engine, numbered by the production shipper.
    fn cut_batch(&mut self) -> Option<JournalBatch> {
        let engine = &self.engine;
        self.recovery
            .ship(engine.term(), || engine.journal_snapshot())
    }

    fn issue(&mut self, cfg: &CheckerConfig, from: usize, to: usize) -> Result<(), ViolationKind> {
        if cfg.max_journal_lag > 0 {
            let batch = self.cut_batch();
            self.journal_tail.extend(batch);
            if self.journal_tail.len() > cfg.max_journal_lag as usize {
                self.journal_tail.pop_front();
            }
        }
        let (from, to) = (ApId(from as u32), ApId(to as u32));
        if let Some(SwitchMsg::Stop { epoch, term, .. }) =
            self.engine.issue(self.now, CLIENT, from, to)
        {
            self.fresh(epoch)?;
            self.send_stop(cfg, from, to, epoch, term);
        }
        Ok(())
    }

    /// Cross-restart monotonicity: an epoch at or below what some AP
    /// already saw aliases a prior generation — the reborn controller's
    /// frames become indistinguishable from that generation's stragglers.
    fn fresh(&self, epoch: u32) -> Result<(), ViolationKind> {
        if epoch <= self.guard_floor() {
            return Err(ViolationKind::EpochRegression);
        }
        Ok(())
    }

    /// Puts a `stop` for the switch `from` → `to` on the wire.
    fn send_stop(&mut self, cfg: &CheckerConfig, from: ApId, to: ApId, epoch: u32, term: u32) {
        let (ap, to_ap) = (from.0 as usize, to.0 as usize);
        let stop = NetMsg::Stop {
            ap,
            to_ap,
            epoch,
            term,
        };
        self.send(cfg, stop);
    }

    /// The controller process dies: the production wipe, and what the
    /// production engine remembers of the dying reign. A switch in flight
    /// at that instant is simply forgotten — whichever reign comes next
    /// re-issues it (the selection loop re-noticing the client), so the
    /// cursor rewinds.
    fn crash(&mut self) {
        if self.engine.in_flight(CLIENT) {
            self.next_switch -= 1;
        }
        self.controller_down = true;
        self.view = None;
        self.recovery.on_crash(self.now, &self.engine);
        self.engine.crash_wipe();
    }

    /// What AP `ap` answers round `seq`'s `Resync` with, as
    /// `ApState::resync_reply` builds it from the same guard.
    fn resync_reply(&self, ap: usize, seq: u64) -> ResyncReply {
        let a = &self.aps[ap];
        let head = a.head.unwrap_or(0);
        ResyncReply {
            ap: ApId(ap as u32),
            seq,
            clients: vec![ClientResyncState {
                client: CLIENT,
                epoch_high_water: a.guard.latest(),
                start_applied: a.guard.start_applied(),
                serving: a.serving,
                queue_head: head,
                queue_tail: head,
            }],
            recent_uplink_keys: Vec::new(),
        }
    }

    /// Every live AP that admits a `Resync` stamped `term` for round `seq`
    /// answers, in AP order, raising its fence as it does; returns the
    /// round the last answer closed. Probes and replies share the step
    /// because nothing in between can matter (DESIGN.md §6i): a reigning
    /// controller issues nothing until its round closes, and a zombie's
    /// probe names round 0 — its reply is an orphan.
    fn probe(&mut self, cfg: &CheckerConfig, term: u32, seq: u64) -> Option<ResyncRound<()>> {
        let mut closed = None;
        for ap in cfg.live_aps() {
            // As `on_resync_at_ap`: nobody left to hear the reply, or fenced.
            if !self.controller_down && self.term_fence(cfg, ap, term).is_some() {
                let reply = self.resync_reply(ap, seq);
                if let ReplyVerdict::Finish(round) = self.recovery.on_reply(reply) {
                    closed = Some(round);
                }
            }
        }
        closed
    }

    /// Reign `term` begins, as `start_resync` begins it: the round, the
    /// production floor from its replies, the production verdicts acted on
    /// — unless `resync_naive` forges a controller that ignores what the
    /// APs reported — and then the next configured switch.
    fn restart(&mut self, cfg: &CheckerConfig, term: u32) -> Result<(), ViolationKind> {
        self.controller_down = false;
        self.engine.set_term(term);
        let (seq, empty) = self.recovery.begin(self.now, cfg.live_aps().count());
        let closed = empty.or_else(|| self.probe(cfg, term, seq));
        // A fenced probe earns no reply: the deadline closes the round.
        let closed = closed.or_else(|| self.recovery.on_deadline(seq));
        if let Some(round) = closed.filter(|_| !cfg.resync_naive) {
            self.engine.resume_from_resync(&round.replies);
            for (action, _) in resync_verdicts(&round.replies) {
                self.act(cfg, action)?;
            }
        }
        if !self.engine.in_flight(CLIENT) {
            self.issue_next(cfg)?;
        }
        Ok(())
    }

    /// One resync verdict, as `finish_resync` acts on it.
    fn act(&mut self, cfg: &CheckerConfig, action: ResyncAction) -> Result<(), ViolationKind> {
        match action {
            ResyncAction::Adopted { ap, .. } => self.view = Some(ap.0 as usize),
            ResyncAction::RepairSwitch { stop, adopt, .. } => {
                self.view = Some(adopt.0 as usize);
                self.issue(cfg, stop.0 as usize, adopt.0 as usize)?;
            }
            ResyncAction::RepairAdopt { adopt, head, .. } => {
                // A direct `start`: no `stop` leg, nobody is serving.
                let ap = adopt.0 as usize;
                self.view = Some(ap);
                let epoch = self.engine.allocate_epoch(CLIENT);
                self.fresh(epoch)?;
                let term = self.engine.term();
                self.send(
                    cfg,
                    NetMsg::Start {
                        ap,
                        k: head,
                        epoch,
                        term,
                    },
                );
            }
        }
        Ok(())
    }

    /// Puts a frame on the wire. A frame addressed to a dead AP is eaten
    /// silently (the simulator's `ap_reachable` check) — it never becomes
    /// a schedule choice, which keeps the abandon scenarios' trees small.
    fn send(&mut self, cfg: &CheckerConfig, m: NetMsg) {
        let dest_dead = match m {
            NetMsg::Stop { ap, .. } | NetMsg::Start { ap, .. } => cfg.dead_aps.contains(&ap),
            NetMsg::Ack { .. } => false, // the controller is never dead here
            // Seam legs terminate at a controller or the migrated client —
            // never a dead AP.
            NetMsg::UplinkAtDest { .. }
            | NetMsg::DownAtDest { .. }
            | NetMsg::MigPrepare { .. }
            | NetMsg::MigCommit { .. } => false,
        };
        if !dest_dead {
            self.net.push(m);
        }
    }

    /// All schedule choices available from this state, in a fixed order
    /// (the enumeration is deterministic).
    fn choices(&self, cfg: &CheckerConfig) -> Vec<Choice> {
        let mut v = Vec::new();
        // Ample-set reduction: a `DownAtDest` delivery touches only the
        // terminal-checked delivered set, so it commutes with every other
        // transition; duplicating it is a dedup no-op and dropping it is
        // already forbidden. Exploring it alone, first, is therefore
        // exhaustive over everything observable.
        for i in 0..self.net.len() {
            if matches!(self.net[i], NetMsg::DownAtDest { .. }) {
                return vec![Choice::Deliver(i)];
            }
        }
        for i in 0..self.net.len() {
            // Symmetry reduction: in-flight frames form an unordered
            // multiset, so acting on the second copy of an identical
            // frame reaches the same states as acting on the first —
            // schedule only the lowest index of each distinct frame.
            if self.net[..i].contains(&self.net[i]) {
                continue;
            }
            v.push(Choice::Deliver(i));
            let seam = matches!(
                self.net[i],
                NetMsg::MigPrepare { .. } | NetMsg::MigCommit { .. }
            );
            if seam {
                // Seam frames draw on their own fault budgets so the
                // migration slices stay small and self-contained.
                if self.mig_dups_left > 0 {
                    v.push(Choice::DupMigration(i));
                }
                if self.mig_drops_left > 0 {
                    v.push(Choice::DropMigration(i));
                }
            } else {
                if self.dups_left > 0 {
                    v.push(Choice::Duplicate(i));
                }
                if self.drops_left > 0 && !matches!(self.net[i], NetMsg::DownAtDest { .. }) {
                    v.push(Choice::Drop(i));
                }
            }
        }
        if self.timeouts_left > 0 && !self.controller_down && self.engine.in_flight(CLIENT) {
            v.push(Choice::Timeout);
        }
        if self.controller_down {
            // Recovery is always available while down (and is the only
            // way a down state quiesces, so no terminal state is crashed).
            v.push(Choice::RecoverController);
        } else if self.crashes_left > 0 {
            v.push(Choice::CrashController);
        }
        if !self.controller_down && self.failovers_left > 0 {
            v.extend((0..=self.journal_tail.len() as u32).map(Choice::FailoverToStandby));
        }
        if self.zombie_asleep {
            v.push(Choice::ZombiePrimary);
        }
        // Migrations happen at lockstep barriers: every configured switch
        // has resolved, the wire has drained (the barrier quiesces the
        // source shard's control plane — interleaving switch stragglers
        // with the seam is the switch slices' job, not this one's), and
        // the controller is up to serialize the export.
        let pending = self.seam.pending_for(SRC, SRC_CLIENT);
        if self.next_switch == cfg.switches.len()
            && !self.engine.in_flight(CLIENT)
            && self.net.is_empty()
            && !self.controller_down
            && self.source_active
            && pending.is_none()
            && self.migrations_left > 0
        {
            v.push(Choice::MigrateExport);
        }
        if let Some((seq, handoff)) = pending {
            if !cfg.migration_retention {
                // No-retention shim: the harness plays a source that
                // ignores what the engine retains, so the only recovery
                // from a wedged handoff is the blind readopt.
                if !self.source_active {
                    v.push(Choice::MigrateAbort);
                }
            } else if !self.controller_down {
                // Both choices fire the engine's retry timer; which one it
                // is follows from the rung the handoff stands on.
                if handoff.attempts >= seam_policy(cfg).max_attempts {
                    v.push(Choice::MigrateAbort);
                } else if !self
                    .net
                    .iter()
                    .any(|m| matches!(m, NetMsg::MigPrepare { seq: s, .. } if *s == seq))
                {
                    // The retry models the timer expiring with the frame
                    // lost. While a copy is still in flight, a re-send is
                    // indistinguishable from a duplication — and that
                    // interleaving is [`Choice::DupMigration`]'s budget.
                    v.push(Choice::MigrateRetry);
                }
                if self.mig_crashes_left > 0 {
                    v.push(Choice::CrashDuringMigration);
                }
            }
        }
        v
    }

    /// Applies one choice, checking transition invariants.
    fn apply(&mut self, cfg: &CheckerConfig, choice: Choice) -> Result<(), ViolationKind> {
        self.trace.push(choice);
        self.now += SimDuration::from_millis(1);
        match choice {
            Choice::Deliver(i) => {
                let m = self.net.remove(i);
                self.process(cfg, m)?;
            }
            Choice::Duplicate(i) => {
                self.dups_left -= 1;
                let m = self.net[i];
                self.process(cfg, m)?;
            }
            Choice::Drop(i) => {
                self.drops_left -= 1;
                self.net.remove(i);
            }
            Choice::Timeout => {
                self.timeouts_left -= 1;
                let p = *self
                    .engine
                    .pending(CLIENT)
                    .expect("timeout requires in-flight");
                self.now = self.now.max(p.sent_at + self.engine.timeout());
                match self.engine.on_timeout(self.now, CLIENT) {
                    Some(SwitchMsg::Stop { epoch, term, .. }) => {
                        self.send_stop(cfg, p.from, p.to, epoch, term)
                    }
                    Some(_) => unreachable!("timeouts only retransmit stops"),
                    None => {
                        // Retry ladder exhausted: the abandon must surface.
                        if self.engine.next_unprocessed_abandon().is_none() {
                            return Err(ViolationKind::Wedge);
                        }
                        self.abandons += 1;
                        self.issue_next(cfg)?;
                    }
                }
            }
            Choice::CrashController => {
                self.crashes_left -= 1;
                self.crash();
            }
            Choice::RecoverController => self.restart(cfg, self.recovery.on_restart())?,
            Choice::FailoverToStandby(lag) => {
                self.failovers_left -= 1;
                // The last batch the standby hears: cut now, or just
                // before the `lag`-th most recent issue.
                let heard = match lag {
                    0 => self.cut_batch(),
                    n => self.journal_tail.iter().rev().nth(n as usize - 1).cloned(),
                };
                if let Some(batch) = heard {
                    self.recovery.on_journal(self.now, &batch);
                }
                self.crash();
                self.zombie_asleep = true;
                // The detector's first tick past the silence. A standby
                // that declines (it promotes once) leaves the controller
                // down for a cold restart to revive.
                self.now += TAKEOVER_TIMEOUT + SimDuration::from_millis(1);
                if let Some(p) = self.recovery.on_check(self.now, true) {
                    // As `on_standby_check`: what the journal held, then
                    // the new term's round.
                    self.engine.restore_from_journal(p.replica.clients());
                    self.restart(cfg, p.term)?;
                }
            }
            Choice::ZombiePrimary => {
                self.zombie_asleep = false;
                let (term, pending) = self.recovery.on_wake();
                for (_, p) in pending {
                    self.send_stop(cfg, p.from, p.to, p.epoch, term);
                }
                self.probe(cfg, term, 0);
            }
            Choice::MigrateExport => {
                self.migrations_left -= 1;
                // The record's epoch high-water is the engine counter
                // joined with every AP guard mark — exactly what the
                // production `retire_client` exports.
                let epoch_max = self.engine.current_epoch(CLIENT).max(self.guard_floor());
                self.source_active = false;
                let seq = self.seam.export(self.now, handoff(epoch_max));
                self.send_prepare(cfg, seq);
            }
            Choice::MigrateRetry | Choice::MigrateAbort if !cfg.migration_retention => {
                // The shim readopts blind, behind the engine's back:
                // nothing reconciles, and the source cannot know whether
                // the destination admitted.
                self.seam_aborts += 1;
                self.source_active = true;
            }
            Choice::MigrateRetry | Choice::MigrateAbort => {
                let pending = self.seam.pending_for(SRC, SRC_CLIENT);
                let fire_at = pending.expect("gated on pending").1.next_retry;
                self.now = self.now.max(fire_at);
                for due in self.seam.due(self.now) {
                    match due {
                        Due::Resend { seq, .. } => {
                            self.seam_retries += 1;
                            self.send_prepare(cfg, seq);
                        }
                        Due::Abort(_, handoff) => {
                            // Bit-exact readopt from the retained record;
                            // the client re-exports on its next pass.
                            self.seam_aborts += 1;
                            self.source_active = true;
                            self.engine.resume_epochs_above(CLIENT, handoff.record);
                            if self.mig_reexports_left > 0 {
                                self.mig_reexports_left -= 1;
                                self.migrations_left += 1;
                            }
                        }
                        Due::ResendForward(_) | Due::ForwardLost(()) => {
                            unreachable!("the slice forwards no residue")
                        }
                    }
                }
            }
            Choice::CrashDuringMigration => {
                self.mig_crashes_left -= 1;
                // An atomic bounce: soft state wiped, the durable retained
                // record survives, and the restart is a new term like any.
                self.crash();
                self.restart(cfg, self.recovery.on_restart())?;
            }
            Choice::DropMigration(i) => {
                self.mig_drops_left -= 1;
                let m = self.net.remove(i);
                if !cfg.migration_retention {
                    if let NetMsg::MigPrepare { epoch_max, .. } = m {
                        if !self.dest_active {
                            // No retention and the only copy of the record
                            // just died on the wire — but the vehicle
                            // still arrives, so the destination admits it
                            // blind (no record to transfer). The dropped
                            // frame's high-water is the ground truth the
                            // epoch check still holds the admission to.
                            self.admit_at_dest(cfg, epoch_max, false)?;
                        }
                    }
                }
            }
            Choice::DupMigration(i) => {
                self.mig_dups_left -= 1;
                let m = self.net[i];
                self.process(cfg, m)?;
            }
        }
        if self.aps.iter().filter(|a| a.serving).count() > 1 {
            return Err(ViolationKind::DualServing);
        }
        Ok(())
    }

    /// Puts the prepare of retained handoff `seq` on the wire, stamped
    /// with the *current* term: a bounced source resumes its reign, a
    /// superseded one gets fenced.
    fn send_prepare(&mut self, cfg: &CheckerConfig, seq: u64) {
        let epoch_max = self.seam.handoff(seq).expect("retained").payload.record;
        let term = self.engine.term();
        self.send(
            cfg,
            NetMsg::MigPrepare {
                seq,
                epoch_max,
                term,
            },
        );
    }

    /// The production term fence at frame arrival, as `ap_admits` applies
    /// it: `None` fenced off, else whether the term was stale —
    /// [`CheckerConfig::fencing`]` = false` forges an AP that lets a frame
    /// from a superseded reign through, and the caller flags split-brain if
    /// such a frame goes on to mutate state.
    fn term_fence(&mut self, cfg: &CheckerConfig, ap: usize, term: u32) -> Option<bool> {
        let stale = self.aps[ap].fence.on_frame(term) == TermVerdict::Stale;
        if stale && cfg.fencing {
            self.term_fence_drops += 1;
            return None;
        }
        Some(stale)
    }

    /// Admits the migrating client at the destination controller.
    /// `transfer = true` applies the record — epoch-space adoption, dedup
    /// key re-prime, residue re-delivery; `false` models blind admission
    /// (the naive shim's discarded record, or the no-retention shim's
    /// record lost on the wire). Either way the destination's first
    /// switch allocation must land strictly above the record's
    /// high-water, or the reborn client's frames alias a source
    /// generation.
    fn admit_at_dest(
        &mut self,
        cfg: &CheckerConfig,
        epoch_max: u32,
        transfer: bool,
    ) -> Result<(), ViolationKind> {
        self.dest_active = true;
        self.mig_residue = MIG_DOWN_RESIDUE.to_vec();
        let mut dest = SwitchEngine::new();
        if transfer {
            dest.resume_epochs_above(CLIENT, epoch_max);
            self.import_record(cfg);
        }
        if let Some(SwitchMsg::Stop { epoch, .. }) = dest.issue(self.now, CLIENT, ApId(0), ApId(1))
        {
            if epoch <= epoch_max {
                return Err(ViolationKind::EpochRegression);
            }
        }
        // The client's post-seam retransmissions (the dup window
        // straddling the barrier).
        for &ident in &MIG_RETRANSMITS {
            self.send(cfg, NetMsg::UplinkAtDest { ident });
        }
        self.migrations += 1;
        Ok(())
    }

    /// The record's data-plane half, applied monotonically: re-prime the
    /// keys, (re-)deposit the residue (delivery dedups), never rewind.
    fn import_record(&mut self, cfg: &CheckerConfig) {
        for ident in MIG_SRC_DELIVERED {
            if !self.dest_seen.contains(&ident) {
                self.dest_seen.push(ident);
            }
        }
        for &ident in &MIG_DOWN_RESIDUE {
            self.send(cfg, NetMsg::DownAtDest { ident });
        }
    }

    /// Processes a delivered frame through the production state machines.
    fn process(&mut self, cfg: &CheckerConfig, m: NetMsg) -> Result<(), ViolationKind> {
        match m {
            NetMsg::Stop {
                ap,
                to_ap,
                epoch,
                term,
            } => {
                let Some(stale_term) = self.term_fence(cfg, ap, term) else {
                    return Ok(());
                };
                let verdict = if cfg.epoch_guard {
                    self.aps[ap].guard.on_stop(epoch)
                } else {
                    StopVerdict::Process
                };
                match verdict {
                    StopVerdict::Stale => self.stale_drops += 1,
                    StopVerdict::Process => {
                        if stale_term {
                            // The shim let a superseded reign demote an
                            // AP: the zombie is steering the network.
                            return Err(ViolationKind::SplitBrain);
                        }
                        self.aps[ap].serving = false;
                        self.send(
                            cfg,
                            NetMsg::Start {
                                ap: to_ap,
                                k: k_of(epoch),
                                epoch,
                                term,
                            },
                        );
                    }
                }
            }
            NetMsg::Start { ap, k, epoch, term } => {
                let Some(stale_term) = self.term_fence(cfg, ap, term) else {
                    return Ok(());
                };
                let verdict = if cfg.epoch_guard {
                    self.aps[ap].guard.on_start(epoch)
                } else {
                    StartVerdict::Apply
                };
                match verdict {
                    StartVerdict::Stale => self.stale_drops += 1,
                    StartVerdict::DupReAck => {
                        self.dup_reacks += 1;
                        self.send(cfg, NetMsg::Ack { from_ap: ap, epoch });
                    }
                    StartVerdict::Apply => {
                        if stale_term {
                            return Err(ViolationKind::SplitBrain);
                        }
                        if epoch < self.max_applied_epoch {
                            return Err(ViolationKind::StaleHeadWrite);
                        }
                        self.max_applied_epoch = epoch;
                        self.aps[ap].head = Some(k);
                        self.aps[ap].serving = true;
                        self.aps[ap].applied.push(epoch);
                        self.send(cfg, NetMsg::Ack { from_ap: ap, epoch });
                    }
                }
            }
            NetMsg::UplinkAtDest { ident } => {
                if self.dest_seen.contains(&ident) {
                    // The transferred (or locally accumulated) dedup key
                    // catches the retransmit — dropped before the
                    // Internet sees a second copy.
                    self.seam_dedup_drops += 1;
                } else {
                    self.dest_seen.push(ident);
                    if MIG_SRC_DELIVERED.contains(&ident) {
                        // The source already handed this ident to the
                        // Internet; delivering it again is the exact
                        // duplication the key transfer exists to prevent.
                        return Err(ViolationKind::CrossSeamDuplicate);
                    }
                }
            }
            NetMsg::DownAtDest { ident } => {
                // Residue re-delivery; the client's transport-layer seq
                // dedup collapses duplicate copies.
                if !self.dest_down_delivered.contains(&ident) {
                    self.dest_down_delivered.push(ident);
                }
            }
            NetMsg::MigPrepare {
                seq,
                epoch_max,
                term,
            } => {
                let h = handoff(epoch_max);
                match self.seam.on_prepare(seq, term, &h) {
                    PrepareVerdict::StaleTerm => {
                        self.term_fence_drops += 1;
                        return Ok(());
                    }
                    PrepareVerdict::Duplicate { .. } => self.seam_absorbed += 1,
                    applies => {
                        // Rejoin or admit: the record is applied — and on
                        // the ground that happens once per `seq`.
                        if self.dest_imported.contains(&seq) {
                            return Err(ViolationKind::DoubleImport);
                        }
                        self.dest_imported.push(seq);
                        if applies == PrepareVerdict::Admit {
                            self.admit_at_dest(cfg, epoch_max, !cfg.migration_naive)?;
                            self.seam.admitted(seq, &h, DST_LOCAL);
                        } else if !cfg.migration_naive {
                            self.import_record(cfg);
                        }
                    }
                }
                self.send(cfg, NetMsg::MigCommit { seq });
            }
            NetMsg::MigCommit { seq } => match self.seam.on_commit(seq) {
                // The client now lives exactly at the destination.
                CommitVerdict::Release(_) => {}
                CommitVerdict::AfterAbort | CommitVerdict::Duplicate => self.seam_absorbed += 1,
            },
            NetMsg::Ack { from_ap, epoch } => {
                if self.controller_down {
                    // A dead controller reads nothing off the wire.
                    self.crash_drops += 1;
                    return Ok(());
                }
                let outcome = if cfg.epoch_guard {
                    self.engine
                        .on_ack(self.now, CLIENT, ApId(from_ap as u32), epoch)
                } else if let Some(p) = self.engine.pending(CLIENT).copied() {
                    // Pre-epoch shim: the controller trusted *any* ack to
                    // complete the switch it had pending.
                    self.engine.on_ack(self.now, CLIENT, p.to, p.epoch)
                } else {
                    AckOutcome::NoPending
                };
                match outcome {
                    AckOutcome::Completed(rec) => {
                        if !self.aps[rec.to.0 as usize].applied.contains(&rec.epoch) {
                            return Err(ViolationKind::ForeignAck);
                        }
                        self.completions += 1;
                        self.view = Some(rec.to.0 as usize);
                        self.last_completed = Some((rec.to.0 as usize, rec.epoch));
                        self.issue_next(cfg)?;
                    }
                    AckOutcome::NoPending => {}
                    AckOutcome::StaleEpoch | AckOutcome::WrongSource => {
                        self.stale_drops += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks quiescent-state invariants once no choices remain.
    fn check_terminal(&self, cfg: &CheckerConfig) -> Result<(), ViolationKind> {
        if self.engine.in_flight(CLIENT) {
            // Only reachable with the timer budget exhausted (otherwise
            // `Timeout` was still a choice); bounded exploration, not a
            // wedge — the caller counts it as incomplete.
            return Ok(());
        }
        // Every residue datagram the record carried must have reached the
        // client through the destination.
        for ident in &self.mig_residue {
            if !self.dest_down_delivered.contains(ident) {
                return Err(ViolationKind::LostResidue);
            }
        }
        // The two-generals escape hatch: the client may be live at both
        // controllers *only* after an abort from the retained record,
        // while the destination holds the admission that turns the
        // readopted client's re-export into a rejoin. Quiescing
        // dual-active without it is the split the retained record exists
        // to prevent; only the no-retention shim can get here.
        let armed = cfg.migration_retention && self.seam.admission(SRC, SRC_CLIENT).is_some();
        if self.dest_active && self.source_active && !armed {
            return Err(ViolationKind::SplitMigration);
        }
        if !cfg.switches.is_empty() && self.completions == cfg.switches.len() as u64 {
            // Everything completed and every straggler drained: exactly
            // the last switch's target serves, at the handoff index of
            // the generation that actually completed it (a crash can
            // legitimately advance the epoch space past the switch
            // count, so the epoch comes from the completion record).
            let (last_to, last_epoch) = self.last_completed.expect("completions > 0");
            let (_, to) = cfg.switches[cfg.switches.len() - 1];
            if last_to != to {
                return Err(ViolationKind::TerminalMismatch);
            }
            for (i, ap) in self.aps.iter().enumerate() {
                if ap.serving != (i == to) {
                    return Err(ViolationKind::TerminalMismatch);
                }
            }
            if self.aps[to].head != Some(k_of(last_epoch)) {
                return Err(ViolationKind::TerminalMismatch);
            }
        }
        Ok(())
    }
}

/// Violation traces kept verbatim in the report; beyond this only
/// [`CheckReport::violation_count`] grows (a buggy engine violates on a
/// huge fraction of schedules — keeping every trace would dominate
/// memory).
pub const MAX_KEPT_VIOLATIONS: usize = 64;

/// Exhaustively explores every delivery schedule of `cfg`'s scenario
/// within its budgets, checking the control-plane invariants on each.
pub fn check(cfg: &CheckerConfig) -> CheckReport {
    let mut report = CheckReport::default();
    let root = State::initial(cfg);
    explore(cfg, root, &mut report);
    report
}

fn explore(cfg: &CheckerConfig, st: State, report: &mut CheckReport) {
    if report.schedules >= cfg.max_schedules {
        report.truncated = true;
        return;
    }
    let choices = st.choices(cfg);
    if choices.is_empty() {
        report.schedules += 1;
        report.completions += st.completions;
        report.abandons += st.abandons;
        report.stale_drops += st.stale_drops;
        report.dup_reacks += st.dup_reacks;
        report.crash_drops += st.crash_drops;
        report.term_fence_drops += st.term_fence_drops;
        report.migrations += st.migrations;
        report.seam_dedup_drops += st.seam_dedup_drops;
        report.seam_retries += st.seam_retries;
        report.seam_aborts += st.seam_aborts;
        report.seam_absorbed += st.seam_absorbed;
        if st.engine.in_flight(CLIENT) {
            report.incomplete += 1;
        }
        if let Err(kind) = st.check_terminal(cfg) {
            record_violation(report, kind, &st.trace);
        }
        return;
    }
    for choice in choices {
        if report.schedules >= cfg.max_schedules {
            report.truncated = true;
            return;
        }
        let mut next = st.clone();
        match next.apply(cfg, choice) {
            Ok(()) => explore(cfg, next, report),
            Err(kind) => {
                // A violated schedule still counts as explored; the
                // branch below it is not continued.
                report.schedules += 1;
                record_violation(report, kind, &next.trace);
            }
        }
    }
}

fn record_violation(report: &mut CheckReport, kind: ViolationKind, trace: &[Choice]) {
    report.violation_count += 1;
    // Past the cap, still keep the first trace of each *kind* — one
    // violation family flooding the list must not hide the others.
    if report.violations.len() < MAX_KEPT_VIOLATIONS
        || !report.violations.iter().any(|v| v.kind == kind)
    {
        report.violations.push(Violation {
            kind,
            trace: trace.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lossless, duplicate-free single switch has exactly one schedule
    /// per message ordering and always lands cleanly.
    #[test]
    fn clean_single_switch_completes() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            max_dups: 0,
            max_drops: 0,
            max_timeouts: 0,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert_eq!(report.schedules, 1, "stop→start→ack is fully sequential");
        assert!(report.violations.is_empty());
        assert_eq!(report.completions, 1);
        assert_eq!(report.incomplete, 0);
    }

    /// The epoch-guarded engine survives duplication + drops + timer
    /// retransmissions across two overlapping switches: the full schedule
    /// space (hundreds of thousands of interleavings) is violation-free
    /// and both guard branches fire along the way.
    #[test]
    fn epoch_mode_clean_under_default_hostility() {
        let report = check(&CheckerConfig::default());
        assert!(
            report.violations.is_empty(),
            "epoch mode must be violation-free, got {:?}",
            report.violations.first()
        );
        assert!(!report.truncated, "the space must be covered exhaustively");
        assert!(report.schedules > 10_000);
        assert!(report.completions > 0);
        assert!(report.stale_drops > 0, "stale guard never fired");
        assert!(report.dup_reacks > 0, "duplicate-start guard never fired");
    }

    /// With the guards bypassed (the pre-epoch engine), the same scenario
    /// space contains ABA schedules the checker must find — all three
    /// failure families.
    #[test]
    fn legacy_mode_is_caught() {
        let cfg = CheckerConfig {
            epoch_guard: false,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report.violation_count > 0,
            "the checker failed to catch the pre-epoch ABA bug"
        );
        for kind in [
            ViolationKind::ForeignAck,
            ViolationKind::DualServing,
            ViolationKind::StaleHeadWrite,
        ] {
            assert!(
                report.violations.iter().any(|v| v.kind == kind),
                "expected a {kind:?} violation among {:?}",
                report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
            );
        }
    }

    /// A switch whose old AP is dead walks the full retry ladder and
    /// surfaces an abandon — never a silent wedge. With every frame to
    /// the corpse eaten on the wire the schedule is forced: eleven timer
    /// firings, one abandon record.
    #[test]
    fn dead_ap_abandons_surface() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            dead_aps: vec![0],
            max_dups: 0,
            max_drops: 0,
            max_timeouts: SwitchEngine::MAX_RETRIES + 1,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(report.violations.is_empty());
        assert_eq!(report.schedules, 1);
        assert_eq!(report.incomplete, 0, "every schedule must resolve");
        assert_eq!(report.abandons, 1);
        assert_eq!(report.completions, 0);
    }

    /// Standby failover + zombie replay under the shipped fences: the
    /// whole schedule space — every interleaving of the dead reign's
    /// frames, the zombie's replayed `stop` and the new reign's switch —
    /// is violation-free, and the fence actually fires along the way.
    #[test]
    fn standby_failover_with_fencing_is_clean() {
        let cfg = CheckerConfig {
            n_aps: 2,
            switches: vec![(0, 1)],
            max_dups: 0,
            max_drops: 1,
            max_timeouts: 0,
            max_failovers: 1,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report.violations.is_empty(),
            "fenced failover must be violation-free, got {:?}",
            report.violations.first()
        );
        assert!(!report.truncated, "the space must be covered exhaustively");
        assert!(report.completions > 0);
        assert!(
            report.term_fence_drops > 0,
            "no schedule ever exercised the term fence"
        );
    }

    /// The full migration slice under the shipped transfer: a switch
    /// resolves, the client crosses the seam with its record, and every
    /// interleaving of the residue re-delivery and the straddling
    /// retransmission window is violation-free — no epoch regression, no
    /// cross-seam duplicate, no lost residue. The re-primed dedup filter
    /// demonstrably fires on the forwarded-but-unacked retransmit.
    #[test]
    fn migration_slice_is_clean() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            max_migrations: 1,
            // Duplication is the hostility under test (the dup window
            // straddling the barrier); drops and timeouts are covered by
            // the switch slices and only blow up the space here.
            max_drops: 0,
            max_timeouts: 0,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report.violations.is_empty(),
            "migration transfer must be violation-free, got {:?}",
            report.violations.first()
        );
        assert!(!report.truncated, "the space must be covered exhaustively");
        assert!(report.migrations > 0, "no schedule ever migrated");
        assert!(
            report.seam_dedup_drops > 0,
            "no schedule ever exercised the transferred dedup keys"
        );
    }

    /// The naive shim admits the migrant with a fresh epoch space; its
    /// first allocation lands at or below the source's high-water, which
    /// the checker flags as the cross-seam epoch-regression family.
    #[test]
    fn naive_migration_epoch_regression_is_caught() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            max_migrations: 1,
            migration_naive: true,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::EpochRegression),
            "expected EpochRegression among {:?}",
            report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
        );
    }

    /// With no prior switches the naive shim's fresh epoch space happens
    /// not to regress — which exposes the two data-plane families: the
    /// un-primed destination delivers the already-delivered retransmit
    /// twice, and the discarded record's residue never arrives.
    #[test]
    fn naive_migration_loses_and_duplicates() {
        let cfg = CheckerConfig {
            switches: vec![],
            max_migrations: 1,
            migration_naive: true,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        for kind in [
            ViolationKind::CrossSeamDuplicate,
            ViolationKind::LostResidue,
        ] {
            assert!(
                report.violations.iter().any(|v| v.kind == kind),
                "expected {kind:?} among {:?}",
                report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
            );
        }
    }

    /// The two-phase protocol under seam-specific hostility: the prepare
    /// can be dropped, duplicated, retried, aborted-and-readopted, and
    /// the source controller bounced mid-handoff — every interleaving is
    /// violation-free, and the retry, abort-readopt, and idempotent
    /// absorption paths all demonstrably fire.
    #[test]
    fn migration_fault_slice_is_clean() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1)],
            max_migrations: 1,
            // Seam hostility only: the generic budgets are covered by the
            // switch slices and would just blow up the space here.
            max_dups: 0,
            max_drops: 0,
            max_timeouts: 0,
            max_mig_drops: 1,
            max_mig_dups: 1,
            max_mig_retries: 1,
            max_mig_crashes: 1,
            // 1 250 452 schedules: every handoff, the readopted client's
            // re-export included, walks its own retry ladder.
            max_schedules: 2_000_000,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report.violations.is_empty(),
            "two-phase migration must be violation-free, got {:?}",
            report.violations.first()
        );
        assert!(!report.truncated, "the space must be covered exhaustively");
        assert!(report.migrations > 0, "no schedule ever migrated");
        assert!(report.seam_retries > 0, "the retry path never fired");
        assert!(report.seam_aborts > 0, "the abort-readopt path never fired");
        assert!(
            report.seam_absorbed > 0,
            "the idempotent absorption path never fired"
        );
    }

    /// The no-retention shim forgets the record the moment the prepare is
    /// on the wire. Dropping that prepare then loses the record outright —
    /// the arriving vehicle is admitted blind (lost residue, un-primed
    /// dedup), and the blind abort-readopt leaves the client live at both
    /// controllers with nothing armed to reconcile them.
    #[test]
    fn no_retention_shim_is_caught() {
        let cfg = CheckerConfig {
            switches: vec![],
            max_migrations: 1,
            migration_retention: false,
            max_mig_drops: 1,
            // One generic drop so a schedule can also lose a post-seam
            // retransmit, reaching quiescence past the duplicate check.
            max_drops: 1,
            max_dups: 0,
            max_timeouts: 0,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        for kind in [
            ViolationKind::SplitMigration,
            ViolationKind::CrossSeamDuplicate,
            ViolationKind::LostResidue,
        ] {
            assert!(
                report.violations.iter().any(|v| v.kind == kind),
                "expected {kind:?} among {:?}",
                report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
            );
        }
    }

    /// The two situations the lagged-journal slice violated in while a
    /// fed journal was trusted without a round (shortest traces
    /// `[Deliver(0), FailoverToStandby(1)]` → `EpochRegression` and
    /// `[FailoverToStandby(1), Deliver(0), …]` → `DualServing`): the dead
    /// reign's `start`, or its `stop`, reaches an AP after the takeover.
    /// The round raised every fence first, so the frame is dropped there,
    /// and draining the wire leaves at most one AP serving at every step.
    #[test]
    fn lagged_journal_traces_replay() {
        let cfg = CheckerConfig {
            switches: vec![(0, 1), (0, 2)],
            max_failovers: 1,
            max_journal_lag: 1,
            ..CheckerConfig::default()
        };
        let step = |st: &mut State, choice: Choice| {
            assert!(st.choices(&cfg).contains(&choice), "{choice:?}");
            assert_eq!(st.apply(&cfg, choice), Ok(()), "{choice:?}");
            assert!(st.aps.iter().filter(|a| a.serving).count() <= 1);
        };
        let dead_reign = |m: &NetMsg| {
            matches!(
                m,
                NetMsg::Stop { term: 1, .. } | NetMsg::Start { term: 1, .. }
            )
        };
        for start_in_flight in [true, false] {
            let mut st = State::initial(&cfg);
            if start_in_flight {
                step(&mut st, Choice::Deliver(0)); // the `stop` at AP 0
            }
            step(&mut st, Choice::FailoverToStandby(1));
            let old = st
                .net
                .iter()
                .position(dead_reign)
                .expect("still on the wire");
            let fenced = st.term_fence_drops;
            step(&mut st, Choice::Deliver(old));
            assert_eq!(st.term_fence_drops, fenced + 1, "{start_in_flight}");
            while !st.net.is_empty() {
                step(&mut st, Choice::Deliver(0));
            }
        }
    }

    /// The lagged-journal slice under one half of the default hostility
    /// (the full cross-product is ROADMAP item 9's): clean, exhaustive, and
    /// the fence fires.
    fn lagged_hostile_half_is_clean(dups: u32, timeouts: u32) {
        let report = check(&CheckerConfig {
            switches: vec![(0, 1), (0, 2)],
            max_dups: dups,
            max_drops: 1,
            max_timeouts: timeouts,
            max_failovers: 1,
            max_journal_lag: 1,
            max_schedules: 4_000_000,
            ..CheckerConfig::default()
        });
        assert!(
            report.violations.is_empty(),
            "{:?}",
            report.violations.first()
        );
        assert!(!report.truncated, "the space must be covered exhaustively");
        assert!(report.term_fence_drops > 0, "the term fence never fired");
    }

    /// Drops with a timeout: 2 337 206 schedules. Release mode (≈ 3 s; CI's
    /// `protocol-check` job runs it).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release mode")]
    fn lagged_journal_drop_timeout_half_is_clean() {
        lagged_hostile_half_is_clean(0, 1);
    }

    /// Duplicates with drops: 928 016 schedules. Release mode (≈ 1 s).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release mode")]
    fn lagged_journal_dup_drop_half_is_clean() {
        lagged_hostile_half_is_clean(1, 0);
    }

    /// The same failover space with the term fence forged away: the dead
    /// reign's and the zombie's stale-term frames reach the guards after
    /// the new reign's round raised every fence, and surface the
    /// split-brain family the fence exists to kill.
    #[test]
    fn unfenced_zombie_is_caught_as_split_brain() {
        let cfg = CheckerConfig {
            n_aps: 2,
            switches: vec![(0, 1)],
            max_dups: 0,
            max_drops: 1,
            max_timeouts: 0,
            max_failovers: 1,
            fencing: false,
            ..CheckerConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::SplitBrain),
            "expected SplitBrain among {:?}",
            report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
        );
    }
}
