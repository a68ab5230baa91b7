//! Controller recovery (DESIGN.md §6i) as a poll-style state machine —
//! time, replies and journal batches in, verdicts out, like
//! [`SwitchEngine`] and [`SeamEngine`](crate::seam::SeamEngine). It owns no
//! clock, channel or randomness and touches no controller or AP: the
//! simulator (`world/recovery.rs`) and the exhaustive checker
//! ([`crate::protocol_check`]) each wrap a wire and their own effects
//! around this one set of decisions.
//!
//! One crash moves three things, so one engine holds them: the **resync
//! round** every restart ends in, cold or by takeover (`begin`, `on_reply`,
//! `on_deadline`, `hold` for uplink that arrives meanwhile, and
//! [`resync_verdicts`] for what the replies say); the **warm standby**
//! (`ship` on the primary, `on_journal` and `on_check` on the standby); and
//! what the **crashed primary remembers** (`on_crash`): the term a cold
//! restart (`on_restart`) and a promotion both start above, and what its
//! zombie replays at `on_wake`.

use crate::replica::{ApplyOutcome, ClientJournalState, JournalBatch, Replica};
use crate::switching::{ClientResyncState, PendingSwitch, ResyncReply, SwitchEngine};
use std::collections::{BTreeMap, VecDeque};
use wgtt_net::{ApId, ClientId};
use wgtt_sim::{SimDuration, SimTime};

/// How long a restarted controller waits for resync replies before closing
/// the round with whatever arrived (covers APs that die between the
/// broadcast and their reply) — and a zombie for an answer to its probes
/// before it concludes it was superseded.
pub const RESYNC_DEADLINE: SimDuration = SimDuration::from_millis(50);

/// Journal silence past which the standby declares the primary dead. More
/// than three journal intervals, so one delayed batch never triggers a
/// takeover on its own.
pub const TAKEOVER_TIMEOUT: SimDuration = SimDuration::from_millis(35);

/// One resync round: open inside the engine, the caller's once it closes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResyncRound<U> {
    /// Round number: the deadline and every reply carry it, so nothing
    /// addressed to an earlier round (or to none) can touch this one.
    seq: u64,
    /// Replies expected: the APs reachable at broadcast time.
    expected: usize,
    /// Replies collected, in arrival order.
    pub replies: Vec<ResyncReply>,
    /// When the round opened, for the resync-latency metric.
    pub started_at: SimTime,
    /// Uplink parked during the round, oldest first: to be released through
    /// the dedup table the replies re-primed.
    pub held: VecDeque<U>,
}

/// What one resync reply did to the round.
#[derive(Debug, Clone)]
pub enum ReplyVerdict<U> {
    /// Counted; the round stays open.
    Wait,
    /// The last expected reply: the round is closed.
    Finish(ResyncRound<U>),
    /// The reply names no open round: the deadline already closed its
    /// round, a later one superseded it, or it answers a zombie's probe
    /// (which names round 0).
    Orphan,
}

/// What [`RecoveryEngine::hold`] did with an uplink copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hold<U> {
    /// No round is open: the copy comes straight back.
    Pass(U),
    /// Parked until the round closes.
    Parked,
    /// The hold was at its cap: one copy was dropped (the oldest parked,
    /// or at cap 0 this one). Uplink diversity and client retries make an
    /// individual dropped copy recoverable.
    Displaced,
}

/// The standby takes over: restore what the journal held, then run the
/// round under the new term, as a cold restart does.
#[derive(Debug, Clone)]
pub struct Promote {
    /// The new reign's term: above anything the dead primary, or its
    /// zombie, can ever stamp.
    pub term: u32,
    /// What the journal held — a floor for the round, never a substitute
    /// for it: the last batch can predate the crash. Nobody feeds it again.
    pub replica: Replica,
    /// When the primary crashed, for the takeover-latency metric.
    pub down_since: SimTime,
}

/// One client's disposition after a resync round reconstructed the
/// controller's state from AP replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResyncAction {
    /// Exactly one AP claims the client — the caller restores the
    /// serving-map entry in place; no wire traffic needed.
    Adopted {
        /// The re-adopted client.
        client: ClientId,
        /// Its (unanimous) serving AP.
        ap: ApId,
    },
    /// Two or more APs claim the client (a half-open switch resolved on
    /// both sides of the crash, e.g. via local re-adoption racing a slow
    /// `start`): the caller must issue a fresh epoch-stamped switch from
    /// `stop` to `adopt` so exactly one transmitter remains.
    RepairSwitch {
        /// The conflicted client.
        client: ClientId,
        /// The losing claimant the switch stops.
        stop: ApId,
        /// The winning claimant that keeps serving.
        adopt: ApId,
    },
    /// No AP claims the client although it was mid-protocol (`stop`
    /// applied, `start` lost, crash ate the retransmit ladder): the
    /// caller must send a fresh-epoch direct `start` to `adopt` resuming
    /// at queue index `head`.
    RepairAdopt {
        /// The serverless client.
        client: ClientId,
        /// The AP best positioned to take it (newest guard state).
        adopt: ApId,
        /// Queue index the repair `start` resumes from.
        head: u16,
    },
}

/// What a closed round's replies say, one verdict per client the protocol
/// touched, in ascending client order — each with the queue tail of the AP
/// it settles on, where the controller's downlink index allocator resumes.
/// Pure: [`crate::controller::ControllerState::apply_resync`] and the
/// checker both act on it.
pub fn resync_verdicts(replies: &[ResyncReply]) -> Vec<(ResyncAction, u16)> {
    let mut per_client: BTreeMap<ClientId, Vec<(ApId, ClientResyncState)>> = BTreeMap::new();
    for reply in replies {
        for cs in &reply.clients {
            per_client
                .entry(cs.client)
                .or_default()
                .push((reply.ap, *cs));
        }
    }
    // Best positioned to serve a client first: newest applied `start`,
    // then newest guard epoch, then lowest AP id — a total order, so
    // reconstruction is deterministic.
    let rank = |s: &(ApId, ClientResyncState)| {
        let newest = (s.1.start_applied, s.1.epoch_high_water);
        (std::cmp::Reverse(newest), s.0)
    };
    let mut verdicts = Vec::new();
    for (client, states) in per_client {
        let mut claimants: Vec<(ApId, ClientResyncState)> =
            states.iter().copied().filter(|(_, s)| s.serving).collect();
        claimants.sort_by_key(rank);
        let verdict = match claimants[..] {
            [(ap, st)] => (ResyncAction::Adopted { client, ap }, st.queue_tail),
            [] => {
                // Repair only clients that were mid-protocol; a client
                // the guards never saw re-associates through normal
                // selection once CSI flows again.
                let involved = states.iter().filter(|(_, s)| s.epoch_high_water > 0);
                let Some(&(adopt, st)) = involved.min_by_key(|s| rank(s)) else {
                    continue;
                };
                let head = st.queue_head;
                (
                    ResyncAction::RepairAdopt {
                        client,
                        adopt,
                        head,
                    },
                    st.queue_tail,
                )
            }
            // Two or more claim it: the best keeps serving, the worst
            // placed is stopped.
            [(adopt, st), .., (stop, _)] => (
                ResyncAction::RepairSwitch {
                    client,
                    stop,
                    adopt,
                },
                st.queue_tail,
            ),
        };
        verdicts.push(verdict);
    }
    verdicts
}

/// Both controllers' recovery state. `U` is a parked uplink copy. The
/// default is `new(0)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RecoveryEngine<U = ()> {
    /// Bound on [`ResyncRound::held`] (an AP's degraded-mode cap): heavy
    /// uplink during a long round must not grow it without limit.
    hold_cap: usize,
    round: Option<ResyncRound<U>>,
    round_seq: u64,
    /// Sequence of the last batch shipped ([`JournalBatch::seq`]).
    journal_seq: u64,
    /// Dedup keys forwarded since then (the per-batch delta).
    journal_keys: Vec<u64>,
    replica: Replica,
    /// When the last journal batch was applied (the heartbeat clock).
    last_batch_at: SimTime,
    /// The standby promotes once.
    promoted: bool,
    /// When the primary last crashed; cleared at takeover.
    crashed_at: Option<SimTime>,
    /// The term it held — the stale one its zombie stamps at wake — and its
    /// in-flight switches, which the zombie re-drives (the split-brain
    /// hazard the term fence exists to stop).
    zombie_term: u32,
    zombie_pending: Vec<(ClientId, PendingSwitch)>,
}

impl<U> RecoveryEngine<U> {
    /// An idle engine whose rounds park at most `hold_cap` uplink copies.
    pub fn new(hold_cap: usize) -> Self {
        RecoveryEngine {
            hold_cap,
            round: None,
            round_seq: 0,
            journal_seq: 0,
            journal_keys: Vec::new(),
            replica: Replica::new(),
            last_batch_at: SimTime::ZERO,
            promoted: false,
            crashed_at: None,
            zombie_term: 0,
            zombie_pending: Vec::new(),
        }
    }

    /// The controller process dies at `now`, `engine` not yet wiped: an
    /// open round dies with it; its term is what every restart starts
    /// above, it and the in-flight switches are what the zombie wakes
    /// with, the instant what takeover latency counts from.
    pub fn on_crash(&mut self, now: SimTime, engine: &SwitchEngine) {
        self.round = None;
        self.crashed_at = Some(now);
        self.zombie_term = engine.term();
        self.zombie_pending = engine.pending_sorted();
    }

    /// The crashed controller restarts cold: a new term, one above the
    /// reign that died, so the round it runs fences every frame that reign
    /// left on the wire — exactly as a promoted standby's does.
    pub fn on_restart(&self) -> u32 {
        self.zombie_term + 1
    }

    /// Opens a round at `now` that `expected` APs will be asked to answer.
    /// Returns its number, for the `Resync` frames and the deadline to
    /// carry — and the round itself, already closed, when nobody was
    /// reachable.
    pub fn begin(&mut self, now: SimTime, expected: usize) -> (u64, Option<ResyncRound<U>>) {
        self.round_seq += 1;
        self.round = Some(ResyncRound {
            seq: self.round_seq,
            expected,
            replies: Vec::new(),
            started_at: now,
            held: VecDeque::new(),
        });
        (self.round_seq, self.close_if(|r| r.expected == 0))
    }

    /// An AP's reply reached the controller.
    pub fn on_reply(&mut self, reply: ResyncReply) -> ReplyVerdict<U> {
        let Some(round) = self.round.as_mut().filter(|r| r.seq == reply.seq) else {
            return ReplyVerdict::Orphan;
        };
        round.replies.push(reply);
        match self.close_if(|r| r.replies.len() >= r.expected) {
            Some(round) => ReplyVerdict::Finish(round),
            None => ReplyVerdict::Wait,
        }
    }

    /// Round `seq`'s deadline ran out: closes it with whatever arrived,
    /// unless it already closed or a later round superseded it.
    pub fn on_deadline(&mut self, seq: u64) -> Option<ResyncRound<U>> {
        self.close_if(|r| r.seq == seq)
    }

    /// Hands out the open round if it is `done`.
    fn close_if(&mut self, done: impl FnOnce(&ResyncRound<U>) -> bool) -> Option<ResyncRound<U>> {
        if self.round.as_ref().is_some_and(done) {
            self.round.take()
        } else {
            None
        }
    }

    /// Whether a round is open. The reign it rebuilds issues nothing until
    /// it closes: its verdicts, not a journal or a wiped table, say who
    /// serves (DESIGN.md §6i).
    pub fn round_open(&self) -> bool {
        self.round.is_some()
    }

    /// An uplink copy reached the controller. Mid-round it is parked:
    /// checking it now could deliver a cross-restart duplicate.
    pub fn hold(&mut self, copy: U) -> Hold<U> {
        let Some(round) = &mut self.round else {
            return Hold::Pass(copy);
        };
        let full = round.held.len() >= self.hold_cap;
        if full {
            round.held.pop_front();
        }
        if self.hold_cap > 0 {
            round.held.push_back(copy);
        }
        if full {
            Hold::Displaced
        } else {
            Hold::Parked
        }
    }

    /// Primary: the controller forwarded an uplink packet with this dedup
    /// `key`. The next batch carries it, so the standby's restored table
    /// suppresses cross-takeover duplicates.
    pub fn note_forwarded(&mut self, key: u64) {
        self.journal_keys.push(key);
    }

    /// Primary: numbers the next journal batch around a `snapshot` taken
    /// under `term`. `None`, and no snapshot taken, once the standby has
    /// promoted: it *is* the controller now and nobody tails it.
    pub fn ship(
        &mut self,
        term: u32,
        snapshot: impl FnOnce() -> Vec<ClientJournalState>,
    ) -> Option<JournalBatch> {
        if self.promoted {
            return None;
        }
        let clients = snapshot();
        self.journal_seq += 1;
        Some(JournalBatch {
            term,
            seq: self.journal_seq,
            clients,
            dedup_keys: std::mem::take(&mut self.journal_keys),
        })
    }

    /// Standby: a batch arrived at `now`. Anything but
    /// [`ApplyOutcome::Stale`] resets the failure detector's clock; a
    /// straggler from the dead reign after promotion is stale.
    pub fn on_journal(&mut self, now: SimTime, batch: &JournalBatch) -> ApplyOutcome {
        if self.promoted {
            return ApplyOutcome::Stale;
        }
        let outcome = self.replica.apply(batch);
        if outcome != ApplyOutcome::Stale {
            self.last_batch_at = now;
        }
        outcome
    }

    /// Standby failure-detector tick. Promotes — once — when the journal
    /// has been silent past [`TAKEOVER_TIMEOUT`] *and* `primary_down`, the
    /// caller's stand-in for a lease that keeps a mere journal stall from
    /// producing two live controllers.
    pub fn on_check(&mut self, now: SimTime, primary_down: bool) -> Option<Promote> {
        let down_since = self.crashed_at?;
        let silent = now.saturating_since(self.last_batch_at) > TAKEOVER_TIMEOUT;
        if !primary_down || self.promoted || !silent {
            return None;
        }
        self.promoted = true;
        self.crashed_at = None;
        let replica = std::mem::take(&mut self.replica);
        Some(Promote {
            term: replica.term().max(self.zombie_term).max(1) + 1,
            replica,
            down_since,
        })
    }

    /// The crashed primary un-freezes, unaware it was superseded: the stale
    /// term it stamps and the switches it re-drives (handed out once).
    pub fn on_wake(&mut self) -> (u32, Vec<(ClientId, PendingSwitch)>) {
        (self.zombie_term, std::mem::take(&mut self.zombie_pending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::ApId;

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    fn reply(ap: u32, seq: u64) -> ResyncReply {
        ResyncReply {
            ap: ApId(ap),
            seq,
            clients: Vec::new(),
            recent_uplink_keys: Vec::new(),
        }
    }

    fn batch(term: u32, seq: u64) -> JournalBatch {
        JournalBatch {
            term,
            seq,
            clients: Vec::new(),
            dedup_keys: Vec::new(),
        }
    }

    /// What a verdict says, without the round it may carry.
    fn said<U>(v: &ReplyVerdict<U>) -> &'static str {
        match v {
            ReplyVerdict::Wait => "wait",
            ReplyVerdict::Finish(_) => "finish",
            ReplyVerdict::Orphan => "orphan",
        }
    }

    /// The round, one step at a time: `b<n>` opens a round expecting `n`
    /// replies, `r` is a reply to the round opened last and `r<seq>` one to
    /// round `seq`, `d<seq>` the deadline of round `seq`, `x` a crash; each
    /// step says what came back.
    #[test]
    fn round_verdicts() {
        let table: &[(&str, &str, &str)] = &[
            ("a reply with no round open", "r", "orphan"),
            ("a round of two opens", "b2", "open 1"),
            ("its first reply waits", "r", "wait"),
            ("its last reply finishes it", "r", "finish 2"),
            ("and closed it", "r", "orphan"),
            ("so its deadline finds nothing", "d1", "none"),
            ("a round nobody can answer closes at once", "b0", "closed 2"),
            ("a round cut short by its deadline", "b3", "open 3"),
            ("", "r", "wait"),
            ("keeps what arrived", "d3", "closed 1"),
            ("a superseded round's deadline is ignored", "b1", "open 4"),
            ("", "b1", "open 5"),
            ("", "d4", "none"),
            ("the live round is untouched by it", "r", "finish 1"),
            ("a crash mid-round cancels it", "b2", "open 6"),
            ("", "x", "-"),
            ("", "r", "orphan"),
            ("deadline included", "d6", "none"),
            ("a reply to an earlier round", "b2", "open 7"),
            ("is an orphan while a later one is open", "r6", "orphan"),
            ("and is not counted", "r", "wait"),
            ("", "r", "finish 2"),
        ];
        let mut e: RecoveryEngine<u8> = RecoveryEngine::new(4);
        let mut last = 0;
        for &(what, step, want) in table {
            let n = step[1..].parse::<u64>().unwrap_or(0);
            let got = match &step[..1] {
                "b" => {
                    let (seq, closed) = e.begin(ms(0), n as usize);
                    last = seq;
                    let state = if closed.is_some() { "closed" } else { "open" };
                    format!("{state} {seq}")
                }
                "r" => match e.on_reply(reply(0, if n == 0 { last } else { n })) {
                    ReplyVerdict::Finish(round) => format!("finish {}", round.replies.len()),
                    other => said(&other).to_string(),
                },
                "d" => match e.on_deadline(n) {
                    Some(round) => format!("closed {}", round.replies.len()),
                    None => "none".to_string(),
                },
                _ => {
                    e.on_crash(ms(0), &SwitchEngine::new());
                    "-".to_string()
                }
            };
            assert_eq!(got, want, "{step}: {what}");
        }
    }

    /// The hold: passes outside a round, drops the oldest at the cap and
    /// everything at cap 0, and hands the rest over with the round.
    #[test]
    fn hold_is_bounded() {
        let mut e: RecoveryEngine<u8> = RecoveryEngine::new(2);
        assert_eq!(e.hold(9), Hold::Pass(9));
        let (seq, _) = e.begin(ms(0), 1);
        assert!(e.round_open());
        let held: Vec<Hold<u8>> = (1..=4).map(|copy| e.hold(copy)).collect();
        let want = [Hold::Parked, Hold::Parked, Hold::Displaced, Hold::Displaced];
        assert_eq!(held, want);
        let round = e.on_deadline(seq).expect("open");
        assert!(!e.round_open());
        assert_eq!(round.held, [3, 4], "oldest dropped first");
        assert_eq!(round.started_at, ms(0));
        assert_eq!(e.hold(9), Hold::Pass(9));

        let mut none: RecoveryEngine<u8> = RecoveryEngine::new(0);
        let (seq, _) = none.begin(ms(0), 1);
        assert_eq!(none.hold(1), Hold::Displaced);
        assert!(none.on_deadline(seq).expect("open").held.is_empty());
    }

    /// The detector, tick by tick, after a crash at 100 ms of a primary
    /// whose last batch landed at 90 ms: `(now, primary_down, promoted)`.
    #[test]
    fn detector_promotes_once_after_silence_with_the_primary_down() {
        let table: &[(&str, u64, bool, bool)] = &[
            ("silent for 30 ms", 120, true, false),
            ("at exactly 35 ms", 125, true, false),
            ("past it, but the primary is up", 126, false, false),
            ("past it and down", 126, true, true),
            ("never twice", 500, true, false),
        ];
        let mut e: RecoveryEngine = RecoveryEngine::new(0);
        assert_eq!(e.on_journal(ms(90), &batch(1, 1)), ApplyOutcome::Applied);
        assert!(e.on_check(ms(500), true).is_none(), "nothing has crashed");
        e.on_crash(ms(100), &SwitchEngine::new());
        for &(what, now, down, want) in table {
            let got = e.on_check(ms(now), down);
            assert_eq!(got.is_some(), want, "{what}");
            if let Some(p) = got {
                assert_eq!(p.down_since, ms(100));
                assert_eq!(p.replica.last_seq(), 1);
            }
        }
        // Promoted: the dead reign's stragglers are stale and nobody tails
        // the new controller.
        assert_eq!(e.on_journal(ms(600), &batch(1, 2)), ApplyOutcome::Stale);
        assert!(e.ship(2, || unreachable!("nobody tails it")).is_none());
    }

    /// While batches keep arriving the clock keeps resetting: a crashed
    /// primary whose journal is merely slow to drain is not superseded early.
    #[test]
    fn detector_waits_while_batches_arrive() {
        let mut e: RecoveryEngine = RecoveryEngine::new(0);
        e.on_crash(ms(0), &SwitchEngine::new());
        for seq in 1..=10 {
            assert_ne!(
                e.on_journal(ms(30 * seq), &batch(1, seq)),
                ApplyOutcome::Stale
            );
            assert!(e.on_check(ms(30 * seq + 29), true).is_none(), "batch {seq}");
        }
        // A stale batch is no heartbeat.
        assert_eq!(e.on_journal(ms(330), &batch(1, 3)), ApplyOutcome::Stale);
        assert!(e.on_check(ms(336), true).is_some());
    }

    /// The term rule is `max(replica, zombie, 1) + 1`, however the journal
    /// was fed: `(batches fed, the crashed primary's term) → term`.
    #[test]
    fn promotion_term() {
        type Row = (&'static str, &'static [(u32, u64)], u32, u32);
        let table: &[Row] = &[
            ("never fed", &[], 1, 2),
            ("fed in order", &[(1, 1), (1, 2)], 1, 2),
            ("attached mid-reign", &[(1, 7)], 1, 2),
            ("gapped", &[(1, 1), (1, 3)], 1, 2),
            ("the replica's term leads", &[(5, 1)], 3, 6),
            ("the crashed primary's term leads", &[(3, 1)], 5, 6),
        ];
        for &(what, batches, crashed_term, term) in table {
            let mut e: RecoveryEngine = RecoveryEngine::new(0);
            for &(t, seq) in batches {
                e.on_journal(ms(0), &batch(t, seq));
            }
            let mut dying = SwitchEngine::new();
            dying.set_term(crashed_term);
            e.on_crash(ms(0), &dying);
            let p = e.on_check(ms(36), true).expect(what);
            assert_eq!(p.term, term, "{what}");
        }
        // The floor of 1: no engine stamps term 0, so only a memory nothing
        // ever wrote reaches it.
        let mut blank: RecoveryEngine = RecoveryEngine::new(0);
        blank.crashed_at = Some(ms(0));
        assert_eq!(blank.on_check(ms(36), true).expect("silent").term, 2);
    }

    /// The primary numbers its batches from 1 and ships each forwarded key
    /// once; a cold restart starts one term above the crash; the zombie
    /// wakes with what the crash froze, and hands its in-flight switches
    /// out once.
    #[test]
    fn journal_cursor_and_zombie_memory() {
        let mut e: RecoveryEngine = RecoveryEngine::new(0);
        e.note_forwarded(7);
        e.note_forwarded(8);
        let first = e.ship(1, Default::default).expect("not promoted");
        let second = e.ship(1, Default::default).expect("not promoted");
        assert_eq!((first.seq, first.dedup_keys), (1, vec![7, 8]));
        assert_eq!((second.seq, second.dedup_keys), (2, vec![]));

        let mut dying = SwitchEngine::new();
        dying.set_term(4);
        dying.issue(ms(0), ClientId(2), ApId(0), ApId(1));
        e.on_crash(ms(5), &dying);
        assert_eq!(e.on_restart(), 5);
        let (term, pending) = e.on_wake();
        assert_eq!(term, 4);
        assert_eq!(pending.len(), 1);
        assert_eq!((pending[0].0, pending[0].1.epoch), (ClientId(2), 1));
        assert_eq!(e.on_wake(), (4, Vec::new()));
    }
}
