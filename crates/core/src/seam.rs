//! The inter-controller handoff protocol (DESIGN.md §6f) as a poll-style
//! state machine — time and frames in, verdicts out, like
//! [`SwitchEngine`](crate::switching::SwitchEngine) and
//! [`ApSwitchGuard`](crate::switching::ApSwitchGuard). It owns no clock,
//! channel or randomness and touches no controller: the sharded runner
//! ([`crate::shard`]) and the exhaustive checker
//! ([`crate::protocol_check`]) each wrap a transport and their own effects
//! around this one set of decisions.
//!
//! The source [`export`](SeamEngine::export)s a client and retains its
//! record until the destination's commit releases it
//! ([`on_commit`](SeamEngine::on_commit)); [`due`](SeamEngine::due)
//! re-sends the un-acked prepare up the [`MigrationConfig`] ladder and,
//! past `max_attempts`, aborts, handing the record back for readoption.
//! The destination ([`on_prepare`](SeamEngine::on_prepare)) fences a
//! prepare from a superseded source term, absorbs a `seq` it already
//! applied, and merges the re-export of a client it already admitted (the
//! source aborted on a lost commit) instead of admitting it twice. Residue
//! chasing a committed handoff ([`forward`](SeamEngine::forward)) rides
//! the same acked-send ledger as the prepares: one retry ladder, one
//! applied-id set, two id spaces.

use crate::config::MigrationConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use wgtt_sim::SimTime;

/// A send awaiting its acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Unacked<P> {
    /// What a re-send carries.
    pub payload: P,
    /// Sends so far, the first included.
    pub attempts: u32,
    /// When [`SeamEngine::due`] next acts on this send.
    pub next_retry: SimTime,
}

/// Acked, retried, idempotent sends: the sender's un-acked set and the
/// receiver's applied ids, `A` being what the receiver remembers of each.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Ledger<P, A> {
    next_id: u64,
    unacked: BTreeMap<u64, Unacked<P>>,
    applied: BTreeMap<u64, A>,
}

impl<P, A> Ledger<P, A> {
    fn new() -> Self {
        Ledger {
            next_id: 0,
            unacked: BTreeMap::new(),
            applied: BTreeMap::new(),
        }
    }

    /// Registers a first send at `now` and returns its id.
    fn send(&mut self, now: SimTime, policy: &MigrationConfig, payload: P) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.unacked.insert(
            id,
            Unacked {
                payload,
                attempts: 1,
                next_retry: now + policy.retry_delay(1),
            },
        );
        id
    }

    /// Every send whose timer has run out, ascending id, with its payload:
    /// `Some(attempt)` was stepped one rung up the ladder and wants a copy
    /// re-sent, `None` had spent `max_attempts` and is given up.
    fn due(&mut self, now: SimTime, policy: &MigrationConfig) -> Vec<(u64, Option<u32>, P)>
    where
        P: Clone,
    {
        let mut out = Vec::new();
        let mut after = Bound::Unbounded;
        while let Some((&id, u)) = self
            .unacked
            .range_mut((after, Bound::Unbounded))
            .find(|(_, u)| now >= u.next_retry)
        {
            after = Bound::Excluded(id);
            if u.attempts < policy.max_attempts {
                u.attempts += 1;
                u.next_retry = now + policy.retry_delay(u.attempts);
                out.push((id, Some(u.attempts), u.payload.clone()));
            } else if let Some(u) = self.unacked.remove(&id) {
                out.push((id, None, u.payload));
            }
        }
        out
    }
}

/// A retained handoff: the routing keys the protocol decides on, and the
/// caller's record `R` it carries opaquely.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Handoff<R> {
    /// Source controller.
    pub from: usize,
    /// Destination controller.
    pub to: usize,
    /// Source-local client index — the readoption and rejoin key.
    pub src_client: usize,
    /// Everything the destination needs, kept for re-sends and readoption.
    pub record: R,
}

/// The destination's answer to a `Prepare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareVerdict {
    /// Stamped by a source incarnation older than one already heard from:
    /// drop it (its retransmits carry the live term).
    StaleTerm,
    /// This `seq` is already applied: touch nothing, refresh the (possibly
    /// lost) commit naming the first admission's `local`.
    Duplicate {
        /// Destination-local index filed for this `seq`.
        local: usize,
    },
    /// A new `seq` for a client already admitted as `local`: merge the
    /// record's monotone state into the live incarnation, then commit.
    Rejoin {
        /// Destination-local index of the live incarnation.
        local: usize,
    },
    /// Admit the client, report [`SeamEngine::admitted`], then commit.
    Admit,
}

/// The source's answer to a `Commit`.
#[derive(Debug, Clone)]
pub enum CommitVerdict<R> {
    /// The handoff is complete; the retained record is released.
    Release(Handoff<R>),
    /// The handoff was aborted and the client readopted, yet the
    /// destination did admit. The readopted client's re-export will
    /// [`PrepareVerdict::Rejoin`]; nothing to do now. Reported once.
    AfterAbort,
    /// Nothing is waiting for this commit.
    Duplicate,
}

/// One timer expiry reported by [`SeamEngine::due`].
#[derive(Debug, Clone)]
pub enum Due<R, F> {
    /// Re-send the prepare for this retained handoff (the `attempt`-th).
    Resend {
        /// The handoff, still retained ([`SeamEngine::handoff`]).
        seq: u64,
        /// Sends including this one.
        attempt: u32,
        /// A copy of the retained handoff, for the prepare to carry.
        handoff: Handoff<R>,
    },
    /// The prepare's budget is spent: readopt the client from the record
    /// of this `seq`, which is no longer retained.
    Abort(u64, Handoff<R>),
    /// Re-send forward `fid`, whose payload this is a copy of.
    ResendForward(u64, F),
    /// The forward's budget is spent: its payload is lost at the seam.
    ForwardLost(F),
}

/// Both halves of the seam protocol for every controller of a corridor.
/// `R` is the handoff record, `F` the payload of a residue forward. The
/// retry ladder is the caller's [`MigrationConfig`], passed to each call
/// that starts or steps a timer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeamEngine<R, F = ()> {
    /// Applied value: the destination-local index of the admission.
    handoffs: Ledger<Handoff<R>, usize>,
    forwards: Ledger<F, ()>,
    aborted: BTreeSet<u64>,
    /// (source, source-local index) → destination-local index of every
    /// admission: the rejoin key.
    admissions: BTreeMap<(usize, usize), usize>,
    /// Term fence per (destination, source) pair.
    term_seen: BTreeMap<(usize, usize), u32>,
}

/// An idle engine. (Derived, it would ask `R` and `F` for a default.)
impl<R, F> Default for SeamEngine<R, F> {
    fn default() -> Self {
        SeamEngine {
            handoffs: Ledger::new(),
            forwards: Ledger::new(),
            aborted: BTreeSet::new(),
            admissions: BTreeMap::new(),
            term_seen: BTreeMap::new(),
        }
    }
}

impl<R, F> SeamEngine<R, F> {
    /// Source: retains `handoff` at `now`, the instant its first prepare
    /// is sent, and returns the `seq` that prepare carries.
    pub fn export(&mut self, now: SimTime, policy: &MigrationConfig, handoff: Handoff<R>) -> u64 {
        self.handoffs.send(now, policy, handoff)
    }

    /// The retained handoff `seq`, while un-committed and un-aborted.
    pub fn handoff(&self, seq: u64) -> Option<&Unacked<Handoff<R>>> {
        self.handoffs.unacked.get(&seq)
    }

    /// The handoff retained for `src_client` of `from`, with its `seq`.
    pub fn pending_for(
        &self,
        from: usize,
        src_client: usize,
    ) -> Option<(u64, &Unacked<Handoff<R>>)> {
        let mut pending = self.handoffs.unacked.iter().map(|(&seq, u)| (seq, u));
        pending.find(|(_, u)| u.payload.from == from && u.payload.src_client == src_client)
    }

    /// Destination: the prepare `seq` for handoff `h` arrived, stamped with
    /// the source's `term`.
    pub fn on_prepare(&mut self, seq: u64, term: u32, h: &Handoff<R>) -> PrepareVerdict {
        let fence = self.term_seen.entry((h.to, h.from)).or_insert(0);
        if term < *fence {
            return PrepareVerdict::StaleTerm;
        }
        *fence = term;
        if let Some(&local) = self.handoffs.applied.get(&seq) {
            return PrepareVerdict::Duplicate { local };
        }
        if let Some(&local) = self.admissions.get(&(h.from, h.src_client)) {
            self.handoffs.applied.insert(seq, local);
            return PrepareVerdict::Rejoin { local };
        }
        PrepareVerdict::Admit
    }

    /// Destination: files the admission [`PrepareVerdict::Admit`] asked
    /// for, now that the client has its `local` index there.
    pub fn admitted(&mut self, seq: u64, h: &Handoff<R>, local: usize) {
        self.handoffs.applied.insert(seq, local);
        self.admissions.insert((h.from, h.src_client), local);
    }

    /// The destination-local index `src_client` of `from` was admitted as.
    pub fn admission(&self, from: usize, src_client: usize) -> Option<usize> {
        self.admissions.get(&(from, src_client)).copied()
    }

    /// Source: the commit for `seq` arrived.
    pub fn on_commit(&mut self, seq: u64) -> CommitVerdict<R> {
        if let Some(u) = self.handoffs.unacked.remove(&seq) {
            CommitVerdict::Release(u.payload)
        } else if self.aborted.remove(&seq) {
            CommitVerdict::AfterAbort
        } else {
            CommitVerdict::Duplicate
        }
    }

    /// Sender: registers a residue forward first sent at `now`; returns
    /// the `fid` its frames carry.
    pub fn forward(&mut self, now: SimTime, policy: &MigrationConfig, payload: F) -> u64 {
        self.forwards.send(now, policy, payload)
    }

    /// The un-acked forward `fid`.
    pub fn forwarded(&self, fid: u64) -> Option<&F> {
        self.forwards.unacked.get(&fid).map(|u| &u.payload)
    }

    /// Receiver: forward `fid` arrived. `true` the first time (apply it),
    /// `false` for a duplicate; acknowledge either way.
    pub fn on_forward(&mut self, fid: u64) -> bool {
        self.forwards.applied.insert(fid, ()).is_none()
    }

    /// Sender: the acknowledgement for `fid` arrived. `false` when nothing
    /// was waiting for it.
    pub fn on_forward_ack(&mut self, fid: u64) -> bool {
        self.forwards.unacked.remove(&fid).is_some()
    }

    /// Every retry timer that has run out by `now`: prepares in ascending
    /// `seq`, then forwards in ascending `fid`.
    pub fn due(&mut self, now: SimTime, policy: &MigrationConfig) -> Vec<Due<R, F>>
    where
        R: Clone,
        F: Clone,
    {
        let handoffs = self.handoffs.due(now, policy);
        let forwards = self.forwards.due(now, policy);
        let mut out = Vec::with_capacity(handoffs.len() + forwards.len());
        for (seq, attempt, handoff) in handoffs {
            out.push(match attempt {
                Some(attempt) => Due::Resend {
                    seq,
                    attempt,
                    handoff,
                },
                None => {
                    self.aborted.insert(seq);
                    Due::Abort(seq, handoff)
                }
            });
        }
        for (fid, attempt, payload) in forwards {
            out.push(match attempt {
                Some(_) => Due::ResendForward(fid, payload),
                None => Due::ForwardLost(payload),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_sim::SimDuration;

    fn policy(max_attempts: u32) -> MigrationConfig {
        MigrationConfig {
            retry_timeout: SimDuration::from_millis(100),
            backoff: 2.0,
            max_attempts,
        }
    }

    fn hop(src_client: usize) -> Handoff<&'static str> {
        Handoff {
            from: 0,
            to: 1,
            src_client,
            record: "rec",
        }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// The destination half, one prepare at a time: `(seq, term, client)`
    /// in, verdict out; every `Admit` is filed as local index `10 + seq`.
    #[test]
    fn prepare_verdicts() {
        use PrepareVerdict::*;
        let table: &[(&str, u64, u32, usize, PrepareVerdict)] = &[
            ("first prepare admits", 0, 2, 7, Admit),
            (
                "its duplicate names the admission",
                0,
                2,
                7,
                Duplicate { local: 10 },
            ),
            ("an older term is fenced", 1, 1, 8, StaleTerm),
            ("which did not lower the fence", 1, 1, 8, StaleTerm),
            ("nor apply the fenced seq", 1, 2, 8, Admit),
            (
                "a re-export of an admitted client rejoins",
                2,
                3,
                7,
                Rejoin { local: 10 },
            ),
            (
                "and is then itself applied",
                2,
                3,
                7,
                Duplicate { local: 10 },
            ),
            (
                "the first seq still names the first admission",
                0,
                3,
                7,
                Duplicate { local: 10 },
            ),
        ];
        let mut e: SeamEngine<&str> = SeamEngine::default();
        for &(what, seq, term, client, want) in table {
            let got = e.on_prepare(seq, term, &hop(client));
            assert_eq!(got, want, "{what}");
            if got == Admit {
                e.admitted(seq, &hop(client), 10 + seq as usize);
            }
        }
        assert_eq!(e.admission(0, 7), Some(10));
        assert_eq!(e.admission(0, 9), None);
        // The fence is per (destination, source) pair.
        let reverse = Handoff {
            from: 1,
            to: 0,
            ..hop(7)
        };
        assert_eq!(e.on_prepare(9, 0, &reverse), Admit);
    }

    /// Commit after release and after abort: `Release` once, `AfterAbort`
    /// once, `Duplicate` ever after.
    #[test]
    fn commit_verdicts() {
        let mut e: SeamEngine<&str> = SeamEngine::default();
        let released = e.export(ms(0), &policy(1), hop(7));
        let aborted = e.export(ms(0), &policy(1), hop(8));
        assert_eq!(e.pending_for(0, 8).map(|(seq, _)| seq), Some(aborted));
        assert!(matches!(e.on_commit(released), CommitVerdict::Release(h) if h.src_client == 7));
        assert!(matches!(e.on_commit(released), CommitVerdict::Duplicate));
        let due = e.due(ms(100), &policy(1));
        assert!(matches!(due[..], [Due::Abort(seq, _)] if seq == aborted));
        assert!(e.pending_for(0, 8).is_none() && e.handoff(aborted).is_none());
        assert!(matches!(e.on_commit(aborted), CommitVerdict::AfterAbort));
        assert!(matches!(e.on_commit(aborted), CommitVerdict::Duplicate));
        assert!(matches!(e.on_commit(99), CommitVerdict::Duplicate));
    }

    /// One retry ladder for both id spaces: a send at t = 0 under
    /// `100 ms × 2^k`, three attempts, is due at exactly 100, 300 and 700 ms
    /// — re-sent twice, then given up — and at no instant in between.
    #[test]
    fn due_walks_the_ladder_for_prepares_and_forwards_alike() {
        let mut e: SeamEngine<&str, &str> = SeamEngine::default();
        let seq = e.export(ms(0), &policy(3), hop(7));
        let fid = e.forward(ms(0), &policy(3), "residue");
        assert_eq!(e.forwarded(fid), Some(&"residue"));
        let mut log = Vec::new();
        for t in (0..=800).step_by(50) {
            for due in e.due(ms(t), &policy(3)) {
                log.push(match due {
                    Due::Resend {
                        seq: s,
                        attempt,
                        handoff,
                    } if s == seq => format!("{t} prepare #{attempt} {}", handoff.record),
                    Due::ResendForward(f, payload) if f == fid => format!("{t} forward {payload}"),
                    Due::Abort(s, handoff) if s == seq => {
                        format!("{t} abort {}", handoff.record)
                    }
                    Due::ForwardLost(payload) => format!("{t} lost {payload}"),
                    other => panic!("{other:?}"),
                });
            }
        }
        let want = [
            "100 prepare #2 rec",
            "100 forward residue",
            "300 prepare #3 rec",
            "300 forward residue",
            "700 abort rec",
            "700 lost residue",
        ];
        assert_eq!(log, want);
        let delays: Vec<u64> = (1..=3)
            .map(|n| policy(3).retry_delay(n).as_millis())
            .collect();
        assert_eq!(delays, [100, 200, 400], "the ladder the instants above sum");
    }

    /// Two prepares on different rungs fall due at the same instant: the
    /// one on its last rung is given up, the other re-sent, in one call
    /// and in ascending `seq`.
    #[test]
    fn one_due_call_resends_and_aborts_in_seq_order() {
        let mut e: SeamEngine<&str> = SeamEngine::default();
        let first = e.export(ms(0), &policy(2), hop(7));
        assert!(matches!(
            e.due(ms(100), &policy(2))[..],
            [Due::Resend { attempt: 2, .. }]
        ));
        let second = e.export(ms(200), &policy(2), hop(8));
        let due = e.due(ms(300), &policy(2));
        assert!(
            matches!(due[..], [Due::Abort(a, _), Due::Resend { seq: r, attempt: 2, .. }]
                if a == first && r == second),
            "{due:?}"
        );
        assert!(e.handoff(first).is_none() && e.handoff(second).is_some());
    }

    /// An acknowledged send leaves the ladder; the receiver applies an id
    /// once however often it arrives.
    #[test]
    fn acks_stop_retries_and_receipts_are_idempotent() {
        let mut e: SeamEngine<&str, &str> = SeamEngine::default();
        let seq = e.export(ms(0), &policy(3), hop(7));
        let fid = e.forward(ms(0), &policy(3), "residue");
        assert!(e.on_forward(fid), "first arrival applies");
        assert!(!e.on_forward(fid), "second is a duplicate");
        assert!(e.on_forward_ack(fid));
        assert!(!e.on_forward_ack(fid), "nothing waits for a second ack");
        assert!(matches!(e.on_commit(seq), CommitVerdict::Release(_)));
        assert!(e.due(ms(10_000), &policy(3)).is_empty());
    }
}
