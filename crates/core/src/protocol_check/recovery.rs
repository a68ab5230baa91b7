//! The recovery arms of [`State`]: the controller's crash, every restart
//! — cold, takeover, mid-migration bounce — as one term-stamped resync
//! round through the production
//! [`RecoveryEngine`](crate::recovery::RecoveryEngine), the standby's
//! promotion, and the dead primary's zombie behind the AP term fences.

use super::wire::NetMsg;
use super::{CheckReport, Checked, CheckerConfig, State, CLIENT};
use crate::recovery::{resync_verdicts, ReplyVerdict, ResyncAction, ResyncRound, TAKEOVER_TIMEOUT};
use crate::replica::JournalBatch;
use crate::switching::{ClientResyncState, ResyncReply, TermVerdict};
use wgtt_net::ApId;
use wgtt_sim::SimDuration;

impl State {
    /// The primary's next journal batch: the production snapshot of the
    /// production engine, numbered by the production shipper.
    pub fn cut_batch(&mut self) -> Option<JournalBatch> {
        let engine = &self.engine;
        self.recovery
            .ship(engine.term(), || engine.journal_snapshot())
    }

    /// The controller process dies: the production wipe, and what the
    /// production engine remembers of the dying reign. A switch in flight
    /// at that instant is simply forgotten — whichever reign comes next
    /// re-issues it (the selection loop re-noticing the client), so the
    /// cursor rewinds.
    pub fn crash(&mut self) {
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
    fn probe(
        &mut self,
        cfg: &CheckerConfig,
        term: u32,
        seq: u64,
        tally: &mut CheckReport,
    ) -> Option<ResyncRound<()>> {
        let mut closed = None;
        for ap in cfg.live_aps() {
            // As `on_resync_at_ap`: nobody left to hear the reply, or fenced.
            if !self.controller_down && self.term_fence(cfg, ap, term, tally).is_some() {
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
    pub fn restart(&mut self, cfg: &CheckerConfig, term: u32, tally: &mut CheckReport) -> Checked {
        self.controller_down = false;
        self.engine.set_term(term);
        let (seq, empty) = self.recovery.begin(self.now, cfg.live_aps().count());
        let closed = empty.or_else(|| self.probe(cfg, term, seq, tally));
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
    fn act(&mut self, cfg: &CheckerConfig, action: ResyncAction) -> Checked {
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

    /// The production term fence at frame arrival, as `ap_admits` applies
    /// it: `None` fenced off, else whether the term was stale —
    /// [`CheckerConfig::fencing`]` = false` forges an AP that lets a frame
    /// from a superseded reign through, and the caller flags split-brain if
    /// such a frame goes on to mutate state.
    pub fn term_fence(
        &mut self,
        cfg: &CheckerConfig,
        ap: usize,
        term: u32,
        tally: &mut CheckReport,
    ) -> Option<bool> {
        let stale = self.aps[ap].fence.on_frame(term) == TermVerdict::Stale;
        if stale && cfg.fencing {
            tally.term_fence_drops += 1;
            return None;
        }
        Some(stale)
    }

    /// The primary dies and the standby, fed a journal trailing it by `lag`
    /// issues, takes over.
    pub fn failover(&mut self, cfg: &CheckerConfig, lag: u32, tally: &mut CheckReport) -> Checked {
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
            self.restart(cfg, p.term, tally)?;
        }
        Ok(())
    }

    /// The dead primary's zombie wakes: its in-flight `stop`s back on the
    /// wire and a probe to every AP, all under its superseded term.
    pub fn wake_zombie(&mut self, cfg: &CheckerConfig, tally: &mut CheckReport) {
        self.zombie_asleep = false;
        let (term, pending) = self.recovery.on_wake();
        for (_, p) in pending {
            self.send_stop(cfg, p.from, p.to, p.epoch, term);
        }
        self.probe(cfg, term, 0, tally);
    }
}
