//! The switch arms of [`State`]: issuing the configured switches, the
//! retransmission timer, and the `stop` → `start` → `ack` legs through the
//! production [`SwitchEngine`](crate::switching::SwitchEngine) and AP
//! guards.

use super::wire::NetMsg;
use super::{k_of, CheckReport, Checked, CheckerConfig, State, ViolationKind, CLIENT};
use crate::switching::{AckOutcome, StartVerdict, StopVerdict, SwitchMsg};
use wgtt_net::ApId;

impl State {
    /// Highest switch generation any AP guard has witnessed — the floor
    /// the AP-sourced resync reports to a rebooted controller.
    pub fn guard_floor(&self) -> u32 {
        self.aps.iter().map(|a| a.guard.latest()).max().unwrap_or(0)
    }

    /// Issues the next configured switch, if any remain.
    pub fn issue_next(&mut self, cfg: &CheckerConfig) -> Checked {
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

    pub fn issue(&mut self, cfg: &CheckerConfig, from: usize, to: usize) -> Checked {
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
    pub fn fresh(&self, epoch: u32) -> Checked {
        if epoch <= self.guard_floor() {
            return Err(ViolationKind::EpochRegression);
        }
        Ok(())
    }

    /// Puts a `stop` for the switch `from` → `to` on the wire.
    pub fn send_stop(&mut self, cfg: &CheckerConfig, from: ApId, to: ApId, epoch: u32, term: u32) {
        let (ap, to_ap) = (from.0 as usize, to.0 as usize);
        let stop = NetMsg::Stop {
            ap,
            to_ap,
            epoch,
            term,
        };
        self.send(cfg, stop);
    }

    /// The controller's retransmission timer fires, `timeout` after the
    /// pending `stop` was sent.
    pub fn timeout(&mut self, cfg: &CheckerConfig, tally: &mut CheckReport) -> Checked {
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
            None => {
                // Retry ladder exhausted: the abandon must surface.
                if self.engine.next_unprocessed_abandon().is_none() {
                    return Err(ViolationKind::Wedge);
                }
                tally.abandons += 1;
                self.issue_next(cfg)?;
            }
        }
        Ok(())
    }

    /// A `stop`, `start` or `ack` arrives.
    pub fn switch_frame(
        &mut self,
        cfg: &CheckerConfig,
        m: NetMsg,
        tally: &mut CheckReport,
    ) -> Checked {
        match m {
            NetMsg::Stop {
                ap,
                to_ap,
                epoch,
                term,
            } => {
                let Some(stale_term) = self.term_fence(cfg, ap, term, tally) else {
                    return Ok(());
                };
                let verdict = if cfg.epoch_guard {
                    self.aps[ap].guard.on_stop(epoch)
                } else {
                    StopVerdict::Process
                };
                match verdict {
                    StopVerdict::Stale => tally.stale_drops += 1,
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
                let Some(stale_term) = self.term_fence(cfg, ap, term, tally) else {
                    return Ok(());
                };
                let verdict = if cfg.epoch_guard {
                    self.aps[ap].guard.on_start(epoch)
                } else {
                    StartVerdict::Apply
                };
                match verdict {
                    StartVerdict::Stale => tally.stale_drops += 1,
                    StartVerdict::DupReAck => {
                        tally.dup_reacks += 1;
                        self.send(cfg, NetMsg::Ack { from_ap: ap, epoch });
                    }
                    StartVerdict::Apply => {
                        if stale_term {
                            return Err(ViolationKind::SplitBrain);
                        }
                        let newest = self.aps.iter().filter_map(|a| a.applied.last()).max();
                        if newest.is_some_and(|&e| epoch < e) {
                            return Err(ViolationKind::StaleHeadWrite);
                        }
                        self.aps[ap].head = Some(k);
                        self.aps[ap].serving = true;
                        self.aps[ap].applied.insert(epoch);
                        self.send(cfg, NetMsg::Ack { from_ap: ap, epoch });
                    }
                }
            }
            NetMsg::Ack { from_ap, epoch } => {
                if self.controller_down {
                    // A dead controller reads nothing off the wire.
                    tally.crash_drops += 1;
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
                        tally.completions += 1;
                        self.completed += 1;
                        self.view = Some(rec.to.0 as usize);
                        self.last_completed = Some((rec.to.0 as usize, rec.epoch));
                        self.issue_next(cfg)?;
                    }
                    AckOutcome::NoPending => {}
                    AckOutcome::StaleEpoch | AckOutcome::WrongSource => tally.stale_drops += 1,
                }
            }
            _ => unreachable!("seam frames are the seam arms'"),
        }
        Ok(())
    }

    /// The quiescent switch checks: a run that completed every switch ends
    /// with exactly the last target serving at its handoff index.
    pub fn switch_terminal(&self, cfg: &CheckerConfig) -> Checked {
        if !cfg.switches.is_empty() && self.completed == cfg.switches.len() {
            // Everything completed and every straggler drained: exactly
            // the last switch's target serves, at the handoff index of
            // the generation that actually completed it (a crash can
            // legitimately advance the epoch space past the switch
            // count, so the epoch comes from the completion record).
            let (last_to, last_epoch) = self.last_completed.expect("completed > 0");
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
