//! The seam arms of [`State`]: the inter-controller handoff through the
//! production [`SeamEngine`](crate::seam::SeamEngine), the hostile wire and
//! source controller around it, and the destination's ground truth.

use super::wire::NetMsg;
use super::{CheckReport, Checked, CheckerConfig, Choice, State, ViolationKind, CLIENT};
use crate::config::MigrationConfig;
use crate::seam::{CommitVerdict, Due, Handoff, PrepareVerdict};
use crate::switching::{SwitchEngine, SwitchMsg};
use wgtt_net::ApId;

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

impl State {
    /// The handoff choices open in this state, after the wire's.
    pub fn seam_choices(&self, cfg: &CheckerConfig, v: &mut Vec<Choice>) {
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
        if let Some((_, handoff)) = pending {
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
                } else {
                    v.push(Choice::MigrateRetry);
                }
                if self.mig_crashes_left > 0 {
                    v.push(Choice::CrashDuringMigration);
                }
            }
        }
    }

    /// Lockstep barrier, source side: retire the client and put its
    /// prepare on the wire.
    pub fn export(&mut self, cfg: &CheckerConfig) {
        self.migrations_left -= 1;
        // The record's epoch high-water is the engine counter
        // joined with every AP guard mark — exactly what the
        // production `retire_client` exports.
        let epoch_max = self.engine.current_epoch(CLIENT).max(self.guard_floor());
        self.source_active = false;
        let seq = self
            .seam
            .export(self.now, &seam_policy(cfg), handoff(epoch_max));
        self.send_prepare(cfg, seq, epoch_max);
    }

    /// The source's retry timer fires: a re-send, or past the ladder an
    /// abort that readopts the client from the retained record.
    pub fn fire_seam_timer(&mut self, cfg: &CheckerConfig, tally: &mut CheckReport) {
        if !cfg.migration_retention {
            // The no-retention shim readopts blind, behind the engine's
            // back: nothing reconciles, and the source cannot know whether
            // the destination admitted.
            tally.seam_aborts += 1;
            self.source_active = true;
            return;
        }
        let pending = self.seam.pending_for(SRC, SRC_CLIENT);
        let fire_at = pending.expect("gated on pending").1.next_retry;
        self.now = self.now.max(fire_at);
        for due in self.seam.due(self.now, &seam_policy(cfg)) {
            match due {
                Due::Resend { seq, handoff, .. } => {
                    tally.seam_retries += 1;
                    self.send_prepare(cfg, seq, handoff.record);
                }
                Due::Abort(_, handoff) => {
                    // Bit-exact readopt from the retained record;
                    // the client re-exports on its next pass.
                    tally.seam_aborts += 1;
                    self.source_active = true;
                    self.engine.resume_epochs_above(CLIENT, handoff.record);
                    if self.mig_reexports_left > 0 {
                        self.mig_reexports_left -= 1;
                        self.migrations_left += 1;
                    }
                }
                Due::ResendForward(..) | Due::ForwardLost(()) => {
                    unreachable!("the slice forwards no residue")
                }
            }
        }
    }

    /// Drops the seam frame at wire index `i`.
    pub fn drop_migration(
        &mut self,
        cfg: &CheckerConfig,
        i: usize,
        tally: &mut CheckReport,
    ) -> Checked {
        self.mig_drops_left -= 1;
        match self.net.remove(i) {
            // No retention, and the only copy of the record just died on
            // the wire — but the vehicle still arrives, so the destination
            // admits it blind. The dropped frame's high-water is the
            // ground truth the epoch check still holds the admission to.
            NetMsg::MigPrepare { epoch_max, .. }
                if !cfg.migration_retention && !self.dest_active =>
            {
                self.admit_at_dest(cfg, epoch_max, false, tally)
            }
            _ => Ok(()),
        }
    }

    /// Puts the prepare of retained handoff `seq`, whose record is
    /// `epoch_max`, on the wire, stamped with the *current* term: a bounced
    /// source resumes its reign, a superseded one gets fenced.
    fn send_prepare(&mut self, cfg: &CheckerConfig, seq: u64, epoch_max: u32) {
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
        tally: &mut CheckReport,
    ) -> Checked {
        self.dest_active = true;
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
        tally.migrations += 1;
        Ok(())
    }

    /// The record's data-plane half, applied monotonically: re-prime the
    /// keys, (re-)deposit the residue (delivery dedups), never rewind.
    fn import_record(&mut self, cfg: &CheckerConfig) {
        self.dest_seen.extend(MIG_SRC_DELIVERED);
        for &ident in &MIG_DOWN_RESIDUE {
            self.send(cfg, NetMsg::DownAtDest { ident });
        }
    }

    /// A frame of the seam arrives: at the destination controller, or at
    /// the migrated client.
    pub fn seam_frame(
        &mut self,
        cfg: &CheckerConfig,
        m: NetMsg,
        tally: &mut CheckReport,
    ) -> Checked {
        match m {
            NetMsg::UplinkAtDest { ident } => {
                if !self.dest_seen.insert(ident) {
                    // The transferred (or locally accumulated) dedup key
                    // catches the retransmit — dropped before the
                    // Internet sees a second copy.
                    tally.seam_dedup_drops += 1;
                } else if MIG_SRC_DELIVERED.contains(&ident) {
                    // The source already handed this ident to the
                    // Internet; delivering it again is the exact
                    // duplication the key transfer exists to prevent.
                    return Err(ViolationKind::CrossSeamDuplicate);
                }
            }
            NetMsg::DownAtDest { ident } => {
                // Residue re-delivery; the client's transport-layer seq
                // dedup collapses duplicate copies.
                self.dest_down_delivered.insert(ident);
            }
            NetMsg::MigPrepare {
                seq,
                epoch_max,
                term,
            } => {
                let h = handoff(epoch_max);
                match self.seam.on_prepare(seq, term, &h) {
                    PrepareVerdict::StaleTerm => {
                        tally.term_fence_drops += 1;
                        return Ok(());
                    }
                    PrepareVerdict::Duplicate { .. } => tally.seam_absorbed += 1,
                    applies => {
                        // Rejoin or admit: the record is applied — and on
                        // the ground that happens once per `seq`.
                        if !self.dest_imported.insert(seq) {
                            return Err(ViolationKind::DoubleImport);
                        }
                        if applies == PrepareVerdict::Admit {
                            self.admit_at_dest(cfg, epoch_max, !cfg.migration_naive, tally)?;
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
                CommitVerdict::AfterAbort | CommitVerdict::Duplicate => tally.seam_absorbed += 1,
            },
            _ => unreachable!("switch frames are the switch arms'"),
        }
        Ok(())
    }

    /// The quiescent seam checks.
    pub fn seam_terminal(&self, cfg: &CheckerConfig) -> Checked {
        // Once the client is admitted, every residue datagram the record
        // carried (or the naive shim discarded) must have reached it
        // through the destination.
        let lost = MIG_DOWN_RESIDUE
            .iter()
            .any(|i| !self.dest_down_delivered.contains(i));
        if self.dest_active && lost {
            return Err(ViolationKind::LostResidue);
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
        Ok(())
    }
}
