//! The explorer: the root state, the choices open in a state, applying one,
//! the quiescent checks, and the breadth-first search over them.

use super::wire::{ModelAp, NetMsg};
use super::{CheckReport, Checked, CheckerConfig, Choice, State, Violation, ViolationKind, CLIENT};
use crate::switching::SwitchEngine;
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

impl State {
    /// The root: every budget full, the first switch's source serving and
    /// that switch issued.
    pub fn initial(cfg: &CheckerConfig) -> State {
        let mut st = State {
            engine: SwitchEngine::new(),
            aps: vec![ModelAp::default(); cfg.n_aps],
            dups_left: cfg.max_dups,
            drops_left: cfg.max_drops,
            timeouts_left: cfg.max_timeouts,
            crashes_left: cfg.max_crashes,
            failovers_left: cfg.max_failovers,
            migrations_left: cfg.max_migrations,
            source_active: true,
            mig_drops_left: cfg.max_mig_drops,
            mig_dups_left: cfg.max_mig_dups,
            mig_crashes_left: cfg.max_mig_crashes,
            mig_reexports_left: 1,
            ..State::default()
        };
        if let Some(&(from, _)) = cfg.switches.first() {
            st.aps[from].serving = true;
            st.aps[from].head = Some(0);
        }
        st.issue_next(cfg)
            .expect("no AP has seen an epoch before the first issue");
        st
    }

    /// All choices available from this state, in a fixed order (the search
    /// is deterministic).
    pub fn choices(&self, cfg: &CheckerConfig) -> Vec<Choice> {
        let mut v = Vec::new();
        for (i, m) in self.net.iter().enumerate() {
            v.push(Choice::Deliver(i));
            if matches!(m, NetMsg::MigPrepare { .. } | NetMsg::MigCommit { .. }) {
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
                if self.drops_left > 0 && !matches!(m, NetMsg::DownAtDest { .. }) {
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
        self.seam_choices(cfg, &mut v);
        v
    }

    /// Applies one choice, checking transition invariants and adding what
    /// it counted to `tally`. Time moves only where a timer fires.
    pub fn apply(
        &mut self,
        cfg: &CheckerConfig,
        choice: Choice,
        tally: &mut CheckReport,
    ) -> Checked {
        match choice {
            Choice::Deliver(i) => {
                let m = self.net.remove(i);
                self.process(cfg, m, tally)?;
            }
            Choice::Duplicate(i) => {
                self.dups_left -= 1;
                self.process(cfg, self.net[i], tally)?;
            }
            Choice::Drop(i) => {
                self.drops_left -= 1;
                self.net.remove(i);
            }
            Choice::Timeout => self.timeout(cfg, tally)?,
            Choice::CrashController => {
                self.crashes_left -= 1;
                self.crash();
            }
            Choice::RecoverController => self.restart(cfg, self.recovery.on_restart(), tally)?,
            Choice::FailoverToStandby(lag) => self.failover(cfg, lag, tally)?,
            Choice::ZombiePrimary => self.wake_zombie(cfg, tally),
            Choice::MigrateExport => self.export(cfg),
            Choice::MigrateRetry | Choice::MigrateAbort => self.fire_seam_timer(cfg, tally),
            Choice::CrashDuringMigration => {
                // An atomic bounce: soft state wiped, the durable retained
                // record survives, and the restart is a new term like any.
                self.mig_crashes_left -= 1;
                self.crash();
                self.restart(cfg, self.recovery.on_restart(), tally)?;
            }
            Choice::DropMigration(i) => self.drop_migration(cfg, i, tally)?,
            Choice::DupMigration(i) => {
                self.mig_dups_left -= 1;
                self.process(cfg, self.net[i], tally)?;
            }
        }
        if self.aps.iter().filter(|a| a.serving).count() > 1 {
            return Err(ViolationKind::DualServing);
        }
        Ok(())
    }
}

/// Explores every state of `cfg`'s scenario reachable within its budgets,
/// breadth-first, checking the control-plane invariants on every
/// transition and every terminal state. Each state is expanded once; a
/// transition that breaks an invariant is not continued.
pub fn check(cfg: &CheckerConfig) -> CheckReport {
    let mut report = CheckReport::default();
    let root = Rc::new(State::initial(cfg));
    let mut seen = HashSet::from([root.clone()]);
    let mut queue = VecDeque::from([(root, Vec::new())]);
    while let Some((st, trace)) = queue.pop_front() {
        let choices = st.choices(cfg);
        if choices.is_empty() {
            report.terminals += 1;
            // In flight with no choice left: the timer budget ran out
            // (bounded exploration, not a wedge). Otherwise quiescent.
            if st.engine.in_flight(CLIENT) {
                report.incomplete += 1;
            } else if let Err(kind) = st.seam_terminal(cfg).and(st.switch_terminal(cfg)) {
                record_violation(&mut report, kind, trace);
            }
            continue;
        }
        for choice in choices {
            report.transitions += 1;
            let mut next = State::clone(&st);
            let mut path = trace.clone();
            path.push(choice);
            match next.apply(cfg, choice, &mut report) {
                Ok(()) => {
                    let next = Rc::new(next);
                    if seen.insert(next.clone()) {
                        queue.push_back((next, path));
                    }
                }
                Err(kind) => record_violation(&mut report, kind, path),
            }
        }
    }
    report.states = seen.len() as u64;
    report
}

/// Counts a violation, keeping the first trace of its kind: breadth-first,
/// that is a shortest one.
fn record_violation(report: &mut CheckReport, kind: ViolationKind, trace: Vec<Choice>) {
    report.violation_count += 1;
    if !report.violations.iter().any(|v| v.kind == kind) {
        report.violations.push(Violation { kind, trace });
    }
}
