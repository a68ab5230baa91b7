//! The exhaustive protocol checker under tier-1 (`cargo test -q`): every
//! slice, each defined and searched once here. The switch slices drive the
//! production `SwitchEngine` and AP guards; the crash, failover and
//! lagged-journal slices the production `RecoveryEngine` (DESIGN.md §6i);
//! the seam slices the production `SeamEngine` (§6f). So a change to any of
//! the three protocols is checked against every state a slice can reach,
//! not only against the sampled runs of `tests/golden.rs`. Each negative
//! slice forges one guard away harness-side and must still be caught, so
//! the checker is shown to see the family that guard kills.

use wgtt::core::protocol_check::{check, CheckReport, CheckerConfig, ViolationKind};
use wgtt::core::switching::SwitchEngine;

fn assert_clean(report: &CheckReport) {
    assert_eq!(report.violation_count, 0, "{:?}", report.violations.first());
}

fn kinds(report: &CheckReport) -> Vec<ViolationKind> {
    report.violations.iter().map(|v| v.kind).collect()
}

fn assert_caught(report: &CheckReport, want: &[ViolationKind]) {
    for kind in want {
        assert!(
            kinds(report).contains(kind),
            "{kind:?} not among {:?}",
            kinds(report)
        );
    }
}

/// The crash slice: one crash/recover cycle at every point against the two
/// overlapping default switches, under one duplicate, one drop and one
/// timer firing.
fn crash_cfg() -> CheckerConfig {
    CheckerConfig {
        max_crashes: 1,
        ..CheckerConfig::default()
    }
}

/// The failover slice: one switch between two APs, one drop, the primary
/// killed at any point and its zombie woken at any later one.
fn failover_cfg() -> CheckerConfig {
    CheckerConfig {
        n_aps: 2,
        switches: vec![(0, 1)],
        max_dups: 0,
        max_drops: 1,
        max_timeouts: 0,
        max_failovers: 1,
        ..CheckerConfig::default()
    }
}

/// Three APs, three switches round the ring, default budgets.
fn ring_cfg() -> CheckerConfig {
    CheckerConfig {
        switches: vec![(0, 1), (1, 2), (2, 0)],
        ..CheckerConfig::default()
    }
}

/// A lossless, duplicate-free single switch is one chain of states,
/// stop → start → ack, and lands cleanly.
#[test]
fn clean_single_switch_completes() {
    let report = check(&CheckerConfig {
        switches: vec![(0, 1)],
        max_dups: 0,
        max_drops: 0,
        max_timeouts: 0,
        ..CheckerConfig::default()
    });
    assert_clean(&report);
    assert_eq!(report.terminals, 1, "stop→start→ack is fully sequential");
    assert_eq!(report.completions, 1);
    assert_eq!(report.incomplete, 0);
}

/// A switch whose old AP is dead walks the full retry ladder and surfaces
/// an abandon — never a silent wedge. With every frame to the corpse eaten
/// on the wire the path is forced: eleven timer firings, one abandon.
#[test]
fn dead_ap_abandons_surface() {
    let report = check(&CheckerConfig {
        switches: vec![(0, 1)],
        dead_aps: vec![0],
        max_dups: 0,
        max_drops: 0,
        max_timeouts: SwitchEngine::MAX_RETRIES + 1,
        ..CheckerConfig::default()
    });
    assert_clean(&report);
    assert_eq!(report.terminals, 1);
    assert_eq!(report.incomplete, 0, "every path must resolve");
    assert_eq!(report.abandons, 1);
    assert_eq!(report.completions, 0);
}

/// The epoch-guarded engine survives duplication + drops + timer
/// retransmissions across two overlapping switches, and both guard
/// branches fire along the way.
#[test]
fn epoch_mode_clean_under_default_hostility() {
    let report = check(&CheckerConfig::default());
    assert_clean(&report);
    assert!(report.states > 300, "only {} states", report.states);
    assert!(report.completions > 0);
    assert!(report.stale_drops > 0, "stale guard never fired");
    assert!(report.dup_reacks > 0, "duplicate-start guard never fired");
}

/// With the guards bypassed (the pre-epoch engine), the same space holds
/// the stale-`start`/foreign-`ack` ABA in all three of its forms. The
/// search is breadth-first, so the trace kept for each kind is a shortest
/// one: the foreign ack takes four steps.
#[test]
fn legacy_mode_is_caught() {
    let report = check(&CheckerConfig {
        epoch_guard: false,
        ..CheckerConfig::default()
    });
    use ViolationKind::*;
    assert_caught(&report, &[ForeignAck, DualServing, StaleHeadWrite]);
    let foreign = report.violations.iter().find(|v| v.kind == ForeignAck);
    assert_eq!(foreign.map(|v| v.trace.len()), Some(4), "{foreign:?}");
}

/// Three switches round three APs, so the last one returns to the first
/// AP: clean under the default budgets.
#[test]
fn three_switch_ring_is_clean() {
    let report = check(&ring_cfg());
    assert_clean(&report);
    assert!(report.stale_drops > 0 && report.dup_reacks > 0);
}

/// The ring without the guards: besides the three ABA forms, a run that
/// completes all three switches ends with the wrong AP serving or the
/// wrong head — a kind no two-switch slice reaches.
#[test]
fn three_switch_ring_legacy_is_caught() {
    let report = check(&CheckerConfig {
        epoch_guard: false,
        ..ring_cfg()
    });
    use ViolationKind::*;
    assert_caught(
        &report,
        &[ForeignAck, DualServing, StaleHeadWrite, TerminalMismatch],
    );
}

/// The AP-sourced resync round survives a controller crash at every point
/// of two overlapping switches under the full (dup, drop, timeout, crash) =
/// (1, 1, 1, 1) budget: no dual serving, no stale head write, no epoch
/// regression, no wedge — and acks do reach the dead controller.
#[test]
fn crash_recover_slices_are_clean() {
    let report = check(&crash_cfg());
    assert_clean(&report);
    assert!(report.states > 10_000, "only {} states", report.states);
    assert!(report.completions > 0);
    assert!(report.crash_drops > 0, "no ack reached the dead controller");
}

/// A recovery that ignores what the APs reported, so its epoch space
/// restarts at zero, is caught by the same space as the cross-restart
/// aliasing family, and as nothing else.
#[test]
fn naive_resync_is_caught() {
    let report = check(&CheckerConfig {
        resync_naive: true,
        ..crash_cfg()
    });
    assert_eq!(kinds(&report), [ViolationKind::EpochRegression]);
}

/// Standby failover + zombie replay under the shipped fences: every
/// interleaving of the dead reign's frames, the zombie's replayed `stop`
/// and the new reign's switch is clean, and the fence actually fires.
#[test]
fn fenced_failover_is_clean() {
    let report = check(&failover_cfg());
    assert_clean(&report);
    assert!(report.completions > 0);
    assert!(report.term_fence_drops > 0, "the term fence never fired");
}

/// The same space with the term fence forged away: the dead reign's and the
/// zombie's stale-term frames reach the guards after the new reign's round
/// raised every fence, and surface as split-brain, and as nothing else.
#[test]
fn unfenced_zombie_is_caught_as_split_brain() {
    let report = check(&CheckerConfig {
        fencing: false,
        ..failover_cfg()
    });
    assert_eq!(kinds(&report), [ViolationKind::SplitBrain]);
}

/// A standby whose last batch may predate the primary's last `issue` (lag 1
/// takes in lag 0), three APs, the second switch leaving AP 0 again — the
/// AP a reign that never heard of the first switch still takes to be
/// serving — under the full (dup, drop, timeout) = (1, 1, 1) budget. Every
/// takeover ends in the new term's resync round, so the reign learns from
/// the APs what the journal missed, and the dead reign's `stop`/`start` die
/// at the fences the round raised. While a fed journal was trusted without
/// a round (ROADMAP item 8), the lossless slice alone violated.
#[test]
fn lagged_journal_failover_is_clean() {
    let report = check(&CheckerConfig {
        switches: vec![(0, 1), (0, 2)],
        max_failovers: 1,
        max_journal_lag: 1,
        ..CheckerConfig::default()
    });
    assert_clean(&report);
    assert!(report.term_fence_drops > 0, "the term fence never fired");
}

/// A switch resolves and the client crosses the seam with its record; the
/// residue re-delivery and the straddling retransmission window are clean,
/// and the re-primed dedup filter fires on the forwarded-but-unacked
/// retransmit. Duplication is the hostility under test; drops and timeouts
/// are the switch slices'.
#[test]
fn migration_slice_is_clean() {
    let report = check(&CheckerConfig {
        switches: vec![(0, 1)],
        max_migrations: 1,
        max_drops: 0,
        max_timeouts: 0,
        ..CheckerConfig::default()
    });
    assert_clean(&report);
    assert!(report.migrations > 0, "no path ever migrated");
    assert!(report.seam_dedup_drops > 0, "transferred keys never used");
}

/// The naive shim admits the migrant with a fresh epoch space; its first
/// allocation lands at or below the source's high-water.
#[test]
fn naive_migration_epoch_regression_is_caught() {
    let report = check(&CheckerConfig {
        switches: vec![(0, 1)],
        max_migrations: 1,
        migration_naive: true,
        ..CheckerConfig::default()
    });
    assert_caught(&report, &[ViolationKind::EpochRegression]);
}

/// With no prior switch the naive shim's fresh epoch space happens not to
/// regress, which exposes the two data-plane families: the un-primed
/// destination delivers the already-delivered retransmit twice, and the
/// discarded record's residue never arrives.
#[test]
fn naive_migration_loses_and_duplicates() {
    let report = check(&CheckerConfig {
        switches: vec![],
        max_migrations: 1,
        migration_naive: true,
        ..CheckerConfig::default()
    });
    use ViolationKind::*;
    assert_caught(&report, &[CrossSeamDuplicate, LostResidue]);
}

/// The two-phase handoff under seam hostility: the prepare dropped,
/// duplicated, retried, aborted-and-readopted, the source bounced
/// mid-handoff — clean, and the retry, abort and absorption paths all fire.
#[test]
fn migration_fault_slice_is_clean() {
    let report = check(&CheckerConfig {
        switches: vec![(0, 1)],
        max_migrations: 1,
        max_dups: 0,
        max_drops: 0,
        max_timeouts: 0,
        max_mig_drops: 1,
        max_mig_dups: 1,
        max_mig_retries: 1,
        max_mig_crashes: 1,
        ..CheckerConfig::default()
    });
    assert_clean(&report);
    assert!(report.migrations > 0, "no path ever migrated");
    assert!(report.seam_retries > 0, "the retry path never fired");
    assert!(report.seam_aborts > 0, "the abort-readopt path never fired");
    assert!(report.seam_absorbed > 0, "the ledger absorbed nothing");
}

/// The no-retention shim forgets the record once the prepare is on the
/// wire. Dropping that prepare loses it outright — the arriving vehicle
/// is admitted blind (lost residue, un-primed dedup) — and the blind
/// readopt leaves the client live at both controllers with nothing armed to
/// reconcile them. One generic drop lets a path also lose a post-seam
/// retransmit and quiesce past the duplicate check.
#[test]
fn no_retention_shim_is_caught() {
    let report = check(&CheckerConfig {
        switches: vec![],
        max_migrations: 1,
        migration_retention: false,
        max_mig_drops: 1,
        max_drops: 1,
        max_dups: 0,
        max_timeouts: 0,
        ..CheckerConfig::default()
    });
    use ViolationKind::*;
    assert_caught(&report, &[SplitMigration, CrossSeamDuplicate, LostResidue]);
}
