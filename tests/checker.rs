//! The exhaustive protocol checker under tier-1 (`cargo test -q`): the
//! slices that drive the production recovery and seam engines
//! (`RecoveryEngine`, DESIGN.md §6i; `SeamEngine`, §6f), so a change to
//! either protocol is checked against every delivery schedule, not only the
//! sampled runs of `tests/golden.rs`. The crash, failover and lagged-journal
//! configurations are shared with the core suites
//! (`crates/core/tests/common`); the seam ones are those of the
//! `protocol_check` unit tests of the same names, which CI's
//! `protocol-check` job runs in release beside the other slices.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::{crash_checker_cfgs, failover_checker_cfg, lagged_failover_checker_cfg};
use wgtt::core::protocol_check::{check, CheckReport, CheckerConfig, ViolationKind};

fn assert_clean(report: &CheckReport) {
    assert!(
        report.violations.is_empty(),
        "{:?}",
        report.violations.first()
    );
    assert!(!report.truncated, "the space must be covered exhaustively");
}

fn kinds(report: &CheckReport) -> Vec<ViolationKind> {
    let mut kinds: Vec<ViolationKind> = Vec::new();
    for v in &report.violations {
        if !kinds.contains(&v.kind) {
            kinds.push(v.kind);
        }
    }
    kinds
}

#[test]
fn crash_recover_slices_are_clean() {
    for cfg in crash_checker_cfgs() {
        let report = check(&cfg);
        assert_clean(&report);
        assert!(report.crash_drops > 0, "no ack reached the dead controller");
    }
}

#[test]
fn naive_resync_is_caught() {
    for cfg in crash_checker_cfgs() {
        let report = check(&CheckerConfig {
            resync_naive: true,
            ..cfg
        });
        assert_eq!(kinds(&report), [ViolationKind::EpochRegression]);
    }
}

#[test]
fn fenced_failover_is_clean() {
    let report = check(&failover_checker_cfg());
    assert_clean(&report);
    assert!(report.completions > 0);
    assert!(report.term_fence_drops > 0, "the term fence never fired");
}

#[test]
fn unfenced_zombie_is_caught_as_split_brain() {
    let report = check(&CheckerConfig {
        fencing: false,
        ..failover_checker_cfg()
    });
    assert_eq!(kinds(&report), [ViolationKind::SplitBrain]);
}

/// A standby whose last batch predates the primary's last `issue` (lag 1
/// enumerates lag 0 too): every takeover ends in the new term's resync
/// round, so the reign learns from the APs what the journal missed. While a
/// fed journal was trusted without one (ROADMAP item 8), 60 193 of 646 937
/// schedules here ended in `EpochRegression` or `DualServing`; now the
/// slice is 2 062 schedules, every one clean, and the dead reign's
/// `stop`/`start` die at fences the round raised.
#[test]
fn lagged_journal_failover_is_clean() {
    let report = check(&lagged_failover_checker_cfg());
    assert_clean(&report);
    assert!(report.term_fence_drops > 0, "the term fence never fired");
}

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
    assert!(report.migrations > 0, "no schedule ever migrated");
    assert!(report.seam_dedup_drops > 0, "transferred keys never used");
}

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
        max_schedules: 2_000_000,
        ..CheckerConfig::default()
    });
    assert_clean(&report);
    assert!(report.migrations > 0, "no schedule ever migrated");
    assert!(report.seam_retries > 0, "the retry path never fired");
    assert!(report.seam_aborts > 0, "the abort-readopt path never fired");
    assert!(report.seam_absorbed > 0, "the ledger absorbed nothing");
}

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
    assert!(
        kinds(&report).contains(&ViolationKind::SplitMigration),
        "{:?}",
        kinds(&report)
    );
}
