//! The seam slices of the exhaustive protocol checker, under tier-1
//! (`cargo test -q`): these are the slices that drive the production
//! `SeamEngine` (DESIGN.md §6f), so a change to the seam protocol is
//! checked against every delivery schedule, not only the sampled runs of
//! `tests/golden.rs`. The configurations are those of the
//! `protocol_check` unit tests of the same names, which CI's
//! `protocol-check` job runs in release beside the other slices.

use wgtt::core::protocol_check::{check, CheckReport, CheckerConfig, ViolationKind};

fn assert_clean(report: &CheckReport) {
    assert!(
        report.violations.is_empty(),
        "{:?}",
        report.violations.first()
    );
    assert!(!report.truncated, "the space must be covered exhaustively");
    assert!(report.migrations > 0, "no schedule ever migrated");
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
    let kinds: Vec<ViolationKind> = report.violations.iter().map(|v| v.kind).collect();
    assert!(kinds.contains(&ViolationKind::SplitMigration), "{kinds:?}");
}
