//! Golden digests: ten pinned runs — failover, chaos, controller crash,
//! controller standby, a faulted UDP drive, a fault-free three-vehicle
//! convoy, a fault-free Enhanced 802.11r drive, a 2-shard ring, the same
//! ring over a faulted seam and under a composite storm — replayed and
//! compared with `tests/golden/<name>.json`, so tier-1 (`cargo test -q`)
//! itself sees a behaviour change.
//!
//! The files pin behaviour, not just repeatability: a change that moves
//! one has changed what the system does on that run, and must update the
//! file — and say which keys moved and why — in the same PR (DESIGN.md
//! §6g). To re-record:
//! `WGTT_DETERMINISM_OUT=$PWD/tests/golden cargo test --test golden`.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use wgtt::core::metrics::{Counter, SystemMetrics};
use wgtt::core::{digest, run, run_sharded};

fn check(name: &str, got: &str) {
    common::emit_probe(name, got);
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    digest::assert_same(&path, got, want.trim_end());

    // The digest covers the counter table: each of its `sys` objects
    // holds every row, in table order, and nothing else.
    let mut rows = Vec::new();
    SystemMetrics::default().visit(|row, value| match value {
        Counter::Sum(_) => rows.push(row.to_string()),
        Counter::Samples(_) => rows.extend([format!("{row}.n"), format!("{row}.hash")]),
    });
    let leaves = digest::leaves(got);
    let keys: Vec<&str> = leaves
        .iter()
        .filter_map(|(path, _)| path.split_once("sys.").map(|(_, key)| key))
        .collect();
    assert!(!keys.is_empty(), "{name}: no counters in the digest");
    for sys in keys.chunks(rows.len()) {
        assert_eq!(sys, rows, "{name}: digest keys vs counter table");
    }
}

#[test]
fn failover_drive() {
    check(
        "failover_drive",
        &run(common::failover_drive()).fingerprint(),
    );
}

#[test]
fn chaos_drive() {
    check("chaos_drive", &run(common::chaos_drive()).fingerprint());
}

#[test]
fn controller_crash_drive() {
    let r = run(common::controller_crash_drive());
    check("controller_crash_drive", &r.fingerprint());
}

#[test]
fn controller_standby_drive() {
    let r = run(common::controller_standby_drive());
    check("controller_standby_drive", &r.fingerprint());
}

#[test]
fn faulted_udp_drive() {
    let r = run(common::faulted_udp_drive());
    check("faulted_udp_drive", &r.fingerprint());
}

#[test]
fn convoy_drive() {
    let r = run(common::convoy_drive());
    check("convoy_drive", &r.fingerprint());
}

#[test]
fn baseline_drive() {
    let r = run(common::baseline_drive());
    check("baseline_drive", &r.fingerprint());
}

#[test]
fn ring_corridor() {
    let r = run_sharded(&common::ring_corridor(), 2);
    check("ring_corridor", &r.fingerprint());
}

#[test]
fn seam_faulted_corridor() {
    let r = run_sharded(&common::seam_faulted_corridor(), 2);
    // The run takes every branch of the seam protocol it is here to pin.
    assert!(r.sys.migration_retries > 0, "no prepare was ever re-sent");
    assert!(
        r.sys.migration_dups_dropped > 0,
        "the ledger absorbed nothing"
    );
    assert!(r.sys.migration_aborts > 0, "the outage aborted no handoff");
    let healed = wgtt::sim::SimTime::from_secs(5);
    assert!(
        r.migrations.iter().any(|m| m.at >= healed),
        "no re-export after the seam healed"
    );
    assert!(r.sys.migrated_in > 0, "no handoff ever committed");
    check("seam_faulted_corridor", &r.fingerprint());
}

#[test]
fn storm_corridor() {
    let r = run_sharded(&common::storm_corridor(11), 2);
    // The fault families this run's golden shows at work. The storm also
    // draws backhaul-loss and seam-loss windows: the first has no counter
    // of its own, and the second meets no seam frame at this seed
    // (`migration_retries` is 0 in the file; `seam_faulted_corridor` pins
    // that branch).
    assert!(
        r.sys.ap_crashes > 0 && r.sys.ap_reboots > 0,
        "no AP flapped"
    );
    assert!(r.sys.backhaul_dup_deliveries > 0, "no backhaul duplication");
    assert!(r.sys.backhaul_reorders > 0, "no backhaul reordering");
    assert!(r.sys.standby_takeovers > 0, "no controller failover");
    assert!(r.sys.migration_dups_dropped > 0, "no seam duplication");
    assert!(
        r.sys.migrated_in > 0,
        "no handoff committed under the storm"
    );
    check("storm_corridor", &r.fingerprint());
}
