//! Chaos tests for the epoch-stamped switch control plane: **full-system
//! chaos drives** with the backhaul duplicating and reordering up to 10 %
//! of all frames (control and data) at 15–35 mph must produce zero applied
//! mis-switches, zero abandoned switches, a still-attached client, and most
//! of the healthy run's throughput. The exhaustive checker
//! (`wgtt_core::protocol_check`), which searches every state two
//! overlapping switches can reach against the production engine and guards
//! and catches the stale-`start`/foreign-`ack` ABA family in its pre-epoch
//! shim mode, runs in the root package's `tests/checker.rs`.
//!
//! The determinism tests double as the CI `determinism` job's probes: when
//! `WGTT_DETERMINISM_OUT` is set they write their run digests as JSON, and
//! the job diffs two separate processes' output byte-for-byte.

mod common;

use common::{chaos_drive, chaos_schedule, emit_probe, udp_down};
use wgtt_core::digest::assert_same;
use wgtt_core::runner::{run, RunResult, Scenario};
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

fn drive(seed: u64, mph: f64, faults: FaultSchedule) -> Scenario {
    common::drive(seed, mph, udp_down(), faults)
}

// ---------- full-system chaos drives ----------

fn assert_unharmed(res: &RunResult, label: &str) {
    let s = &res.world.sys;
    assert_eq!(s.mis_switches, 0, "{label}: applied mis-switches");
    assert_eq!(s.abandoned_switches, 0, "{label}: switch abandoned");
    assert!(
        res.world.clients[0].serving.is_some(),
        "{label}: client ended the drive wedged/detached"
    );
    assert!(res.downlink_bps(0) > 0.0, "{label}: zero throughput");
}

#[test]
fn ten_percent_dup_reorder_is_harmless_at_15mph() {
    let healthy = run(drive(131, 15.0, FaultSchedule::default()));
    let res = run(drive(131, 15.0, chaos_schedule(0.10, 0.10)));
    assert_unharmed(&healthy, "healthy");
    assert_unharmed(&res, "chaos");
    let s = &res.world.sys;
    assert!(
        s.backhaul_dup_deliveries > 0,
        "10% duplication produced no duplicate deliveries"
    );
    assert!(s.backhaul_reorders > 0, "10% reordering held no frame back");
    // Duplication can only add deliveries; the retention bound is about
    // the control plane not melting down, not about exact throughput.
    assert!(
        res.downlink_bps(0) > healthy.downlink_bps(0) * 0.8,
        "chaos drive lost too much: {:.2} vs {:.2} Mbit/s",
        res.downlink_bps(0) / 1e6,
        healthy.downlink_bps(0) / 1e6
    );
}

#[test]
fn dup_reorder_chaos_is_harmless_at_25_and_35mph() {
    for (seed, mph) in [(47u64, 25.0f64), (48, 35.0)] {
        let res = run(drive(seed, mph, chaos_schedule(0.10, 0.10)));
        assert_unharmed(&res, &format!("{mph} mph"));
        assert!(res.world.sys.backhaul_dup_deliveries > 0);
    }
}

// ---------- determinism ----------

/// The same seed and chaos schedule reproduce byte-identically in one
/// process; with `WGTT_DETERMINISM_OUT` set the digest is emitted for the
/// CI job's cross-process byte diff.
#[test]
fn chaos_schedule_is_deterministic() {
    let a = run(chaos_drive()).fingerprint();
    let b = run(chaos_drive()).fingerprint();
    assert_same("same seed and schedule", &a, &b);
    emit_probe("chaos_drive", &a);
}

/// Zero-rate duplication/reordering windows must take the exact healthy
/// code path: same RNG draw sequence, bit-identical metrics.
#[test]
fn zero_rate_windows_are_bit_identical_to_healthy() {
    let zero = FaultSchedule::new()
        .with_duplication(SimTime::ZERO, SimTime::from_secs(600), 0.0)
        .with_reordering(
            SimTime::ZERO,
            SimTime::from_secs(600),
            0.0,
            SimDuration::from_millis(1),
        );
    let healthy = run(drive(77, 25.0, FaultSchedule::default()));
    let res = run(drive(77, 25.0, zero));
    assert_same(
        "zero-rate windows vs healthy",
        &res.fingerprint(),
        &healthy.fingerprint(),
    );
    assert_eq!(res.world.sys.backhaul_dup_deliveries, 0);
    assert_eq!(res.world.sys.backhaul_reorders, 0);
}
