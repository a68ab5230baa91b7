//! Controller crash/restart resilience tests: full-system crash drives.
//! A controller crash covering a switch mid-drive at 25 mph must resync in
//! well under a second of sim time, apply zero mis-switches, deliver zero
//! duplicate uplink datagrams at the server, and reproduce byte-identically
//! across runs. The exhaustive checker's crash slices — every state a crash
//! at any point can reach, and the naive-resync shim caught — are in the
//! root package's `tests/checker.rs`.
//!
//! The determinism tests double as the CI `determinism` job's probes via
//! `WGTT_DETERMINISM_OUT`, like the failover and chaos suites.

mod common;

use common::{controller_crash_drive, emit_probe, server_uplink_duplicates, udp_down_up};
use wgtt_core::digest::assert_same;
use wgtt_core::runner::{run, Scenario};
use wgtt_sim::{BackhaulFault, FaultSchedule, SimDuration, SimTime};

fn drive(seed: u64, mph: f64, faults: FaultSchedule) -> Scenario {
    common::drive(seed, mph, udp_down_up(), faults)
}

/// A controller outage window placed mid-drive, squarely across the busy
/// switching region of the deployment.
fn crash_schedule(from_s: f64, until_s: f64) -> FaultSchedule {
    FaultSchedule::new().with_controller_crash(
        SimTime::from_secs_f64(from_s),
        SimTime::from_secs_f64(until_s),
    )
}

// ---------- full-system crash drives ----------

/// A 1.5 s controller outage covering the busy switching region of a
/// 25 mph drive: the controller must resync fast (well under the 1 s
/// bar), repair state without a single applied mis-switch, and the
/// dedup re-prime must keep every cross-restart uplink duplicate away
/// from the server.
#[test]
fn crash_mid_drive_resyncs_without_mis_switches() {
    let res = run(drive(901, 25.0, crash_schedule(2.0, 3.5)));
    let s = &res.world.sys;
    assert_eq!(s.controller_crashes, 1);
    assert_eq!(s.controller_recoveries, 1);
    assert_eq!(s.resyncs.len(), 1, "exactly one resync round");
    let (_, latency) = s.resyncs[0];
    assert!(
        latency < SimDuration::from_secs(1),
        "resync took {latency:?}, above the 1 s bar"
    );
    assert_eq!(s.mis_switches, 0, "applied mis-switches after restart");
    assert_eq!(
        server_uplink_duplicates(&res),
        0,
        "duplicate uplink reached the server across the restart"
    );
    assert!(
        s.controller_rx_dropped > 0,
        "the outage never dropped anything at the dead controller"
    );
    assert!(
        res.world.clients[0].serving.is_some(),
        "client ended the drive wedged/detached"
    );
    assert!(res.downlink_bps(0) > 0.0, "zero downlink goodput");
    assert!(res.uplink_bps(0) > 0.0, "zero uplink goodput");
}

/// Degraded mode holds uplink at the last-serving AP while the
/// controller is down and flushes it after resync — bounded, counted,
/// and without duplicate deliveries.
#[test]
fn degraded_mode_buffers_and_flushes_uplink() {
    let res = run(drive(902, 25.0, crash_schedule(2.0, 3.0)));
    let s = &res.world.sys;
    assert!(
        s.degraded_uplink_buffered > 0,
        "the outage never buffered uplink at an AP"
    );
    assert!(
        s.degraded_uplink_flushed > 0,
        "no buffered uplink was flushed after resync"
    );
    assert!(
        s.degraded_uplink_flushed <= s.degraded_uplink_buffered,
        "flushed more than was buffered"
    );
    assert_eq!(server_uplink_duplicates(&res), 0);
}

/// The half-open orphan: the controller dies with a stop in flight, the
/// old AP applies it and hands off — but the lossy wire eats the
/// AP-to-AP start leg, so no AP serves the client and no controller
/// exists to retransmit. Local autonomy re-adopts the client at the old
/// AP after the re-adoption guard, instead of stranding it for the rest
/// of the outage. The crash window and seed are pinned to a schedule
/// where that sequence deterministically occurs.
#[test]
fn local_autonomy_readopts_orphan_during_outage() {
    let from = SimTime::from_millis(2250);
    let faults = FaultSchedule::new()
        .with_controller_crash(from, from + SimDuration::from_millis(1500))
        .with_backhaul_fault(
            SimTime::ZERO,
            SimTime::from_secs(600),
            BackhaulFault {
                extra_loss_prob: 0.6,
                extra_latency: SimDuration::ZERO,
                extra_jitter_mean: SimDuration::ZERO,
            },
        );
    let res = run(drive(901, 25.0, faults));
    let s = &res.world.sys;
    assert!(
        s.local_readoptions >= 1,
        "the pinned schedule no longer produces an orphaned hand-off"
    );
    assert_eq!(s.mis_switches, 0);
    assert!(
        res.world.clients[0].serving.is_some(),
        "client ended the drive wedged/detached"
    );
    assert!(res.downlink_bps(0) > 0.0);
}

// ---------- determinism ----------

/// The same seed and crash schedule reproduce byte-identically in one
/// process; with `WGTT_DETERMINISM_OUT` set the digest is emitted for the
/// CI job's cross-process byte diff.
#[test]
fn crash_schedule_is_deterministic() {
    let a = run(controller_crash_drive()).fingerprint();
    let b = run(controller_crash_drive()).fingerprint();
    assert_same("same seed and schedule", &a, &b);
    emit_probe("controller_crash_drive", &a);
}

/// A schedule with no controller-crash window must take the exact
/// healthy code path: bit-identical digest to the default run and
/// every crash/resync/degraded counter at zero.
#[test]
fn empty_crash_schedule_is_bit_identical_to_healthy() {
    let healthy = run(drive(904, 25.0, FaultSchedule::default()));
    let res = run(drive(904, 25.0, FaultSchedule::new()));
    assert_same(
        "empty vs default schedule",
        &res.fingerprint(),
        &healthy.fingerprint(),
    );
    let s = &res.world.sys;
    assert_eq!(s.controller_crashes, 0);
    assert_eq!(s.controller_recoveries, 0);
    assert!(s.resyncs.is_empty());
    assert_eq!(s.resync_replies, 0);
    assert_eq!(s.controller_rx_dropped, 0);
    assert_eq!(s.degraded_uplink_buffered, 0);
    assert_eq!(s.degraded_uplink_dropped, 0);
    assert_eq!(s.degraded_uplink_flushed, 0);
    assert_eq!(s.local_readoptions, 0);
}
