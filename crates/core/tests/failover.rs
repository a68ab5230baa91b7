//! Dead-AP failover tests: a crashed serving AP must not wedge the
//! controller. The health layer (CSI staleness + abandon blacklisting)
//! has to re-attach the client to a live AP quickly, never re-issue a
//! switch to the corpse, and keep traffic flowing — all fully
//! deterministically for a given seed and fault schedule.

mod common;

use common::{emit_probe, udp_down as udp_flows};
use wgtt_core::config::SystemConfig;
use wgtt_core::digest::assert_same;
use wgtt_core::runner::{run, Scenario};
use wgtt_sim::{FaultSchedule, SimDuration, SimRng, SimTime};

fn drive(seed: u64, faults: FaultSchedule) -> Scenario {
    common::drive(seed, 15.0, udp_flows(), faults)
}

#[test]
fn serving_ap_crash_recovers_within_500ms() {
    // Find which AP serves the client 2 s into a healthy drive, then
    // re-run with that AP crashing at exactly that point. Up to the crash
    // instant the faulty run is bit-identical to the healthy one, so the
    // serving AP is the same.
    let seed = 91;
    let crash_at = SimTime::from_secs(2);
    let healthy = run(drive(seed, FaultSchedule::default()));
    let victim = healthy.world.clients[0]
        .metrics
        .serving_at(crash_at)
        .expect("client should be attached 2 s into the drive");

    let faults = FaultSchedule::new().with_ap_outage(
        victim.0 as usize,
        crash_at,
        crash_at + SimDuration::from_secs(4),
    );
    let res = run(drive(seed, faults));
    assert_eq!(res.world.sys.ap_crashes, 1);

    let m = &res.world.clients[0].metrics;
    assert!(
        !m.failovers.is_empty(),
        "serving-AP crash produced no failover"
    );
    let (_, latency) = m.failovers[0];
    assert!(
        latency < SimDuration::from_millis(500),
        "failover took {latency}"
    );

    // The controller never re-issued a switch to the corpse while it was
    // down, and the blacklist guard never had to fire.
    assert_eq!(res.world.sys.re_wedged_switches, 0);
    for rec in res.world.ctrl.engine.history() {
        let issued_while_down =
            rec.issued_at >= crash_at && rec.issued_at < crash_at + SimDuration::from_secs(4);
        assert!(
            !(issued_while_down && rec.to == victim),
            "switch to dead AP {victim:?} completed at {:?}",
            rec.issued_at
        );
    }

    // Traffic survives the outage.
    assert!(res.downlink_bps(0) > 0.0);
    assert!(
        res.downlink_bps(0) > healthy.downlink_bps(0) * 0.5,
        "one AP outage halved throughput: {:.2} vs {:.2} Mbit/s",
        res.downlink_bps(0) / 1e6,
        healthy.downlink_bps(0) / 1e6
    );
}

#[test]
fn identical_seed_and_schedule_are_bit_identical() {
    let faults = || {
        FaultSchedule::new()
            .with_ap_outage(3, SimTime::from_secs(1), SimTime::from_secs(3))
            .with_ap_outage(5, SimTime::from_secs(4), SimTime::from_secs(5))
            .with_csi_drops(SimTime::from_secs(2), SimTime::from_secs(6), 0.3)
    };
    let a = run(drive(77, faults()));
    let b = run(drive(77, faults()));
    assert_same("same seed and schedule", &a.fingerprint(), &b.fingerprint());
    // That catches same-binary divergence; the CI `determinism` job also
    // diffs the pinned run's probe across two *separate processes* (fresh
    // ASLR, fresh hasher seeds).
    emit_probe(
        "failover_drive",
        &run(common::failover_drive()).fingerprint(),
    );
}

#[test]
fn empty_schedule_matches_default_run() {
    // An explicitly empty schedule must take the exact healthy code path.
    let a = run(drive(55, FaultSchedule::default()));
    let b = run(drive(55, FaultSchedule::new()));
    assert_same(
        "empty vs default schedule",
        &a.fingerprint(),
        &b.fingerprint(),
    );
}

/// Property: for randomly generated fault schedules, two runs with the
/// same seed and schedule produce identical event counts and metrics.
/// (Hand-rolled rather than `proptest!` — each case is a full simulation,
/// so the case count must stay small.)
#[test]
fn random_schedules_are_deterministic() {
    let mut gen = SimRng::new(0xFA17).fork("schedules");
    for case in 0..4u64 {
        let duration = SimDuration::from_secs(8);
        let n_aps = SystemConfig::default().deployment.build().aps.len();
        let faults = FaultSchedule::random_outages(
            &mut gen,
            n_aps,
            duration,
            0.05 + 0.05 * case as f64,
            SimDuration::from_millis(100)..SimDuration::from_millis(600),
        );
        let seed = 200 + case;
        let a = run(drive(seed, faults.clone()));
        let b = run(drive(seed, faults.clone()));
        assert_same(
            &format!("case {case} (schedule {faults:?})"),
            &a.fingerprint(),
            &b.fingerprint(),
        );
        // Sanity: a crashed AP never stops the run from finishing with
        // some delivered traffic.
        if a.world.sys.ap_crashes > 0 {
            assert!(a.downlink_bps(0) > 0.0, "case {case}: zero throughput");
        }
    }
}

/// Two clients sharing APs exercise the carrier-sense receiver-pick path;
/// repeating the run in-process rebuilds every HashMap with fresh hasher
/// state, so any iteration-order dependence (the cause of a flaky Fig 20
/// comparison) shows up as diverging results here.
#[test]
fn multi_client_runs_are_deterministic() {
    use wgtt_core::runner::{ClientSpec, TrajectorySpec};
    let scenario = || {
        let mut s = Scenario::single_drive(SystemConfig::default(), 25.0, udp_flows(), 11);
        s.clients = (0..2)
            .map(|i| ClientSpec {
                trajectory: TrajectorySpec::DriveByOffset {
                    mph: 25.0,
                    lead_in_m: 4.0,
                    offset_m: 0.0,
                    far_lane: i == 1,
                },
                flows: udp_flows(),
            })
            .collect();
        s
    };
    let a = run(scenario());
    let b = run(scenario());
    assert_same(
        "two clients sharing APs",
        &a.fingerprint(),
        &b.fingerprint(),
    );
}

#[test]
fn backhaul_fault_window_degrades_then_recovers() {
    use wgtt_sim::BackhaulFault;
    let healthy = run(drive(42, FaultSchedule::default()));
    let faults = FaultSchedule::new().with_backhaul_fault(
        SimTime::from_secs(1),
        SimTime::from_secs(3),
        BackhaulFault {
            extra_loss_prob: 0.4,
            extra_latency: SimDuration::from_millis(2),
            extra_jitter_mean: SimDuration::from_millis(1),
        },
    );
    let res = run(drive(42, faults));
    // Lossy, laggy backhaul for 2 s hurts but does not kill the drive.
    assert!(res.downlink_bps(0) > 0.0);
    assert!(res.downlink_bps(0) <= healthy.downlink_bps(0) * 1.05);
}
