//! Oracle pipeline invariance: how many helper threads evaluate the
//! accuracy oracle's samples — none (at tick time, on the event loop), one,
//! or more than the host has cores — must be invisible in the results.
//!
//! The oracle's five `ClientMetrics` fields include two `f64` sums, so
//! "invisible" means the ordered reducer added the same terms in the same
//! order: the run digest carries the sums' bits, and everything else in it
//! shows the event loop itself never noticed.
//!
//! Like its sibling suites, the digests double as CI probes: with
//! `WGTT_DETERMINISM_OUT` set they are written out so the `determinism` job
//! can diff two separate processes byte-for-byte.

mod common;

use common::emit_probe;
use wgtt_core::config::SystemConfig;
use wgtt_core::digest::assert_same;
use wgtt_core::runner::{run_with_oracle_helpers, ClientSpec, FlowSpec, Scenario, TrajectorySpec};
use wgtt_core::shard::{run_sharded_with_oracle_helpers, ShardedScenario};
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

/// Helper counts every scenario runs at: the inline path, the 2-core
/// reference host's shape, and more helpers than chunks in flight.
const HELPERS: [usize; 3] = [0, 1, 3];

/// Runs `digest_at` at every helper count, checks the digests agree and
/// that the oracle actually sampled, and emits the agreed digest.
fn assert_helper_count_invariant(name: &str, digest_at: impl Fn(usize) -> String) {
    let digests: Vec<String> = HELPERS.iter().map(|&h| digest_at(h)).collect();
    assert!(
        !digests[0].contains("\"capacity_samples\":0,"),
        "{name}: a client was never sampled: {}",
        digests[0]
    );
    for (h, d) in HELPERS.iter().zip(&digests).skip(1) {
        let what = format!("{name}: {h} helpers vs tick-time evaluation");
        assert_same(&what, d, &digests[0]);
    }
    emit_probe(&format!("oracle_pipeline_{name}"), &digests[0]);
}

#[test]
fn convoy_is_helper_count_invariant() {
    // Three vehicles, greedy TCP down beside 4 Mb/s UDP up: samples of
    // three clients interleave within every chunk.
    let clients = (0..3)
        .map(|i| ClientSpec {
            trajectory: TrajectorySpec::DriveByOffset {
                mph: 25.0,
                lead_in_m: 4.0,
                offset_m: 8.0 * i as f64,
                far_lane: false,
            },
            flows: vec![
                FlowSpec::DownlinkTcp { limit: None },
                FlowSpec::UplinkUdp {
                    rate_bps: 4_000_000,
                    payload: 1200,
                },
            ],
        })
        .collect();
    let scenario = Scenario {
        config: SystemConfig::default(),
        clients,
        duration: SimDuration::from_secs(3),
        seed: 1301,
        log_deliveries: false,
        flow_start: SimDuration::from_millis(1),
        faults: FaultSchedule::default(),
    };
    assert_helper_count_invariant("convoy", |helpers| {
        run_with_oracle_helpers(scenario.clone(), helpers).fingerprint()
    });
}

#[test]
fn faulted_drive_is_helper_count_invariant() {
    // The serving AP crashes and reboots mid-drive: samples recorded while
    // it was down must be judged against the crashed-AP set of their own
    // tick, not the one in force when a helper gets to them.
    let mut scenario = Scenario::single_drive(
        SystemConfig::default(),
        35.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 20_000_000,
            payload: 1472,
        }],
        1302,
    );
    scenario.faults = FaultSchedule::new().with_ap_outage(
        2,
        SimTime::from_millis(1200),
        SimTime::from_millis(2200),
    );
    assert_helper_count_invariant("faulted_drive", |helpers| {
        let r = run_with_oracle_helpers(scenario.clone(), helpers);
        assert_eq!(r.world.sys.ap_crashes, 1, "the outage never fired");
        r.fingerprint()
    });
}

#[test]
fn sharded_ring_is_helper_count_invariant() {
    // Two shards, each vehicle crosses a seam: retired clients keep the
    // samples their old shard recorded, migrants start fresh in the new one.
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let ring =
        ShardedScenario::ring_corridor(cfg, 2, 1, 35.0, 5_000_000, SimDuration::from_secs(6), 1303);
    assert_helper_count_invariant("sharded_ring", |helpers| {
        let r = run_sharded_with_oracle_helpers(&ring, 2, helpers);
        assert!(r.sys.migrated_in > 0, "no vehicle crossed a seam");
        r.fingerprint()
    });
}
