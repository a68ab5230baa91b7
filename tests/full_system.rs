//! Cross-crate integration tests through the `wgtt` facade: the headline
//! paper results, end to end.

use wgtt::core::{
    run, run_sharded, FlowSpec, Mode, RunResult, Scenario, ShardedScenario, SystemConfig, WgttWorld,
};
use wgtt::sim::{FaultSchedule, SimDuration, SimTime};
use wgtt::workloads::video::{replay_video, VideoConfig};

fn scenario(mode: Mode, mph: f64, flows: Vec<FlowSpec>, seed: u64) -> Scenario {
    let cfg = SystemConfig {
        mode,
        ..SystemConfig::default()
    };
    Scenario::single_drive(cfg, mph, flows, seed)
}

#[test]
fn headline_tcp_gain_in_paper_band() {
    // Paper: 2.4–4.7× TCP improvement across 5–25 mph. Check 15 mph lands
    // within a generous band around it.
    let tcp = |mode| {
        run(scenario(
            mode,
            15.0,
            vec![FlowSpec::DownlinkTcp { limit: None }],
            42,
        ))
        .downlink_bps(0)
    };
    let gain = tcp(Mode::Wgtt) / tcp(Mode::Enhanced80211r).max(1.0);
    assert!(
        (1.8..12.0).contains(&gain),
        "TCP gain {gain:.2} out of plausible band"
    );
}

#[test]
fn headline_udp_gain_in_paper_band() {
    let udp = |mode| {
        run(scenario(
            mode,
            15.0,
            vec![FlowSpec::DownlinkUdp {
                rate_bps: 30_000_000,
                payload: 1472,
            }],
            42,
        ))
        .downlink_bps(0)
    };
    let gain = udp(Mode::Wgtt) / udp(Mode::Enhanced80211r).max(1.0);
    assert!(
        (1.8..12.0).contains(&gain),
        "UDP gain {gain:.2} out of plausible band"
    );
}

#[test]
fn video_case_study_shape() {
    // Paper Table 4: WGTT streams with no rebuffering; the baseline
    // rebuffers for a large fraction of the transit.
    let player = VideoConfig::default();
    let measure = |mode| {
        let mut s = scenario(mode, 15.0, vec![FlowSpec::DownlinkTcp { limit: None }], 9);
        s.log_deliveries = true;
        let window = s.duration;
        let res = run(s);
        let log = res.world.clients[0].delivery_log.as_ref().unwrap().clone();
        replay_video(&log, &player, window).rebuffer_ratio()
    };
    let wgtt = measure(Mode::Wgtt);
    let base = measure(Mode::Enhanced80211r);
    assert!(wgtt < 0.1, "WGTT rebuffer ratio {wgtt}");
    assert!(base > wgtt + 0.15, "baseline {base} vs wgtt {wgtt}");
}

#[test]
fn switch_protocol_never_overlaps_per_client() {
    // Footnote 2 of the paper: one in-flight switch per client. The
    // engine's history must never contain overlapping switches for the
    // same client.
    let res = run(scenario(
        Mode::Wgtt,
        25.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 30_000_000,
            payload: 1472,
        }],
        3,
    ));
    let hist = res.world.ctrl.engine.history();
    assert!(!hist.is_empty());
    for w in hist.windows(2) {
        assert!(
            w[1].issued_at >= w[0].completed_at,
            "overlapping switches: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn uplink_dedup_protects_the_server() {
    let res = run(scenario(
        Mode::Wgtt,
        15.0,
        vec![FlowSpec::UplinkUdp {
            rate_bps: 3_000_000,
            payload: 1200,
        }],
        5,
    ));
    // Diversity delivered duplicate copies…
    assert!(res.world.sys.uplink_duplicates > 0);
    // …but the server-side sink saw none.
    let sink = res.world.flows[0].up_sink.as_ref().unwrap();
    assert_eq!(sink.duplicates(), 0);
    assert!(sink.received() > 100);
}

/// What a single-vehicle run did, as one readable line: a field that
/// moves names itself in the assertion diff.
fn drive_digest(r: &RunResult) -> String {
    let m = &r.world.clients[0].metrics;
    let s = &r.world.sys;
    // FNV-1a: stable across processes and platforms (unlike `DefaultHasher`).
    let mut assoc_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{:?}", m.assoc_timeline).bytes() {
        assoc_hash = (assoc_hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!(
        "events={} goodput_bits={:#x} switches={} assoc_hash={assoc_hash:#x} \
         mpdu_successes={} ap_crashes={} emergency_reattaches={} \
         backhaul_dup_deliveries={} backhaul_reorders={} dup_control_dropped={}",
        r.events,
        r.downlink_bps(0).to_bits(),
        r.world.ctrl.engine.history().len(),
        m.mpdu_successes,
        s.ap_crashes,
        s.emergency_reattaches,
        s.backhaul_dup_deliveries,
        s.backhaul_reorders,
        s.dup_control_dropped,
    )
}

/// The accuracy oracle's output for every client of a world: counts, and
/// the bits of both capacity sums (an `f64` sum names its order of addition).
fn oracle_digest(w: &WgttWorld) -> String {
    let per_client: Vec<String> = w
        .clients
        .iter()
        .map(|c| {
            let m = &c.metrics;
            format!(
                "total={} optimal={} samples={} best_bits={:#x} loss_bits={:#x}",
                m.accuracy_total,
                m.accuracy_optimal,
                m.capacity_samples,
                m.capacity_best_bps_sum.to_bits(),
                m.capacity_loss_bps_sum.to_bits(),
            )
        })
        .collect();
    per_client.join("; ")
}

/// Golden digests of the two runs below. They pin behaviour, not just
/// repeatability: a change that moves one has changed what the system
/// does and must update the digest — and say why — in the same PR.
const FAULTED_UDP_DRIVE_GOLDEN: &str = "events=57783 goodput_bits=0x4170306bc7d89cb9 \
    switches=18 assoc_hash=0x72bfbe1b2b724103 mpdu_successes=5620 ap_crashes=1 \
    emergency_reattaches=1 backhaul_dup_deliveries=582 backhaul_reorders=582 \
    dup_control_dropped=0";
const RING_CORRIDOR_GOLDEN: &str = concat!(
    r#"{"events":78678,"migrations":[[4000000000,0,1],[4000000000,1,0]],"shards":["#,
    r#"{"switches":12,"assoc_hash":1533899944479837981,"mpdu":1842,"in":1,"out":1},"#,
    r#"{"switches":9,"assoc_hash":12713436842280116599,"mpdu":2158,"in":1,"out":1}],"#,
    r#""departed_ctrl_drops":4,"departed_data_drops":0,"departed_data_bytes":0,"#,
    r#""seam_forwarded":2,"residue_transferred":1045,"migration_retries":0,"#,
    r#""migration_dups_dropped":0,"migration_aborts":0}"#,
);
/// The oracle's five fields (no other fingerprint covers them), recorded at
/// the commit before `core::oracle` took the evaluation off the event loop:
/// the drive's AP crash exercises the `ap_down` snapshot, the ring's seam
/// crossings leave samples behind with the shard that recorded them.
const FAULTED_UDP_DRIVE_ORACLE_GOLDEN: &str = "total=3850 optimal=3038 samples=3868 \
    best_bits=0x4243a3582ef1713c loss_bits=0x421067e0d7c83e4d";
const RING_CORRIDOR_ORACLE_GOLDEN: [&str; 2] = [
    "total=2602 optimal=2523 samples=2613 best_bits=0x4234df2c645ab63e \
     loss_bits=0x41ccf727fae9e0f0; total=1950 optimal=1707 samples=1951 \
     best_bits=0x42347b11f8a5d488 loss_bits=0x41ffceae8a89c346",
    "total=2602 optimal=2454 samples=2613 best_bits=0x423500fa0f37fcf1 \
     loss_bits=0x41d41b2a954b178a; total=1950 optimal=1872 samples=1951 \
     best_bits=0x4234932415a842a4 loss_bits=0x41c59abe7103b556",
];

#[test]
fn runs_are_deterministic() {
    let mk = || {
        run(scenario(
            Mode::Wgtt,
            15.0,
            vec![FlowSpec::DownlinkTcp {
                limit: Some(500_000),
            }],
            77,
        ))
    };
    let (a, b) = (mk(), mk());
    assert_eq!(a.events, b.events);
    assert_eq!(a.downlink_bps(0), b.downlink_bps(0));
    assert_eq!(a.world.flows[0].completed_at, b.world.flows[0].completed_at);

    // A UDP drive whose serving AP dies under it (one emergency
    // re-attach), then a backhaul dup/reorder window.
    let mut faulted = scenario(
        Mode::Wgtt,
        35.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 20_000_000,
            payload: 1472,
        }],
        77,
    );
    faulted.faults = FaultSchedule::new()
        .with_ap_outage(2, SimTime::from_millis(1200), SimTime::from_millis(2200))
        .with_duplication(SimTime::from_secs(2), SimTime::from_secs(4), 0.05)
        .with_reordering(
            SimTime::from_secs(2),
            SimTime::from_secs(4),
            0.05,
            SimDuration::from_millis(1),
        );
    let faulted = run(faulted);
    assert_eq!(drive_digest(&faulted), FAULTED_UDP_DRIVE_GOLDEN);
    assert_eq!(
        oracle_digest(&faulted.world),
        FAULTED_UDP_DRIVE_ORACLE_GOLDEN
    );

    // A two-shard ring on two lockstep workers: each vehicle crosses a seam.
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let ring =
        ShardedScenario::ring_corridor(cfg, 2, 1, 35.0, 5_000_000, SimDuration::from_secs(6), 4242);
    let ring = run_sharded(&ring, 2);
    assert_eq!(ring.fingerprint(), RING_CORRIDOR_GOLDEN);
    let per_shard: Vec<String> = ring.worlds.iter().map(oracle_digest).collect();
    assert_eq!(per_shard, RING_CORRIDOR_ORACLE_GOLDEN);
}
