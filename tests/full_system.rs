//! Cross-crate integration tests through the `wgtt` facade: the headline
//! paper results, end to end.

use wgtt::core::{digest, run, FlowSpec, Mode, Scenario, SystemConfig};
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
    // What the runs did is pinned, not just repeated, by `tests/golden.rs`.
    digest::assert_same(
        "two runs of one TCP drive",
        &a.fingerprint(),
        &b.fingerprint(),
    );
}
