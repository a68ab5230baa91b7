//! End-to-end integration tests of the full simulated system.
//!
//! These exercise the headline behaviours the paper's evaluation depends
//! on: WGTT sustains throughput through a drive-by while Enhanced 802.11r
//! collapses; switching happens at sub-second cadence; switching accuracy
//! is high; uplink dedup suppresses duplicates.

use wgtt_core::config::{Mode, SystemConfig};
use wgtt_core::dedup::Deduplicator;
use wgtt_core::runner::{run, FlowSpec, Scenario};
use wgtt_net::ClientId;

fn drive_scenario(mode: Mode, mph: f64, flows: Vec<FlowSpec>, seed: u64) -> Scenario {
    let cfg = SystemConfig {
        mode,
        ..SystemConfig::default()
    };
    Scenario::single_drive(cfg, mph, flows, seed)
}

#[test]
fn wgtt_udp_drive_by_delivers() {
    let scenario = drive_scenario(
        Mode::Wgtt,
        15.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 20_000_000,
            payload: 1472,
        }],
        1,
    );
    let res = run(scenario);
    let mbps = res.downlink_bps(0) / 1e6;
    assert!(mbps > 3.0, "WGTT UDP goodput too low: {mbps} Mbit/s");
    // The client must have switched through multiple APs.
    let switches = res.world.clients[0].metrics.switch_count();
    assert!(switches >= 5, "only {switches} switches during the drive");
    // Downlink copies were fanned out to multiple APs.
    assert!(res.world.sys.downlink_copies > 0);
}

#[test]
fn wgtt_tcp_drive_by_delivers() {
    let scenario = drive_scenario(
        Mode::Wgtt,
        15.0,
        vec![FlowSpec::DownlinkTcp { limit: None }],
        2,
    );
    let res = run(scenario);
    let mbps = res.downlink_bps(0) / 1e6;
    assert!(mbps > 2.0, "WGTT TCP goodput too low: {mbps} Mbit/s");
}

#[test]
fn wgtt_beats_baseline_on_udp() {
    let mk = |mode| {
        drive_scenario(
            mode,
            15.0,
            vec![FlowSpec::DownlinkUdp {
                rate_bps: 20_000_000,
                payload: 1472,
            }],
            3,
        )
    };
    let wgtt = run(mk(Mode::Wgtt)).downlink_bps(0);
    let base = run(mk(Mode::Enhanced80211r)).downlink_bps(0);
    assert!(
        wgtt > base * 1.8,
        "expected ≥1.8× gain, got WGTT {:.2} vs baseline {:.2} Mbit/s",
        wgtt / 1e6,
        base / 1e6
    );
}

#[test]
fn wgtt_switching_accuracy_high() {
    let scenario = drive_scenario(
        Mode::Wgtt,
        15.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 20_000_000,
            payload: 1472,
        }],
        4,
    );
    let res = run(scenario);
    let acc = res.world.clients[0].metrics.switching_accuracy();
    assert!(acc > 0.6, "WGTT switching accuracy {acc}");
}

#[test]
fn baseline_switching_accuracy_low() {
    let scenario = drive_scenario(
        Mode::Enhanced80211r,
        15.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 20_000_000,
            payload: 1472,
        }],
        4,
    );
    let res = run(scenario);
    let acc = res.world.clients[0].metrics.switching_accuracy();
    let wgtt_acc = {
        let s = drive_scenario(
            Mode::Wgtt,
            15.0,
            vec![FlowSpec::DownlinkUdp {
                rate_bps: 20_000_000,
                payload: 1472,
            }],
            4,
        );
        run(s).world.clients[0].metrics.switching_accuracy()
    };
    assert!(
        wgtt_acc > acc + 0.2,
        "accuracy gap too small: wgtt {wgtt_acc} vs baseline {acc}"
    );
}

#[test]
fn switch_protocol_times_in_table1_band() {
    let scenario = drive_scenario(
        Mode::Wgtt,
        15.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 50_000_000,
            payload: 1472,
        }],
        5,
    );
    let res = run(scenario);
    let hist = res.world.ctrl.engine.history();
    assert!(hist.len() >= 5, "only {} switches recorded", hist.len());
    let times: Vec<f64> = hist
        .iter()
        .map(|r| r.execution_time().as_secs_f64() * 1000.0)
        .collect();
    let mean = wgtt_sim::stats::mean(&times);
    assert!(
        (10.0..30.0).contains(&mean),
        "switch execution mean {mean} ms outside plausible band; times {times:?}"
    );
}

#[test]
fn uplink_udp_flows_and_dedups() {
    let scenario = drive_scenario(
        Mode::Wgtt,
        15.0,
        vec![FlowSpec::UplinkUdp {
            rate_bps: 2_000_000,
            payload: 1200,
        }],
        6,
    );
    let res = run(scenario);
    let up = res.uplink_bps(0) / 1e6;
    assert!(up > 0.5, "uplink goodput {up} Mbit/s");
    // Diversity produces duplicates; dedup suppresses them.
    assert!(
        res.world.sys.uplink_duplicates > 0,
        "expected duplicate uplink copies from multi-AP reception"
    );
    let flow = &res.world.flows[0];
    let sink = flow.up_sink.as_ref().unwrap();
    assert_eq!(
        sink.duplicates(),
        0,
        "duplicates leaked past the controller"
    );
}

/// Every AP remembers the dedup keys of the uplink it forwarded, faults or
/// none, so a controller restart in any run can re-prime its filter from
/// the resync replies.
#[test]
fn fault_free_uplink_fills_every_ap_key_ring() {
    let scenario = drive_scenario(
        Mode::Wgtt,
        15.0,
        vec![FlowSpec::UplinkUdp {
            rate_bps: 2_000_000,
            payload: 1200,
        }],
        6,
    );
    assert!(scenario.faults.is_empty());
    let res = run(scenario);
    let client = ClientId(0);
    let seen = res.world.ctrl.dedup.idents_for(client);
    for (ap, st) in res.world.aps.iter().enumerate() {
        let ring = &st.recent_uplink_keys;
        assert!(!ring.is_empty(), "AP {ap} forwarded uplink but kept no key");
        // Every remembered key is one the controller's filter saw.
        for &key in ring {
            let ident = (key & 0xFFFF) as u16;
            assert_eq!(key, Deduplicator::key(client, ident));
            assert!(
                seen.contains(&ident),
                "AP {ap}: key {key:#x} never forwarded"
            );
        }
    }
}

#[test]
fn deterministic_given_seed() {
    let mk = || {
        drive_scenario(
            Mode::Wgtt,
            25.0,
            vec![FlowSpec::DownlinkUdp {
                rate_bps: 10_000_000,
                payload: 1472,
            }],
            7,
        )
    };
    let a = run(mk());
    let b = run(mk());
    assert_eq!(a.events, b.events);
    assert_eq!(a.downlink_bps(0), b.downlink_bps(0));
    assert_eq!(
        a.world.clients[0].metrics.assoc_timeline,
        b.world.clients[0].metrics.assoc_timeline
    );
}
