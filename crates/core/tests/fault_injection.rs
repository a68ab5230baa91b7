//! Failure-injection tests: the protocol must survive control-packet loss
//! (the 30 ms retransmission path of §3.1.2), degraded channels, and
//! multi-channel partitions.

use wgtt_core::config::SystemConfig;
use wgtt_core::runner::{run, FlowSpec, Scenario};
use wgtt_sim::{BackhaulFault, FaultSchedule, SimDuration, SimTime};

fn udp_flows() -> Vec<FlowSpec> {
    vec![FlowSpec::DownlinkUdp {
        rate_bps: 20_000_000,
        payload: 1472,
    }]
}

#[test]
fn switches_survive_control_packet_loss() {
    // 20% loss on every backhaul control hop: the stop-retransmission
    // timeout must keep the protocol progressing.
    let cfg = SystemConfig {
        control_loss_prob: 0.2,
        ..SystemConfig::default()
    };
    let scenario = Scenario::single_drive(cfg, 15.0, udp_flows(), 31);
    let res = run(scenario);
    let hist = res.world.ctrl.engine.history();
    assert!(hist.len() > 10, "only {} switches completed", hist.len());
    // Some switches needed retransmissions…
    let retried = hist.iter().filter(|r| r.retries > 0).count();
    assert!(retried > 0, "no retransmissions exercised");
    // …and retried switches take ≥ the 30 ms timeout.
    for r in hist.iter().filter(|r| r.retries > 0) {
        assert!(r.execution_time() >= SimDuration::from_millis(30), "{r:?}");
    }
    // Throughput survives.
    assert!(res.downlink_bps(0) / 1e6 > 5.0);
}

#[test]
fn heavy_control_loss_still_converges() {
    let cfg = SystemConfig {
        control_loss_prob: 0.5,
        ..SystemConfig::default()
    };
    let scenario = Scenario::single_drive(cfg, 15.0, udp_flows(), 32);
    let res = run(scenario);
    // The client still crosses the array attached to progressing APs.
    let final_ap = res.world.clients[0]
        .metrics
        .assoc_timeline
        .iter()
        .filter_map(|&(_, ap)| ap)
        .next_back();
    assert!(
        final_ap.map_or(0, |a| a.0) >= 5,
        "stuck early: {final_ap:?}"
    );
    assert!(res.downlink_bps(0) / 1e6 > 2.0);
}

#[test]
fn lossy_backhaul_data_path_degrades_gracefully() {
    // Drop 5% of ALL backhaul messages (data fan-out included) for the
    // whole run: a backhaul fault window, unlike `control_loss_prob`,
    // which only drops control frames. UDP keeps flowing because every
    // in-range AP holds a copy, but the lost fan-out costs goodput.
    let drive = |faults: FaultSchedule| {
        let mut scenario = Scenario::single_drive(SystemConfig::default(), 15.0, udp_flows(), 33);
        scenario.faults = faults;
        run(scenario).downlink_bps(0) / 1e6
    };
    let healthy = drive(FaultSchedule::default());
    let lossy = drive(FaultSchedule::new().with_backhaul_fault(
        SimTime::ZERO,
        SimTime::from_secs(3600),
        BackhaulFault {
            extra_loss_prob: 0.05,
            extra_latency: SimDuration::ZERO,
            extra_jitter_mean: SimDuration::ZERO,
        },
    ));
    assert!(lossy > 5.0, "lossy backhaul {lossy:.2} Mb/s");
    assert!(
        lossy < 0.95 * healthy,
        "data loss left goodput at {lossy:.2} of a healthy {healthy:.2} Mb/s"
    );
}

#[test]
fn multichannel_partition_reduces_diversity_but_not_liveness() {
    let cfg = SystemConfig {
        channel_stride: 3,
        ..SystemConfig::default()
    };
    let scenario = Scenario::single_drive(
        cfg,
        15.0,
        vec![FlowSpec::UplinkUdp {
            rate_bps: 3_000_000,
            payload: 1200,
        }],
        34,
    );
    let res = run(scenario);
    let sink = res.world.flows[0].up_sink.as_ref().unwrap();
    // Still delivers…
    assert!(sink.received() > 50, "received {}", sink.received());
    // …but with real loss (no cross-channel overhearing).
    assert!(sink.loss_rate() > 0.02, "loss {}", sink.loss_rate());
}

#[test]
fn no_flush_ablation_loses_more_packets() {
    let measure = |flush: bool| {
        let cfg = SystemConfig {
            flush_on_switch: flush,
            ..SystemConfig::default()
        };
        let res = run(Scenario::single_drive(cfg, 15.0, udp_flows(), 35));
        let sink = res.world.clients[0]
            .udp_sink
            .values()
            .next()
            .unwrap()
            .clone();
        (res.downlink_bps(0), sink)
    };
    let (with_flush, _) = measure(true);
    let (without, _) = measure(false);
    assert!(
        with_flush > without * 0.95,
        "flush unexpectedly much worse: {with_flush} vs {without}"
    );
}

#[test]
fn client_out_of_coverage_then_returns() {
    // A stationary client far outside the array gets nothing; one inside
    // gets service — the controller never panics on unreachable clients.
    let mut scenario = Scenario::single_drive(SystemConfig::default(), 15.0, udp_flows(), 36);
    scenario.clients[0].trajectory = wgtt_core::runner::TrajectorySpec::Stationary { x: 500.0 };
    let res = run(scenario);
    assert_eq!(res.downlink_bps(0), 0.0);
    assert_eq!(res.world.clients[0].metrics.switch_count(), 0);
}
