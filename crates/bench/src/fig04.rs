//! Fig 4 — stock 802.11r stalls in the vehicular picocell regime.
//!
//! The paper's §2 motivation: Linksys-class 802.11r APs collect a long
//! (~5 s) RSSI history before roaming, so at 20 mph the handover decision
//! arrives after the client has left the old AP's coverage and fails
//! entirely; at 5 mph the switch happens but far later than it should.
//! Both cases lose channel capacity (paper: 20.5 Mbit/s average loss at
//! 20 mph, 82.2 Mbit/s at 5 mph — more absolute loss at low speed because
//! the client lingers in the dead zone longer).
//!
//! We reproduce with the baseline in "stock" tuning: 5 s roam hysteresis,
//! sluggish RSSI smoothing, and a two-AP segment like the paper's plot.

use crate::common::{save_json, sweep_grid, UDP_PAYLOAD};
use serde::Serialize;
use wgtt_core::config::{Mode, SystemConfig};
use wgtt_core::runner::{ClientSpec, FlowSpec, RunResult, Scenario, TrajectorySpec};
use wgtt_sim::SimDuration;

/// Output per speed.
#[derive(Debug, Serialize)]
pub struct StallResult {
    /// Drive speed, mph.
    pub mph: f64,
    /// Whether the client ever switched to the second AP.
    pub handover_succeeded: bool,
    /// Time of the switch, seconds (if any).
    pub switch_at_s: Option<f64>,
    /// Time of the last UDP delivery, seconds.
    pub last_delivery_s: Option<f64>,
    /// Accumulated channel-capacity loss over the drive, Mbit (the
    /// paper's dashed-area metric: larger at 5 mph because the client
    /// lingers in the dead zone much longer).
    pub capacity_loss_mbit: f64,
    /// Delivered goodput, Mbit/s.
    pub goodput_mbps: f64,
}

/// Stock (non-enhanced) 802.11r tuning.
fn stock_config() -> SystemConfig {
    let mut cfg = SystemConfig {
        mode: Mode::Enhanced80211r,
        ..SystemConfig::default()
    };
    // 5 s of RSSI history before the client acts (paper §2 / [1]).
    cfg.baseline.hysteresis = SimDuration::from_secs(5);
    cfg.baseline.rssi_ewma_alpha = 0.05;
    cfg.baseline.rssi_threshold_db = 12.0;
    cfg.baseline.handover_latency = SimDuration::from_millis(300);
    // Two APs only, like the paper's plot.
    cfg.deployment.num_aps = 2;
    cfg
}

fn scenario(mph: f64, seed: u64) -> Scenario {
    let cfg = stock_config();
    let dep = cfg.deployment.build();
    let (lo, hi) = dep.extent();
    let lead = 4.0;
    let span = (hi - lo) + 2.0 * lead + 10.0;
    let secs = span / wgtt_phy::mph_to_mps(mph);
    Scenario {
        config: cfg,
        clients: vec![ClientSpec {
            trajectory: TrajectorySpec::DriveBy {
                mph,
                lead_in_m: lead,
            },
            flows: vec![FlowSpec::DownlinkUdp {
                rate_bps: 30_000_000,
                payload: UDP_PAYLOAD,
            }],
        }],
        duration: SimDuration::from_secs_f64(secs),
        seed,
        log_deliveries: true,
        flow_start: SimDuration::from_millis(1),
        faults: wgtt_sim::FaultSchedule::default(),
    }
}

/// Runs the stall experiment at each speed, all in one batch.
pub fn run_experiment(speeds: &[f64], seed: u64) -> Vec<StallResult> {
    let grid = sweep_grid(speeds.to_vec(), seed..seed + 1, |&mph, seed| {
        scenario(mph, seed)
    });
    let stall = |(mph, runs): &(f64, Vec<RunResult>)| {
        let (mph, res) = (*mph, &runs[0]);
        let m = &res.world.clients[0].metrics;
        let switch_at = m
            .assoc_timeline
            .iter()
            .find(|(_, ap)| *ap == Some(wgtt_net::ApId(1)))
            .map(|(t, _)| t.as_secs_f64());
        let last = res.world.clients[0]
            .delivery_log
            .as_ref()
            .and_then(|log| log.last().map(|d| d.at.as_secs_f64()));
        let secs = res.duration.as_secs_f64();
        StallResult {
            mph,
            handover_succeeded: switch_at.is_some(),
            switch_at_s: switch_at,
            last_delivery_s: last,
            capacity_loss_mbit: m.mean_capacity_loss_bps() / 1e6 * secs,
            goodput_mbps: m.mean_downlink_bps(res.duration) / 1e6,
        }
    };
    grid.iter().map(stall).collect()
}

/// Runs and renders the Fig 4 experiment.
pub fn report(_fast: bool) -> String {
    let results = run_experiment(&[20.0, 5.0], 7);
    save_json("fig04_80211r_stall", &results);
    let line = |r: &StallResult| {
        format!(
            "  {:>2.0} mph: handover={} switch_at={} last_rx={} capacity_loss={:.0} Mbit goodput={:.1} Mbit/s\n",
            r.mph,
            if r.handover_succeeded { "ok " } else { "FAILED" },
            r.switch_at_s.map_or("-".into(), |t| format!("{t:.1}s")),
            r.last_delivery_s.map_or("-".into(), |t| format!("{t:.1}s")),
            r.capacity_loss_mbit,
            r.goodput_mbps,
        )
    };
    let lines: String = results.iter().map(line).collect();
    format!("Fig 4 — stock 802.11r (5 s RSSI history) across two picocells\n{lines}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_80211r_fails_at_speed_and_lags_when_slow() {
        let results = run_experiment(&[20.0, 5.0], 3);
        let (fast, slow) = (&results[0], &results[1]);
        // At 20 mph the 5 s history outlives the dwell: no handover.
        assert!(!fast.handover_succeeded, "{fast:?}");
        // At 5 mph the handover happens, but only after seconds.
        assert!(slow.handover_succeeded, "{slow:?}");
        assert!(slow.switch_at_s.unwrap() > 4.0, "{slow:?}");
        // Capacity loss at 5 mph exceeds the 20 mph case (paper: 82.2 vs
        // 20.5 Mbit/s): the slow client lingers in the dead zone.
        assert!(
            slow.capacity_loss_mbit > fast.capacity_loss_mbit,
            "slow {slow:?} vs fast {fast:?}"
        );
    }
}
