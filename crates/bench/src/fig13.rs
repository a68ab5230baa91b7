//! Fig 13 — TCP and UDP throughput vs client speed.
//!
//! The headline end-to-end result: WGTT holds its throughput roughly flat
//! from 5 to 35 mph while Enhanced 802.11r degrades with speed, giving the
//! paper's 2.4–4.7× TCP and 2.6–4.0× UDP gains. A stationary client shows
//! only a small gap (both systems sit on one good AP).

use crate::common::{config, drive, mean_over, render_table, save_json, seeds_for, sweep_grid};
use crate::common::{Column, BULK_UDP_BPS, MODES, UDP_PAYLOAD};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{ClientSpec, FlowSpec, Scenario, TrajectorySpec};
use wgtt_sim::SimDuration;

/// One data point.
#[derive(Debug, Serialize)]
pub struct SpeedPoint {
    /// Client speed, mph (0 = stationary).
    pub mph: f64,
    /// WGTT goodput, Mbit/s.
    pub wgtt_mbps: f64,
    /// Baseline goodput, Mbit/s.
    pub baseline_mbps: f64,
}

impl SpeedPoint {
    /// WGTT / baseline ratio.
    pub fn gain(&self) -> f64 {
        if self.baseline_mbps <= 0.0 {
            f64::INFINITY
        } else {
            self.wgtt_mbps / self.baseline_mbps
        }
    }
}

/// The first header names the transport: `TCP mph`, `UDP mph`.
const COLUMNS: [Column<SpeedPoint>; 4] = [
    ("mph", |p| format!("{:.0}", p.mph)),
    ("WGTT", |p| format!("{:.2}", p.wgtt_mbps)),
    ("802.11r", |p| format!("{:.2}", p.baseline_mbps)),
    ("gain", |p| format!("{:.1}x", p.gain())),
];

/// Full result: one series per transport.
#[derive(Debug, Serialize)]
pub struct SpeedSweep {
    /// TCP series.
    pub tcp: Vec<SpeedPoint>,
    /// UDP series.
    pub udp: Vec<SpeedPoint>,
}

fn stationary_scenario(mode: Mode, tcp: bool, seed: u64) -> Scenario {
    // Parked inside AP 3's cell, measured for 10 s.
    let flows = if tcp {
        vec![FlowSpec::DownlinkTcp { limit: None }]
    } else {
        vec![FlowSpec::DownlinkUdp {
            rate_bps: BULK_UDP_BPS,
            payload: UDP_PAYLOAD,
        }]
    };
    Scenario {
        config: config(mode),
        clients: vec![ClientSpec {
            trajectory: TrajectorySpec::Stationary { x: 22.5 },
            flows,
        }],
        duration: SimDuration::from_secs(10),
        seed,
        log_deliveries: false,
        flow_start: SimDuration::from_millis(1),
        faults: wgtt_sim::FaultSchedule::default(),
    }
}

fn scenario(mode: Mode, tcp: bool, mph: f64, seed: u64) -> Scenario {
    if mph == 0.0 {
        stationary_scenario(mode, tcp, seed)
    } else {
        drive(mode, tcp, mph, seed)
    }
}

/// Runs the full sweep: every `(transport, speed, system, seed)` run in
/// one batch.
pub fn run_experiment(fast: bool) -> SpeedSweep {
    let speeds: &[f64] = if fast {
        &[0.0, 5.0, 15.0, 35.0]
    } else {
        &[0.0, 5.0, 15.0, 25.0, 35.0]
    };
    let cells = [true, false].into_iter().flat_map(|tcp| {
        speeds
            .iter()
            .flat_map(move |&mph| MODES.map(|mode| (tcp, mph, mode)))
    });
    let grid = sweep_grid(
        cells.collect(),
        seeds_for(fast, 3),
        |&(tcp, mph, mode), seed| scenario(mode, tcp, mph, seed),
    );
    let mbps = |(_, runs): &(_, Vec<_>)| mean_over(runs, |r| r.downlink_bps(0)) / 1e6;
    let (mut tcp, mut udp) = (Vec::new(), Vec::new());
    for pair in grid.chunks(2) {
        let (is_tcp, mph, _) = pair[0].0;
        let point = SpeedPoint {
            mph,
            wgtt_mbps: mbps(&pair[0]),
            baseline_mbps: mbps(&pair[1]),
        };
        if is_tcp { &mut tcp } else { &mut udp }.push(point);
    }
    SpeedSweep { tcp, udp }
}

/// Runs and renders Fig 13.
pub fn report(fast: bool) -> String {
    let sweep = run_experiment(fast);
    save_json("fig13_speed_sweep", &sweep);
    let render = |name: &str, pts: &[SpeedPoint]| {
        let header = format!("{name} mph");
        let mut columns = COLUMNS;
        columns[0].0 = &header;
        render_table(&columns, pts)
    };
    format!(
        "Fig 13 — throughput vs speed, Mbit/s (paper: 2.4–4.7× TCP, 2.6–4.0× UDP gains)\nTCP:\n{}UDP:\n{}",
        render("TCP", &sweep.tcp),
        render("UDP", &sweep.udp)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wgtt_flat_baseline_degrades() {
        // Fast sweep with one seed; shape checks only.
        let sweep = run_experiment(true);
        // Moving points (≥5 mph) must show a clear WGTT gain on UDP.
        for p in sweep.udp.iter().filter(|p| p.mph >= 5.0) {
            assert!(
                p.gain() > 1.5,
                "UDP gain at {} mph only {:.2} ({:.2} vs {:.2})",
                p.mph,
                p.gain(),
                p.wgtt_mbps,
                p.baseline_mbps
            );
        }
        // WGTT holds up at speed: 35 mph within 3× of 5 mph.
        let w5 = sweep.udp.iter().find(|p| p.mph == 5.0).unwrap().wgtt_mbps;
        let w35 = sweep.udp.iter().find(|p| p.mph == 35.0).unwrap().wgtt_mbps;
        assert!(w35 * 3.0 > w5, "WGTT collapses with speed: {w5} → {w35}");
        // Stationary case: both systems work (gap small).
        let s = &sweep.udp[0];
        assert!(s.baseline_mbps > s.wgtt_mbps * 0.5, "{s:?}");
    }
}
