//! Fig 20 — two-car driving patterns.
//!
//! Following (3 m gap), parallel (adjacent lanes), and opposing
//! directions, at 15 mph. The paper finds opposing best (the cars share
//! the medium only briefly), parallel worst (they carrier-sense each other
//! the whole way), and WGTT above the baseline in every pattern.

use crate::common::{config, render_table, save_json, sweep_grid, Column, MODES, UDP_PAYLOAD};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{ClientSpec, FlowSpec, RunResult, Scenario, TrajectorySpec};
use wgtt_sim::SimDuration;

/// One pattern's result.
#[derive(Debug, Serialize)]
pub struct PatternResult {
    /// Pattern name.
    pub pattern: String,
    /// Mean per-client goodput, WGTT, Mbit/s.
    pub wgtt_mbps: f64,
    /// Mean per-client goodput, baseline, Mbit/s.
    pub baseline_mbps: f64,
}

/// The first header names the transport: `UDP`, `TCP`.
const COLUMNS: [Column<PatternResult>; 3] = [
    ("pattern", |r| r.pattern.clone()),
    ("WGTT", |r| format!("{:.2}", r.wgtt_mbps)),
    ("802.11r", |r| format!("{:.2}", r.baseline_mbps)),
];

const PATTERNS: [&str; 3] = ["following", "parallel", "opposing"];

fn pattern_specs(pattern: &str, tcp: bool) -> Vec<ClientSpec> {
    let flow = |_: usize| {
        if tcp {
            FlowSpec::DownlinkTcp { limit: None }
        } else {
            // Paper: constant 15 Mbit/s offered per client in this test.
            FlowSpec::DownlinkUdp {
                rate_bps: 15_000_000,
                payload: UDP_PAYLOAD,
            }
        }
    };
    match pattern {
        "following" => (0..2)
            .map(|i| ClientSpec {
                trajectory: TrajectorySpec::DriveByOffset {
                    mph: 15.0,
                    lead_in_m: 4.0,
                    offset_m: i as f64 * 3.0,
                    far_lane: false,
                },
                flows: vec![flow(i)],
            })
            .collect(),
        "parallel" => (0..2)
            .map(|i| ClientSpec {
                trajectory: TrajectorySpec::DriveByOffset {
                    mph: 15.0,
                    lead_in_m: 4.0,
                    offset_m: 0.0,
                    far_lane: i == 1,
                },
                flows: vec![flow(i)],
            })
            .collect(),
        "opposing" => vec![
            ClientSpec {
                trajectory: TrajectorySpec::DriveBy {
                    mph: 15.0,
                    lead_in_m: 4.0,
                },
                flows: vec![flow(0)],
            },
            ClientSpec {
                trajectory: TrajectorySpec::Opposing {
                    mph: 15.0,
                    lead_in_m: 4.0,
                },
                flows: vec![flow(1)],
            },
        ],
        other => panic!("unknown pattern {other}"),
    }
}

fn scenario(pattern: &str, mode: Mode, tcp: bool, seed: u64) -> Scenario {
    Scenario {
        config: config(mode),
        clients: pattern_specs(pattern, tcp),
        duration: SimDuration::from_secs_f64((52.5 + 11.0) / wgtt_phy::mph_to_mps(15.0)),
        seed,
        log_deliveries: false,
        flow_start: SimDuration::from_millis(1),
        faults: wgtt_sim::FaultSchedule::default(),
    }
}

/// Mean per-client goodput of one run, Mbit/s.
fn per_client_mbps(res: &RunResult) -> f64 {
    let per: Vec<f64> = (0..2)
        .map(|c| res.world.clients[c].metrics.mean_downlink_bps(res.duration) / 1e6)
        .collect();
    wgtt_sim::stats::mean(&per)
}

/// Runs the full pattern matrix for one transport: every `(pattern,
/// system)` run in one batch.
pub fn run_experiment(tcp: bool, seed: u64) -> Vec<PatternResult> {
    let cells = PATTERNS
        .into_iter()
        .flat_map(|p| MODES.map(|mode| (p, mode)));
    let grid = sweep_grid(cells.collect(), seed..seed + 1, |&(p, mode), seed| {
        scenario(p, mode, tcp, seed)
    });
    grid.chunks(2)
        .map(|pair| PatternResult {
            pattern: pair[0].0 .0.into(),
            wgtt_mbps: per_client_mbps(&pair[0].1[0]),
            baseline_mbps: per_client_mbps(&pair[1].1[0]),
        })
        .collect()
}

/// Runs and renders Fig 20.
pub fn report(_fast: bool) -> String {
    let udp = run_experiment(false, 20);
    let tcp = run_experiment(true, 20);
    save_json("fig20_patterns", &(&tcp, &udp));
    let render = |name: &str, rows: &[PatternResult]| {
        let mut columns = COLUMNS;
        columns[0].0 = name;
        render_table(&columns, rows)
    };
    format!(
        "Fig 20 — two-car patterns, per-client Mbit/s (paper: opposing best, parallel worst)\nUDP:\n{}TCP:\n{}",
        render("UDP", &udp),
        render("TCP", &tcp)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wgtt_wins_every_pattern_and_opposing_beats_parallel() {
        let udp = run_experiment(false, 2);
        for r in &udp {
            assert!(
                r.wgtt_mbps > r.baseline_mbps,
                "baseline won {}: {r:?}",
                r.pattern
            );
        }
        let get = |p: &str| udp.iter().find(|r| r.pattern == p).unwrap().wgtt_mbps;
        // Opposing cars barely contend; parallel cars contend everywhere.
        assert!(
            get("opposing") > get("parallel"),
            "opposing {} vs parallel {}",
            get("opposing"),
            get("parallel")
        );
    }
}
