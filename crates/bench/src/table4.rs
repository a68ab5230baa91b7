//! Table 4 — video streaming rebuffer ratio vs speed.
//!
//! A 720p stream (FTP-style greedy TCP delivery into a 1,500 ms-prebuffer
//! player) while driving past the array. Paper: WGTT plays back with zero
//! rebuffering at 5–20 mph; Enhanced 802.11r rebuffers 54–69 % of the
//! transit (decreasing with speed because the transit itself shortens).

use crate::common::{mean_over, publish, seeds_for, sweep_grid, tcp_drive, Column, MODES};
use serde::Serialize;
use wgtt_core::runner::RunResult;
use wgtt_workloads::video::{replay_video, VideoConfig};

/// One row of Table 4.
#[derive(Debug, Serialize)]
pub struct VideoRow {
    /// Client speed, mph.
    pub mph: f64,
    /// WGTT rebuffer ratio.
    pub wgtt_ratio: f64,
    /// Baseline rebuffer ratio.
    pub baseline_ratio: f64,
}

const COLUMNS: [Column<VideoRow>; 3] = [
    ("speed (mph)", |r| format!("{:.0}", r.mph)),
    ("WGTT", |r| format!("{:.2}", r.wgtt_ratio)),
    ("802.11r", |r| format!("{:.2}", r.baseline_ratio)),
];

/// Runs Table 4: every (speed, system, seed) drive in one batch.
pub fn run_experiment(fast: bool) -> Vec<VideoRow> {
    let speeds: &[f64] = if fast {
        &[5.0, 20.0]
    } else {
        &[5.0, 10.0, 15.0, 20.0]
    };
    let cells = speeds.iter().flat_map(|&mph| MODES.map(|mode| (mph, mode)));
    let grid = sweep_grid(cells.collect(), seeds_for(fast, 2), |&(mph, mode), seed| {
        let mut scenario = tcp_drive(mode, mph, seed);
        scenario.log_deliveries = true;
        scenario
    });
    let vcfg = VideoConfig::default();
    let ratio = |runs: &[RunResult]| {
        mean_over(runs, |res| {
            let log = res.world.clients[0]
                .delivery_log
                .as_ref()
                .expect("delivery log enabled");
            replay_video(log, &vcfg, res.duration).rebuffer_ratio()
        })
    };
    grid.chunks(2)
        .map(|pair| VideoRow {
            mph: pair[0].0 .0,
            wgtt_ratio: ratio(&pair[0].1),
            baseline_ratio: ratio(&pair[1].1),
        })
        .collect()
}

/// Runs and renders Table 4.
pub fn report(fast: bool) -> String {
    let rows = run_experiment(fast);
    let title = "Table 4 — video rebuffer ratio (paper: WGTT 0.00 everywhere; 802.11r 0.54–0.69)";
    publish("table4_video", &rows, title, &COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wgtt_streams_smoothly_baseline_rebuffers() {
        let rows = run_experiment(true);
        for r in &rows {
            assert!(
                r.wgtt_ratio < 0.10,
                "WGTT rebuffers at {} mph: {}",
                r.mph,
                r.wgtt_ratio
            );
            assert!(
                r.baseline_ratio > r.wgtt_ratio + 0.1,
                "no gap at {} mph: {r:?}",
                r.mph
            );
        }
    }
}
