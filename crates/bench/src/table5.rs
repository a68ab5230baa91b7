//! Table 5 — web page load time vs speed.
//!
//! Loading a 2.1 MB page (cached on the local server) mid-drive. Paper:
//! WGTT loads in a steady ~4.4–4.6 s at every speed; Enhanced 802.11r
//! takes 15.5 s at 5 mph, 18.2 s at 10 mph, and never completes within the
//! transit at 15–20 mph ("∞").

use crate::common::{config, publish, seeds_for, sweep_grid, Column, MODES};
use serde::Serialize;
use wgtt_core::runner::RunResult;
use wgtt_workloads::web::{mean_page_load_secs, page_load_scenario, PageLoad, WebConfig};

/// One row of Table 5.
#[derive(Debug, Serialize)]
pub struct WebRow {
    /// Speed, mph.
    pub mph: f64,
    /// WGTT mean load time, seconds.
    pub wgtt_s: f64,
    /// Baseline mean load time, seconds (infinite = mostly incomplete).
    pub baseline_s: f64,
}

const COLUMNS: [Column<WebRow>; 3] = [
    ("speed (mph)", |r| format!("{:.0}", r.mph)),
    ("WGTT (s)", |r| fmt_secs(r.wgtt_s)),
    ("802.11r (s)", |r| fmt_secs(r.baseline_s)),
];

/// Runs Table 5: every (speed, system, seed) page load in one batch.
pub fn run_experiment(fast: bool) -> Vec<WebRow> {
    let speeds: &[f64] = if fast {
        &[5.0, 20.0]
    } else {
        &[5.0, 10.0, 15.0, 20.0]
    };
    let web = WebConfig::default();
    let cells = speeds.iter().flat_map(|&mph| MODES.map(|mode| (mph, mode)));
    let grid = sweep_grid(cells.collect(), seeds_for(fast, 5), |&(mph, mode), seed| {
        page_load_scenario(config(mode), &web, mph, seed)
    });
    let mean = |runs: &[RunResult]| {
        let loads: Vec<PageLoad> = runs.iter().map(|r| PageLoad::of(r, &web)).collect();
        mean_page_load_secs(&loads)
    };
    grid.chunks(2)
        .map(|pair| WebRow {
            mph: pair[0].0 .0,
            wgtt_s: mean(&pair[0].1),
            baseline_s: mean(&pair[1].1),
        })
        .collect()
}

fn fmt_secs(s: f64) -> String {
    if s.is_infinite() {
        "inf".into()
    } else {
        format!("{s:.2}")
    }
}

/// Runs and renders Table 5.
pub fn report(fast: bool) -> String {
    let rows = run_experiment(fast);
    let title = "Table 5 — 2.1 MB page load time (paper: WGTT flat ≈4.4 s; 802.11r 15.5 s → ∞)";
    publish("table5_web", &rows, title, &COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wgtt_loads_steadily_baseline_struggles() {
        let rows = run_experiment(true);
        for r in &rows {
            assert!(
                r.wgtt_s.is_finite() && r.wgtt_s < 10.0,
                "WGTT slow at {} mph: {}",
                r.mph,
                r.wgtt_s
            );
            assert!(
                r.baseline_s > r.wgtt_s,
                "baseline beat WGTT at {} mph: {r:?}",
                r.mph
            );
        }
    }
}
