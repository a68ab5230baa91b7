//! Table 1 — switching-protocol execution time vs offered load.
//!
//! The paper measures the `stop`→`start`→`ack` protocol at 17–21 ms mean
//! with 3–5 ms standard deviation, flat across 50–90 Mbit/s of offered UDP
//! (the protocol is dominated by AP processing, not by load, because
//! control packets bypass the data queues).

use crate::common::{config, publish, seeds_for, sweep_grid, Column, UDP_PAYLOAD};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{FlowSpec, Scenario};

/// One row of Table 1.
#[derive(Debug, Serialize)]
pub struct SwitchTimeRow {
    /// Offered UDP load, Mbit/s.
    pub rate_mbps: u64,
    /// Mean protocol execution time, ms.
    pub mean_ms: f64,
    /// Standard deviation, ms.
    pub std_ms: f64,
    /// Switches measured.
    pub count: usize,
}

const COLUMNS: [Column<SwitchTimeRow>; 4] = [
    ("rate (Mb/s)", |r| r.rate_mbps.to_string()),
    ("mean (ms)", |r| format!("{:.1}", r.mean_ms)),
    ("std (ms)", |r| format!("{:.1}", r.std_ms)),
    ("n", |r| r.count.to_string()),
];

fn scenario(rate_mbps: u64, seed: u64) -> Scenario {
    Scenario::single_drive(
        config(Mode::Wgtt),
        15.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: rate_mbps * 1_000_000,
            payload: UDP_PAYLOAD,
        }],
        seed,
    )
}

/// Measures the protocol at each offered load.
pub fn run_experiment(rates: &[u64], seeds: std::ops::Range<u64>) -> Vec<SwitchTimeRow> {
    let grid = sweep_grid(rates.to_vec(), seeds, |&rate, seed| scenario(rate, seed));
    grid.into_iter()
        .map(|(rate_mbps, results)| {
            let times_ms: Vec<f64> = results
                .iter()
                .flat_map(|r| r.world.ctrl.engine.history())
                .map(|rec| rec.execution_time().as_secs_f64() * 1000.0)
                .collect();
            SwitchTimeRow {
                rate_mbps,
                mean_ms: wgtt_sim::stats::mean(&times_ms),
                std_ms: wgtt_sim::stats::std_dev(&times_ms),
                count: times_ms.len(),
            }
        })
        .collect()
}

/// Runs and renders Table 1.
pub fn report(fast: bool) -> String {
    let rates: &[u64] = if fast {
        &[50, 90]
    } else {
        &[50, 60, 70, 80, 90]
    };
    let rows = run_experiment(rates, seeds_for(fast, 3));
    let title = "Table 1 — switching-protocol execution time (paper: 17–21 ms mean, 3–5 ms std)";
    publish("table1_switch_time", &rows, title, &COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_time_matches_paper_band_and_is_load_flat() {
        let rows = run_experiment(&[50, 90], 0..1);
        let (low, high) = (&rows[0], &rows[1]);
        for r in [low, high] {
            assert!(r.count >= 5, "{r:?}");
            assert!((12.0..28.0).contains(&r.mean_ms), "mean out of band: {r:?}");
            assert!((1.0..8.0).contains(&r.std_ms), "std out of band: {r:?}");
        }
        // Flat across load: means within a few ms of each other.
        assert!(
            (low.mean_ms - high.mean_ms).abs() < 5.0,
            "load-dependent: {low:?} vs {high:?}"
        );
    }
}
