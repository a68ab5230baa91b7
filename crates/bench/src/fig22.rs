//! Fig 22 — impact of the switching time hysteresis.
//!
//! The controller will not switch a client twice within the hysteresis
//! interval. The paper sweeps 120→80→40 ms and finds throughput grows as
//! the hysteresis shrinks — a more agile switcher tracks the fast channel —
//! while the throughput never collapses to zero at any setting.

use crate::common::{mean_over, publish, seeds_for, sweep_grid, tcp_drive, Column};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{RunResult, Scenario};
use wgtt_sim::SimDuration;

/// One hysteresis setting's outcome.
#[derive(Debug, Serialize)]
pub struct HysteresisPoint {
    /// Hysteresis, ms.
    pub hysteresis_ms: u64,
    /// Mean TCP goodput, Mbit/s.
    pub tcp_mbps: f64,
    /// Switches per second.
    pub switches_per_s: f64,
    /// Fraction of 500 ms bins with zero throughput.
    pub dead_bin_fraction: f64,
}

const COLUMNS: [Column<HysteresisPoint>; 4] = [
    ("hysteresis (ms)", |r| r.hysteresis_ms.to_string()),
    ("TCP (Mb/s)", |r| format!("{:.2}", r.tcp_mbps)),
    ("switch/s", |r| format!("{:.1}", r.switches_per_s)),
    ("dead bins", |r| format!("{:.2}", r.dead_bin_fraction)),
];

fn scenario(hysteresis_ms: u64, seed: u64) -> Scenario {
    let mut s = tcp_drive(Mode::Wgtt, 15.0, seed);
    s.config.selection.hysteresis = SimDuration::from_millis(hysteresis_ms);
    s
}

/// Runs each hysteresis setting over `seeds`, all in one batch.
pub fn run_experiment(settings: &[u64], seeds: std::ops::Range<u64>) -> Vec<HysteresisPoint> {
    let grid = sweep_grid(settings.to_vec(), seeds, |&h, seed| scenario(h, seed));
    grid.iter().map(|(h, results)| point(*h, results)).collect()
}

/// Aggregates one setting's seed-sweep results into a table row.
fn point(hysteresis_ms: u64, results: &[RunResult]) -> HysteresisPoint {
    let tcp = mean_over(results, |r| r.downlink_bps(0)) / 1e6;
    let sps = mean_over(results, |r| {
        r.world.clients[0].metrics.switch_count() as f64 / r.duration.as_secs_f64()
    });
    let dead = mean_over(results, |r| {
        let rates = r.world.clients[0].metrics.downlink.rates();
        if rates.is_empty() {
            return 1.0;
        }
        rates.iter().filter(|(_, v)| *v < 1e5).count() as f64 / rates.len() as f64
    });
    HysteresisPoint {
        hysteresis_ms,
        tcp_mbps: tcp,
        switches_per_s: sps,
        dead_bin_fraction: dead,
    }
}

/// Runs and renders Fig 22.
pub fn report(fast: bool) -> String {
    let rows = run_experiment(&[120, 80, 40], seeds_for(fast, 3));
    let title = "Fig 22 — TCP throughput vs switching hysteresis (paper: smaller is better)";
    publish("fig22_hysteresis", &rows, title, &COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_hysteresis_not_worse() {
        let points = run_experiment(&[120, 40], 8..10);
        let (slow, fastest) = (&points[0], &points[1]);
        // The paper's trend: 40 ms ≥ 120 ms in throughput; with only two
        // seeds the run-to-run spread is a good 10–15%, so the band has to
        // be loose enough not to flake on an unlucky pair.
        assert!(
            fastest.tcp_mbps >= slow.tcp_mbps * 0.8,
            "40 ms {:?} vs 120 ms {:?}",
            fastest,
            slow
        );
        // More agile switching at the smaller setting.
        assert!(
            fastest.switches_per_s > slow.switches_per_s,
            "{fastest:?} vs {slow:?}"
        );
        // Never a full collapse at any setting.
        assert!(slow.dead_bin_fraction < 0.5, "{slow:?}");
        assert!(fastest.dead_bin_fraction < 0.5, "{fastest:?}");
    }
}
