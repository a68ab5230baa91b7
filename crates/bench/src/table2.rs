//! Table 2 — switching accuracy at 15 mph.
//!
//! Accuracy = fraction of time the serving AP is the instantaneous-ESNR
//! oracle's choice. Paper: WGTT 90.12 % (TCP) / 91.38 % (UDP) versus
//! Enhanced 802.11r's 20.24 % / 18.72 % — the baseline only reacts once
//! the current link has already deteriorated.

use crate::common::{drive, mean_over, publish, seeds_for, sweep_grid, Column, MODES};
use serde::Serialize;

/// The accuracy table.
#[derive(Debug, Serialize)]
pub struct AccuracyTable {
    /// WGTT accuracy for TCP, percent.
    pub wgtt_tcp: f64,
    /// WGTT accuracy for UDP, percent.
    pub wgtt_udp: f64,
    /// Baseline accuracy for TCP, percent.
    pub baseline_tcp: f64,
    /// Baseline accuracy for UDP, percent.
    pub baseline_udp: f64,
}

/// A rendered row: transport, WGTT %, baseline %.
const COLUMNS: [Column<(&str, f64, f64)>; 3] = [
    ("", |r| r.0.to_string()),
    ("WGTT (%)", |r| format!("{:.2}", r.1)),
    ("Enhanced 802.11r (%)", |r| format!("{:.2}", r.2)),
];

/// Runs the accuracy experiment: every (system, transport, seed) run in
/// one batch.
pub fn run_experiment(fast: bool) -> AccuracyTable {
    let cells = MODES
        .into_iter()
        .flat_map(|mode| [(mode, true), (mode, false)]);
    let grid = sweep_grid(cells.collect(), seeds_for(fast, 3), |&(mode, tcp), seed| {
        drive(mode, tcp, 15.0, seed)
    });
    let accuracy = |i: usize| {
        mean_over(&grid[i].1, |r| {
            r.world.clients[0].metrics.switching_accuracy()
        }) * 100.0
    };
    AccuracyTable {
        wgtt_tcp: accuracy(0),
        wgtt_udp: accuracy(1),
        baseline_tcp: accuracy(2),
        baseline_udp: accuracy(3),
    }
}

/// Runs and renders Table 2.
pub fn report(fast: bool) -> String {
    let t = run_experiment(fast);
    let rows = [
        ("TCP", t.wgtt_tcp, t.baseline_tcp),
        ("UDP", t.wgtt_udp, t.baseline_udp),
    ];
    let title = "Table 2 — switching accuracy (paper: ≈90 % vs ≈20 %)";
    publish("table2_accuracy", &t, title, &COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wgtt_accuracy_dominates_baseline() {
        let t = run_experiment(true);
        assert!(t.wgtt_udp > 60.0, "{t:?}");
        assert!(t.wgtt_tcp > 60.0, "{t:?}");
        assert!(t.baseline_udp < 45.0, "{t:?}");
        assert!(t.baseline_tcp < 45.0, "{t:?}");
        assert!(t.wgtt_udp > t.baseline_udp + 25.0, "{t:?}");
        assert!(t.wgtt_tcp > t.baseline_tcp + 25.0, "{t:?}");
    }
}
