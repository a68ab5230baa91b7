//! Table 3 — link-layer ACK collision rate.
//!
//! All WGTT APs share the client's association, so several may answer the
//! same uplink frame. The paper measures the resulting collision rate at
//! the client and finds it negligible (≤0.004 %), crediting microsecond
//! response jitter (CCA deference) and the directional antennas' power
//! disparity (capture).

use crate::common::{config, publish, sweep_grid, Column, UDP_PAYLOAD};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{FlowSpec, RunResult, Scenario};

/// One row.
#[derive(Debug, Serialize)]
pub struct AckCollisionRow {
    /// Offered uplink rate, Mbit/s.
    pub rate_mbps: u64,
    /// Collision rate, percent.
    pub collision_pct: f64,
    /// Responses observed.
    pub responses: u64,
}

const COLUMNS: [Column<AckCollisionRow>; 3] = [
    ("rate (Mb/s)", |r| r.rate_mbps.to_string()),
    ("collision (%)", |r| format!("{:.3}", r.collision_pct)),
    ("responses", |r| r.responses.to_string()),
];

fn scenario(rate_mbps: u64, seed: u64) -> Scenario {
    Scenario::single_drive(
        config(Mode::Wgtt),
        15.0,
        vec![FlowSpec::UplinkUdp {
            rate_bps: rate_mbps * 1_000_000,
            payload: UDP_PAYLOAD,
        }],
        seed,
    )
}

/// Measures at each offered uplink load, all in one batch.
pub fn run_experiment(rates: &[u64], seed: u64) -> Vec<AckCollisionRow> {
    let grid = sweep_grid(rates.to_vec(), seed..seed + 1, |&rate, seed| {
        scenario(rate, seed)
    });
    let row = |(rate_mbps, runs): &(u64, Vec<RunResult>)| {
        let m = &runs[0].world.clients[0].metrics;
        AckCollisionRow {
            rate_mbps: *rate_mbps,
            collision_pct: m.ack_collision_rate() * 100.0,
            responses: m.ack_responses,
        }
    };
    grid.iter().map(row).collect()
}

/// Runs and renders Table 3.
pub fn report(fast: bool) -> String {
    let rates: &[u64] = if fast { &[70, 90] } else { &[70, 80, 90] };
    let rows = run_experiment(rates, 42);
    let title = "Table 3 — link-layer ACK collision rate (paper: ≤0.004 %, i.e. negligible)";
    publish("table3_ack_collisions", &rows, title, &COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collisions_are_rare() {
        let row = &run_experiment(&[70], 1)[0];
        assert!(row.responses > 500, "{row:?}");
        // The paper's exact 1e-5 rate depends on chipset quirks; the shape
        // claim is "negligible": well under 1 %.
        assert!(row.collision_pct < 1.0, "{row:?}");
    }
}
