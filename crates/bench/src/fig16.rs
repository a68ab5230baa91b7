//! Fig 16 — CDF of delivered link bit rate at 15 mph.
//!
//! The link bit rate sampled over time — the mean delivered PHY rate per
//! 100 ms bin, zero when nothing is delivered (a stalled link has no bit
//! rate) — forms the CDF; the
//! paper's WGTT reaches a 90th percentile of ~70 Mbit/s, ~30 Mbit/s above
//! Enhanced 802.11r, because packets ride the momentarily best link.

use crate::common::{drive, publish, sweep_grid, system_name, Column, MODES};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::RunResult;
use wgtt_sim::stats::{ecdf, quantile};

/// CDF summary for one run.
#[derive(Debug, Serialize)]
pub struct BitrateCdf {
    /// System name.
    pub system: String,
    /// Transport.
    pub transport: String,
    /// Quantiles of the delivered-MPDU rate, Mbit/s: p10/p25/p50/p75/p90.
    pub quantiles_mbps: [f64; 5],
    /// Full empirical CDF (rate, fraction).
    pub cdf: Vec<(f64, f64)>,
}

const COLUMNS: [Column<BitrateCdf>; 7] = [
    ("system", |r| r.system.clone()),
    ("proto", |r| r.transport.clone()),
    ("p10", |r| format!("{:.1}", r.quantiles_mbps[0])),
    ("p25", |r| format!("{:.1}", r.quantiles_mbps[1])),
    ("p50", |r| format!("{:.1}", r.quantiles_mbps[2])),
    ("p75", |r| format!("{:.1}", r.quantiles_mbps[3])),
    ("p90", |r| format!("{:.1}", r.quantiles_mbps[4])),
];

/// Measures the delivered-rate CDF of one 15 mph drive per `(system,
/// transport TCP?)` cell, all in one batch.
pub fn run_experiment(cells: &[(Mode, bool)], seed: u64) -> Vec<BitrateCdf> {
    let grid = sweep_grid(cells.to_vec(), seed..seed + 1, |&(mode, tcp), seed| {
        drive(mode, tcp, 15.0, seed)
    });
    grid.iter()
        .map(|((mode, tcp), res)| bitrate_cdf(*mode, *tcp, &res[0]))
        .collect()
}

fn bitrate_cdf(mode: Mode, tcp: bool, res: &RunResult) -> BitrateCdf {
    let rates = &res.world.clients[0]
        .metrics
        .link_rate_timeline_mbps(res.duration);
    let qs = [0.10, 0.25, 0.50, 0.75, 0.90].map(|q| quantile(rates, q));
    // Thin the stored CDF for the JSON file.
    let full = ecdf(rates);
    let step = (full.len() / 200).max(1);
    let cdf = full.into_iter().step_by(step).collect();
    BitrateCdf {
        system: system_name(mode),
        transport: if tcp { "TCP".into() } else { "UDP".into() },
        quantiles_mbps: qs,
        cdf,
    }
}

/// Runs and renders Fig 16.
pub fn report(_fast: bool) -> String {
    let cells = [false, true]
        .into_iter()
        .flat_map(|tcp| MODES.map(|mode| (mode, tcp)));
    let runs = run_experiment(&cells.collect::<Vec<_>>(), 16);
    let title = "Fig 16 — delivered link bit rate CDF, Mbit/s (paper: WGTT p90 ≈ 70)";
    publish("fig16_bitrate_cdf", &runs, title, &COLUMNS, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wgtt_rides_higher_rates() {
        let runs = run_experiment(&[(Mode::Wgtt, false), (Mode::Enhanced80211r, false)], 6);
        let (w, b) = (&runs[0], &runs[1]);
        // p90 well into the upper MCS range for WGTT (the per-bin mean
        // dilutes instantaneous peaks, so this sits below the raw 72.2
        // MCS7 rate)…
        assert!(w.quantiles_mbps[4] >= 45.0, "{:?}", w.quantiles_mbps);
        // …and clearly above the baseline's p90.
        assert!(
            w.quantiles_mbps[4] >= b.quantiles_mbps[4],
            "wgtt {:?} vs base {:?}",
            w.quantiles_mbps,
            b.quantiles_mbps
        );
        // The lower tail shows the gap most clearly: the baseline drags
        // through low rates at cell edges.
        assert!(
            w.quantiles_mbps[0] > b.quantiles_mbps[0],
            "p10 gap missing: {:?} vs {:?}",
            w.quantiles_mbps,
            b.quantiles_mbps
        );
        // CDF is monotone.
        for pair in w.cdf.windows(2) {
            assert!(pair[0].0 <= pair[1].0 && pair[0].1 <= pair[1].1);
        }
    }
}
