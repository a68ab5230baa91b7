//! Fig 23 — AP density.
//!
//! An irregular deployment with a sparse half (15 m spacing) and a dense
//! half (5 m spacing): WGTT's UDP throughput is higher in the dense
//! segment at every speed (more nearby APs mean better best-links and more
//! uplink diversity), and stays consistent across speeds in both.

use crate::common::{publish, udp_drive, Column};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_sim::{SimDuration, SimTime};

/// One (speed, segment) cell of the figure.
#[derive(Debug, Serialize)]
pub struct DensityPoint {
    /// Speed, mph.
    pub mph: f64,
    /// Goodput while in the sparse segment, Mbit/s.
    pub sparse_mbps: f64,
    /// Goodput while in the dense segment, Mbit/s.
    pub dense_mbps: f64,
}

const COLUMNS: [Column<DensityPoint>; 3] = [
    ("speed (mph)", |r| format!("{:.0}", r.mph)),
    ("sparse (Mb/s)", |r| format!("{:.2}", r.sparse_mbps)),
    ("dense (Mb/s)", |r| format!("{:.2}", r.dense_mbps)),
];

/// Spacings: 3 gaps of 15 m (sparse, APs 0–3), then 4 gaps of 5 m (dense,
/// APs 3–7).
const SPACINGS: [f64; 7] = [15.0, 15.0, 15.0, 5.0, 5.0, 5.0, 5.0];

/// Runs the density experiment at one speed.
pub fn run_experiment(mph: f64, seed: u64) -> DensityPoint {
    let mut scenario = udp_drive(Mode::Wgtt, mph, seed);
    let dep = scenario.config.deployment.build_irregular(&SPACINGS);
    let sparse_range = (dep.aps[0].position.x, dep.aps[3].position.x);
    let dense_range = (dep.aps[3].position.x, dep.aps[7].position.x);
    let total_m = dep.extent().1 - dep.extent().0 + 8.0;
    let speed_mps = wgtt_phy::mph_to_mps(mph);
    scenario.duration = SimDuration::from_secs_f64(total_m / speed_mps);
    let mut sim = scenario.build_on(dep);
    sim.run_until(SimTime::ZERO + scenario.duration + SimDuration::from_millis(500));
    let world = sim.into_world();

    // Split the throughput series by which segment the client was in.
    let start_x = world.clients[0].position(SimTime::ZERO).x;
    let rates = world.clients[0].metrics.downlink.rates();
    let in_seg = |t_s: f64, seg: (f64, f64)| {
        let x = start_x + speed_mps * t_s;
        x >= seg.0 && x < seg.1
    };
    let seg_mean = |seg: (f64, f64)| {
        let vals: Vec<f64> = rates
            .iter()
            .filter(|(t, _)| in_seg(t.as_secs_f64() + 0.05, seg))
            .map(|(_, v)| v / 1e6)
            .collect();
        wgtt_sim::stats::mean(&vals)
    };
    DensityPoint {
        mph,
        sparse_mbps: seg_mean(sparse_range),
        dense_mbps: seg_mean(dense_range),
    }
}

/// Runs and renders Fig 23. Speeds are independent runs, so they fan out
/// across the worker pool (the irregular-deployment runs drive their own
/// simulator, hence `par::map` over speeds instead of a seed sweep).
pub fn report(fast: bool) -> String {
    let speeds: &[f64] = if fast { &[15.0] } else { &[5.0, 15.0, 25.0] };
    let rows: Vec<DensityPoint> =
        crate::par::map(speeds.to_vec(), |mph, _| run_experiment(mph, 23));
    let title = "Fig 23 — UDP throughput, sparse (15 m) vs dense (5 m) AP segments";
    publish("fig23_density", &rows, title, &COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_segment_outperforms_sparse() {
        let p = run_experiment(15.0, 4);
        assert!(
            p.dense_mbps > p.sparse_mbps,
            "dense {} vs sparse {}",
            p.dense_mbps,
            p.sparse_mbps
        );
        assert!(p.dense_mbps > 3.0, "{p:?}");
    }
}
