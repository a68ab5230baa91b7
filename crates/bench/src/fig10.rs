//! Fig 10 — per-AP ESNR heatmap over the road.
//!
//! The paper maps mean ESNR on a grid (distance along × across the road)
//! for each AP, showing cells laid out in order along the roadside with
//! 6–10 m of coverage overlap between adjacent APs.

use crate::common::save_json;
use serde::Serialize;
use wgtt_core::config::SystemConfig;
use wgtt_core::world::scenario_link;
use wgtt_phy::{Position, CONTROLLER_MODULATION};
use wgtt_sim::SimTime;

/// The sampled heatmap.
#[derive(Debug, Serialize)]
pub struct Heatmap {
    /// Along-road sample coordinates, m.
    pub xs: Vec<f64>,
    /// Across-road sample coordinates, m.
    pub ys: Vec<f64>,
    /// `esnr[ap][yi][xi]`, dB (time-averaged over fading).
    pub esnr_db: Vec<Vec<Vec<f64>>>,
    /// Along-road position of each AP's coverage peak (near lane), m.
    pub peak_x: Vec<f64>,
    /// Extent of each AP's usable coverage (ESNR ≥ 2 dB — the lowest-MCS
    /// delivery floor) in the near lane: `(from_x, to_x)`.
    pub coverage: Vec<(f64, f64)>,
    /// Pairwise overlap between adjacent AP coverages, m.
    pub overlap_m: Vec<f64>,
}

/// Samples the heatmap.
pub fn run_experiment(seed: u64) -> Heatmap {
    let cfg = SystemConfig::default();
    let dep = cfg.deployment.build();
    let link = |a| scenario_link(seed, &dep, &cfg.link, a, 0);
    let links: Vec<_> = (0..dep.aps.len()).map(link).collect();
    let (lo, hi) = dep.extent();
    let xs: Vec<f64> = (0..=((hi - lo + 16.0) as usize))
        .map(|i| lo - 8.0 + i as f64)
        .collect();
    let ys: Vec<f64> = vec![dep.lane_near_y - 2.0, dep.lane_near_y, dep.lane_far_y];

    // Time-average ESNR over several fading snapshots.
    let snapshots = 12;
    let mut esnr = vec![vec![vec![0.0; xs.len()]; ys.len()]; links.len()];
    for (grid, link) in esnr.iter_mut().zip(&links) {
        for (yi, &y) in ys.iter().enumerate() {
            for (xi, &x) in xs.iter().enumerate() {
                let pos = Position::new(x, y, 1.5);
                let mut acc = 0.0;
                for s in 0..snapshots {
                    let t = SimTime::from_millis(10 + s * 13);
                    acc += link.memo(t, &pos, 6.7).esnr_db(CONTROLLER_MODULATION);
                }
                grid[yi][xi] = acc / snapshots as f64;
            }
        }
    }

    // Near-lane coverage analysis (yi = 1).
    let lane = 1;
    let mut peak_x = Vec::new();
    let mut coverage = Vec::new();
    for grid in &esnr {
        let row = &grid[lane];
        let (pi, _) = row
            .iter()
            .enumerate()
            .max_by(|p, q| p.1.partial_cmp(q.1).expect("esnr not NaN"))
            .expect("non-empty");
        peak_x.push(xs[pi]);
        let from = xs
            .iter()
            .zip(row)
            .find(|(_, &e)| e >= 2.0)
            .map(|(&x, _)| x)
            .unwrap_or(f64::NAN);
        let to = xs
            .iter()
            .zip(row)
            .rev()
            .find(|(_, &e)| e >= 2.0)
            .map(|(&x, _)| x)
            .unwrap_or(f64::NAN);
        coverage.push((from, to));
    }
    let overlap_m = coverage
        .windows(2)
        .map(|w| (w[0].1 - w[1].0).max(0.0))
        .collect();
    Heatmap {
        xs,
        ys,
        esnr_db: esnr,
        peak_x,
        coverage,
        overlap_m,
    }
}

/// Runs and renders Fig 10.
pub fn report(_fast: bool) -> String {
    let h = run_experiment(42);
    save_json("fig10_heatmap", &h);
    let mut out =
        String::from("Fig 10 — ESNR heatmap (near lane): per-AP coverage peaks and overlap\n");
    for (a, (&peak, cov)) in h.peak_x.iter().zip(&h.coverage).enumerate() {
        out.push_str(&format!(
            "  AP{a}: peak at x={peak:>5.1} m  usable {:.1}..{:.1} m\n",
            cov.0, cov.1
        ));
    }
    out.push_str(&format!(
        "  adjacent coverage overlap: {:?} m (paper: 6–10 m)\n",
        h.overlap_m
            .iter()
            .map(|v| (v * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_ordered_and_overlapping() {
        let h = run_experiment(9);
        // Peaks progress along the road near each AP's x (0, 7.5, ..).
        for (a, &p) in h.peak_x.iter().enumerate() {
            let expect = a as f64 * 7.5;
            assert!((p - expect).abs() <= 3.0, "AP{a} peak {p} vs {expect}");
        }
        // Adjacent cells overlap by several metres, like the paper's
        // 6–10 m observation.
        for (i, &o) in h.overlap_m.iter().enumerate() {
            assert!((2.0..20.0).contains(&o), "overlap[{i}] = {o}");
        }
    }
}
