//! Fig 21 — choosing the selection window W.
//!
//! The paper's emulation: record ESNR traces from a 15 mph drive, then
//! replay the AP-selection algorithm with different window sizes and
//! measure the average channel-capacity loss versus the instantaneous
//! oracle. Too small a window chases fast-fade noise (and measurement
//! error); too large a window reacts late. The paper's minimum is at
//! W = 10 ms.
//!
//! The same harness drives the estimator ablation (median vs mean vs
//! latest-sample) from DESIGN.md §6.

use crate::common::save_json;
use serde::Serialize;
use wgtt_core::selection::{ApSelector, SelectionConfig, WindowEstimator};
use wgtt_core::world::RANGE_FLOOR_DB;
use wgtt_core::SystemConfig;
use wgtt_net::ApId;
use wgtt_phy::{controller_esnr_db, ConstantSpeed, GuardInterval, Trajectory, WirelessLink};
use wgtt_sim::{SimDuration, SimRng, SimTime};

/// Capacity loss for one window setting.
#[derive(Debug, Serialize)]
pub struct WindowPoint {
    /// Window size, ms.
    pub window_ms: f64,
    /// Average capacity loss vs the oracle, Mbit/s.
    pub loss_mbps: f64,
}

/// A recorded drive: per-AP ESNR readings and per-tick oracle capacities.
pub struct RecordedDrive {
    /// CSI readings: `(time, ap, measured ESNR dB)` at the uplink frame
    /// cadence, with measurement noise.
    pub readings: Vec<(SimTime, usize, f64)>,
    /// Per-tick `(time, capacities per AP in bit/s)`.
    pub ticks: Vec<(SimTime, Vec<f64>)>,
}

/// Records a 15 mph drive's traces once; the window sweep replays them.
pub fn record_drive(seed: u64, mph: f64) -> RecordedDrive {
    let cfg = SystemConfig::default();
    let dep = cfg.deployment.build();
    let root = SimRng::new(seed);
    let mut noise = root.fork("csi-noise");
    let links: Vec<WirelessLink> = dep
        .aps
        .iter()
        .enumerate()
        .map(|(a, site)| {
            let mut r = root.fork(&format!("link/{a}/0"));
            WirelessLink::new(*site, cfg.link.clone(), &mut r)
        })
        .collect();
    let traj = ConstantSpeed::drive_by(&dep, mph, 4.0);
    let total = traj.transit_time(&dep, 4.0);
    let tick = SimDuration::from_millis(1);
    // CSI reading cadence: one uplink frame every ~3 ms (Block ACK cadence
    // at saturation). Per-reading ESNR estimation error grows as SNR drops
    // (the CSI tool's estimates are noisy near the floor).
    let reading_every = 3;
    let mut readings = Vec::new();
    let mut ticks = Vec::new();
    let steps = total.as_nanos() / tick.as_nanos();
    for i in 0..steps {
        let t = SimTime::from_nanos(i * tick.as_nanos());
        let pos = traj.position(t);
        let speed = traj.speed_mps(t);
        let caps: Vec<f64> = links
            .iter()
            .map(|l| {
                let csi = l.csi(t, &pos, speed);
                cfg.per_model.capacity_bps(GuardInterval::Short, &csi, 1500)
            })
            .collect();
        if i % reading_every == 0 {
            for (a, l) in links.iter().enumerate() {
                let csi = l.csi(t, &pos, speed);
                let e = controller_esnr_db(&csi);
                if e > RANGE_FLOOR_DB {
                    let std = (4.0 - e / 8.0).clamp(1.2, 4.0);
                    readings.push((t, a, e + noise.normal(0.0, std)));
                }
            }
        }
        ticks.push((t, caps));
    }
    RecordedDrive { readings, ticks }
}

/// Replays selection over the recorded drive with the given window and
/// estimator; returns the mean capacity loss in Mbit/s.
pub fn replay_selection(
    drive: &RecordedDrive,
    window: SimDuration,
    estimator: WindowEstimator,
    hysteresis: SimDuration,
) -> f64 {
    let mut sel = ApSelector::new(SelectionConfig {
        window,
        hysteresis,
        estimator,
        margin_db: 0.5,
    });
    let mut current: Option<ApId> = None;
    let mut ri = 0usize;
    let mut loss_sum = 0.0;
    let mut n = 0u64;
    for (t, caps) in &drive.ticks {
        while ri < drive.readings.len() && drive.readings[ri].0 <= *t {
            let (rt, ap, e) = drive.readings[ri];
            sel.on_reading(ApId(ap as u32), rt, e);
            ri += 1;
        }
        if let Some(target) = sel.decide(*t, current) {
            current = Some(target);
            sel.record_switch(*t);
        }
        let best = caps.iter().cloned().fold(0.0, f64::max);
        let serving = current.map_or(0.0, |ap| caps[ap.0 as usize]);
        loss_sum += (best - serving).max(0.0);
        n += 1;
    }
    loss_sum / n.max(1) as f64 / 1e6
}

/// Runs the window sweep.
pub fn run_experiment(fast: bool) -> Vec<WindowPoint> {
    let drives: Vec<RecordedDrive> = if fast {
        vec![record_drive(70, 15.0)]
    } else {
        (70..73).map(|s| record_drive(s, 15.0)).collect()
    };
    let windows_ms: &[f64] = if fast {
        &[1.0, 5.0, 10.0, 40.0, 100.0, 300.0]
    } else {
        &[1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 100.0, 300.0, 1000.0]
    };
    windows_ms
        .iter()
        .map(|&w| {
            let losses: Vec<f64> = drives
                .iter()
                .map(|d| {
                    replay_selection(
                        d,
                        SimDuration::from_secs_f64(w / 1000.0),
                        WindowEstimator::Median,
                        SimDuration::ZERO,
                    )
                })
                .collect();
            WindowPoint {
                window_ms: w,
                loss_mbps: wgtt_sim::stats::mean(&losses),
            }
        })
        .collect()
}

/// Estimator ablation at the paper's W = 10 ms.
#[derive(Debug, Serialize)]
pub struct EstimatorAblation {
    /// Median (the paper's choice) loss, Mbit/s.
    pub median_mbps: f64,
    /// Mean-of-window loss.
    pub mean_mbps: f64,
    /// Latest-sample loss.
    pub latest_mbps: f64,
}

/// Runs the estimator ablation.
pub fn run_ablation(seed: u64) -> EstimatorAblation {
    let d = record_drive(seed, 15.0);
    let w = SimDuration::from_millis(10);
    let h = SimDuration::ZERO;
    EstimatorAblation {
        median_mbps: replay_selection(&d, w, WindowEstimator::Median, h),
        mean_mbps: replay_selection(&d, w, WindowEstimator::Mean, h),
        latest_mbps: replay_selection(&d, w, WindowEstimator::Latest, h),
    }
}

/// Runs and renders Fig 21.
pub fn report(fast: bool) -> String {
    let points = run_experiment(fast);
    let ablation = run_ablation(70);
    save_json("fig21_window", &points);
    save_json("fig21_estimator_ablation", &ablation);
    let table = crate::common::render_table(
        &["W (ms)", "capacity loss (Mb/s)"],
        &points
            .iter()
            .map(|p| vec![format!("{:.0}", p.window_ms), format!("{:.2}", p.loss_mbps)])
            .collect::<Vec<_>>(),
    );
    format!(
        "Fig 21 — capacity loss vs selection window (paper: minimum at 10 ms)\n{table}\
         Estimator ablation at W=10 ms (Mb/s loss): median {:.2}, mean {:.2}, latest {:.2}\n",
        ablation.median_mbps, ablation.mean_mbps, ablation.latest_mbps
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_curve_has_interior_minimum_near_10ms() {
        let pts = run_experiment(true);
        let at = |w: f64| pts.iter().find(|p| p.window_ms == w).unwrap().loss_mbps;
        // The U-shape of the paper: 10 ms beats the noisy 1 ms extreme and
        // the stale 300 ms extreme; the basin between 10 and 100 ms is
        // shallow in our channel (within ~10 %).
        assert!(
            at(10.0) <= at(1.0),
            "1 ms {} vs 10 ms {}",
            at(1.0),
            at(10.0)
        );
        assert!(
            at(10.0) < at(300.0),
            "300 ms {} vs 10 ms {}",
            at(300.0),
            at(10.0)
        );
        assert!(
            at(10.0) <= at(100.0) * 1.15,
            "basin not shallow: 10 ms {} vs 100 ms {}",
            at(10.0),
            at(100.0)
        );
    }

    #[test]
    fn median_not_worse_than_latest() {
        let a = run_ablation(71);
        assert!(
            a.median_mbps <= a.latest_mbps * 1.15,
            "median {} vs latest {}",
            a.median_mbps,
            a.latest_mbps
        );
    }
}
