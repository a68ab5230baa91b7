//! Fig 24 — video conferencing frame rate.
//!
//! A bidirectional call (downlink + uplink CBR) while driving at 5 and
//! 15 mph, replayed through two application profiles: Skype-style
//! (~30 fps, larger frames) and Hangouts-style (~60 fps, reduced
//! resolution). The paper reports CDFs of the per-second delivered frame
//! rate: ~20 fps at the 85th percentile for Skype, rising to ~56 with
//! Hangouts' smaller frames.

use crate::common::{config, publish, sweep_grid, Column};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{FlowSpec, RunResult, Scenario};
use wgtt_sim::stats::quantile;
use wgtt_workloads::conference::{per_second_fps, ConferenceConfig};

/// One (speed, profile) CDF summary.
#[derive(Debug, Serialize)]
pub struct ConferencePoint {
    /// Speed, mph.
    pub mph: f64,
    /// Application profile name.
    pub profile: String,
    /// Per-second fps samples.
    pub fps_samples: Vec<f64>,
    /// Quantiles p25/p50/p85 of the per-second fps.
    pub quantiles: [f64; 3],
}

const COLUMNS: [Column<ConferencePoint>; 5] = [
    ("speed", |p| format!("{:.0}", p.mph)),
    ("profile", |p| p.profile.clone()),
    ("p25 fps", |p| format!("{:.0}", p.quantiles[0])),
    ("p50 fps", |p| format!("{:.0}", p.quantiles[1])),
    ("p85 fps", |p| format!("{:.0}", p.quantiles[2])),
];

fn scenario(mph: f64, seed: u64) -> Scenario {
    let mut scenario = Scenario::single_drive(
        config(Mode::Wgtt),
        mph,
        vec![
            FlowSpec::DownlinkUdp {
                rate_bps: 1_200_000,
                payload: 700,
            },
            FlowSpec::UplinkUdp {
                rate_bps: 1_200_000,
                payload: 700,
            },
        ],
        seed,
    );
    scenario.log_deliveries = true;
    scenario
}

/// Replays both application profiles over one conferencing drive.
fn profiles(mph: f64, res: &RunResult) -> Vec<ConferencePoint> {
    let log = res.world.clients[0]
        .delivery_log
        .as_ref()
        .expect("delivery log enabled");
    [
        ("skype", ConferenceConfig::skype()),
        ("hangouts", ConferenceConfig::hangouts()),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let fps = per_second_fps(log, &cfg, res.duration);
        // Skip the first second (association + ramp).
        let body: Vec<f64> = fps.iter().skip(1).copied().collect();
        let qs = [0.25, 0.50, 0.85].map(|q| quantile(&body, q));
        ConferencePoint {
            mph,
            profile: name.into(),
            fps_samples: body,
            quantiles: qs,
        }
    })
    .collect()
}

/// Runs one conferencing drive per speed, all in one batch, and replays
/// both profiles over each.
pub fn run_experiment(speeds: &[f64], seed: u64) -> Vec<ConferencePoint> {
    let grid = sweep_grid(speeds.to_vec(), seed..seed + 1, |&mph, seed| {
        scenario(mph, seed)
    });
    grid.iter()
        .flat_map(|(mph, runs)| profiles(*mph, &runs[0]))
        .collect()
}

/// Runs and renders Fig 24.
pub fn report(fast: bool) -> String {
    let speeds: &[f64] = if fast { &[15.0] } else { &[5.0, 15.0] };
    let all = run_experiment(speeds, 24);
    let title = "Fig 24 — conferencing delivered fps (paper: Skype ≈20 fps p85, Hangouts ≈56)";
    publish("fig24_conferencing", &all, title, &COLUMNS, &all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_sustains_frames_and_hangouts_beats_skype() {
        let pts = run_experiment(&[15.0], 3);
        let skype = pts.iter().find(|p| p.profile == "skype").unwrap();
        let hang = pts.iter().find(|p| p.profile == "hangouts").unwrap();
        // The call is usable most of the time.
        assert!(
            skype.quantiles[1] >= 15.0,
            "skype median {:?}",
            skype.quantiles
        );
        // Higher-cadence small frames deliver more fps at the same bitrate.
        assert!(
            hang.quantiles[2] > skype.quantiles[2],
            "hangouts {:?} vs skype {:?}",
            hang.quantiles,
            skype.quantiles
        );
    }
}
