//! Fig 2 — the vehicular picocell regime.
//!
//! Reproduces the paper's motivating observation: per-AP ESNR traces
//! sampled from a moving client show second-scale distance fades with
//! millisecond-scale fast fading on top, and the *best* AP flips at
//! millisecond timescales inside coverage-overlap zones.

use crate::common::save_json;
use serde::Serialize;
use wgtt_core::config::SystemConfig;
use wgtt_core::world::scenario_link;
use wgtt_phy::{ConstantSpeed, Trajectory, CONTROLLER_MODULATION};
use wgtt_sim::SimTime;

/// One sampled instant.
#[derive(Debug, Clone, Serialize)]
pub struct RegimeSample {
    /// Seconds into the drive.
    pub t_s: f64,
    /// ESNR per AP, dB.
    pub esnr_db: Vec<f64>,
    /// argmax AP.
    pub best_ap: usize,
}

/// Full experiment output.
#[derive(Debug, Serialize)]
pub struct RegimeResult {
    /// Sampling period, ms.
    pub sample_ms: f64,
    /// Drive speed, mph.
    pub mph: f64,
    /// The trace.
    pub samples: Vec<RegimeSample>,
    /// Best-AP changes per second of drive.
    pub flips_per_second: f64,
    /// Median interval between best-AP flips, ms.
    pub median_flip_interval_ms: f64,
}

/// Samples the regime trace.
pub fn run_experiment(mph: f64, seed: u64) -> RegimeResult {
    let cfg = SystemConfig::default();
    let dep = cfg.deployment.build();
    let link = |a| scenario_link(seed, &dep, &cfg.link, a, 0);
    let links: Vec<_> = (0..dep.aps.len()).map(link).collect();
    let traj = ConstantSpeed::drive_by(&dep, mph, 4.0);
    let total = traj.transit_time(&dep, 4.0);

    let sample_ms = 1.0;
    let steps = (total.as_secs_f64() * 1000.0 / sample_ms) as u64;
    let mut samples = Vec::with_capacity(steps as usize);
    let mut flips = 0u64;
    let mut flip_intervals = Vec::new();
    let mut last_best: Option<(usize, f64)> = None;
    for i in 0..steps {
        let t = SimTime::from_secs_f64(i as f64 * sample_ms / 1000.0);
        let pos = traj.position(t);
        let speed = traj.speed_mps(t);
        let esnr: Vec<f64> = links
            .iter()
            .map(|l| l.memo(t, &pos, speed).esnr_db(CONTROLLER_MODULATION))
            .collect();
        let best = esnr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("esnr not NaN"))
            .map(|(i, _)| i)
            .expect("non-empty");
        if let Some((prev, at)) = last_best {
            if prev != best {
                flips += 1;
                flip_intervals.push(t.as_secs_f64() * 1000.0 - at);
                last_best = Some((best, t.as_secs_f64() * 1000.0));
            }
        } else {
            last_best = Some((best, t.as_secs_f64() * 1000.0));
        }
        samples.push(RegimeSample {
            t_s: t.as_secs_f64(),
            esnr_db: esnr,
            best_ap: best,
        });
    }
    RegimeResult {
        sample_ms,
        mph,
        flips_per_second: flips as f64 / total.as_secs_f64(),
        median_flip_interval_ms: wgtt_sim::stats::median(&flip_intervals),
        samples,
    }
}

/// Runs and renders the Fig 2 experiment.
pub fn report(_fast: bool) -> String {
    let res = run_experiment(15.0, 42);
    save_json("fig02_regime", &res);
    let peak = res
        .samples
        .iter()
        .map(|s| s.esnr_db.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
        .fold(f64::NEG_INFINITY, f64::max);
    format!(
        "Fig 2 — vehicular picocell regime (15 mph, 1 ms sampling)\n\
         best-AP flips/s:            {:.1}\n\
         median flip interval:       {:.0} ms\n\
         peak ESNR over drive:       {:.1} dB\n\
         (full traces in results/fig02_regime.json)\n",
        res.flips_per_second, res.median_flip_interval_ms, peak
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig 2 samples the channel a world's first client sees: at one seed
    /// its links are `Scenario::build`'s `links[a][0]`, bit for bit.
    #[test]
    fn regime_links_are_the_worlds() {
        let seed = 42;
        let cfg = SystemConfig::default();
        let dep = cfg.deployment.build();
        let sim = crate::common::udp_drive(wgtt_core::Mode::Wgtt, 15.0, seed).build();
        let world = sim.world();
        assert_eq!(dep.aps.len(), world.links.len());
        let pos = wgtt_phy::Position::new(12.0, world.deployment.lane_near_y, 1.5);
        for a in 0..dep.aps.len() {
            let link = scenario_link(seed, &dep, &cfg.link, a, 0);
            for ms in [0, 7, 250, 1_300] {
                let t = SimTime::from_millis(ms);
                let esnr = |l: &wgtt_phy::WirelessLink| {
                    l.memo(t, &pos, 6.7).esnr_db(CONTROLLER_MODULATION)
                };
                let (fig, built) = (esnr(&link), esnr(&world.links[a][0]));
                assert_eq!(fig.to_bits(), built.to_bits(), "AP{a} at {ms} ms");
            }
        }
    }

    #[test]
    fn regime_shows_ms_scale_flips() {
        let res = run_experiment(15.0, 1);
        // The defining property: the best AP changes many times per second
        // (the paper observes changes "every millisecond" in overlap
        // zones; our median interval must be well under a second).
        assert!(res.flips_per_second > 2.0, "{}", res.flips_per_second);
        assert!(
            res.median_flip_interval_ms < 500.0,
            "{}",
            res.median_flip_interval_ms
        );
        // And the client passes every AP: each index is best at some point.
        let mut seen: Vec<bool> = vec![false; 8];
        for s in &res.samples {
            seen[s.best_ap] = true;
        }
        assert!(seen.iter().all(|&b| b), "{seen:?}");
    }
}
