//! Spatially correlated log-normal shadowing (optional).
//!
//! Large obstacles — parked trucks, street furniture, foliage — impose
//! slowly varying gain offsets on top of distance loss. The classic model
//! (Gudmundson) is log-normal shadowing whose autocorrelation decays
//! exponentially with distance. We synthesize it with a sum of spatial
//! sinusoids over the along-road coordinate, which gives a deterministic,
//! seedable, smooth process with a controllable correlation length —
//! exactly analogous to the temporal sum-of-sinusoids used for fast fading.
//!
//! Shadowing is **off by default** (σ = 0): the paper's testbed calibration
//! in this reproduction is done without it, and it exists as a sensitivity
//! knob for robustness studies.

use crate::fastmath::{cos, exp};
use serde::Serialize;
use wgtt_sim::SimRng;

/// Shadowing process parameters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ShadowingConfig {
    /// Standard deviation of the gain offset, dB. 0 disables shadowing.
    pub sigma_db: f64,
    /// Correlation length, metres (Gudmundson outdoor ≈ 10–50 m; street
    /// furniture scale ≈ 5 m).
    pub correlation_m: f64,
    /// Number of spatial sinusoids.
    pub num_components: usize,
}

impl Default for ShadowingConfig {
    fn default() -> Self {
        ShadowingConfig {
            sigma_db: 0.0,
            correlation_m: 8.0,
            num_components: 24,
        }
    }
}

#[derive(Debug, Clone)]
struct Component {
    /// Spatial angular frequency, rad/m.
    k: f64,
    /// Phase.
    phase: f64,
}

/// A frozen shadowing realization along the road for one link.
#[derive(Debug, Clone)]
pub struct ShadowingProcess {
    sigma_db: f64,
    components: Vec<Component>,
}

impl ShadowingProcess {
    /// Draws a realization. With `sigma_db == 0` the process is identically
    /// zero (and cheap).
    pub fn new(cfg: &ShadowingConfig, rng: &mut SimRng) -> Self {
        if cfg.sigma_db <= 0.0 {
            return ShadowingProcess {
                sigma_db: 0.0,
                components: Vec::new(),
            };
        }
        assert!(cfg.correlation_m > 0.0);
        assert!(cfg.num_components >= 4);
        // Spatial frequencies spread log-uniformly around the correlation
        // scale: wavelengths from ~corr/2 to ~8·corr.
        let components = (0..cfg.num_components)
            .map(|_| {
                let u = rng.unit();
                // 16^u.
                let wavelength = cfg.correlation_m * 0.5 * exp(u * 4.0 * std::f64::consts::LN_2);
                Component {
                    k: 2.0 * std::f64::consts::PI / wavelength,
                    phase: rng.phase(),
                }
            })
            .collect();
        ShadowingProcess {
            sigma_db: cfg.sigma_db,
            components,
        }
    }

    /// Shadowing gain offset (dB) at along-road coordinate `x_m`.
    pub fn offset_db(&self, x_m: f64) -> f64 {
        if self.components.is_empty() {
            return 0.0;
        }
        let n = self.components.len() as f64;
        let sum: f64 = self
            .components
            .iter()
            .map(|c| cos(c.k * x_m + c.phase))
            .sum();
        self.sigma_db * (2.0 / n).sqrt() * sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(sigma: f64, seed: u64) -> ShadowingProcess {
        let cfg = ShadowingConfig {
            sigma_db: sigma,
            ..ShadowingConfig::default()
        };
        ShadowingProcess::new(&cfg, &mut SimRng::new(seed))
    }

    #[test]
    fn disabled_by_default_and_zero() {
        let p = ShadowingProcess::new(&ShadowingConfig::default(), &mut SimRng::new(1));
        for x in [-50.0, 0.0, 13.7, 500.0] {
            assert_eq!(p.offset_db(x), 0.0);
        }
    }

    #[test]
    fn statistics_match_sigma() {
        let p = process(4.0, 2);
        let samples: Vec<f64> = (0..20_000).map(|i| p.offset_db(i as f64 * 0.37)).collect();
        let mean = wgtt_sim::stats::mean(&samples);
        let std = wgtt_sim::stats::std_dev(&samples);
        assert!(mean.abs() < 0.5, "mean {mean}");
        assert!((std - 4.0).abs() < 1.0, "std {std}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = process(3.0, 7);
        let b = process(3.0, 7);
        let c = process(3.0, 8);
        assert_eq!(a.offset_db(12.3), b.offset_db(12.3));
        assert_ne!(a.offset_db(12.3), c.offset_db(12.3));
    }

    #[test]
    fn spatially_correlated() {
        // Nearby points move together; distant points decorrelate.
        let p = process(4.0, 3);
        let mut near_diff = 0.0;
        let mut far_diff = 0.0;
        let n = 500;
        for i in 0..n {
            let x = i as f64 * 1.7;
            let v = p.offset_db(x);
            near_diff += (p.offset_db(x + 0.5) - v).abs();
            far_diff += (p.offset_db(x + 60.0) - v).abs();
        }
        assert!(
            near_diff * 3.0 < far_diff,
            "near {near_diff} vs far {far_diff}"
        );
    }

    #[test]
    fn smooth_at_sub_metre_scale() {
        let p = process(4.0, 5);
        for i in 0..200 {
            let x = i as f64 * 0.9;
            let d = (p.offset_db(x + 0.1) - p.offset_db(x)).abs();
            assert!(d < 1.0, "jump of {d} dB over 10 cm at x={x}");
        }
    }
}
