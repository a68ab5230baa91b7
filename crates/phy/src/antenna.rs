//! The AP antenna's gain pattern.
//!
//! Each WGTT AP uses a 14 dBi parabolic antenna with a 21° half-power
//! beamwidth (the Laird GD24BP of the paper, §4.2). We model its main lobe
//! with the standard Gaussian-beam approximation — gain falls 3 dB at half
//! the beamwidth and 12 dB at the full beamwidth — and clamp to a sidelobe
//! floor, which is what gives adjacent cells their 6–10 m coverage overlap
//! at reduced SNR (paper Fig 10) and lets neighbour APs overhear uplink
//! traffic for Block-ACK forwarding.

use serde::Serialize;

/// Gaussian main-lobe directional antenna with a sidelobe floor.
///
/// `G(θ) = G_max − 12·(θ/θ_bw)²` dB, clamped below at
/// `G_max + sidelobe_rel_db`. With `θ_bw` equal to the half-power beamwidth,
/// the pattern is 3 dB down at `θ = θ_bw/2` — the textbook parabolic-dish
/// approximation (same form as the 3GPP antenna element model).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ParabolicAntenna {
    /// Boresight gain, dBi (paper: 14 dBi).
    pub peak_gain_dbi: f64,
    /// Half-power (−3 dB) beamwidth in degrees (paper: 21°).
    pub beamwidth_deg: f64,
    /// Sidelobe level relative to peak, dB (negative; typical −20…−30 dB
    /// for a small parabolic).
    pub sidelobe_rel_db: f64,
}

impl Default for ParabolicAntenna {
    fn default() -> Self {
        ParabolicAntenna {
            peak_gain_dbi: 14.0,
            beamwidth_deg: 21.0,
            sidelobe_rel_db: -25.0,
        }
    }
}

impl ParabolicAntenna {
    /// Gain in dBi at `off_boresight` radians from the pointing direction.
    pub fn gain_dbi(&self, off_boresight: f64) -> f64 {
        let theta_deg = off_boresight.abs().to_degrees();
        let rolloff = 12.0 * (theta_deg / self.beamwidth_deg).powi(2);
        let floor = self.peak_gain_dbi + self.sidelobe_rel_db;
        (self.peak_gain_dbi - rolloff).max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parabolic_peak_at_boresight() {
        let a = ParabolicAntenna::default();
        assert_eq!(a.gain_dbi(0.0), 14.0);
    }

    #[test]
    fn parabolic_is_3db_down_at_half_beamwidth() {
        let a = ParabolicAntenna::default();
        let half_bw = (21.0_f64 / 2.0).to_radians();
        assert!((a.gain_dbi(half_bw) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn parabolic_is_12db_down_at_full_beamwidth() {
        let a = ParabolicAntenna::default();
        let bw = 21.0_f64.to_radians();
        assert!((a.gain_dbi(bw) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parabolic_clamps_to_sidelobe_floor() {
        let a = ParabolicAntenna::default();
        // Far off boresight the gain is the floor, not −∞.
        assert_eq!(a.gain_dbi(std::f64::consts::PI), 14.0 - 25.0);
        assert_eq!(a.gain_dbi(1.5), a.gain_dbi(3.0));
    }

    #[test]
    fn parabolic_is_symmetric_and_monotone() {
        let a = ParabolicAntenna::default();
        assert_eq!(a.gain_dbi(0.3), a.gain_dbi(-0.3));
        let mut prev = a.gain_dbi(0.0);
        for i in 1..=30 {
            let g = a.gain_dbi(i as f64 * 0.02);
            assert!(g <= prev + 1e-12);
            prev = g;
        }
    }
}
