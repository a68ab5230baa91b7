//! Large-scale propagation loss.
//!
//! The slow, distance-driven component of Fig 2's upper plot: free-space
//! loss at a reference distance plus log-distance rolloff, with optional
//! log-normal shadowing. The fast fading that rides on top of this lives in
//! [`crate::fading`].

use crate::fastmath::{exp, log10};
use serde::Serialize;

/// Speed of light, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Log-distance path loss model.
///
/// `PL(d) = FSPL(d0) + 10·n·log10(d/d0)` dB, where `FSPL(d0)` is the
/// free-space loss at the reference distance for the carrier frequency.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PathLoss {
    /// Carrier frequency, Hz (paper: channel 11 ⇒ 2.462 GHz).
    pub carrier_hz: f64,
    /// Path-loss exponent (≈2.0 free space; 2.5–3.0 for a cluttered street
    /// seen through a building face).
    pub exponent: f64,
    /// Reference distance, metres.
    pub ref_distance_m: f64,
}

impl Default for PathLoss {
    fn default() -> Self {
        PathLoss {
            carrier_hz: 2.462e9,
            exponent: 2.7,
            ref_distance_m: 1.0,
        }
    }
}

impl PathLoss {
    /// Carrier wavelength in metres (≈12.2 cm at channel 11).
    pub fn wavelength_m(&self) -> f64 {
        SPEED_OF_LIGHT / self.carrier_hz
    }

    /// Free-space path loss at distance `d` metres, dB.
    pub fn free_space_db(&self, d: f64) -> f64 {
        let d = d.max(0.1);
        20.0 * log10(4.0 * std::f64::consts::PI * d / self.wavelength_m())
    }

    /// Total large-scale loss at distance `d` metres, dB.
    pub fn loss_db(&self, d: f64) -> f64 {
        let d = d.max(self.ref_distance_m);
        self.free_space_db(self.ref_distance_m)
            + 10.0 * self.exponent * log10(d / self.ref_distance_m)
    }
}

/// Link budget: everything between transmit power and mean received SNR.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LinkBudget {
    /// Transmit power, dBm (TP-Link N750 class AP ≈ 18 dBm after splitter
    /// losses).
    pub tx_power_dbm: f64,
    /// Thermal noise floor for a 20 MHz channel plus receiver noise figure,
    /// dBm (−101 dBm thermal + ~6 dB NF).
    pub noise_floor_dbm: f64,
    /// Fixed implementation losses, dB: RF splitter-combiner (~5 dB),
    /// window penetration (~10 dB), cabling and street clutter margin.
    /// Calibrated so boresight ESNR peaks near 25–27 dB with crossover
    /// zones near 17 dB, matching the paper's Fig 2 traces and 5.2 m cells.
    pub misc_loss_db: f64,
}

impl Default for LinkBudget {
    fn default() -> Self {
        LinkBudget {
            tx_power_dbm: 18.0,
            noise_floor_dbm: -95.0,
            misc_loss_db: 30.0,
        }
    }
}

impl LinkBudget {
    /// Mean (large-scale) SNR in dB given path loss and the two antenna
    /// gains.
    pub fn mean_snr_db(&self, pathloss_db: f64, tx_gain_dbi: f64, rx_gain_dbi: f64) -> f64 {
        self.tx_power_dbm + tx_gain_dbi + rx_gain_dbi
            - pathloss_db
            - self.misc_loss_db
            - self.noise_floor_dbm
    }
}

/// Converts a dB quantity to linear scale: `e^(db·ln 10/10)` through
/// [`crate::fastmath::exp`].
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    exp(db * (std::f64::consts::LN_10 / 10.0))
}

/// Converts a linear quantity to dB (clamped at −300 dB for zero input),
/// through [`crate::fastmath::log10`].
#[inline]
pub fn linear_to_db(linear: f64) -> f64 {
    if linear <= 1e-30 {
        -300.0
    } else {
        10.0 * log10(linear)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_at_channel_11() {
        let pl = PathLoss::default();
        // ≈ 12.2 cm — the paper quotes "12 cm at 2.4 GHz".
        assert!((pl.wavelength_m() - 0.1218).abs() < 0.001);
    }

    #[test]
    fn free_space_reference_value() {
        let pl = PathLoss {
            carrier_hz: 2.4e9,
            ..PathLoss::default()
        };
        // Textbook: FSPL(1 m, 2.4 GHz) ≈ 40.05 dB.
        assert!((pl.free_space_db(1.0) - 40.05).abs() < 0.1);
    }

    #[test]
    fn loss_monotone_in_distance() {
        let pl = PathLoss::default();
        let mut prev = pl.loss_db(1.0);
        for d in [2.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
            let l = pl.loss_db(d);
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn exponent_controls_rolloff() {
        let pl2 = PathLoss {
            exponent: 2.0,
            ..PathLoss::default()
        };
        let pl3 = PathLoss {
            exponent: 3.0,
            ..PathLoss::default()
        };
        // Per decade of distance the difference is 10·Δn dB.
        let d2 = pl2.loss_db(100.0) - pl2.loss_db(10.0);
        let d3 = pl3.loss_db(100.0) - pl3.loss_db(10.0);
        assert!((d2 - 20.0).abs() < 1e-9);
        assert!((d3 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn loss_clamps_below_reference_distance() {
        let pl = PathLoss::default();
        assert_eq!(pl.loss_db(0.0), pl.loss_db(pl.ref_distance_m));
        assert_eq!(pl.loss_db(0.5), pl.loss_db(1.0));
    }

    #[test]
    fn link_budget_snr() {
        let lb = LinkBudget::default();
        // 18 dBm + 14 dBi + 0 dBi − 80 dB − 30 dB − (−95 dBm) = 17 dB.
        let snr = lb.mean_snr_db(80.0, 14.0, 0.0);
        assert!((snr - 17.0).abs() < 1e-12);
    }

    #[test]
    fn realistic_cell_snr() {
        // Sanity: at the boresight patch (≈11.7 m slant range with the
        // 6 m lane) the mean SNR should land in the paper's observed ESNR
        // range (peaks ≈ 25–27 dB, Fig 2); far down the road through the
        // sidelobe floor it should be unusable.
        let pl = PathLoss::default();
        let lb = LinkBudget::default();
        let near = lb.mean_snr_db(pl.loss_db(11.7), 14.0, 0.0);
        let far = lb.mean_snr_db(pl.loss_db(60.0), 14.0 - 25.0, 0.0);
        assert!((22.0..30.0).contains(&near), "near SNR {near}");
        assert!(far < 0.0, "far SNR {far}");
    }

    #[test]
    fn db_linear_roundtrip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0, 25.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
        }
        assert_eq!(linear_to_db(0.0), -300.0);
        assert!((db_to_linear(3.0) - 1.9953).abs() < 1e-3);
    }
}
