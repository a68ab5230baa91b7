//! Channel State Information.
//!
//! WGTT APs measure CSI on all 56 used subcarriers of each incoming 802.11n
//! HT20 frame (via the Atheros CSI Tool in the paper) and ship the readings
//! to the controller. Here one snapshot's per-subcarrier complex response
//! and the link's large-scale SNR give each tone's SNR (`tone_snrs`), which
//! feeds the ESNR computation, and the RSSI a plain measurement reports
//! (`rssi_db`).

use crate::complex::Cplx;
use crate::pathloss::{db_to_linear, linear_to_db};

/// Number of used subcarriers in an 802.11n HT20 channel (±1..±28).
pub const NUM_SUBCARRIERS: usize = 56;

/// Subcarrier spacing, Hz.
pub const SUBCARRIER_SPACING_HZ: f64 = 312_500.0;

/// Frequency offsets (Hz from the carrier) of the 56 used HT20 subcarriers:
/// indices −28..−1 and +1..+28 (DC is unused).
pub fn subcarrier_offsets_hz() -> [f64; NUM_SUBCARRIERS] {
    let mut out = [0.0; NUM_SUBCARRIERS];
    let mut i = 0;
    for k in -28i32..=28 {
        if k == 0 {
            continue;
        }
        out[i] = k as f64 * SUBCARRIER_SPACING_HZ;
        i += 1;
    }
    out
}

/// One CSI measurement: the complex response per subcarrier plus the
/// large-scale (mean) SNR the fading rides on.
///
/// Hidden from the docs: the program reads a link's channel as an
/// [`crate::EsnrMemo`] ([`crate::WirelessLink::memo`]), and a `Csi` remains
/// only as the benchmark's kernel input and the tests' bit-exact reference.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Csi {
    /// Complex channel response per subcarrier, unit mean power.
    pub h: [Cplx; NUM_SUBCARRIERS],
    /// Large-scale SNR in dB (path loss + antenna + budget, no fast
    /// fading).
    pub mean_snr_db: f64,
}

impl Csi {
    /// Per-subcarrier SNR in linear scale.
    pub fn per_subcarrier_snr_linear(&self) -> [f64; NUM_SUBCARRIERS] {
        tone_snrs(self.mean_snr_db, |k| self.h[k])
    }
}

/// Linear SNR `10^(mean/10)·|h(k)|²` of each tone `k`: the one rule for a
/// [`Csi`]'s tones and for the fading kernels' split response alike.
#[inline(always)]
pub(crate) fn tone_snrs(mean_db: f64, h: impl Fn(usize) -> Cplx) -> [f64; NUM_SUBCARRIERS] {
    let base = db_to_linear(mean_db);
    std::array::from_fn(|k| base * h(k).abs2())
}

/// Average received power SNR across the tones, in dB — what a plain RSSI
/// measurement reports: `mean_db + 10·log10(Σ_k |h(k)|² / 56)`, summed in
/// tone order.
pub(crate) fn rssi_db(mean_db: f64, h: impl Fn(usize) -> Cplx) -> f64 {
    let gain = (0..NUM_SUBCARRIERS).map(|k| h(k).abs2()).sum::<f64>() / NUM_SUBCARRIERS as f64;
    mean_db + linear_to_db(gain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_cover_both_sidebands() {
        let offs = subcarrier_offsets_hz();
        assert_eq!(offs.len(), 56);
        assert_eq!(offs[0], -28.0 * SUBCARRIER_SPACING_HZ);
        assert_eq!(offs[55], 28.0 * SUBCARRIER_SPACING_HZ);
        // DC (0 Hz) is excluded.
        assert!(offs.iter().all(|&f| f != 0.0));
        // Strictly increasing.
        for w in offs.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Span ≈ 17.5 MHz.
        assert!((offs[55] - offs[0] - 17.5e6).abs() < 1.0);
    }

    #[test]
    fn flat_channel_snrs_equal_mean() {
        let csi = Csi {
            h: [Cplx::ONE; NUM_SUBCARRIERS],
            mean_snr_db: 25.0,
        };
        for snr in csi.per_subcarrier_snr_linear().map(linear_to_db) {
            assert!((snr - 25.0).abs() < 1e-9);
        }
        assert!((rssi_db(csi.mean_snr_db, |k| csi.h[k]) - 25.0).abs() < 1e-9);
        let lin = csi.per_subcarrier_snr_linear();
        assert!((lin[0] - 10f64.powf(2.5)).abs() < 1e-6);
    }

    #[test]
    fn faded_subcarrier_drops_snr() {
        let mut h = [Cplx::ONE; NUM_SUBCARRIERS];
        h[10] = Cplx::new(0.1, 0.0); // 20 dB fade
        let csi = Csi {
            h,
            mean_snr_db: 30.0,
        };
        let snrs = csi.per_subcarrier_snr_linear().map(linear_to_db);
        assert!((snrs[10] - 10.0).abs() < 1e-9);
        assert!((snrs[0] - 30.0).abs() < 1e-9);
        // RSSI barely notices one faded subcarrier.
        assert!(rssi_db(csi.mean_snr_db, |k| csi.h[k]) > 29.0);
    }

    #[test]
    fn zero_channel_clamps() {
        let csi = Csi {
            h: [Cplx::ZERO; NUM_SUBCARRIERS],
            mean_snr_db: 20.0,
        };
        for snr in csi.per_subcarrier_snr_linear().map(linear_to_db) {
            assert!(snr <= -200.0);
        }
    }
}
