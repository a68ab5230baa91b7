//! Packet error model.
//!
//! Delivery probability is computed in two stages, mirroring how real
//! 802.11n receivers behave on frequency-selective channels:
//!
//! 1. The per-subcarrier SNRs of a CSI snapshot collapse to an *effective
//!    SNR* for the MCS's modulation ([`crate::esnr`]). This step is where
//!    frequency selectivity hurts: one deep notch drags the ESNR down.
//! 2. The ESNR maps to a frame success probability through a per-MCS
//!    logistic "waterfall" centred on the scheme's decoding threshold, with
//!    a reference frame length and the usual `(1−p_bit)^L` length scaling.
//!
//! The thresholds follow the convolutional-coding sensitivity ladder of
//! 802.11 (≈3 dB per MCS step at the bottom, compressing near the top) and
//! are exposed in [`PerModel`] for calibration.

use crate::csi::Csi;
use crate::esnr::EsnrMemo;
use crate::fastmath::{exp, ln};
use crate::mcs::Mcs;
use serde::Serialize;

/// Logistic ESNR→PER model, one threshold per MCS.
#[derive(Debug, Clone, Serialize)]
pub struct PerModel {
    /// ESNR (dB) at which a reference-length frame is lost 50% of the time,
    /// indexed by MCS.
    pub threshold_db: [f64; 8],
    /// Logistic steepness: dB of ESNR per e-fold change in odds. Smaller is
    /// steeper; convolutionally coded OFDM waterfalls are ≈0.5 dB wide.
    pub steepness_db: f64,
    /// Frame length the thresholds are calibrated at, bytes.
    pub ref_len_bytes: usize,
}

impl Default for PerModel {
    fn default() -> Self {
        PerModel {
            // 50%-PER thresholds at 1000 B; ~AWGN requirements for
            // BPSK1/2 … 64QAM5/6 with implementation margin.
            threshold_db: [2.0, 5.0, 7.5, 10.5, 14.0, 18.0, 19.5, 21.5],
            steepness_db: 0.6,
            ref_len_bytes: 1000,
        }
    }
}

impl PerModel {
    /// Frame success probability at the given effective SNR (dB, computed
    /// for this MCS's modulation) and frame length.
    pub fn success_prob(&self, mcs: Mcs, esnr_db: f64, len_bytes: usize) -> f64 {
        let t = self.threshold_db[mcs.0 as usize];
        // Success probability of a reference-length frame.
        let x = (esnr_db - t) / self.steepness_db;
        // Numerically safe logistic.
        let p_ref = if x > 40.0 {
            1.0
        } else if x < -40.0 {
            0.0
        } else {
            1.0 / (1.0 + exp(-x))
        };
        if p_ref <= 0.0 {
            return 0.0;
        }
        if p_ref >= 1.0 {
            return 1.0;
        }
        // Convert to an equivalent per-bit survival and rescale to the
        // actual length: `p_ref^scale`.
        let scale = len_bytes.max(1) as f64 / self.ref_len_bytes as f64;
        exp(scale * ln(p_ref))
    }

    /// Frame success probability over a channel snapshot, at the ESNR of
    /// `mcs`'s modulation — per-MPDU delivery draws in an A-MPDU burst share
    /// one ESNR integration.
    pub fn success_with(&self, esnr: &mut EsnrMemo, mcs: Mcs, len_bytes: usize) -> f64 {
        let e = esnr.esnr_db(mcs.modulation());
        self.success_prob(mcs, e, len_bytes)
    }

    /// Expected goodput (bit/s) for a frame of `len_bytes` at `esnr_db`:
    /// `rate · P(success)`. Used by rate control and by "capacity"
    /// computations in the experiments.
    pub fn expected_goodput_bps(
        &self,
        mcs: Mcs,
        gi: crate::mcs::GuardInterval,
        esnr_db_for_mod: f64,
        len_bytes: usize,
    ) -> f64 {
        mcs.data_rate_bps(gi) as f64 * self.success_prob(mcs, esnr_db_for_mod, len_bytes)
    }

    /// [`Self::capacity_with`] on a fresh memo of a [`Csi`].
    ///
    /// Hidden from the docs with [`Csi`]: the program reads
    /// `capacity_with`; this stays for the benchmark's kernels.
    #[doc(hidden)]
    pub fn capacity_bps(&self, gi: crate::mcs::GuardInterval, csi: &Csi, len_bytes: usize) -> f64 {
        self.capacity_with(&mut EsnrMemo::new(csi), gi, len_bytes)
    }

    /// The instantaneous link capacity (bit/s): best over MCS of expected
    /// goodput over a channel snapshot. This is the paper's notion of the
    /// "channel capacity" an AP could deliver at an instant (Figs 2, 4, 21).
    /// A caller-held memo reuses the ESNRs the caller already computed for
    /// ranking (e.g. the oracle sampler's).
    ///
    /// The eight MCSs share four modulations, so the memo runs four ESNR
    /// integrations instead of eight — bit-identical to one full
    /// integration per MCS (the tests' `capacity_bps_ref`, locked by
    /// `memoized_paths_match_ref`).
    pub fn capacity_with(
        &self,
        esnr: &mut EsnrMemo,
        gi: crate::mcs::GuardInterval,
        len_bytes: usize,
    ) -> f64 {
        // Densest MCS first: at healthy SNR its expected goodput already
        // exceeds every slower MCS's ceiling (`rate × 1`, since the success
        // probability never exceeds 1), so those integrations are skipped.
        // Bit-identical to folding over all eight: a skipped MCS cannot
        // raise the max, and `f64::max` over non-NaN values is
        // order-independent.
        let mut best = 0.0f64;
        for m in Mcs::all().rev() {
            if (m.data_rate_bps(gi) as f64) <= best {
                continue;
            }
            let e = esnr.esnr_db(m.modulation());
            best = best.max(self.expected_goodput_bps(m, gi, e, len_bytes));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cplx;
    use crate::csi::NUM_SUBCARRIERS;
    use crate::esnr::{esnr_db, Modulation};
    use crate::mcs::GuardInterval;

    fn flat_csi(snr_db: f64) -> Csi {
        Csi {
            h: [Cplx::ONE; NUM_SUBCARRIERS],
            mean_snr_db: snr_db,
        }
    }

    /// What [`PerModel::capacity_bps`] computed before the memo and the
    /// densest-first prune: one full ESNR integration per MCS, folded.
    fn capacity_bps_ref(m: &PerModel, gi: GuardInterval, csi: &Csi, len_bytes: usize) -> f64 {
        Mcs::all()
            .map(|mcs| {
                let e = esnr_db(mcs.modulation(), &csi.per_subcarrier_snr_linear());
                m.expected_goodput_bps(mcs, gi, e, len_bytes)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn memoized_paths_match_ref() {
        let m = PerModel::default();
        for gi in [GuardInterval::Long, GuardInterval::Short] {
            for snr_db in (-20..=40).step_by(5) {
                for notched in 0..=7 {
                    let mut csi = flat_csi(snr_db as f64);
                    for h in &mut csi.h[..notched] {
                        *h = Cplx::new(0.03, 0.0);
                    }
                    for len in [64, 1500] {
                        let case = format!("{gi:?} {snr_db} dB {notched} notched {len} B");
                        let want = capacity_bps_ref(&m, gi, &csi, len).to_bits();
                        assert_eq!(m.capacity_bps(gi, &csi, len).to_bits(), want, "{case}");
                        // A fresh memo, then one the caller already ranked
                        // with (the oracle's, warmed at the controller's
                        // 16-QAM), then one with every modulation cached.
                        let mut memo = EsnrMemo::new(&csi);
                        assert_eq!(
                            m.capacity_with(&mut memo, gi, len).to_bits(),
                            want,
                            "{case}"
                        );
                        let mut memo = EsnrMemo::new(&csi);
                        memo.esnr_db(Modulation::Qam16);
                        assert_eq!(
                            m.capacity_with(&mut memo, gi, len).to_bits(),
                            want,
                            "{case}"
                        );
                        for modulation in Modulation::ALL {
                            memo.esnr_db(modulation);
                        }
                        assert_eq!(
                            m.capacity_with(&mut memo, gi, len).to_bits(),
                            want,
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn success_at_threshold_is_half() {
        let m = PerModel::default();
        for mcs in Mcs::all() {
            let t = m.threshold_db[mcs.0 as usize];
            let p = m.success_prob(mcs, t, m.ref_len_bytes);
            assert!((p - 0.5).abs() < 1e-9, "{mcs}: {p}");
        }
    }

    #[test]
    fn success_monotone_in_esnr() {
        let m = PerModel::default();
        let mut prev = 0.0;
        for db in [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0] {
            let p = m.success_prob(Mcs(4), db, 1000);
            assert!(p >= prev);
            prev = p;
        }
        assert!(m.success_prob(Mcs(4), 30.0, 1000) > 0.999);
        assert!(m.success_prob(Mcs(4), 0.0, 1000) < 0.001);
    }

    #[test]
    fn longer_frames_fail_more() {
        let m = PerModel::default();
        let at = m.threshold_db[3] + 1.0;
        let short = m.success_prob(Mcs(3), at, 100);
        let long = m.success_prob(Mcs(3), at, 4000);
        assert!(short > long, "{short} vs {long}");
        // Extremes saturate cleanly.
        assert_eq!(m.success_prob(Mcs(3), 100.0, 65536), 1.0);
        assert_eq!(m.success_prob(Mcs(3), -100.0, 1), 0.0);
    }

    /// The MCS of the most expected goodput over a flat channel at
    /// `snr_db`.
    fn best_mcs(m: &PerModel, snr_db: f64) -> Mcs {
        let mut esnr = EsnrMemo::new(&flat_csi(snr_db));
        let mut goodput = |mcs: Mcs| {
            let e = esnr.esnr_db(mcs.modulation());
            m.expected_goodput_bps(mcs, GuardInterval::Short, e, 1500)
        };
        Mcs::all()
            .map(|mcs| (goodput(mcs), mcs))
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("MCS set is non-empty")
            .1
    }

    #[test]
    fn high_snr_prefers_high_mcs() {
        assert_eq!(best_mcs(&PerModel::default(), 30.0), Mcs(7));
    }

    #[test]
    fn low_snr_prefers_low_mcs() {
        let best = best_mcs(&PerModel::default(), 5.0);
        assert!(best <= Mcs(1), "picked {best}");
    }

    #[test]
    fn capacity_tracks_snr() {
        let m = PerModel::default();
        let gi = GuardInterval::Short;
        let low = m.capacity_bps(gi, &flat_csi(6.0), 1500);
        let mid = m.capacity_bps(gi, &flat_csi(15.0), 1500);
        let high = m.capacity_bps(gi, &flat_csi(30.0), 1500);
        assert!(low < mid && mid < high);
        // At 30 dB flat, capacity is the full MCS7 SGI rate.
        assert!((high - 72.2e6).abs() / 72.2e6 < 0.01, "high {high}");
        // Hopeless channel: zero capacity.
        assert!(m.capacity_bps(gi, &flat_csi(-20.0), 1500) < 1.0);
    }

    #[test]
    fn success_with_penalizes_notches() {
        let m = PerModel::default();
        let flat = flat_csi(16.0);
        let mut notched = flat.clone();
        for i in 0..8 {
            notched.h[i] = Cplx::new(0.03, 0.0); // deep fade on 8 subcarriers
        }
        let p_flat = m.success_with(&mut EsnrMemo::new(&flat), Mcs(4), 1500);
        let p_notch = m.success_with(&mut EsnrMemo::new(&notched), Mcs(4), 1500);
        assert!(p_flat > 0.9, "{p_flat}");
        assert!(p_notch < p_flat * 0.7, "{p_notch} vs {p_flat}");
    }

    #[test]
    fn expected_goodput_shape() {
        let m = PerModel::default();
        let gi = GuardInterval::Long;
        // Well above threshold the goodput is the PHY rate.
        let g = m.expected_goodput_bps(Mcs(7), gi, 40.0, 1500);
        assert!((g - 65e6).abs() < 1e4);
        // Below threshold it collapses.
        assert!(m.expected_goodput_bps(Mcs(7), gi, 10.0, 1500) < 1e3);
    }
}
