//! 802.11n HT modulation and coding schemes (single spatial stream).
//!
//! The testbed APs drive one spatial stream over a 20 MHz channel (the
//! paper's splitter-combiner merges the three radio chains into one
//! directional antenna), so MCS 0–7 is the full rate set. Short guard
//! interval is enabled, which is how the paper's Fig 16 reaches link rates
//! of ~70 Mbit/s (72.2 Mbit/s is MCS 7 @ SGI).

use crate::esnr::Modulation;
use serde::Serialize;

/// Guard interval length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GuardInterval {
    /// 800 ns (symbol = 4.0 µs).
    Long,
    /// 400 ns (symbol = 3.6 µs).
    Short,
}

impl GuardInterval {
    /// OFDM symbol duration in nanoseconds.
    pub fn symbol_ns(self) -> u64 {
        match self {
            GuardInterval::Long => 4_000,
            GuardInterval::Short => 3_600,
        }
    }
}

/// An HT MCS index, 0–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Mcs(pub u8);

impl Mcs {
    /// All MCS values, ascending.
    pub fn all() -> impl DoubleEndedIterator<Item = Mcs> {
        (0..=7).map(Mcs)
    }

    /// Next faster MCS, if any.
    pub fn up(self) -> Option<Mcs> {
        (self.0 < 7).then(|| Mcs(self.0 + 1))
    }

    /// Next slower MCS, if any.
    pub fn down(self) -> Option<Mcs> {
        (self.0 > 0).then(|| Mcs(self.0 - 1))
    }

    /// Modulation used by this MCS.
    pub fn modulation(self) -> Modulation {
        match self.0 {
            0 => Modulation::Bpsk,
            1 | 2 => Modulation::Qpsk,
            3 | 4 => Modulation::Qam16,
            _ => Modulation::Qam64,
        }
    }

    /// Convolutional code rate as `(numerator, denominator)`.
    fn code_rate(self) -> (u32, u32) {
        match self.0 {
            0 | 1 | 3 => (1, 2),
            2 | 4 | 6 => (3, 4),
            5 => (2, 3),
            7 => (5, 6),
            _ => unreachable!("invalid MCS index {}", self.0),
        }
    }

    /// Data bits per OFDM symbol (HT20: 52 data subcarriers).
    pub fn ndbps(self) -> u32 {
        const DATA_SUBCARRIERS: u32 = 52;
        let (num, den) = self.code_rate();
        DATA_SUBCARRIERS * self.modulation().bits_per_symbol() * num / den
    }

    /// PHY data rate in bits per second for the given guard interval.
    pub fn data_rate_bps(self, gi: GuardInterval) -> u64 {
        // ndbps bits per symbol_ns nanoseconds.
        self.ndbps() as u64 * 1_000_000_000 / gi.symbol_ns()
    }

    /// PHY data rate in Mbit/s (floating point, for reporting).
    pub fn data_rate_mbps(self, gi: GuardInterval) -> f64 {
        self.data_rate_bps(gi) as f64 / 1e6
    }
}

impl std::fmt::Display for Mcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MCS{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_long_gi_rates() {
        // The canonical HT20 single-stream table.
        let expect = [6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0];
        for (mcs, want) in Mcs::all().zip(expect) {
            let got = mcs.data_rate_mbps(GuardInterval::Long);
            assert!((got - want).abs() < 0.01, "{mcs}: {got} vs {want}");
        }
    }

    #[test]
    fn standard_short_gi_rates() {
        let expect = [7.2, 14.4, 21.7, 28.9, 43.3, 57.8, 65.0, 72.2];
        for (mcs, want) in Mcs::all().zip(expect) {
            let got = mcs.data_rate_mbps(GuardInterval::Short);
            assert!((got - want).abs() < 0.15, "{mcs}: {got} vs {want}");
        }
    }

    #[test]
    fn ndbps_values() {
        let expect = [26, 52, 78, 104, 156, 208, 234, 260];
        for (mcs, want) in Mcs::all().zip(expect) {
            assert_eq!(mcs.ndbps(), want, "{mcs}");
        }
    }

    #[test]
    fn rates_strictly_increase() {
        for gi in [GuardInterval::Long, GuardInterval::Short] {
            let mut prev = 0;
            for mcs in Mcs::all() {
                let r = mcs.data_rate_bps(gi);
                assert!(r > prev);
                prev = r;
            }
        }
    }

    #[test]
    fn up_down_navigation() {
        assert_eq!(Mcs(0).down(), None);
        assert_eq!(Mcs(7).up(), None);
        assert_eq!(Mcs(3).up(), Some(Mcs(4)));
        assert_eq!(Mcs(3).down(), Some(Mcs(2)));
        assert_eq!(Mcs::all().count(), 8);
        assert_eq!(format!("{}", Mcs(5)), "MCS5");
    }

    #[test]
    fn modulations_match_standard() {
        use Modulation::*;
        let expect = [Bpsk, Qpsk, Qpsk, Qam16, Qam16, Qam64, Qam64, Qam64];
        for (mcs, want) in Mcs::all().zip(expect) {
            assert_eq!(mcs.modulation(), want, "{mcs}");
        }
    }
}
