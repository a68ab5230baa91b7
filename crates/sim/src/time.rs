//! Simulation time.
//!
//! All simulation timestamps are nanoseconds since the start of the run,
//! held in a [`SimTime`] newtype. Durations are [`SimDuration`]. Both are
//! thin wrappers over `u64` so they are `Copy`, totally ordered, and cheap
//! to schedule on.
//!
//! Nanosecond resolution comfortably covers everything the WGTT model needs
//! to time: 802.11 slot times (9 µs), SIFS (10 µs), OFDM symbols (4 µs),
//! backhaul latencies (~100 µs), and switch-protocol round trips (~20 ms),
//! while a `u64` of nanoseconds still spans ~584 years of simulated time.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (nanoseconds since run start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far"
    /// deadline sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Panics on negative input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "SimTime cannot be negative: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds since run start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since run start (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since run start as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Panics on negative input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "SimDuration cannot be negative: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration needed to serialize `bits` at `bits_per_sec` on a link.
    ///
    /// Rounds up to a whole nanosecond so back-to-back transmissions never
    /// overlap due to truncation.
    #[inline]
    pub fn for_bits(bits: u64, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "link rate must be positive");
        // ceil(bits * 1e9 / rate) using u128 to avoid overflow.
        let ns = ((bits as u128) * 1_000_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(ns as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Saturates at zero if `rhs > self` — in **both** debug and release
    /// profiles. (An earlier version `debug_assert!`ed here, which meant a
    /// latent underflow could pass CI's debug tests yet silently saturate
    /// in `--release` benches; the profiles now agree.) Call sites that
    /// *want* to document saturation use [`SimTime::saturating_since`].
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Saturates at zero, identically in debug and release (see
    /// [`Sub<SimTime> for SimTime`]).
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        debug_assert!(rhs >= 0.0);
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3_000_000_000);
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
        let d = SimDuration::from_secs_f64(0.5);
        assert_eq!(d.as_millis(), 500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        let d = t - SimTime::from_millis(6);
        assert_eq!(d.as_millis(), 9);
        assert_eq!(
            SimTime::from_millis(1).saturating_since(SimTime::from_millis(2)),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::from_millis(4) / 2, SimDuration::from_millis(2));
        assert_eq!(
            SimDuration::from_millis(4) * 3,
            SimDuration::from_millis(12)
        );
        assert_eq!(
            SimDuration::from_millis(4) * 0.5,
            SimDuration::from_millis(2)
        );
    }

    #[test]
    fn for_bits_rounds_up() {
        // 1000 bits at 1 Gbit/s = exactly 1000 ns.
        assert_eq!(SimDuration::for_bits(1000, 1_000_000_000).as_nanos(), 1000);
        // 1 bit at 3 bit/s = 333,333,333.33.. ns, rounds up.
        assert_eq!(SimDuration::for_bits(1, 3).as_nanos(), 333_333_334);
        // Zero bits takes zero time.
        assert_eq!(SimDuration::for_bits(0, 54_000_000), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn for_bits_zero_rate_panics() {
        let _ = SimDuration::for_bits(1, 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::from_millis(1) - SimDuration::from_millis(2),
            SimDuration::ZERO
        );
    }

    #[test]
    fn subtraction_saturates_in_every_profile() {
        // Underflowing subtraction must saturate to zero identically in
        // debug and release builds — this test pins the unified behavior
        // (an earlier version debug_assert!ed, so debug CI and release
        // benches disagreed on what `earlier - later` meant).
        let d = SimTime::from_millis(1) - SimTime::from_millis(5);
        assert_eq!(d, SimDuration::ZERO);
        // And it agrees with the explicit spelling.
        assert_eq!(
            d,
            SimTime::from_millis(1).saturating_since(SimTime::from_millis(5))
        );
        assert_eq!(
            SimDuration::from_micros(3) - SimDuration::from_micros(9),
            SimDuration::ZERO
        );
        let mut a = SimDuration::from_nanos(1);
        a -= SimDuration::from_nanos(2);
        assert_eq!(a, SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimDuration::from_micros(999) < SimDuration::from_millis(1));
        assert_eq!(SimTime::ZERO, SimTime::default());
    }
}
