//! Distributed coordination function: carrier sense, backoff, collisions.
//!
//! All WGTT APs and clients share channel 11, so medium access is the
//! resource the multi-client experiments (Figs 17, 20) contend for. The
//! model is slotted DCF, simplified in the standard DES way:
//!
//! * a [`Backoff`] per transmitter draws uniformly from `[0, CW]` and
//!   doubles CW on failure (binary exponential backoff);
//! * the [`Medium`] tracks when the channel is busy; a transmitter's access
//!   time is `max(now, idle_at) + DIFS + slots·σ`;
//! * two transmissions whose access times land in the same slot collide —
//!   the world detects this by comparing grant times.

use crate::timing::{contention_window, difs, slot};
use wgtt_sim::{SimDuration, SimRng, SimTime};

/// Per-station binary-exponential backoff state.
#[derive(Debug, Clone, Default)]
pub struct Backoff {
    retries: u32,
}

impl Backoff {
    /// Current retry count.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Draws a backoff in slots from the current contention window.
    pub fn draw(&self, rng: &mut SimRng) -> u32 {
        rng.range(0..=contention_window(self.retries))
    }

    /// Records a failed transmission (doubles CW up to CWmax).
    pub fn on_failure(&mut self) {
        self.retries += 1;
    }

    /// Records a success (resets CW).
    pub fn on_success(&mut self) {
        self.retries = 0;
    }
}

/// Shared-channel occupancy tracker.
#[derive(Debug, Clone, Default)]
pub struct Medium {
    busy_until: SimTime,
    /// Cumulative busy airtime (for utilization stats).
    busy_time: SimDuration,
    /// Completed transmissions.
    tx_count: u64,
}

impl Medium {
    /// Creates an idle medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the earliest transmit start for a station that wants to
    /// send at `now` with `backoff_slots` drawn: carrier sense until idle,
    /// then DIFS, then the backoff.
    pub fn access_time(&self, now: SimTime, backoff_slots: u32) -> SimTime {
        let start = if now > self.busy_until {
            now
        } else {
            self.busy_until
        };
        start + difs() + slot() * backoff_slots as u64
    }

    /// Marks the channel busy for `[start, start + duration)`.
    pub fn occupy(&mut self, start: SimTime, duration: SimDuration) {
        let end = start + duration;
        if end > self.busy_until {
            self.busy_until = end;
        }
        self.busy_time += duration;
        self.tx_count += 1;
    }

    /// Total time the channel has carried transmissions.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of occupancy grants.
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_draw_within_window() {
        let mut rng = SimRng::new(1);
        let mut b = Backoff::default();
        for _ in 0..200 {
            assert!(b.draw(&mut rng) <= 15);
        }
        b.on_failure();
        let max = (0..500).map(|_| b.draw(&mut rng)).max().unwrap();
        assert!(max > 15 && max <= 31, "max draw {max}");
    }

    #[test]
    fn backoff_retry_lifecycle() {
        let mut b = Backoff::default();
        b.on_failure();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.retries(), 3);
        b.on_success();
        assert_eq!(b.retries(), 0);
    }

    #[test]
    fn access_time_idle_channel() {
        let m = Medium::new();
        let t = m.access_time(SimTime::from_millis(5), 4);
        // 5 ms + DIFS (28 µs) + 4 slots (36 µs).
        assert_eq!(t, SimTime::from_micros(5_064));
    }

    #[test]
    fn access_defers_to_busy_channel() {
        let mut m = Medium::new();
        m.occupy(SimTime::ZERO, SimDuration::from_millis(2));
        let t = m.access_time(SimTime::from_millis(1), 0);
        assert_eq!(t, SimTime::from_micros(2_028));
    }

    #[test]
    fn occupy_accumulates_stats() {
        let mut m = Medium::new();
        m.occupy(SimTime::ZERO, SimDuration::from_millis(1));
        m.occupy(SimTime::from_millis(5), SimDuration::from_millis(2));
        assert_eq!(m.busy_time(), SimDuration::from_millis(3));
        assert_eq!(m.tx_count(), 2);
        // Idle from 7 ms, then DIFS.
        assert_eq!(m.access_time(SimTime::ZERO, 0), SimTime::from_micros(7_028));
    }

    #[test]
    fn overlapping_occupy_extends_not_shrinks() {
        let mut m = Medium::new();
        m.occupy(SimTime::ZERO, SimDuration::from_millis(10));
        m.occupy(SimTime::from_millis(2), SimDuration::from_millis(1));
        assert_eq!(
            m.access_time(SimTime::ZERO, 0),
            SimTime::from_micros(10_028)
        );
    }

    #[test]
    fn two_contenders_rarely_collide_with_big_cw() {
        // Statistical sanity: with CW=15, two contenders collide (draw the
        // same slot, so get the same grant) ≈ 1/16 of the time.
        let mut rng = SimRng::new(7);
        let b = Backoff::default();
        let m = Medium::new();
        let now = SimTime::ZERO;
        let collisions = (0..4000)
            .filter(|_| {
                let ta = m.access_time(now, b.draw(&mut rng));
                let tb = m.access_time(now, b.draw(&mut rng));
                ta == tb
            })
            .count();
        let rate = collisions as f64 / 4000.0;
        assert!((rate - 1.0 / 16.0).abs() < 0.02, "collision rate {rate}");
    }
}
