//! The wired Ethernet backhaul.
//!
//! All APs and the controller hang off one switched gigabit LAN (paper §4).
//! For the timescales WGTT cares about — a 17–21 ms switching protocol, a
//! 30 ms retransmission timeout — what matters is per-hop latency: wire
//! serialization at 1 Gbit/s, switch store-and-forward, and host stack
//! processing jitter. The model is a per-message transit delay:
//!
//! `delay = base + wire(len) + jitter`, with `jitter ~ Exp(mean_jitter)`.
//!
//! The healthy LAN loses nothing: loss, extra latency and jitter,
//! duplication and reordering come only from a fault window's
//! [`BackhaulImpairment`] (the paper's `stop`/`ack` loss handling, §3.1.2,
//! is exercised that way).

use wgtt_sim::{BackhaulImpairment, SimDuration, SimRng};

/// Outcome of one faulty backhaul transit: the message itself (possibly
/// lost, possibly held back by reordering) plus an optional duplicate copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackhaulDelivery {
    /// Delay of the original message, `None` if lost.
    pub primary: Option<SimDuration>,
    /// Delay of a duplicated copy, when the duplication fault fired.
    pub duplicate: Option<SimDuration>,
    /// Whether the reorder fault held the original back.
    pub reordered: bool,
}

/// Backhaul latency/loss model.
#[derive(Debug, Clone)]
pub struct Backhaul {
    rng: SimRng,
}

impl Backhaul {
    /// Link rate, bit/s (1 GbE).
    pub const RATE_BPS: u64 = 1_000_000_000;
    /// Fixed per-message latency: propagation, switch forwarding, NIC ring
    /// and kernel handoff.
    pub const BASE_DELAY: SimDuration = SimDuration::from_micros(150);
    /// Mean of the exponential host-processing jitter.
    pub const JITTER_MEAN: SimDuration = SimDuration::from_micros(100);

    /// Creates a backhaul with the given RNG stream.
    pub fn new(rng: SimRng) -> Self {
        Backhaul { rng }
    }

    /// Samples the transit delay for a message of `len_bytes` on the
    /// healthy LAN: [`Backhaul::transit_faulty`] with no impairment.
    pub fn transit(&mut self, len_bytes: usize) -> Option<SimDuration> {
        self.transit_faulty(len_bytes, &BackhaulImpairment::default())
            .primary
    }

    /// Full fault-injection transit. `extra_loss_prob` is the loss
    /// probability, `extra_latency` adds a fixed delay, and
    /// `extra_jitter_mean` (when nonzero) adds an extra exponential jitter
    /// draw. Duplication delivers the same frame twice, the copy trailing
    /// by one extra jitter sample; reordering holds the frame back by a
    /// uniform draw from `(0, reorder_window]`, so later frames can
    /// overtake it.
    ///
    /// RNG draw discipline keeps runs reproducible: the loss draw (none
    /// at probability 0 or 1), then for a delivered frame the jitter draw,
    /// the extra jitter draw iff its mean is nonzero, the dup draws iff
    /// `dup_prob > 0`, and the reorder draws iff `reorder_prob > 0`. A
    /// no-op impairment therefore consumes the same draws as
    /// [`Backhaul::transit`].
    pub fn transit_faulty(
        &mut self,
        len_bytes: usize,
        imp: &BackhaulImpairment,
    ) -> BackhaulDelivery {
        // `1 - (1 - p)`, not `p`: the window's loss composed with the
        // healthy LAN's zero loss, whose rounding the pinned digests carry
        // (a low bit can flip a knife-edge draw).
        let loss = 1.0 - (1.0 - imp.extra_loss_prob);
        let primary = if self.rng.chance(loss) {
            None
        } else {
            let wire = SimDuration::for_bits(len_bytes as u64 * 8, Self::RATE_BPS);
            let jitter = self.jitter(Self::JITTER_MEAN);
            let extra_jitter = if imp.extra_jitter_mean > SimDuration::ZERO {
                self.jitter(imp.extra_jitter_mean)
            } else {
                SimDuration::ZERO
            };
            Some(Self::BASE_DELAY + wire + jitter + imp.extra_latency + extra_jitter)
        };
        let mut out = BackhaulDelivery {
            primary,
            duplicate: None,
            reordered: false,
        };
        let Some(mut delay) = primary else {
            return out; // lost before any duplication point
        };
        if imp.dup_prob > 0.0 && self.rng.chance(imp.dup_prob) {
            out.duplicate = Some(delay + self.jitter(Self::JITTER_MEAN));
        }
        if imp.reorder_prob > 0.0 && self.rng.chance(imp.reorder_prob) {
            let window = imp.reorder_window.as_secs_f64();
            if window > 0.0 {
                delay += SimDuration::from_secs_f64(self.rng.range(0.0..window));
                out.reordered = true;
            }
        }
        out.primary = Some(delay);
        out
    }

    /// One exponential jitter draw of mean `mean`.
    fn jitter(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.exponential(mean.as_secs_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bh(seed: u64) -> Backhaul {
        Backhaul::new(SimRng::new(seed))
    }

    /// `imp` with extra loss `p` on top.
    fn lossy(p: f64, imp: BackhaulImpairment) -> BackhaulImpairment {
        BackhaulImpairment {
            extra_loss_prob: p,
            ..imp
        }
    }

    #[test]
    fn delay_includes_base_and_wire() {
        let mut b = bh(1);
        // 1500 B at 1 Gbit/s = 12 µs wire + 150 µs base, plus jitter whose
        // smallest of many draws is close to zero.
        let delays: Vec<_> = (0..500).map(|_| b.transit(1500).unwrap()).collect();
        assert!(delays.iter().all(|&d| d >= SimDuration::from_micros(162)));
        let min = delays.iter().min().unwrap();
        assert!(*min < SimDuration::from_micros(165), "{min:?}");
    }

    #[test]
    fn bigger_messages_take_longer_on_average() {
        let mut b = bh(2);
        let avg = |b: &mut Backhaul, len: usize| -> f64 {
            (0..500)
                .map(|_| b.transit(len).unwrap().as_secs_f64())
                .sum::<f64>()
                / 500.0
        };
        let small = avg(&mut b, 64);
        let large = avg(&mut b, 150_000);
        assert!(large > small + 1e-3, "{large} vs {small}");
    }

    #[test]
    fn no_loss_by_default() {
        let mut b = bh(3);
        assert!((0..1000).all(|_| b.transit(100).is_some()));
    }

    #[test]
    fn loss_probability_respected() {
        let mut b = bh(4);
        let imp = lossy(0.3, BackhaulImpairment::default());
        let lost = (0..2000)
            .filter(|_| b.transit_faulty(100, &imp).primary.is_none())
            .count();
        let frac = lost as f64 / 2000.0;
        assert!((frac - 0.3).abs() < 0.05, "loss frac {frac}");
    }

    #[test]
    fn impairments_add_loss_and_latency() {
        let extra_lat = SimDuration::from_millis(5);
        let imp = lossy(
            0.55,
            BackhaulImpairment {
                extra_latency: extra_lat,
                ..BackhaulImpairment::default()
            },
        );
        let mut b = bh(8);
        let mut lost = 0usize;
        for _ in 0..2000 {
            match b.transit_faulty(100, &imp).primary {
                None => lost += 1,
                Some(d) => assert!(d >= extra_lat + Backhaul::BASE_DELAY),
            }
        }
        let frac = lost as f64 / 2000.0;
        assert!((frac - 0.55).abs() < 0.05, "loss frac {frac}");
    }

    #[test]
    fn faulty_noop_is_identical_to_healthy() {
        let mut a = bh(9);
        let mut b = bh(9);
        let noop = BackhaulImpairment::default();
        for _ in 0..500 {
            let d = b.transit_faulty(300, &noop);
            assert_eq!(a.transit(300), d.primary);
            assert_eq!(d.duplicate, None);
            assert!(!d.reordered);
        }
    }

    #[test]
    fn loss_composes_with_duplication() {
        // 10 % loss beside 50 % duplication: a lost frame is never copied,
        // and a delivered one is copied at the duplication rate.
        let mut b = bh(13);
        let imp = lossy(
            0.1,
            BackhaulImpairment {
                dup_prob: 0.5,
                ..BackhaulImpairment::default()
            },
        );
        let (mut lost, mut dups) = (0usize, 0usize);
        for _ in 0..4000 {
            let d = b.transit_faulty(100, &imp);
            match d.primary {
                None => {
                    assert_eq!(d.duplicate, None);
                    lost += 1;
                }
                Some(_) => dups += usize::from(d.duplicate.is_some()),
            }
        }
        let loss = lost as f64 / 4000.0;
        let dup = dups as f64 / (4000 - lost) as f64;
        assert!((loss - 0.1).abs() < 0.02, "loss frac {loss}");
        assert!((dup - 0.5).abs() < 0.03, "dup frac {dup}");
    }

    #[test]
    fn duplication_rate_respected() {
        let mut b = bh(10);
        let imp = BackhaulImpairment {
            dup_prob: 0.3,
            ..BackhaulImpairment::default()
        };
        let mut dups = 0usize;
        for _ in 0..2000 {
            let d = b.transit_faulty(100, &imp);
            let p = d.primary.expect("no loss configured");
            if let Some(copy) = d.duplicate {
                assert!(copy > p, "duplicate must trail the original");
                dups += 1;
            }
        }
        let frac = dups as f64 / 2000.0;
        assert!((frac - 0.3).abs() < 0.05, "dup frac {frac}");
    }

    #[test]
    fn reordering_bounded_by_window() {
        let mut b = bh(11);
        let window = SimDuration::from_millis(2);
        let imp = BackhaulImpairment {
            reorder_prob: 1.0,
            reorder_window: window,
            ..BackhaulImpairment::default()
        };
        let mut max_held = SimDuration::ZERO;
        for _ in 0..500 {
            // A clone draws the same loss and jitter, so the difference is
            // the hold-back alone.
            let healthy = b.clone().transit(100).unwrap();
            let d = b.transit_faulty(100, &imp);
            assert!(d.reordered);
            // The hold-back adds to the healthy delay, never replaces it.
            assert!(d.primary.unwrap() >= healthy);
            let held = d.primary.unwrap() - healthy;
            assert!(held <= window);
            max_held = max_held.max(held);
        }
        // The hold-back actually spreads across the window.
        assert!(max_held > SimDuration::from_millis(1));
    }

    #[test]
    fn lost_frames_are_never_duplicated() {
        let mut b = bh(12);
        let imp = BackhaulImpairment {
            extra_loss_prob: 1.0,
            dup_prob: 1.0,
            reorder_prob: 1.0,
            reorder_window: SimDuration::from_millis(1),
            ..BackhaulImpairment::default()
        };
        for _ in 0..100 {
            let d = b.transit_faulty(100, &imp);
            assert_eq!(d.primary, None);
            assert_eq!(d.duplicate, None);
            assert!(!d.reordered);
        }
    }

    #[test]
    fn jitter_varies_delay() {
        let mut b = bh(6);
        let a = b.transit(100).unwrap();
        let c = b.transit(100).unwrap();
        assert_ne!(a, c);
    }
}
