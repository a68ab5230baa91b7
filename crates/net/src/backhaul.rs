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
//! Control messages can optionally be dropped with a configurable
//! probability to exercise the switch protocol's timeout path (the paper's
//! `stop`/`ack` loss handling, §3.1.2).

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
    /// Link rate, bit/s (1 GbE).
    pub rate_bps: u64,
    /// Fixed per-message latency: propagation, switch forwarding, NIC ring
    /// and kernel handoff.
    pub base_delay: SimDuration,
    /// Mean of the exponential host-processing jitter.
    pub jitter_mean: SimDuration,
    /// Probability an individual message is lost (default 0; raised in
    /// fault-injection experiments).
    pub loss_prob: f64,
    rng: SimRng,
}

impl Backhaul {
    /// Creates a backhaul with the given RNG stream.
    pub fn new(rng: SimRng) -> Self {
        Backhaul {
            rate_bps: 1_000_000_000,
            base_delay: SimDuration::from_micros(150),
            jitter_mean: SimDuration::from_micros(100),
            loss_prob: 0.0,
            rng,
        }
    }

    /// Samples the transit delay for a message of `len_bytes`, or `None` if
    /// the message is lost.
    pub fn transit(&mut self, len_bytes: usize) -> Option<SimDuration> {
        self.transit_impaired(len_bytes, 0.0, SimDuration::ZERO, SimDuration::ZERO)
    }

    /// Like [`Backhaul::transit`] but with fault-injection impairments
    /// layered on: `extra_loss` composes independently with the base loss
    /// probability, `extra_latency` adds a fixed delay, and
    /// `extra_jitter_mean` (when nonzero) adds an extra exponential jitter
    /// draw. With all three at their zero values the RNG draw sequence is
    /// identical to the healthy model, so fault-capable runs with an empty
    /// schedule stay bit-for-bit reproducible against fault-free ones.
    pub fn transit_impaired(
        &mut self,
        len_bytes: usize,
        extra_loss: f64,
        extra_latency: SimDuration,
        extra_jitter_mean: SimDuration,
    ) -> Option<SimDuration> {
        // The healthy path must use `loss_prob` verbatim: recomputing it
        // through `1 - (1-p)(1-0)` perturbs the low bits and could flip a
        // knife-edge Bernoulli draw.
        let loss = if extra_loss > 0.0 {
            1.0 - (1.0 - self.loss_prob) * (1.0 - extra_loss.clamp(0.0, 1.0))
        } else {
            self.loss_prob
        };
        if self.rng.chance(loss) {
            return None;
        }
        let wire = SimDuration::for_bits(len_bytes as u64 * 8, self.rate_bps);
        let jitter =
            SimDuration::from_secs_f64(self.rng.exponential(self.jitter_mean.as_secs_f64()));
        let extra_jitter = if extra_jitter_mean > SimDuration::ZERO {
            SimDuration::from_secs_f64(self.rng.exponential(extra_jitter_mean.as_secs_f64()))
        } else {
            SimDuration::ZERO
        };
        Some(self.base_delay + wire + jitter + extra_latency + extra_jitter)
    }

    /// Full fault-injection transit: loss / latency / jitter as in
    /// [`Backhaul::transit_impaired`], plus duplication (the same frame
    /// delivered twice, the copy trailing by one extra jitter sample) and
    /// reordering (the frame held back by a uniform draw from
    /// `(0, reorder_window]`, so later frames can overtake it).
    ///
    /// RNG draw discipline keeps runs reproducible: the loss/jitter draws
    /// match `transit_impaired` exactly, then the dup draws happen iff
    /// `dup_prob > 0` and the frame was delivered, then the reorder draws
    /// iff `reorder_prob > 0` and the frame was delivered. A no-op
    /// impairment therefore consumes the same draw sequence as
    /// [`Backhaul::transit`].
    pub fn transit_faulty(
        &mut self,
        len_bytes: usize,
        imp: &BackhaulImpairment,
    ) -> BackhaulDelivery {
        let primary = self.transit_impaired(
            len_bytes,
            imp.extra_loss_prob,
            imp.extra_latency,
            imp.extra_jitter_mean,
        );
        let mut out = BackhaulDelivery {
            primary,
            duplicate: None,
            reordered: false,
        };
        let Some(mut delay) = primary else {
            return out; // lost before any duplication point
        };
        if imp.dup_prob > 0.0 && self.rng.chance(imp.dup_prob) {
            let trail =
                SimDuration::from_secs_f64(self.rng.exponential(self.jitter_mean.as_secs_f64()));
            out.duplicate = Some(delay + trail);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bh(seed: u64) -> Backhaul {
        Backhaul::new(SimRng::new(seed))
    }

    #[test]
    fn delay_includes_base_and_wire() {
        let mut b = bh(1);
        b.jitter_mean = SimDuration::from_nanos(1); // effectively zero
        let d = b.transit(1500).unwrap();
        // 1500 B at 1 Gbit/s = 12 µs wire + 150 µs base.
        assert!(d >= SimDuration::from_micros(162));
        assert!(d < SimDuration::from_micros(170));
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
        b.loss_prob = 0.3;
        let lost = (0..2000).filter(|_| b.transit(100).is_none()).count();
        let frac = lost as f64 / 2000.0;
        assert!((frac - 0.3).abs() < 0.05, "loss frac {frac}");
    }

    #[test]
    fn impaired_zero_is_identical_to_healthy() {
        let mut a = bh(7);
        let mut b = bh(7);
        a.loss_prob = 0.1;
        b.loss_prob = 0.1;
        for _ in 0..500 {
            assert_eq!(
                a.transit(300),
                b.transit_impaired(300, 0.0, SimDuration::ZERO, SimDuration::ZERO)
            );
        }
    }

    #[test]
    fn impairments_add_loss_and_latency() {
        let mut b = bh(8);
        b.loss_prob = 0.1;
        let extra_lat = SimDuration::from_millis(5);
        let mut lost = 0usize;
        for _ in 0..2000 {
            match b.transit_impaired(100, 0.5, extra_lat, SimDuration::ZERO) {
                None => lost += 1,
                Some(d) => assert!(d >= extra_lat + b.base_delay),
            }
        }
        // Composed loss: 1 - 0.9*0.5 = 0.55.
        let frac = lost as f64 / 2000.0;
        assert!((frac - 0.55).abs() < 0.05, "loss frac {frac}");
    }

    #[test]
    fn faulty_noop_is_identical_to_healthy() {
        let mut a = bh(9);
        let mut b = bh(9);
        a.loss_prob = 0.1;
        b.loss_prob = 0.1;
        let noop = BackhaulImpairment::default();
        for _ in 0..500 {
            let d = b.transit_faulty(300, &noop);
            assert_eq!(a.transit(300), d.primary);
            assert_eq!(d.duplicate, None);
            assert!(!d.reordered);
        }
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
        b.jitter_mean = SimDuration::from_nanos(1); // effectively zero
        let base = b.base_delay + SimDuration::for_bits(100 * 8, b.rate_bps);
        let window = SimDuration::from_millis(2);
        let imp = BackhaulImpairment {
            reorder_prob: 1.0,
            reorder_window: window,
            ..BackhaulImpairment::default()
        };
        let mut max_seen = SimDuration::ZERO;
        for _ in 0..500 {
            let d = b.transit_faulty(100, &imp);
            assert!(d.reordered);
            let held = d.primary.unwrap();
            assert!(held >= base);
            assert!(held <= base + window + SimDuration::from_micros(1));
            max_seen = max_seen.max(held);
        }
        // The hold-back actually spreads across the window.
        assert!(max_seen > base + SimDuration::from_millis(1));
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
