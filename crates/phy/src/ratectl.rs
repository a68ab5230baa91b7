//! Bit-rate adaptation.
//!
//! The paper runs the APs' *default rate control* unmodified (§4) — on
//! ath9k that is Minstrel HT. This module implements a compact
//! Minstrel-style controller: it maintains an EWMA of per-MCS delivery
//! probability from transmission feedback, ranks rates by expected
//! throughput, transmits at the best rate, and spends a small fraction of
//! frames probing other rates so it can climb back up when the channel
//! improves.
//!
//! The controller is a poll-style state machine: [`MinstrelLite::select`]
//! chooses a rate, the MAC reports the outcome through
//! [`MinstrelLite::on_tx_result`].

use crate::mcs::{GuardInterval, Mcs};
use wgtt_sim::{SimRng, SimTime};

/// Per-rate bookkeeping.
#[derive(Debug, Clone)]
struct RateStat {
    /// EWMA of delivery probability.
    prob: f64,
    /// Whether any feedback has arrived yet.
    seen: bool,
    /// Attempts since the last stats window rollover.
    attempts: u32,
    /// Successes since the last stats window rollover.
    successes: u32,
}

impl RateStat {
    fn new() -> Self {
        RateStat {
            prob: 0.0,
            seen: false,
            attempts: 0,
            successes: 0,
        }
    }
}

/// Minstrel-style rate controller for one client link.
#[derive(Debug, Clone)]
pub struct MinstrelLite {
    stats: Vec<RateStat>,
    gi: GuardInterval,
    /// EWMA weight for new window observations (Minstrel default ≈ 0.25).
    ewma_alpha: f64,
    /// Probability of sending a probe frame at a non-best rate.
    probe_prob: f64,
    /// Stats window length.
    window: wgtt_sim::SimDuration,
    window_start: SimTime,
    /// Optimistic initial success probability for unseen rates, so the
    /// controller starts by sampling downward from high rates rather than
    /// crawling up from MCS 0 (matches Minstrel's optimistic init).
    init_prob: f64,
}

impl MinstrelLite {
    /// Creates a controller with Minstrel-like defaults.
    pub fn new(gi: GuardInterval) -> Self {
        MinstrelLite {
            stats: (0..8).map(|_| RateStat::new()).collect(),
            gi,
            ewma_alpha: 0.25,
            probe_prob: 0.1,
            window: wgtt_sim::SimDuration::from_millis(50),
            window_start: SimTime::ZERO,
            init_prob: 0.5,
        }
    }

    fn effective_prob(&self, mcs: Mcs) -> f64 {
        let s = &self.stats[mcs.0 as usize];
        let mut p = if s.seen { s.prob } else { self.init_prob };
        // Blend in the current (unrolled) window so fresh collapses are
        // noticed before the window closes.
        if s.attempts >= 4 {
            let inst = s.successes as f64 / s.attempts as f64;
            p = 0.5 * p + 0.5 * inst;
        }
        p
    }

    /// Expected throughput of an MCS under current statistics, bit/s.
    pub fn expected_tput_bps(&self, mcs: Mcs) -> f64 {
        mcs.data_rate_bps(self.gi) as f64 * self.effective_prob(mcs)
    }

    /// The current best rate by expected throughput.
    pub fn best_rate(&self) -> Mcs {
        Mcs::all()
            .max_by(|a, b| {
                self.expected_tput_bps(*a)
                    .partial_cmp(&self.expected_tput_bps(*b))
                    .expect("throughput is not NaN")
            })
            .expect("rate set non-empty")
    }

    /// Chooses the rate for the next transmission. Mostly the best rate,
    /// occasionally a probe of an adjacent rate.
    pub fn select(&mut self, now: SimTime, rng: &mut SimRng) -> Mcs {
        self.maybe_roll_window(now);
        let best = self.best_rate();
        if rng.chance(self.probe_prob) {
            // Probe one step up (preferred — that's the climb path) or one
            // step down.
            if rng.chance(0.7) {
                best.up().unwrap_or(best)
            } else {
                best.down().unwrap_or(best)
            }
        } else {
            best
        }
    }

    /// Reports the outcome of a transmission at `mcs`.
    pub fn on_tx_result(&mut self, now: SimTime, mcs: Mcs, success: bool) {
        self.maybe_roll_window(now);
        let s = &mut self.stats[mcs.0 as usize];
        s.attempts += 1;
        if success {
            s.successes += 1;
        }
    }

    fn maybe_roll_window(&mut self, now: SimTime) {
        if now.saturating_since(self.window_start) < self.window {
            return;
        }
        self.window_start = now;
        for s in &mut self.stats {
            if s.attempts > 0 {
                let inst = s.successes as f64 / s.attempts as f64;
                s.prob = if s.seen {
                    s.prob + self.ewma_alpha * (inst - s.prob)
                } else {
                    inst
                };
                s.seen = true;
            } else if s.seen {
                // No samples this window: decay confidence slowly toward
                // optimism so a stale "dead" verdict doesn't stick forever.
                s.prob += 0.05 * (self.init_prob - s.prob);
            }
            s.attempts = 0;
            s.successes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_sim::SimDuration;

    fn drive(
        ctl: &mut MinstrelLite,
        rng: &mut SimRng,
        frames: usize,
        // Success probability by MCS index.
        p: impl Fn(Mcs) -> f64,
    ) -> Vec<Mcs> {
        let mut chosen = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..frames {
            let mcs = ctl.select(now, rng);
            chosen.push(mcs);
            let ok = rng.chance(p(mcs));
            ctl.on_tx_result(now, mcs, ok);
            now += SimDuration::from_micros(500);
        }
        chosen
    }

    #[test]
    fn converges_to_best_rate_good_channel() {
        // All rates succeed: MCS7 maximizes throughput.
        let mut ctl = MinstrelLite::new(GuardInterval::Short);
        let mut rng = SimRng::new(1);
        let chosen = drive(&mut ctl, &mut rng, 3000, |_| 1.0);
        let tail = &chosen[2000..];
        let m7 = tail.iter().filter(|m| **m == Mcs(7)).count();
        assert!(m7 as f64 / tail.len() as f64 > 0.8, "MCS7 share {m7}");
        assert_eq!(ctl.best_rate(), Mcs(7));
    }

    #[test]
    fn converges_down_on_poor_channel() {
        // Only MCS 0–2 deliver; everything above fails.
        let mut ctl = MinstrelLite::new(GuardInterval::Long);
        let mut rng = SimRng::new(2);
        let chosen = drive(
            &mut ctl,
            &mut rng,
            3000,
            |m| if m.0 <= 2 { 0.95 } else { 0.0 },
        );
        let tail = &chosen[2000..];
        let low = tail.iter().filter(|m| m.0 <= 2).count();
        assert!(low as f64 / tail.len() as f64 > 0.8);
        assert_eq!(ctl.best_rate(), Mcs(2));
    }

    #[test]
    fn picks_intermediate_optimum() {
        // MCS4 at 90% beats MCS5 at 30%: 39·0.9=35.1 vs 52·0.3=15.6 Mbit/s.
        let mut ctl = MinstrelLite::new(GuardInterval::Long);
        let mut rng = SimRng::new(3);
        drive(&mut ctl, &mut rng, 4000, |m| match m.0 {
            0..=4 => 0.9,
            5 => 0.3,
            _ => 0.0,
        });
        assert_eq!(ctl.best_rate(), Mcs(4));
    }

    #[test]
    fn recovers_when_channel_improves() {
        let mut ctl = MinstrelLite::new(GuardInterval::Long);
        let mut rng = SimRng::new(4);
        // Phase 1: bad channel.
        drive(
            &mut ctl,
            &mut rng,
            2000,
            |m| if m.0 == 0 { 0.9 } else { 0.05 },
        );
        let bad_best = ctl.best_rate();
        assert!(bad_best <= Mcs(1));
        // Phase 2: channel opens up; probing must climb back.
        drive(&mut ctl, &mut rng, 6000, |_| 1.0);
        assert!(ctl.best_rate() >= Mcs(5), "stuck at {}", ctl.best_rate());
    }

    #[test]
    fn probing_explores_nonbest_rates() {
        let mut ctl = MinstrelLite::new(GuardInterval::Long);
        let mut rng = SimRng::new(5);
        let chosen = drive(&mut ctl, &mut rng, 2000, |_| 1.0);
        let best = ctl.best_rate();
        let probes = chosen[1000..].iter().filter(|m| **m != best).count();
        assert!(probes > 20, "no probing happened: {probes}");
    }
}
