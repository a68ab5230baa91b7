//! WGTT AP selection (paper §3.1.1).
//!
//! Each AP extracts CSI from every uplink frame it hears, computes ESNR,
//! and reports it to the controller. The controller keeps, per client and
//! per AP, a sliding window of duration `W` (default 10 ms — the optimum
//! found in the paper's Fig 21) and selects
//!
//! ```text
//! a* = argmax_a  median( ESNR readings from a in the last W )
//! ```
//!
//! The median resists fast-fade outliers that would whipsaw a latest-sample
//! rule, while a window this short still tracks the millisecond-scale best-
//! AP flips of the vehicular picocell regime. A *time hysteresis* (minimum
//! interval between switches, default 40 ms per Fig 22's best setting)
//! bounds the switch rate so the 17–21 ms switching protocol can keep up.

use serde::Serialize;
use wgtt_net::ApId;
use wgtt_sim::stats::TimeWindow;
use wgtt_sim::{SimDuration, SimTime};

/// Which statistic of the window ranks APs — the paper uses the median;
/// alternatives exist for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WindowEstimator {
    /// The paper's choice: `e_{⌊L/2⌋}` of the sorted window.
    Median,
    /// Arithmetic mean of the window.
    Mean,
    /// Most recent sample only (no smoothing).
    Latest,
}

/// Selection algorithm parameters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SelectionConfig {
    /// Sliding window duration `W`.
    pub window: SimDuration,
    /// Minimum time between switch decisions for one client.
    pub hysteresis: SimDuration,
    /// Ranking statistic.
    pub estimator: WindowEstimator,
    /// Minimum ESNR advantage (dB) a challenger needs over the current AP —
    /// suppresses churn when two APs are statistically tied (important for
    /// stationary clients, where switching buys nothing but protocol cost).
    pub margin_db: f64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            window: SimDuration::from_millis(10),
            hysteresis: SimDuration::from_millis(40),
            estimator: WindowEstimator::Median,
            margin_db: 1.5,
        }
    }
}

/// What one AP has reported about the client.
#[derive(Debug)]
struct Heard {
    window: TimeWindow,
    /// Most recent reading (fan-out freshness is judged over a longer
    /// horizon than the selection window).
    last: Option<SimTime>,
}

/// The controller's view of one client's candidate APs.
#[derive(Debug)]
pub struct ApSelector {
    cfg: SelectionConfig,
    /// Dense by AP id (an index into the deployment's AP array), grown on
    /// an AP's first reading: every scan walks ids in ascending order, so
    /// nothing is hashed, collected or sorted per tick.
    heard: Vec<Heard>,
    switched_at: Option<SimTime>,
    /// Where [`TimeWindow::median_in`] selects.
    median_scratch: Vec<f64>,
}

impl ApSelector {
    /// Creates a selector.
    pub fn new(cfg: SelectionConfig) -> Self {
        ApSelector {
            cfg,
            heard: Vec::new(),
            switched_at: None,
            median_scratch: Vec::new(),
        }
    }

    /// Ingests an ESNR reading reported by `ap` at time `t`.
    pub fn on_reading(&mut self, ap: ApId, t: SimTime, esnr_db: f64) {
        let i = ap.0 as usize;
        if i >= self.heard.len() {
            let window = self.cfg.window;
            self.heard.resize_with(i + 1, || Heard {
                window: TimeWindow::new(window),
                last: None,
            });
        }
        self.heard[i].window.push(t, esnr_db);
        self.heard[i].last = Some(t);
    }

    /// The window statistic for one AP at `now`, if it has fresh readings.
    pub fn score(&mut self, ap: ApId, now: SimTime) -> Option<f64> {
        let w = &mut self.heard.get_mut(ap.0 as usize)?.window;
        w.evict(now);
        match self.cfg.estimator {
            WindowEstimator::Median => w.median_in(&mut self.median_scratch),
            WindowEstimator::Mean => w.mean(),
            WindowEstimator::Latest => w.latest(),
        }
    }

    /// The best AP excluding the given set — used when the health layer
    /// has blacklisted APs that must not be switch targets. Among equal
    /// scores the lowest id wins.
    pub fn best_excluding(&mut self, now: SimTime, excluded: &[ApId]) -> Option<(ApId, f64)> {
        let mut best: Option<(ApId, f64)> = None;
        for i in 0..self.heard.len() {
            let ap = ApId(i as u32);
            if excluded.contains(&ap) {
                continue;
            }
            // An AP out of range has an empty window, hence no score.
            if let Some(s) = self.score(ap, now) {
                if best.map_or(true, |(_, bs)| s > bs) {
                    best = Some((ap, s));
                }
            }
        }
        best
    }

    /// Decides whether to switch away from `current`. Returns the target AP
    /// when a switch should be issued. Respects hysteresis and the margin;
    /// recording the switch (for hysteresis purposes) is the caller's
    /// responsibility via [`ApSelector::record_switch`] once the protocol
    /// actually starts.
    pub fn decide(&mut self, now: SimTime, current: Option<ApId>) -> Option<ApId> {
        self.decide_excluding(now, current, &[])
    }

    /// Like [`ApSelector::decide`] but never returns an AP from
    /// `excluded` — the health layer's blacklist of dead or wedged APs.
    /// `current` being excluded does not suppress the decision: switching
    /// *away* from a blacklisted AP is exactly what the caller wants.
    pub fn decide_excluding(
        &mut self,
        now: SimTime,
        current: Option<ApId>,
        excluded: &[ApId],
    ) -> Option<ApId> {
        if let (Some(last), hysteresis) = (self.switched_at, self.cfg.hysteresis) {
            if now.saturating_since(last) < hysteresis {
                return None;
            }
        }
        let (best_ap, best_score) = self.best_excluding(now, excluded)?;
        match current {
            None => Some(best_ap),
            Some(cur) if cur == best_ap => None,
            Some(cur) => {
                let cur_score = self.score(cur, now).unwrap_or(f64::NEG_INFINITY);
                (best_score > cur_score + self.cfg.margin_db).then_some(best_ap)
            }
        }
    }

    /// APs heard from within `horizon` — the downlink *fan-out* set. The
    /// paper fans out to "APs that have received a packet from the client
    /// within the AP selection window"; with sparse traffic a strict 10 ms
    /// horizon starves the fan-out, so the controller keeps copies at any
    /// AP heard recently enough to matter at vehicle speeds (a metre or so
    /// of motion). In id order.
    pub fn heard_within(
        &self,
        now: SimTime,
        horizon: SimDuration,
    ) -> impl Iterator<Item = ApId> + '_ {
        let heard = self.heard.iter().enumerate();
        heard.filter_map(move |(i, h)| {
            let fresh = h.last.is_some_and(|t| now.saturating_since(t) <= horizon);
            fresh.then_some(ApId(i as u32))
        })
    }

    /// Records that a switch was issued at `now` (starts the hysteresis
    /// clock).
    pub fn record_switch(&mut self, now: SimTime) {
        self.switched_at = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn feed(sel: &mut ApSelector, ap: u32, at_ms: u64, esnr: f64) {
        sel.on_reading(ApId(ap), t(at_ms), esnr);
    }

    #[test]
    fn picks_highest_median() {
        let mut s = ApSelector::new(SelectionConfig::default());
        for i in 0..5 {
            feed(&mut s, 0, 10 + i, 10.0);
            feed(&mut s, 1, 10 + i, 20.0);
            feed(&mut s, 2, 10 + i, 15.0);
        }
        let (ap, score) = s.best_excluding(t(15), &[]).unwrap();
        assert_eq!(ap, ApId(1));
        assert_eq!(score, 20.0);
    }

    #[test]
    fn median_resists_outliers() {
        let mut s = ApSelector::new(SelectionConfig::default());
        // AP0 is steadily decent; AP1 has one huge spike among poor
        // readings. Median must prefer AP0; `Latest` would be fooled.
        for i in 0..5 {
            feed(&mut s, 0, 10 + i, 18.0);
        }
        for (i, v) in [5.0, 5.0, 40.0, 5.0, 5.0].iter().enumerate() {
            feed(&mut s, 1, 10 + i as u64, *v);
        }
        assert_eq!(s.best_excluding(t(15), &[]).unwrap().0, ApId(0));

        let mut latest = ApSelector::new(SelectionConfig {
            estimator: WindowEstimator::Latest,
            ..SelectionConfig::default()
        });
        for i in 0..5 {
            feed(&mut latest, 0, 10 + i, 18.0);
        }
        for (i, v) in [5.0, 5.0, 5.0, 5.0, 40.0].iter().enumerate() {
            feed(&mut latest, 1, 10 + i as u64, *v);
        }
        assert_eq!(latest.best_excluding(t(15), &[]).unwrap().0, ApId(1));
    }

    #[test]
    fn window_evicts_stale_readings() {
        let mut s = ApSelector::new(SelectionConfig::default());
        feed(&mut s, 0, 0, 30.0);
        // 10 ms window: at t=20 ms the reading is stale.
        assert_eq!(s.best_excluding(t(20), &[]), None);
        assert_eq!(s.score(ApId(0), t(20)), None);
    }

    #[test]
    fn window_keeps_readings_up_to_its_width() {
        let mut s = ApSelector::new(SelectionConfig::default());
        feed(&mut s, 3, 100, 10.0);
        feed(&mut s, 1, 101, 12.0);
        feed(&mut s, 5, 95, 8.0); // stale at t=106? window 10ms → 96..106 keeps it
        let scored = |s: &mut ApSelector, at| {
            let fresh = |a: &u32| s.score(ApId(*a), t(at)).is_some();
            (0..8).filter(fresh).map(ApId).collect::<Vec<_>>()
        };
        assert_eq!(scored(&mut s, 105), [ApId(1), ApId(3), ApId(5)]);
        assert_eq!(scored(&mut s, 106), [ApId(1), ApId(3)]);
    }

    #[test]
    fn decide_respects_margin() {
        let mut s = ApSelector::new(SelectionConfig::default());
        for i in 0..5 {
            feed(&mut s, 0, 10 + i, 20.0);
            feed(&mut s, 1, 10 + i, 21.0); // within the 1.5 dB margin
        }
        assert_eq!(s.decide(t(15), Some(ApId(0))), None);
        for i in 0..5 {
            feed(&mut s, 1, 15 + i, 23.0); // now clearly better
        }
        assert_eq!(s.decide(t(20), Some(ApId(0))), Some(ApId(1)));
    }

    #[test]
    fn decide_respects_hysteresis() {
        let mut s = ApSelector::new(SelectionConfig::default());
        for i in 0..5 {
            feed(&mut s, 0, 10 + i, 10.0);
            feed(&mut s, 1, 10 + i, 30.0);
        }
        assert_eq!(s.decide(t(15), Some(ApId(0))), Some(ApId(1)));
        s.record_switch(t(15));
        // 40 ms hysteresis: nothing until t=55.
        for i in 0..40 {
            feed(&mut s, 0, 16 + i, 30.0);
            feed(&mut s, 1, 16 + i, 10.0);
        }
        assert_eq!(s.decide(t(30), Some(ApId(1))), None);
        assert_eq!(s.decide(t(54), Some(ApId(1))), None);
        for i in 0..5 {
            feed(&mut s, 0, 56 + i, 30.0);
            feed(&mut s, 1, 56 + i, 10.0);
        }
        assert_eq!(s.decide(t(61), Some(ApId(1))), Some(ApId(0)));
    }

    #[test]
    fn heard_within_outlives_selection_window() {
        let mut s = ApSelector::new(SelectionConfig::default());
        feed(&mut s, 2, 100, 15.0);
        // Selection forgets after 10 ms…
        assert_eq!(s.score(ApId(2), t(150)), None);
        // …but the fan-out horizon still remembers.
        let horizon = SimDuration::from_millis(100);
        assert_eq!(
            s.heard_within(t(150), horizon).collect::<Vec<_>>(),
            [ApId(2)]
        );
        assert_eq!(s.heard_within(t(250), horizon).count(), 0);
    }

    #[test]
    fn first_association_has_no_hysteresis() {
        let mut s = ApSelector::new(SelectionConfig::default());
        feed(&mut s, 2, 5, 12.0);
        assert_eq!(s.decide(t(6), None), Some(ApId(2)));
    }

    #[test]
    fn no_readings_no_decision() {
        let mut s = ApSelector::new(SelectionConfig::default());
        assert_eq!(s.decide(t(100), Some(ApId(0))), None);
        assert_eq!(s.best_excluding(t(100), &[]), None);
    }

    #[test]
    fn mean_estimator_differs_from_median() {
        let cfg = SelectionConfig {
            estimator: WindowEstimator::Mean,
            ..SelectionConfig::default()
        };
        let mut s = ApSelector::new(cfg);
        // Values [0, 0, 30]: median = 0 (upper median of 3 = index 1),
        // mean = 10.
        for (i, v) in [0.0, 0.0, 30.0].iter().enumerate() {
            feed(&mut s, 0, 10 + i as u64, *v);
        }
        assert_eq!(s.score(ApId(0), t(13)), Some(10.0));
    }
}
