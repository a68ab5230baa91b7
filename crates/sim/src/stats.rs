//! Statistics helpers shared by every layer of the reproduction.
//!
//! The paper reports means, standard deviations, medians, quantiles, CDFs,
//! EWMA-smoothed rate estimates, and windowed timeseries — this module
//! provides those primitives once so every experiment harness computes them
//! identically.

use crate::time::{SimDuration, SimTime};

/// Mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; `0.0` for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Quantile via linear interpolation on the sorted copy of `xs`.
/// `q` is clamped to `[0, 1]`; returns `0.0` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// Quantile of an already-sorted slice (ascending).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Empirical CDF: returns `(value, cumulative_fraction)` pairs over the
/// sorted samples, suitable for plotting the paper's CDF figures
/// (Figs 16, 24).
pub fn ecdf(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ecdf input"));
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// Exponentially weighted moving average.
///
/// `alpha` is the weight of each new observation (`0 < alpha <= 1`), the
/// same convention Minstrel-style rate controllers use.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with the given new-sample weight.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
        Ewma { alpha, value: None }
    }

    /// Feeds an observation and returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation has been fed.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// A sliding time window of `(SimTime, f64)` samples.
///
/// This is the structure behind the WGTT AP-selection window: the controller
/// keeps the last `W` (default 10 ms) of ESNR readings per client–AP link
/// and selects on the window median (§3.1.1 of the paper).
#[derive(Debug, Clone)]
pub struct TimeWindow {
    window: SimDuration,
    samples: std::collections::VecDeque<(SimTime, f64)>,
}

impl TimeWindow {
    /// Creates a window of the given duration.
    pub fn new(window: SimDuration) -> Self {
        TimeWindow {
            window,
            samples: std::collections::VecDeque::new(),
        }
    }

    /// Inserts a sample taken at `t` and evicts anything older than
    /// `t - window`. Samples must arrive in non-decreasing time order.
    pub fn push(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            self.samples.back().map_or(true, |&(last, _)| last <= t),
            "TimeWindow samples must be time-ordered"
        );
        self.samples.push_back((t, value));
        self.evict(t);
    }

    /// Evicts samples older than `now - window` without inserting.
    pub fn evict(&mut self, now: SimTime) {
        let cutoff = now - self.window;
        while let Some(&(t, _)) = self.samples.front() {
            if t < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of samples currently inside the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Median of the values currently inside the window.
    ///
    /// Uses the paper's convention: sort values ascending and take element
    /// `floor(L/2)` — for even L this is the upper median, matching
    /// `e_{⌊L/2⌋}` with 0-based indexing in §3.1.1.
    pub fn median(&self) -> Option<f64> {
        self.median_in(&mut Vec::new())
    }

    /// [`Self::median`], selecting in a buffer the caller keeps between
    /// calls (its contents are overwritten): no allocation once the buffer
    /// has held a window this long.
    pub fn median_in(&self, scratch: &mut Vec<f64>) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        scratch.clear();
        scratch.extend(self.samples.iter().map(|&(_, v)| v));
        let mid = scratch.len() / 2;
        let (_, median, _) =
            scratch.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("NaN in window"));
        Some(*median)
    }

    /// Mean of the values currently inside the window (used by the
    /// estimator ablation in the window-size experiment).
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64)
    }

    /// Latest value inside the window.
    pub fn latest(&self) -> Option<f64> {
        self.samples.back().map(|&(_, v)| v)
    }
}

/// Accumulates a timeseries binned into fixed-width intervals, e.g. the
/// per-100 ms throughput curves of Figs 14, 15 and 22.
#[derive(Debug, Clone)]
pub struct BinnedSeries {
    bin: SimDuration,
    /// Sum accumulated per bin, indexed by bin number.
    bins: Vec<f64>,
}

impl BinnedSeries {
    /// Creates a series with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        assert!(bin > SimDuration::ZERO);
        BinnedSeries {
            bin,
            bins: Vec::new(),
        }
    }

    /// Adds `amount` to the bin containing time `t`.
    pub fn add(&mut self, t: SimTime, amount: f64) {
        let idx = (t.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += amount;
    }

    /// Bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin
    }

    /// Returns `(bin_start_time, sum)` pairs for every bin.
    pub fn points(&self) -> Vec<(SimTime, f64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &v)| (SimTime::from_nanos(i as u64 * self.bin.as_nanos()), v))
            .collect()
    }

    /// Returns per-bin *rates*: sum divided by bin width in seconds.
    /// Adding bytes and calling this yields bytes/s per bin.
    pub fn rates(&self) -> Vec<(SimTime, f64)> {
        let secs = self.bin.as_secs_f64();
        self.points()
            .into_iter()
            .map(|(t, v)| (t, v / secs))
            .collect()
    }

    /// Sum over all bins.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((std_dev(&xs) - 1.118033988).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Out-of-range q clamps.
        assert_eq!(quantile(&xs, 2.0), 4.0);
        assert_eq!(quantile(&xs, -1.0), 1.0);
    }

    #[test]
    fn ecdf_shape() {
        let points = ecdf(&[3.0, 1.0, 2.0]);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0], (1.0, 1.0 / 3.0));
        assert_eq!(points[2], (3.0, 1.0));
        // Monotone in both coordinates.
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn ewma_behaviour() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.update(0.0), 5.0);
        assert_eq!(e.update(5.0), 5.0);
    }

    #[test]
    #[should_panic]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn time_window_eviction() {
        let mut w = TimeWindow::new(SimDuration::from_millis(10));
        w.push(SimTime::from_millis(0), 1.0);
        w.push(SimTime::from_millis(5), 2.0);
        w.push(SimTime::from_millis(12), 3.0);
        // Sample at t=0 is older than 12-10=2 ms and must be gone.
        assert_eq!(w.len(), 2);
        assert_eq!(w.latest(), Some(3.0));
        w.evict(SimTime::from_millis(30));
        assert!(w.is_empty());
        assert_eq!(w.median(), None);
    }

    #[test]
    fn time_window_early_run_underflow_keeps_everything() {
        // Before one full window has elapsed (t < window), the cutoff
        // `t - window` saturates to zero — nothing may be evicted, even
        // samples at t = 0.
        let mut w = TimeWindow::new(SimDuration::from_millis(10));
        w.push(SimTime::from_millis(0), 1.0);
        w.push(SimTime::from_millis(3), 2.0);
        w.push(SimTime::from_millis(9), 3.0);
        assert_eq!(w.len(), 3);
        // Explicit evict at t < window is likewise a no-op.
        w.evict(SimTime::from_millis(9));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn time_window_exact_cutoff_boundary_is_retained() {
        // A sample exactly `window` old (t == now - window) sits on the
        // boundary and must be retained — eviction is strict (`t < cutoff`).
        let mut w = TimeWindow::new(SimDuration::from_millis(10));
        w.push(SimTime::from_millis(5), 1.0);
        w.push(SimTime::from_millis(15), 2.0);
        assert_eq!(w.len(), 2, "t == now - window must survive");
        // One nanosecond later it is strictly older than the window.
        w.evict(SimTime::from_millis(15) + SimDuration::from_nanos(1));
        assert_eq!(w.len(), 1);
        assert_eq!(w.latest(), Some(2.0));
    }

    #[test]
    fn time_window_empty_statistics() {
        // A never-filled and a fully-evicted window agree: no median, no
        // mean, no latest.
        let mut w = TimeWindow::new(SimDuration::from_millis(10));
        assert_eq!(w.median(), None);
        assert_eq!(w.mean(), None);
        assert_eq!(w.latest(), None);
        w.push(SimTime::from_millis(1), 4.0);
        w.evict(SimTime::from_secs(1));
        assert!(w.is_empty());
        assert_eq!(w.median(), None);
        assert_eq!(w.mean(), None);
        assert_eq!(w.latest(), None);
    }

    #[test]
    fn time_window_median_convention() {
        let mut w = TimeWindow::new(SimDuration::from_secs(1));
        for (i, v) in [5.0, 1.0, 9.0, 3.0].iter().enumerate() {
            w.push(SimTime::from_millis(i as u64), *v);
        }
        // Sorted: [1,3,5,9]; element floor(4/2)=2 -> 5.0 (upper median).
        assert_eq!(w.median(), Some(5.0));
        assert_eq!(w.mean(), Some(4.5));
    }

    #[test]
    fn binned_series_rates() {
        let mut s = BinnedSeries::new(SimDuration::from_millis(100));
        s.add(SimTime::from_millis(10), 100.0);
        s.add(SimTime::from_millis(90), 100.0);
        s.add(SimTime::from_millis(150), 50.0);
        let pts = s.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].1, 200.0);
        assert_eq!(pts[1].1, 50.0);
        let rates = s.rates();
        assert!((rates[0].1 - 2000.0).abs() < 1e-9);
        assert_eq!(s.total(), 250.0);
    }
}
