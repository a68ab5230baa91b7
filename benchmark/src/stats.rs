//! Order statistics for the report, on top of `wgtt_sim::stats`: quartiles
//! as the acceptance runs compute them, a tail percentile that refuses to
//! speak from too few samples, and a histogram for per-event times.

use wgtt_sim::stats::{quantile, quantile_sorted};

/// Samples a timing tail needs before p95 is reported: 5 % of 200 leaves
/// ten samples beyond the percentile, the least the choosing-metrics guide
/// accepts.
pub const MIN_TAIL_SAMPLES: usize = 200;

/// A tail percentile (`p` ≥ 0.9) of `xs`, or an error naming the shortfall
/// when fewer than `(1 − p)⁻¹ × 10` samples back it — [`MIN_TAIL_SAMPLES`]
/// for p95.
pub fn tail_percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    let need = (10.0 / (1.0 - p)).round() as usize;
    if xs.len() < need {
        return Err(format!(
            "p{:.0} needs at least {need} samples to leave ten beyond it, got {}",
            p * 100.0,
            xs.len()
        ));
    }
    Ok(quantile(xs, p))
}

/// Five-number summary of a host-time sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `xs`. Quartiles use the same rule as Python's
    /// `statistics.quantiles(xs, n=4)` (exclusive method), which is the
    /// rule the acceptance runs apply, so a spread printed here can be
    /// compared with one computed there.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary::default();
        }
        let mut s = xs.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample set"));
        let n = s.len();
        let exclusive = |k: usize| {
            // Position k(n+1)/4 in 1-based ranks, clamped to the sample.
            let pos = k as f64 * (n + 1) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
            let frac = (pos - j as f64).clamp(0.0, 1.0);
            let lo = s[j - 1];
            let hi = s[j.min(n - 1)];
            lo + (hi - lo) * frac
        };
        Summary {
            n,
            min: s[0],
            q1: exclusive(1),
            median: quantile_sorted(&s, 0.5),
            q3: exclusive(3),
            max: s[n - 1],
        }
    }

    /// Interquartile range as a share of the median (0 when the median is
    /// 0) — the steadiness figure the bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A log-bucket histogram for per-event host times: 16 sub-buckets per
/// power of two, so a quantile read from it is within ~4.5 % of the exact
/// one while recording costs one increment.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
}

const SUB: u32 = 16;

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram covering 1 ns to 2⁴⁰ ns.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; (40 * SUB) as usize],
            count: 0,
        }
    }

    fn index(ns: u64) -> usize {
        let ns = ns.max(1);
        let exp = 63 - ns.leading_zeros();
        let sub = if exp >= 4 {
            ((ns >> (exp - 4)) & 0xF) as u32
        } else {
            ((ns << (4 - exp)) & 0xF) as u32
        };
        ((exp * SUB + sub) as usize).min((40 * SUB - 1) as usize)
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    /// The `p`-quantile in ns (geometric middle of the bucket that holds
    /// it); 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * (self.count - 1) as f64) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen > rank {
                let exp = i as u32 / SUB;
                let sub = i as u32 % SUB;
                let lo = 2f64.powi(exp as i32) * (1.0 + sub as f64 / SUB as f64);
                let hi = 2f64.powi(exp as i32) * (1.0 + (sub + 1) as f64 / SUB as f64);
                return (lo * hi).sqrt();
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = LogHistogram::new();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        for (p, exact) in [(0.5, 5000.0), (0.99, 9900.0)] {
            let got = h.quantile(p);
            assert!((got / exact - 1.0).abs() < 0.05, "p{p}: {got} vs {exact}");
        }
    }
}
