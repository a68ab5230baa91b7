//! Deterministic random number generation for simulations.
//!
//! Every experiment run owns a [`SimRng`] seeded from the run configuration,
//! so results are exactly reproducible. The generator is self-contained —
//! xoshiro256** seeded via splitmix64, with the distributions the PHY and
//! protocol models need (normal, exponential, Rayleigh, Rician) implemented
//! directly (Box–Muller and friends) — so the simulation core has no
//! external dependencies at all.
//!
//! Independent sub-streams (e.g. one per client–AP wireless link, one per
//! processing-delay model) are derived with [`SimRng::fork`], which hashes a
//! label into a child seed. Forked streams are statistically independent and
//! stable across runs regardless of the order other components draw in —
//! this is what keeps, say, AP 3's fading trace identical whether or not a
//! second client is added to the experiment.

use std::ops::{Range, RangeInclusive};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic RNG with the distribution helpers used across the WGTT
/// model.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed into xoshiro state with splitmix64, the
        // initialization the xoshiro authors recommend.
        let mut state = seed;
        SimRng {
            s: [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ],
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator identified by `label`.
    ///
    /// The child seed depends only on the parent *seed* and the label (not
    /// on how many values the parent has drawn), so forked streams are
    /// stable under unrelated changes to the simulation.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent seed via splitmix64.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut z = self.seed ^ h;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Derives an independent child generator from an integer index,
    /// convenient for per-entity streams ("link 3", "client 1", ...).
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        self.fork(&format!("{label}#{index}"))
    }

    /// Next raw 64-bit value (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero. Rejection
    /// sampling, so the distribution is exactly uniform.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = u64::MAX - u64::MAX.wrapping_rem(bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform sample from a range, e.g. `rng.range(0..16)` or
    /// `rng.range(0.0..1.5)`. Half-open and inclusive integer ranges and
    /// half-open float ranges are supported.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Uniform `f64` in `[0, 1)` — 53 random mantissa bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Standard normal sample via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - self.unit();
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.standard_normal()
    }

    /// Exponential sample with the given mean (`1/λ`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = 1.0 - self.unit();
        -mean * u.ln()
    }

    /// A uniformly random phase in `[0, 2π)`.
    pub fn phase(&mut self) -> f64 {
        self.unit() * 2.0 * std::f64::consts::PI
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// Ranges [`SimRng::range`] can sample from. The stand-in for rand's
/// `SampleRange`, scoped to the numeric types the simulation uses.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut SimRng) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + (rng.unit() as $t) * (self.end - self.start)
            }
        }
    )*};
}

impl_float_sample_range!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_stable_and_independent_of_draws() {
        let parent1 = SimRng::new(99);
        let mut parent2 = SimRng::new(99);
        // Drain some values from parent2 before forking.
        for _ in 0..10 {
            parent2.next_u64();
        }
        let mut c1 = parent1.fork("link");
        let mut c2 = parent2.fork("link");
        for _ in 0..16 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn fork_labels_are_distinct() {
        let parent = SimRng::new(5);
        let mut a = parent.fork("alpha");
        let mut b = parent.fork("beta");
        assert_ne!(a.next_u64(), b.next_u64());
        let mut i0 = parent.fork_indexed("link", 0);
        let mut i1 = parent.fork_indexed("link", 1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_bounds_hold() {
        let mut r = SimRng::new(8);
        for _ in 0..1000 {
            let v = r.range(3u32..17);
            assert!((3..17).contains(&v));
            let w: u32 = r.range(0..=5);
            assert!(w <= 5);
            let f = r.range(-2.5f64..4.5);
            assert!((-2.5..4.5).contains(&f));
        }
        // Degenerate inclusive range.
        assert_eq!(r.range(9u64..=9), 9);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
        // Exponential samples are non-negative.
        assert!((0..100).all(|_| r.exponential(1.0) >= 0.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
