//! Small-scale multipath fading.
//!
//! This is the millisecond-scale structure that defines the paper's
//! *vehicular picocell regime* (Fig 2): alternating constructive and
//! destructive multipath on the spatial scale of one RF wavelength (≈12 cm
//! at 2.4 GHz), which at driving speed translates into channel coherence
//! times of a few milliseconds.
//!
//! The model is a classic tapped delay line:
//!
//! * a small number of taps with an exponential power-delay profile sets the
//!   delay spread, and therefore the *frequency selectivity* across the 56
//!   OFDM subcarriers that makes ESNR a better predictor than plain RSSI;
//! * each tap's complex gain evolves by a Jakes-style sum of sinusoids whose
//!   Doppler shifts scale with vehicle speed, which sets the *coherence
//!   time*;
//! * the first tap carries a Rician line-of-sight component (roadside APs
//!   usually see the car), later taps are Rayleigh.
//!
//! Gains are a deterministic function of `(tap parameters, time)`, so a
//! discrete-event simulation can sample the channel at arbitrary instants
//! without integrating state forward — and two APs observing the same
//! client get independent processes by construction (independent RNG
//! forks).

use crate::complex::Cplx;
use crate::fastmath::{at_host_width, sincos_lanes, LANES};
use serde::Serialize;
use wgtt_sim::SimRng;

/// Configuration of the tapped-delay-line fading process.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FadingConfig {
    /// Number of resolvable multipath taps.
    pub num_taps: usize,
    /// RMS delay spread in nanoseconds. Outdoor picocell ≈ 50–150 ns; the
    /// paper notes the small cells keep delay spread indoor-like, within the
    /// standard 802.11 cyclic prefix.
    pub rms_delay_spread_ns: f64,
    /// Rician K-factor of the first (LOS) tap, dB. Roadside LOS ≈ 3–9 dB.
    pub rician_k_db: f64,
    /// Number of sinusoids per tap in the sum-of-sinusoids Doppler model.
    pub num_sinusoids: usize,
}

impl Default for FadingConfig {
    fn default() -> Self {
        FadingConfig {
            num_taps: 5,
            rms_delay_spread_ns: 80.0,
            rician_k_db: 5.0,
            num_sinusoids: 16,
        }
    }
}

#[derive(Debug, Clone)]
struct Sinusoid {
    /// cos(angle of arrival) — multiplies the maximum Doppler shift.
    cos_aoa: f64,
    /// Initial phase.
    phase: f64,
}

#[derive(Debug, Clone)]
struct Tap {
    /// Excess delay, seconds.
    delay_s: f64,
    /// Scattered component sinusoids.
    sinusoids: Vec<Sinusoid>,
    /// `√(1/n)` for the `n` sinusoids: normalizes their sum to unit power.
    scatter_norm: f64,
    /// Scattered amplitude `√(power/(K+1))`; `power` is the tap's mean
    /// power (all taps sum to 1), `K` its linear Rician factor (0 for pure
    /// Rayleigh taps).
    scattered_amp: f64,
    /// LOS amplitude `√(power·K/(K+1))`.
    los_amp: f64,
    /// LOS component angle-of-arrival cosine and phase.
    los_cos_aoa: f64,
    los_phase: f64,
}

impl Tap {
    /// Complex gain of this tap at absolute time `t_s` with maximum Doppler
    /// `fd_hz`. The sinusoid phasors come [`LANES`] at a time from
    /// [`sincos_lanes`] and are summed in sinusoid order, so the result is
    /// bit-identical to a per-sinusoid `Cplx::from_phase` loop (locked by
    /// `lane_gain_matches_per_sinusoid_reference`).
    #[inline(always)]
    fn gain(&self, t_s: f64, fd_hz: f64) -> Cplx {
        let two_pi = 2.0 * std::f64::consts::PI;
        let mut scattered = Cplx::ZERO;
        for chunk in self.sinusoids.chunks(LANES) {
            // A short last chunk's spare lanes are computed and not summed.
            let mut theta = [0.0; LANES];
            for (th, s) in theta.iter_mut().zip(chunk) {
                *th = two_pi * fd_hz * s.cos_aoa * t_s + s.phase;
            }
            let (sin, cos) = sincos_lanes(&theta);
            for i in 0..chunk.len() {
                scattered += Cplx::new(cos[i], sin[i]);
            }
        }
        let a = scattered.scale(self.scatter_norm).scale(self.scattered_amp);
        // A Rayleigh tap's LOS phasor is scaled by zero, and `a + ±0` is `a`
        // bit for bit unless a component of `a` is itself a zero, whose
        // sign the addition below still decides.
        if self.los_amp == 0.0 && a.re != 0.0 && a.im != 0.0 {
            return a;
        }
        let los = Cplx::from_phase(two_pi * fd_hz * self.los_cos_aoa * t_s + self.los_phase)
            .scale(self.los_amp);
        a + los
    }
}

/// A frequency-selective, time-varying fading channel between one AP and
/// one client.
#[derive(Debug, Clone)]
pub struct TappedDelayLine {
    taps: Vec<Tap>,
}

impl TappedDelayLine {
    /// Builds a channel realization. All randomness (tap phases, arrival
    /// angles) is drawn once here from `rng`, so the process is afterwards a
    /// pure function of time.
    pub fn new(cfg: &FadingConfig, rng: &mut SimRng) -> Self {
        assert!(cfg.num_taps >= 1, "need at least one tap");
        assert!(
            cfg.num_sinusoids >= 4,
            "too few sinusoids for smooth fading"
        );
        let k_lin = 10f64.powf(cfg.rician_k_db / 10.0);
        // Exponential power-delay profile sampled at uniform tap spacing.
        // Tap spacing chosen so the configured number of taps spans ≈3× the
        // RMS delay spread.
        let spacing_s = if cfg.num_taps == 1 {
            0.0
        } else {
            3.0 * cfg.rms_delay_spread_ns * 1e-9 / (cfg.num_taps - 1) as f64
        };
        let decay = cfg.rms_delay_spread_ns * 1e-9;
        let mut powers: Vec<f64> = (0..cfg.num_taps)
            .map(|i| {
                let delay = i as f64 * spacing_s;
                if decay > 0.0 {
                    (-delay / decay).exp()
                } else {
                    if i == 0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            })
            .collect();
        let total: f64 = powers.iter().sum();
        for p in &mut powers {
            *p /= total;
        }

        let taps = powers
            .into_iter()
            .enumerate()
            .map(|(i, power)| {
                let sinusoids = (0..cfg.num_sinusoids)
                    .map(|_| Sinusoid {
                        // Uniform angle of arrival over the circle.
                        cos_aoa: rng.phase().cos(),
                        phase: rng.phase(),
                    })
                    .collect();
                let n = cfg.num_sinusoids as f64;
                let k = if i == 0 { k_lin } else { 0.0 };
                Tap {
                    delay_s: i as f64 * spacing_s,
                    sinusoids,
                    scatter_norm: (1.0 / n).sqrt(),
                    scattered_amp: (power / (k + 1.0)).sqrt(),
                    los_amp: (power * k / (k + 1.0)).sqrt(),
                    los_cos_aoa: rng.phase().cos(),
                    los_phase: rng.phase(),
                }
            })
            .collect();
        TappedDelayLine { taps }
    }

    /// Number of taps.
    pub fn num_taps(&self) -> usize {
        self.taps.len()
    }

    /// Complex frequency response at the given subcarrier offsets (Hz from
    /// carrier), at absolute time `t_s` seconds, with maximum Doppler
    /// `fd_hz = v/λ`.
    ///
    /// `H_k(t) = Σ_i g_i(t) · e^{−j2π f_k τ_i}`; mean `|H_k|²` is 1, so the
    /// result multiplies a large-scale SNR directly.
    pub fn freq_response(&self, t_s: f64, fd_hz: f64, subcarriers_hz: &[f64]) -> Vec<Cplx> {
        let two_pi = 2.0 * std::f64::consts::PI;
        let gains: Vec<(Cplx, f64)> = self
            .taps
            .iter()
            .map(|tap| (tap.gain(t_s, fd_hz), tap.delay_s))
            .collect();
        subcarriers_hz
            .iter()
            .map(|&f| {
                let mut h = Cplx::ZERO;
                for &(g, delay) in &gains {
                    h += g * Cplx::from_phase(-two_pi * f * delay);
                }
                h
            })
            .collect()
    }

    /// Flat-fading power gain (|h|², averaged response at the carrier) —
    /// convenient for coarse RSSI-style measurements.
    pub fn power_gain(&self, t_s: f64, fd_hz: f64) -> f64 {
        self.freq_response(t_s, fd_hz, &[0.0])[0].abs2()
    }

    /// Static upper bound on `|H_k(t)|` over every time and subcarrier:
    /// the triangle inequality across taps, with each tap's scattered
    /// phasors assumed momentarily aligned. No realization of this channel
    /// can push any tone's amplitude above it, so a ranker can discard the
    /// link from its *mean* SNR alone — no fading evaluation — whenever
    /// even this ceiling cannot beat an incumbent.
    pub fn peak_gain_bound(&self) -> f64 {
        self.taps
            .iter()
            .map(|tap| {
                let n = tap.sinusoids.len() as f64;
                n * tap.scatter_norm * tap.scattered_amp + tap.los_amp
            })
            .sum()
    }

    /// Precomputes the twiddle matrix `e^{−j2π f_k τ_i}` for
    /// [`Self::freq_response_into`], split and tone-major: one row of real
    /// parts per tap (the grid's tones along it), then the imaginary rows.
    /// It depends only on the tap delays and the grid, so links of one
    /// `FadingConfig` share it. Each entry is the exact expression
    /// [`Self::freq_response`] evaluates inline, so the fast path stays
    /// bit-identical to the reference.
    pub fn twiddles(&self, subcarriers_hz: &[f64]) -> Vec<f64> {
        let two_pi = 2.0 * std::f64::consts::PI;
        let (mut re, mut im) = (Vec::new(), Vec::new());
        for tap in &self.taps {
            for &f in subcarriers_hz {
                let w = Cplx::from_phase(-two_pi * f * tap.delay_s);
                re.push(w.re);
                im.push(w.im);
            }
        }
        re.extend(im);
        re
    }

    /// Allocation-free [`Self::freq_response`]: writes the response into
    /// `out`, split like the matrix (real parts, then imaginary parts), using
    /// a twiddle matrix from [`Self::twiddles`] over the same subcarrier grid
    /// (`twiddles.len() == num_taps · out.len()`).
    ///
    /// Bit-identical to the reference: the taps-outer loop performs, for
    /// each subcarrier, the products and sums of `h += g_i · w_{i,k}` in
    /// `Cplx` arithmetic, in the same tap order 0..N as the reference's
    /// subcarrier-outer loop — locked by `twiddled_response_is_bit_exact`.
    pub fn freq_response_into(&self, t_s: f64, fd_hz: f64, twiddles: &[f64], out: &mut [f64]) {
        self.check_grid(twiddles, out);
        freq_response_kernel(&self.taps, t_s, fd_hz, twiddles, out);
    }

    /// The first half of [`Self::freq_response_into`]: the complex gain
    /// `g_i(t)` of every tap, into `gains` (`gains.len() == num_taps`).
    /// `Σ_i |g_i|` bounds every tone's `|H_k|` (the twiddles are unit
    /// phasors), so a ranker can discard a snapshot before paying for its
    /// tones.
    pub fn gains_into(&self, t_s: f64, fd_hz: f64, gains: &mut [Cplx]) {
        assert_eq!(gains.len(), self.taps.len(), "one gain per tap");
        gains_kernel(&self.taps, t_s, fd_hz, gains);
    }

    /// The second half of [`Self::freq_response_into`], from the `gains`
    /// [`Self::gains_into`] wrote: the same multiply-accumulates in the same
    /// tap order, so the two halves together are bit-identical to the whole
    /// (`split_response_is_bit_exact`).
    pub fn freq_response_from_gains(&self, gains: &[Cplx], twiddles: &[f64], out: &mut [f64]) {
        assert_eq!(gains.len(), self.taps.len(), "one gain per tap");
        self.check_grid(twiddles, out);
        from_gains_kernel(gains, twiddles, out);
    }

    /// `R`, a ceiling on how fast `Σ_i |g_i|` moves with `u = f_d·t`: every
    /// phase in a tap's gain is `2π·cos·u + φ`, so `|dg_i/du| ≤
    /// 2π·(scatter_norm·scattered_amp·Σ_n |cos_n| + los_amp·|cos_los|)`.
    pub fn reach_rate(&self) -> f64 {
        let rate = |tap: &Tap| {
            let spread: f64 = tap.sinusoids.iter().map(|s| s.cos_aoa.abs()).sum();
            tap.scatter_norm * tap.scattered_amp * spread + tap.los_amp * tap.los_cos_aoa.abs()
        };
        2.0 * std::f64::consts::PI * self.taps.iter().map(rate).sum::<f64>()
    }

    fn check_grid(&self, twiddles: &[f64], out: &[f64]) {
        assert_eq!(
            twiddles.len(),
            self.taps.len() * out.len(),
            "twiddle matrix does not match this tap/subcarrier grid"
        );
    }
}

/// Row `tap`'s share of every tone: `Cplx`'s `h += g * w`, the same two
/// products and sums per tone, on the split parts.
#[inline(always)]
fn accumulate_tap(out: &mut [f64], g: Cplx, twiddles: &[f64], tap: usize) {
    let n = out.len() / 2;
    let (re, im) = out.split_at_mut(n);
    let (w_re, w_im) = twiddles.split_at(twiddles.len() / 2);
    let (w_re, w_im) = (&w_re[tap * n..][..n], &w_im[tap * n..][..n]);
    for ((h_re, h_im), (&wr, &wi)) in re.iter_mut().zip(im).zip(w_re.iter().zip(w_im)) {
        *h_re += g.re * wr - g.im * wi;
        *h_im += g.re * wi + g.im * wr;
    }
}

/// The lane kernel of [`TappedDelayLine::freq_response_into`]: up to
/// [`LANES`] taps' [`Tap::gain`]s, then their rows of multiply-accumulates.
#[inline(always)]
fn freq_response_body(taps: &[Tap], t_s: f64, fd_hz: f64, twiddles: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (i, chunk) in taps.chunks(LANES).enumerate() {
        let mut gains = [Cplx::ZERO; LANES];
        gains_body(chunk, t_s, fd_hz, &mut gains);
        for (j, &g) in gains[..chunk.len()].iter().enumerate() {
            accumulate_tap(out, g, twiddles, i * LANES + j);
        }
    }
}

/// The lane kernel of [`TappedDelayLine::gains_into`].
#[inline(always)]
fn gains_body(taps: &[Tap], t_s: f64, fd_hz: f64, gains: &mut [Cplx]) {
    for (g, tap) in gains.iter_mut().zip(taps) {
        *g = tap.gain(t_s, fd_hz);
    }
}

/// The lane kernel of [`TappedDelayLine::freq_response_from_gains`].
#[inline(always)]
fn from_gains_body(gains: &[Cplx], twiddles: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (i, &g) in gains.iter().enumerate() {
        accumulate_tap(out, g, twiddles, i);
    }
}

at_host_width! {
    /// [`freq_response_body`] at the host's vector width.
    fn freq_response_kernel(taps: &[Tap], t_s: f64, fd_hz: f64, twiddles: &[f64], out: &mut [f64]) = freq_response_body;
    /// [`gains_body`] at the host's vector width.
    fn gains_kernel(taps: &[Tap], t_s: f64, fd_hz: f64, gains: &mut [Cplx]) = gains_body;
    /// [`from_gains_body`] at the host's vector width.
    fn from_gains_kernel(gains: &[Cplx], twiddles: &[f64], out: &mut [f64]) = from_gains_body;
}

/// Maximum Doppler shift for a vehicle speed and carrier wavelength.
#[inline]
pub fn doppler_hz(speed_mps: f64, wavelength_m: f64) -> f64 {
    speed_mps / wavelength_m
}

/// Approximate channel coherence time (Clarke's model): `0.423 / f_d`.
#[inline]
pub fn coherence_time_s(fd_hz: f64) -> f64 {
    if fd_hz <= 0.0 {
        f64::INFINITY
    } else {
        0.423 / fd_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdl(seed: u64) -> TappedDelayLine {
        TappedDelayLine::new(&FadingConfig::default(), &mut SimRng::new(seed))
    }

    fn ht20_subcarriers() -> Vec<f64> {
        crate::csi::subcarrier_offsets_hz().to_vec()
    }

    #[test]
    fn peak_gain_bound_holds_over_samples() {
        for seed in [3u64, 17, 99] {
            let line = tdl(seed);
            let bound = line.peak_gain_bound();
            let subs = ht20_subcarriers();
            for i in 0..400 {
                let t = i as f64 * 0.37e-3;
                for h in line.freq_response(t, 180.0, &subs) {
                    assert!(h.abs() <= bound, "seed {seed}: |H|={} > {bound}", h.abs());
                }
            }
        }
    }

    #[test]
    fn mean_power_is_unity() {
        // Average |H|² over many realizations and times ≈ 1.
        let subs = ht20_subcarriers();
        let mut acc = 0.0;
        let mut n = 0;
        for seed in 0..40 {
            let ch = tdl(seed);
            for step in 0..20 {
                let t = step as f64 * 0.013;
                for h in ch.freq_response(t, 50.0, &subs) {
                    acc += h.abs2();
                    n += 1;
                }
            }
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean power {mean}");
    }

    #[test]
    fn deterministic_in_time() {
        let ch = tdl(7);
        let subs = ht20_subcarriers();
        let a = ch.freq_response(1.234, 60.0, &subs);
        let b = ch.freq_response(1.234, 60.0, &subs);
        assert_eq!(a.len(), 56);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re, y.re);
            assert_eq!(x.im, y.im);
        }
    }

    /// [`TappedDelayLine::freq_response_into`] over 56 tones, as `Cplx`.
    fn response(ch: &TappedDelayLine, t: f64, fd: f64, tw: &[f64]) -> Vec<Cplx> {
        let mut out = [0.0; 112];
        ch.freq_response_into(t, fd, tw, &mut out);
        joined(&out)
    }

    /// A split response (real parts, then imaginary parts) as `Cplx`.
    fn joined(out: &[f64]) -> Vec<Cplx> {
        let (re, im) = out.split_at(out.len() / 2);
        re.iter()
            .zip(im)
            .map(|(&re, &im)| Cplx::new(re, im))
            .collect()
    }

    #[test]
    fn twiddles_are_the_reference_phasors_split_by_part() {
        // Real rows, then imaginary rows, one tone-major row per tap: each
        // entry the phasor `freq_response` evaluates inline, to the bit.
        let subs = ht20_subcarriers();
        for (ch, tw) in seeded_lines() {
            let delays: Vec<f64> = ch.taps.iter().map(|tap| tap.delay_s).collect();
            assert_eq!(tw.len(), 2 * delays.len() * subs.len());
            let (w_re, w_im) = tw.split_at(tw.len() / 2);
            for (i, &delay) in delays.iter().enumerate() {
                for (k, &f) in subs.iter().enumerate() {
                    let w = Cplx::from_phase(-2.0 * std::f64::consts::PI * f * delay);
                    let at = i * subs.len() + k;
                    assert_eq!(w_re[at].to_bits(), w.re.to_bits(), "tap {i} tone {k}");
                    assert_eq!(w_im[at].to_bits(), w.im.to_bits(), "tap {i} tone {k}");
                }
            }
        }
    }

    #[test]
    fn twiddled_response_is_bit_exact() {
        // The precomputed-twiddle fast path must reproduce the reference
        // response bit-for-bit across times, speeds, and tap counts.
        let subs = ht20_subcarriers();
        for num_taps in [1, 3, 5] {
            let cfg = FadingConfig {
                num_taps,
                ..FadingConfig::default()
            };
            let ch = TappedDelayLine::new(&cfg, &mut SimRng::new(17 + num_taps as u64));
            let tw = ch.twiddles(&subs);
            for step in 0..50 {
                let t = step as f64 * 0.0073;
                let fd = 10.0 + step as f64 * 3.0;
                let reference = ch.freq_response(t, fd, &subs);
                let fast = response(&ch, t, fd, &tw);
                assert_same_bits(&fast, &reference, &format!("t={t} fd={fd}"));
            }
        }
    }

    impl Tap {
        /// What the lane pass in [`Tap::gain`] replaced: one scalar
        /// `Cplx::from_phase` per sinusoid.
        fn gain_ref(&self, t_s: f64, fd_hz: f64) -> Cplx {
            let two_pi = 2.0 * std::f64::consts::PI;
            let mut scattered = Cplx::ZERO;
            for s in &self.sinusoids {
                scattered += Cplx::from_phase(two_pi * fd_hz * s.cos_aoa * t_s + s.phase);
            }
            scattered = scattered.scale(self.scatter_norm);
            let los = Cplx::from_phase(two_pi * fd_hz * self.los_cos_aoa * t_s + self.los_phase)
                .scale(self.los_amp);
            scattered.scale(self.scattered_amp) + los
        }
    }

    #[test]
    fn lane_gain_matches_per_sinusoid_reference() {
        // Half a batch, whole batches, and whole batches plus a remainder.
        for num_sinusoids in [4, 16, 19] {
            let cfg = FadingConfig {
                num_sinusoids,
                ..FadingConfig::default()
            };
            let ch = TappedDelayLine::new(&cfg, &mut SimRng::new(40 + num_sinusoids as u64));
            // One Rician tap, whose LOS phasor is added, and Rayleigh taps,
            // which return before it.
            assert!(ch.taps[0].los_amp > 0.0);
            assert!(ch.taps[1..].iter().all(|tap| tap.los_amp == 0.0));
            for step in 0..400 {
                // Past t ≈ 900 s the fastest sinusoids' phases leave the
                // kernel's range while the slow ones stay inside, so late
                // batches mix patched and unpatched lanes.
                let t = step as f64 * 7.31;
                let fd = 20.0 + step as f64 * 0.4;
                for tap in &ch.taps {
                    let (lanes, scalar) = (tap.gain(t, fd), tap.gain_ref(t, fd));
                    assert_eq!(lanes.re.to_bits(), scalar.re.to_bits(), "t={t} fd={fd}");
                    assert_eq!(lanes.im.to_bits(), scalar.im.to_bits(), "t={t} fd={fd}");
                }
            }
        }
    }

    fn assert_same_bits(got: &[Cplx], want: &[Cplx], what: &str) {
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "{what}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "{what}");
        }
    }

    /// Default and odd-shaped lines (19 sinusoids leave a 3-lane last
    /// chunk), each with its twiddles over the HT20 grid.
    fn seeded_lines() -> Vec<(TappedDelayLine, Vec<f64>)> {
        let subs = ht20_subcarriers();
        let shapes = [(5, 16), (3, 19), (7, 12), (1, 4)];
        (0..12u64)
            .map(|seed| {
                let (num_taps, num_sinusoids) = shapes[seed as usize % shapes.len()];
                let cfg = FadingConfig {
                    num_taps,
                    num_sinusoids,
                    ..FadingConfig::default()
                };
                let ch = TappedDelayLine::new(&cfg, &mut SimRng::new(0xfade + seed));
                let tw = ch.twiddles(&subs);
                (ch, tw)
            })
            .collect()
    }

    /// `(t_s, fd_hz)` from rest to highway Doppler, into the times where
    /// some lanes leave `sincos`'s kernel range.
    fn instants() -> impl Iterator<Item = (f64, f64)> {
        (0..120).map(|step| (step as f64 * step as f64 * 0.093, step as f64 * 2.9))
    }

    #[test]
    fn kernel_entries_match_baseline_bodies() {
        // Each public entry dispatches on the CPU; its `_body`, called
        // from here, is compiled at the baseline width. Same bits.
        for (ch, tw) in seeded_lines() {
            let n = ch.num_taps();
            for (t, fd) in instants() {
                let what = format!("{n} taps, t={t} fd={fd}");
                let (mut entry, mut body) = ([0.0; 112], [1.0; 112]);
                ch.freq_response_into(t, fd, &tw, &mut entry);
                freq_response_body(&ch.taps, t, fd, &tw, &mut body);
                assert_same_bits(&joined(&entry), &joined(&body), &what);

                let mut gains = vec![Cplx::ZERO; n];
                let mut gains_ref = vec![Cplx::ONE; n];
                ch.gains_into(t, fd, &mut gains);
                gains_body(&ch.taps, t, fd, &mut gains_ref);
                assert_same_bits(&gains, &gains_ref, &what);

                ch.freq_response_from_gains(&gains, &tw, &mut entry);
                from_gains_body(&gains, &tw, &mut body);
                assert_same_bits(&joined(&entry), &joined(&body), &what);
            }
        }
    }

    #[test]
    fn split_response_is_bit_exact() {
        for (ch, tw) in seeded_lines() {
            for (t, fd) in instants() {
                let whole = response(&ch, t, fd, &tw);
                let mut gains = vec![Cplx::ZERO; ch.num_taps()];
                ch.gains_into(t, fd, &mut gains);
                let mut halves = [1.0; 112];
                ch.freq_response_from_gains(&gains, &tw, &mut halves);
                assert_same_bits(&joined(&halves), &whole, &format!("t={t} fd={fd}"));
                // And the gains bound every tone.
                let reach: f64 = gains.iter().map(|g| g.abs()).sum();
                for h in &whole {
                    assert!(
                        h.abs() <= reach * (1.0 + 1e-12),
                        "|H|={} > {reach}",
                        h.abs()
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_are_independent() {
        let a = tdl(1).power_gain(0.5, 50.0);
        let b = tdl(2).power_gain(0.5, 50.0);
        assert!((a - b).abs() > 1e-9);
    }

    #[test]
    fn channel_decorrelates_beyond_coherence_time() {
        // At fd = 54 Hz (15 mph at 2.4 GHz) coherence ≈ 7.8 ms. The gain
        // should be strongly correlated at dt ≪ Tc and visibly changed at
        // dt ≫ Tc.
        let fd = 54.0;
        let tc = coherence_time_s(fd);
        let mut small_dt_diff = 0.0;
        let mut large_dt_diff = 0.0;
        let mut n = 0.0;
        for seed in 0..30 {
            let ch = tdl(seed);
            for i in 0..10 {
                let t = 0.05 * i as f64;
                let g0 = ch.power_gain(t, fd);
                small_dt_diff += (ch.power_gain(t + tc * 0.02, fd) - g0).abs();
                large_dt_diff += (ch.power_gain(t + tc * 5.0, fd) - g0).abs();
                n += 1.0;
            }
        }
        assert!(
            small_dt_diff / n < large_dt_diff / n / 3.0,
            "small {small_dt_diff} vs large {large_dt_diff}"
        );
    }

    #[test]
    fn zero_speed_freezes_channel() {
        let ch = tdl(3);
        let g0 = ch.power_gain(0.0, 0.0);
        let g1 = ch.power_gain(10.0, 0.0);
        assert!((g0 - g1).abs() < 1e-12);
    }

    #[test]
    fn frequency_selectivity_present() {
        // With ~80 ns delay spread, subcarriers across 17.5 MHz must see
        // meaningfully different gains.
        let ch = tdl(11);
        let subs = ht20_subcarriers();
        let h = ch.freq_response(0.2, 30.0, &subs);
        let powers: Vec<f64> = h
            .iter()
            .map(|x| 10.0 * x.abs2().max(1e-12).log10())
            .collect();
        let max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min > 1.0, "spread {}", max - min);
    }

    #[test]
    fn single_tap_is_flat() {
        let cfg = FadingConfig {
            num_taps: 1,
            ..FadingConfig::default()
        };
        let ch = TappedDelayLine::new(&cfg, &mut SimRng::new(4));
        let subs = ht20_subcarriers();
        let h = ch.freq_response(0.3, 40.0, &subs);
        let p0 = h[0].abs2();
        for x in &h {
            assert!((x.abs2() - p0).abs() < 1e-9);
        }
    }

    #[test]
    fn high_k_reduces_fade_depth() {
        let deep = FadingConfig {
            rician_k_db: -20.0,
            ..FadingConfig::default()
        };
        let shallow = FadingConfig {
            rician_k_db: 15.0,
            num_taps: 1,
            ..FadingConfig::default()
        };
        let min_gain = |cfg: &FadingConfig| {
            let mut min: f64 = f64::INFINITY;
            for seed in 0..10 {
                let ch = TappedDelayLine::new(cfg, &mut SimRng::new(seed));
                for i in 0..400 {
                    min = min.min(ch.power_gain(i as f64 * 0.002, 54.0));
                }
            }
            min
        };
        assert!(min_gain(&shallow) > min_gain(&deep) * 5.0);
    }

    #[test]
    fn doppler_helpers() {
        // 15 mph = 6.7 m/s, λ = 0.122 m → fd ≈ 55 Hz.
        let fd = doppler_hz(6.7056, 0.1218);
        assert!((fd - 55.0).abs() < 1.0);
        // Coherence time ≈ 7.7 ms — same order as the paper's 2–3 ms claim.
        assert!((coherence_time_s(fd) - 0.0077).abs() < 0.001);
        assert_eq!(coherence_time_s(0.0), f64::INFINITY);
    }
}
