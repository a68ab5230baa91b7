//! Effective SNR (Halperin et al., SIGCOMM 2010).
//!
//! Plain average SNR (RSSI) over-estimates delivery probability on a
//! frequency-selective channel: one deeply faded subcarrier ruins a frame
//! even when the average looks healthy. Effective SNR fixes this by mapping
//! each subcarrier's SNR to an uncoded bit error rate for the modulation in
//! use, averaging the *error rates*, and mapping the average back to the
//! SNR that would produce it on a flat channel:
//!
//! ```text
//! ESNR_m = BER_m⁻¹( mean_k BER_m(SNR_k) )
//! ```
//!
//! This is the metric the WGTT controller compares across APs (§3.1.1 of
//! the paper).

use crate::csi::{Csi, NUM_SUBCARRIERS};
use crate::fastmath::{at_host_width, exp_lanes, LANES};
use crate::pathloss::linear_to_db;

/// Modulation schemes used by 802.11n single-stream MCS 0–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase shift keying (MCS 0).
    Bpsk,
    /// Quadrature PSK (MCS 1–2).
    Qpsk,
    /// 16-point QAM (MCS 3–4).
    Qam16,
    /// 64-point QAM (MCS 5–7).
    Qam64,
}

impl Modulation {
    /// All modulations, densest last — indexable by [`Modulation::index`].
    pub const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    /// Bits carried per subcarrier per symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Dense index into per-modulation tables (`ALL[m.index()] == m`).
    pub fn index(self) -> usize {
        match self {
            Modulation::Bpsk => 0,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
        }
    }
}

/// The exponent polynomial of the A&S 7.1.26 erfc approximation:
/// `erfc(z) = t·exp(−z² + B(t))` for `z ≥ 0`, `t = 1/(1 + z/2)`.
#[inline(always)]
fn erfc_poly(t: f64) -> f64 {
    -1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277))))))))
}

/// [`erfc`] up to its exponential: `(t, e)` with `erfc(|x|) = t·exp(e)`.
#[inline(always)]
fn erfc_exponent(x: f64) -> (f64, f64) {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    (t, -z * z + erfc_poly(t))
}

/// [`erfc`] from its exponential on, given `exp_e = exp(e)`.
#[inline(always)]
fn erfc_finish(x: f64, t: f64, exp_e: f64) -> f64 {
    let tau = t * exp_e;
    if x >= 0.0 {
        tau
    } else {
        2.0 - tau
    }
}

/// Complementary error function.
///
/// Abramowitz & Stegun 7.1.26-based rational approximation with |ε| ≤
/// 1.5·10⁻⁷, extended to the full real line by symmetry. Accurate enough
/// for BER work, where the inputs live within a few tens of dB. The inner
/// exponential uses the deterministic [`crate::fastmath::exp`] kernel, so
/// BER values do not depend on the host libm.
pub fn erfc(x: f64) -> f64 {
    let (t, e) = erfc_exponent(x);
    erfc_finish(x, t, crate::fastmath::exp(e))
}

/// `ln erfc(z)` and its derivative for `z ≥ 0`, from the closed form of the
/// same approximation [`erfc`] uses: `ln t − z² + B(t)`.
///
/// Evaluating the logarithm analytically never under- or overflows, which
/// is what lets [`ber_inverse`] run Newton's method at BERs far below the
/// smallest subnormal of the linear-domain function.
#[inline]
fn ln_erfc_with_deriv(z: f64) -> (f64, f64) {
    #[cfg(test)]
    tests::LN_ERFC_EVALS.with(|n| n.set(n.get() + 1));
    let t = 1.0 / (1.0 + 0.5 * z);
    let val = crate::fastmath::ln(t) - z * z + erfc_poly(t);
    // B'(t), then chain through dt/dz = −t²/2; d(ln t)/dz = −t/2.
    let bp = 1.00002368
        + t * (2.0 * 0.37409196
            + t * (3.0 * 0.09678418
                + t * (4.0 * -0.18628806
                    + t * (5.0 * 0.27886807
                        + t * (6.0 * -1.13520398
                            + t * (7.0 * 1.48851587
                                + t * (8.0 * -0.82215223 + t * (9.0 * 0.17087277))))))));
    let deriv = -0.5 * t - 2.0 * z - 0.5 * t * t * bp;
    (val, deriv)
}

/// The Gaussian Q-function, `Q(x) = ½·erfc(x/√2)`.
#[inline]
pub fn q_func(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Uncoded bit error rate for a modulation at symbol SNR `snr` (linear).
///
/// These are the standard Gray-coded approximations used by the ESNR paper:
///
/// * BPSK:   `Q(√(2γ))`
/// * QPSK:   `Q(√γ)`
/// * 16-QAM: `¾·Q(√(γ/5))`
/// * 64-QAM: `7⁄12·Q(√(γ/21))`
pub fn ber(modulation: Modulation, snr_linear: f64) -> f64 {
    let g = snr_linear.max(0.0);
    match modulation {
        Modulation::Bpsk => q_func((2.0 * g).sqrt()),
        Modulation::Qpsk => q_func(g.sqrt()),
        Modulation::Qam16 => 0.75 * q_func((g / 5.0).sqrt()),
        Modulation::Qam64 => (7.0 / 12.0) * q_func((g / 21.0).sqrt()),
    }
}

/// `(c, k)` such that `ber(m, g) = c·Q(√(g/k))`.
#[inline(always)]
fn q_params(modulation: Modulation) -> (f64, f64) {
    match modulation {
        Modulation::Bpsk => (1.0, 0.5),
        Modulation::Qpsk => (1.0, 1.0),
        Modulation::Qam16 => (0.75, 5.0),
        Modulation::Qam64 => (7.0 / 12.0, 21.0),
    }
}

/// Bits of `ber(m, 1e-9)` by [`Modulation::index`], at or above which
/// [`ber_inverse`] clamps to its lower bound; the upper clamp `ber(m, 1e9)`
/// is `0.0` for all four (`ber_clamps_match_live_ber` pins both to [`ber`]).
const BER_AT_SEARCH_LO: [u64; 4] = [
    0x3fdf_ffb5_3b19_1fc2,
    0x3fdf_ffcb_260e_4c6d,
    0x3fd7_ffee_4c98_a0ac,
    0x3fd2_aaa3_f7bb_ee4b,
];

/// Inverse of [`ber`]: the (linear) SNR at which the modulation attains the
/// given bit error rate.
///
/// Every modulation's BER is `c·Q(√(g/k))`, so inverting it is one erfc
/// inversion: solve `erfc(u) = 2·target/c` for `u = √(g/2k)`. A
/// probit-style initial guess is polished by safeguarded Newton iteration
/// on the analytic log-domain closed form of [`erfc`]'s approximation
/// ([`ln_erfc_with_deriv`]) — 3.6–3.7 evaluations a call as measured, 5
/// at most over the operating range (`inversion_stops_when_converged`;
/// DESIGN.md §6b), where the former geometric bisection needed ~46 full
/// BER evaluations, and immune to the underflow that makes the
/// linear-domain function flat at high SNR. A shrinking bracket guarantees
/// convergence even if a Newton step misfires.
pub fn ber_inverse(modulation: Modulation, target_ber: f64) -> f64 {
    // Outside the achievable range, clamp to the search bounds.
    let (lo, hi) = (1e-9, 1e9);
    if target_ber >= f64::from_bits(BER_AT_SEARCH_LO[modulation.index()]) {
        return lo;
    }
    if target_ber <= 0.0 {
        return hi;
    }
    let (c, k) = q_params(modulation);
    // After the clamps, erfc(u) = y has its root strictly inside
    // [√(lo/2k), √(hi/2k)] — erfc evaluated analytically in the log domain
    // cannot underflow, so the bracket endpoints need no special cases.
    let ln_y = crate::fastmath::ln(2.0 * target_ber / c);
    let mut blo = (lo / (2.0 * k)).sqrt();
    let mut bhi = (hi / (2.0 * k)).sqrt();
    let mut u = if ln_y > -std::f64::consts::LN_2 {
        // y > ½ ⇒ small root: erfc(u) ≈ 1 − 2u/√π.
        0.886_226_925_452_758 * (1.0 - crate::fastmath::exp(ln_y))
    } else {
        // Asymptotic tail: ln erfc(u) ≈ −u² − ln(u√π).
        let u0 = (-ln_y).sqrt();
        (-ln_y - crate::fastmath::ln(1.772_453_850_905_516 * u0))
            .max(0.25)
            .sqrt()
    }
    .clamp(blo, bhi);
    for _ in 0..80 {
        let (f, df) = ln_erfc_with_deriv(u);
        let g = f - ln_y;
        if g > 0.0 {
            blo = u; // erfc(u) still above the target ⇒ root is to the right
        } else {
            bhi = u;
        }
        let mut next = u - g / df;
        // The bracket guards only a step still moving: one within tolerance
        // (`g == 0` included, which lands on `bhi` itself) is for `done`.
        if (next - u).abs() > 1e-14 * u && !(next > blo && next < bhi) {
            next = (blo * bhi).sqrt(); // safeguard: geometric bisection step
        }
        let done = (next - u).abs() <= 1e-14 * u;
        u = next;
        if done {
            break;
        }
    }
    2.0 * k * u * u
}

/// `Σ ber(modulation, s)` over the tones, [`LANES`] at a time: the
/// Q-function argument and [`erfc`]'s two halves as lane loops around one
/// [`exp_lanes`], `(c, k)` looked up once. Each lane is the per-tone
/// [`ber`] bit for bit (`2g` is `g/½`, `1·q` is `q`) and the sum runs in
/// tone order, so the total is too (`ber_sum_matches_per_tone_reference`).
#[inline(always)]
fn ber_sum_body(modulation: Modulation, snr_linear: &[f64]) -> f64 {
    let (c, k) = q_params(modulation);
    let mut total = 0.0;
    for tones in snr_linear.chunks(LANES) {
        // A short last chunk's spare lanes are computed and not summed.
        let mut g = [0.0; LANES];
        g[..tones.len()].copy_from_slice(tones);
        let mut x = [0.0; LANES];
        let mut t = [0.0; LANES];
        let mut e = [0.0; LANES];
        for i in 0..LANES {
            x[i] = (g[i].max(0.0) / k).sqrt() / std::f64::consts::SQRT_2;
            (t[i], e[i]) = erfc_exponent(x[i]);
        }
        let e = exp_lanes(&e);
        for i in 0..tones.len() {
            total += c * (0.5 * erfc_finish(x[i], t[i], e[i]));
        }
    }
    total
}

at_host_width! {
    /// [`ber_sum_body`] at the host's vector width.
    fn ber_sum(modulation: Modulation, snr_linear: &[f64]) -> f64 = ber_sum_body;
}

/// Effective SNR in dB for a modulation given per-subcarrier linear SNRs.
pub fn esnr_db(modulation: Modulation, snr_linear: &[f64]) -> f64 {
    if snr_linear.is_empty() {
        return -300.0;
    }
    let mean_ber = ber_sum(modulation, snr_linear) / snr_linear.len() as f64;
    let e = linear_to_db(ber_inverse(modulation, mean_ber));
    // When every tone's BER underflows to zero the inversion saturates at
    // its search bound; physically the effective SNR can never exceed the
    // best tone.
    let max_tone = snr_linear.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    e.min(linear_to_db(max_tone))
}

/// Effective SNR in dB straight from a CSI measurement.
pub fn esnr_from_csi(modulation: Modulation, csi: &Csi) -> f64 {
    esnr_db(modulation, &csi.per_subcarrier_snr_linear())
}

/// Memoized per-modulation ESNR for **one** CSI snapshot.
///
/// The ESNR integration (56 BER evaluations plus a Newton inversion) is
/// the single hottest computation in the simulator: every MPDU delivery
/// draw, Block-ACK reception, rate-control decision, and controller CSI
/// report needs an ESNR, and one transmission queries the *same* snapshot
/// under several modulations (data MCS, QPSK control frames, the
/// controller's 16-QAM reference) — and an A-MPDU burst repeats the data-MCS
/// query once per MPDU. This memo computes the per-subcarrier SNR vector
/// once and each modulation's ESNR at most once, returning bit-identical
/// values to the corresponding [`esnr_from_csi`] calls (it delegates to the
/// same [`esnr_db`] on the same input — locked by `memo_matches_direct`).
pub struct EsnrMemo {
    snr_linear: [f64; NUM_SUBCARRIERS],
    cache: [Option<f64>; 4],
}

impl EsnrMemo {
    /// Captures the snapshot's per-subcarrier SNRs (computed once).
    pub fn new(csi: &Csi) -> Self {
        EsnrMemo {
            snr_linear: csi.per_subcarrier_snr_linear(),
            cache: [None; 4],
        }
    }

    /// The best tone's SNR in dB — an exact upper bound on
    /// [`Self::esnr_db`] for **every** modulation, since `esnr_db` clamps
    /// to it. One pass over the SNR vector, no BER work: rankers use it to
    /// skip the full integration for snapshots that cannot beat an
    /// incumbent (the comparison is bit-exact because the clamp inside
    /// `esnr_db` computes the identical fold).
    pub fn best_tone_db(&self) -> f64 {
        let max_tone = self
            .snr_linear
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        linear_to_db(max_tone)
    }

    /// The snapshot's ESNR in dB for `modulation`, computed on first use.
    pub fn esnr_db(&mut self, modulation: Modulation) -> f64 {
        let i = modulation.index();
        if let Some(v) = self.cache[i] {
            return v;
        }
        let v = esnr_db(modulation, &self.snr_linear);
        self.cache[i] = Some(v);
        v
    }
}

/// The scalar ESNR used by the WGTT controller for AP ranking.
///
/// The paper computes "the" ESNR of each reading; ranking quality is
/// insensitive to the reference modulation as long as it is applied
/// uniformly, and 16-QAM sits in the middle of the operating range, so we
/// adopt it as the reference.
pub fn controller_esnr_db(csi: &Csi) -> f64 {
    esnr_from_csi(Modulation::Qam16, csi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Cplx;
    use crate::pathloss::db_to_linear;
    use std::cell::Cell;

    thread_local! {
        /// [`ln_erfc_with_deriv`] calls made by this test thread.
        pub(super) static LN_ERFC_EVALS: Cell<u32> = const { Cell::new(0) };
    }

    /// The `ln erfc` evaluations `ber_inverse(m, target)` takes.
    fn inverse_evals(m: Modulation, target: f64) -> u32 {
        let before = LN_ERFC_EVALS.with(Cell::get);
        ber_inverse(m, target);
        LN_ERFC_EVALS.with(Cell::get) - before
    }

    /// The operating range in 0.05 dB steps, −10…+45 dB.
    fn operating_grid_db() -> impl Iterator<Item = f64> {
        (0..=1100).map(|i| -10.0 + 0.05 * i as f64)
    }

    /// Targets whose linear-domain [`ber`] underflows, so only the
    /// log-domain Newton iteration can follow them.
    const EXTREME_TARGETS: [f64; 4] = [1e-30, 1e-100, 1e-200, 1e-300];

    /// 16-QAM's BER ceiling is 0.375; this close to it rounding noise in
    /// the residual exceeds the step tolerance and the collapsed bracket,
    /// not Newton, ends the loop.
    const NOISE_FLOOR_CORNER: (Modulation, f64) = (Modulation::Qam16, 0.3749);

    #[test]
    fn erfc_reference_values() {
        // erfc(0) = 1, erfc(∞) → 0, erfc(−x) = 2 − erfc(x).
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(5.0) < 1e-11);
        assert!((erfc(-1.0) + erfc(1.0) - 2.0).abs() < 1e-7);
        // erfc(1) ≈ 0.157299.
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        // erfc(0.5) ≈ 0.479500.
        assert!((erfc(0.5) - 0.4795).abs() < 1e-4);
    }

    #[test]
    fn q_func_reference() {
        // Q(0) = 0.5, Q(1.6449) ≈ 0.05.
        assert!((q_func(0.0) - 0.5).abs() < 1e-6);
        assert!((q_func(1.6449) - 0.05).abs() < 1e-4);
    }

    #[test]
    fn ber_ordering_by_modulation() {
        // At a fixed SNR, denser constellations have a higher BER.
        let g = db_to_linear(12.0);
        assert!(ber(Modulation::Bpsk, g) < ber(Modulation::Qpsk, g));
        assert!(ber(Modulation::Qpsk, g) < ber(Modulation::Qam16, g));
        assert!(ber(Modulation::Qam16, g) < ber(Modulation::Qam64, g));
    }

    #[test]
    fn ber_decreasing_in_snr() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let mut prev = ber(m, db_to_linear(-5.0));
            for db in [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0] {
                let b = ber(m, db_to_linear(db));
                assert!(b < prev);
                prev = b;
            }
        }
    }

    #[test]
    fn ber_inverse_roundtrip() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            for db in [2.0, 8.0, 14.0, 20.0, 26.0] {
                let g = db_to_linear(db);
                let b = ber(m, g);
                if b > 1e-14 {
                    let back = ber_inverse(m, b);
                    assert!(
                        (linear_to_db(back) - db).abs() < 0.01,
                        "{m:?} {db} dB -> {} dB",
                        linear_to_db(back)
                    );
                }
            }
        }
    }

    #[test]
    fn ber_clamps_match_live_ber() {
        for m in Modulation::ALL {
            assert_eq!(
                BER_AT_SEARCH_LO[m.index()],
                ber(m, 1e-9).to_bits(),
                "{m:?} lower clamp"
            );
            assert_eq!(ber(m, 1e9).to_bits(), 0.0f64.to_bits(), "{m:?} upper clamp");
        }
    }

    /// The pre-Newton reference implementation: geometric bisection over
    /// the same [`ber`], kept to pin the fast inversion's accuracy.
    fn ber_inverse_bisect(modulation: Modulation, target_ber: f64) -> f64 {
        let (mut lo, mut hi) = (1e-9, 1e9);
        if target_ber >= ber(modulation, lo) {
            return lo;
        }
        if target_ber <= ber(modulation, hi) {
            return hi;
        }
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if ber(modulation, mid) > target_ber {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi / lo < 1.0 + 1e-12 {
                break;
            }
        }
        (lo * hi).sqrt()
    }

    /// Where bisection over the linear-domain [`ber`] cannot follow — the
    /// function has underflowed, or the target is a subnormal that has
    /// lost mantissa bits — the returned root is checked against the
    /// log-domain equation it solves instead.
    fn assert_no_log_residual(m: Modulation, target: f64) {
        let (c, k) = q_params(m);
        let u = (ber_inverse(m, target) / (2.0 * k)).sqrt();
        let ln_y = crate::fastmath::ln(2.0 * target / c);
        let residual = (ln_erfc_with_deriv(u).0 - ln_y).abs();
        assert!(
            residual <= 1e-12 * ln_y.abs(),
            "{m:?} target {target:e}: residual {residual:e}"
        );
    }

    #[test]
    fn newton_inverse_matches_bisection_reference() {
        for m in Modulation::ALL {
            // SNR grid from −80 to +80 dB: targets from ~c/2 down past the
            // underflow floor of the linear-domain erfc (where both sides
            // must clamp identically).
            let wide = (0..=400).map(|i| -80.0 + 0.4 * i as f64);
            for db in wide.chain(operating_grid_db()) {
                let t = ber(m, db_to_linear(db));
                if t > 0.0 && t < f64::MIN_POSITIVE {
                    assert_no_log_residual(m, t);
                    continue;
                }
                let got = ber_inverse(m, t);
                let want = ber_inverse_bisect(m, t);
                let rel = ((got - want) / want).abs();
                assert!(
                    rel < 1e-9,
                    "{m:?} target {t:e}: newton {got:e} vs bisect {want:e}"
                );
            }
            for t in EXTREME_TARGETS {
                assert_no_log_residual(m, t);
            }
        }
    }

    #[test]
    fn inversion_stops_when_converged() {
        for m in Modulation::ALL {
            let (mut total, mut calls, mut max) = (0u32, 0u32, 0u32);
            for db in operating_grid_db() {
                // Targets built from `ber` itself, so that Newton steps
                // landing exactly on the root occur.
                let n = inverse_evals(m, ber(m, db_to_linear(db)));
                if n > 0 {
                    total += n;
                    calls += 1;
                    max = max.max(n);
                }
            }
            assert!(max <= 6, "{m:?}: {max} evaluations in one call");
            let mean = total as f64 / calls as f64;
            assert!(mean <= 4.5, "{m:?}: mean {mean} over {calls} calls");
        }
        let (m, t) = NOISE_FLOOR_CORNER;
        let corner = inverse_evals(m, t);
        assert!(corner <= 10, "noise-floor corner: {corner} evaluations");
        for t in EXTREME_TARGETS {
            for m in Modulation::ALL {
                let n = inverse_evals(m, t);
                assert!(n <= 10, "{m:?} target {t:e}: {n} evaluations");
            }
        }
    }

    #[test]
    fn noise_floor_corner_returns_bracket_collapse_value() {
        let (m, t) = NOISE_FLOOR_CORNER;
        assert_eq!(
            ber_inverse(m, t).to_bits(),
            5.586240165874254e-7f64.to_bits()
        );
    }

    /// What [`ber_sum`] replaced in [`esnr_db`]: the per-tone scalar sum.
    fn ber_sum_ref(modulation: Modulation, snr_linear: &[f64]) -> f64 {
        snr_linear.iter().map(|&s| ber(modulation, s)).sum::<f64>()
    }

    #[test]
    fn ber_sum_matches_per_tone_reference() {
        let mut state = 0x7e57_ab1e_5eed_0001u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for m in Modulation::ALL {
            // Every length through the 56 tones and past them, so the
            // short last chunk is 1…7 lanes as well as absent.
            for len in 1..=60usize {
                for base_db in (-30..=50).step_by(4) {
                    // ±15 dB of selectivity about the base, then the tones
                    // a CSI can degenerate to, at random places. High bases
                    // push whole batches into the exp underflow band.
                    let mut snr: Vec<f64> = (0..len)
                        .map(|_| db_to_linear(base_db as f64 + 30.0 * (unit() - 0.5)))
                        .collect();
                    for odd in [0.0, -0.0, -3.5, f64::NAN, 1e9, f64::INFINITY] {
                        if unit() < 0.5 {
                            snr[(unit() * len as f64) as usize] = odd;
                        }
                    }
                    assert_eq!(
                        ber_sum(m, &snr).to_bits(),
                        ber_sum_ref(m, &snr).to_bits(),
                        "{m:?}, {len} tones at {base_db} dB: {snr:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ber_sum_entry_matches_baseline_body() {
        // `ber_sum` dispatches on the CPU; `ber_sum_body`, called from
        // here, is compiled at the baseline width. Same bits.
        let check = |m: Modulation, snr: &[f64]| {
            assert_eq!(
                ber_sum(m, snr).to_bits(),
                ber_sum_body(m, snr).to_bits(),
                "{m:?}: {snr:?}"
            );
        };
        for m in Modulation::ALL {
            // The operating grid as 56-tone vectors with a 12 dB tilt, and
            // as short vectors whose only chunk is partial.
            for db in operating_grid_db() {
                let tones: Vec<f64> = (0..56)
                    .map(|k| db_to_linear(db + 12.0 * (k as f64 / 55.0 - 0.5)))
                    .collect();
                check(m, &tones);
                check(m, &tones[..(db.abs() as usize % 7) + 1]);
            }
            // Batches across `exp`'s subnormal band and underflow edge
            // (the exponent is about −snr/2k; the band is −745…−708), a
            // NaN and zeros among them.
            for base in [690.0, 705.0, 730.0, 744.0] {
                let (_, k) = q_params(m);
                let mut tones: Vec<f64> =
                    (0..56).map(|i| 2.0 * k * (base + 0.5 * i as f64)).collect();
                check(m, &tones);
                tones[5] = f64::NAN;
                tones[9] = 0.0;
                tones[10] = -0.0;
                tones[31] = 0.0;
                check(m, &tones);
            }
            check(m, &[0.0; 56]);
            check(m, &[f64::NAN; 9]);
        }
    }

    #[test]
    fn flat_channel_esnr_equals_snr() {
        let snrs = vec![db_to_linear(18.0); 56];
        let e = esnr_db(Modulation::Qam16, &snrs);
        assert!((e - 18.0).abs() < 0.05, "esnr {e}");
    }

    #[test]
    fn flat_channel_esnr_is_the_tone_snr() {
        for m in Modulation::ALL {
            for i in 0..=160 {
                let db = -5.0 + 0.25 * i as f64;
                let e = esnr_db(m, &[db_to_linear(db); 56]);
                assert!((e - db).abs() <= 1e-9, "{m:?} at {db} dB: esnr {e}");
            }
        }
    }

    #[test]
    fn esnr_below_mean_on_selective_channel() {
        // 55 subcarriers at 25 dB, one at −5 dB: the mean SNR stays ≈24.9 dB
        // but ESNR must drop noticeably below it.
        let mut snrs = vec![db_to_linear(25.0); 55];
        snrs.push(db_to_linear(-5.0));
        let e = esnr_db(Modulation::Qam16, &snrs);
        assert!(e < 20.0, "esnr {e}");
        // And ESNR never exceeds the best subcarrier.
        assert!(e > -5.1);
    }

    #[test]
    fn esnr_from_csi_consistent() {
        let csi = Csi {
            h: [Cplx::ONE; 56],
            mean_snr_db: 21.0,
        };
        let e = esnr_from_csi(Modulation::Qam16, &csi);
        assert!((e - 21.0).abs() < 0.05);
        let c = controller_esnr_db(&csi);
        assert!((c - e).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_floor() {
        assert_eq!(esnr_db(Modulation::Qpsk, &[]), -300.0);
    }

    #[test]
    fn memo_matches_direct() {
        // The memo must be bit-identical to per-call esnr_from_csi — it is
        // a pure cache, not a numerical shortcut.
        let mut h = [Cplx::ZERO; 56];
        for (i, x) in h.iter_mut().enumerate() {
            let re = 0.3 + (i as f64 * 0.37).sin();
            let im = (i as f64 * 0.11).cos() * 0.8;
            *x = Cplx::new(re, im);
        }
        let csi = Csi {
            h,
            mean_snr_db: 17.3,
        };
        let mut memo = EsnrMemo::new(&csi);
        for m in Modulation::ALL {
            let direct = esnr_from_csi(m, &csi);
            // Repeated queries hit the cache and must not drift.
            assert_eq!(memo.esnr_db(m).to_bits(), direct.to_bits(), "{m:?}");
            assert_eq!(memo.esnr_db(m).to_bits(), direct.to_bits(), "{m:?}");
        }
    }

    #[test]
    fn best_tone_bounds_every_modulation() {
        let mut h = [Cplx::ZERO; 56];
        for (i, x) in h.iter_mut().enumerate() {
            *x = Cplx::new(0.2 + (i as f64 * 0.53).sin(), (i as f64 * 0.29).cos() * 1.1);
        }
        for snr in [-3.0, 8.0, 19.0, 33.0] {
            let csi = Csi {
                h,
                mean_snr_db: snr,
            };
            let mut memo = EsnrMemo::new(&csi);
            let bound = memo.best_tone_db();
            for m in Modulation::ALL {
                assert!(memo.esnr_db(m) <= bound, "{m:?} at {snr} dB");
            }
        }
    }

    #[test]
    fn modulation_index_roundtrip() {
        for (i, m) in Modulation::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn esnr_saturates_at_best_tone() {
        // BER underflow at very high SNR must not blow ESNR past the best
        // subcarrier.
        let snrs = vec![db_to_linear(34.5)];
        let e = esnr_db(Modulation::Bpsk, &snrs);
        assert!((e - 34.5).abs() < 0.01, "esnr {e}");
    }

    #[test]
    fn bits_per_symbol() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
        assert_eq!(Modulation::Qam64.bits_per_symbol(), 6);
    }
}
