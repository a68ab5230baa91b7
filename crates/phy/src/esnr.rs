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
//! the paper). `BER_m` and its inverse both read one table per modulation,
//! sampled from [`ber`] (DESIGN.md §6b, "BER tables").

use crate::csi::{Csi, NUM_SUBCARRIERS};
use crate::pathloss::linear_to_db;
use std::sync::OnceLock;

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

/// Complementary error function.
///
/// Abramowitz & Stegun 7.1.26-based rational approximation with |ε| ≤
/// 1.5·10⁻⁷, extended to the full real line by symmetry. Accurate enough
/// for BER work, where the inputs live within a few tens of dB. The inner
/// exponential uses the deterministic [`crate::fastmath::exp`] kernel, so
/// BER values do not depend on the host libm.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let tau = t * crate::fastmath::exp(-z * z + erfc_poly(t));
    if x >= 0.0 {
        tau
    } else {
        2.0 - tau
    }
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
///
/// The one definition of the curve: [`esnr_db`] and [`ber_inverse`] read a
/// table sampled from it.
pub fn ber(modulation: Modulation, snr_linear: f64) -> f64 {
    let g = snr_linear.max(0.0);
    match modulation {
        Modulation::Bpsk => q_func((2.0 * g).sqrt()),
        Modulation::Qpsk => q_func(g.sqrt()),
        Modulation::Qam16 => 0.75 * q_func((g / 5.0).sqrt()),
        Modulation::Qam64 => (7.0 / 12.0) * q_func((g / 21.0).sqrt()),
    }
}

/// log₂ of the [`BerTable`] cells per octave of SNR.
const CELL_BITS: u32 = 8;
/// Mantissa bits below a cell's index: the interpolation fraction.
const FRAC_BITS: u32 = 52 - CELL_BITS;
/// What one unit of the fraction's bits is worth: `2^−FRAC_BITS`.
const FRAC_SCALE: f64 = 1.0 / (1u64 << FRAC_BITS) as f64;
/// Bits of the bottom node's SNR, 2⁻²⁰ (−60.2 dB): a tone of a link in
/// range (mean SNR ≥ −2 dB) is below it only in a 58 dB notch, about once
/// in a million tones of the fading model.
const BOTTOM_BITS: u64 = (1023 - 20) << 52;
/// Nodes per table: 2⁻²⁰ up to 2¹⁵ (45.2 dB) in 35 octaves. Every
/// modulation's [`ber`] is exactly 0 before the top (64-QAM's from
/// ≈ 2^14.93 on).
const NODES: usize = (35 << CELL_BITS) + 1;

/// The SNR (linear) of table node `i`: the bottom's bits plus `i` cells.
fn node_snr(i: usize) -> f64 {
    f64::from_bits(BOTTOM_BITS + ((i as u64) << FRAC_BITS))
}

/// One modulation's [`ber`] at the nodes `2^e·(1 + j/2^CELL_BITS)`, from
/// 2⁻²⁰ up: the exponent and top [`CELL_BITS`] mantissa bits of an SNR's
/// `f64` name its cell, so the grid is log-spaced without a `log` call,
/// and a straight line joins neighbouring nodes.
struct BerTable {
    /// `ber(m, node_snr(i))`, strictly decreasing up to `zero`.
    ber: [f64; NODES],
    /// The first node whose BER is subnormal.
    subnormal: usize,
    /// The first node whose BER is exactly 0.
    zero: usize,
}

impl BerTable {
    fn new(modulation: Modulation) -> Self {
        let mut ber = [0.0; NODES];
        for (i, b) in ber.iter_mut().enumerate() {
            *b = self::ber(modulation, node_snr(i));
        }
        let first = |p: fn(f64) -> bool| ber.iter().position(|&b| p(b)).unwrap_or(NODES - 1);
        BerTable {
            subnormal: first(|b| b < f64::MIN_POSITIVE),
            zero: first(|b| b == 0.0),
            ber,
        }
    }

    /// [`ber`] at `snr_linear`, read off the table: the line between the
    /// cell's two nodes at the fraction the remaining mantissa bits give —
    /// no division, no logarithm. Off the lines it is [`ber`] itself: below
    /// the bottom node (and for NaN), and from the first subnormal node up,
    /// where a BER keeps too few bits for a line and a mean of such BERs
    /// can round to 0 (so the same tone sets round to 0 as with `ber`) —
    /// except that from the zero node on it is 0 without asking.
    #[inline]
    fn ber_at(&self, modulation: Modulation, snr_linear: f64) -> f64 {
        if snr_linear.is_nan() || snr_linear < f64::from_bits(BOTTOM_BITS) {
            return ber(modulation, snr_linear);
        }
        let above = snr_linear.to_bits() - BOTTOM_BITS;
        let i = (above >> FRAC_BITS) as usize;
        if i >= self.subnormal {
            return if i >= self.zero {
                0.0
            } else {
                ber(modulation, snr_linear)
            };
        }
        let f = (above & ((1 << FRAC_BITS) - 1)) as f64 * FRAC_SCALE;
        let b = self.ber[i];
        b + f * (self.ber[i + 1] - b)
    }

    /// The SNR whose table BER is `target`: the cell whose nodes bracket
    /// it, by binary search, then the same line solved for the fraction.
    /// So it reads [`Self::ber_at`] backwards to rounding, and, the table
    /// being monotone, a mean of table BERs never inverts above the best
    /// tone. Clamps: a target at or above the bottom node's BER gives the
    /// bottom node's SNR; a target of 0 (or NaN) gives +∞ — BER is 0 from
    /// the zero node all the way up, and [`esnr_db`] clamps to its best
    /// tone.
    fn snr_at(&self, target: f64) -> f64 {
        if target >= self.ber[0] {
            return node_snr(0);
        }
        if target.is_nan() || target <= 0.0 {
            return f64::INFINITY;
        }
        // ber[i] ≥ target > ber[i + 1], i + 1 ≤ zero.
        let i = self.ber[..=self.zero].partition_point(|&b| b >= target) - 1;
        let (hi, lo) = (self.ber[i], self.ber[i + 1]);
        let g = node_snr(i);
        g + (hi - target) / (hi - lo) * (node_snr(i + 1) - g)
    }
}

/// The four tables by [`Modulation::index`], each filled in static memory on
/// its modulation's first use — never on the heap.
static TABLES: [OnceLock<BerTable>; 4] = [
    OnceLock::new(),
    OnceLock::new(),
    OnceLock::new(),
    OnceLock::new(),
];

fn table(modulation: Modulation) -> &'static BerTable {
    TABLES[modulation.index()].get_or_init(|| BerTable::new(modulation))
}

/// Inverse of [`ber`]: the (linear) SNR at which the modulation attains the
/// given bit error rate, read backwards off the table [`esnr_db`] sums
/// with. A target at or above the BER of 2⁻²⁰ (−60.2 dB) gives 2⁻²⁰; a
/// target of 0 gives +∞.
pub fn ber_inverse(modulation: Modulation, target_ber: f64) -> f64 {
    table(modulation).snr_at(target_ber)
}

/// Effective SNR in dB for a modulation given per-subcarrier linear SNRs.
pub fn esnr_db(modulation: Modulation, snr_linear: &[f64]) -> f64 {
    if snr_linear.is_empty() {
        return -300.0;
    }
    let table = table(modulation);
    // In tone order: a pairwise sum would move the last bit.
    let (mut total, mut max_tone) = (0.0, f64::NEG_INFINITY);
    for &g in snr_linear {
        total += table.ber_at(modulation, g);
        max_tone = max_tone.max(g);
    }
    let mean_ber = total / snr_linear.len() as f64;
    let e = linear_to_db(table.snr_at(mean_ber));
    // The table is monotone, so the inversion exceeds the best tone only by
    // rounding, or by saying +∞ when every tone's BER is 0; physically the
    // effective SNR can never exceed the best tone.
    e.min(linear_to_db(max_tone))
}

/// Effective SNR in dB straight from a CSI measurement.
pub fn esnr_from_csi(modulation: Modulation, csi: &Csi) -> f64 {
    esnr_db(modulation, &csi.per_subcarrier_snr_linear())
}

/// Memoized per-modulation ESNR for **one** CSI snapshot.
///
/// The ESNR integration (56 table reads plus one table search) is the
/// single hottest computation in the simulator: every MPDU delivery
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
        Self::from_snr_linear(csi.per_subcarrier_snr_linear())
    }

    /// A memo over tone SNRs formed by [`crate::csi::tone_snrs`].
    pub(crate) fn from_snr_linear(snr_linear: [f64; NUM_SUBCARRIERS]) -> Self {
        EsnrMemo {
            snr_linear,
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

    // The reference the tables replaced: the per-tone `ber` sum and a
    // safeguarded Newton inverse on the closed-form log of `erfc`.

    /// `(c, k)` such that `ber(m, g) = c·Q(√(g/k))`.
    fn q_params(modulation: Modulation) -> (f64, f64) {
        match modulation {
            Modulation::Bpsk => (1.0, 0.5),
            Modulation::Qpsk => (1.0, 1.0),
            Modulation::Qam16 => (0.75, 5.0),
            Modulation::Qam64 => (7.0 / 12.0, 21.0),
        }
    }

    /// Bits of `ber(m, 1e-9)` by [`Modulation::index`], at or above which
    /// [`ber_inverse_newton`] clamps to its lower bound; the upper clamp
    /// `ber(m, 1e9)` is `0.0` for all four (`ber_clamps_match_live_ber`).
    const BER_AT_SEARCH_LO: [u64; 4] = [
        0x3fdf_ffb5_3b19_1fc2,
        0x3fdf_ffcb_260e_4c6d,
        0x3fd7_ffee_4c98_a0ac,
        0x3fd2_aaa3_f7bb_ee4b,
    ];

    /// `ln erfc(z)` and its derivative for `z ≥ 0`, from the closed form of
    /// the approximation [`erfc`] uses: `ln t − z² + B(t)`. Analytic, so it
    /// never under- or overflows.
    fn ln_erfc_with_deriv(z: f64) -> (f64, f64) {
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

    /// The inverse of [`ber`] by Newton's method on `ln erfc`: a
    /// probit-style first guess, a shrinking bracket guarding every step
    /// still moving, clamps at the search bounds 1e-9 / 1e9.
    fn ber_inverse_newton(modulation: Modulation, target_ber: f64) -> f64 {
        let (lo, hi) = (1e-9, 1e9);
        if target_ber >= f64::from_bits(BER_AT_SEARCH_LO[modulation.index()]) {
            return lo;
        }
        if target_ber <= 0.0 {
            return hi;
        }
        let (c, k) = q_params(modulation);
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
                blo = u;
            } else {
                bhi = u;
            }
            let mut next = u - g / df;
            if (next - u).abs() > 1e-14 * u && !(next > blo && next < bhi) {
                next = (blo * bhi).sqrt();
            }
            let done = (next - u).abs() <= 1e-14 * u;
            u = next;
            if done {
                break;
            }
        }
        2.0 * k * u * u
    }

    /// [`esnr_db`] as it was before the tables: every tone through [`ber`],
    /// summed in tone order, inverted by [`ber_inverse_newton`], clamped to
    /// the best tone.
    fn esnr_db_ref(modulation: Modulation, snr_linear: &[f64]) -> f64 {
        let total: f64 = snr_linear.iter().map(|&s| ber(modulation, s)).sum();
        let mean_ber = total / snr_linear.len() as f64;
        let e = linear_to_db(ber_inverse_newton(modulation, mean_ber));
        let max_tone = snr_linear.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        e.min(linear_to_db(max_tone))
    }

    /// The operating range in 0.05 dB steps, −10…+45 dB.
    fn operating_grid_db() -> impl Iterator<Item = f64> {
        (0..=1100).map(|i| -10.0 + 0.05 * i as f64)
    }

    /// Deterministic xorshift in [0, 1).
    fn xorshift(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The 56 tone power gains `|H_k|²` of a seeded five-tap Rayleigh
    /// channel, unit mean power: taps 100 ns apart with an exponential
    /// power-delay profile (100 ns), Box–Muller tap gains.
    fn rayleigh_tones(seed: u64) -> [f64; NUM_SUBCARRIERS] {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let powers: Vec<f64> = (0..5).map(|i| (-(i as f64)).exp()).collect();
        let norm: f64 = powers.iter().sum();
        let taps: Vec<Cplx> = powers
            .iter()
            .map(|p| {
                let r = (-2.0 * (1.0 - xorshift(&mut s)).ln()).sqrt();
                let th = 2.0 * std::f64::consts::PI * xorshift(&mut s);
                Cplx::new(r * th.cos(), r * th.sin()).scale((p / norm / 2.0).sqrt())
            })
            .collect();
        let offsets = crate::csi::subcarrier_offsets_hz();
        let mut out = [0.0; NUM_SUBCARRIERS];
        for (o, f) in out.iter_mut().zip(offsets) {
            let mut h = Cplx::ZERO;
            for (i, tap) in taps.iter().enumerate() {
                let th = -2.0 * std::f64::consts::PI * f * 100e-9 * i as f64;
                h += *tap * Cplx::new(th.cos(), th.sin());
            }
            *o = h.abs2();
        }
        out
    }

    #[test]
    fn table_esnr_matches_reference_within_a_hundredth_of_a_db() {
        let rayleigh: Vec<_> = (0..64).map(rayleigh_tones).collect();
        for m in Modulation::ALL {
            let mut worst = (0.0f64, String::new());
            let mut check = |snr: &[f64], what: &dyn Fn() -> String| {
                let got = esnr_db(m, snr);
                let want = esnr_db_ref(m, snr);
                let best = linear_to_db(snr.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
                assert!(got <= best, "{m:?} {}: {got} above the best tone", what());
                let d = (got - want).abs();
                assert!(
                    d <= 0.01,
                    "{m:?} {}: table {got} vs reference {want}",
                    what()
                );
                if d > worst.0 {
                    worst = (d, what());
                }
            };
            for (n, db) in operating_grid_db().enumerate() {
                // 56 tones under a 12 dB tilt, and their first one to
                // seven tones.
                let tilted: Vec<f64> = (0..56)
                    .map(|k| db_to_linear(db + 12.0 * (k as f64 / 55.0 - 0.5)))
                    .collect();
                check(&tilted, &|| format!("tilted at {db} dB"));
                for len in 1..=7 {
                    check(&tilted[..len], &|| format!("{len} tones at {db} dB"));
                }
                for j in 0..3 {
                    let seed = (3 * n + j) % rayleigh.len();
                    let base = db_to_linear(db);
                    let tones: Vec<f64> = rayleigh[seed].iter().map(|g| base * g).collect();
                    check(&tones, &|| format!("Rayleigh {seed} at {db} dB"));
                }
            }
            println!("{m:?}: |ΔESNR| ≤ {:.5} dB ({})", worst.0, worst.1);
        }
    }

    #[test]
    fn table_is_the_reference_ber_strictly_decreasing_to_its_zero() {
        for m in Modulation::ALL {
            let t = table(m);
            for (i, b) in t.ber.iter().enumerate() {
                assert_eq!(b.to_bits(), ber(m, node_snr(i)).to_bits(), "{m:?} node {i}");
            }
            for i in 0..t.zero {
                assert!(t.ber[i] > t.ber[i + 1], "{m:?} node {i}");
            }
            // The zero lies inside the table, and stays zero to its top;
            // the subnormal BERs come just before it.
            assert!(t.zero < NODES - 1, "{m:?}: BER never reaches 0");
            assert!(t.ber[t.zero..].iter().all(|&b| b == 0.0), "{m:?}");
            assert!(t.ber[t.subnormal - 1] >= f64::MIN_POSITIVE);
            assert!(t.ber[t.subnormal] < f64::MIN_POSITIVE && t.subnormal < t.zero);
            // The bottom is below anything a link in range (mean SNR of
            // −2 dB or more) shows outside a 58 dB notch.
            assert!(linear_to_db(node_snr(0)) < -60.0);
        }
    }

    #[test]
    fn out_of_range_reads_are_the_reference_and_the_clamps() {
        for m in Modulation::ALL {
            let t = table(m);
            let bottom = node_snr(0);
            for g in [bottom * 0.999, 1e-9, 0.0, -0.0, -3.5, f64::NAN] {
                assert_eq!(
                    t.ber_at(m, g).to_bits(),
                    ber(m, g).to_bits(),
                    "{m:?} at {g}"
                );
            }
            let top = node_snr(t.zero);
            for g in [top, top * 1.5, 1e9, f64::INFINITY] {
                assert_eq!(t.ber_at(m, g), 0.0, "{m:?} at {g}");
                assert_eq!(ber(m, g), 0.0, "{m:?} at {g}");
            }
            for i in t.subnormal..t.zero {
                for g in [node_snr(i), 0.5 * (node_snr(i) + node_snr(i + 1))] {
                    assert_eq!(
                        t.ber_at(m, g).to_bits(),
                        ber(m, g).to_bits(),
                        "{m:?} at {g}"
                    );
                }
            }
            assert_eq!(ber_inverse(m, t.ber[0]), bottom);
            assert_eq!(ber_inverse(m, 0.6), bottom);
            assert_eq!(ber_inverse(m, 0.0), f64::INFINITY);
        }
    }

    #[test]
    fn inverse_reads_the_table_backwards() {
        let mut s = 0x1ab1_e5ea_5c0d_e5edu64;
        for m in Modulation::ALL {
            let t = table(m);
            let top = node_snr(t.zero);
            for _ in 0..20_000 {
                // Log-uniform from the bottom node to the zero node.
                let g = node_snr(0) * (top / node_snr(0)).powf(xorshift(&mut s));
                let b = t.ber_at(m, g);
                // Below the normal range a BER keeps too few bits to say
                // which SNR it came from.
                if b < f64::MIN_POSITIVE {
                    continue;
                }
                let back = ber_inverse(m, b);
                assert!(
                    ((back - g) / g).abs() <= 1e-11,
                    "{m:?} {g:e}: ber {b:e} inverts to {back:e}"
                );
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

    /// Geometric bisection over the same [`ber`]: the reference's reference.
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
        let u = (ber_inverse_newton(m, target) / (2.0 * k)).sqrt();
        let ln_y = crate::fastmath::ln(2.0 * target / c);
        let residual = (ln_erfc_with_deriv(u).0 - ln_y).abs();
        assert!(
            residual <= 1e-12 * ln_y.abs(),
            "{m:?} target {target:e}: residual {residual:e}"
        );
    }

    #[test]
    fn newton_reference_matches_bisection() {
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
                let got = ber_inverse_newton(m, t);
                let want = ber_inverse_bisect(m, t);
                let rel = ((got - want) / want).abs();
                assert!(
                    rel < 1e-9,
                    "{m:?} target {t:e}: newton {got:e} vs bisect {want:e}"
                );
            }
            for t in [1e-30, 1e-100, 1e-200, 1e-300] {
                assert_no_log_residual(m, t);
            }
        }
    }

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
