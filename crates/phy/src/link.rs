//! One wireless link: AP site ⇄ client, end to end.
//!
//! [`WirelessLink`] composes the whole physical chain — geometry, antenna
//! pattern, path loss, link budget, and a dedicated fading realization —
//! into the two queries the upper layers actually ask:
//!
//! * *what channel would a frame observe right now?* (the ESNR memo of
//!   [`WirelessLink::memo`]; a beacon's also carries its RSSI,
//!   [`WirelessLink::beacon`]),
//! * *would this frame get through?* (success probability via
//!   [`crate::error::PerModel`]).
//!
//! Reciprocity: the same channel realization serves both directions, which
//! is physically sound for TDD operation on one frequency and is exactly
//! the premise WGTT relies on — CSI measured from client *uplink* frames
//! predicts *downlink* delivery (§3.1.1 of the paper).

use crate::antenna::ParabolicAntenna;
use crate::complex::Cplx;
use crate::csi::{rssi_db, subcarrier_offsets_hz, tone_snrs, Csi, NUM_SUBCARRIERS};
use crate::esnr::EsnrMemo;
use crate::fading::{doppler_hz, FadingConfig, TappedDelayLine};
use crate::fastmath::log10;
use crate::geom::{ApSite, Position};
use crate::pathloss::{LinkBudget, PathLoss};
use crate::shadowing::{ShadowingConfig, ShadowingProcess};
use serde::Serialize;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use wgtt_sim::pool::lock;
use wgtt_sim::{SimRng, SimTime};

/// Static configuration shared by all links in a deployment.
#[derive(Debug, Clone, Serialize)]
pub struct LinkConfig {
    /// Large-scale propagation model.
    pub pathloss: PathLoss,
    /// Power/noise budget.
    pub budget: LinkBudget,
    /// Fast-fading process parameters.
    pub fading: FadingConfig,
    /// AP antenna (directional in the paper's testbed).
    pub ap_antenna: ParabolicAntenna,
    /// Client antenna gain, dBi (laptop ≈ 0–2 dBi).
    pub client_antenna_dbi: f64,
    /// Optional spatially correlated shadowing (σ = 0 disables it).
    pub shadowing: ShadowingConfig,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            pathloss: PathLoss::default(),
            budget: LinkBudget::default(),
            fading: FadingConfig::default(),
            ap_antenna: ParabolicAntenna::default(),
            client_antenna_dbi: 0.0,
            shadowing: ShadowingConfig::default(),
        }
    }
}

/// Memoized large-scale SNR for one exact client position (f64 bit
/// patterns). Geometry, path loss, antenna gain, and shadowing depend only
/// on position, and the upper layers query the same position many times per
/// event (per-MPDU delivery, monitor sweeps, oracle sampling) before the
/// client moves — so a one-slot cache absorbs almost every repeat. Keying
/// on exact bits keeps the cached path bit-identical to the uncached one.
#[derive(Debug, Clone, Copy)]
struct GeoCache {
    x_bits: u64,
    y_bits: u64,
    z_bits: u64,
    snr_db: f64,
}

/// The HT20 twiddle matrix of `fading`, built from `cfg`: the first link of a
/// tap count and delay spread (all the delays follow from) builds it, every
/// later one in the process shares it. Kept for the process's life.
fn shared_twiddles(cfg: &FadingConfig, fading: &TappedDelayLine) -> Arc<[f64]> {
    type Profile = (usize, u64);
    static MATRICES: Mutex<Vec<(Profile, Arc<[f64]>)>> = Mutex::new(Vec::new());
    let profile = (cfg.num_taps, cfg.rms_delay_spread_ns.to_bits());
    let mut matrices = lock(&MATRICES);
    if let Some((_, m)) = matrices.iter().find(|(p, _)| *p == profile) {
        return Arc::clone(m);
    }
    let m: Arc<[f64]> = fading.twiddles(&subcarrier_offsets_hz()).into();
    matrices.push((profile, Arc::clone(&m)));
    m
}

/// A response as the fading kernels write it: real parts, then imaginary.
type Split = [f64; 2 * NUM_SUBCARRIERS];

/// Tone `k` of a split response.
fn tone(split: &Split) -> impl Fn(usize) -> Cplx + '_ {
    let (re, im) = split.split_at(NUM_SUBCARRIERS);
    move |k| Cplx::new(re[k], im[k])
}

/// The live channel between one AP site and one client.
#[derive(Debug, Clone)]
pub struct WirelessLink {
    ap: ApSite,
    cfg: LinkConfig,
    fading: TappedDelayLine,
    shadowing: ShadowingProcess,
    /// The split twiddle matrix, shared by every link of these delays.
    twiddles: Arc<[f64]>,
    /// Static ceiling of any tone's SNR over the mean, in dB (see
    /// [`Self::peak_tone_headroom_db`]).
    peak_tone_headroom_db: f64,
    /// [`TappedDelayLine::reach_rate`].
    reach_rate: f64,
    geo: Cell<Option<GeoCache>>,
    /// `(u₀ = f_d·t, Σ_i |g_i|)` of the last [`Self::tap_gains`].
    reach: Cell<Option<(f64, f64)>>,
}

impl WirelessLink {
    /// Creates a link with its own fading realization drawn from `rng`.
    ///
    /// Callers should fork `rng` per (AP, client) pair so channel
    /// realizations are independent and stable (see [`SimRng::fork`]).
    pub fn new(ap: ApSite, cfg: LinkConfig, rng: &mut SimRng) -> Self {
        let fading = TappedDelayLine::new(&cfg.fading, rng);
        let shadowing = ShadowingProcess::new(&cfg.shadowing, rng);
        let twiddles = shared_twiddles(&cfg.fading, &fading);
        // 1 µdB of slack swamps every rounding step in the bound's
        // derivation while staying far below physical significance.
        let peak_tone_headroom_db = 20.0 * log10(fading.peak_gain_bound()) + 1e-6;
        WirelessLink {
            ap,
            cfg,
            reach_rate: fading.reach_rate(),
            fading,
            shadowing,
            twiddles,
            peak_tone_headroom_db,
            geo: Cell::new(None),
            reach: Cell::new(None),
        }
    }

    /// Conservative dB headroom of any tone over the mean SNR: no fading
    /// realization can lift a subcarrier's SNR above
    /// `mean_snr_db + headroom` (see
    /// [`TappedDelayLine::peak_gain_bound`]). Static per link.
    pub fn peak_tone_headroom_db(&self) -> f64 {
        self.peak_tone_headroom_db
    }

    /// The AP site of this link.
    pub fn ap_site(&self) -> &ApSite {
        &self.ap
    }

    /// Large-scale (no fast fading) SNR in dB toward a client position,
    /// including the shadowing offset when enabled.
    ///
    /// Memoized for the last queried position (exact f64 bits), so repeat
    /// queries between client moves skip the geometry/path-loss/antenna
    /// chain (bit-identical to recomputing it: `geometry_cache_is_bit_exact`).
    pub fn mean_snr_db(&self, client: &Position) -> f64 {
        let (xb, yb, zb) = (client.x.to_bits(), client.y.to_bits(), client.z.to_bits());
        if let Some(c) = self.geo.get() {
            if c.x_bits == xb && c.y_bits == yb && c.z_bits == zb {
                return c.snr_db;
            }
        }
        let snr_db = self.mean_snr_db_uncached(client);
        self.geo.set(Some(GeoCache {
            x_bits: xb,
            y_bits: yb,
            z_bits: zb,
            snr_db,
        }));
        snr_db
    }

    /// The cache-miss body of [`Self::mean_snr_db`].
    fn mean_snr_db_uncached(&self, client: &Position) -> f64 {
        let d = self.ap.distance_to(client);
        let theta = self.ap.off_boresight(client);
        let pl = self.cfg.pathloss.loss_db(d);
        self.cfg.budget.mean_snr_db(
            pl,
            self.cfg.ap_antenna.gain_dbi(theta),
            self.cfg.client_antenna_dbi,
        ) + self.shadowing.offset_db(client.x)
    }

    /// Full CSI snapshot at time `t` for a client at `client` moving at
    /// `speed_mps`.
    ///
    /// Computed through the shared-twiddle fading path and the position
    /// memo of [`Self::mean_snr_db`] — bit-identical to the plain
    /// [`TappedDelayLine::freq_response`] chain (the tests' `csi_uncached`,
    /// locked by `csi_cache_is_bit_exact`).
    ///
    /// Hidden from the docs with [`Csi`]: the program reads [`Self::memo`];
    /// this stays for the benchmark's kernels and as the tests' reference.
    #[doc(hidden)]
    pub fn csi(&self, t: SimTime, client: &Position, speed_mps: f64) -> Csi {
        let split = self.response(t, speed_mps);
        Csi {
            h: std::array::from_fn(tone(&split)),
            mean_snr_db: self.mean_snr_db(client),
        }
    }

    /// The ESNR memo of the channel at time `t` for a client at `client`
    /// moving at `speed_mps`: `EsnrMemo::new(&self.csi(..))`, bit for bit,
    /// sans `Csi`. Not memoized itself: under 0.14 % of snapshot queries
    /// repeat the previous one on any benchmark workload.
    pub fn memo(&self, t: SimTime, client: &Position, speed_mps: f64) -> EsnrMemo {
        self.memo_from_response(client, &self.response(t, speed_mps))
    }

    /// [`Self::memo`] and the RSSI in dB a client reads off the same
    /// response (what a beacon is heard on and what it measures), from one
    /// fading evaluation.
    pub fn beacon(&self, t: SimTime, client: &Position, speed_mps: f64) -> (EsnrMemo, f64) {
        let split = self.response(t, speed_mps);
        let rssi = rssi_db(self.mean_snr_db(client), tone(&split));
        (self.memo_from_response(client, &split), rssi)
    }

    /// The response at `t`.
    fn response(&self, t: SimTime, speed_mps: f64) -> Split {
        let fd = doppler_hz(speed_mps, self.cfg.pathloss.wavelength_m());
        let mut out = [0.0; 2 * NUM_SUBCARRIERS];
        (self.fading).freq_response_into(t.as_secs_f64(), fd, &self.twiddles, &mut out);
        out
    }

    /// The memo of a split response, its tone SNRs formed as a `Csi`'s are.
    fn memo_from_response(&self, client: &Position, split: &Split) -> EsnrMemo {
        EsnrMemo::from_snr_linear(tone_snrs(self.mean_snr_db(client), tone(split)))
    }

    /// The first half of [`Self::memo`]: the fading taps' complex gains at
    /// time `t` for a client moving at `speed_mps`, into `gains` (resized to
    /// the tap count; a caller ranking many links loans one buffer to all).
    /// Returns their reach `Σ_i |g_i|`, which [`Self::gains_ceiling_db`]
    /// bounds the snapshot from, and remembers it with `f_d·t` for
    /// [`Self::reach_ceiling_db`]; [`Self::memo_from_gains`] finishes it.
    pub fn tap_gains(&self, t: SimTime, speed_mps: f64, gains: &mut Vec<Cplx>) -> f64 {
        let fd = doppler_hz(speed_mps, self.cfg.pathloss.wavelength_m());
        gains.resize(self.fading.num_taps(), Cplx::ZERO);
        self.fading.gains_into(t.as_secs_f64(), fd, gains);
        let reach = gains.iter().map(|g| g.abs()).sum();
        self.reach.set(Some((fd * t.as_secs_f64(), reach)));
        reach
    }

    /// Ceiling on every tone's SNR, in dB, of a snapshot whose tap gains
    /// reach `reach`: `max_k |H_k| ≤ Σ_i |g_i|` since the twiddles are unit
    /// phasors, plus the 1 µdB of rounding slack
    /// [`Self::peak_tone_headroom_db`] carries. Never below
    /// [`crate::EsnrMemo::best_tone_db`] of that snapshot (which floors at
    /// −300 dB), so never below its ESNR for any modulation.
    pub fn gains_ceiling_db(&self, client: &Position, reach: f64) -> f64 {
        (self.mean_snr_db(client) + 20.0 * log10(reach) + 1e-6).max(-300.0)
    }

    /// [`Self::gains_ceiling_db`] at `t` without a tap: from the last
    /// [`Self::tap_gains`]' `(u₀, Σ₀)`, `Σ_i |g_i|` at `u = f_d·t` is at most
    /// `(Σ₀ + R·|u − u₀|)·(1 + 10⁻⁹)` ([`TappedDelayLine::reach_rate`]; the
    /// factor covers rounding). True from any remembered instant or speed, so
    /// pruning on it cannot change a ranking. +∞ before the first `tap_gains`.
    pub fn reach_ceiling_db(&self, t: SimTime, client: &Position, speed_mps: f64) -> f64 {
        let Some((u0, reach0)) = self.reach.get() else {
            return f64::INFINITY;
        };
        let u = doppler_hz(speed_mps, self.cfg.pathloss.wavelength_m()) * t.as_secs_f64();
        let reach = (reach0 + self.reach_rate * (u - u0).abs()) * (1.0 + 1e-9);
        self.gains_ceiling_db(client, reach)
    }

    /// The second half of [`Self::memo`], from the `gains`
    /// [`Self::tap_gains`] wrote: bit-identical to `memo` at the same time
    /// and speed.
    pub fn memo_from_gains(&self, client: &Position, gains: &[Cplx]) -> EsnrMemo {
        let mut split: Split = [0.0; 2 * NUM_SUBCARRIERS];
        (self.fading).freq_response_from_gains(gains, &self.twiddles, &mut split);
        self.memo_from_response(client, &split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PerModel;
    use crate::esnr::CONTROLLER_MODULATION;
    use crate::geom::DeploymentConfig;
    use crate::mcs::{GuardInterval, Mcs};

    fn testbed_links(seed: u64) -> Vec<WirelessLink> {
        let dep = DeploymentConfig::default().build();
        let root = SimRng::new(seed);
        dep.aps
            .iter()
            .enumerate()
            .map(|(i, ap)| {
                let mut r = root.fork_indexed("link", i as u64);
                WirelessLink::new(*ap, LinkConfig::default(), &mut r)
            })
            .collect()
    }

    fn road_pos(x: f64) -> Position {
        Position::new(x, 6.0, 1.5)
    }

    /// [`WirelessLink::csi`] without the position memo or the twiddle
    /// precompute — the reference `csi_cache_is_bit_exact` checks them
    /// against.
    fn csi_uncached(link: &WirelessLink, t: SimTime, client: &Position, speed_mps: f64) -> Csi {
        let fd = doppler_hz(speed_mps, link.cfg.pathloss.wavelength_m());
        let hv = link
            .fading
            .freq_response(t.as_secs_f64(), fd, &subcarrier_offsets_hz());
        let mut h = [Cplx::ZERO; crate::csi::NUM_SUBCARRIERS];
        h.copy_from_slice(&hv);
        Csi {
            h,
            mean_snr_db: link.mean_snr_db_uncached(client),
        }
    }

    #[test]
    fn snr_peaks_at_boresight_patch() {
        let links = testbed_links(1);
        let ap3 = &links[3];
        let ap_x = ap3.ap_site().position.x;
        let at_patch = ap3.mean_snr_db(&road_pos(ap_x));
        let off_15m = ap3.mean_snr_db(&road_pos(ap_x + 15.0));
        let off_40m = ap3.mean_snr_db(&road_pos(ap_x + 40.0));
        assert!(at_patch > off_15m, "{at_patch} vs {off_15m}");
        assert!(off_15m > off_40m);
        assert!((24.0..34.0).contains(&at_patch), "patch SNR {at_patch}");
    }

    #[test]
    fn best_ap_changes_along_road() {
        // Walking the client down the road, the AP with the highest mean
        // SNR should progress 0,1,2,...,7 in order.
        let links = testbed_links(2);
        let mut best_seq = Vec::new();
        for step in 0..60 {
            let pos = road_pos(-2.0 + step as f64);
            let best = (0..links.len())
                .max_by(|&a, &b| {
                    links[a]
                        .mean_snr_db(&pos)
                        .partial_cmp(&links[b].mean_snr_db(&pos))
                        .unwrap()
                })
                .unwrap();
            best_seq.push(best);
        }
        // Must be non-decreasing and reach the last AP.
        assert!(best_seq.windows(2).all(|w| w[1] >= w[0]), "{best_seq:?}");
        assert_eq!(*best_seq.last().unwrap(), 7);
        assert_eq!(best_seq[0], 0);
    }

    #[test]
    fn cell_size_in_picocell_range() {
        // The contiguous stretch of road where an AP can deliver MCS7
        // frames with >90% success should be meters-scale (the paper's
        // "cell size" is 5.2 m).
        let links = testbed_links(3);
        let per = PerModel::default();
        let ap = &links[4];
        let ap_x = ap.ap_site().position.x;
        let mut cell_m = 0.0;
        for step in -300..300 {
            let x = ap_x + step as f64 * 0.1;
            let snr = ap.mean_snr_db(&road_pos(x));
            // Use mean SNR as ESNR proxy for a flat check.
            if per.success_prob(Mcs(7), snr, 1500) > 0.9 {
                cell_m += 0.1;
            }
        }
        assert!(
            (2.0..12.0).contains(&cell_m),
            "top-rate cell size {cell_m} m out of picocell range"
        );
    }

    #[test]
    fn coverage_overlap_exists() {
        // At low MCS, adjacent AP coverage must overlap by several metres
        // (paper: 6–10 m).
        let links = testbed_links(4);
        let per = PerModel::default();
        let a = &links[2];
        let b = &links[3];
        let mut overlap_m = 0.0;
        for step in 0..1000 {
            let x = step as f64 * 0.1;
            let pos = road_pos(x);
            let ok = |l: &WirelessLink| per.success_prob(Mcs(0), l.mean_snr_db(&pos), 1500) > 0.5;
            if ok(a) && ok(b) {
                overlap_m += 0.1;
            }
        }
        assert!(
            (3.0..20.0).contains(&overlap_m),
            "coverage overlap {overlap_m} m"
        );
    }

    #[test]
    fn csi_is_time_varying_at_speed() {
        let links = testbed_links(5);
        let ap = &links[0];
        let pos = road_pos(0.0);
        let speed = 6.7; // 15 mph
        let esnr = |t: SimTime| ap.memo(t, &pos, speed).esnr_db(CONTROLLER_MODULATION);
        let e0 = esnr(SimTime::ZERO);
        let mut max_delta: f64 = 0.0;
        for i in 1..50 {
            let t = SimTime::from_millis(i * 5);
            let e = esnr(t);
            max_delta = max_delta.max((e - e0).abs());
        }
        assert!(max_delta > 3.0, "fading too shallow: {max_delta} dB swing");
    }

    #[test]
    fn stationary_csi_is_static() {
        let links = testbed_links(6);
        let ap = &links[0];
        let pos = road_pos(0.0);
        let esnr = |t: SimTime| ap.memo(t, &pos, 0.0).esnr_db(CONTROLLER_MODULATION);
        let (a, b) = (esnr(SimTime::ZERO), esnr(SimTime::from_secs(5)));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn shadowing_shifts_mean_snr() {
        let dep = DeploymentConfig::default().build();
        let mut cfg = LinkConfig::default();
        cfg.shadowing.sigma_db = 6.0;
        let mut r1 = SimRng::new(20).fork("a");
        let shadowed = WirelessLink::new(dep.aps[0], cfg, &mut r1);
        let mut r2 = SimRng::new(20).fork("a");
        let plain = WirelessLink::new(dep.aps[0], LinkConfig::default(), &mut r2);
        // Over many positions, shadowed and plain differ, with zero-mean
        // offsets.
        let mut diffs = Vec::new();
        for i in 0..200 {
            let pos = road_pos(i as f64 * 0.4);
            diffs.push(shadowed.mean_snr_db(&pos) - plain.mean_snr_db(&pos));
        }
        assert!(diffs.iter().any(|d| d.abs() > 1.0));
        let mean = wgtt_sim::stats::mean(&diffs);
        assert!(mean.abs() < 4.0, "offset mean {mean}");
    }

    #[test]
    fn geometry_cache_is_bit_exact() {
        let mut cfg = LinkConfig::default();
        cfg.shadowing.sigma_db = 4.0; // exercise the shadowing term too
        let dep = DeploymentConfig::default().build();
        let mut r = SimRng::new(31).fork("geo");
        let link = WirelessLink::new(dep.aps[2], cfg, &mut r);
        for step in 0..200 {
            let pos = road_pos(step as f64 * 0.37 - 10.0);
            let reference = link.mean_snr_db_uncached(&pos);
            // Cold, then warm: both must match the uncached value exactly.
            assert_eq!(link.mean_snr_db(&pos).to_bits(), reference.to_bits());
            assert_eq!(link.mean_snr_db(&pos).to_bits(), reference.to_bits());
            // Interleave a different position and re-query: the one-slot
            // cache must recompute, not serve the stale entry.
            let other = road_pos(step as f64 * 0.37 + 5.0);
            let other_ref = link.mean_snr_db_uncached(&other);
            assert_eq!(link.mean_snr_db(&other).to_bits(), other_ref.to_bits());
            assert_eq!(link.mean_snr_db(&pos).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn csi_cache_is_bit_exact() {
        // The twiddle-precomputed snapshot path (with the position memo
        // under it) must match the uncached reference bit-for-bit: on a
        // first query, on a repeat, and after interleaved different ones.
        let mut cfg = LinkConfig::default();
        cfg.shadowing.sigma_db = 4.0;
        let dep = DeploymentConfig::default().build();
        let mut r = SimRng::new(43).fork("csi");
        let link = WirelessLink::new(dep.aps[3], cfg, &mut r);
        let check = |t: SimTime, pos: &Position, speed: f64| {
            let reference = csi_uncached(&link, t, pos, speed);
            for csi in [link.csi(t, pos, speed), link.csi(t, pos, speed)] {
                assert_eq!(csi.mean_snr_db.to_bits(), reference.mean_snr_db.to_bits());
                for (a, b) in csi.h.iter().zip(&reference.h) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        };
        for step in 0..100 {
            let t = SimTime::from_micros(step * 731);
            let pos = road_pos(step as f64 * 0.29 - 5.0);
            check(t, &pos, 6.7);
            // A different speed at the same instant, then the original
            // query again: nothing carries over between snapshots.
            check(t, &pos, 11.2);
            check(t, &pos, 6.7);
        }
    }

    #[test]
    fn shared_twiddles_one_matrix_per_delay_profile() {
        let dep = DeploymentConfig::default().build();
        let link = |cfg: &LinkConfig, seed: u64| {
            WirelessLink::new(dep.aps[0], cfg.clone(), &mut SimRng::new(seed))
        };
        let plain = LinkConfig::default();
        let mut wider = LinkConfig::default();
        wider.fading.rms_delay_spread_ns = 120.0;
        let (a, b, c) = (link(&plain, 1), link(&plain, 2), link(&wider, 3));
        // Equal configs, different realizations: one matrix.
        assert!(Arc::ptr_eq(&a.twiddles, &b.twiddles));
        // Another delay spread: its own, shared in turn.
        assert!(!Arc::ptr_eq(&a.twiddles, &c.twiddles));
        assert!(Arc::ptr_eq(&c.twiddles, &link(&wider, 4).twiddles));
        // And each is the matrix its own delays build.
        for l in [&a, &c] {
            let own = l.fading.twiddles(&subcarrier_offsets_hz());
            let bits = |m: &[f64]| m.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&l.twiddles), bits(&own));
        }
    }

    #[test]
    fn shared_twiddles_across_threads() {
        // Links of a delay profile no other test builds, made concurrently
        // by a pool's threads: the first to look builds the matrix, and
        // every link ends up holding that one.
        let dep = DeploymentConfig::default().build();
        let mut cfg = LinkConfig::default();
        cfg.fading.rms_delay_spread_ns = 61.0;
        let build = |seed: u64, _| {
            let link = WirelessLink::new(dep.aps[0], cfg.clone(), &mut SimRng::new(seed));
            link.twiddles
        };
        let matrices = wgtt_sim::pool::scope(4, build, |pool| pool.round(0..32));
        assert!(matrices.iter().all(|m| Arc::ptr_eq(m, &matrices[0])));
    }

    #[test]
    fn mean_snr_clears_a_floor_only_near_the_ap() {
        let links = testbed_links(7);
        let ap = &links[0];
        let ap_x = ap.ap_site().position.x;
        assert!(ap.mean_snr_db(&road_pos(ap_x)) >= 5.0);
        assert!(ap.mean_snr_db(&road_pos(ap_x + 300.0)) < 5.0);
    }

    #[test]
    fn capacity_best_ap_flips_at_ms_scale() {
        // The vehicular picocell regime (paper Fig 2): in an overlap zone
        // the instantaneous best AP (by ESNR) changes on millisecond
        // timescales due to fast fading.
        let links = testbed_links(8);
        let a = &links[2];
        let b = &links[3];
        // Stand in the overlap zone, but use vehicular Doppler.
        let pos = road_pos((a.ap_site().position.x + b.ap_site().position.x) / 2.0);
        let speed = 6.7;
        let mut flips = 0;
        let mut prev_best = 0;
        for i in 0..500 {
            let t = SimTime::from_millis(i * 2);
            let ea = a.memo(t, &pos, speed).esnr_db(CONTROLLER_MODULATION);
            let eb = b.memo(t, &pos, speed).esnr_db(CONTROLLER_MODULATION);
            let best = if ea >= eb { 0 } else { 1 };
            if i > 0 && best != prev_best {
                flips += 1;
            }
            prev_best = best;
        }
        assert!(flips > 10, "best AP flipped only {flips} times in 1 s");
    }

    #[test]
    fn mcs7_usable_fraction_near_boresight() {
        // At the cell center with fading, the link should support high MCS
        // most of the time (WGTT's Fig 16 shows ~70 Mbit/s p90 rates).
        let links = testbed_links(9);
        let per = PerModel::default();
        let ap = &links[1];
        let pos = road_pos(ap.ap_site().position.x);
        let mut ok = 0;
        let n = 400;
        for i in 0..n {
            let mut memo = ap.memo(SimTime::from_millis(i * 3), &pos, 6.7);
            if per.success_with(&mut memo, Mcs(7), 1500) > 0.5 {
                ok += 1;
            }
        }
        let frac = ok as f64 / n as f64;
        assert!(frac > 0.15, "MCS7 usable only {frac} of the time at center");
        // And the oracle best MCS (argmax of expected goodput) at center
        // is usually high.
        let mut memo = ap.memo(SimTime::from_millis(1), &pos, 6.7);
        let (_, best) = Mcs::all()
            .map(|m| {
                let e = memo.esnr_db(m.modulation());
                (
                    per.expected_goodput_bps(m, GuardInterval::Short, e, 1500),
                    m,
                )
            })
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("MCS set is non-empty");
        assert!(best >= Mcs(3), "picked {best}");
    }
}
