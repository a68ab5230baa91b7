//! Experiment configuration: the values an experiment, an ablation or a
//! calibration varies. A value every run shares is a constant beside its
//! one user instead (the AP processing delays in `switching`, the range
//! floor in `world`, the CSI and probe cadences in the world's layers).

use crate::selection::SelectionConfig;
use wgtt_phy::geom::DeploymentConfig;
use wgtt_phy::link::LinkConfig;
use wgtt_phy::PerModel;
use wgtt_sim::SimDuration;

/// Which roaming system runs the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Wi-Fi Goes to Town: controller-driven millisecond AP switching.
    Wgtt,
    /// The paper's comparison baseline (§5.1): client-driven roaming with
    /// 100 ms beacons, an RSSI switching threshold, 1 s time hysteresis,
    /// and backhaul-shared authentication state.
    Enhanced80211r,
}

/// Parameters of the Enhanced 802.11r baseline.
#[derive(Debug, Clone, Copy)]
pub struct BaselineConfig {
    /// RSSI (mean-SNR) threshold below which the client roams, dB.
    pub rssi_threshold_db: f64,
    /// Minimum time between client switches (paper: 1 s).
    pub hysteresis: SimDuration,
    /// EWMA weight for beacon RSSI smoothing.
    pub rssi_ewma_alpha: f64,
    /// Downtime between the reassociation exchange completing and data
    /// flowing through the new AP: key installation, bridge/forwarding
    /// table updates at the controller and switch. Commercial
    /// controller-based WLANs take on the order of 100 ms even with fast
    /// transition.
    pub handover_latency: SimDuration,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            rssi_threshold_db: 5.0,
            hysteresis: SimDuration::from_secs(1),
            rssi_ewma_alpha: 0.3,
            handover_latency: SimDuration::from_millis(400),
        }
    }
}

/// Retry policy for the two-phase inter-controller migration protocol
/// (DESIGN.md §6f). A `MigratePrepare` that is not committed within
/// `retry_timeout` is re-sent; each further resend waits `backoff` times
/// longer than the last; after `max_attempts` sends the source aborts the
/// handoff and readopts the client (graceful degradation — it re-exports
/// at the next boundary pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Wait before the first `MigratePrepare` resend.
    pub retry_timeout: SimDuration,
    /// Multiplier applied to the wait after every unacked send (≥ 1).
    pub backoff: f64,
    /// Total `MigratePrepare` sends (first try included) before the
    /// source gives up and readopts the client.
    pub max_attempts: u32,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            retry_timeout: SimDuration::from_millis(100),
            backoff: 2.0,
            max_attempts: 6,
        }
    }
}

impl MigrationConfig {
    /// Rejects parameter combinations that would wedge the seam protocol:
    /// a zero timeout retries in a busy-loop, a sub-1 backoff retries
    /// *faster* under sustained failure, and zero attempts can never even
    /// export.
    pub fn validate(&self) -> Result<(), String> {
        if self.retry_timeout <= SimDuration::ZERO {
            return Err("migration retry_timeout must be positive".into());
        }
        // NaN compares false and is rejected with the sub-1 values.
        if self.backoff.is_nan() || self.backoff < 1.0 {
            return Err("migration backoff must be >= 1.0".into());
        }
        if self.max_attempts == 0 {
            return Err("migration max_attempts must be >= 1".into());
        }
        Ok(())
    }

    /// The wait after the `attempt`-th send (1-based): `retry_timeout ×
    /// backoff^(attempt-1)`, computed by repeated IEEE multiplication so
    /// the value is bit-identical on every platform.
    pub fn retry_delay(&self, attempt: u32) -> SimDuration {
        let mut secs = self.retry_timeout.as_secs_f64();
        for _ in 1..attempt {
            secs *= self.backoff;
        }
        SimDuration::from_secs_f64(secs)
    }
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Roaming system under test.
    pub mode: Mode,
    /// AP-selection parameters (window W, hysteresis, estimator).
    pub selection: SelectionConfig,
    /// PHY link parameters shared by all links.
    pub link: LinkConfig,
    /// AP array geometry.
    pub deployment: DeploymentConfig,
    /// ESNR→PER waterfall.
    pub per_model: PerModel,
    /// Baseline parameters (used when `mode == Enhanced80211r`).
    pub baseline: BaselineConfig,

    // --- WGTT mechanism ablation switches (DESIGN.md §6) ---
    /// Step 2/3 queue handoff: when false, the new AP restarts from the
    /// newest packet instead of index `k`, and the old AP drains its
    /// backlog to the dead link (the §3 motivation experiment).
    pub flush_on_switch: bool,
    /// Block-ACK forwarding between APs (§3.2.1).
    pub ba_forwarding: bool,
    /// Controller uplink de-duplication (§3.2.3).
    pub uplink_dedup: bool,
    /// Control packets bypass data queues at APs; when false they queue
    /// behind data, inflating switch latency.
    pub control_priority: bool,
    /// All in-range APs forward uplink packets (uplink diversity); when
    /// false only the serving AP forwards (the Fig 18 single-link case).
    pub uplink_diversity: bool,

    // --- channel plan and fault handling ---
    /// Inter-AP backhaul control-message loss probability (exercises the
    /// 30 ms stop-retransmission path).
    pub control_loss_prob: f64,
    /// Channel plan stride (§7 "multi-channel settings"): 1 puts every AP
    /// on one channel (the paper's deployment); `n > 1` assigns AP `i` to
    /// channel `i mod n`. APs on different channels never contend with
    /// each other, but they also cannot overhear the client unless it is
    /// tuned to their channel — killing uplink diversity, Block-ACK
    /// forwarding, and cross-channel CSI, exactly the trade-off the paper
    /// predicts.
    pub channel_stride: usize,
    /// Retry/backoff policy for two-phase seam migration (§6f).
    pub migration: MigrationConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            mode: Mode::Wgtt,
            selection: SelectionConfig::default(),
            link: LinkConfig::default(),
            deployment: DeploymentConfig::default(),
            per_model: PerModel::default(),
            baseline: BaselineConfig::default(),
            flush_on_switch: true,
            ba_forwarding: true,
            uplink_dedup: true,
            control_priority: true,
            uplink_diversity: true,
            control_loss_prob: 0.0,
            channel_stride: 1,
            migration: MigrationConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Convenience: a default configuration in baseline mode.
    pub fn baseline() -> Self {
        SystemConfig {
            mode: Mode::Enhanced80211r,
            ..SystemConfig::default()
        }
    }

    /// The channel AP `ap` operates on under the configured plan.
    pub fn channel_of(&self, ap: usize) -> usize {
        ap % self.channel_stride.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SystemConfig::default();
        assert_eq!(c.mode, Mode::Wgtt);
        assert_eq!(c.selection.window, SimDuration::from_millis(10));
        assert_eq!(c.baseline.hysteresis, SimDuration::from_secs(1));
        assert_eq!(c.deployment.num_aps, 8);
        assert!((c.deployment.ap_spacing_m - 7.5).abs() < 1e-12);
        assert!(c.flush_on_switch && c.ba_forwarding && c.uplink_dedup);
    }

    #[test]
    fn channel_plan() {
        let mut c = SystemConfig::default();
        assert_eq!(c.channel_of(0), c.channel_of(5)); // single channel
        c.channel_stride = 3;
        assert_eq!(c.channel_of(0), 0);
        assert_eq!(c.channel_of(1), 1);
        assert_eq!(c.channel_of(3), 0);
        assert_ne!(c.channel_of(0), c.channel_of(1));
    }

    #[test]
    fn baseline_constructor() {
        let c = SystemConfig::baseline();
        assert_eq!(c.mode, Mode::Enhanced80211r);
    }

    #[test]
    fn migration_defaults_are_valid_and_backoff_compounds() {
        let m = MigrationConfig::default();
        assert!(m.validate().is_ok());
        assert_eq!(m.retry_delay(1), SimDuration::from_millis(100));
        assert_eq!(m.retry_delay(2), SimDuration::from_millis(200));
        assert_eq!(m.retry_delay(4), SimDuration::from_millis(800));
    }

    #[test]
    fn migration_config_rejects_degenerate_policies() {
        let ok = MigrationConfig::default;
        let m = MigrationConfig {
            retry_timeout: SimDuration::ZERO,
            ..ok()
        };
        assert!(m.validate().unwrap_err().contains("retry_timeout"));
        let m = MigrationConfig {
            backoff: 0.5,
            ..ok()
        };
        assert!(m.validate().unwrap_err().contains("backoff"));
        let m = MigrationConfig {
            backoff: f64::NAN,
            ..ok()
        };
        assert!(m.validate().is_err(), "NaN backoff must be rejected");
        let m = MigrationConfig {
            max_attempts: 0,
            ..ok()
        };
        assert!(m.validate().unwrap_err().contains("max_attempts"));
    }
}
