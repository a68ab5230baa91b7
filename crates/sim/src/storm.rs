//! Composite-fault **storm** schedules.
//!
//! A storm is one randomized [`FaultSchedule`] per shard that composes
//! every fault family at once — AP flapping bursts, backhaul loss/latency,
//! duplication, reordering, controller failover, and seam-migration
//! loss/dup — the adversarial background against which the migration
//! protocol and the lockstep contract must both hold. Generation is fully
//! deterministic per seed (all draws come from the caller's [`SimRng`]),
//! so a failing storm is a reproducible artifact, not an anecdote.
//!
//! When a storm *does* break an invariant, [`shrink`] minimizes it:
//! greedy window removal re-runs the caller's failure predicate with one
//! window deleted at a time and keeps every deletion that still fails,
//! iterating to a fixpoint. The result is 1-minimal — removing any
//! remaining window makes the failure disappear — which turns a
//! forty-window storm into the two or three windows that actually matter.

use crate::fault::{BackhaulFault, FaultSchedule};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Intensity knobs for one storm. Every window count is **per shard**;
/// probabilities are per-frame within a window. The defaults describe a
/// storm that is survivable by design — heavy enough to exercise every
/// fault path, light enough that retries and failover can still win.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Shards in the corridor (one schedule is generated per shard).
    pub shards: usize,
    /// APs per shard (flap bursts pick targets below this).
    pub n_aps: usize,
    /// Horizon windows are drawn inside.
    pub duration: SimDuration,
    /// AP flapping bursts (each on a distinct AP).
    pub flap_bursts: usize,
    /// Crash/reboot cycle period within a flap burst.
    pub flap_period: SimDuration,
    /// Fraction of each flap cycle spent down, in (0, 1).
    pub flap_duty: f64,
    /// Backhaul impairment windows.
    pub backhaul_windows: usize,
    /// Extra backhaul loss per impairment window.
    pub backhaul_loss: f64,
    /// Extra fixed backhaul latency per impairment window.
    pub backhaul_latency: SimDuration,
    /// Backhaul duplication windows.
    pub dup_windows: usize,
    /// Per-message duplication probability.
    pub dup_prob: f64,
    /// Backhaul reordering windows.
    pub reorder_windows: usize,
    /// Per-message reorder probability.
    pub reorder_prob: f64,
    /// Maximum reorder hold-back.
    pub reorder_hold: SimDuration,
    /// Controller failover windows (primary crash + standby takeover).
    pub failovers: usize,
    /// Length of each failover window.
    pub failover_len: SimDuration,
    /// Seam-migration loss windows.
    pub migration_loss_windows: usize,
    /// Per-frame seam loss probability.
    pub migration_loss_prob: f64,
    /// Seam-migration duplication windows.
    pub migration_dup_windows: usize,
    /// Per-frame seam duplication probability.
    pub migration_dup_prob: f64,
    /// Length range for every probabilistic window family.
    pub window_len: std::ops::Range<SimDuration>,
}

impl Default for StormConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            n_aps: 4,
            duration: SimDuration::from_secs(10),
            flap_bursts: 1,
            flap_period: SimDuration::from_millis(400),
            flap_duty: 0.25,
            backhaul_windows: 2,
            backhaul_loss: 0.2,
            backhaul_latency: SimDuration::from_millis(2),
            dup_windows: 1,
            dup_prob: 0.2,
            reorder_windows: 1,
            reorder_prob: 0.2,
            reorder_hold: SimDuration::from_millis(3),
            failovers: 1,
            failover_len: SimDuration::from_millis(500),
            migration_loss_windows: 1,
            migration_loss_prob: 0.3,
            migration_dup_windows: 1,
            migration_dup_prob: 0.3,
            window_len: SimDuration::from_millis(500)..SimDuration::from_secs(2),
        }
    }
}

/// Draws a `[from, until)` window of a length from `len` placed uniformly
/// inside `[0, horizon)`, clamping the length to the horizon.
fn rand_window(
    rng: &mut SimRng,
    horizon: SimDuration,
    len: &std::ops::Range<SimDuration>,
) -> (SimTime, SimTime) {
    let horizon_s = horizon.as_secs_f64();
    let len_s = rng
        .range(len.start.as_secs_f64()..len.end.as_secs_f64())
        .min(horizon_s * 0.9);
    let start_s = rng.range(0.0..(horizon_s - len_s));
    let from = SimTime::ZERO + SimDuration::from_secs_f64(start_s);
    (from, from + SimDuration::from_secs_f64(len_s))
}

/// Generates one composite-fault schedule per shard. All randomness comes
/// from `rng`; callers fork a dedicated stream (`rng.fork("storm")`) so
/// storm generation never perturbs channel or traffic draws.
pub fn random_storm(cfg: &StormConfig, rng: &mut SimRng) -> Vec<FaultSchedule> {
    assert!(cfg.shards >= 1, "storm needs at least one shard");
    assert!(
        cfg.duration > SimDuration::ZERO,
        "storm horizon must be non-empty"
    );
    let backhaul = BackhaulFault {
        extra_loss_prob: cfg.backhaul_loss,
        extra_latency: cfg.backhaul_latency,
        extra_jitter_mean: SimDuration::ZERO,
    };
    let mut storms = Vec::with_capacity(cfg.shards);
    for shard in 0..cfg.shards {
        let mut rng = rng.fork_indexed("storm-shard", shard as u64);
        // Flap bursts each take a distinct AP, so the per-AP outage overlap
        // validation can never trip.
        let mut aps: Vec<usize> = (0..cfg.n_aps).collect();
        rng.shuffle(&mut aps);
        let mut aps = aps.into_iter();
        // One row per family, in draw order: window count, the fixed length
        // of a family whose windows share one timeline (`None`: anywhere,
        // lengths from `window_len`), and the builder a window goes to.
        type Add<'a> = &'a mut dyn FnMut(FaultSchedule, SimTime, SimTime) -> FaultSchedule;
        let rows: [(usize, Option<SimDuration>, Add); 7] = [
            (
                cfg.flap_bursts.min(cfg.n_aps),
                None,
                &mut |s, from, until| {
                    let Some(ap) = aps.next() else { return s };
                    s.with_ap_flapping(ap, from, until, cfg.flap_period, cfg.flap_duty)
                },
            ),
            (cfg.backhaul_windows, None, &mut |s, from, until| {
                s.with_backhaul_fault(from, until, backhaul)
            }),
            (cfg.dup_windows, None, &mut |s, from, until| {
                s.with_duplication(from, until, cfg.dup_prob)
            }),
            (cfg.reorder_windows, None, &mut |s, from, until| {
                s.with_reordering(from, until, cfg.reorder_prob, cfg.reorder_hold)
            }),
            (
                cfg.failovers,
                Some(cfg.failover_len),
                &mut |s, from, until| s.with_controller_failover(from, until),
            ),
            (cfg.migration_loss_windows, None, &mut |s, from, until| {
                s.with_migration_loss(from, until, cfg.migration_loss_prob)
            }),
            (cfg.migration_dup_windows, None, &mut |s, from, until| {
                s.with_migration_dup(from, until, cfg.migration_dup_prob)
            }),
        ];
        let mut s = FaultSchedule::new();
        let mut cursor = SimTime::ZERO;
        for (count, fixed_len, add) in rows {
            for _ in 0..count {
                let (from, until) = match fixed_len {
                    None => rand_window(&mut rng, cfg.duration, &cfg.window_len),
                    // One timeline: walk a cursor forward — guaranteed
                    // disjoint — while the horizon has room left.
                    Some(len) => {
                        let room = SimTime::ZERO + cfg.duration - cursor;
                        let slack = room.as_secs_f64() - len.as_secs_f64();
                        if slack <= 0.0 {
                            break;
                        }
                        let from = cursor + SimDuration::from_secs_f64(rng.range(0.0..slack));
                        cursor = from + len;
                        (from, cursor)
                    }
                };
                s = add(s, from, until);
            }
        }
        storms.push(s);
    }
    storms
}

/// Minimizes a failing storm by greedy window removal: repeatedly deletes
/// one window, keeps the deletion whenever `fails` still returns `true`,
/// and stops at a fixpoint. The result is 1-minimal: removing any single
/// remaining window no longer reproduces the failure.
///
/// `fails` must return `true` for the input storm (asserted), and should
/// be deterministic — it is typically "run the scenario under these
/// schedules and check the invariant that broke".
pub fn shrink<F>(mut schedules: Vec<FaultSchedule>, mut fails: F) -> Vec<FaultSchedule>
where
    F: FnMut(&[FaultSchedule]) -> bool,
{
    assert!(
        fails(&schedules),
        "shrink needs a failing storm to start from"
    );
    loop {
        let mut reduced = false;
        'scan: for shard in 0..schedules.len() {
            for (family, len) in schedules[shard].family_lens().enumerate() {
                // Walk backwards so a removal never shifts untried indices.
                for i in (0..len).rev() {
                    let mut candidate = schedules.clone();
                    candidate[shard].remove_window(family, i);
                    if fails(&candidate) {
                        schedules = candidate;
                        reduced = true;
                        break 'scan;
                    }
                }
            }
        }
        if !reduced {
            return schedules;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_generation_is_deterministic_per_seed() {
        let cfg = StormConfig::default();
        let a = random_storm(&cfg, &mut SimRng::new(9).fork("storm"));
        let b = random_storm(&cfg, &mut SimRng::new(9).fork("storm"));
        assert_eq!(a, b);
        let c = random_storm(&cfg, &mut SimRng::new(10).fork("storm"));
        assert_ne!(a, c);
        assert_eq!(a.len(), cfg.shards);
        // Every family the config asks for is present in every shard.
        // and nothing else, family by family in table order.
        for s in &a {
            let lens: Vec<usize> = s.family_lens().collect();
            assert!(lens[0] > 0, "no flap windows");
            assert_eq!(lens[1], cfg.backhaul_windows);
            let (crashes, partitions, lag, csi) = (0, 0, 0, 0);
            assert_eq!(
                lens[2..],
                [
                    partitions,
                    crashes,
                    cfg.failovers,
                    lag,
                    csi,
                    cfg.dup_windows,
                    cfg.reorder_windows,
                    cfg.migration_loss_windows,
                    cfg.migration_dup_windows,
                ]
            );
        }
    }

    #[test]
    fn storm_shards_draw_independent_schedules() {
        let cfg = StormConfig {
            shards: 3,
            ..StormConfig::default()
        };
        let storm = random_storm(&cfg, &mut SimRng::new(4).fork("storm"));
        assert_ne!(storm[0], storm[1]);
        assert_ne!(storm[1], storm[2]);
    }

    #[test]
    fn shrink_strips_every_irrelevant_window() {
        let cfg = StormConfig::default();
        let storm = random_storm(&cfg, &mut SimRng::new(21).fork("storm"));
        let before: usize = storm.iter().map(|s| s.window_count()).sum();
        assert!(before > 2);
        // Synthetic predicate: the "violation" needs a migration-loss
        // window in shard 0 AND a duplication window in shard 1 — every
        // other window is noise the shrinker must delete.
        let seam_loss = |s: &FaultSchedule| s.family_lens().nth(9).unwrap();
        let dup = |s: &FaultSchedule| s.family_lens().nth(7).unwrap();
        let fails = |ss: &[FaultSchedule]| seam_loss(&ss[0]) > 0 && dup(&ss[1]) > 0;
        let min = shrink(storm, fails);
        assert_eq!(
            min.iter().map(|s| s.window_count()).sum::<usize>(),
            2,
            "shrink left noise windows behind"
        );
        assert_eq!(seam_loss(&min[0]), 1);
        assert_eq!(dup(&min[1]), 1);
    }

    #[test]
    #[should_panic(expected = "needs a failing storm")]
    fn shrink_rejects_a_passing_storm() {
        let storm = vec![FaultSchedule::new()];
        let _ = shrink(storm, |_| false);
    }
}
