//! Deterministic fault injection.
//!
//! A [`FaultSchedule`] is a declarative list of *when things break*: AP
//! crash/reboot windows, backhaul impairment windows (extra packet loss,
//! added latency, jitter inflation), controller-link partitions, and CSI
//! report drop windows. The schedule is pure data — it never draws random
//! numbers itself — so the same schedule replayed against the same seed
//! reproduces the identical event sequence bit for bit. Every family is a
//! list of windows in insertion order, named once in the family table
//! below (DESIGN.md §6j says why it is neither sorted nor indexed).
//!
//! Random *generation* of schedules (for resilience sweeps) goes through
//! [`FaultSchedule::random_outages`] with an explicit [`SimRng`], which
//! callers derive via [`SimRng::fork`] so the fault draws never perturb
//! the channel/traffic streams. An empty schedule answers every query
//! with "healthy" without consuming any randomness, which keeps
//! fault-capable builds bit-identical to fault-free ones.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One fault window: `what` holds during `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window<T> {
    from: SimTime,
    until: SimTime,
    what: T,
}

/// What a backhaul impairment window does to every backhaul message sent
/// inside it, on top of the healthy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackhaulFault {
    /// Additional independent loss probability.
    pub extra_loss_prob: f64,
    /// Added fixed one-way latency.
    pub extra_latency: SimDuration,
    /// Mean of additional exponential jitter (zero = none).
    pub extra_jitter_mean: SimDuration,
}

/// The aggregate backhaul impairment in effect at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackhaulImpairment {
    /// Additional loss probability (windows compose independently).
    pub extra_loss_prob: f64,
    /// Added fixed latency (windows sum).
    pub extra_latency: SimDuration,
    /// Added exponential-jitter mean (windows sum).
    pub extra_jitter_mean: SimDuration,
    /// Duplication probability (windows compose independently).
    pub dup_prob: f64,
    /// Reorder probability (windows compose independently).
    pub reorder_prob: f64,
    /// Maximum reorder hold-back (windows take the max).
    pub reorder_window: SimDuration,
}

/// A crash or reboot edge, for priming simulator events. Declaration order
/// is the order edges at one instant fire in: crashes before reboots, APs
/// by index before the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultEdge {
    /// AP `.0` crashes.
    Crash(usize),
    /// The central controller crashes.
    ControllerCrash,
    /// AP `.0` comes back up.
    Reboot(usize),
    /// The central controller restarts (soft state lost).
    ControllerRecover,
    /// The crashed ex-primary wakes as a **zombie**: a warm standby took
    /// over its reign while it was down, so instead of restarting as the
    /// controller it comes back believing it still holds the old term and
    /// immediately tries to reassert itself — the split-brain scenario the
    /// AP-side term guards must fence out.
    ZombieWake,
}

/// Expands the family table — one row per window family: what its windows
/// carry, name, payload type — into [`FaultSchedule`] and the two views
/// that must see every family: the per-family counts and removal by
/// `(family, index)`. Row order is the storm shrinker's scan order.
macro_rules! fault_families {
    ($($(#[$doc:meta])* $name:ident: $what:ty,)*) => {
        /// The full fault plan for one run. Empty by default (= healthy
        /// run); built by the `with_*` methods, read by the queries.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct FaultSchedule {
            $($(#[$doc])* $name: Vec<Window<$what>>,)*
        }

        impl FaultSchedule {
            /// Number of windows in each family, in table order.
            pub(crate) fn family_lens(&self) -> impl Iterator<Item = usize> {
                [$(self.$name.len()),*].into_iter()
            }

            /// Deletes window `i` (insertion order) of family `family`
            /// (table order) — the storm shrinker's one mutation.
            pub(crate) fn remove_window(&mut self, family: usize, i: usize) {
                let families: &mut [&mut dyn FnMut(usize)] =
                    &mut [$(&mut |i| { self.$name.remove(i); }),*];
                families[family](i);
            }
        }
    };
}

fault_families! {
    /// AP crash/reboot windows; the payload is the AP.
    ap_outages: usize,
    /// Backhaul impairment windows.
    backhaul: BackhaulFault,
    /// Controller-link partitions; the payload is the AP cut off.
    partitions: usize,
    /// Cold controller crash/restart windows.
    controller_crashes: (),
    /// Controller failover windows (a warm standby is armed).
    controller_failovers: (),
    /// Journal replication lag windows; the added one-way delay.
    journal_lag: SimDuration,
    /// CSI-report drop windows; the per-report drop probability.
    csi_drops: f64,
    /// Backhaul duplication windows; the per-message probability.
    duplication: f64,
    /// Backhaul reordering windows; the per-message probability and the
    /// maximum hold-back.
    reordering: (f64, SimDuration),
    /// Seam-migration frame loss windows; the per-frame probability.
    migration_loss: f64,
    /// Seam-migration frame duplication windows; the per-frame probability.
    migration_dup: f64,
}

/// The payloads of `family`'s windows open at `t`, in insertion order — the
/// one iterator every query folds over.
fn active<T>(family: &[Window<T>], t: SimTime) -> impl Iterator<Item = &T> {
    family
        .iter()
        .filter(move |w| w.from <= t && t < w.until)
        .map(|w| &w.what)
}

/// Probability that at least one of the independent events `probs` fires:
/// `1 − Π(1 − p)`, multiplied in iteration (= insertion) order. A plain
/// loop: `fold` over the filtered iterator measured ≈ 1 ns a lookup slower.
fn any_of(probs: impl Iterator<Item = f64>) -> f64 {
    let mut keep = 1.0;
    for p in probs {
        keep *= 1.0 - p;
    }
    1.0 - keep
}

/// The one checked insert every builder reaches. Panics on an empty window;
/// on a probability outside `[0, 1]` (NaN included: lookups rely on the
/// range and do not clamp); and, when the family's windows claim their
/// target exclusively (`rival` is the sibling family on the same timeline,
/// empty if there is none), on a window overlapping an existing one with
/// the same `what` — silently stacking crash windows would make one target
/// crash "twice" at once and fire reboot edges inside a later outage. The
/// panic location is the builder's line, which names the family.
#[track_caller]
fn push<T: Copy + PartialEq>(
    family: &mut Vec<Window<T>>,
    rival: Option<&[Window<T>]>,
    from: SimTime,
    until: SimTime,
    what: T,
    prob: Option<f64>,
) {
    assert!(from < until, "fault window must be non-empty");
    assert!(
        prob.map_or(true, |p| (0.0..=1.0).contains(&p)),
        "fault probability must be in [0, 1], got {prob:?}"
    );
    if let Some(rival) = rival {
        for o in family.iter().chain(rival).filter(|o| o.what == what) {
            assert!(
                until <= o.from || o.until <= from,
                "fault window [{from}, {until}) overlaps existing [{}, {}) on the same target",
                o.from,
                o.until
            );
        }
    }
    family.push(Window { from, until, what });
}

impl FaultSchedule {
    /// An empty (healthy) schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing is scheduled — the healthy fast path.
    pub fn is_empty(&self) -> bool {
        self.window_count() == 0
    }

    /// Total number of fault windows across every family.
    pub fn window_count(&self) -> usize {
        self.family_lens().sum()
    }

    /// Adds an AP outage window (builder style): the AP is dead in
    /// `[from, until)` and reboots, all soft state lost, at `until`. Panics
    /// on a zero-length window or one overlapping an existing outage of
    /// the same AP.
    pub fn with_ap_outage(mut self, ap: usize, from: SimTime, until: SimTime) -> Self {
        push(&mut self.ap_outages, Some(&[]), from, until, ap, None);
        self
    }

    /// Adds a backhaul impairment window (builder style).
    pub fn with_backhaul_fault(mut self, from: SimTime, until: SimTime, f: BackhaulFault) -> Self {
        let p = Some(f.extra_loss_prob);
        push(&mut self.backhaul, None, from, until, f, p);
        self
    }

    /// Adds a controller-link partition window (builder style): the AP's
    /// radio keeps running but nothing crosses the wire between it and the
    /// controller. Panics on a zero-length window or one overlapping an
    /// existing partition of the same AP.
    pub fn with_partition(mut self, ap: usize, from: SimTime, until: SimTime) -> Self {
        push(&mut self.partitions, Some(&[]), from, until, ap, None);
        self
    }

    /// Adds a controller crash/restart window (builder style): the
    /// controller process is dead in `[from, until)` — it sends nothing,
    /// drops every AP report delivered to it, fires no switch timeouts —
    /// and restarts with all soft state lost at `until`, when it must
    /// resynchronise from the APs before issuing new switches. Panics on a
    /// zero-length window or one overlapping an existing controller window
    /// of either kind — there is only one controller process timeline.
    pub fn with_controller_crash(mut self, from: SimTime, until: SimTime) -> Self {
        let rival = Some(&self.controller_failovers[..]);
        push(&mut self.controller_crashes, rival, from, until, (), None);
        self
    }

    /// Adds a controller **failover** window (builder style): the primary
    /// crashes at `from` with a warm standby armed to take over, and the
    /// ex-primary wakes as a zombie at `until` (it does *not* resume the
    /// controller role — the standby holds the reign by then, and the
    /// zombie's stale-term frames must be fenced by the AP term guards).
    /// Panics as [`FaultSchedule::with_controller_crash`] does.
    pub fn with_controller_failover(mut self, from: SimTime, until: SimTime) -> Self {
        let rival = Some(&self.controller_crashes[..]);
        push(&mut self.controller_failovers, rival, from, until, (), None);
        self
    }

    /// Adds a journal replication lag window (builder style): every
    /// primary→standby journal batch suffers `extra` additional one-way
    /// delay on top of the backhaul model (a congested replication link).
    /// Lag close to the standby's takeover timeout widens the window of
    /// journal state the takeover never saw — the knob the replication
    /// bench sweeps.
    pub fn with_journal_lag(mut self, from: SimTime, until: SimTime, extra: SimDuration) -> Self {
        assert!(extra > SimDuration::ZERO, "journal lag must be > 0");
        push(&mut self.journal_lag, None, from, until, extra, None);
        self
    }

    /// Adds a rapid crash/reboot **flapping** burst for one AP (builder
    /// style): starting at `from`, the AP cycles with period `period`,
    /// spending the first `duty` fraction of each cycle down, until the
    /// cycle start reaches `until`. Each down-phase is an ordinary outage
    /// window, so the usual overlap validation applies against any
    /// pre-existing outages of the same AP.
    pub fn with_ap_flapping(
        mut self,
        ap: usize,
        from: SimTime,
        until: SimTime,
        period: SimDuration,
        duty: f64,
    ) -> Self {
        assert!(from < until, "flapping window must be non-empty");
        assert!(period > SimDuration::ZERO, "flapping period must be > 0");
        assert!(
            (0.0..1.0).contains(&duty) && duty > 0.0,
            "flapping duty must be in (0, 1)"
        );
        let down = SimDuration::from_secs_f64(period.as_secs_f64() * duty);
        let mut t = from;
        while t < until {
            self = self.with_ap_outage(ap, t, t + down);
            t += period;
        }
        self
    }

    /// Adds a CSI drop window (builder style): each CSI report is
    /// independently discarded with probability `prob` (a flaky CSI
    /// extraction tool).
    pub fn with_csi_drops(mut self, from: SimTime, until: SimTime, prob: f64) -> Self {
        push(&mut self.csi_drops, None, from, until, prob, Some(prob));
        self
    }

    /// Adds a backhaul duplication window (builder style): each delivered
    /// message is independently delivered a *second* time with probability
    /// `prob`, the copy trailing the original by one extra jitter sample (a
    /// kernel-datapath retransmit under load, cf. bridged-AP duplication).
    pub fn with_duplication(mut self, from: SimTime, until: SimTime, prob: f64) -> Self {
        push(&mut self.duplication, None, from, until, prob, Some(prob));
        self
    }

    /// Adds a backhaul reordering window (builder style): each delivered
    /// message is independently held back with probability `prob` by a
    /// uniform draw from `(0, hold]`, letting messages sent just after it
    /// overtake it — order swaps bounded by `hold`.
    pub fn with_reordering(
        mut self,
        from: SimTime,
        until: SimTime,
        prob: f64,
        hold: SimDuration,
    ) -> Self {
        assert!(hold > SimDuration::ZERO, "reorder hold-back must be > 0");
        let p = Some(prob);
        push(&mut self.reordering, None, from, until, (prob, hold), p);
        self
    }

    /// Adds a seam-migration frame **loss** window (builder style): each
    /// inter-controller migration frame (prepare, commit, residue forward,
    /// or ack) sent across a shard seam while the window is open is
    /// independently dropped with probability `prob`. Seam windows touch
    /// only the controller-to-controller transfer channel, never
    /// AP-to-controller traffic.
    pub fn with_migration_loss(mut self, from: SimTime, until: SimTime, prob: f64) -> Self {
        let p = Some(prob);
        push(&mut self.migration_loss, None, from, until, prob, p);
        self
    }

    /// Adds a seam-migration frame **duplication** window (builder style):
    /// each migration frame sent across a shard seam while the window is
    /// open is independently delivered a second time with probability
    /// `prob` — the retry/idempotence machinery must absorb the copy.
    pub fn with_migration_dup(mut self, from: SimTime, until: SimTime, prob: f64) -> Self {
        push(&mut self.migration_dup, None, from, until, prob, Some(prob));
        self
    }

    /// Whether AP `ap` is dead at `t`.
    pub fn ap_down(&self, ap: usize, t: SimTime) -> bool {
        active(&self.ap_outages, t).any(|&a| a == ap)
    }

    /// Whether AP `ap` is cut off from the controller at `t` (either
    /// explicitly partitioned or outright dead).
    pub fn partitioned(&self, ap: usize, t: SimTime) -> bool {
        self.ap_down(ap, t) || active(&self.partitions, t).any(|&a| a == ap)
    }

    /// Whether the central controller is dead at `t`.
    ///
    /// Only cold crash/restart windows count: during a *failover* window
    /// the standby may already have taken over mid-window, so controller
    /// liveness there is runtime state the simulator tracks itself, not a
    /// schedule-derivable fact.
    pub fn controller_down(&self, t: SimTime) -> bool {
        active(&self.controller_crashes, t).next().is_some()
    }

    /// Whether any controller failover is scheduled — what arms the
    /// warm-standby machinery.
    pub fn has_failover(&self) -> bool {
        !self.controller_failovers.is_empty()
    }

    /// Extra one-way journal delivery delay at `t` (windows sum).
    pub fn journal_lag_at(&self, t: SimTime) -> SimDuration {
        active(&self.journal_lag, t).fold(SimDuration::ZERO, |sum, &extra| sum + extra)
    }

    /// The combined backhaul impairment at `t`. Loss, duplication, and
    /// reorder probabilities compose as independent events; latency and
    /// jitter add; the reorder hold-back takes the widest window.
    pub fn backhaul_at(&self, t: SimTime) -> BackhaulImpairment {
        let mut imp = BackhaulImpairment::default();
        let (mut keep, mut in_order) = (1.0, 1.0);
        for f in active(&self.backhaul, t) {
            keep *= 1.0 - f.extra_loss_prob;
            imp.extra_latency += f.extra_latency;
            imp.extra_jitter_mean += f.extra_jitter_mean;
        }
        for &(prob, hold) in active(&self.reordering, t) {
            in_order *= 1.0 - prob;
            imp.reorder_window = imp.reorder_window.max(hold);
        }
        imp.extra_loss_prob = 1.0 - keep;
        imp.dup_prob = any_of(active(&self.duplication, t).copied());
        imp.reorder_prob = 1.0 - in_order;
        imp
    }

    /// CSI-report drop probability at `t` (independent windows compose).
    pub fn csi_drop_prob(&self, t: SimTime) -> f64 {
        any_of(active(&self.csi_drops, t).copied())
    }

    /// Seam-migration frame loss probability at `t` (independent windows
    /// compose). Zero when no window is open, so fault-free seams never
    /// consume randomness.
    pub fn migration_loss_prob(&self, t: SimTime) -> f64 {
        any_of(active(&self.migration_loss, t).copied())
    }

    /// Seam-migration frame duplication probability at `t` (independent
    /// windows compose).
    pub fn migration_dup_prob(&self, t: SimTime) -> f64 {
        any_of(active(&self.migration_dup, t).copied())
    }

    /// All crash/reboot edges in time order, for scheduling simulator
    /// events. Ties break in [`FaultEdge`]'s declaration order, so event
    /// priming is deterministic.
    pub fn edges(&self) -> Vec<(SimTime, FaultEdge)> {
        let mut edges: Vec<(SimTime, FaultEdge)> = Vec::new();
        for w in &self.ap_outages {
            edges.push((w.from, FaultEdge::Crash(w.what)));
            edges.push((w.until, FaultEdge::Reboot(w.what)));
        }
        for w in &self.controller_crashes {
            edges.push((w.from, FaultEdge::ControllerCrash));
            edges.push((w.until, FaultEdge::ControllerRecover));
        }
        for w in &self.controller_failovers {
            edges.push((w.from, FaultEdge::ControllerCrash));
            edges.push((w.until, FaultEdge::ZombieWake));
        }
        edges.sort();
        edges
    }

    /// Generates random AP outages with the given RNG: each AP
    /// independently crashes at `rate_per_s` (Poisson, approximated per
    /// candidate slot) over `[0, duration)`, staying down for a uniform
    /// draw from `outage_len`. Callers should pass a forked stream
    /// (`rng.fork("faults")`) so schedule generation never disturbs other
    /// draws.
    pub fn random_outages(
        rng: &mut SimRng,
        n_aps: usize,
        duration: SimDuration,
        rate_per_s: f64,
        outage_len: std::ops::Range<SimDuration>,
    ) -> Self {
        let mut sched = FaultSchedule::new();
        if rate_per_s <= 0.0 {
            return sched;
        }
        for ap in 0..n_aps {
            // Sample inter-crash gaps from Exp(rate); walk the timeline.
            let mut t = 0.0f64;
            let end = duration.as_secs_f64();
            loop {
                t += rng.exponential(1.0 / rate_per_s);
                if t >= end {
                    break;
                }
                let len = rng.range(outage_len.start.as_secs_f64()..outage_len.end.as_secs_f64());
                let from = SimTime::ZERO + SimDuration::from_secs_f64(t);
                sched = sched.with_ap_outage(ap, from, from + SimDuration::from_secs_f64(len));
                // Next crash can only happen after the reboot.
                t += len;
            }
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn empty_schedule_is_healthy() {
        let s = FaultSchedule::new();
        assert!(s.is_empty());
        assert!(!s.ap_down(0, t(100)));
        assert!(!s.partitioned(3, t(100)));
        assert_eq!(s.backhaul_at(t(100)), BackhaulImpairment::default());
        assert_eq!(s.csi_drop_prob(t(100)), 0.0);
        assert!(s.edges().is_empty());
    }

    #[test]
    fn outage_window_half_open() {
        let s = FaultSchedule::new().with_ap_outage(2, t(100), t(300));
        assert!(!s.ap_down(2, t(99)));
        assert!(s.ap_down(2, t(100)));
        assert!(s.ap_down(2, t(299)));
        assert!(!s.ap_down(2, t(300)));
        assert!(!s.ap_down(1, t(150)));
        // A dead AP is also partitioned.
        assert!(s.partitioned(2, t(150)));
    }

    #[test]
    fn edges_ordered_crash_before_reboot() {
        let s = FaultSchedule::new()
            .with_ap_outage(1, t(200), t(400))
            .with_ap_outage(0, t(100), t(200));
        let e = s.edges();
        assert_eq!(
            e,
            vec![
                (t(100), FaultEdge::Crash(0)),
                (t(200), FaultEdge::Crash(1)),
                (t(200), FaultEdge::Reboot(0)),
                (t(400), FaultEdge::Reboot(1)),
            ]
        );
    }

    #[test]
    fn backhaul_windows_compose() {
        let s = FaultSchedule::new()
            .with_backhaul_fault(
                t(0),
                t(1000),
                BackhaulFault {
                    extra_loss_prob: 0.5,
                    extra_latency: SimDuration::from_millis(1),
                    extra_jitter_mean: SimDuration::from_micros(200),
                },
            )
            .with_backhaul_fault(
                t(500),
                t(1500),
                BackhaulFault {
                    extra_loss_prob: 0.5,
                    extra_latency: SimDuration::from_millis(2),
                    extra_jitter_mean: SimDuration::ZERO,
                },
            );
        let early = s.backhaul_at(t(100));
        assert!((early.extra_loss_prob - 0.5).abs() < 1e-12);
        assert_eq!(early.extra_latency, SimDuration::from_millis(1));
        let overlap = s.backhaul_at(t(700));
        assert!((overlap.extra_loss_prob - 0.75).abs() < 1e-12);
        assert_eq!(overlap.extra_latency, SimDuration::from_millis(3));
        assert_eq!(s.backhaul_at(t(2000)), BackhaulImpairment::default());
    }

    #[test]
    fn csi_drop_composes() {
        let s = FaultSchedule::new()
            .with_csi_drops(t(0), t(100), 0.2)
            .with_csi_drops(t(50), t(100), 0.5);
        assert!((s.csi_drop_prob(t(10)) - 0.2).abs() < 1e-12);
        assert!((s.csi_drop_prob(t(60)) - 0.6).abs() < 1e-12);
        assert_eq!(s.csi_drop_prob(t(100)), 0.0);
    }

    #[test]
    fn dup_and_reorder_windows_compose() {
        let s = FaultSchedule::new()
            .with_duplication(t(0), t(1000), 0.5)
            .with_duplication(t(500), t(1500), 0.5)
            .with_reordering(t(0), t(1000), 0.2, SimDuration::from_millis(1))
            .with_reordering(t(0), t(2000), 0.2, SimDuration::from_millis(3));
        assert!(!s.is_empty());
        let early = s.backhaul_at(t(100));
        assert!((early.dup_prob - 0.5).abs() < 1e-12);
        assert!((early.reorder_prob - 0.36).abs() < 1e-12);
        assert_eq!(early.reorder_window, SimDuration::from_millis(3));
        assert_ne!(early, BackhaulImpairment::default());
        let overlap = s.backhaul_at(t(700));
        assert!((overlap.dup_prob - 0.75).abs() < 1e-12);
        let late = s.backhaul_at(t(1700));
        assert_eq!(late.dup_prob, 0.0);
        assert!((late.reorder_prob - 0.2).abs() < 1e-12);
        assert_eq!(s.backhaul_at(t(3000)), BackhaulImpairment::default());
    }

    #[test]
    fn dup_only_impairment_is_not_noop() {
        let s = FaultSchedule::new().with_duplication(t(0), t(100), 0.1);
        assert_ne!(s.backhaul_at(t(50)), BackhaulImpairment::default());
        // Loss / latency / jitter stay at their healthy values.
        let imp = s.backhaul_at(t(50));
        assert_eq!(imp.extra_loss_prob, 0.0);
        assert_eq!(imp.extra_latency, SimDuration::ZERO);
        assert_eq!(imp.extra_jitter_mean, SimDuration::ZERO);
    }

    #[test]
    fn partition_does_not_imply_down() {
        let s = FaultSchedule::new().with_partition(4, t(10), t(20));
        assert!(s.partitioned(4, t(15)));
        assert!(!s.ap_down(4, t(15)));
    }

    #[test]
    fn random_outages_deterministic_per_seed() {
        let dur = SimDuration::from_secs(30);
        let len = SimDuration::from_millis(500)..SimDuration::from_secs(2);
        let a = FaultSchedule::random_outages(
            &mut SimRng::new(7).fork("faults"),
            4,
            dur,
            0.2,
            len.clone(),
        );
        let b = FaultSchedule::random_outages(
            &mut SimRng::new(7).fork("faults"),
            4,
            dur,
            0.2,
            len.clone(),
        );
        assert_eq!(a, b);
        let c = FaultSchedule::random_outages(&mut SimRng::new(8).fork("faults"), 4, dur, 0.2, len);
        assert_ne!(a, c);
        // All windows well-formed and inside a sane horizon.
        for o in &a.ap_outages {
            assert!(o.from < o.until);
            assert!(o.what < 4);
        }
    }

    #[test]
    fn controller_crash_window_half_open() {
        let s = FaultSchedule::new().with_controller_crash(t(100), t(300));
        assert!(!s.is_empty());
        assert!(!s.controller_down(t(99)));
        assert!(s.controller_down(t(100)));
        assert!(s.controller_down(t(299)));
        assert!(!s.controller_down(t(300)));
        // A controller crash does not take any AP down or partition it.
        assert!(!s.ap_down(0, t(150)));
        assert!(!s.partitioned(0, t(150)));
    }

    #[test]
    fn controller_edges_interleave_after_ap_edges() {
        let s = FaultSchedule::new()
            .with_ap_outage(1, t(100), t(200))
            .with_controller_crash(t(100), t(400));
        let e = s.edges();
        assert_eq!(
            e,
            vec![
                (t(100), FaultEdge::Crash(1)),
                (t(100), FaultEdge::ControllerCrash),
                (t(200), FaultEdge::Reboot(1)),
                (t(400), FaultEdge::ControllerRecover),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn overlapping_controller_crashes_rejected() {
        let _ = FaultSchedule::new()
            .with_controller_crash(t(100), t(300))
            .with_controller_crash(t(299), t(500));
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn overlapping_outages_same_ap_rejected() {
        let _ = FaultSchedule::new()
            .with_ap_outage(2, t(100), t(300))
            .with_ap_outage(2, t(200), t(400));
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn overlapping_partitions_same_ap_rejected() {
        let _ = FaultSchedule::new()
            .with_partition(1, t(0), t(50))
            .with_partition(1, t(49), t(60));
    }

    #[test]
    fn adjacent_and_cross_target_windows_are_fine() {
        // Half-open windows: [100,200) then [200,300) on the same AP do
        // not overlap; identical windows on *different* APs are fine, and
        // an outage may overlap a partition (different kinds).
        let s = FaultSchedule::new()
            .with_ap_outage(0, t(100), t(200))
            .with_ap_outage(0, t(200), t(300))
            .with_ap_outage(1, t(100), t(200))
            .with_partition(0, t(150), t(250))
            .with_controller_crash(t(100), t(200))
            .with_controller_crash(t(200), t(300));
        assert!(s.ap_down(0, t(250)));
        assert!(s.controller_down(t(250)));
    }

    #[test]
    fn failover_window_edges_and_liveness() {
        let s = FaultSchedule::new().with_controller_failover(t(100), t(400));
        assert!(!s.is_empty());
        // The schedule does NOT claim the controller is down: the standby
        // may take over mid-window, so liveness is runtime state.
        assert!(!s.controller_down(t(200)));
        assert_eq!(
            s.edges(),
            vec![
                (t(100), FaultEdge::ControllerCrash),
                (t(400), FaultEdge::ZombieWake),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn failover_overlapping_cold_crash_rejected() {
        let _ = FaultSchedule::new()
            .with_controller_crash(t(100), t(300))
            .with_controller_failover(t(200), t(500));
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn cold_crash_overlapping_failover_rejected() {
        let _ = FaultSchedule::new()
            .with_controller_failover(t(100), t(400))
            .with_controller_crash(t(200), t(300));
    }

    /// Every builder reaches the one checked `push`: a zero-length window
    /// panics in all twelve, and a probability outside `[0, 1]` (NaN
    /// included) in the seven that take one. Zero and one are legal.
    #[test]
    fn every_builder_validates_its_window_and_probability() {
        type Build = fn(SimTime, SimTime, f64) -> FaultSchedule;
        const MS: SimDuration = SimDuration::from_millis(1);
        fn new() -> FaultSchedule {
            FaultSchedule::new()
        }
        let builders: [(&str, bool, Build); 12] = [
            ("ap_outage", false, |f, u, _| new().with_ap_outage(0, f, u)),
            ("ap_flapping", false, |f, u, _| {
                new().with_ap_flapping(0, f, u, MS, 0.5)
            }),
            ("partition", false, |f, u, _| new().with_partition(0, f, u)),
            ("controller_crash", false, |f, u, _| {
                new().with_controller_crash(f, u)
            }),
            ("controller_failover", false, |f, u, _| {
                new().with_controller_failover(f, u)
            }),
            ("journal_lag", false, |f, u, _| {
                new().with_journal_lag(f, u, MS)
            }),
            ("backhaul_fault", true, |f, u, extra_loss_prob| {
                let fault = BackhaulFault {
                    extra_loss_prob,
                    extra_latency: MS,
                    extra_jitter_mean: MS,
                };
                new().with_backhaul_fault(f, u, fault)
            }),
            ("csi_drops", true, |f, u, p| new().with_csi_drops(f, u, p)),
            ("duplication", true, |f, u, p| {
                new().with_duplication(f, u, p)
            }),
            ("reordering", true, |f, u, p| {
                new().with_reordering(f, u, p, MS)
            }),
            ("migration_loss", true, |f, u, p| {
                new().with_migration_loss(f, u, p)
            }),
            ("migration_dup", true, |f, u, p| {
                new().with_migration_dup(f, u, p)
            }),
        ];
        let panic_of = |build: Build, from, until, p| {
            let err = std::panic::catch_unwind(|| build(from, until, p)).err()?;
            let literal = err.downcast_ref::<&str>().map(|m| m.to_string());
            literal.or_else(|| err.downcast_ref::<String>().cloned())
        };
        for (name, takes_prob, build) in builders {
            for p in [0.0, 1.0] {
                assert_eq!(panic_of(build, t(0), t(100), p), None, "{name}, p = {p}");
            }
            let msg = panic_of(build, t(100), t(100), 0.5);
            assert!(
                msg.as_deref()
                    .is_some_and(|m| m.contains("must be non-empty")),
                "{name}, zero-length window: {msg:?}"
            );
            for p in [-0.1, 1.5, f64::NAN] {
                let msg = panic_of(build, t(0), t(100), p);
                assert_eq!(msg.is_some(), takes_prob, "{name}, p = {p}: {msg:?}");
                assert!(
                    msg.iter()
                        .all(|m| m.contains("probability must be in [0, 1]")),
                    "{name}, p = {p}: {msg:?}"
                );
            }
        }
    }

    #[test]
    fn journal_lag_windows_sum() {
        let s = FaultSchedule::new()
            .with_journal_lag(t(0), t(100), SimDuration::from_millis(5))
            .with_journal_lag(t(50), t(200), SimDuration::from_millis(20));
        assert!(!s.is_empty());
        assert_eq!(s.journal_lag_at(t(10)), SimDuration::from_millis(5));
        assert_eq!(s.journal_lag_at(t(60)), SimDuration::from_millis(25));
        assert_eq!(s.journal_lag_at(t(150)), SimDuration::from_millis(20));
        assert_eq!(s.journal_lag_at(t(500)), SimDuration::ZERO);
    }

    #[test]
    fn flapping_expands_to_disjoint_outages() {
        // 1 s of flapping at 200 ms period, 25% duty: 5 cycles, each down
        // for the first 50 ms.
        let s = FaultSchedule::new().with_ap_flapping(
            3,
            t(1000),
            t(2000),
            SimDuration::from_millis(200),
            0.25,
        );
        assert_eq!(s.ap_outages.len(), 5);
        assert!(s.ap_down(3, t(1000)));
        assert!(s.ap_down(3, t(1049)));
        assert!(!s.ap_down(3, t(1050)));
        assert!(s.ap_down(3, t(1200)));
        assert!(!s.ap_down(3, t(1999)));
        // 10 crash/reboot edges, interleaved in order.
        assert_eq!(s.edges().len(), 10);
    }

    #[test]
    #[should_panic(expected = "duty must be in")]
    fn flapping_full_duty_rejected() {
        let _ = FaultSchedule::new().with_ap_flapping(
            0,
            t(0),
            t(1000),
            SimDuration::from_millis(100),
            1.0,
        );
    }

    #[test]
    fn migration_fault_windows_compose_and_stay_seam_scoped() {
        let s = FaultSchedule::new()
            .with_migration_loss(t(0), t(1000), 0.5)
            .with_migration_loss(t(500), t(1500), 0.5)
            .with_migration_dup(t(200), t(800), 0.1);
        assert!(!s.is_empty());
        assert_eq!(s.window_count(), 3);
        // Half-open windows, independent composition in the overlap.
        assert!((s.migration_loss_prob(t(100)) - 0.5).abs() < 1e-12);
        assert!((s.migration_loss_prob(t(700)) - 0.75).abs() < 1e-12);
        assert_eq!(s.migration_loss_prob(t(1500)), 0.0);
        assert!((s.migration_dup_prob(t(500)) - 0.1).abs() < 1e-12);
        assert_eq!(s.migration_dup_prob(t(900)), 0.0);
        // Seam windows never leak into the AP/controller fault queries:
        // the backhaul, AP, and controller timelines all stay healthy.
        assert_eq!(s.backhaul_at(t(700)), BackhaulImpairment::default());
        assert!(!s.ap_down(0, t(700)));
        assert!(!s.controller_down(t(700)));
        assert!(s.edges().is_empty());
    }

    #[test]
    fn random_outages_zero_rate_is_empty() {
        let mut rng = SimRng::new(1);
        let s = FaultSchedule::random_outages(
            &mut rng,
            8,
            SimDuration::from_secs(10),
            0.0,
            SimDuration::from_millis(100)..SimDuration::from_millis(200),
        );
        assert!(s.is_empty());
    }
}
