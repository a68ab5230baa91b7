//! Experiment metrics.
//!
//! Everything the paper's tables and figures report, collected in one
//! place: throughput timeseries, AP-association timelines, switching
//! accuracy, delivered link bit rates (for the Fig 16 CDF), ACK-collision
//! counts (Table 3), and the capacity-loss integral (Figs 4, 21).

use serde::Serialize;
use wgtt_net::ApId;
use wgtt_sim::stats::BinnedSeries;
use wgtt_sim::{EnginePerf, SimDuration, SimTime};

/// Host-side performance of one run: simulated work vs wall-clock cost.
///
/// Wall-clock is measured by the engine's run loops ([`EnginePerf`]); none
/// of it feeds back into the simulation, so two runs of the same scenario
/// produce bit-identical *results* even when their `RunPerf` differs. This
/// is the record the `benchmark/` package reads host speed from.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunPerf {
    /// Events the engine processed.
    pub events: u64,
    /// Host wall-clock seconds spent in the event loop, including the
    /// end-of-run drain of oracle samples still queued for evaluation
    /// (see [`crate::oracle`]).
    pub wall_s: f64,
    /// Simulated seconds covered by the run (traffic duration + settle).
    pub sim_s: f64,
}

impl RunPerf {
    /// Builds the record from engine counters plus the simulated span.
    pub fn from_engine(perf: EnginePerf, sim_s: f64) -> Self {
        RunPerf {
            events: perf.events,
            wall_s: perf.wall.as_secs_f64(),
            sim_s,
        }
    }

    /// Events processed per wall-clock second (0 when no time elapsed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Simulated-time / real-time ratio: how many simulated seconds one
    /// host second buys (>1 means faster than real time).
    pub fn sim_rt_ratio(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sim_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// Per-client measurement sink.
#[derive(Debug)]
pub struct ClientMetrics {
    /// Downlink goodput, bits per bin.
    pub downlink: BinnedSeries,
    /// Uplink goodput, bits per bin.
    pub uplink: BinnedSeries,
    /// `(time, serving AP)` association/switch timeline (Figs 14, 15, 22).
    pub assoc_timeline: Vec<(SimTime, Option<ApId>)>,
    /// PHY rate (Mbit/s) of each successfully delivered downlink MPDU.
    pub delivered_mpdu_rates_mbps: Vec<f64>,
    /// PHY rate (Mbit/s) of every transmitted downlink MPDU — what a
    /// monitor capture would see on the air.
    pub attempted_mpdu_rates_mbps: Vec<f64>,
    /// Per-100 ms sums of delivered-MPDU PHY rates (numerator of the
    /// per-bin mean link bit rate — the Fig 16 CDF population).
    pub rate_bin_sum: BinnedSeries,
    /// Per-100 ms delivered-MPDU counts (denominator).
    pub rate_bin_count: BinnedSeries,
    /// Selection-accuracy tally: ticks where a serving AP existed.
    pub accuracy_total: u64,
    /// Ticks where the serving AP was the instantaneous-ESNR oracle's
    /// choice (Table 2 numerator).
    pub accuracy_optimal: u64,
    /// Link-layer ACK/BA responses the client expected.
    pub ack_responses: u64,
    /// Responses destroyed by AP-response collisions (Table 3 numerator).
    pub ack_collisions: u64,
    /// Downlink MPDU delivery attempts / successes.
    pub mpdu_attempts: u64,
    /// Successful MPDU deliveries.
    pub mpdu_successes: u64,
    /// Retransmitted MPDUs (link layer).
    pub mpdu_retransmits: u64,
    /// Block ACKs recovered via backhaul forwarding (§3.2.1 mechanism).
    pub ba_forwarded_applied: u64,
    /// Block ACKs lost at the serving AP (before any forwarding).
    pub ba_lost_at_serving: u64,
    /// Sum over oracle samples of the best link's capacity, bit/s.
    pub capacity_best_bps_sum: f64,
    /// Sum over oracle samples of `max(0, best − serving)` capacity, bit/s.
    pub capacity_loss_bps_sum: f64,
    /// Number of oracle capacity samples.
    pub capacity_samples: u64,
    /// Completed failovers after a serving-AP crash: `(completion time,
    /// latency from the crash instant to re-attachment)`.
    pub failovers: Vec<(SimTime, SimDuration)>,
    /// Total time spent detached because of AP faults.
    pub blackout_total: SimDuration,
}

impl ClientMetrics {
    /// Creates a sink with the given throughput bin width.
    pub fn new(bin: SimDuration) -> Self {
        ClientMetrics {
            downlink: BinnedSeries::new(bin),
            uplink: BinnedSeries::new(bin),
            assoc_timeline: Vec::new(),
            delivered_mpdu_rates_mbps: Vec::new(),
            attempted_mpdu_rates_mbps: Vec::new(),
            rate_bin_sum: BinnedSeries::new(bin),
            rate_bin_count: BinnedSeries::new(bin),
            accuracy_total: 0,
            accuracy_optimal: 0,
            ack_responses: 0,
            ack_collisions: 0,
            mpdu_attempts: 0,
            mpdu_successes: 0,
            mpdu_retransmits: 0,
            ba_forwarded_applied: 0,
            ba_lost_at_serving: 0,
            capacity_best_bps_sum: 0.0,
            capacity_loss_bps_sum: 0.0,
            capacity_samples: 0,
            failovers: Vec::new(),
            blackout_total: SimDuration::ZERO,
        }
    }

    /// Mean failover latency (crash → re-attach), if any failover completed.
    pub fn mean_failover(&self) -> Option<SimDuration> {
        if self.failovers.is_empty() {
            return None;
        }
        let total: f64 = self.failovers.iter().map(|&(_, d)| d.as_secs_f64()).sum();
        Some(SimDuration::from_secs_f64(
            total / self.failovers.len() as f64,
        ))
    }

    /// Worst-case failover latency.
    pub fn max_failover(&self) -> Option<SimDuration> {
        self.failovers.iter().map(|&(_, d)| d).max()
    }

    /// Mean channel-capacity loss, bit/s (Fig 4's dashed-area metric and
    /// the Fig 21 y-axis).
    pub fn mean_capacity_loss_bps(&self) -> f64 {
        if self.capacity_samples == 0 {
            0.0
        } else {
            self.capacity_loss_bps_sum / self.capacity_samples as f64
        }
    }

    /// Capacity-loss *rate*: loss as a fraction of the best achievable.
    pub fn capacity_loss_fraction(&self) -> f64 {
        if self.capacity_best_bps_sum <= 0.0 {
            0.0
        } else {
            self.capacity_loss_bps_sum / self.capacity_best_bps_sum
        }
    }

    /// Adds one oracle sample's verdict. The two capacity sums are `f64`s:
    /// callers must add verdicts in recording order (see [`crate::oracle`]).
    pub(crate) fn add_oracle(&mut self, v: &crate::oracle::Verdict) {
        self.capacity_best_bps_sum += v.best_cap;
        self.capacity_loss_bps_sum += v.loss;
        self.capacity_samples += 1;
        if v.has_serving {
            self.accuracy_total += 1;
            if v.optimal {
                self.accuracy_optimal += 1;
            }
        }
    }

    /// Records an association change if it differs from the last entry.
    pub fn record_assoc(&mut self, now: SimTime, ap: Option<ApId>) {
        if self.assoc_timeline.last().map(|&(_, a)| a) != Some(ap) {
            self.assoc_timeline.push((now, ap));
        }
    }

    /// Serving AP at time `t` according to the timeline.
    pub fn serving_at(&self, t: SimTime) -> Option<ApId> {
        self.assoc_timeline
            .iter()
            .take_while(|&&(at, _)| at <= t)
            .last()
            .and_then(|&(_, ap)| ap)
    }

    /// Number of AP switches recorded: transitions between two different
    /// concrete APs, ignoring intervening detached (`None`) gaps such as
    /// baseline handover downtime.
    pub fn switch_count(&self) -> usize {
        let aps: Vec<ApId> = self
            .assoc_timeline
            .iter()
            .filter_map(|&(_, ap)| ap)
            .collect();
        aps.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Mean downlink goodput over `duration`, bit/s.
    pub fn mean_downlink_bps(&self, duration: SimDuration) -> f64 {
        if duration == SimDuration::ZERO {
            0.0
        } else {
            self.downlink.total() / duration.as_secs_f64()
        }
    }

    /// Mean uplink goodput over `duration`, bit/s.
    pub fn mean_uplink_bps(&self, duration: SimDuration) -> f64 {
        if duration == SimDuration::ZERO {
            0.0
        } else {
            self.uplink.total() / duration.as_secs_f64()
        }
    }

    /// Switching accuracy (Table 2): fraction of ticks on the optimal AP.
    pub fn switching_accuracy(&self) -> f64 {
        if self.accuracy_total == 0 {
            0.0
        } else {
            self.accuracy_optimal as f64 / self.accuracy_total as f64
        }
    }

    /// ACK collision rate (Table 3).
    pub fn ack_collision_rate(&self) -> f64 {
        if self.ack_responses == 0 {
            0.0
        } else {
            self.ack_collisions as f64 / self.ack_responses as f64
        }
    }

    /// Per-bin mean delivered link bit rate over `[0, duration)`: one
    /// sample per bin, `0.0` for bins where nothing was delivered — the
    /// time-weighted "link bit rate" population of the paper's Fig 16.
    pub fn link_rate_timeline_mbps(&self, duration: SimDuration) -> Vec<f64> {
        let bin = self.rate_bin_sum.bin_width();
        let bins = (duration.as_nanos() / bin.as_nanos().max(1)) as usize;
        let sums = self.rate_bin_sum.points();
        let counts = self.rate_bin_count.points();
        (0..bins)
            .map(|i| {
                let s = sums.get(i).map_or(0.0, |&(_, v)| v);
                let n = counts.get(i).map_or(0.0, |&(_, v)| v);
                if n > 0.0 {
                    s / n
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Link-layer delivery ratio.
    pub fn mpdu_delivery_ratio(&self) -> f64 {
        if self.mpdu_attempts == 0 {
            0.0
        } else {
            self.mpdu_successes as f64 / self.mpdu_attempts as f64
        }
    }
}

/// Network-wide counters.
#[derive(Debug, Default)]
pub struct SystemMetrics {
    /// Uplink copies received at the controller.
    pub uplink_copies: u64,
    /// Uplink duplicates suppressed.
    pub uplink_duplicates: u64,
    /// Control packets exchanged for switching.
    pub control_packets: u64,
    /// Downlink packets fanned out (copies across APs).
    pub downlink_copies: u64,
    /// Packets discarded from stale AP queues by `start(c, k)`.
    pub flushed_packets: u64,
    /// Injected AP crashes that took effect.
    pub ap_crashes: u64,
    /// Injected AP reboots that took effect.
    pub ap_reboots: u64,
    /// Switches abandoned after the full retry ladder.
    pub abandoned_switches: u64,
    /// Emergency direct re-attaches (stale serving AP bypassed the
    /// `stop` leg of the switch protocol).
    pub emergency_reattaches: u64,
    /// Switch decisions refused because the target was blacklisted — each
    /// one is a wedge-loop iteration the health layer prevented.
    pub re_wedged_switches: u64,
    /// Control messages dropped because they carried an epoch older than
    /// the receiver had already seen — stragglers from superseded switches
    /// that would have mis-stopped, mis-started, or mis-completed.
    pub stale_control_dropped: u64,
    /// Control messages recognized as duplicates of an already-applied
    /// exchange (same epoch): re-acked or ignored without re-mutating
    /// queue state.
    pub dup_control_dropped: u64,
    /// Switch completions whose target AP turned out not to have applied
    /// that generation's `start` — an actually-applied misattribution
    /// (the ABA the epoch guard exists to prevent). A consistency
    /// tripwire: must stay zero under any duplication/reordering rate.
    pub mis_switches: u64,
    /// Backhaul frames the duplication fault delivered twice.
    pub backhaul_dup_deliveries: u64,
    /// Duplicate data deliveries discarded at the NIC refill boundary
    /// because the frame's sequence was still in the AP's MAC pipeline
    /// (NIC queue or Block ACK window) — queueing it would double-register
    /// the sequence and retransmit a frame already in flight.
    pub dup_data_dropped: u64,
    /// Backhaul frames the reordering fault held back.
    pub backhaul_reorders: u64,
    /// Injected controller crashes that took effect.
    pub controller_crashes: u64,
    /// Controller restarts (each one triggers a resync broadcast).
    pub controller_recoveries: u64,
    /// Resync replies the controller received from live APs.
    pub resync_replies: u64,
    /// Dual-serving / no-serving conflicts the resync repaired with a
    /// fresh epoch-stamped switch or direct re-adopt `start`.
    pub resync_repairs: u64,
    /// Completed resyncs: (completion time, latency since the restart).
    pub resyncs: Vec<(SimTime, SimDuration)>,
    /// AP reports (CSI, uplink copies, acks, tunnel traffic) dropped at
    /// the dead controller's ingress.
    pub controller_rx_dropped: u64,
    /// Uplink packets APs buffered locally while the controller was down
    /// (degraded mode) instead of forwarding into a black hole.
    pub degraded_uplink_buffered: u64,
    /// Uplink packets dropped because an AP's bounded degraded-mode
    /// buffer was full.
    pub degraded_uplink_dropped: u64,
    /// Buffered uplink packets flushed to the controller after resync.
    pub degraded_uplink_flushed: u64,
    /// Half-open switches resolved locally: a `stop`-applied AP re-adopted
    /// its client after the guard timeout because no `start` ever landed
    /// anywhere (the client would otherwise be serverless until resync).
    pub local_readoptions: u64,
    /// Journal batches the primary shipped toward the warm standby.
    pub journal_batches_shipped: u64,
    /// Journal batches the standby's replica absorbed (stale/duplicated
    /// deliveries are not counted — the replica ignores them).
    pub journal_batches_applied: u64,
    /// Journal sequence gaps the replica detected (batches lost on the
    /// backhaul) — each one poisons the dedup-key delta chain and forces
    /// the takeover to fall back to AP-sourced resync.
    pub journal_gaps: u64,
    /// Standby takeovers: the heartbeat went silent past the takeover
    /// timeout and the standby promoted itself under a fresh term.
    pub standby_takeovers: u64,
    /// Completed takeovers: (promotion time, latency since the primary
    /// crash) — the warm analogue of `resyncs`.
    pub takeovers: Vec<(SimTime, SimDuration)>,
    /// Control/resync frames dropped by an AP's term guard because they
    /// carried a controller term below its high-water mark — a fenced
    /// zombie ex-primary trying to drive switches after losing a takeover.
    pub stale_term_dropped: u64,
    /// Zombie ex-primaries that woke, broadcast under their stale term,
    /// and got nothing back (every live AP fenced them out).
    pub zombie_standdowns: u64,
    /// Control frames dropped instead of processed because they referenced
    /// protocol state that no longer exists (e.g. a `start` for a client
    /// whose association was wiped) — graceful degradation where the
    /// handler would otherwise have to invent state or panic.
    pub orphaned_control_dropped: u64,
    /// Clients retired out of this world at a shard boundary (lockstep
    /// sharding; zero in unsharded runs).
    pub migrated_out: u64,
    /// Clients admitted into this world from a neighboring shard.
    pub migrated_in: u64,
    /// Control/timer events (CSI reports, probe ticks, switch acks, …)
    /// dropped because their target client had already been retired to
    /// another shard. Pure bookkeeping stragglers: dropping them loses no
    /// client data.
    pub departed_ctrl_drops: u64,
    /// Client *data* packets lost at a shard seam: in-flight datagrams of
    /// a departed client that could not be forwarded to its destination
    /// shard (non-ring corridor exit, or the naive no-transfer mode).
    pub departed_data_drops: u64,
    /// Wire bytes of `departed_data_drops` — charged to the retention
    /// denominator so seam losses can't silently inflate retention.
    pub departed_data_bytes: u64,
    /// In-flight data packets of departed clients captured at the seam
    /// and forwarded to the destination shard at an epoch barrier.
    pub seam_forwarded: u64,
    /// Residue entries (cyclic-queue tail + unacked uplink) imported from
    /// a migration record into this world.
    pub residue_transferred: u64,
    /// Uplink copies dropped because the resync hold buffer was at its
    /// `degraded_uplink_cap` (oldest-drop policy).
    pub resync_held_overflow: u64,
    /// Seam-migration frames re-sent after an unacked `retry_timeout`
    /// (prepare resends plus residue-forward resends).
    pub migration_retries: u64,
    /// Duplicate seam-migration frames absorbed by idempotence: an
    /// already-applied prepare, already-applied forward, or an ack for a
    /// seq the source already released.
    pub migration_dups_dropped: u64,
    /// Handoffs abandoned after `max_attempts` unacked prepares — the
    /// source readopted the client and will re-export it at the next
    /// boundary pass.
    pub migration_aborts: u64,
}

impl SystemMetrics {
    /// Folds another world's counters into this one — the deterministic
    /// cross-shard reduction for lockstep runs. Callers merge shards in
    /// ascending shard-id order, so the `Vec` fields (resync/takeover
    /// latency samples) concatenate in a fixed order regardless of worker
    /// count. Every field must be folded here; the `merge_covers_every_
    /// field` test fails to compile when a new counter is added without a
    /// fold.
    pub fn merge(&mut self, other: &SystemMetrics) {
        // Destructure so adding a SystemMetrics field without updating the
        // merge is a compile error, not a silent under-count.
        let SystemMetrics {
            uplink_copies,
            uplink_duplicates,
            control_packets,
            downlink_copies,
            flushed_packets,
            ap_crashes,
            ap_reboots,
            abandoned_switches,
            emergency_reattaches,
            re_wedged_switches,
            stale_control_dropped,
            dup_control_dropped,
            mis_switches,
            backhaul_dup_deliveries,
            dup_data_dropped,
            backhaul_reorders,
            controller_crashes,
            controller_recoveries,
            resync_replies,
            resync_repairs,
            resyncs,
            controller_rx_dropped,
            degraded_uplink_buffered,
            degraded_uplink_dropped,
            degraded_uplink_flushed,
            local_readoptions,
            journal_batches_shipped,
            journal_batches_applied,
            journal_gaps,
            standby_takeovers,
            takeovers,
            stale_term_dropped,
            zombie_standdowns,
            orphaned_control_dropped,
            migrated_out,
            migrated_in,
            departed_ctrl_drops,
            departed_data_drops,
            departed_data_bytes,
            seam_forwarded,
            residue_transferred,
            resync_held_overflow,
            migration_retries,
            migration_dups_dropped,
            migration_aborts,
        } = other;
        self.uplink_copies += uplink_copies;
        self.uplink_duplicates += uplink_duplicates;
        self.control_packets += control_packets;
        self.downlink_copies += downlink_copies;
        self.flushed_packets += flushed_packets;
        self.ap_crashes += ap_crashes;
        self.ap_reboots += ap_reboots;
        self.abandoned_switches += abandoned_switches;
        self.emergency_reattaches += emergency_reattaches;
        self.re_wedged_switches += re_wedged_switches;
        self.stale_control_dropped += stale_control_dropped;
        self.dup_control_dropped += dup_control_dropped;
        self.mis_switches += mis_switches;
        self.backhaul_dup_deliveries += backhaul_dup_deliveries;
        self.dup_data_dropped += dup_data_dropped;
        self.backhaul_reorders += backhaul_reorders;
        self.controller_crashes += controller_crashes;
        self.controller_recoveries += controller_recoveries;
        self.resync_replies += resync_replies;
        self.resync_repairs += resync_repairs;
        self.resyncs.extend_from_slice(resyncs);
        self.controller_rx_dropped += controller_rx_dropped;
        self.degraded_uplink_buffered += degraded_uplink_buffered;
        self.degraded_uplink_dropped += degraded_uplink_dropped;
        self.degraded_uplink_flushed += degraded_uplink_flushed;
        self.local_readoptions += local_readoptions;
        self.journal_batches_shipped += journal_batches_shipped;
        self.journal_batches_applied += journal_batches_applied;
        self.journal_gaps += journal_gaps;
        self.standby_takeovers += standby_takeovers;
        self.takeovers.extend_from_slice(takeovers);
        self.stale_term_dropped += stale_term_dropped;
        self.zombie_standdowns += zombie_standdowns;
        self.orphaned_control_dropped += orphaned_control_dropped;
        self.migrated_out += migrated_out;
        self.migrated_in += migrated_in;
        self.departed_ctrl_drops += departed_ctrl_drops;
        self.departed_data_drops += departed_data_drops;
        self.departed_data_bytes += departed_data_bytes;
        self.seam_forwarded += seam_forwarded;
        self.residue_transferred += residue_transferred;
        self.resync_held_overflow += resync_held_overflow;
        self.migration_retries += migration_retries;
        self.migration_dups_dropped += migration_dups_dropped;
        self.migration_aborts += migration_aborts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn assoc_timeline_dedups() {
        let mut m = ClientMetrics::new(SimDuration::from_millis(100));
        m.record_assoc(t(0), None);
        m.record_assoc(t(10), Some(ApId(0)));
        m.record_assoc(t(20), Some(ApId(0))); // no change
        m.record_assoc(t(30), Some(ApId(1)));
        m.record_assoc(t(40), None);
        m.record_assoc(t(50), Some(ApId(1)));
        assert_eq!(m.assoc_timeline.len(), 5);
        // 0→1 counts; the None gap before re-attaching to 1 does not.
        assert_eq!(m.switch_count(), 1);
        assert_eq!(m.serving_at(t(15)), Some(ApId(0)));
        assert_eq!(m.serving_at(t(35)), Some(ApId(1)));
        assert_eq!(m.serving_at(t(45)), None);
        assert_eq!(m.serving_at(t(55)), Some(ApId(1)));
    }

    #[test]
    fn accuracy_and_rates() {
        let mut m = ClientMetrics::new(SimDuration::from_millis(100));
        m.accuracy_total = 100;
        m.accuracy_optimal = 90;
        assert!((m.switching_accuracy() - 0.9).abs() < 1e-12);
        m.ack_responses = 1000;
        m.ack_collisions = 2;
        assert!((m.ack_collision_rate() - 0.002).abs() < 1e-12);
        m.mpdu_attempts = 10;
        m.mpdu_successes = 7;
        assert!((m.mpdu_delivery_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn run_perf_ratios() {
        let p = RunPerf {
            events: 1_000_000,
            wall_s: 2.0,
            sim_s: 10.0,
        };
        assert!((p.events_per_sec() - 500_000.0).abs() < 1e-9);
        assert!((p.sim_rt_ratio() - 5.0).abs() < 1e-12);
        let zero = RunPerf {
            events: 5,
            wall_s: 0.0,
            sim_s: 1.0,
        };
        assert_eq!(zero.events_per_sec(), 0.0);
        assert_eq!(zero.sim_rt_ratio(), 0.0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ClientMetrics::new(SimDuration::from_millis(100));
        assert_eq!(m.switching_accuracy(), 0.0);
        assert_eq!(m.ack_collision_rate(), 0.0);
        assert_eq!(m.mpdu_delivery_ratio(), 0.0);
        assert_eq!(m.mean_downlink_bps(SimDuration::from_secs(1)), 0.0);
        assert_eq!(m.switch_count(), 0);
        assert_eq!(m.serving_at(t(5)), None);
    }

    #[test]
    fn system_metrics_merge_sums_and_concatenates() {
        let mut a = SystemMetrics {
            uplink_copies: 3,
            ..Default::default()
        };
        a.resyncs.push((t(1), SimDuration::from_millis(2)));
        let mut b = SystemMetrics {
            uplink_copies: 4,
            migrated_in: 2,
            departed_ctrl_drops: 1,
            departed_data_drops: 2,
            departed_data_bytes: 3000,
            seam_forwarded: 4,
            residue_transferred: 5,
            resync_held_overflow: 6,
            migration_retries: 7,
            migration_dups_dropped: 8,
            migration_aborts: 9,
            ..Default::default()
        };
        b.takeovers.push((t(5), SimDuration::from_millis(6)));
        a.merge(&b);
        assert_eq!(a.uplink_copies, 7);
        assert_eq!(a.migrated_in, 2);
        assert_eq!(a.departed_ctrl_drops, 1);
        assert_eq!(a.departed_data_drops, 2);
        assert_eq!(a.departed_data_bytes, 3000);
        assert_eq!(a.seam_forwarded, 4);
        assert_eq!(a.residue_transferred, 5);
        assert_eq!(a.resync_held_overflow, 6);
        assert_eq!(a.migration_retries, 7);
        assert_eq!(a.migration_dups_dropped, 8);
        assert_eq!(a.migration_aborts, 9);
        assert_eq!(a.resyncs, vec![(t(1), SimDuration::from_millis(2))]);
        assert_eq!(a.takeovers, vec![(t(5), SimDuration::from_millis(6))]);
    }

    #[test]
    fn throughput_accounting() {
        let mut m = ClientMetrics::new(SimDuration::from_millis(100));
        m.downlink.add(t(50), 1_000_000.0);
        m.downlink.add(t(150), 2_000_000.0);
        assert!((m.mean_downlink_bps(SimDuration::from_secs(1)) - 3e6).abs() < 1e-6);
        m.uplink.add(t(10), 500_000.0);
        assert!((m.mean_uplink_bps(SimDuration::from_millis(500)) - 1e6).abs() < 1e-6);
    }
}
