//! Experiment metrics.
//!
//! Everything the paper's tables and figures report, collected in one
//! place: throughput timeseries, AP-association timelines, switching
//! accuracy, delivered link bit rates (for the Fig 16 CDF), ACK-collision
//! counts (Table 3), and the capacity-loss integral (Figs 4, 21).
//!
//! The network-wide counters ([`SystemMetrics`]) are written down once, as
//! the rows of `counter_table!` below: adding a counter is adding a row,
//! and the struct field, its cross-shard fold and its place in the run
//! digest ([`crate::digest`]) all follow from it.

use wgtt_net::ApId;
use wgtt_sim::stats::BinnedSeries;
use wgtt_sim::{SimDuration, SimTime};

/// Host-side cost of one run.
///
/// Wall-clock is measured by the engine's run loops
/// ([`wgtt_sim::EnginePerf`]); none of it feeds back into the simulation,
/// so two runs of the same scenario produce bit-identical *results* even
/// when their `RunPerf` differs. This is the record the `benchmark/`
/// package reads host speed from.
#[derive(Debug, Clone, Copy)]
pub struct RunPerf {
    /// Host wall-clock seconds spent in the event loop, including the
    /// end-of-run drain of oracle samples still queued for evaluation
    /// (see [`crate::oracle`]).
    pub wall_s: f64,
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
    /// Sum over oracle samples of `max(0, best − serving)` capacity, bit/s.
    pub capacity_loss_bps_sum: f64,
    /// Number of oracle capacity samples.
    pub capacity_samples: u64,
    /// Completed failovers after a serving-AP crash: `(completion time,
    /// latency from the crash instant to re-attachment)`.
    pub failovers: Vec<(SimTime, SimDuration)>,
}

impl ClientMetrics {
    /// Creates a sink with the given throughput bin width.
    pub fn new(bin: SimDuration) -> Self {
        ClientMetrics {
            downlink: BinnedSeries::new(bin),
            uplink: BinnedSeries::new(bin),
            assoc_timeline: Vec::new(),
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
            capacity_loss_bps_sum: 0.0,
            capacity_samples: 0,
            failovers: Vec::new(),
        }
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

    /// Adds one oracle sample's verdict. The capacity-loss sum is an `f64`:
    /// callers must add verdicts in recording order (see [`crate::oracle`]).
    pub(crate) fn add_oracle(&mut self, v: &crate::oracle::Verdict) {
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
}

/// One row of the counter table, as [`SystemMetrics::visit`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Counter<'a> {
    /// A `sum` row: a plain count.
    Sum(u64),
    /// A `samples` row: `(completion time, latency)` pairs in recording order.
    Samples(&'a [(SimTime, SimDuration)]),
}

/// Expands the counter table — one row per counter: doc comment, name, fold
/// kind — into `SystemMetrics`, its `Default`, `merge` and `visit`. A fold
/// kind is `sum` (a `u64`, added across shards) or `samples` (a
/// `Vec<(SimTime, SimDuration)>`, concatenated); a row without one, or with
/// an unknown one, does not compile.
macro_rules! counter_table {
    (@type sum) => { u64 };
    (@type samples) => { Vec<(SimTime, SimDuration)> };
    (@fold sum $into:expr, $from:expr) => { $into += $from };
    (@fold samples $into:expr, $from:expr) => { $into.extend_from_slice(&$from) };
    (@view sum $field:expr) => { Counter::Sum($field) };
    (@view samples $field:expr) => { Counter::Samples(&$field) };
    (@numbered sum $i:expr) => { $i };
    (@numbered samples $i:expr) => { vec![(SimTime::from_nanos($i), SimDuration::from_nanos($i))] };
    ($($(#[$doc:meta])* $name:ident: $kind:ident,)*) => {
        /// Network-wide counters, generated from the counter table in this
        /// module.
        #[derive(Debug, Default)]
        pub struct SystemMetrics {
            $($(#[$doc])* pub $name: counter_table!(@type $kind),)*
        }

        impl SystemMetrics {
            /// Folds another world's counters into this one, row by row —
            /// the deterministic cross-shard reduction for lockstep runs.
            /// Callers merge shards in ascending shard-id order, so the
            /// `samples` rows concatenate in a fixed order regardless of
            /// worker count.
            pub fn merge(&mut self, other: &SystemMetrics) {
                $(counter_table!(@fold $kind self.$name, other.$name);)*
            }

            /// Calls `f(name, value)` once per row, in table order — what
            /// the run digest ([`crate::digest`]) and any exporter walk.
            pub fn visit<'a>(&'a self, mut f: impl FnMut(&'static str, Counter<'a>)) {
                $(f(stringify!($name), counter_table!(@view $kind self.$name));)*
            }

            /// Row `i` (from 1) holds the value `base + i`.
            #[cfg(test)]
            fn numbered(base: u64) -> Self {
                let mut i = base;
                SystemMetrics {
                    $($name: {
                        i += 1;
                        counter_table!(@numbered $kind i)
                    },)*
                }
            }
        }
    };
}

counter_table! {
    /// Uplink copies received at the controller.
    uplink_copies: sum,
    /// Uplink duplicates suppressed.
    uplink_duplicates: sum,
    /// Control packets exchanged for switching.
    control_packets: sum,
    /// Downlink packets fanned out (copies across APs).
    downlink_copies: sum,
    /// Packets discarded from stale AP queues by `start(c, k)`.
    flushed_packets: sum,
    /// Injected AP crashes that took effect.
    ap_crashes: sum,
    /// Injected AP reboots that took effect.
    ap_reboots: sum,
    /// Switches abandoned after the full retry ladder.
    abandoned_switches: sum,
    /// Emergency direct re-attaches (stale serving AP bypassed the
    /// `stop` leg of the switch protocol).
    emergency_reattaches: sum,
    /// Switch decisions refused because the target was blacklisted — each
    /// one is a wedge-loop iteration the health layer prevented.
    re_wedged_switches: sum,
    /// Control messages dropped because they carried an epoch older than
    /// the receiver had already seen — stragglers from superseded switches
    /// that would have mis-stopped, mis-started, or mis-completed.
    stale_control_dropped: sum,
    /// Control messages recognized as duplicates of an already-applied
    /// exchange (same epoch): re-acked or ignored without re-mutating
    /// queue state.
    dup_control_dropped: sum,
    /// Switch completions whose target AP turned out not to have applied
    /// that generation's `start` — an actually-applied misattribution
    /// (the ABA the epoch guard exists to prevent). A consistency
    /// tripwire: must stay zero under any duplication/reordering rate.
    mis_switches: sum,
    /// Backhaul frames the duplication fault delivered twice.
    backhaul_dup_deliveries: sum,
    /// Duplicate data deliveries discarded at the NIC refill boundary
    /// because the frame's sequence was still in the AP's MAC pipeline
    /// (NIC queue or Block ACK window) — queueing it would double-register
    /// the sequence and retransmit a frame already in flight.
    dup_data_dropped: sum,
    /// Backhaul frames the reordering fault held back.
    backhaul_reorders: sum,
    /// Injected controller crashes that took effect.
    controller_crashes: sum,
    /// Controller restarts (each one triggers a resync broadcast).
    controller_recoveries: sum,
    /// Resync replies the controller received from live APs.
    resync_replies: sum,
    /// Dual-serving / no-serving conflicts the resync repaired with a
    /// fresh epoch-stamped switch or direct re-adopt `start`.
    resync_repairs: sum,
    /// Completed resyncs: (completion time, latency since the restart).
    resyncs: samples,
    /// AP reports (CSI, uplink copies, acks, tunnel traffic) dropped at
    /// the dead controller's ingress.
    controller_rx_dropped: sum,
    /// Uplink packets APs buffered locally while the controller was down
    /// (degraded mode) instead of forwarding into a black hole.
    degraded_uplink_buffered: sum,
    /// Uplink packets dropped because an AP's bounded degraded-mode
    /// buffer was full.
    degraded_uplink_dropped: sum,
    /// Buffered uplink packets flushed to the controller after resync.
    degraded_uplink_flushed: sum,
    /// Half-open switches resolved locally: a `stop`-applied AP re-adopted
    /// its client after the guard timeout because no `start` ever landed
    /// anywhere (the client would otherwise be serverless until resync).
    local_readoptions: sum,
    /// Journal batches the primary shipped toward the warm standby.
    journal_batches_shipped: sum,
    /// Journal batches the standby's replica absorbed (stale/duplicated
    /// deliveries are not counted — the replica ignores them).
    journal_batches_applied: sum,
    /// Journal sequence gaps the replica detected (batches lost on the
    /// backhaul) — each one poisons the dedup-key delta chain and forces
    /// the takeover to fall back to AP-sourced resync.
    journal_gaps: sum,
    /// Standby takeovers: the heartbeat went silent past the takeover
    /// timeout and the standby promoted itself under a fresh term.
    standby_takeovers: sum,
    /// Completed takeovers: (promotion time, latency since the primary
    /// crash) — the warm analogue of `resyncs`.
    takeovers: samples,
    /// Control/resync frames dropped by an AP's term guard because they
    /// carried a controller term below its high-water mark — a fenced
    /// zombie ex-primary trying to drive switches after losing a takeover.
    stale_term_dropped: sum,
    /// Zombie ex-primaries that woke, broadcast under their stale term,
    /// and got nothing back (every live AP fenced them out).
    zombie_standdowns: sum,
    /// Control frames dropped instead of processed because they referenced
    /// protocol state that no longer exists (e.g. a `start` for a client
    /// whose association was wiped) — graceful degradation where the
    /// handler would otherwise have to invent state or panic.
    orphaned_control_dropped: sum,
    /// Clients retired out of this world at a shard boundary (lockstep
    /// sharding; zero in unsharded runs).
    migrated_out: sum,
    /// Clients admitted into this world from a neighboring shard.
    migrated_in: sum,
    /// Control/timer events (CSI reports, probe ticks, switch acks, …)
    /// dropped because their target client had already been retired to
    /// another shard. Pure bookkeeping stragglers: dropping them loses no
    /// client data.
    departed_ctrl_drops: sum,
    /// Client *data* packets lost at a shard seam: in-flight datagrams of
    /// a departed client that could not be forwarded to its destination
    /// shard (a forward past its retry budget, or the naive no-transfer
    /// mode).
    departed_data_drops: sum,
    /// Wire bytes of `departed_data_drops` — charged to the retention
    /// denominator so seam losses can't silently inflate retention.
    departed_data_bytes: sum,
    /// In-flight data packets of departed clients captured at the seam
    /// and forwarded to the destination shard at an epoch barrier.
    seam_forwarded: sum,
    /// Residue entries (cyclic-queue tail + unacked uplink) imported from
    /// a migration record into this world.
    residue_transferred: sum,
    /// Uplink copies dropped because the resync hold buffer was at its
    /// `DEGRADED_UPLINK_CAP` (oldest-drop policy).
    resync_held_overflow: sum,
    /// Seam-migration frames re-sent after an unacked `retry_timeout`
    /// (prepare resends plus residue-forward resends).
    migration_retries: sum,
    /// Duplicate seam-migration frames absorbed by idempotence: an
    /// already-applied prepare, already-applied forward, or an ack for a
    /// seq the source already released.
    migration_dups_dropped: sum,
    /// Handoffs abandoned after `max_attempts` unacked prepares — the
    /// source readopted the client and will re-export it at the next
    /// boundary pass.
    migration_aborts: sum,
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
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ClientMetrics::new(SimDuration::from_millis(100));
        assert_eq!(m.switching_accuracy(), 0.0);
        assert_eq!(m.ack_collision_rate(), 0.0);
        assert_eq!(m.mean_downlink_bps(SimDuration::from_secs(1)), 0.0);
        assert_eq!(m.switch_count(), 0);
        assert_eq!(m.serving_at(t(5)), None);
    }

    #[test]
    fn merge_folds_every_row() {
        let mut merged = SystemMetrics::numbered(100);
        merged.merge(&SystemMetrics::numbered(1000));
        let sample = |i| (SimTime::from_nanos(i), SimDuration::from_nanos(i));
        let mut row = 0;
        merged.visit(|name, value| {
            row += 1;
            let (ours, theirs) = (100 + row, 1000 + row);
            match value {
                Counter::Sum(n) => assert_eq!(n, ours + theirs, "{name}"),
                Counter::Samples(s) => assert_eq!(s, [sample(ours), sample(theirs)], "{name}"),
            }
        });
        assert!(row > 0, "the table has no rows");
    }

    #[test]
    fn visit_yields_each_field_once_in_declaration_order() {
        // `derive(Debug)` prints the struct's fields in declaration order.
        let metrics = SystemMetrics::default();
        let debug = format!("{metrics:?}");
        let declared: Vec<&str> = debug
            .trim_start_matches("SystemMetrics {")
            .trim_end_matches('}')
            .split(',')
            .map(|field| field.split(':').next().unwrap().trim())
            .collect();
        let mut visited = Vec::new();
        metrics.visit(|name, _| visited.push(name));
        assert_eq!(visited, declared);
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
