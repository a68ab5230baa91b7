//! The benchmark's vocabulary: workload names, metric names, units,
//! directions, time bases and regression bounds. `BENCHMARK.json` at the
//! repo root repeats these; a self-test keeps the two equal.

/// The four workloads, in the order they run.
pub const WORKLOADS: [&str; 4] = ["drive_udp", "convoy_mixed", "corridor_ring", "fault_storm"];

/// Seed used when `--seed` is not given (the paper's presentation date).
pub const DEFAULT_SEED: u64 = 20170821;

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// Host wall-clock or host memory: what the simulator costs. Noisy.
    Host,
    /// Simulated time, or a count read from a finished world: what the
    /// modelled WGTT system does. Repeats bit-exactly for one seed.
    Sim,
}

impl Base {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Base::Host => "host",
            Base::Sim => "sim",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// Spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Clock the metric reads.
    pub base: Base,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression. Zero on
    /// per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    base: Base,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        base,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, base: Base) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        base,
        bound: 0.0,
    }
}

use Base::{Host, Sim};
use Better::{Higher, Lower};

/// The eight end-to-end metrics, all reported for all four workloads.
///
/// The simulated-time bounds are wider than a behaviour check needs — for
/// one seed those metrics repeat bit-exactly and `compare` demands just
/// that — because the acceptance runs vary the seed, and a bound has to
/// hold the seed-to-seed spread of the noisiest workload (`fault_storm`,
/// whose eight random storms differ in how much of each drive they cover).
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("sim_rt_ratio", "sim-s/s", Higher, Host, 0.25),
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("peak_heap_mib", "MiB", Lower, Host, 0.10),
    e2e("goodput_mbps", "Mb/s", Higher, Sim, 0.15),
    e2e("udp_delivery_ratio", "ratio", Higher, Sim, 0.15),
    e2e("switch_ms_p50", "ms", Lower, Sim, 0.10),
    e2e("switch_ms_p95", "ms", Lower, Sim, 0.20),
    e2e("switch_accuracy", "ratio", Higher, Sim, 0.05),
];

/// The 74 per-layer metrics. Layer names are the repo's modules. `*_ns`,
/// `*_us` and `*_ms` host metrics come from the benchmark timing calls into
/// the named layer's public functions; counts and ratios are read from the
/// finished worlds. The direction of a count is nominal: it is the
/// direction in which the modelled system is doing less wasted work.
pub const PER_LAYER: [MetricSpec; 74] = [
    layer("sim.queue.hold_ns", "ns", Lower, Host),
    layer("sim.queue.hold_far_ns", "ns", Lower, Host),
    layer("sim.engine.events", "count", Lower, Sim),
    layer("sim.engine.events_per_s", "1/s", Higher, Host),
    layer("sim.engine.ns_per_event", "ns", Lower, Host),
    layer("sim.engine.allocs_per_event", "ratio", Lower, Host),
    layer("sim.engine.dispatch_ns", "ns", Lower, Host),
    layer("sim.lockstep.epochs", "count", Lower, Sim),
    layer("sim.lockstep.events_per_epoch", "ratio", Higher, Sim),
    layer("sim.lockstep.epoch_overhead_us", "us", Lower, Host),
    layer("sim.lockstep.driver_efficiency", "ratio", Higher, Host),
    layer("sim.lockstep.serial_sim_rt_ratio", "sim-s/s", Higher, Host),
    layer("sim.lockstep.speedup", "ratio", Higher, Host),
    layer("sim.fault.lookup_ns", "ns", Lower, Host),
    layer("sim.fault.windows", "count", Higher, Sim),
    layer("phy.fading.csi_ns", "ns", Lower, Host),
    layer("phy.esnr.capacity_ns", "ns", Lower, Host),
    layer("phy.esnr.memo_ns", "ns", Lower, Host),
    layer("phy.esnr.controller_esnr_ns", "ns", Lower, Host),
    layer("phy.link.mean_snr_hit_ns", "ns", Lower, Host),
    layer("phy.link.mean_snr_miss_ns", "ns", Lower, Host),
    layer("mac.dcf.round_ns_1", "ns", Lower, Host),
    layer("mac.dcf.round_ns_3", "ns", Lower, Host),
    layer("mac.dcf.tx_count", "count", Lower, Sim),
    layer("mac.dcf.collisions", "count", Lower, Sim),
    layer("mac.dcf.busy_ratio", "ratio", Lower, Sim),
    layer("mac.ampdu.take_ns", "ns", Lower, Host),
    layer("mac.ampdu.mpdu_attempts", "count", Lower, Sim),
    layer("mac.ampdu.mpdu_success_ratio", "ratio", Higher, Sim),
    layer("mac.ampdu.retransmits", "count", Lower, Sim),
    layer("mac.blockack.window_ns", "ns", Lower, Host),
    layer("mac.blockack.ba_forwarded", "count", Higher, Sim),
    layer("mac.blockack.ba_lost_at_serving", "count", Lower, Sim),
    layer("net.backhaul.transit_ns", "ns", Lower, Host),
    layer("net.backhaul.transit_faulty_ns", "ns", Lower, Host),
    layer("net.backhaul.dup_deliveries", "count", Lower, Sim),
    layer("net.backhaul.reorders", "count", Lower, Sim),
    layer("net.tcp.segment_ns", "ns", Lower, Host),
    layer("net.tcp.retransmits", "count", Lower, Sim),
    layer("net.tcp.timeouts", "count", Lower, Sim),
    layer("core.cyclic.insert_pop_ns", "ns", Lower, Host),
    layer("core.cyclic.start_from_ns", "ns", Lower, Host),
    layer("core.cyclic.flushed_packets", "count", Lower, Sim),
    layer("core.selection.reading_ns", "ns", Lower, Host),
    layer("core.selection.decide_ns", "ns", Lower, Host),
    layer("core.switching.cycle_ns", "ns", Lower, Host),
    layer("core.switching.switches", "count", Lower, Sim),
    layer("core.switching.retries", "count", Lower, Sim),
    layer("core.switching.abandon_ratio", "ratio", Lower, Sim),
    layer("core.switching.stale_dropped", "count", Lower, Sim),
    layer("core.switching.dup_dropped", "count", Lower, Sim),
    layer("core.dedup.check_ns", "ns", Lower, Host),
    layer("core.dedup.uplink_copies", "count", Higher, Sim),
    layer("core.dedup.dup_ratio", "ratio", Higher, Sim),
    layer("core.controller.downlink_copies", "count", Lower, Sim),
    layer("core.controller.control_packets", "count", Lower, Sim),
    layer("core.health.emergency_reattaches", "count", Lower, Sim),
    layer("core.health.failover_ms_p50", "ms", Lower, Sim),
    layer("core.replica.takeover_ms_p50", "ms", Lower, Sim),
    layer("core.replica.journal_batches", "count", Lower, Sim),
    layer("core.replica.journal_gaps", "count", Lower, Sim),
    layer("core.replica.stale_term_dropped", "count", Lower, Sim),
    layer("core.shard.migrations", "count", Higher, Sim),
    layer("core.shard.migration_retries", "count", Lower, Sim),
    layer("core.shard.seam_retention", "ratio", Higher, Sim),
    layer("core.shard.per_event_overhead", "ratio", Lower, Host),
    layer("core.world.construct_ms", "ms", Lower, Host),
    layer("core.world.step_ns_p50", "ns", Lower, Host),
    layer("core.world.step_ns_p99", "ns", Lower, Host),
    layer("core.world.step_trace_overhead", "ratio", Lower, Host),
    layer("model.gain_vs_80211r", "ratio", Higher, Sim),
    layer("model.goodput_vs_paper", "ratio", Lower, Sim),
    layer("model.switch_ms_vs_paper", "ratio", Lower, Sim),
    layer("model.accuracy_vs_paper", "ratio", Higher, Sim),
];

/// The layer a per-layer metric belongs to: its name up to the last dot
/// (`sim.queue.hold_ns` → `sim.queue`; `model.*` → `model`).
pub fn layer_of(metric: &str) -> &str {
    metric.rsplit_once('.').map_or(metric, |(l, _)| l)
}

/// Looks up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Reference figures of the paper the `model.*` ratios are taken against
/// (EXPERIMENTS.md: Fig 13 UDP goodput, Table 1 switch time, Table 2
/// accuracy).
pub mod paper {
    /// WGTT UDP goodput averaged over 15–35 mph, Mb/s.
    pub const UDP_GOODPUT_MBPS: f64 = 8.7;
    /// Mean switch execution time, ms.
    pub const SWITCH_MS: f64 = 19.0;
    /// Switching accuracy.
    pub const ACCURACY: f64 = 0.9138;
}
