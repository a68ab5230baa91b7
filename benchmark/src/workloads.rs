//! Input generation: the four workloads, built from one `--seed`.
//!
//! The program under test receives only the generated [`Scenario`]s and
//! [`ShardedScenario`]s. Per-scenario seeds are derived with
//! [`SimRng::fork_indexed`], which hashes the label and index into the root
//! seed without consuming a stream, so scenario *k* of a workload keeps its
//! seed whatever the others do.
//!
//! Every workload is a list of independent ops of 0.15–0.7 s of host time
//! each. Short ops are deliberate: the reference host slows down by 15–30 %
//! for seconds at a time, and the median over a hundred short ops rides
//! through such a stretch where a median over five long reps does not.

use wgtt_core::config::{Mode, SystemConfig};
use wgtt_core::runner::{ClientSpec, FlowSpec, Scenario, TrajectorySpec};
use wgtt_core::shard::ShardedScenario;
use wgtt_sim::storm::{random_storm, StormConfig};
use wgtt_sim::{FaultSchedule, SimDuration, SimRng};

/// Simulated time every run adds after traffic stops so in-flight packets
/// settle (`runner::run` and `run_sharded` both use 500 ms).
pub const SETTLE_S: f64 = 0.5;

/// One generated input: a scenario for `run` or for `run_sharded`.
#[derive(Debug, Clone)]
pub enum Input {
    /// Unsharded: goes to `wgtt_core::run`.
    Plain(Scenario),
    /// Sharded corridor: goes to `wgtt_core::shard::run_sharded`.
    Sharded(ShardedScenario),
}

impl Input {
    /// Simulated seconds one run of this input covers (traffic + settle,
    /// not multiplied by shards).
    pub fn sim_seconds(&self) -> f64 {
        let d = match self {
            Input::Plain(s) => s.duration,
            Input::Sharded(s) => s.duration,
        };
        d.as_secs_f64() + SETTLE_S
    }

    /// Vehicles in the input.
    pub fn vehicles(&self) -> usize {
        match self {
            Input::Plain(s) => s.clients.len(),
            Input::Sharded(s) => s.shards * s.clients_per_shard,
        }
    }

    /// UDP payload bits the sources offer over the traffic duration
    /// (`rate × duration × flows`, downlink and uplink).
    pub fn udp_offered_bits(&self) -> f64 {
        match self {
            Input::Plain(s) => {
                let rate: u64 = s
                    .clients
                    .iter()
                    .flat_map(|c| c.flows.iter())
                    .map(|f| match f {
                        FlowSpec::DownlinkUdp { rate_bps, .. }
                        | FlowSpec::UplinkUdp { rate_bps, .. } => *rate_bps,
                        FlowSpec::DownlinkTcp { .. } => 0,
                    })
                    .sum();
                rate as f64 * s.duration.as_secs_f64()
            }
            Input::Sharded(s) => {
                let rate: u64 = s.flows.iter().map(|f| f.rate_bps).sum();
                rate as f64 * s.duration.as_secs_f64() * self.vehicles() as f64
            }
        }
    }

    /// Lockstep epochs one run of this input takes (0 when unsharded).
    pub fn epochs(&self) -> u64 {
        match self {
            Input::Plain(_) => 0,
            Input::Sharded(s) => {
                let end_ns = ((s.duration.as_secs_f64() + SETTLE_S) * 1e9).round() as u64;
                end_ns.div_ceil(s.safe_epoch().as_nanos().max(1))
            }
        }
    }

    /// Fault windows scheduled across the input.
    pub fn fault_windows(&self) -> u64 {
        match self {
            Input::Plain(s) => s.faults.window_count() as u64,
            Input::Sharded(s) => s.shard_faults.iter().map(|f| f.window_count() as u64).sum(),
        }
    }
}

/// How much of a workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's fixed size.
    Full,
    /// One scenario per cell (three drives, one convoy, one corridor, one
    /// storm): the self-test smoke.
    Smoke,
}

impl Scale {
    /// Scenarios per cell of a workload: eight seeds, or one.
    fn per_cell(self) -> u64 {
        match self {
            Scale::Full => 8,
            Scale::Smoke => 1,
        }
    }
}

/// A named list of inputs plus how to run them.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, one of [`crate::spec::WORKLOADS`].
    pub name: &'static str,
    /// The ops of one rep, in run order.
    pub inputs: Vec<Input>,
    /// Lockstep workers the timed pass gives `run_sharded` (1 for
    /// unsharded workloads). Never more than the host has cores; see
    /// [`Workload::threads_on`].
    pub workers: usize,
}

/// Bulk downlink UDP offered per vehicle on `drive_udp` (the paper's
/// iperf streams offer more than the link carries).
pub const DRIVE_UDP_BPS: u64 = 30_000_000;
/// UDP payload of a 1500 B MTU datagram.
pub const UDP_PAYLOAD: usize = 1472;
/// Speeds of the paper's Fig 13 that `drive_udp` covers, mph.
pub const DRIVE_MPH: [f64; 3] = [15.0, 25.0, 35.0];

fn scenario_seed(root: u64, workload: &str, index: u64) -> u64 {
    SimRng::new(root).fork_indexed(workload, index).seed()
}

/// The per-scenario seeds a workload derives from `root` (exposed so the
/// self-test can pin the derivation).
pub fn scenario_seeds(root: u64, workload: &str, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| scenario_seed(root, workload, i))
        .collect()
}

/// One vehicle, 30 Mb/s downlink CBR UDP, default 8-AP array.
fn drive_udp_scenario(mode: Mode, mph: f64, seed: u64) -> Scenario {
    let config = SystemConfig {
        mode,
        ..SystemConfig::default()
    };
    Scenario::single_drive(
        config,
        mph,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: DRIVE_UDP_BPS,
            payload: UDP_PAYLOAD,
        }],
        seed,
    )
}

fn drive_udp(root: u64, scale: Scale, mode: Mode) -> Vec<Input> {
    let mut inputs = Vec::new();
    let mut i = 0;
    for mph in DRIVE_MPH {
        for _ in 0..scale.per_cell() {
            let seed = scenario_seed(root, "drive_udp", i);
            inputs.push(Input::Plain(drive_udp_scenario(mode, mph, seed)));
            i += 1;
        }
    }
    inputs
}

/// The `drive_udp` inputs under `Mode::Enhanced80211r` — the extra pass
/// behind `model.gain_vs_80211r`.
pub fn drive_udp_baseline(root: u64) -> Vec<Input> {
    drive_udp(root, Scale::Full, Mode::Enhanced80211r)
}

/// Three vehicles 4 m apart at 15 mph, each with greedy downlink TCP and
/// 4 Mb/s uplink UDP.
fn convoy_mixed(root: u64, scale: Scale) -> Vec<Input> {
    const VEHICLES: usize = 3;
    const MPH: f64 = 15.0;
    const SPACING_M: f64 = 4.0;
    (0..scale.per_cell())
        .map(|i| {
            let clients = (0..VEHICLES)
                .map(|k| ClientSpec {
                    trajectory: TrajectorySpec::DriveByOffset {
                        mph: MPH,
                        lead_in_m: 4.0,
                        offset_m: k as f64 * SPACING_M,
                        far_lane: false,
                    },
                    flows: vec![
                        FlowSpec::DownlinkTcp { limit: None },
                        FlowSpec::UplinkUdp {
                            rate_bps: 4_000_000,
                            payload: 1200,
                        },
                    ],
                })
                .collect();
            // Array span (7 × 7.5 m) plus lead-in and lead-out, plus the
            // convoy's own length, as `wgtt-bench`'s Fig 17 convoy does.
            let span_m = 52.5 + 8.0 + (VEHICLES - 1) as f64 * SPACING_M;
            Input::Plain(Scenario {
                config: SystemConfig::default(),
                clients,
                duration: SimDuration::from_secs_f64(span_m / wgtt_phy::mph_to_mps(MPH)),
                seed: scenario_seed(root, "convoy_mixed", i),
                log_deliveries: false,
                flow_start: SimDuration::from_millis(1),
                faults: FaultSchedule::default(),
            })
        })
        .collect()
}

/// A cluster of the corridor workloads: four APs.
fn cluster_config() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    cfg
}

/// Speed and per-vehicle load shared by both corridor workloads.
const CORRIDOR_MPH: f64 = 35.0;
const CORRIDOR_BPS: u64 = 5_000_000;

/// Eight ring corridors of 8 shards × 2 vehicles, 5 s each (40 simulated
/// seconds, 880 epochs and 128 migrations a rep). At 35 mph a vehicle
/// reaches the next cluster after 4.0–4.5 s, so every vehicle of every
/// corridor hands over once and then runs in its new shard.
fn corridor_ring(root: u64, scale: Scale) -> Vec<Input> {
    (0..scale.per_cell())
        .map(|i| {
            Input::Sharded(ShardedScenario::ring_corridor(
                cluster_config(),
                8,
                2,
                CORRIDOR_MPH,
                CORRIDOR_BPS,
                SimDuration::from_secs(5),
                scenario_seed(root, "corridor_ring", i),
            ))
        })
        .collect()
}

/// The storm every `fault_storm` op draws its schedules from:
/// `StormConfig::default()` shaped to the corridor, then reshaped so that
/// the workload's switch-time tail depends on the code more than on the
/// seed. The fault families are the default's; what changes is how their
/// time under fault is cut up.
///
/// * Windows are a quarter as long (125–500 ms, not 500 ms–2 s) and there
///   are four times as many of each family — two flapping bursts and
///   twelve backhaul-loss windows excepted. How much of a drive eight
///   storms happen to cover then varies half as much from seed to seed,
///   and with it the share of switches that retry.
/// * Backhaul loss is 0.07 in twelve windows, not 0.2 in two, and AP
///   flapping gets two bursts. With the default, 4.7 % of switches need
///   three or more retries, so the 95th percentile of switch time sits
///   exactly on the edge between two rungs of the 30 ms retry ladder and
///   reads ≈87 ms or ≈114 ms depending on the seed. Reshaped, ≈12 % of
///   switches retry once or more and ≈3.5 % twice or more, so p95 sits
///   inside the first rung (51–60 ms over sixty seeds).
pub fn storm_config(shards: usize, n_aps: usize, duration: SimDuration) -> StormConfig {
    const SPLIT: usize = 4;
    let d = StormConfig::default();
    StormConfig {
        shards,
        n_aps,
        duration,
        flap_bursts: 2.min(n_aps),
        backhaul_windows: 12,
        backhaul_loss: 0.07,
        dup_windows: d.dup_windows * SPLIT,
        reorder_windows: d.reorder_windows * SPLIT,
        migration_loss_windows: d.migration_loss_windows * SPLIT,
        migration_dup_windows: d.migration_dup_windows * SPLIT,
        window_len: d.window_len.start / SPLIT as u64..d.window_len.end / SPLIT as u64,
        ..d
    }
}

/// Eight independent 10 s storms over a 2-shard ring corridor.
fn fault_storm(root: u64, scale: Scale) -> Vec<Input> {
    let duration = SimDuration::from_secs(10);
    (0..scale.per_cell())
        .map(|i| {
            let seed = scenario_seed(root, "fault_storm", i);
            let mut s = ShardedScenario::ring_corridor(
                cluster_config(),
                2,
                2,
                CORRIDOR_MPH,
                CORRIDOR_BPS,
                duration,
                seed,
            );
            let storm = storm_config(s.shards, s.config.deployment.num_aps, duration);
            s.shard_faults = random_storm(&storm, &mut SimRng::new(seed).fork("storm"));
            Input::Sharded(s)
        })
        .collect()
}

impl Workload {
    /// Generates workload `name` from `seed`, or `None` for an unknown
    /// name.
    pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
        let (name, inputs, workers) = match name {
            "drive_udp" => ("drive_udp", drive_udp(seed, scale, Mode::Wgtt), 1),
            "convoy_mixed" => ("convoy_mixed", convoy_mixed(seed, scale), 1),
            "corridor_ring" => ("corridor_ring", corridor_ring(seed, scale), 2),
            "fault_storm" => ("fault_storm", fault_storm(seed, scale), 1),
            _ => return None,
        };
        Some(Workload {
            name,
            inputs,
            workers,
        })
    }

    /// Threads the timed pass runs on a host with `nproc` cores, or `None`
    /// when the workload must be skipped there: `corridor_ring` exists to
    /// measure two lockstep workers, and two workers on one core measure
    /// the scheduler, not the driver.
    pub fn threads_on(&self, nproc: usize) -> Option<usize> {
        (self.workers <= nproc).then_some(self.workers)
    }

    /// Whether a departed client's data may be lost at a seam: never, on
    /// the ring corridors (the ring has no exit and the handoff is
    /// two-phase).
    pub fn is_sharded(&self) -> bool {
        matches!(self.inputs.first(), Some(Input::Sharded(_)))
    }

    /// One plain scenario with the workload's own geometry and traffic,
    /// for the legs that need a `Simulator` they can step: the workload's
    /// first input when it is unsharded, and otherwise one cluster of the
    /// corridor (its vehicles, flows and shard 0's fault schedule) as an
    /// unsharded scenario.
    pub fn probe_scenario(&self) -> Scenario {
        match &self.inputs[0] {
            Input::Plain(s) => s.clone(),
            Input::Sharded(s) => Scenario {
                config: s.config.clone(),
                clients: (0..s.clients_per_shard)
                    .map(|j| ClientSpec {
                        trajectory: TrajectorySpec::DriveByOffset {
                            mph: s.mph,
                            lead_in_m: s.entry_lead_m,
                            offset_m: j as f64 * s.headway_m,
                            far_lane: false,
                        },
                        flows: s
                            .flows
                            .iter()
                            .map(|f| {
                                if f.uplink {
                                    FlowSpec::UplinkUdp {
                                        rate_bps: f.rate_bps,
                                        payload: f.payload,
                                    }
                                } else {
                                    FlowSpec::DownlinkUdp {
                                        rate_bps: f.rate_bps,
                                        payload: f.payload,
                                    }
                                }
                            })
                            .collect(),
                    })
                    .collect(),
                duration: s.duration,
                seed: s.seed,
                log_deliveries: false,
                flow_start: SimDuration::from_millis(1),
                faults: s.shard_faults.first().cloned().unwrap_or_default(),
            },
        }
    }
}
