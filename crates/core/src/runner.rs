//! Scenario definition and experiment runner.
//!
//! A [`Scenario`] is a complete experiment description — roaming system,
//! client trajectories, traffic flows, duration, seed. [`run`] builds the
//! world, drives it to completion, and returns the world for metric
//! extraction, plus convenience summaries in [`RunResult`].

use crate::config::SystemConfig;
use crate::oracle::helper_count;
use crate::world::{prime_events, FlowKind, WgttWorld};
use wgtt_net::{CbrSource, TcpConfig, TcpSender};
use wgtt_phy::geom::Position;
use wgtt_phy::mobility::{ConstantSpeed, Stationary};
use wgtt_phy::Trajectory;
use wgtt_sim::{pool, FaultSchedule, SimDuration, SimTime, Simulator};

/// How one client moves.
#[derive(Debug, Clone)]
pub enum TrajectorySpec {
    /// Parked at the given along-road position, in the near lane.
    Stationary {
        /// Along-road coordinate, m.
        x: f64,
    },
    /// Drives past the array in the near lane.
    DriveBy {
        /// Speed in miles per hour.
        mph: f64,
        /// Start this far before the first AP, m.
        lead_in_m: f64,
    },
    /// Same, offset backwards (the "following" pattern).
    DriveByOffset {
        /// Speed, mph.
        mph: f64,
        /// Lead-in before the first AP, m.
        lead_in_m: f64,
        /// Additional offset backwards along the road, m.
        offset_m: f64,
        /// Lane: `false` = near lane, `true` = far lane.
        far_lane: bool,
    },
    /// Far lane, driving the opposite direction.
    Opposing {
        /// Speed, mph.
        mph: f64,
        /// Start this far beyond the last AP, m.
        lead_in_m: f64,
    },
}

/// Traffic attached to one client.
#[derive(Debug, Clone)]
pub enum FlowSpec {
    /// Server → client CBR UDP.
    DownlinkUdp {
        /// Offered rate (payload bits/s).
        rate_bps: u64,
        /// Datagram payload size, bytes.
        payload: usize,
    },
    /// Server → client TCP; `None` = greedy, `Some(n)` = n-byte transfer.
    DownlinkTcp {
        /// Transfer size limit.
        limit: Option<u64>,
    },
    /// Client → server CBR UDP.
    UplinkUdp {
        /// Offered rate (payload bits/s).
        rate_bps: u64,
        /// Datagram payload size, bytes.
        payload: usize,
    },
}

/// One client: motion + its flows.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Motion plan.
    pub trajectory: TrajectorySpec,
    /// Application traffic.
    pub flows: Vec<FlowSpec>,
}

/// A full experiment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// System configuration (mode, selection, PHY, ablations).
    pub config: SystemConfig,
    /// Clients.
    pub clients: Vec<ClientSpec>,
    /// Traffic/measurement duration.
    pub duration: SimDuration,
    /// RNG seed (fixes channel realizations and all draws).
    pub seed: u64,
    /// Record per-delivery logs (needed by the QoE workloads).
    pub log_deliveries: bool,
    /// When application flows start (default 1 ms). Web-browsing runs start
    /// their page load mid-drive, like a passenger opening a page while
    /// already moving.
    pub flow_start: SimDuration,
    /// Injected faults (AP outages, backhaul impairments, partitions, CSI
    /// drops). The default empty schedule leaves runs bit-identical to the
    /// fault-free engine.
    pub faults: FaultSchedule,
}

impl Scenario {
    /// Single drive-by client with the given flows — the common case.
    pub fn single_drive(config: SystemConfig, mph: f64, flows: Vec<FlowSpec>, seed: u64) -> Self {
        // Duration: full transit plus margins at this speed.
        let dep = config.deployment.build();
        let (lo, hi) = dep.extent();
        // The paper's drives begin with the client already connected at the
        // edge of the first AP's cell (Fig 14 shows useful throughput from
        // t = 0), so the lead-in is short.
        let lead = 4.0;
        let span = (hi - lo) + 2.0 * lead;
        let secs = span / wgtt_phy::mph_to_mps(mph).max(0.1);
        Scenario {
            config,
            clients: vec![ClientSpec {
                trajectory: TrajectorySpec::DriveBy {
                    mph,
                    lead_in_m: lead,
                },
                flows,
            }],
            duration: SimDuration::from_secs_f64(secs),
            seed,
            log_deliveries: false,
            flow_start: SimDuration::from_millis(1),
            faults: FaultSchedule::default(),
        }
    }
}

/// Outcome of a run: the final world plus the measured duration.
pub struct RunResult {
    /// The world after the run (all metrics inside).
    pub world: WgttWorld,
    /// Traffic duration that was simulated.
    pub duration: SimDuration,
    /// Events processed (simulator health indicator).
    pub events: u64,
    /// Host-side cost of the run: events, wall-clock, sim/real ratio.
    /// Never feeds back into results — see [`crate::metrics::RunPerf`].
    pub perf: crate::metrics::RunPerf,
}

impl RunResult {
    /// Mean downlink goodput of client `c`, bit/s.
    pub fn downlink_bps(&self, c: usize) -> f64 {
        self.world.clients[c]
            .metrics
            .mean_downlink_bps(self.duration)
    }

    /// Mean uplink goodput of client `c`, bit/s.
    pub fn uplink_bps(&self, c: usize) -> f64 {
        self.world.clients[c].metrics.mean_uplink_bps(self.duration)
    }

    /// The run's digest ([`crate::digest`]): byte-identical for two runs
    /// of the same scenario, whatever the process, platform or oracle
    /// helper count.
    pub fn fingerprint(&self) -> String {
        crate::digest::of_run(self.events, &self.world)
    }
}

fn build_trajectory(
    spec: &TrajectorySpec,
    dep: &wgtt_phy::geom::Deployment,
) -> Box<dyn Trajectory> {
    match spec {
        TrajectorySpec::Stationary { x } => Box::new(Stationary {
            position: Position::new(*x, dep.lane_near_y, 1.5),
        }),
        TrajectorySpec::DriveBy { mph, lead_in_m } => {
            Box::new(ConstantSpeed::drive_by(dep, *mph, *lead_in_m))
        }
        TrajectorySpec::DriveByOffset {
            mph,
            lead_in_m,
            offset_m,
            far_lane,
        } => {
            let mut t = ConstantSpeed::drive_by(dep, *mph, *lead_in_m);
            t.start.x -= offset_m;
            if *far_lane {
                t.start.y = dep.lane_far_y;
            }
            Box::new(t)
        }
        TrajectorySpec::Opposing { mph, lead_in_m } => {
            Box::new(ConstantSpeed::drive_by_opposing(dep, *mph, *lead_in_m))
        }
    }
}

/// Builds and runs a scenario to completion.
pub fn run(scenario: Scenario) -> RunResult {
    run_impl(scenario, None)
}

/// [`run`] with exactly `helpers` oracle helper threads instead of as many
/// as the host has cores to spare — for the helper-count invariance suite
/// (`tests/oracle_pipeline.rs`), which must see identical results at any
/// count. Not a tuning knob: the count cannot change a result.
#[doc(hidden)]
pub fn run_with_oracle_helpers(scenario: Scenario, helpers: usize) -> RunResult {
    run_impl(scenario, Some(helpers))
}

fn run_impl(scenario: Scenario, oracle_helpers: Option<usize>) -> RunResult {
    let dep = scenario.config.deployment.build();
    let trajectories: Vec<Box<dyn Trajectory>> = scenario
        .clients
        .iter()
        .map(|c| build_trajectory(&c.trajectory, &dep))
        .collect();
    let traffic_until = SimTime::ZERO + scenario.duration;
    let mut world = WgttWorld::new(
        scenario.config,
        trajectories,
        scenario.seed,
        traffic_until,
        scenario.log_deliveries,
    );
    world.faults = scenario.faults;
    let start = SimTime::ZERO + scenario.flow_start;
    for (c, spec) in scenario.clients.iter().enumerate() {
        for flow in &spec.flows {
            let kind = match flow {
                FlowSpec::DownlinkUdp { rate_bps, payload } => {
                    FlowKind::DownUdp(CbrSource::new(*rate_bps, *payload, start))
                }
                FlowSpec::DownlinkTcp { limit } => {
                    let cfg = TcpConfig::default();
                    FlowKind::DownTcp(Box::new(match limit {
                        Some(n) => TcpSender::with_limit(cfg, *n),
                        None => TcpSender::new(cfg),
                    }))
                }
                FlowSpec::UplinkUdp { rate_bps, payload } => {
                    FlowKind::UpUdp(CbrSource::new(*rate_bps, *payload, start))
                }
            };
            let fidx = world.add_flow(c, kind);
            world.flows[fidx].start = start;
        }
    }
    let mut sim = Simulator::new(world);
    prime_events(&mut sim);
    // Run past the traffic end so in-flight packets settle.
    let settle = SimDuration::from_millis(500);
    // The oracle's evaluations run beside the event loop where the host
    // has a core to spare; whatever is still queued when the loop ends is
    // finished here, inside the reported wall.
    let helpers = oracle_helpers.unwrap_or_else(|| helper_count(1, pool::cores()));
    let drain = pool::scope(
        1 + helpers,
        |(), _| (),
        |pool| {
            if helpers > 0 {
                sim.world_mut().attach_oracle(pool.jobs());
            }
            sim.run_until(traffic_until + settle);
            let loop_done = std::time::Instant::now();
            sim.world_mut().drain_oracle();
            loop_done.elapsed()
        },
    );
    let events = sim.events_processed();
    let mut perf = crate::metrics::RunPerf::from_engine(
        sim.perf(),
        (scenario.duration + settle).as_secs_f64(),
    );
    perf.wall_s += drain.as_secs_f64();
    RunResult {
        world: sim.into_world(),
        duration: scenario.duration,
        events,
        perf,
    }
}
