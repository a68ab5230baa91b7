//! Shared by the core determinism suites and — through `#[path]` — by the
//! root package's golden test (`tests/golden.rs`): the probe writer and the
//! pinned runs, each under the name of its probe and golden file.

#![allow(dead_code)] // every suite uses its own subset

use wgtt_core::config::{Mode, SystemConfig};
use wgtt_core::runner::{ClientSpec, FlowSpec, RunResult, Scenario, TrajectorySpec};
use wgtt_core::shard::ShardedScenario;
use wgtt_sim::storm::{random_storm, StormConfig};
use wgtt_sim::{FaultSchedule, SimDuration, SimRng, SimTime};

/// Writes `payload` to `<name>.json` in the directory `WGTT_DETERMINISM_OUT`
/// names, when it names one: the CI determinism jobs diff two such
/// directories, written by separate processes, byte for byte.
pub fn emit_probe(name: &str, payload: &str) {
    if let Ok(dir) = std::env::var("WGTT_DETERMINISM_OUT") {
        std::fs::create_dir_all(&dir).expect("create determinism out dir");
        std::fs::write(format!("{dir}/{name}.json"), payload).expect("write determinism probe");
    }
}

/// Lockstep workers for the CI matrix probe
/// (`lockstep_determinism::corridor_probe_honors_worker_env`): the value of
/// `WGTT_WORLD_WORKERS` when it is a number ≥ 1, otherwise 1. The variable
/// is a convention of the CI jobs, read only here — the library takes the
/// count as `run_sharded`'s argument and caps it at the shard count.
pub fn worker_count() -> usize {
    std::env::var("WGTT_WORLD_WORKERS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Duplicate uplink datagrams that reached the *server* (past the
/// controller's dedup filter) on the uplink flow.
pub fn server_uplink_duplicates(r: &RunResult) -> u64 {
    r.world
        .flows
        .iter()
        .filter_map(|f| f.up_sink.as_ref())
        .map(|s| s.duplicates())
        .sum()
}

/// 20 Mbit/s of downlink UDP.
pub fn udp_down() -> Vec<FlowSpec> {
    vec![FlowSpec::DownlinkUdp {
        rate_bps: 20_000_000,
        payload: 1472,
    }]
}

/// [`udp_down`] beside 2 Mbit/s of uplink UDP.
pub fn udp_down_up() -> Vec<FlowSpec> {
    let mut flows = udp_down();
    flows.push(FlowSpec::UplinkUdp {
        rate_bps: 2_000_000,
        payload: 1200,
    });
    flows
}

/// One vehicle driving past the default deployment under `faults`.
pub fn drive(seed: u64, mph: f64, flows: Vec<FlowSpec>, faults: FaultSchedule) -> Scenario {
    let mut s = Scenario::single_drive(SystemConfig::default(), mph, flows, seed);
    s.faults = faults;
    s
}

/// Duplication + reordering across the whole drive (the window outlives
/// any drive duration used here).
pub fn chaos_schedule(dup_prob: f64, reorder_prob: f64) -> FaultSchedule {
    let until = SimTime::from_secs(600);
    FaultSchedule::new()
        .with_duplication(SimTime::ZERO, until, dup_prob)
        .with_reordering(
            SimTime::ZERO,
            until,
            reorder_prob,
            SimDuration::from_millis(1),
        )
}

/// `failover_drive`: AP 3 down 1–3 s, 30 % CSI drops 2–6 s, 15 mph.
pub fn failover_drive() -> Scenario {
    let faults = FaultSchedule::new()
        .with_ap_outage(3, SimTime::from_secs(1), SimTime::from_secs(3))
        .with_csi_drops(SimTime::from_secs(2), SimTime::from_secs(6), 0.3);
    drive(77, 15.0, udp_down(), faults)
}

/// `chaos_drive`: 5 % duplication + 5 % reordering, 25 mph.
pub fn chaos_drive() -> Scenario {
    drive(202, 25.0, udp_down(), chaos_schedule(0.05, 0.05))
}

/// `controller_crash_drive`: the controller down 2–3.5 s, cold restart.
pub fn controller_crash_drive() -> Scenario {
    let faults = FaultSchedule::new()
        .with_controller_crash(SimTime::from_secs(2), SimTime::from_millis(3500));
    drive(903, 25.0, udp_down_up(), faults)
}

/// `controller_standby_drive`: the primary down at 2 s with a warm standby,
/// its zombie awake at 3.5 s.
pub fn controller_standby_drive() -> Scenario {
    let faults = FaultSchedule::new()
        .with_controller_failover(SimTime::from_secs(2), SimTime::from_millis(3500));
    drive(908, 25.0, udp_down_up(), faults)
}

/// `faulted_udp_drive`: the serving AP dies under a 35 mph drive (one
/// emergency re-attach), then a backhaul dup/reorder window.
pub fn faulted_udp_drive() -> Scenario {
    let faults = FaultSchedule::new()
        .with_ap_outage(2, SimTime::from_millis(1200), SimTime::from_millis(2200))
        .with_duplication(SimTime::from_secs(2), SimTime::from_secs(4), 0.05)
        .with_reordering(
            SimTime::from_secs(2),
            SimTime::from_secs(4),
            0.05,
            SimDuration::from_millis(1),
        );
    drive(77, 35.0, udp_down(), faults)
}

/// `baseline_drive`: the paper's Enhanced 802.11r baseline (§5.1) on a
/// fault-free 25 mph drive with downlink UDP — the only golden whose
/// beacon ticks and client roam checks run.
pub fn baseline_drive() -> Scenario {
    let mut s = drive(55, 25.0, udp_down(), FaultSchedule::new());
    s.config.mode = Mode::Enhanced80211r;
    s
}

/// `convoy_drive`: three vehicles 4 m apart at 15 mph, each with greedy
/// downlink TCP beside 4 Mbit/s of uplink UDP, and no faults — input 0 of
/// the benchmark's `convoy_mixed` workload at root seed 1. It is the only
/// golden with several vehicles contending, TCP and a healthy controller.
pub fn convoy_drive() -> Scenario {
    const MPH: f64 = 15.0;
    const SPACING_M: f64 = 4.0;
    let clients: Vec<ClientSpec> = (0..3)
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
    // The array's span (7 × 7.5 m), lead-in and lead-out, and the convoy's
    // own length.
    let span_m = 52.5 + 8.0 + (clients.len() - 1) as f64 * SPACING_M;
    Scenario {
        config: SystemConfig::default(),
        clients,
        duration: SimDuration::from_secs_f64(span_m / wgtt_phy::mph_to_mps(MPH)),
        seed: SimRng::new(1).fork_indexed("convoy_mixed", 0).seed(),
        log_deliveries: false,
        flow_start: SimDuration::from_millis(1),
        faults: FaultSchedule::default(),
    }
}

/// `ring_corridor`: a two-shard ring in which each vehicle crosses a seam
/// (the golden test runs it on two lockstep workers).
pub fn ring_corridor() -> ShardedScenario {
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    ShardedScenario::ring_corridor(cfg, 2, 1, 35.0, 5_000_000, SimDuration::from_secs(6), 4242)
}

/// `seam_faulted_corridor`: the two-shard ring over a hostile seam — 30 %
/// frame loss and 30 % duplication for the whole run, and a total outage
/// from 3.5 s to 5 s that outlasts the shortened retry budget (three sends
/// 50 ms apart). The run retries, absorbs duplicates in the idempotence
/// ledger, aborts and readopts during the outage, and re-exports once the
/// seam heals.
pub fn seam_faulted_corridor() -> ShardedScenario {
    let mut s = ring_corridor();
    s.clients_per_shard = 2;
    s.duration = SimDuration::from_secs(10);
    s.config.migration.retry_timeout = SimDuration::from_millis(50);
    s.config.migration.backoff = 1.0;
    s.config.migration.max_attempts = 3;
    let horizon = SimTime::ZERO + s.duration + SimDuration::from_secs(1);
    let faults = FaultSchedule::new()
        .with_migration_loss(SimTime::ZERO, horizon, 0.3)
        .with_migration_dup(SimTime::ZERO, horizon, 0.3)
        .with_migration_loss(SimTime::from_millis(3500), SimTime::from_secs(5), 1.0);
    s.shard_faults = vec![faults.clone(), faults];
    s
}

/// `storm_corridor`: the two-shard ring at 2 Mbit/s per vehicle under six
/// seconds of the default composite storm drawn from `seed` — AP flaps,
/// backhaul loss/latency, duplication, reordering, a controller failover,
/// seam loss and seam duplication, all at once. The golden pins seed 11.
pub fn storm_corridor(seed: u64) -> ShardedScenario {
    let mut s = ring_corridor();
    s.seed = seed;
    s.flows[0].rate_bps = 2_000_000;
    // `StormConfig::default()` is already shaped to two shards of four APs.
    let storm = StormConfig {
        duration: s.duration,
        ..StormConfig::default()
    };
    s.shard_faults = random_storm(&storm, &mut SimRng::new(seed).fork("storm"));
    s
}

/// `fault_storm_corridor`: one op of the benchmark's `fault_storm`
/// workload — the two-shard ring of two vehicles a shard at 5 Mbit/s for
/// 10 s, under the default composite storm reshaped as the workload
/// reshapes it (`benchmark/src/workloads.rs`, `storm_config`): windows a
/// quarter as long and four times as many, twelve 7 % backhaul-loss
/// windows, two flapping bursts.
pub fn fault_storm_corridor(seed: u64) -> ShardedScenario {
    const SPLIT: usize = 4;
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let duration = SimDuration::from_secs(10);
    let mut s = ShardedScenario::ring_corridor(cfg, 2, 2, 35.0, 5_000_000, duration, seed);
    let d = StormConfig::default();
    let storm = StormConfig {
        shards: s.shards,
        n_aps: s.config.deployment.num_aps,
        duration,
        flap_bursts: 2,
        backhaul_windows: 12,
        backhaul_loss: 0.07,
        dup_windows: d.dup_windows * SPLIT,
        reorder_windows: d.reorder_windows * SPLIT,
        migration_loss_windows: d.migration_loss_windows * SPLIT,
        migration_dup_windows: d.migration_dup_windows * SPLIT,
        window_len: d.window_len.start / SPLIT as u64..d.window_len.end / SPLIT as u64,
        ..d
    };
    s.shard_faults = random_storm(&storm, &mut SimRng::new(seed).fork("storm"));
    s
}
