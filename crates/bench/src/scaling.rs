//! Scaling experiment — lockstep-shard throughput vs worker count.
//!
//! Not a paper figure: this certifies the intra-run parallelism layer
//! (DESIGN.md §6d). One ring-corridor workload — eight picocell clusters,
//! vehicles handed between them at every epoch barrier — is replayed at
//! 1, 2, 4, and 8 lockstep workers. For each width the experiment reports
//! engine events/sec and the speedup over the 1-worker leg, and asserts
//! the determinism contract the whole design rests on: every leg's
//! fingerprint must be byte-identical to the serial one.
//!
//! On a single-core host the curve is flat (≈1× everywhere) — that is
//! expected and not a failure.

use crate::common::{exit_invalid, render_table, save_json};
use serde::Serialize;
use wgtt_core::config::SystemConfig;
use wgtt_core::digest::assert_same;
use wgtt_core::shard::{try_run_sharded, ScenarioError, ShardedScenario};
use wgtt_sim::SimDuration;

/// Worker counts every scaling run sweeps.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One worker-count leg of the sweep.
#[derive(Debug, Serialize)]
pub struct ScalingPoint {
    /// Lockstep workers driving the shard set.
    pub workers: usize,
    /// Engine events processed (identical across legs by construction).
    pub events: u64,
    /// Wall-clock seconds inside the lockstep driver.
    pub wall_s: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// `events_per_sec / events_per_sec(workers=1)`.
    pub speedup: f64,
}

/// The full sweep.
#[derive(Debug, Serialize)]
pub struct ScalingSweep {
    /// Host parallelism the run saw.
    pub cores: usize,
    /// Shards in the corridor.
    pub shards: usize,
    /// Vehicles per shard at t=0.
    pub clients_per_shard: usize,
    /// Cross-shard handoffs the workload performed (serial leg).
    pub migrations: usize,
    /// The serial leg's fingerprint — every other leg must match it.
    pub fingerprint: String,
    /// One point per worker count, ascending.
    pub points: Vec<ScalingPoint>,
}

/// The corridor workload: eight clusters in a ring so vehicles migrate
/// continuously, enough traffic per shard that the epoch barriers are a
/// small fraction of the work.
pub fn scaling_scenario(fast: bool) -> ShardedScenario {
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let duration = if fast {
        SimDuration::from_secs(4)
    } else {
        SimDuration::from_secs(10)
    };
    ShardedScenario::ring_corridor(cfg, 8, 2, 35.0, 5_000_000, duration, 1717)
}

/// Runs the sweep: one `try_run_sharded` per worker count, serial first.
pub fn run_experiment(fast: bool) -> Result<ScalingSweep, ScenarioError> {
    let scenario = scaling_scenario(fast);
    let mut points = Vec::new();
    let mut fingerprint = String::new();
    let mut migrations = 0usize;
    let mut serial_eps = 0.0f64;
    for &workers in &WORKER_SWEEP {
        let r = try_run_sharded(&scenario, workers)?;
        let fp = r.fingerprint();
        if workers == 1 {
            fingerprint = fp.clone();
            migrations = r.migrations.len();
        }
        // The contract under test: worker count never changes results.
        assert_same(&format!("workers={workers} vs serial"), &fp, &fingerprint);
        let wall_s = r.wall.as_secs_f64();
        let events_per_sec = if wall_s > 0.0 {
            r.events as f64 / wall_s
        } else {
            0.0
        };
        if workers == 1 {
            serial_eps = events_per_sec;
        }
        points.push(ScalingPoint {
            workers,
            events: r.events,
            wall_s,
            events_per_sec,
            speedup: if serial_eps > 0.0 {
                events_per_sec / serial_eps
            } else {
                1.0
            },
        });
    }
    Ok(ScalingSweep {
        cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        shards: scenario.shards,
        clients_per_shard: scenario.clients_per_shard,
        migrations,
        fingerprint,
        points,
    })
}

/// Runs and renders the scaling sweep.
pub fn report(fast: bool) -> String {
    let sweep = run_experiment(fast).unwrap_or_else(|e| exit_invalid(&e));
    save_json("scaling", &sweep);
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                p.events.to_string(),
                format!("{:.2}", p.wall_s),
                format!("{:.0}", p.events_per_sec),
                format!("{:.2}x", p.speedup),
            ]
        })
        .collect();
    format!(
        "Scaling — lockstep shard throughput vs workers \
         ({} shards, {} cores, {} handoffs, fingerprints identical)\n{}",
        sweep.shards,
        sweep.cores,
        sweep.migrations,
        render_table(&["workers", "events", "wall s", "ev/s", "speedup"], &rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_migrates() {
        let sweep = run_experiment(true).expect("valid scenario");
        assert_eq!(sweep.points.len(), WORKER_SWEEP.len());
        assert!(sweep.migrations > 0, "corridor never handed off a vehicle");
        // run_experiment asserts fingerprint equality internally; double-check
        // the serial leg actually processed work.
        assert!(sweep.points[0].events > 1000);
        assert!(sweep
            .points
            .iter()
            .all(|p| p.events == sweep.points[0].events));
    }
}
