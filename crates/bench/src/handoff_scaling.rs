//! Handoff scaling experiment — data retention vs shard count.
//!
//! Not a paper figure: this certifies the inter-controller migration
//! protocol (DESIGN.md §6e). A ring corridor at fixed per-shard load is
//! replayed at growing shard counts; more shards means proportionally
//! more boundary crossings per vehicle-second, so any per-crossing data
//! loss compounds with scale. Retention is delivered bytes over
//! delivered-plus-seam-lost bytes — `departed_data_bytes` charges every
//! datagram dropped at a boundary to the denominator, so seam losses
//! cannot hide. With the real migration protocol the curve must stay
//! flat (retention ≈ 1 at every width); the naive no-transfer shim is
//! run at the same shapes to show the compounding loss the protocol
//! removes.

use crate::common::{exit_invalid, render_table, save_json};
use serde::Serialize;
use wgtt_core::config::SystemConfig;
use wgtt_core::shard::{try_run_sharded, ScenarioError, ShardedRunResult, ShardedScenario};
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

/// Shard counts the sweep visits (clients per shard held fixed, so the
/// total client count grows with the corridor).
pub const SHARD_SWEEP: [usize; 3] = [2, 4, 8];

/// Vehicles resident in each cluster at t=0.
pub const CLIENTS_PER_SHARD: usize = 2;

/// Per-frame loss and duplication probability on the seam backhaul in
/// the faulted leg. 10 % each way is far above anything a wired
/// controller interconnect would see; the two-phase protocol must hold
/// retention at exactly 1.0 through it anyway.
pub const SEAM_FAULT_PROB: f64 = 0.10;

/// One shard-count leg of the sweep.
#[derive(Debug, Serialize)]
pub struct HandoffPoint {
    /// Clusters in the ring.
    pub shards: usize,
    /// Total vehicles (`shards × clients_per_shard`).
    pub clients: usize,
    /// Boundary crossings the real-protocol run applied.
    pub migrations: usize,
    /// Payload bytes delivered to client sinks (real protocol).
    pub delivered_bytes: u64,
    /// Wire bytes lost at shard seams (real protocol).
    pub seam_lost_bytes: u64,
    /// `delivered / (delivered + seam_lost)` for the real protocol.
    pub retention: f64,
    /// Residue datagrams carried across seams by migration records.
    pub residue_transferred: u64,
    /// Retention of the naive no-transfer shim at the same shape.
    pub naive_retention: f64,
    /// Seam wire bytes the shim dropped.
    pub naive_lost_bytes: u64,
    /// Retention of the real protocol with 10 % seam loss + duplication.
    pub faulted_retention: f64,
    /// Seam wire bytes the faulted leg lost (must be zero).
    pub faulted_lost_bytes: u64,
    /// Prepare retransmissions the faulted leg needed to hold the line.
    pub faulted_retries: u64,
    /// Duplicate migration frames the faulted leg absorbed.
    pub faulted_dups_dropped: u64,
}

/// The full sweep.
#[derive(Debug, Serialize)]
pub struct HandoffSweep {
    /// Vehicles per cluster (fixed across legs).
    pub clients_per_shard: usize,
    /// One point per shard count, ascending.
    pub points: Vec<HandoffPoint>,
}

fn scenario(shards: usize, fast: bool, naive: bool) -> ShardedScenario {
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let duration = if fast {
        SimDuration::from_secs(4)
    } else {
        SimDuration::from_secs(10)
    };
    let mut s = ShardedScenario::ring_corridor(
        cfg,
        shards,
        CLIENTS_PER_SHARD,
        35.0,
        5_000_000,
        duration,
        1717,
    );
    s.naive_handoff = naive;
    s
}

/// The faulted leg: the same shape with every shard's seam backhaul
/// dropping and duplicating 10 % of migration frames for the whole run.
fn faulted_scenario(shards: usize, fast: bool) -> ShardedScenario {
    let mut s = scenario(shards, fast, false);
    let horizon = SimTime::ZERO + s.duration + SimDuration::from_secs(1);
    let seam = FaultSchedule::new()
        .with_migration_loss(SimTime::ZERO, horizon, SEAM_FAULT_PROB)
        .with_migration_dup(SimTime::ZERO, horizon, SEAM_FAULT_PROB);
    s.shard_faults = vec![seam; shards];
    s
}

fn delivered_bytes(r: &ShardedRunResult) -> u64 {
    r.worlds
        .iter()
        .flat_map(|w| w.clients.iter())
        .flat_map(|c| c.udp_sink.values())
        .map(|k| k.bytes())
        .sum()
}

fn retention(delivered: u64, lost: u64) -> f64 {
    if delivered + lost == 0 {
        1.0
    } else {
        delivered as f64 / (delivered + lost) as f64
    }
}

/// Runs the sweep: for each shard count, the real migration protocol and
/// the naive no-transfer shim at the same shape.
pub fn run_experiment(fast: bool) -> Result<HandoffSweep, ScenarioError> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1);
    let mut points = Vec::new();
    for &shards in &SHARD_SWEEP {
        let real = try_run_sharded(&scenario(shards, fast, false), workers.min(shards))?;
        let naive = try_run_sharded(&scenario(shards, fast, true), workers.min(shards))?;
        let faulted = try_run_sharded(&faulted_scenario(shards, fast), workers.min(shards))?;
        let delivered = delivered_bytes(&real);
        let lost = real.sys.departed_data_bytes;
        let naive_delivered = delivered_bytes(&naive);
        let naive_lost = naive.sys.departed_data_bytes;
        let faulted_delivered = delivered_bytes(&faulted);
        let faulted_lost = faulted.sys.departed_data_bytes;
        points.push(HandoffPoint {
            shards,
            clients: shards * CLIENTS_PER_SHARD,
            migrations: real.migrations.len(),
            delivered_bytes: delivered,
            seam_lost_bytes: lost,
            retention: retention(delivered, lost),
            residue_transferred: real.sys.residue_transferred,
            naive_retention: retention(naive_delivered, naive_lost),
            naive_lost_bytes: naive_lost,
            faulted_retention: retention(faulted_delivered, faulted_lost),
            faulted_lost_bytes: faulted_lost,
            faulted_retries: faulted.sys.migration_retries,
            faulted_dups_dropped: faulted.sys.migration_dups_dropped,
        });
    }
    Ok(HandoffSweep {
        clients_per_shard: CLIENTS_PER_SHARD,
        points,
    })
}

/// Runs and renders the handoff scaling sweep.
pub fn report(fast: bool) -> String {
    let sweep = run_experiment(fast).unwrap_or_else(|e| exit_invalid(&e));
    save_json("handoff_scaling", &sweep);
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|p| {
            vec![
                p.shards.to_string(),
                p.clients.to_string(),
                p.migrations.to_string(),
                format!("{:.1}", p.delivered_bytes as f64 / 1e6),
                p.residue_transferred.to_string(),
                format!("{:.4}", p.retention),
                format!("{:.4}", p.naive_retention),
                format!("{:.1}", p.naive_lost_bytes as f64 / 1e3),
                format!("{:.4}", p.faulted_retention),
                p.faulted_retries.to_string(),
            ]
        })
        .collect();
    format!(
        "Handoff scaling — data retention vs shard count \
         ({} clients/shard, retention = delivered/(delivered+seam-lost))\n{}",
        sweep.clients_per_shard,
        render_table(
            &[
                "shards",
                "clients",
                "handoffs",
                "deliv MB",
                "residue",
                "retention",
                "naive ret.",
                "naive kB lost",
                "10% fault ret.",
                "retries",
            ],
            &rows,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_stays_flat_as_shards_grow() {
        let sweep = run_experiment(true).expect("valid scenario");
        assert_eq!(sweep.points.len(), SHARD_SWEEP.len());
        for p in &sweep.points {
            assert!(p.migrations > 0, "{} shards: no handoffs", p.shards);
            // The protocol's contract: nothing is lost at any seam, so
            // retention is exactly flat — 1.0 at every corridor width.
            assert_eq!(
                p.seam_lost_bytes, 0,
                "{} shards lost {} bytes at seams",
                p.shards, p.seam_lost_bytes
            );
            assert_eq!(p.retention, 1.0);
        }
        // The shim shows what the flat curve is worth: it must lose data
        // once crossings happen, and its loss compounds with scale.
        let naive_losses: Vec<u64> = sweep.points.iter().map(|p| p.naive_lost_bytes).collect();
        assert!(
            naive_losses.iter().any(|&b| b > 0),
            "naive shim never lost a byte — the experiment is not exercising the seams"
        );
    }

    #[test]
    fn faulty_backhaul_leg_holds_retention_at_one() {
        let sweep = run_experiment(true).expect("valid scenario");
        let mut retries = 0u64;
        let mut dups = 0u64;
        for p in &sweep.points {
            eprintln!(
                "{} shards: naive_ret={:.4} faulted_ret={:.4} retries={} dups={}",
                p.shards,
                p.naive_retention,
                p.faulted_retention,
                p.faulted_retries,
                p.faulted_dups_dropped
            );
            // 10 % seam loss + duplication must not cost a single byte:
            // prepares are retried until acked and duplicates absorbed by
            // the idempotent import ledger.
            assert_eq!(
                p.faulted_lost_bytes, 0,
                "{} shards: faulted leg lost bytes at seams",
                p.shards
            );
            assert_eq!(p.faulted_retention, 1.0);
            retries += p.faulted_retries;
            dups += p.faulted_dups_dropped;
        }
        // Prove the faults actually fired: across the sweep the protocol
        // must have both retried lost prepares and dropped duplicates.
        assert!(retries > 0, "no prepare was ever lost — faults inert");
        assert!(dups > 0, "no duplicate was ever absorbed — faults inert");
        // Pin the shim's compounding loss at the widest corridor: the
        // no-transfer baseline retains only ~70 % of seam-crossing data.
        let widest = sweep.points.last().unwrap();
        assert!(
            (0.60..=0.80).contains(&widest.naive_retention),
            "naive retention drifted out of its pinned band: {:.4}",
            widest.naive_retention
        );
    }
}
