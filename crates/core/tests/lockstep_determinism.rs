//! Lockstep-sharding determinism suite: the proof that intra-run
//! parallelism can never change results.
//!
//! A sharded corridor exercising the failover, chaos, and
//! controller-standby machinery (one fault family per shard) produces a
//! byte-identical digest at 1, 2, 4, and 8 lockstep workers in one process.
//! The CI `determinism` matrix re-runs the same probe in *separate
//! processes* per worker count (fresh ASLR, fresh hasher seeds) and diffs
//! the emitted directories byte-for-byte.
//!
//! That the unsharded engine is unmoved by the sharding layer — its
//! all-false `departed` guards are no-ops — is pinned by the root package's
//! golden test, which replays the serial failover, chaos, controller-crash
//! and controller-standby runs.

mod common;

use common::{chaos_schedule, emit_probe};
use wgtt_core::config::SystemConfig;
use wgtt_core::digest::assert_same;
use wgtt_core::shard::{run_sharded, ShardedScenario};
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

/// The corridor probe: four short clusters in a ring, two vehicles each,
/// with a different fault family per shard so migration interleaves with
/// every recovery mechanism the serial goldens pin:
/// shard 0 — serving-AP outage + CSI drops (failover machinery),
/// shard 1 — backhaul duplication + reordering (chaos machinery),
/// shard 2 — primary crash with warm standby + zombie wake (replication),
/// shard 3 — healthy.
fn corridor() -> ShardedScenario {
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let mut s =
        ShardedScenario::ring_corridor(cfg, 4, 2, 35.0, 5_000_000, SimDuration::from_secs(8), 4242);
    s.shard_faults = vec![
        FaultSchedule::new()
            .with_ap_outage(2, SimTime::from_secs(1), SimTime::from_secs(3))
            .with_csi_drops(SimTime::from_secs(2), SimTime::from_secs(5), 0.3),
        chaos_schedule(0.05, 0.05),
        FaultSchedule::new().with_controller_failover(SimTime::from_secs(2), SimTime::from_secs(5)),
        FaultSchedule::new(),
    ];
    s
}

/// Byte-identical digests at 1, 2, 4, and 8 workers — in one
/// process. 8 workers exceeds the 4 shards, exercising the worker cap.
#[test]
fn corridor_is_worker_count_invariant() {
    let scenario = corridor();
    let reference = run_sharded(&scenario, 1);
    // The corridor actually exercises what it claims to: vehicles cross
    // shard boundaries, and each armed fault family fires.
    assert!(!reference.migrations.is_empty(), "no boundary crossings");
    assert!(
        reference.sys.ap_crashes >= 1,
        "failover shard never faulted"
    );
    assert!(
        reference.sys.backhaul_dup_deliveries >= 1,
        "chaos shard never duplicated"
    );
    assert!(
        reference.sys.standby_takeovers >= 1,
        "standby shard never promoted"
    );
    assert!(reference.sys.migrated_in >= 1, "ring admitted no migrants");
    let want = reference.fingerprint();
    for workers in [2usize, 4, 8] {
        let got = run_sharded(&scenario, workers).fingerprint();
        assert_same(&format!("workers={workers} vs serial"), &got, &want);
    }
}

/// The CI matrix probe: runs the corridor at the worker count given by
/// `WGTT_WORLD_WORKERS` ([`common::worker_count`], default 1) and emits the
/// fingerprint under a *worker-count-independent* name, so the matrix
/// job's `diff -r` across per-worker-count output directories is a
/// byte-for-byte equality check.
#[test]
fn corridor_probe_honors_worker_env() {
    let scenario = corridor();
    let r = run_sharded(&scenario, common::worker_count());
    emit_probe("lockstep_corridor", &r.fingerprint());
}

/// The faulted seam — retries, ledger absorptions, aborts, readoptions and
/// re-exports, every random draw from the seam RNG fork — is as
/// worker-count invariant as the fault-free one: all of it runs in the
/// serial barrier.
#[test]
fn seam_faulted_corridor_is_worker_count_invariant() {
    let scenario = common::seam_faulted_corridor();
    let want = run_sharded(&scenario, 1).fingerprint();
    emit_probe("seam_faulted_corridor", &want);
    for workers in [2usize, 4] {
        let got = run_sharded(&scenario, workers).fingerprint();
        assert_same(&format!("workers={workers} vs serial"), &got, &want);
    }
}
