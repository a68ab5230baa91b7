//! Long-horizon composite-fault **storm** drives (DESIGN.md §6f).
//!
//! A storm composes every fault family at once — AP flapping, backhaul
//! loss/latency, duplication, reordering, controller failover, and
//! seam-migration loss/dup — against the sharded corridor. Two claims are
//! under test:
//!
//! * the two-phase seam protocol's guarantee (no departed-client data
//!   loss, handoffs still commit) and the lockstep contract (byte-equal
//!   fingerprints at any worker count) both survive the composition, not
//!   just each family in isolation;
//! * when a storm *does* break an invariant, `wgtt_sim::storm::shrink`
//!   reduces it to a 1-minimal schedule — demonstrated here by injecting
//!   a violation (a total seam outage against a too-small retry budget)
//!   into a noisy storm and shrinking away every noise window.
//!
//! The `#[ignore]`d smoke test is the nightly workflow's entry point: a
//! longer fixed-seed storm, heavier than the default, run serially and
//! in parallel.

mod common;

use wgtt_core::digest::assert_same;
use wgtt_core::shard::{run_sharded, ShardedScenario};
use wgtt_sim::storm::{random_storm, shrink, StormConfig};
use wgtt_sim::{FaultSchedule, SimDuration, SimRng, SimTime};

/// [`common::storm_corridor`]'s corridor over `duration`, for the tests
/// that bring a storm of their own.
fn corridor(duration: SimDuration, seed: u64) -> ShardedScenario {
    let mut s = common::storm_corridor(seed);
    s.duration = duration;
    s.shard_faults.clear();
    s
}

#[test]
fn composite_storm_preserves_seam_guarantees_and_determinism() {
    // Seed 11 is the run `tests/golden/storm_corridor.json` pins.
    for seed in [11u64, 12] {
        let s = common::storm_corridor(seed);
        let r = run_sharded(&s, 1);
        assert_eq!(
            r.sys.departed_data_drops, 0,
            "seed {seed}: the two-phase handoff lost seam data under the storm"
        );
        assert_eq!(r.sys.departed_data_bytes, 0, "seed {seed}");
        assert!(
            r.sys.migrated_in > 0,
            "seed {seed}: no handoff ever committed under a survivable storm"
        );
        // Composite faults must not break the lockstep contract: all
        // fault draws happen either inside a shard's own event stream or
        // in the serial barrier, so the fingerprint is worker-invariant.
        assert_same(
            &format!("seed {seed}: 2 workers vs serial under the storm"),
            &run_sharded(&s, 2).fingerprint(),
            &r.fingerprint(),
        );
    }
}

#[test]
fn shrink_reduces_an_injected_violation_to_the_one_guilty_window() {
    let duration = SimDuration::from_secs(5);
    let mut base = corridor(duration, 7);
    // A retry budget deliberately too small to ride out a sustained
    // outage: two 50 ms attempts, then abort.
    base.config.migration.retry_timeout = SimDuration::from_millis(50);
    base.config.migration.backoff = 1.0;
    base.config.migration.max_attempts = 2;

    // A noisy but seam-survivable storm...
    let noise = StormConfig {
        backhaul_windows: 1,
        dup_windows: 0,
        reorder_windows: 0,
        failovers: 0,
        migration_loss_windows: 0,
        migration_dup_windows: 1,
        duration,
        ..StormConfig::default()
    };
    let mut storm = random_storm(&noise, &mut SimRng::new(3).fork("storm"));
    // ...plus the injected violation: a total seam blackout on shard 0
    // for the whole run, which the two-attempt budget cannot out-wait.
    let horizon = SimTime::ZERO + duration + SimDuration::from_secs(1);
    storm[0] = storm[0]
        .clone()
        .with_migration_loss(SimTime::ZERO, horizon, 1.0);

    let fails = |candidate: &[FaultSchedule]| {
        let mut s = base.clone();
        s.shard_faults = candidate.to_vec();
        run_sharded(&s, 1).sys.migration_aborts > 0
    };

    let before: usize = storm.iter().map(|s| s.window_count()).sum();
    assert!(before > 1, "the storm must contain noise to strip");
    let min = shrink(storm, fails);
    let after: usize = min.iter().map(|s| s.window_count()).sum();
    assert_eq!(
        after, 1,
        "shrink must strip every noise window, leaving only the outage"
    );
    assert_eq!(
        (
            min[0].window_count(),
            min[0].migration_loss_prob(SimTime::ZERO)
        ),
        (1, 1.0),
        "the surviving window must be shard 0's seam outage"
    );
}

/// Nightly smoke: a longer, heavier fixed-seed storm. Run explicitly via
/// `cargo test -p wgtt-core --test storm -- --ignored`.
#[test]
#[ignore = "nightly: ~minutes of simulated storm"]
fn nightly_fixed_seed_storm_smoke() {
    let duration = SimDuration::from_secs(20);
    let mut s = corridor(duration, 1717);
    let cfg = StormConfig {
        flap_bursts: 2,
        backhaul_windows: 4,
        dup_windows: 2,
        reorder_windows: 2,
        failovers: 2,
        migration_loss_windows: 2,
        migration_dup_windows: 2,
        duration,
        ..StormConfig::default()
    };
    s.shard_faults = random_storm(&cfg, &mut SimRng::new(1717).fork("storm"));
    let r = run_sharded(&s, 1);
    assert_eq!(r.sys.departed_data_drops, 0);
    assert_eq!(r.sys.departed_data_bytes, 0);
    assert!(r.sys.migrated_in > 0);
    assert_same(
        "4 workers vs serial",
        &run_sharded(&s, 4).fingerprint(),
        &r.fingerprint(),
    );
}
