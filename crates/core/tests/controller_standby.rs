//! Hot-standby controller replication tests: a warm standby tails the
//! primary's state journal over the backhaul and takes over on primary
//! crash — fenced by the monotonic controller term so the zombie
//! ex-primary can never issue stale epochs.
//!
//! Full-system evidence layered over the exhaustive checker's standby /
//! zombie slices (see `protocol_check`):
//!
//! * **takeover drives**: a mid-drive primary crash with a warm standby
//!   promotes in tens of milliseconds (vs the cold restart's full outage
//!   window), applies zero mis-switches, lets zero duplicate uplink cross
//!   the takeover, and retains most of the healthy run's goodput;
//! * **zombie fencing**: the ex-primary wakes after the takeover, replays
//!   its saved in-flight frames, and every one dies at an AP term guard;
//! * **degraded edge cases** that ride along: a resync round whose every
//!   reply is lost must finalize by deadline without wedging, and a
//!   flapping AP must be damped by the health layer's abandon blacklist
//!   instead of ping-ponging the client.

mod common;

use common::{
    controller_standby_drive, emit_probe, server_uplink_duplicates, udp_down_up as flows,
};
use wgtt_core::config::SystemConfig;
use wgtt_core::digest::assert_same;
use wgtt_core::runner::{run, Scenario};
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

fn drive(seed: u64, faults: FaultSchedule) -> Scenario {
    common::drive(seed, 25.0, flows(), faults)
}

/// A failover window: primary crashes at `from_s`, the zombie ex-primary
/// wakes at `until_s` (the standby holds the reign by then).
fn failover_schedule(from_s: f64, until_s: f64) -> FaultSchedule {
    FaultSchedule::new().with_controller_failover(
        SimTime::from_secs_f64(from_s),
        SimTime::from_secs_f64(until_s),
    )
}

/// A 1.5 s primary outage mid-drive with a warm standby: promotion lands
/// within ~3 heartbeat silences of the crash (vs the cold restart's full
/// outage), the restored control plane applies zero mis-switches, and no
/// duplicate uplink crosses the takeover.
#[test]
fn standby_takeover_is_fast_and_clean() {
    let res = run(drive(901, failover_schedule(2.0, 3.5)));
    let s = &res.world.sys;
    assert_eq!(s.controller_crashes, 1);
    assert_eq!(s.standby_takeovers, 1, "exactly one promotion");
    assert_eq!(s.takeovers.len(), 1);
    let (at, latency) = s.takeovers[0];
    assert!(at > SimTime::from_secs(2));
    assert!(
        latency < SimDuration::from_millis(100),
        "takeover took {latency}, far above the heartbeat-silence bound"
    );
    assert!(s.journal_batches_shipped > 0, "journal never shipped");
    assert!(s.journal_batches_applied > 0, "standby never applied");
    assert_eq!(s.mis_switches, 0, "applied mis-switches across takeover");
    assert_eq!(
        server_uplink_duplicates(&res),
        0,
        "duplicate uplink reached the server across the takeover"
    );
    assert!(
        res.world.clients[0].serving.is_some(),
        "client ended the drive wedged/detached"
    );
    assert!(res.downlink_bps(0) > 0.0);
    assert!(res.uplink_bps(0) > 0.0);
}

/// The warm standby turns the cold restart's seconds-long control-plane
/// blackout into a sub-50 ms blip: goodput retention vs the healthy run
/// clears the bar the cold-restart path cannot (0.63 at this window in
/// the resilience bench).
#[test]
fn standby_retains_goodput_cold_restart_loses() {
    let healthy = run(drive(905, FaultSchedule::default()));
    let warm = run(drive(905, failover_schedule(2.0, 4.0)));
    let retention = warm.downlink_bps(0) / healthy.downlink_bps(0);
    assert!(
        retention >= 0.85,
        "standby retention {retention:.3} below the 0.85 bar"
    );
}

/// The zombie ex-primary wakes after the takeover, replays its saved
/// in-flight `stop`s and a resync broadcast under its stale term — every
/// frame must die at an AP term guard (structural split-brain rejection),
/// and the zombie stands down without earning a single resync reply.
#[test]
fn zombie_primary_is_fenced_everywhere() {
    let res = run(drive(901, failover_schedule(2.0, 3.5)));
    let s = &res.world.sys;
    assert_eq!(s.standby_takeovers, 1);
    assert_eq!(s.zombie_standdowns, 1, "zombie never stood down");
    assert!(
        s.stale_term_dropped > 0,
        "no zombie frame was ever term-fenced"
    );
    assert_eq!(s.mis_switches, 0);
    // Exactly the takeover's round: the zombie's probes name no round, so
    // they neither open one nor count into one.
    assert_eq!(s.resyncs.len(), 1);
}

/// Journal replication lag across the crash delays the standby's view but
/// must not break safety: promotion still happens, the takeover's resync
/// round lifts the stale journal's epoch floor to what the APs report, and
/// no duplicate uplink or mis-switch appears.
#[test]
fn takeover_under_journal_lag_stays_safe() {
    let faults = failover_schedule(2.0, 3.5).with_journal_lag(
        SimTime::from_secs(1),
        SimTime::from_secs(3),
        SimDuration::from_millis(20),
    );
    let res = run(drive(906, faults));
    let s = &res.world.sys;
    assert_eq!(s.standby_takeovers, 1);
    assert_eq!(s.mis_switches, 0);
    assert_eq!(server_uplink_duplicates(&res), 0);
    assert!(res.world.clients[0].serving.is_some());
    assert!(res.downlink_bps(0) > 0.0);
}

/// A run whose fault schedule has no failover window must never touch the
/// standby machinery: every replication counter pinned at zero (the
/// no-standby byte-identity the CI determinism job enforces globally).
#[test]
fn no_failover_schedule_never_engages_standby() {
    let res = run(drive(907, FaultSchedule::default()));
    let s = &res.world.sys;
    assert_eq!(s.journal_batches_shipped, 0);
    assert_eq!(s.journal_batches_applied, 0);
    assert_eq!(s.journal_gaps, 0);
    assert_eq!(s.standby_takeovers, 0);
    assert!(s.takeovers.is_empty());
    assert_eq!(s.stale_term_dropped, 0);
    assert_eq!(s.zombie_standdowns, 0);
}

/// Same seed and failover schedule reproduce byte-identically; with
/// `WGTT_DETERMINISM_OUT` set the digest is emitted for the CI
/// determinism job's cross-process diff.
#[test]
fn standby_schedule_is_deterministic() {
    let a = run(controller_standby_drive()).fingerprint();
    let b = run(controller_standby_drive()).fingerprint();
    assert_same("same seed and schedule", &a, &b);
    emit_probe("controller_standby_drive", &a);
}

// ---------- degraded edge cases riding along ----------

/// A resync round that earns zero replies (every AP partitioned from the
/// backhaul across the recovery) must finalize at the deadline and leave
/// the controller in degraded-aware operation — not wedged. Once the
/// partitions heal, normal selection re-attaches the client and traffic
/// flows again.
#[test]
fn zero_reply_resync_finalizes_and_recovers() {
    let mut faults =
        FaultSchedule::new().with_controller_crash(SimTime::from_secs(2), SimTime::from_secs(3));
    // Partition every AP across the recovery instant, comfortably past
    // the resync deadline, so no reply (and no buffered-uplink flush) can
    // reach the controller during the round.
    for ap in 0..8 {
        faults = faults.with_partition(ap, SimTime::from_millis(2900), SimTime::from_millis(3600));
    }
    let res = run(drive(909, faults));
    let s = &res.world.sys;
    assert_eq!(s.controller_recoveries, 1);
    assert_eq!(s.resyncs.len(), 1, "the round never finalized");
    assert_eq!(s.resync_replies, 0, "a reply leaked through the partition");
    assert_eq!(s.mis_switches, 0);
    assert!(
        res.world.clients[0].serving.is_some(),
        "client never re-attached after the partitions healed"
    );
    assert!(res.downlink_bps(0) > 0.0, "zero downlink goodput");
}

/// The degraded uplink buffer honors the config knob: a tiny cap under a
/// cold outage overflows (oldest-first, counted) where the default cap
/// absorbs the same schedule without a single drop.
#[test]
fn degraded_uplink_cap_knob_bounds_buffering() {
    let crash =
        || FaultSchedule::new().with_controller_crash(SimTime::from_secs(2), SimTime::from_secs(3));
    let cfg = SystemConfig {
        degraded_uplink_cap: 2,
        ..SystemConfig::default()
    };
    let mut tiny = Scenario::single_drive(cfg, 25.0, flows(), 912);
    tiny.faults = crash();
    let res = run(tiny);
    let s = &res.world.sys;
    assert!(s.degraded_uplink_buffered > 0, "outage never buffered");
    assert!(
        s.degraded_uplink_dropped > 0,
        "a 2-datagram cap never overflowed across a 1 s outage"
    );
    // Oldest-drop bookkeeping: every insert enters the buffer (evicting
    // the oldest when full), so what survives to flush equals the
    // non-evicting inserts exactly.
    assert_eq!(s.degraded_uplink_flushed, s.degraded_uplink_buffered);

    let default_run = run(drive(912, crash()));
    assert_eq!(
        default_run.world.sys.degraded_uplink_dropped, 0,
        "the default cap dropped on the same schedule"
    );
}

/// A rapidly flapping AP (crash/reboot cycling) in the client's path: the
/// health layer's abandon blacklist must damp the flaps — at most one
/// abandoned switch per down-phase, never a re-issued switch into the
/// corpse while blacklisted — instead of ping-ponging the client.
#[test]
fn flapping_ap_is_damped_by_blacklist_cooldown() {
    // Find the AP serving 3 s into a healthy drive: the drive will want
    // it mid-window, so flapping it forces the controller to cope.
    let seed = 910;
    let healthy = run(drive(seed, FaultSchedule::default()));
    let victim = healthy.world.clients[0]
        .metrics
        .serving_at(SimTime::from_secs(3))
        .expect("client attached 3 s into the drive");

    let period = SimDuration::from_millis(500);
    let faults = FaultSchedule::new().with_ap_flapping(
        victim.0 as usize,
        SimTime::from_secs(2),
        SimTime::from_secs(5),
        period,
        0.7, // 350 ms down, 150 ms up per cycle
    );
    let res = run(drive(seed, faults));
    let s = &res.world.sys;
    assert!(s.ap_crashes >= 3, "flapping never cycled the AP");
    // Damping, not ping-pong: the blacklist (threshold 1, 1 s cooldown,
    // lifted early by proof-of-life CSI) bounds abandons to at most one
    // per down-phase — a wedge loop would burn one per retry ladder.
    let cycles = s.ap_crashes;
    assert!(
        s.abandoned_switches <= cycles,
        "{} abandons over {} flap cycles: blacklist not damping",
        s.abandoned_switches,
        cycles
    );
    assert_eq!(
        s.re_wedged_switches, 0,
        "a switch was re-issued into the blacklisted corpse"
    );
    assert_eq!(s.mis_switches, 0);
    assert!(
        res.world.clients[0].serving.is_some(),
        "client ended the drive wedged/detached"
    );
    assert!(res.downlink_bps(0) > 0.0);
}
