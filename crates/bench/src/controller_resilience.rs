//! Controller-resilience experiment — goodput retention and recovery
//! latency across a controller crash/restart.
//!
//! Not a paper figure: this sweeps the controller-outage width over UDP
//! drives at transit speeds, crashing the controller mid-drive (squarely
//! across the busy switching region) and restarting it after the
//! configured outage. It reports downlink goodput retention against the
//! zero-outage cell at the same speed, the AP-sourced resync latency,
//! the degraded-mode uplink buffering counters, local re-adoptions, and
//! the two must-be-zero columns: applied mis-switches and duplicate
//! uplink deliveries at the server.
//!
//! Each non-zero outage runs two recovery arms: **cold** — the restarted
//! primary rebuilds from the AP-sourced resync after the full outage —
//! and **standby** — a warm standby tailing the state journal promotes
//! itself ~40 ms after the crash (term-fenced against the zombie
//! ex-primary, which wakes at the end of the window). The standby arm
//! reports the takeover latency where the cold arm reports resync
//! latency; the retention gap between the arms is the experiment's
//! headline.

use crate::common::{config, mean_over, publish, seeds_for, sweep_grid, Column};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{FlowSpec, RunResult, Scenario};
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

/// When the controller dies, in drive time — after the drive has
/// ramped up and switching is underway at every speed in the sweep.
const CRASH_AT: SimTime = SimTime::from_millis(2_000);

/// One grid point of the sweep.
#[derive(Debug, Serialize)]
pub struct ControllerResiliencePoint {
    /// Recovery arm: `"cold"` (restart + AP-sourced resync), `"standby"`
    /// (warm journal-fed takeover), or `"none"` for the baseline cell.
    pub arm: &'static str,
    /// Outage width, seconds (0 = no crash, the baseline cell).
    pub outage_s: f64,
    /// Drive speed, mph.
    pub mph: f64,
    /// Mean downlink UDP goodput, Mbit/s.
    pub down_mbps: f64,
    /// Goodput as a fraction of the zero-outage cell at the same speed.
    pub retention: f64,
    /// Mean AP-sourced resync latency, ms (0 when no crash).
    pub resync_ms: f64,
    /// Mean standby takeover latency (crash → promotion), ms; 0 for the
    /// cold and baseline arms.
    pub takeover_ms: f64,
    /// Journal gap events observed at the standby (mean per run); a gap
    /// downgrades the takeover to the resync fallback.
    pub journal_gaps: f64,
    /// Zombie frames dropped by AP term fences (mean per run) — the
    /// observable trace of split-brain rejection.
    pub fence_drops: f64,
    /// Uplink datagrams buffered at APs while the controller was down
    /// (mean per run).
    pub uplink_buffered: f64,
    /// Buffered uplink flushed to the controller after resync (mean).
    pub uplink_flushed: f64,
    /// Uplink dropped at full degraded-mode buffers (mean).
    pub uplink_dropped: f64,
    /// Stop-applied orphans the old AP re-adopted locally (mean).
    pub local_readoptions: f64,
    /// Applied mis-switches (mean per run) — must stay zero.
    pub mis_switches: f64,
    /// Duplicate uplink datagrams delivered at the server (mean per
    /// run) — must stay zero across the dedup re-prime.
    pub uplink_dups: f64,
}

const COLUMNS: [Column<ControllerResiliencePoint>; 14] = [
    ("arm", |p| p.arm.to_string()),
    ("outage s", |p| format!("{:.1}", p.outage_s)),
    ("mph", |p| format!("{:.0}", p.mph)),
    ("Mbit/s", |p| format!("{:.2}", p.down_mbps)),
    ("retention", |p| format!("{:.2}", p.retention)),
    ("resync ms", |p| format!("{:.1}", p.resync_ms)),
    ("takeover ms", |p| format!("{:.1}", p.takeover_ms)),
    ("fenced", |p| format!("{:.1}", p.fence_drops)),
    ("buffered", |p| format!("{:.1}", p.uplink_buffered)),
    ("flushed", |p| format!("{:.1}", p.uplink_flushed)),
    ("dropped", |p| format!("{:.1}", p.uplink_dropped)),
    ("readopt", |p| format!("{:.1}", p.local_readoptions)),
    ("mis-sw", |p| format!("{:.1}", p.mis_switches)),
    ("up dups", |p| format!("{:.1}", p.uplink_dups)),
];

/// The full sweep.
#[derive(Debug, Serialize)]
pub struct ControllerResilienceSweep {
    /// Grid points, outage-width major.
    pub points: Vec<ControllerResiliencePoint>,
}

/// Builds the crash drive for one seed: bidirectional UDP so both the
/// downlink goodput hit and the uplink dedup re-prime are visible. With
/// `standby` the outage is a failover window (warm takeover + zombie
/// wake-up) instead of a cold crash/restart; the cold cells' schedules
/// are identical to what this experiment always ran.
fn scenario(outage_s: f64, mph: f64, standby: bool, seed: u64) -> Scenario {
    let mut s = Scenario::single_drive(
        config(Mode::Wgtt),
        mph,
        vec![
            FlowSpec::DownlinkUdp {
                rate_bps: 20_000_000,
                payload: 1472,
            },
            FlowSpec::UplinkUdp {
                rate_bps: 2_000_000,
                payload: 1200,
            },
        ],
        seed,
    );
    if outage_s > 0.0 {
        let until = CRASH_AT + SimDuration::from_secs_f64(outage_s);
        s.faults = if standby {
            FaultSchedule::new().with_controller_failover(CRASH_AT, until)
        } else {
            FaultSchedule::new().with_controller_crash(CRASH_AT, until)
        };
    }
    s
}

/// Mean latency of `spans` (a resync's or a takeover's), ms; 0 when none.
fn mean_ms(spans: &[(SimTime, SimDuration)]) -> f64 {
    let ms: Vec<f64> = spans.iter().map(|&(_, d)| d.as_secs_f64() * 1e3).collect();
    wgtt_sim::stats::mean(&ms)
}

fn server_uplink_dups(r: &RunResult) -> f64 {
    r.world
        .flows
        .iter()
        .filter_map(|f| f.up_sink.as_ref())
        .map(|s| s.duplicates())
        .sum::<u64>() as f64
}

/// Runs the sweep.
pub fn run_experiment(fast: bool) -> ControllerResilienceSweep {
    let outages: &[f64] = if fast {
        &[0.0, 1.0]
    } else {
        &[0.0, 0.5, 1.0, 2.0]
    };
    let speeds: &[f64] = if fast { &[15.0] } else { &[15.0, 25.0] };
    // Outage-width major. The baseline (outage 0) runs once; each real
    // outage runs both arms.
    let cells = outages.iter().flat_map(|&o| {
        speeds.iter().flat_map(move |&mph| {
            if o == 0.0 {
                vec![("none", o, mph)]
            } else {
                vec![("cold", o, mph), ("standby", o, mph)]
            }
        })
    });
    let grid = sweep_grid(
        cells.collect(),
        seeds_for(fast, 3),
        |&(arm, outage, mph), seed| scenario(outage, mph, arm == "standby", seed),
    );
    // Zero-outage goodput per speed, for the retention column.
    let baseline: Vec<(f64, f64)> = grid
        .iter()
        .filter(|((arm, ..), _)| *arm == "none")
        .map(|&((_, _, mph), ref results)| (mph, mean_over(results, |r| r.downlink_bps(0))))
        .collect();
    let mut points = Vec::new();
    for &((arm, outage, mph), ref results) in &grid {
        let down_bps = mean_over(results, |r| r.downlink_bps(0));
        let base = baseline
            .iter()
            .find(|&&(m, _)| m == mph)
            .map(|&(_, b)| b)
            .unwrap_or(down_bps);
        points.push(ControllerResiliencePoint {
            arm,
            outage_s: outage,
            mph,
            down_mbps: down_bps / 1e6,
            retention: if base > 0.0 { down_bps / base } else { 1.0 },
            resync_ms: mean_over(results, |r| mean_ms(&r.world.sys.resyncs)),
            takeover_ms: mean_over(results, |r| mean_ms(&r.world.sys.takeovers)),
            journal_gaps: mean_over(results, |r| r.world.sys.journal_gaps as f64),
            fence_drops: mean_over(results, |r| r.world.sys.stale_term_dropped as f64),
            uplink_buffered: mean_over(results, |r| r.world.sys.degraded_uplink_buffered as f64),
            uplink_flushed: mean_over(results, |r| r.world.sys.degraded_uplink_flushed as f64),
            uplink_dropped: mean_over(results, |r| r.world.sys.degraded_uplink_dropped as f64),
            local_readoptions: mean_over(results, |r| r.world.sys.local_readoptions as f64),
            mis_switches: mean_over(results, |r| r.world.sys.mis_switches as f64),
            uplink_dups: mean_over(results, server_uplink_dups),
        });
    }
    ControllerResilienceSweep { points }
}

/// Runs and renders the controller-resilience sweep.
pub fn report(fast: bool) -> String {
    let sweep = run_experiment(fast);
    let title = "Controller resilience — UDP drives across a controller outage (cold restart vs warm standby)";
    publish(
        "controller_resilience",
        &sweep,
        title,
        &COLUMNS,
        &sweep.points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_core::runner::run;

    #[test]
    fn crash_cell_resyncs_cleanly() {
        let r = run(scenario(1.0, 15.0, false, 11));
        let s = &r.world.sys;
        assert_eq!(s.controller_crashes, 1);
        assert_eq!(s.controller_recoveries, 1);
        assert_eq!(s.resyncs.len(), 1);
        assert_eq!(s.mis_switches, 0);
        assert_eq!(server_uplink_dups(&r), 0.0);
        assert!(r.downlink_bps(0) > 0.0);
    }

    #[test]
    fn standby_cell_takes_over_cleanly() {
        let r = run(scenario(1.0, 15.0, true, 11));
        let s = &r.world.sys;
        assert_eq!(s.controller_crashes, 1);
        assert_eq!(s.standby_takeovers, 1);
        assert_eq!(s.zombie_standdowns, 1);
        assert_eq!(s.mis_switches, 0);
        assert_eq!(server_uplink_dups(&r), 0.0);
        let takeover_ms = mean_ms(&s.takeovers);
        assert!(takeover_ms > 0.0 && takeover_ms < 100.0);
        assert!(r.downlink_bps(0) > 0.0);
    }

    /// The headline: at the widest sweep outage the standby arm clears
    /// the 0.85 retention bar the cold arm sits well under (~0.63).
    #[test]
    fn standby_retention_clears_bar_at_widest_outage() {
        let base = run(scenario(0.0, 15.0, false, 11));
        let warm = run(scenario(2.0, 15.0, true, 11));
        let retention = warm.downlink_bps(0) / base.downlink_bps(0);
        assert!(
            retention >= 0.85,
            "standby retention {retention:.3} under the 0.85 bar"
        );
    }

    #[test]
    fn zero_outage_cell_has_empty_schedule() {
        let s = scenario(0.0, 15.0, false, 1);
        assert!(s.faults.is_empty());
    }
}
