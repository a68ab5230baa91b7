//! Chaos experiment — handover robustness under backhaul frame
//! duplication and reordering.
//!
//! Not a paper figure: this certifies the epoch-stamped switch control
//! plane. The backhaul duplicates and reorders a configurable fraction of
//! *every* frame — `stop`/`start`/`ack` control traffic and downlink data
//! alike — across bulk-UDP drives at 15/25/35 mph. For each grid point the
//! sweep reports throughput retention against the clean run at the same
//! speed, plus the control-plane counters. The headline invariant:
//! `mis_switches` (completions misattributed across switch generations,
//! the ABA the epoch guard kills) must be zero at every rate.

use crate::common::{mean_over, publish, seeds_for, sweep_grid, Column};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::Scenario;
use wgtt_sim::{FaultSchedule, SimDuration, SimTime};

/// One grid point of the sweep.
#[derive(Debug, Serialize)]
pub struct ChaosPoint {
    /// Drive speed, mph.
    pub mph: f64,
    /// Per-frame duplication *and* reordering probability.
    pub fault_rate: f64,
    /// Mean UDP goodput, Mbit/s.
    pub udp_mbps: f64,
    /// Goodput relative to the zero-rate run at the same speed.
    pub retention: f64,
    /// Completed switches (mean per run).
    pub switches: f64,
    /// Applied cross-generation misattributions (mean per run). Must be 0.
    pub mis_switches: f64,
    /// Switches abandoned after the retry ladder (mean per run).
    pub abandoned_switches: f64,
    /// Stale-epoch control frames rejected (mean per run).
    pub stale_control_dropped: f64,
    /// Duplicate same-epoch control frames absorbed (mean per run).
    pub dup_control_dropped: f64,
    /// Duplicate data frames suppressed at AP ingest (mean per run).
    pub dup_data_dropped: f64,
    /// Frames the fault layer actually delivered twice (mean per run).
    pub backhaul_dup_deliveries: f64,
    /// Frames the fault layer held back out of order (mean per run).
    pub backhaul_reorders: f64,
}

const COLUMNS: [Column<ChaosPoint>; 12] = [
    ("mph", |p| format!("{:.0}", p.mph)),
    ("rate", |p| format!("{:.0}%", p.fault_rate * 100.0)),
    ("Mbit/s", |p| format!("{:.2}", p.udp_mbps)),
    ("retain", |p| format!("{:.0}%", p.retention * 100.0)),
    ("switches", |p| format!("{:.1}", p.switches)),
    ("mis", |p| format!("{:.1}", p.mis_switches)),
    ("abandoned", |p| format!("{:.1}", p.abandoned_switches)),
    ("stale ctl", |p| format!("{:.0}", p.stale_control_dropped)),
    ("dup ctl", |p| format!("{:.0}", p.dup_control_dropped)),
    ("dup data", |p| format!("{:.0}", p.dup_data_dropped)),
    ("dups", |p| format!("{:.0}", p.backhaul_dup_deliveries)),
    ("reorders", |p| format!("{:.0}", p.backhaul_reorders)),
];

/// The full sweep.
#[derive(Debug, Serialize)]
pub struct ChaosSweep {
    /// Grid points, speed-major, fault rate ascending within each speed.
    pub points: Vec<ChaosPoint>,
}

/// Duplication + reordering at `rate` across the whole drive.
fn chaos_faults(rate: f64, duration: SimDuration) -> FaultSchedule {
    if rate == 0.0 {
        return FaultSchedule::new();
    }
    let until = SimTime::ZERO + duration + SimDuration::from_secs(1);
    FaultSchedule::new()
        .with_duplication(SimTime::ZERO, until, rate)
        .with_reordering(SimTime::ZERO, until, rate, SimDuration::from_millis(1))
}

/// Bulk-UDP drive with the chaos schedule layered on.
pub(crate) fn scenario(mph: f64, rate: f64, seed: u64) -> Scenario {
    let mut s = crate::common::udp_drive(Mode::Wgtt, mph, seed);
    s.faults = chaos_faults(rate, s.duration);
    s
}

/// Runs the sweep.
pub fn run_experiment(fast: bool) -> ChaosSweep {
    let speeds: &[f64] = if fast { &[25.0] } else { &[15.0, 25.0, 35.0] };
    let rates: &[f64] = if fast {
        &[0.0, 0.10]
    } else {
        &[0.0, 0.02, 0.05, 0.10]
    };
    // Speed-major, rate ascending within each speed, so the rate-0
    // "clean" cell aggregates before its fault cells.
    let cells = speeds
        .iter()
        .flat_map(|&mph| rates.iter().map(move |&rate| (mph, rate)));
    let grid = sweep_grid(cells.collect(), seeds_for(fast, 3), |&(mph, rate), seed| {
        scenario(mph, rate, seed)
    });
    let mut points = Vec::new();
    let mut clean_mbps = f64::NAN;
    for &((mph, rate), ref results) in &grid {
        let udp_mbps = mean_over(results, |r| r.downlink_bps(0)) / 1e6;
        if rate == 0.0 {
            clean_mbps = udp_mbps;
        }
        points.push(ChaosPoint {
            mph,
            fault_rate: rate,
            udp_mbps,
            retention: if clean_mbps > 0.0 {
                udp_mbps / clean_mbps
            } else {
                0.0
            },
            switches: mean_over(results, |r| r.world.ctrl.engine.history().len() as f64),
            mis_switches: mean_over(results, |r| r.world.sys.mis_switches as f64),
            abandoned_switches: mean_over(results, |r| r.world.sys.abandoned_switches as f64),
            stale_control_dropped: mean_over(results, |r| r.world.sys.stale_control_dropped as f64),
            dup_control_dropped: mean_over(results, |r| r.world.sys.dup_control_dropped as f64),
            dup_data_dropped: mean_over(results, |r| r.world.sys.dup_data_dropped as f64),
            backhaul_dup_deliveries: mean_over(results, |r| {
                r.world.sys.backhaul_dup_deliveries as f64
            }),
            backhaul_reorders: mean_over(results, |r| r.world.sys.backhaul_reorders as f64),
        });
    }
    ChaosSweep { points }
}

/// Runs and renders the chaos sweep.
pub fn report(fast: bool) -> String {
    let sweep = run_experiment(fast);
    let title = "Chaos — UDP drives with backhaul duplication + reordering (mis must be 0)";
    publish("chaos", &sweep, title, &COLUMNS, &sweep.points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_core::runner::run;

    #[test]
    fn ten_percent_chaos_never_mis_switches() {
        let r = run(scenario(25.0, 0.10, 11));
        let s = &r.world.sys;
        assert!(s.backhaul_dup_deliveries > 0, "no duplicates injected");
        assert_eq!(
            s.mis_switches, 0,
            "epoch guard let a misattribution through"
        );
        assert_eq!(s.abandoned_switches, 0, "chaos wedged a switch");
        assert!(r.downlink_bps(0) > 0.0, "throughput collapsed");
    }

    #[test]
    fn zero_rate_schedule_is_empty() {
        assert!(scenario(25.0, 0.0, 1).faults.is_empty());
    }
}
