//! Resilience experiment — throughput and recovery time under injected
//! AP failures and backhaul loss.
//!
//! Not a paper figure: this sweeps the fault-injection subsystem over a
//! 15 mph TCP drive, crashing APs at a configurable per-AP rate (with
//! reboot after a random outage length) and optionally degrading the
//! wired backhaul, then reports goodput, failover latency (AP crash →
//! re-attach at a live AP), and the health-layer counters that certify
//! the controller never wedges on a dead AP.

use crate::common::{config, mean_over, publish, seeds_for, sweep_grid, Column};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{FlowSpec, RunResult, Scenario};
use wgtt_sim::{BackhaulFault, FaultSchedule, SimDuration, SimRng, SimTime};

/// One grid point of the sweep.
#[derive(Debug, Serialize)]
pub struct ResiliencePoint {
    /// Per-AP crash rate, crashes per simulated second.
    pub crash_rate_per_s: f64,
    /// Extra backhaul loss probability layered onto every message.
    pub backhaul_loss: f64,
    /// Mean TCP goodput, Mbit/s.
    pub tcp_mbps: f64,
    /// AP crashes that took effect (mean per run).
    pub ap_crashes: f64,
    /// Completed failovers (mean per run).
    pub failovers: f64,
    /// Mean failover latency, ms (crash → re-attach; 0 when none).
    pub mean_failover_ms: f64,
    /// Worst failover latency, ms, across all runs.
    pub max_failover_ms: f64,
    /// Switches abandoned after the retry ladder (mean per run).
    pub abandoned_switches: f64,
    /// Emergency direct re-attaches (mean per run).
    pub emergency_reattaches: f64,
    /// Switch decisions refused because the target was blacklisted
    /// (mean per run) — nonzero means the selection-side exclusion leaked.
    pub re_wedged_switches: f64,
}

const COLUMNS: [Column<ResiliencePoint>; 10] = [
    ("crash/s", |p| format!("{:.2}", p.crash_rate_per_s)),
    ("bh loss", |p| format!("{:.2}", p.backhaul_loss)),
    ("Mbit/s", |p| format!("{:.2}", p.tcp_mbps)),
    ("crashes", |p| format!("{:.1}", p.ap_crashes)),
    ("failovers", |p| format!("{:.1}", p.failovers)),
    ("mean ms", |p| format!("{:.0}", p.mean_failover_ms)),
    ("max ms", |p| format!("{:.0}", p.max_failover_ms)),
    ("abandoned", |p| format!("{:.1}", p.abandoned_switches)),
    ("emergency", |p| format!("{:.1}", p.emergency_reattaches)),
    ("re-wedged", |p| format!("{:.1}", p.re_wedged_switches)),
];

/// The full sweep.
#[derive(Debug, Serialize)]
pub struct ResilienceSweep {
    /// Grid points, crash-rate major.
    pub points: Vec<ResiliencePoint>,
}

/// Builds the faulty 15 mph TCP drive for one seed.
fn scenario(crash_rate: f64, backhaul_loss: f64, seed: u64) -> Scenario {
    let mut s = Scenario::single_drive(
        config(Mode::Wgtt),
        15.0,
        vec![FlowSpec::DownlinkTcp { limit: None }],
        seed,
    );
    let n_aps = s.config.deployment.build().aps.len();
    // The fault schedule gets its own deterministic stream so the same
    // seed always produces the same outage plan.
    let mut frng = SimRng::new(seed).fork("faultgen");
    let mut faults = FaultSchedule::random_outages(
        &mut frng,
        n_aps,
        s.duration,
        crash_rate,
        SimDuration::from_millis(200)..SimDuration::from_millis(800),
    );
    if backhaul_loss > 0.0 {
        faults = faults.with_backhaul_fault(
            SimTime::ZERO,
            SimTime::ZERO + s.duration + SimDuration::from_secs(1),
            BackhaulFault {
                extra_loss_prob: backhaul_loss,
                extra_latency: SimDuration::ZERO,
                extra_jitter_mean: SimDuration::ZERO,
            },
        );
    }
    s.faults = faults;
    s
}

fn failover_ms(r: &RunResult) -> Vec<f64> {
    r.world.clients[0]
        .metrics
        .failovers
        .iter()
        .map(|&(_, d)| d.as_secs_f64() * 1e3)
        .collect()
}

/// Runs the sweep.
pub fn run_experiment(fast: bool) -> ResilienceSweep {
    let crash_rates: &[f64] = if fast {
        &[0.0, 0.1]
    } else {
        &[0.0, 0.05, 0.1, 0.2]
    };
    let losses: &[f64] = if fast { &[0.0] } else { &[0.0, 0.05] };
    let cells = crash_rates
        .iter()
        .flat_map(|&rate| losses.iter().map(move |&loss| (rate, loss)));
    let grid = sweep_grid(
        cells.collect(),
        seeds_for(fast, 3),
        |&(rate, loss), seed| scenario(rate, loss, seed),
    );
    let mut points = Vec::new();
    for &((rate, loss), ref results) in &grid {
        let lat: Vec<f64> = results.iter().flat_map(failover_ms).collect();
        points.push(ResiliencePoint {
            crash_rate_per_s: rate,
            backhaul_loss: loss,
            tcp_mbps: mean_over(results, |r| r.downlink_bps(0)) / 1e6,
            ap_crashes: mean_over(results, |r| r.world.sys.ap_crashes as f64),
            failovers: mean_over(results, |r| {
                r.world.clients[0].metrics.failovers.len() as f64
            }),
            mean_failover_ms: wgtt_sim::stats::mean(&lat),
            max_failover_ms: lat.iter().copied().fold(0.0, f64::max),
            abandoned_switches: mean_over(results, |r| r.world.sys.abandoned_switches as f64),
            emergency_reattaches: mean_over(results, |r| r.world.sys.emergency_reattaches as f64),
            re_wedged_switches: mean_over(results, |r| r.world.sys.re_wedged_switches as f64),
        });
    }
    ResilienceSweep { points }
}

/// Runs and renders the resilience sweep.
pub fn report(fast: bool) -> String {
    let sweep = run_experiment(fast);
    let title = "Resilience — 15 mph TCP drive under AP crashes + backhaul loss";
    publish("resilience", &sweep, title, &COLUMNS, &sweep.points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_core::runner::run;

    #[test]
    fn faulty_drive_recovers_and_never_rewedges() {
        let r = run(scenario(0.2, 0.0, 7));
        assert!(r.world.sys.ap_crashes > 0, "schedule produced no crashes");
        assert!(r.downlink_bps(0) > 0.0, "throughput collapsed to zero");
        assert_eq!(
            r.world.sys.re_wedged_switches, 0,
            "controller re-issued a switch to a blacklisted AP"
        );
    }

    #[test]
    fn zero_rate_schedule_is_empty() {
        let s = scenario(0.0, 0.0, 1);
        assert!(s.faults.is_empty());
    }
}
