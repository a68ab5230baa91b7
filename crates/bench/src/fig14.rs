//! Figs 14 & 15 — throughput and AP-association timeseries at 15 mph.
//!
//! WGTT switches APs several times per second and holds throughput
//! through the whole drive; Enhanced 802.11r rides each AP too long, its
//! throughput collapsing at cell edges — and for TCP the resulting RTO
//! backoff effectively kills the connection (the paper's 5.86 s event).

use crate::common::{drive, save_json, sweep_grid, system_name, MODES};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::RunResult;

/// A timeseries for one run.
#[derive(Debug, Serialize)]
pub struct Timeseries {
    /// System.
    pub system: String,
    /// Transport.
    pub transport: String,
    /// `(bin start s, Mbit/s)` samples at 500 ms bins.
    pub throughput: Vec<(f64, f64)>,
    /// `(time s, AP id or -1 for detached)` association timeline.
    pub association: Vec<(f64, i64)>,
    /// Total AP switches.
    pub switches: usize,
    /// Mean goodput, Mbit/s.
    pub mean_mbps: f64,
    /// Consecutive-RTO count at end (TCP runs): ≥3 means the connection
    /// was effectively dead.
    pub final_consecutive_rtos: Option<u32>,
}

/// Runs one 15 mph drive per `(system, transport TCP?)` cell, all in one
/// batch.
pub fn run_experiment(cells: &[(Mode, bool)], seed: u64) -> Vec<Timeseries> {
    let grid = sweep_grid(cells.to_vec(), seed..seed + 1, |&(mode, tcp), seed| {
        drive(mode, tcp, 15.0, seed)
    });
    grid.iter()
        .map(|((mode, tcp), res)| timeseries(*mode, *tcp, &res[0]))
        .collect()
}

fn timeseries(mode: Mode, tcp: bool, res: &RunResult) -> Timeseries {
    let m = &res.world.clients[0].metrics;
    // Re-bin 100 ms series into 500 ms.
    let rates = m.downlink.rates();
    let mut through = Vec::new();
    for chunk in rates.chunks(5) {
        let t = chunk[0].0.as_secs_f64();
        let v = chunk.iter().map(|(_, v)| v / 1e6).sum::<f64>() / chunk.len() as f64;
        through.push((t, v));
    }
    let assoc = m
        .assoc_timeline
        .iter()
        .map(|(t, ap)| (t.as_secs_f64(), ap.map(|a| a.0 as i64).unwrap_or(-1)))
        .collect();
    let rtos = res.world.flows.first().and_then(|f| match &f.kind {
        wgtt_core::world::FlowKind::DownTcp(s) => Some(s.consecutive_timeouts()),
        _ => None,
    });
    Timeseries {
        system: system_name(mode),
        transport: if tcp { "TCP".into() } else { "UDP".into() },
        throughput: through,
        association: assoc,
        switches: m.switch_count(),
        mean_mbps: m.mean_downlink_bps(res.duration) / 1e6,
        final_consecutive_rtos: rtos,
    }
}

fn render(ts: &Timeseries) -> String {
    let zeros = ts.throughput.iter().filter(|(_, v)| *v < 2.0).count();
    format!(
        "  {} {}: mean {:.2} Mbit/s, {} switches, {}/{} dead 500 ms bins{}\n",
        ts.system,
        ts.transport,
        ts.mean_mbps,
        ts.switches,
        zeros,
        ts.throughput.len(),
        ts.final_consecutive_rtos
            .map(|r| format!(", consecutive RTOs at end: {r}"))
            .unwrap_or_default()
    )
}

/// Runs and renders Figs 14 & 15.
pub fn report(_fast: bool) -> String {
    let cells = [true, false]
        .into_iter()
        .flat_map(|tcp| MODES.map(|mode| (mode, tcp)));
    let runs = run_experiment(&cells.collect::<Vec<_>>(), 21);
    save_json("fig14_fig15_timeseries", &runs);
    let lines: String = runs.iter().map(render).collect();
    format!("Figs 14/15 — 15 mph drive timeseries (full series in results/)\n{lines}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wgtt_switches_fast_and_stays_alive() {
        let ts = &run_experiment(&[(Mode::Wgtt, false)], 5)[0];
        // Paper: ≈5 switches per second at 15 mph. Require multiple per
        // second of drive.
        let secs = ts.throughput.len() as f64 * 0.5;
        assert!(
            ts.switches as f64 / secs > 2.0,
            "{} switches over {secs}s",
            ts.switches
        );
        // No long dead stretch: at most a third of bins empty.
        let zeros = ts.throughput.iter().filter(|(_, v)| *v < 2.0).count();
        assert!(zeros * 3 <= ts.throughput.len(), "{zeros} dead bins");
    }

    #[test]
    fn baseline_stalls_and_switches_rarely() {
        let runs = run_experiment(&[(Mode::Enhanced80211r, false), (Mode::Wgtt, false)], 5);
        let (base, wgtt) = (&runs[0], &runs[1]);
        // The baseline's mean collapses relative to WGTT (its timeline is
        // bursts separated by stalls)…
        assert!(
            base.mean_mbps * 2.0 < wgtt.mean_mbps,
            "baseline {} vs wgtt {}",
            base.mean_mbps,
            wgtt.mean_mbps
        );
        // …and it switches far less often (paper: 3 switches in 10 s).
        assert!(base.switches < wgtt.switches / 2);
    }
}
