//! Mechanism ablations (DESIGN.md §6).
//!
//! Each of WGTT's mechanisms is disabled in isolation against the default
//! system on identical channel realizations:
//!
//! * `no-flush` — switches happen but the new AP starts from the stream
//!   head instead of index `k`, and the old AP drains its whole backlog
//!   (the paper's §3 motivation for queue management);
//! * `no-ba-fwd` — lost Block ACKs are never recovered from neighbour APs,
//!   inflating link-layer retransmissions (§3.2.1);
//! * `no-dedup` — duplicate uplink copies reach the server, causing
//!   spurious TCP behaviour (§3.2.3);
//! * `no-ctrl-priority` — control packets queue behind data at APs,
//!   inflating the switch protocol's execution time (§3.1.2).

use crate::common::{drive, mean_over, publish, seeds_for, sweep_grid, Column};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::Scenario;

/// Outcome of one configuration.
#[derive(Debug, Serialize)]
pub struct AblationRow {
    /// Configuration name.
    pub name: String,
    /// Mean TCP goodput, Mbit/s.
    pub tcp_mbps: f64,
    /// Mean UDP goodput, Mbit/s.
    pub udp_mbps: f64,
    /// Mean switch-protocol execution time, ms.
    pub switch_ms: f64,
    /// Link-layer retransmissions per delivered MPDU.
    pub rtx_per_delivery: f64,
    /// TCP segments retransmitted by the sender (spurious ones included —
    /// the no-dedup ablation inflates this).
    pub tcp_retransmits: f64,
}

const COLUMNS: [Column<AblationRow>; 6] = [
    ("config", |r| r.name.clone()),
    ("TCP (Mb/s)", |r| format!("{:.2}", r.tcp_mbps)),
    ("UDP (Mb/s)", |r| format!("{:.2}", r.udp_mbps)),
    ("switch (ms)", |r| format!("{:.1}", r.switch_ms)),
    ("rtx/delivery", |r| format!("{:.2}", r.rtx_per_delivery)),
    ("tcp rtx", |r| format!("{:.0}", r.tcp_retransmits)),
];

/// The configurations, the default system first.
const ABLATIONS: [&str; 6] = [
    "full",
    "no-flush",
    "no-ba-fwd",
    "no-dedup",
    "no-ctrl-priority",
    "shadowing-4db",
];

fn apply(name: &str, s: &mut Scenario) {
    match name {
        "full" => {}
        "no-flush" => s.config.flush_on_switch = false,
        "no-ba-fwd" => s.config.ba_forwarding = false,
        "no-dedup" => s.config.uplink_dedup = false,
        "no-ctrl-priority" => s.config.control_priority = false,
        // Robustness knob rather than a mechanism: 4 dB of spatially
        // correlated shadowing on every link.
        "shadowing-4db" => s.config.link.shadowing.sigma_db = 4.0,
        other => panic!("unknown ablation {other}"),
    }
}

/// Measures the named configurations: every `(configuration, transport,
/// seed)` drive in one batch.
pub fn run_experiment(names: &[&str], fast: bool) -> Vec<AblationRow> {
    let cells = names.iter().flat_map(|&name| [(name, true), (name, false)]);
    let grid = sweep_grid(cells.collect(), seeds_for(fast, 2), |&(name, tcp), seed| {
        let mut s = drive(Mode::Wgtt, tcp, 15.0, seed);
        apply(name, &mut s);
        s
    });
    grid.chunks(2)
        .map(|pair| {
            let ((name, _), tcp_runs) = &pair[0];
            let udp_runs = &pair[1].1;
            let times: Vec<f64> = udp_runs
                .iter()
                .flat_map(|r| r.world.ctrl.engine.history())
                .map(|rec| rec.execution_time().as_secs_f64() * 1000.0)
                .collect();
            let rtx = mean_over(udp_runs, |r| {
                let m = &r.world.clients[0].metrics;
                if m.mpdu_successes == 0 {
                    0.0
                } else {
                    m.mpdu_retransmits as f64 / m.mpdu_successes as f64
                }
            });
            let tcp_rtx = mean_over(tcp_runs, |r| match &r.world.flows[0].kind {
                wgtt_core::world::FlowKind::DownTcp(s) => s.retransmit_count() as f64,
                _ => 0.0,
            });
            AblationRow {
                name: name.to_string(),
                tcp_mbps: mean_over(tcp_runs, |r| r.downlink_bps(0)) / 1e6,
                udp_mbps: mean_over(udp_runs, |r| r.downlink_bps(0)) / 1e6,
                switch_ms: wgtt_sim::stats::mean(&times),
                rtx_per_delivery: rtx,
                tcp_retransmits: tcp_rtx,
            }
        })
        .collect()
}

/// Runs and renders the ablation matrix.
pub fn report(fast: bool) -> String {
    let rows = run_experiment(&ABLATIONS, fast);
    let title = "Ablations — each WGTT mechanism disabled in isolation";
    publish("ablations", &rows, title, &COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_priority_keeps_switches_fast() {
        let rows = run_experiment(&["full", "no-ctrl-priority"], true);
        let (full, slow) = (&rows[0], &rows[1]);
        // The 30 ms stop-retransmission races the slowed protocol, so the
        // measured inflation is less than the raw +30 ms penalty — but it
        // must be clearly visible.
        assert!(
            slow.switch_ms > full.switch_ms + 4.0,
            "priority ablation had no effect: {full:?} vs {slow:?}"
        );
    }

    #[test]
    fn queue_flush_matters_for_tcp() {
        let rows = run_experiment(&["full", "no-flush"], true);
        let (full, noflush) = (&rows[0], &rows[1]);
        assert!(
            full.tcp_mbps > noflush.tcp_mbps,
            "flush ablation had no TCP cost: {full:?} vs {noflush:?}"
        );
    }
}
