//! Figs 17 & 18 — multi-client throughput and uplink diversity.
//!
//! Fig 17: average per-client downlink throughput as 1–3 clients drive by
//! together at 15 mph — WGTT's gap over the baseline *grows* with clients
//! (paper: 2.5×→2.6× TCP, 2.1×→2.4× UDP).
//!
//! Fig 18: three clients send uplink UDP; with WGTT's uplink diversity
//! (every AP forwards what it hears) loss stays below ~2 %, while a
//! single-AP uplink suffers loss spikes at every cell edge.

use crate::common::{config, render_table, save_json, seeds_for, sweep_grid};
use crate::common::{Column, BULK_UDP_BPS, MODES, UDP_PAYLOAD};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{ClientSpec, FlowSpec, RunResult, Scenario, TrajectorySpec};
use wgtt_sim::SimDuration;

/// One Fig 17 data point.
#[derive(Debug, Serialize)]
pub struct MultiClientPoint {
    /// Number of clients.
    pub clients: usize,
    /// Mean per-client goodput, WGTT, Mbit/s.
    pub wgtt_mbps: f64,
    /// Mean per-client goodput, baseline, Mbit/s.
    pub baseline_mbps: f64,
}

/// The first header names the transport: `TCP clients`, `UDP clients`.
const COLUMNS: [Column<MultiClientPoint>; 4] = [
    ("clients", |p| p.clients.to_string()),
    ("WGTT", |p| format!("{:.2}", p.wgtt_mbps)),
    ("802.11r", |p| format!("{:.2}", p.baseline_mbps)),
    ("gain", |p| {
        format!("{:.1}x", p.wgtt_mbps / p.baseline_mbps.max(1e-9))
    }),
];

/// Fig 18 result.
#[derive(Debug, Serialize)]
pub struct UplinkLoss {
    /// Per-client uplink loss with multi-AP forwarding.
    pub diversity_loss: Vec<f64>,
    /// Per-client loss when only the serving AP forwards.
    pub single_loss: Vec<f64>,
}

pub(crate) fn convoy_scenario(
    mode: Mode,
    n: usize,
    tcp: bool,
    uplink: bool,
    seed: u64,
) -> Scenario {
    let clients: Vec<ClientSpec> = (0..n)
        .map(|i| ClientSpec {
            trajectory: TrajectorySpec::DriveByOffset {
                mph: 15.0,
                lead_in_m: 4.0,
                offset_m: i as f64 * 4.0,
                far_lane: false,
            },
            flows: vec![if uplink {
                FlowSpec::UplinkUdp {
                    rate_bps: 4_000_000,
                    payload: 1200,
                }
            } else if tcp {
                FlowSpec::DownlinkTcp { limit: None }
            } else {
                FlowSpec::DownlinkUdp {
                    rate_bps: BULK_UDP_BPS,
                    payload: UDP_PAYLOAD,
                }
            }],
        })
        .collect();
    let span = 52.5 + 8.0 + (n as f64 - 1.0) * 4.0;
    Scenario {
        config: config(mode),
        clients,
        duration: SimDuration::from_secs_f64(span / wgtt_phy::mph_to_mps(15.0)),
        seed,
        log_deliveries: false,
        flow_start: SimDuration::from_millis(1),
        faults: wgtt_sim::FaultSchedule::default(),
    }
}

/// Runs Fig 17 for one transport: every `(client count, system, seed)`
/// run in one batch.
pub fn run_fig17(tcp: bool, fast: bool) -> Vec<MultiClientPoint> {
    let counts: &[usize] = if fast { &[1, 3] } else { &[1, 2, 3] };
    let cells = counts.iter().flat_map(|&n| MODES.map(|mode| (n, mode)));
    let grid = sweep_grid(cells.collect(), seeds_for(fast, 2), |&(n, mode), seed| {
        convoy_scenario(mode, n, tcp, false, seed)
    });
    let per_client = |((n, _), runs): &((usize, Mode), Vec<RunResult>)| {
        let mut acc = 0.0;
        for r in runs {
            for c in 0..*n {
                acc += r.downlink_bps(c);
            }
        }
        acc / (runs.len() * n) as f64 / 1e6
    };
    grid.chunks(2)
        .map(|pair| MultiClientPoint {
            clients: pair[0].0 .0,
            wgtt_mbps: per_client(&pair[0]),
            baseline_mbps: per_client(&pair[1]),
        })
        .collect()
}

fn uplink_loss(res: &RunResult) -> Vec<f64> {
    (0..3)
        .map(|c| {
            let flow = res
                .world
                .flows
                .iter()
                .find(|f| f.client == c)
                .expect("flow");
            let sink = flow.up_sink.as_ref().expect("uplink sink");
            sink.loss_rate()
        })
        .collect()
}

/// Runs Fig 18: three uplink clients, diversity on vs off.
pub fn run_fig18(seed: u64) -> UplinkLoss {
    let grid = sweep_grid(vec![true, false], seed..seed + 1, |&diversity, seed| {
        let mut scenario = convoy_scenario(Mode::Wgtt, 3, false, true, seed);
        scenario.config.uplink_diversity = diversity;
        scenario
    });
    UplinkLoss {
        diversity_loss: uplink_loss(&grid[0].1[0]),
        single_loss: uplink_loss(&grid[1].1[0]),
    }
}

/// Runs and renders Figs 17 & 18.
pub fn report(fast: bool) -> String {
    let tcp = run_fig17(true, fast);
    let udp = run_fig17(false, fast);
    let loss = run_fig18(33);
    save_json("fig17_multiclient", &(&tcp, &udp));
    save_json("fig18_uplink_loss", &loss);
    let render = |name: &str, pts: &[MultiClientPoint]| {
        let header = format!("{name} clients");
        let mut columns = COLUMNS;
        columns[0].0 = &header;
        render_table(&columns, pts)
    };
    let rounded =
        |v: &[f64]| -> Vec<f64> { v.iter().map(|v| (v * 1000.0).round() / 1000.0).collect() };
    format!(
        "Fig 17 — per-client throughput vs client count, Mbit/s\nTCP:\n{}UDP:\n{}\n\
         Fig 18 — uplink UDP loss, 3 clients\n  multi-AP forwarding: {:?}\n  single-AP uplink:    {:?}\n",
        render("TCP", &tcp),
        render("UDP", &udp),
        rounded(&loss.diversity_loss),
        rounded(&loss.single_loss),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wgtt_gap_persists_with_more_clients() {
        let udp = run_fig17(false, true);
        for p in &udp {
            assert!(
                p.wgtt_mbps > p.baseline_mbps,
                "no gain at {} clients: {p:?}",
                p.clients
            );
        }
        // Per-client throughput falls as clients share the medium.
        let first = &udp[0];
        let last = udp.last().unwrap();
        assert!(last.wgtt_mbps < first.wgtt_mbps, "{udp:?}");
    }

    #[test]
    fn uplink_diversity_cuts_loss() {
        let l = run_fig18(5);
        let d = wgtt_sim::stats::mean(&l.diversity_loss);
        let s = wgtt_sim::stats::mean(&l.single_loss);
        assert!(d < 0.05, "diversity loss {d}");
        assert!(s > d, "single {s} vs diversity {d}");
    }
}
