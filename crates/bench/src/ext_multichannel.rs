//! Extension — multi-channel settings (paper §7, Discussion).
//!
//! The paper predicts that putting adjacent APs on different channels
//! would avoid inter-AP interference but "the nearby APs working on
//! different channels would be unable to forward overheard packets,
//! resulting in a higher uplink packet loss rate", and spectrum efficiency
//! would drop. This harness tests the prediction: single-channel (the
//! deployed design) versus a 3-channel plan (1/6/11-style striping) on the
//! same drives.

use crate::common::{config, mean_over, publish, seeds_for, sweep_grid, Column};
use crate::common::{BULK_UDP_BPS, UDP_PAYLOAD};
use serde::Serialize;
use wgtt_core::config::Mode;
use wgtt_core::runner::{FlowSpec, Scenario};

/// Results for one channel plan.
#[derive(Debug, Serialize)]
pub struct ChannelPlanRow {
    /// Number of channels in the stripe (1 = the paper's deployment).
    pub channels: usize,
    /// Downlink TCP goodput, Mbit/s.
    pub tcp_mbps: f64,
    /// Downlink UDP goodput, Mbit/s.
    pub udp_mbps: f64,
    /// Uplink UDP loss rate.
    pub uplink_loss: f64,
    /// Block ACKs recovered via forwarding (per drive).
    pub ba_forwarded: f64,
}

const COLUMNS: [Column<ChannelPlanRow>; 5] = [
    ("channels", |r| r.channels.to_string()),
    ("TCP (Mb/s)", |r| format!("{:.2}", r.tcp_mbps)),
    ("UDP (Mb/s)", |r| format!("{:.2}", r.udp_mbps)),
    ("uplink loss", |r| format!("{:.3}", r.uplink_loss)),
    ("BA fwd", |r| format!("{:.0}", r.ba_forwarded)),
];

/// Measures each channel plan: every `(plan, drive, seed)` run in one
/// batch.
pub fn run_experiment(plans: &[usize], fast: bool) -> Vec<ChannelPlanRow> {
    // Downlink TCP, downlink UDP and uplink UDP drives.
    let flows = [
        FlowSpec::DownlinkTcp { limit: None },
        FlowSpec::DownlinkUdp {
            rate_bps: BULK_UDP_BPS,
            payload: UDP_PAYLOAD,
        },
        FlowSpec::UplinkUdp {
            rate_bps: 4_000_000,
            payload: UDP_PAYLOAD,
        },
    ];
    let cells = plans
        .iter()
        .flat_map(|&n| flows.clone().map(|flow| (n, flow)));
    let grid = sweep_grid(cells.collect(), seeds_for(fast, 2), |(n, flow), seed| {
        let mut s = Scenario::single_drive(config(Mode::Wgtt), 15.0, vec![flow.clone()], seed);
        s.config.channel_stride = *n;
        s
    });
    grid.chunks(3)
        .map(|plan| {
            let (tcp_runs, udp_runs, up_runs) = (&plan[0].1, &plan[1].1, &plan[2].1);
            ChannelPlanRow {
                channels: plan[0].0 .0,
                tcp_mbps: mean_over(tcp_runs, |r| r.downlink_bps(0)) / 1e6,
                udp_mbps: mean_over(udp_runs, |r| r.downlink_bps(0)) / 1e6,
                uplink_loss: mean_over(up_runs, |r| {
                    r.world.flows[0]
                        .up_sink
                        .as_ref()
                        .map_or(0.0, |s| s.loss_rate())
                }),
                ba_forwarded: mean_over(udp_runs, |r| {
                    r.world.clients[0].metrics.ba_forwarded_applied as f64
                }),
            }
        })
        .collect()
}

/// Runs and renders the extension study.
pub fn report(fast: bool) -> String {
    let rows = run_experiment(&[1, 3], fast);
    let title = "Extension (§7) — single-channel vs 3-channel striping under WGTT";
    publish("ext_multichannel", &rows, title, &COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_raises_uplink_loss() {
        // The paper's §7 prediction: losing cross-AP overhearing hurts the
        // uplink.
        let rows = run_experiment(&[1, 3], true);
        let (single, striped) = (&rows[0], &rows[1]);
        assert!(
            striped.uplink_loss > single.uplink_loss,
            "striping did not raise uplink loss: {single:?} vs {striped:?}"
        );
    }
}
