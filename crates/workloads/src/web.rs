//! Web browsing QoE (paper §5.4, Table 5).
//!
//! The paper times loading the eBay homepage (2.1 MB, cached locally)
//! while the client drives past the array, reporting the time from launch
//! to full render, with "∞" when the page never completes within the
//! transit. We model the page as a fixed-size TCP transfer plus a small
//! fixed browser/handshake overhead and read the completion time off the
//! flow.

use wgtt_core::runner::{run, FlowSpec, Scenario};
use wgtt_core::SystemConfig;
use wgtt_sim::SimDuration;

/// Page-load model.
#[derive(Debug, Clone, Copy)]
pub struct WebConfig {
    /// Page weight, bytes (paper: 2.1 MB).
    pub page_bytes: u64,
    /// DNS + TCP + TLS handshakes and browser parse/render overhead added
    /// to the transfer time.
    pub fixed_overhead: SimDuration,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            page_bytes: 2_100_000,
            fixed_overhead: SimDuration::from_millis(400),
        }
    }
}

/// Result of one page-load attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PageLoad {
    /// Completed in the given time.
    Completed(SimDuration),
    /// Did not finish before the client left the testbed (paper's "∞").
    Incomplete,
}

/// Runs a page-load drive-by at `mph` under `config` and measures the load
/// time.
pub fn measure_page_load(config: SystemConfig, web: &WebConfig, mph: f64, seed: u64) -> PageLoad {
    let mut scenario = Scenario::single_drive(
        config,
        mph,
        vec![FlowSpec::DownlinkTcp {
            limit: Some(web.page_bytes),
        }],
        seed,
    );
    // The passenger opens the page a fifth of the way into the drive, so
    // the load spans AP handovers at every speed.
    let start = scenario.duration * 0.2;
    scenario.flow_start = start;
    let res = run(scenario);
    match res.world.flows[0].completed_at {
        Some(at) => PageLoad::Completed(
            at.saturating_since(wgtt_sim::SimTime::ZERO + start) + web.fixed_overhead,
        ),
        None => PageLoad::Incomplete,
    }
}

/// Mean page-load time over several runs, seconds; infinite if the
/// majority of attempts never complete (the paper's "∞" entries).
pub fn mean_page_load_secs(
    config: &SystemConfig,
    web: &WebConfig,
    mph: f64,
    seeds: std::ops::Range<u64>,
) -> f64 {
    let mut times = Vec::new();
    let mut incomplete = 0usize;
    let total = (seeds.end - seeds.start) as usize;
    for seed in seeds {
        match measure_page_load(config.clone(), web, mph, seed) {
            PageLoad::Completed(d) => times.push(d.as_secs_f64()),
            PageLoad::Incomplete => incomplete += 1,
        }
    }
    if incomplete * 2 >= total {
        f64::INFINITY
    } else {
        wgtt_sim::stats::mean(&times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_core::Mode;

    #[test]
    fn wgtt_loads_the_page_mid_speed() {
        let load = measure_page_load(SystemConfig::default(), &WebConfig::default(), 15.0, 11);
        match load {
            PageLoad::Completed(d) => {
                assert!(
                    d < SimDuration::from_secs(9),
                    "page took {d} at 15 mph under WGTT"
                );
            }
            PageLoad::Incomplete => panic!("WGTT failed to load the page at 15 mph"),
        }
    }

    #[test]
    fn baseline_is_slower_or_fails() {
        let cfg = SystemConfig {
            mode: Mode::Enhanced80211r,
            ..SystemConfig::default()
        };
        let base = mean_page_load_secs(&cfg, &WebConfig::default(), 15.0, 11..15);
        let wgtt = mean_page_load_secs(
            &SystemConfig::default(),
            &WebConfig::default(),
            15.0,
            11..15,
        );
        assert!(base > wgtt * 1.2, "baseline {base} vs wgtt {wgtt}");
    }
}
