//! Web browsing QoE (paper §5.4, Table 5).
//!
//! The paper times loading the eBay homepage (2.1 MB, cached locally)
//! while the client drives past the array, reporting the time from launch
//! to full render, with "∞" when the page never completes within the
//! transit. We model the page as a fixed-size TCP transfer plus a small
//! fixed browser/handshake overhead and read the completion time off the
//! flow.

use wgtt_core::runner::{FlowSpec, RunResult, Scenario};
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

/// The page-load drive-by at `mph` under `config`. The passenger opens the
/// page a fifth of the way into the drive, so the load spans AP handovers
/// at every speed.
pub fn page_load_scenario(config: SystemConfig, web: &WebConfig, mph: f64, seed: u64) -> Scenario {
    let mut scenario = Scenario::single_drive(
        config,
        mph,
        vec![FlowSpec::DownlinkTcp {
            limit: Some(web.page_bytes),
        }],
        seed,
    );
    scenario.flow_start = scenario.duration * 0.2;
    scenario
}

impl PageLoad {
    /// The load time a run of a [`page_load_scenario`] shows.
    pub fn of(run: &RunResult, web: &WebConfig) -> PageLoad {
        let page = &run.world.flows[0];
        match page.completed_at {
            Some(at) => PageLoad::Completed(at.saturating_since(page.start) + web.fixed_overhead),
            None => PageLoad::Incomplete,
        }
    }
}

/// Mean load time of `loads`, seconds; infinite if the majority never
/// complete (the paper's "∞" entries).
pub fn mean_page_load_secs(loads: &[PageLoad]) -> f64 {
    let times: Vec<f64> = loads
        .iter()
        .filter_map(|load| match load {
            PageLoad::Completed(d) => Some(d.as_secs_f64()),
            PageLoad::Incomplete => None,
        })
        .collect();
    if (loads.len() - times.len()) * 2 >= loads.len() {
        f64::INFINITY
    } else {
        wgtt_sim::stats::mean(&times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_core::{run, Mode};

    fn measure_page_load(config: SystemConfig, web: &WebConfig, mph: f64, seed: u64) -> PageLoad {
        PageLoad::of(&run(page_load_scenario(config, web, mph, seed)), web)
    }

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
        let mean = |cfg: &SystemConfig| {
            let web = WebConfig::default();
            let loads: Vec<PageLoad> = (11..15)
                .map(|seed| measure_page_load(cfg.clone(), &web, 15.0, seed))
                .collect();
            mean_page_load_secs(&loads)
        };
        let base = mean(&cfg);
        let wgtt = mean(&SystemConfig::default());
        assert!(base > wgtt * 1.2, "baseline {base} vs wgtt {wgtt}");
    }
}
