//! Shared harness plumbing: scenario builders, seed sweeps, table
//! formatting, and result persistence.

use serde::Serialize;
use std::path::PathBuf;
use wgtt_core::config::{Mode, SystemConfig};
use wgtt_core::runner::{FlowSpec, RunResult, Scenario};

/// Default UDP offered load for bulk experiments, bit/s. The paper's iperf
/// streams offer more than the wireless path can carry so the measurement
/// is link-limited.
pub const BULK_UDP_BPS: u64 = 30_000_000;
/// UDP payload size used throughout (1500 B MTU minus headers).
pub const UDP_PAYLOAD: usize = 1472;

/// Where experiment outputs (JSON series) are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("WGTT_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("create results dir");
    path
}

/// Persists a serializable result as pretty JSON under `results/`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, json).expect("write result file");
}

/// Ends the process with `error` on stderr and status 1: how a `report`
/// refuses a scenario that cannot run, in place of a panic backtrace.
pub fn exit_invalid(error: &dyn std::fmt::Display) -> ! {
    eprintln!("wgtt-bench: {error}");
    std::process::exit(1)
}

/// A config for the given mode with everything else default.
pub fn config(mode: Mode) -> SystemConfig {
    SystemConfig {
        mode,
        ..SystemConfig::default()
    }
}

/// Bulk-UDP drive-by scenario.
pub fn udp_drive(mode: Mode, mph: f64, seed: u64) -> Scenario {
    Scenario::single_drive(
        config(mode),
        mph,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: BULK_UDP_BPS,
            payload: UDP_PAYLOAD,
        }],
        seed,
    )
}

/// Greedy-TCP drive-by scenario.
pub fn tcp_drive(mode: Mode, mph: f64, seed: u64) -> Scenario {
    Scenario::single_drive(
        config(mode),
        mph,
        vec![FlowSpec::DownlinkTcp { limit: None }],
        seed,
    )
}

/// Runs the same scenario constructor over several seeds, fanned out
/// across the [`crate::par`] worker pool, returning results in seed order.
pub fn sweep_seeds<F>(seeds: std::ops::Range<u64>, build: F) -> Vec<RunResult>
where
    F: Fn(u64) -> Scenario + Sync,
{
    let scenarios: Vec<Scenario> = seeds.map(&build).collect();
    crate::par::run_scenarios(scenarios)
}

/// Fans a whole experiment grid — `cells` settings × the seed range — out
/// across the worker pool in a single batch, returning one seed-ordered
/// result vector per cell (cell order preserved).
///
/// This beats per-cell [`sweep_seeds`] calls when cells are numerous and
/// seeds are few (every `--fast` run has one seed): the pool sees
/// `cells × seeds` independent jobs instead of `seeds`.
pub fn sweep_grid<F>(cells: usize, seeds: std::ops::Range<u64>, build: F) -> Vec<Vec<RunResult>>
where
    F: Fn(usize, u64) -> Scenario + Sync,
{
    let seeds: Vec<u64> = seeds.collect();
    let jobs: Vec<Scenario> = (0..cells)
        .flat_map(|cell| seeds.iter().map(move |&s| (cell, s)))
        .map(|(cell, s)| build(cell, s))
        .collect();
    let mut results = crate::par::run_scenarios(jobs);
    let mut grid = Vec::with_capacity(cells);
    for _ in 0..cells {
        let rest = results.split_off(seeds.len().min(results.len()));
        grid.push(std::mem::replace(&mut results, rest));
    }
    grid
}

/// Mean of per-run values produced by `f`.
pub fn mean_over<F: Fn(&RunResult) -> f64>(results: &[RunResult], f: F) -> f64 {
    let vals: Vec<f64> = results.iter().map(f).collect();
    wgtt_sim::stats::mean(&vals)
}

/// Renders an aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats Mbit/s with two decimals.
pub fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

/// Number of seeds per data point: `fast` keeps CI/bench runs quick.
pub fn seeds_for(fast: bool, full: u64) -> std::ops::Range<u64> {
    if fast {
        100..101
    } else {
        100..(100 + full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["speed", "wgtt", "base"],
            &[
                vec!["5".into(), "8.71".into(), "3.30".into()],
                vec!["25".into(), "8.00".into(), "1.90".into()],
            ],
        );
        assert!(t.contains("speed"));
        assert!(t.contains("8.71"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn seeds_for_fast_is_single() {
        assert_eq!(seeds_for(true, 5).count(), 1);
        assert_eq!(seeds_for(false, 5).count(), 5);
    }

    #[test]
    fn mbps_format() {
        assert_eq!(mbps(8_710_000.0), "8.71");
    }
}
