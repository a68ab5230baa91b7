//! Shared harness plumbing: scenario builders, the one grid fan-out, the
//! one table renderer, and result persistence.

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

/// WGTT and its baseline, in the order every comparison lists them.
pub const MODES: [Mode; 2] = [Mode::Wgtt, Mode::Enhanced80211r];

/// A system's name as result files and tables spell it.
pub fn system_name(mode: Mode) -> String {
    match mode {
        Mode::Wgtt => "WGTT".into(),
        Mode::Enhanced80211r => "Enhanced 802.11r".into(),
    }
}

/// [`tcp_drive`] or [`udp_drive`].
pub fn drive(mode: Mode, tcp: bool, mph: f64, seed: u64) -> Scenario {
    if tcp {
        tcp_drive(mode, mph, seed)
    } else {
        udp_drive(mode, mph, seed)
    }
}

/// Runs `build(cell, seed)` for every cell and every seed across the
/// [`crate::par`] worker pool in one batch — `cells × seeds` independent
/// jobs, so a `--fast` grid (one seed) still fans out — and hands each cell
/// back beside its seed-ordered results, in cell order.
pub fn sweep_grid<C, F>(
    cells: Vec<C>,
    seeds: std::ops::Range<u64>,
    build: F,
) -> Vec<(C, Vec<RunResult>)>
where
    F: Fn(&C, u64) -> Scenario,
{
    let jobs: Vec<Scenario> = cells
        .iter()
        .flat_map(|cell| seeds.clone().map(|seed| build(cell, seed)))
        .collect();
    let mut results = crate::par::run_scenarios(jobs).into_iter();
    let per_cell = seeds.count();
    cells
        .into_iter()
        .map(|cell| (cell, results.by_ref().take(per_cell).collect()))
        .collect()
}

/// Mean of per-run values produced by `f`.
pub fn mean_over<F: Fn(&RunResult) -> f64>(results: &[RunResult], f: F) -> f64 {
    let vals: Vec<f64> = results.iter().map(f).collect();
    wgtt_sim::stats::mean(&vals)
}

/// One column of a rendered table: its header and how a row fills its
/// cell. An experiment lists its columns once, beside its row type.
pub type Column<'h, R> = (&'h str, fn(&R) -> String);

/// Renders `rows` under `columns` as an aligned text table: every column
/// as wide as its widest cell, cells right-aligned and two spaces apart,
/// the header underlined.
pub fn render_table<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| columns.iter().map(|(_, cell)| cell(row)).collect())
        .collect();
    let widths: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, (header, _))| {
            cells
                .iter()
                .fold(header.len(), |w, row| w.max(row[i].len()))
        })
        .collect();
    let line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let mut out = line(columns.iter().map(|(header, _)| *header).collect());
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in &cells {
        out.push_str(&line(row.iter().map(String::as_str).collect()));
    }
    out
}

/// How every tabular experiment ends: saves `json` as
/// `results/{id}.json`, then renders `title` over `rows` under `columns`.
pub fn publish<J: Serialize, R>(
    id: &str,
    json: &J,
    title: &str,
    columns: &[Column<R>],
    rows: &[R],
) -> String {
    save_json(id, json);
    format!("{title}\n{}", render_table(columns, rows))
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
        let columns: [Column<(u32, f64, f64)>; 3] = [
            ("speed", |r| r.0.to_string()),
            ("wgtt", |r| format!("{:.2}", r.1)),
            ("base", |r| format!("{:.2}", r.2)),
        ];
        let t = render_table(&columns, &[(5, 8.71, 3.30), (25, 8.0, 1.9)]);
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
}
