//! # wgtt-bench — experiment harnesses
//!
//! One module per table/figure of the paper's evaluation (the
//! per-experiment index lives in DESIGN.md §5), plus the mechanism
//! ablations of DESIGN.md §6. Each module exposes
//!
//! * `run_experiment(...)` returning structured results, and
//! * `report(fast: bool) -> String` which runs it, saves JSON under
//!   `results/`, and renders the paper's table/series as text.
//!
//! The `wgtt-bench` binary runs them by id from [`all_experiments`]
//! (`cargo run -p wgtt-bench --release -- fig13_speed_sweep`, `-- all
//! --fast`, `-- list`). Host-speed and per-layer timing live in the
//! standalone `benchmark/` package (`benchmark/run.sh`).

#![forbid(unsafe_code)]

pub mod ablations;
pub mod chaos;
pub mod common;
pub mod controller_resilience;
pub mod ext_multichannel;
pub mod fig02;
pub mod fig04;
pub mod fig10;
pub mod fig13;
pub mod fig14;
pub mod fig16;
pub mod fig17;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod handoff_scaling;
pub mod par;
pub mod resilience;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

/// An experiment's report function: runs it (fast or full) and renders the
/// paper's rows.
pub type ReportFn = fn(bool) -> String;

/// Every experiment's `(id, report_fn)`, in paper order.
pub fn all_experiments() -> Vec<(&'static str, ReportFn)> {
    vec![
        ("fig02_regime", fig02::report as ReportFn),
        ("fig04_80211r_stall", fig04::report),
        ("table1_switch_time", table1::report),
        ("fig10_heatmap", fig10::report),
        ("fig13_speed_sweep", fig13::report),
        ("fig14_fig15_timeseries", fig14::report),
        ("fig16_bitrate_cdf", fig16::report),
        ("table2_accuracy", table2::report),
        ("fig17_fig18_multiclient", fig17::report),
        ("fig20_patterns", fig20::report),
        ("fig21_window", fig21::report),
        ("table3_ack_collisions", table3::report),
        ("fig22_hysteresis", fig22::report),
        ("fig23_density", fig23::report),
        ("table4_video", table4::report),
        ("fig24_conferencing", fig24::report),
        ("table5_web", table5::report),
        ("ablations", ablations::report),
        ("ext_multichannel", ext_multichannel::report),
        ("resilience", resilience::report),
        ("controller_resilience", controller_resilience::report),
        ("chaos", chaos::report),
        ("scaling", scaling::report),
        ("handoff_scaling", handoff_scaling::report),
    ]
}
