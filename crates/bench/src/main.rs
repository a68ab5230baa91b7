//! `wgtt-bench` — replays the paper's evaluation from the
//! [`all_experiments`] registry.
//!
//! ```text
//! wgtt-bench <id>... [--fast]   run the named experiments
//! wgtt-bench all [--fast]       run every experiment in paper order
//! wgtt-bench list               print the experiment ids
//! ```
//!
//! `--fast` is a quick single-seed pass; without it every experiment runs
//! at full fidelity. Each report's JSON lands under `results/`.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use wgtt_bench::{all_experiments, ReportFn};

fn usage_error(msg: &str, experiments: &[(&'static str, ReportFn)]) -> ExitCode {
    eprintln!("wgtt-bench: {msg}");
    eprintln!("usage: wgtt-bench <id>... [--fast] | all [--fast] | list");
    eprintln!("experiment ids:");
    for (id, _) in experiments {
        eprintln!("  {id}");
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let experiments = all_experiments();
    let mut fast = false;
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--fast" => fast = true,
            flag if flag.starts_with('-') => {
                return usage_error(&format!("unknown flag `{flag}`"), &experiments)
            }
            _ => names.push(arg),
        }
    }

    let selected: Vec<(&'static str, ReportFn)> = match names.as_slice() {
        [] => return usage_error("no experiment named", &experiments),
        [only] if only == "list" => {
            for (id, _) in &experiments {
                println!("{id}");
            }
            return ExitCode::SUCCESS;
        }
        [only] if only == "all" => experiments,
        _ => {
            let found: Result<Vec<_>, &String> = names
                .iter()
                .map(|name| {
                    let entry = experiments.iter().find(|(id, _)| id == name);
                    entry.copied().ok_or(name)
                })
                .collect();
            match found {
                Ok(selected) => selected,
                Err(name) => {
                    return usage_error(&format!("unknown experiment `{name}`"), &experiments)
                }
            }
        }
    };

    // One experiment prints its bare report; several are told apart by a
    // banner and a wall-time line each.
    let banners = selected.len() > 1;
    for (id, report) in selected {
        if banners {
            println!("=== {id} ===");
        }
        let t0 = std::time::Instant::now();
        print!("{}", report(fast));
        if banners {
            println!("[{id} took {:.1?}]\n", t0.elapsed());
        }
    }
    ExitCode::SUCCESS
}
