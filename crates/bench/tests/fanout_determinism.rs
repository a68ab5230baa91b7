//! Fan-out determinism: the worker pool must be invisible in the results.
//!
//! Two contracts, both load-bearing for the perf work:
//!
//! 1. **Width-independence** — the same job list produces byte-identical
//!    run digests through 1, 2, and 8 workers. Results are
//!    collected by *input* index, so scheduling can never reorder them.
//! 2. **Serial equivalence** — a no-fault run fanned out through the pool
//!    is bit-identical (down to the f64 bits of goodput) to calling the
//!    serial engine directly.
//!
//! Like the chaos/failover suites, the digests double as CI probes:
//! with `WGTT_DETERMINISM_OUT` set they are written as JSON so the
//! `determinism` job can diff two separate processes byte-for-byte.

use wgtt_bench::common::udp_drive;
use wgtt_bench::par;
use wgtt_core::config::Mode;
use wgtt_core::digest::assert_same;
use wgtt_core::oracle::helper_count;
use wgtt_core::runner::{run, RunResult, Scenario};
use wgtt_sim::pool;

/// Writes a determinism probe for the CI job when it asked for one.
fn emit_probe(name: &str, payload: &str) {
    if let Ok(dir) = std::env::var("WGTT_DETERMINISM_OUT") {
        std::fs::create_dir_all(&dir).expect("create determinism out dir");
        std::fs::write(format!("{dir}/{name}.json"), payload).expect("write determinism probe");
    }
}

fn jobs() -> Vec<Scenario> {
    let mut v = Vec::new();
    for mph in [25.0, 35.0] {
        for seed in [100, 101] {
            v.push(udp_drive(Mode::Wgtt, mph, seed));
        }
    }
    v
}

#[test]
fn pool_width_never_changes_results() {
    let mut payloads: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let results = pool::scope(threads, |s, _| run(s), |pool| pool.round(jobs()));
        let prints: Vec<String> = results.iter().map(RunResult::fingerprint).collect();
        payloads.push(format!("[{}]", prints.join(",")));
    }
    assert_same("2-worker fan-out vs serial", &payloads[1], &payloads[0]);
    assert_same("8-worker fan-out vs serial", &payloads[2], &payloads[0]);
    emit_probe("fanout_fingerprint", &payloads[0]);
}

#[test]
fn oracle_helper_sizing_fits_the_host() {
    for cores in [1usize, 2, 4, 8, 64] {
        // A run on its own gets what the process-wide lease it replaced
        // granted a lone run: the cores its loops leave, at most three
        // per loop.
        for loops in 1..=cores {
            let lease = cores.saturating_sub(loops).min(3 * loops).min(cores - 1);
            let got = helper_count(loops, cores);
            assert_eq!(got, lease, "{loops} loop threads on {cores} cores");
        }
        // `par::run_scenarios`: W concurrent runs, each sized for
        // ⌊cores / W⌋, never claim more threads than the host has.
        for width in 1..=cores {
            let threads = 1 + helper_count(1, cores / width);
            assert!(
                width * threads <= cores,
                "{width} runs × {threads} threads on {cores} cores"
            );
        }
    }
}

#[test]
fn fanned_out_run_matches_serial_engine() {
    // One no-fault scenario through the pool vs the serial engine directly:
    // the fan-out layer must add nothing, change nothing.
    let scenario = udp_drive(Mode::Wgtt, 25.0, 42);
    let direct = run(scenario.clone());
    let pooled = par::run_scenarios(vec![scenario]);
    assert_eq!(pooled.len(), 1);
    let pooled = pooled[0].fingerprint();
    assert_same("fan-out vs a direct run", &pooled, &direct.fingerprint());
    emit_probe("fanout_serial_equivalence", &pooled);
}

#[test]
fn thread_env_override_is_respected_and_deterministic() {
    // WGTT_BENCH_THREADS pins the default pool; results must be identical
    // to an explicit width. (Env var set only within this test; tests in
    // this binary that touch the pool use explicit widths, so a racing
    // reader could at worst see an equivalent configuration.)
    std::env::set_var(par::THREADS_ENV, "2");
    let via_env = par::map(vec![1u64, 2, 3, 4, 5], |x, i| x * 10 + i as u64);
    std::env::remove_var(par::THREADS_ENV);
    let f = |x: u64, i| x * 10 + i as u64;
    let explicit = pool::scope(2, f, |pool| pool.round(vec![1u64, 2, 3, 4, 5]));
    assert_eq!(via_env, explicit);
}
