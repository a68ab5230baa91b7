//! Parallel experiment fan-out: independent `(Scenario, seed)` runs, or
//! sharded corridors, as one round of a [`wgtt_sim::pool`].
//! Each result lands in the slot of its *input* index, so the same job list
//! gives byte-identical aggregate JSON with 1, 2, or 64 workers (locked by
//! `crates/bench/tests/fanout_determinism.rs`). The width defaults to the
//! host's available parallelism; `WGTT_BENCH_THREADS` overrides it (for
//! the determinism tests and for pinning CI measurements).

use wgtt_core::oracle::helper_count;
use wgtt_core::runner::{run_with_oracle_helpers, RunResult, Scenario};
use wgtt_core::shard::{run_sharded_with_oracle_helpers, ShardedRunResult, ShardedScenario};
use wgtt_sim::pool;

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "WGTT_BENCH_THREADS";

/// Worker-pool size for `jobs` independent jobs: `WGTT_BENCH_THREADS` if
/// set (and ≥ 1), otherwise the host's available parallelism, never more
/// than the number of jobs.
pub fn thread_count(jobs: usize) -> usize {
    let n = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(pool::cores);
    n.min(jobs.max(1))
}

/// Fans `items` out across the default worker pool, collecting `f(item,
/// index)` results in input order. A panicking job fails the caller, like
/// the serial loop would.
pub fn map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I, usize) -> O + Sync,
{
    pool::scope(thread_count(items.len()), f, |pool| pool.round(items))
}

/// Runs independent scenarios across the worker pool, results in input
/// order — the common fan-out for seed sweeps and experiment grids. Each
/// of the `W` concurrent runs sizes its oracle helpers for `⌊cores / W⌋`
/// cores, so the fan-out never oversubscribes the host.
pub fn run_scenarios(scenarios: Vec<Scenario>) -> Vec<RunResult> {
    let width = thread_count(scenarios.len());
    let helpers = helper_count(1, pool::cores() / width);
    let run = |s, _| run_with_oracle_helpers(s, helpers);
    pool::scope(width, run, |pool| pool.round(scenarios))
}

/// [`run_scenarios`] for sharded corridors: each of the `W` concurrent
/// runs gets `⌊cores / W⌋` cores (at least one) for its lockstep workers
/// and oracle helpers.
pub fn run_sharded(scenarios: Vec<ShardedScenario>) -> Vec<ShardedRunResult> {
    let width = thread_count(scenarios.len());
    let share = (pool::cores() / width).max(1);
    let run = |s: ShardedScenario, _| {
        let workers = share.min(s.shards);
        run_sharded_with_oracle_helpers(&s, workers, helper_count(workers, share))
    };
    pool::scope(width, run, |pool| pool.round(scenarios))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_respects_env_and_job_cap() {
        // Never more workers than jobs, never zero.
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(1000) >= 1);
    }
}
