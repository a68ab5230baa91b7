//! Deterministic intra-run parallelism: spatially sharded worlds advancing
//! in time-lockstep epochs.
//!
//! [`crate::engine`] keeps each world single-threaded; `wgtt_bench::par`
//! fans independent *runs* across threads. This module adds the missing
//! middle layer: one run whose world is partitioned into independent
//! shards that advance **in parallel between synchronization points** —
//! the coordinator/lockstep radio-emulation design (each radio
//! neighborhood owns its own event clock; a coordinator only lets a shard
//! run ahead while nothing outside it could affect it).
//!
//! ## Determinism contract
//!
//! Results must be byte-identical at any worker count, including 1:
//!
//! 1. Within an epoch every shard advances *only its own* event queue to
//!    the shared horizon; shards share no mutable state, so the order in
//!    which workers pick shards is invisible.
//! 2. All cross-shard effects are staged and applied by `at_barrier`,
//!    which runs on exactly one thread, between epochs, over shard state
//!    that is already worker-count-independent (point 1). Callers apply
//!    staged messages in a fixed total order — sender shard id, then the
//!    sender's deterministic sequence number.
//! 3. The epoch length must not exceed the minimum cross-shard latency
//!    (the caller derives it; see `wgtt_core::shard`), so deferring a
//!    cross-shard effect to the barrier never delivers it later than the
//!    modeled latency would.
//!
//! The worker pool reuses the `wgtt_bench::par` job-claiming idiom:
//! workers pull the next unclaimed shard index from a shared atomic
//! counter inside a `std::thread::scope` — no external dependencies.

use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One spatial partition of a sharded world: everything it needs to
/// advance its own event queue to a horizon, independently of its peers.
pub trait LockstepShard: Send {
    /// Runs this shard's event loop up to and including `horizon`.
    /// Afterwards the shard's clock reads exactly `horizon`.
    fn advance_to(&mut self, horizon: SimTime);
}

/// Drives `shards` from `start` to `end` in lockstep epochs of length
/// `epoch` on `workers` threads. After every epoch, `at_barrier(shards,
/// horizon)` runs serially to exchange cross-shard state (mailbox
/// application, boundary migration); it also runs once at `end`.
///
/// `workers <= 1` is the serial path, and the only one a single worker
/// ever takes: a plain loop over shards in index order with no threads,
/// locks, or atomics. The caller chooses `workers`; nothing here reads the
/// environment.
pub fn drive<S, F>(
    shards: &mut [S],
    workers: usize,
    start: SimTime,
    end: SimTime,
    epoch: SimDuration,
    mut at_barrier: F,
) where
    S: LockstepShard,
    F: FnMut(&mut [S], SimTime),
{
    assert!(
        epoch > SimDuration::from_micros(0),
        "lockstep epoch must be positive"
    );
    let mut now = start;
    while now < end {
        let horizon = (now + epoch).min(end);
        if workers <= 1 || shards.len() <= 1 {
            for shard in shards.iter_mut() {
                shard.advance_to(horizon);
            }
        } else {
            advance_parallel(shards, workers, horizon);
        }
        at_barrier(shards, horizon);
        now = horizon;
    }
}

/// One epoch's parallel advance: workers claim shard indices from a
/// shared counter and run each claimed shard to the horizon. The scope
/// join is the epoch barrier — no shard of epoch *k+1* can start before
/// every shard finished epoch *k*.
fn advance_parallel<S: LockstepShard>(shards: &mut [S], workers: usize, horizon: SimTime) {
    let n = shards.len();
    let jobs: Vec<Mutex<&mut S>> = shards.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let jobs = &jobs;
        let next = &next;
        for _ in 0..workers.min(n) {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                jobs[i]
                    .lock()
                    .expect("shard slot poisoned")
                    .advance_to(horizon);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy shard: records every horizon it was advanced to, plus an
    /// inbox of barrier-applied values.
    struct Toy {
        horizons: Vec<SimTime>,
        inbox: Vec<u64>,
    }

    impl LockstepShard for Toy {
        fn advance_to(&mut self, horizon: SimTime) {
            self.horizons.push(horizon);
        }
    }

    fn toys(n: usize) -> Vec<Toy> {
        (0..n)
            .map(|_| Toy {
                horizons: Vec::new(),
                inbox: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn horizons_are_identical_at_any_worker_count() {
        let mut reference: Option<Vec<Vec<SimTime>>> = None;
        for workers in [1usize, 2, 4, 8] {
            let mut shards = toys(5);
            drive(
                &mut shards,
                workers,
                SimTime::ZERO,
                SimTime::from_millis(95),
                SimDuration::from_millis(10),
                |_, _| {},
            );
            let got: Vec<Vec<SimTime>> = shards.into_iter().map(|s| s.horizons).collect();
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(want, &got, "workers={workers} diverged"),
            }
        }
        // Final short epoch is clamped to `end`.
        let r = reference.unwrap();
        assert_eq!(r[0].len(), 10);
        assert_eq!(*r[0].last().unwrap(), SimTime::from_millis(95));
    }

    #[test]
    fn barrier_runs_after_every_epoch_and_sees_all_shards() {
        let mut shards = toys(3);
        let mut barrier_times = Vec::new();
        drive(
            &mut shards,
            4,
            SimTime::ZERO,
            SimTime::from_millis(30),
            SimDuration::from_millis(10),
            |shards, h| {
                // Every shard has already reached the horizon.
                for s in shards.iter() {
                    assert_eq!(*s.horizons.last().unwrap(), h);
                }
                barrier_times.push(h);
                // The barrier can mutate shard state (mailbox delivery).
                for s in shards.iter_mut() {
                    s.inbox.push(h.as_micros());
                }
            },
        );
        assert_eq!(
            barrier_times,
            vec![
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                SimTime::from_millis(30),
            ]
        );
        assert_eq!(shards[0].inbox.len(), 3);
    }

    #[test]
    fn zero_length_window_runs_no_epochs() {
        let mut shards = toys(2);
        let mut calls = 0;
        drive(
            &mut shards,
            2,
            SimTime::from_millis(5),
            SimTime::from_millis(5),
            SimDuration::from_millis(1),
            |_, _| calls += 1,
        );
        assert_eq!(calls, 0);
        assert!(shards[0].horizons.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_epoch_panics() {
        let mut shards = toys(1);
        drive(
            &mut shards,
            1,
            SimTime::ZERO,
            SimTime::from_millis(1),
            SimDuration::from_micros(0),
            |_, _| {},
        );
    }
}
