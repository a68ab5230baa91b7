//! One thread pool for the three parallel layers — the experiment fan-out
//! (`wgtt_bench::par`), lockstep epochs ([`crate::lockstep`]) and the
//! accuracy oracle's helpers (`wgtt_core::oracle`). [`scope`] spawns
//! `threads − 1` workers once and the caller is the last. A
//! [`Pool::round`] runs the scope's task on every item and returns the
//! outputs in item order, whatever the width; between rounds (lockstep
//! epochs) the workers park, and idle spawned workers run the background
//! [`Jobs`]. A task's or job's panic is caught where it ran and resumed on
//! the calling thread by its round or the scope once nothing is running;
//! no caller code runs under the pool's own locks.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Result;

/// A background job, told which worker runs it.
type Job = Box<dyn FnOnce(usize) + Send>;

/// A round's unclaimed items, and its outputs as they come in.
type Round<T, U> = (VecDeque<(usize, T)>, Vec<Option<Result<U>>>);

/// The host's available parallelism (1 when unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Locks `m`, poisoned or not: for state no panic can leave half-updated.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `body` beside `threads − 1` spawned workers, `task` being what a
/// round runs per item. The workers are joined before this returns; then
/// the body's panic, or else the first job's, resumes here.
pub fn scope<T: Send, U: Send, R>(
    threads: usize,
    task: impl Fn(T, usize) -> U + Sync,
    body: impl FnOnce(&Pool<'_, T, U>) -> R,
) -> R {
    let workers = threads.max(1) - 1;
    let state = Mutex::new(State {
        workers,
        ..State::default()
    });
    let pool = Pool {
        jobs: Jobs(Arc::new((state, Condvar::new()))),
        task: &task,
        round: Mutex::default(),
    };
    let out = std::thread::scope(|s| {
        for w in 0..workers {
            let pool = &pool;
            s.spawn(move || pool.work(w));
        }
        let out = catch_unwind(AssertUnwindSafe(|| body(&pool)));
        pool.jobs.state().closed = true;
        pool.jobs.wake();
        out
    });
    let failed = pool.jobs.state().panic.take();
    match (out, failed) {
        (Ok(r), None) => r,
        (Err(p), _) | (Ok(_), Some(p)) => resume_unwind(p),
    }
}

/// A scope's pool, lent to its body.
pub struct Pool<'t, T, U> {
    jobs: Jobs,
    task: &'t (dyn Fn(T, usize) -> U + Sync),
    round: Mutex<Round<T, U>>,
}

impl<T: Send, U: Send> Pool<'_, T, U> {
    /// The background queue.
    pub fn jobs(&self) -> &Jobs {
        &self.jobs
    }

    /// Runs the task on every item, this thread taking part; returns the
    /// outputs in item order once all are done, or resumes the panic of
    /// the lowest-indexed task that panicked.
    pub fn round(&self, items: impl IntoIterator<Item = T>) -> Vec<U> {
        {
            let (todo, out) = &mut *lock(&self.round);
            todo.extend(items.into_iter().enumerate());
            out.resize_with(todo.len(), || None);
        }
        self.jobs.wake();
        while let Some(claim) = self.claim() {
            self.run(claim);
        }
        let mut st = self.jobs.state();
        while !self.done() {
            st = self.jobs.wait(st);
        }
        drop(st);
        let out = std::mem::take(&mut lock(&self.round).1);
        let out = out.into_iter().flatten();
        out.map(|r| r.unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    }

    /// Spawned worker `w`: round tasks first, then jobs, until the close.
    fn work(&self, w: usize) {
        let mut st = self.jobs.state();
        while !st.closed {
            if let Some(claim) = self.claim() {
                drop(st);
                self.run(claim);
            } else if let Some((_, job)) = st.queue.pop_front() {
                drop(st);
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| job(w))) {
                    self.jobs.state().panic.get_or_insert(p);
                }
            } else {
                st = self.jobs.wait(st);
                continue;
            }
            st = self.jobs.state();
        }
    }

    fn claim(&self) -> Option<(usize, T)> {
        lock(&self.round).0.pop_front()
    }

    fn run(&self, (i, item): (usize, T)) {
        let out = catch_unwind(AssertUnwindSafe(|| (self.task)(item, i)));
        lock(&self.round).1[i] = Some(out);
        if self.done() {
            self.jobs.wake();
        }
    }

    /// Every task of the round claimed and returned.
    fn done(&self) -> bool {
        let (todo, out) = &*lock(&self.round);
        todo.is_empty() && out.iter().all(Option::is_some)
    }
}

/// The background queue: idle spawned workers run its jobs oldest first,
/// each job told which worker runs it.
#[derive(Clone)]
pub struct Jobs(Arc<(Mutex<State>, Condvar)>);

#[derive(Default)]
struct State {
    queue: VecDeque<(usize, Job)>,
    /// A job's panic, until the scope resumes it.
    panic: Option<Box<dyn Any + Send>>,
    closed: bool,
    workers: usize,
}

impl Jobs {
    /// Spawned workers: the threads that run jobs, as `0..workers()`.
    pub fn workers(&self) -> usize {
        self.state().workers
    }

    /// Queues `job` under `key`; returns how many jobs are now queued.
    pub fn push(&self, key: usize, job: impl FnOnce(usize) + Send + 'static) -> usize {
        let mut st = self.state();
        st.queue.push_back((key, Box::new(job)));
        let queued = st.queue.len();
        drop(st);
        self.wake();
        queued
    }

    /// Takes the oldest job queued under `key` back out, unrun; `false`
    /// when a worker has it already or there is none.
    pub fn take(&self, key: usize) -> bool {
        let mut st = self.state();
        let at = st.queue.iter().position(|(k, _)| *k == key);
        at.and_then(|at| st.queue.remove(at)).is_some()
    }

    fn state(&self) -> MutexGuard<'_, State> {
        lock(&self.0 .0)
    }

    fn wait<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.0 .1.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes every parked thread to look again. Taking the lock first means
    /// none is between its look and its wait.
    fn wake(&self) {
        drop(self.state());
        self.0 .1.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// One round of `f` over `items` on `threads` threads.
    fn map<I: Send, O: Send>(
        threads: usize,
        items: Vec<I>,
        f: impl Fn(I, usize) -> O + Sync,
    ) -> Vec<O> {
        scope(threads, f, |pool| pool.round(items))
    }

    fn message(p: Box<dyn Any + Send>) -> String {
        match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&str>()
                .map_or_else(|_| "?".into(), |s| s.to_string()),
        }
    }

    #[test]
    fn results_are_input_ordered_at_any_width() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = map(threads, items.clone(), |x, _| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_input_position() {
        let items = vec!["a", "b", "c", "d"];
        let got = map(4, items, |s, i| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(4, empty, |x, _| x).is_empty());
        assert_eq!(map(4, vec![7u32], |x, _| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = catch_unwind(|| {
            map(2, vec![0u32, 1, 2, 3], |x, _| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn rounds_reuse_the_parked_workers() {
        let (sum, rounds) = scope(
            3,
            |x: u64, i| x + i as u64,
            |pool| {
                let rounds: Vec<Vec<u64>> = (0..50).map(|r| pool.round(vec![r; 5])).collect();
                (rounds.iter().flatten().sum::<u64>(), rounds)
            },
        );
        assert_eq!(rounds[7], vec![7, 8, 9, 10, 11]);
        assert_eq!(sum, (0..50).map(|r| 5 * r + 10).sum::<u64>());
    }

    #[test]
    fn a_panicking_task_resurfaces_with_its_own_message() {
        for threads in [2, 8] {
            let r = catch_unwind(|| {
                scope(
                    threads,
                    |x: u32, _| {
                        assert!(x != 5, "task {x} failed at {threads} threads");
                        x
                    },
                    |pool| pool.round(0..16),
                )
            });
            let msg = message(r.expect_err("the round must fail"));
            assert_eq!(msg, format!("task 5 failed at {threads} threads"));
            // The pool is gone with its scope; the next one is sound.
            assert_eq!(map(threads, vec![1, 2, 3], |x, i| x * i), vec![0, 2, 6]);
        }
    }

    #[test]
    fn a_panicking_job_resurfaces_from_the_scope() {
        let ran = Arc::new(AtomicBool::new(false));
        let r = catch_unwind(AssertUnwindSafe(|| {
            scope(
                2,
                |(), _| (),
                |pool| {
                    let flag = Arc::clone(&ran);
                    pool.jobs().push(0, move |w| {
                        flag.store(true, Ordering::SeqCst);
                        panic!("job failed on worker {w}");
                    });
                    while !ran.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                },
            )
        }));
        assert_eq!(
            message(r.expect_err("the job panicked")),
            "job failed on worker 0"
        );
    }

    #[test]
    fn a_job_taken_back_never_runs() {
        let ran = Arc::new(AtomicBool::new(false));
        // One thread: no worker exists to take the job first.
        scope(
            1,
            |(), _| (),
            |pool| {
                let flag = Arc::clone(&ran);
                assert_eq!(
                    pool.jobs()
                        .push(9, move |_| flag.store(true, Ordering::SeqCst)),
                    1
                );
                assert!(!pool.jobs().take(8));
                assert!(pool.jobs().take(9));
                assert!(!pool.jobs().take(9));
            },
        );
        assert!(!ran.load(Ordering::SeqCst));
    }
}
