//! The accuracy oracle: record in the event loop, evaluate anywhere, reduce
//! in order.
//!
//! Table 2's switching accuracy and the Fig 4/21 capacity-loss integral
//! compare the serving AP against the instantaneous-ESNR best AP once per
//! simulated millisecond per vehicle. That comparison is measurement, not
//! mechanism: it reads the serving AP, the crashed-AP set, the trajectory
//! and the time-deterministic fading, draws no RNG, and writes five
//! [`ClientMetrics`](crate::metrics::ClientMetrics) fields nothing in a run
//! reads back. It is also most of an event loop's wall (DESIGN.md §6b), so
//! it is split three ways:
//!
//! * **record** — `Recorder::record`, called from `Probe::AccuracyTick`,
//!   captures a `Sample`: everything the verdict depends on that the
//!   event loop may change later.
//! * **evaluate** — `evaluate`, the one copy of the ranking scan and the
//!   capacity fold. A pure function of the sample and the link realizations
//!   (the warm-start hint only reorders the scan), so it can run on any
//!   thread, on any clone of the links, at any later time.
//! * **reduce** — `ClientMetrics::add_oracle`, applied strictly in
//!   recording order, so every `f64` sum adds the same terms in the same
//!   order however the evaluations were scheduled.
//!
//! A world that nobody attached to a pool (hand-built `Simulator`s, runs on
//! a host with no spare core) evaluates each sample at its tick. A world
//! inside `with_helpers` batches samples into chunks that scoped helper
//! threads evaluate concurrently with the event loop; the recording thread
//! takes its own oldest chunk back whenever more than
//! `QUEUED_PER_HELPER` per helper are waiting, which bounds memory and
//! balances load, and `Recorder::drain` finishes the rest before a run
//! returns.

use crate::client::ClientState;
use crate::config::SystemConfig;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use wgtt_phy::{Cplx, EsnrMemo, Modulation, Position, WirelessLink};
use wgtt_sim::SimTime;

/// Samples per chunk: ≈3.5 ms of evaluation, long enough to amortize a
/// queue hand-off, short enough that the end-of-run drain stays a few
/// percent of the shortest runs.
const CHUNK: usize = 256;

/// Unstarted chunks per helper beyond which a submitting world evaluates
/// its own oldest one. While it does (and until it next submits) each
/// helper gets through ≈1.4 chunks, so two apiece keep every helper fed;
/// more would only lengthen the end-of-run drain.
const QUEUED_PER_HELPER: usize = 2;

/// Helpers worth having per event-loop thread: the oracle is at most ≈¾ of
/// a loop's work, so a fourth thread per loop would only ever park.
const HELPERS_PER_LOOP: usize = 3;

/// One vehicle at one accuracy tick: the inputs of [`evaluate`] that the
/// event loop goes on to change.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    /// Tick instant.
    pub t: SimTime,
    /// World-local client index.
    pub client: u32,
    /// Serving AP according to the control plane.
    pub serving: Option<u32>,
    /// Vehicle position at `t`.
    pub pos: Position,
    /// Vehicle speed at `t`, m/s.
    pub speed: f64,
}

/// What one sample adds to its client's metrics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Verdict {
    /// Capacity of the best in-range link, bit/s.
    pub best_cap: f64,
    /// Best capacity minus the serving link's, floored at zero, bit/s.
    pub loss: f64,
    /// Whether the client had a serving AP (accuracy counts only then).
    pub has_serving: bool,
    /// Whether the serving AP was the oracle's choice.
    pub optimal: bool,
}

/// The oracle for one sample: instantaneous-ESNR argmax over the APs that
/// are up and in range, then the capacity-loss term against the serving
/// link. `None` when no AP is in range. `down[ap]` is the crashed-AP set at
/// the tick, `link(ap)` the channel between `ap` and the sample's client.
///
/// Memos are kept for the winner and the serving AP so the capacity
/// integral reuses the ranking's 16-QAM integrations, and an AP is skipped
/// as soon as a ceiling on its ESNR sits at or below the incumbent (`e > b`
/// would have been false regardless). Three ceilings, cheapest first: the
/// link's static headroom over its mean SNR, before any fading work; the
/// sum of the tap gains' magnitudes, before the 56-tone response; the best
/// tone — exact, since `esnr_db` clamps to it — before the integration.
/// `gains` is the caller's scratch for the tap gains.
///
/// `warm` is the previous winner for this client: channel coherence makes
/// it the likely incumbent, so visiting it first lets the ceiling prunes
/// discard almost every other AP before any ESNR integration. Visit order
/// cannot change the outcome — the update rule is the exact lexicographic
/// argmax (highest ESNR, lowest AP id on exact ties) that the plain
/// ascending scan computes — so any evaluator may keep its own hint.
pub(crate) fn evaluate<'a>(
    s: &Sample,
    down: &[bool],
    link: impl Fn(usize) -> &'a WirelessLink,
    cfg: &SystemConfig,
    warm: &mut Option<usize>,
    gains: &mut Vec<Cplx>,
) -> Option<Verdict> {
    let serving = s.serving.map(|a| a as usize);
    let mean_snr = |ap: usize| link(ap).mean_snr_db(&s.pos);
    let in_radio_range = |ap: usize| mean_snr(ap) >= cfg.range_floor_db;
    let hint = *warm;
    let mut best: Option<(usize, f64)> = None;
    let mut best_esnr: Option<EsnrMemo> = None;
    let mut serving_esnr: Option<EsnrMemo> = None;
    for ap in hint
        .into_iter()
        .chain((0..down.len()).filter(|&a| Some(a) != hint))
    {
        if down[ap] || !in_radio_range(ap) {
            continue;
        }
        let is_serving = serving == Some(ap);
        // Prunable once even a ceiling on this AP's ESNR cannot
        // win the lexicographic argmax against the incumbent.
        let cannot_beat =
            |bound: f64| best.is_some_and(|(bi, b)| bound < b || (bound == b && ap > bi));
        if !is_serving && cannot_beat(mean_snr(ap) + link(ap).peak_tone_headroom_db()) {
            // Static ceiling: no fading realization lifts a tone
            // past mean + headroom, so skip the whole channel
            // evaluation.
            continue;
        }
        // Tap ceiling: the taps' gains bound every tone they can add up
        // to, so skip the tones when even that cannot win.
        link(ap).tap_gains(s.t, s.speed, gains);
        if !is_serving && cannot_beat(link(ap).gains_ceiling_db(&s.pos, gains)) {
            continue;
        }
        let mut memo = EsnrMemo::new(&link(ap).csi_from_gains(&s.pos, gains));
        if !is_serving && cannot_beat(memo.best_tone_db()) {
            continue;
        }
        let e = memo.esnr_db(Modulation::Qam16);
        let wins = best.map_or(true, |(bi, b)| e > b || (e == b && ap < bi));
        if wins {
            best = Some((ap, e));
        }
        if is_serving {
            // The serving memo doubles as the winner's when the
            // serving AP is the oracle choice.
            serving_esnr = Some(memo);
        } else if wins {
            best_esnr = Some(memo);
        }
    }
    *warm = best.map(|(ap, _)| ap);
    let (oracle, _) = best?;
    // Capacity-loss integral (Figs 4, 21): the best link's
    // instantaneous capacity minus what the serving link offers.
    let gi = cfg.gi;
    let oracle_is_serving = serving == Some(oracle);
    // Invariant: the ranking loop above stores a memo for
    // whichever arm won; `best` being `Some` proves the
    // corresponding memo was kept.
    let mut oracle_esnr = if oracle_is_serving {
        serving_esnr.take()
    } else {
        best_esnr.take()
    }
    .expect("memo kept with best");
    let best_cap = cfg.per_model.capacity_with(&mut oracle_esnr, gi, 1500);
    let serv_cap = match serving {
        Some(ap) if ap == oracle => best_cap,
        // `capacity_bps` is exactly `capacity_with` on a fresh
        // memo of the same CSI snapshot, so reusing the
        // ranking's serving memo is bit-identical; the fallback
        // covers a serving AP that is down or out of range.
        Some(ap) => match serving_esnr.as_mut() {
            Some(sm) => cfg.per_model.capacity_with(sm, gi, 1500),
            None => {
                let csi = link(ap).csi(s.t, &s.pos, s.speed);
                cfg.per_model.capacity_bps(gi, &csi, 1500)
            }
        },
        None => 0.0,
    };
    Some(Verdict {
        best_cap,
        loss: (best_cap - serv_cap).max(0.0),
        has_serving: serving.is_some(),
        optimal: oracle_is_serving,
    })
}

/// A run of consecutive samples of one world, and — once someone has
/// evaluated it — their verdicts.
#[derive(Default)]
struct Chunk {
    /// `(offset of the sample's crashed-AP set in `downs`, sample)`.
    samples: Vec<(u32, Sample)>,
    /// The distinct crashed-AP sets the samples saw, `n_aps` flags each,
    /// back to back (a new one is appended only when the set changed).
    downs: Vec<bool>,
    n_aps: usize,
    verdicts: Vec<Option<Verdict>>,
    done: bool,
}

impl Chunk {
    fn push(&mut self, s: Sample, down: &[bool]) {
        let n = down.len();
        if self.samples.is_empty() {
            self.samples.reserve_exact(CHUNK);
        }
        if self.samples.is_empty() || self.downs[self.downs.len() - n..] != *down {
            self.downs.extend_from_slice(down);
        }
        self.n_aps = n;
        self.samples.push(((self.downs.len() - n) as u32, s));
    }

    fn evaluate(&mut self, mut one: impl FnMut(&Sample, &[bool]) -> Option<Verdict>) {
        let (downs, n) = (&self.downs, self.n_aps);
        self.verdicts = self
            .samples
            .iter()
            .map(|(at, s)| one(s, &downs[*at as usize..][..n]))
            .collect();
        self.done = true;
    }

    fn reduce_into(&self, clients: &mut [ClientState]) {
        for ((_, s), v) in self.samples.iter().zip(&self.verdicts) {
            if let Some(v) = v {
                clients[s.client as usize].metrics.add_oracle(v);
            }
        }
    }
}

/// A chunk as the recording world and the helpers share it. Whoever
/// evaluates it holds the lock for the whole evaluation, so waiting for a
/// chunk is locking it, and an evaluator's panic poisons exactly the chunk
/// its world will wait on.
type Slot = Arc<Mutex<Chunk>>;

fn try_chunk(slot: &Slot) -> Option<MutexGuard<'_, Chunk>> {
    match slot.try_lock() {
        Ok(chunk) => Some(chunk),
        Err(TryLockError::WouldBlock) => None,
        Err(TryLockError::Poisoned(_)) => panic!("an oracle helper panicked"),
    }
}

fn wait_chunk(slot: &Slot) -> MutexGuard<'_, Chunk> {
    slot.lock().expect("an oracle helper panicked")
}

/// What helpers need of one attached world.
struct WorldShare {
    /// Distinguishes worlds within a pool.
    id: usize,
    /// The world's configuration when it was attached.
    cfg: SystemConfig,
    /// Per client, a copy of the world's links to it (`[ap]`) for helpers
    /// to clone from — `WirelessLink` memoizes through `Cell`s, so threads
    /// cannot share one — and how many helpers have come for it.
    links: Mutex<Vec<(usize, Vec<WirelessLink>)>>,
}

/// A submitted chunk nobody has started.
struct Job {
    world: Arc<WorldShare>,
    slot: Slot,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// A run's helper pool: the job queue its helpers park on.
pub(crate) struct Pool {
    helpers: usize,
    queue: Mutex<Queue>,
    wake: Condvar,
    worlds: AtomicUsize,
}

impl Pool {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("oracle job queue poisoned")
    }

    fn helper(&self) {
        // This helper's own link clones and warm-start hints, made the
        // first time it meets a (world, client).
        let mut mine: HashMap<(usize, u32), (Vec<WirelessLink>, Option<usize>)> = HashMap::new();
        let mut gains = Vec::new();
        loop {
            let job = {
                let mut q = self.queue();
                loop {
                    if q.closed {
                        return;
                    }
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    q = self.wake.wait(q).expect("oracle job queue poisoned");
                }
            };
            let mut chunk = wait_chunk(&job.slot);
            if chunk.done {
                continue; // its draining world got to the lock first
            }
            let world = &*job.world;
            chunk.evaluate(|s, down| {
                let (links, warm) = mine.entry((world.id, s.client)).or_insert_with(|| {
                    let mut protos = world.links.lock().expect("oracle link table poisoned");
                    let (taken, proto) = &mut protos[s.client as usize];
                    *taken += 1;
                    // The last helper to come leaves no copy behind.
                    let links = if *taken == self.helpers {
                        std::mem::take(proto)
                    } else {
                        proto.clone()
                    };
                    (links, None)
                });
                evaluate(s, down, |ap| &links[ap], &world.cfg, warm, &mut gains)
            });
        }
    }
}

/// Helper threads alive in this process, and the most there have been.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The most oracle helper threads this process has had alive at once
/// (never above `available_parallelism() − 1`; the fan-out suite checks).
pub fn peak_helper_threads() -> usize {
    PEAK.load(Ordering::SeqCst)
}

/// Helper threads leased from the process-wide budget; returned on drop.
struct Lease(usize);

impl Lease {
    /// As many helpers as a run on `loop_threads` event-loop threads can
    /// use and the host has cores left for, out of a process-wide budget of
    /// `available_parallelism() − 1` so that concurrent runs (the
    /// experiment fan-out) share the spare cores instead of each claiming
    /// them.
    fn take(loop_threads: usize) -> Lease {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let want = cores
            .saturating_sub(loop_threads)
            .min(HELPERS_PER_LOOP * loop_threads);
        let (mut got, mut live_after) = (0, 0);
        let _ = LIVE.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |live| {
            got = want.min((cores - 1).saturating_sub(live));
            live_after = live + got;
            Some(live_after)
        });
        PEAK.fetch_max(live_after, Ordering::SeqCst);
        Lease(got)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        LIVE.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// Runs `body` beside a pool of oracle helpers sized for a run whose event
/// loops occupy `loop_threads` threads; `body` gets `None` when the host
/// has no core to spare, and its worlds then evaluate at tick time.
/// `exactly` overrides the sizing (and the budget) for the helper-count
/// invariance suite. Helpers are scoped: they are joined before this
/// returns, a helper's panic resurfaces here, and a panic in `body` closes
/// the queue on its way out so the join cannot hang.
pub(crate) fn with_helpers<R>(
    loop_threads: usize,
    exactly: Option<usize>,
    body: impl FnOnce(Option<&Arc<Pool>>) -> R,
) -> R {
    let lease = match exactly {
        Some(_) => Lease(0),
        None => Lease::take(loop_threads.max(1)),
    };
    let helpers = exactly.unwrap_or(lease.0);
    if helpers == 0 {
        return body(None);
    }
    let pool = Arc::new(Pool {
        helpers,
        queue: Mutex::default(),
        wake: Condvar::new(),
        worlds: AtomicUsize::new(0),
    });
    struct Close<'a>(&'a Pool);
    impl Drop for Close<'_> {
        fn drop(&mut self) {
            // Reached on unwind too; a poisoned queue is closed all the same.
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.closed = true;
            self.0.wake.notify_all();
        }
    }
    std::thread::scope(|scope| {
        let _close = Close(&pool);
        for _ in 0..helpers {
            scope.spawn(|| pool.helper());
        }
        body(Some(&pool))
    })
}

/// The attached half of a [`Recorder`].
struct Sink {
    pool: Arc<Pool>,
    world: Arc<WorldShare>,
    /// Chunk being filled.
    filling: Chunk,
    /// Submitted chunks not yet reduced, oldest first.
    pending: VecDeque<Slot>,
}

/// A world's end of the oracle: takes samples at accuracy ticks and sees
/// their verdicts into the clients' metrics in recording order.
#[derive(Default)]
pub(crate) struct Recorder {
    /// The recording thread's warm-start hints, dense by client index.
    warm: Vec<Option<usize>>,
    /// The recording thread's tap-gain scratch.
    gains: Vec<Cplx>,
    sink: Option<Sink>,
}

/// The world state a [`Recorder`] evaluates against and reduces into.
pub(crate) struct WorldView<'a> {
    /// `links[ap][client]`.
    pub links: &'a [Vec<WirelessLink>],
    pub cfg: &'a SystemConfig,
    pub clients: &'a mut [ClientState],
}

impl Recorder {
    /// Sends this world's samples to `pool` from now on (until
    /// [`Self::drain`]). `cfg` is snapshotted for the helpers.
    pub fn attach(&mut self, pool: &Arc<Pool>, cfg: &SystemConfig) {
        debug_assert!(self.sink.is_none(), "world attached twice");
        self.sink = Some(Sink {
            pool: Arc::clone(pool),
            world: Arc::new(WorldShare {
                id: pool.worlds.fetch_add(1, Ordering::Relaxed),
                cfg: cfg.clone(),
                links: Mutex::default(),
            }),
            filling: Chunk::default(),
            pending: VecDeque::new(),
        });
    }

    /// Takes one sample. `down` is the crashed-AP set right now.
    pub fn record(&mut self, s: Sample, down: &[bool], view: WorldView<'_>) {
        let c = s.client as usize;
        if self.warm.len() <= c {
            self.warm.resize(c + 1, None);
        }
        let Some(sink) = &mut self.sink else {
            let links = view.links;
            let (warm, gains) = (&mut self.warm[c], &mut self.gains);
            if let Some(v) = evaluate(&s, down, |ap| &links[ap][c], view.cfg, warm, gains) {
                view.clients[c].metrics.add_oracle(&v);
            }
            return;
        };
        sink.filling.push(s, down);
        if sink.filling.samples.len() >= CHUNK {
            let unstarted = sink.submit(view.links);
            let behind = unstarted > QUEUED_PER_HELPER * sink.pool.helpers;
            self.settle(behind, false, view);
        }
    }

    /// Evaluates and reduces everything still outstanding, on this thread
    /// and whatever helpers are free, and detaches from the pool. A no-op
    /// for a world that was never attached.
    pub fn drain(&mut self, view: WorldView<'_>) {
        if let Some(sink) = &mut self.sink {
            if !sink.filling.samples.is_empty() {
                sink.submit(view.links);
            }
            self.settle(true, true, view);
            self.sink = None;
        }
    }

    /// Reduces the finished chunks at the head of `pending`. With `help`,
    /// first takes this world's oldest unstarted chunk back from the pool
    /// and evaluates it here; with `finish`, repeats until nothing is
    /// pending, waiting for the chunks helpers hold.
    fn settle(&mut self, help: bool, finish: bool, view: WorldView<'_>) {
        let Recorder { warm, gains, sink } = self;
        let sink = sink.as_mut().expect("settling a detached recorder");
        let links = view.links;
        loop {
            if help {
                let slot = sink
                    .take_back()
                    .or_else(|| sink.pending.front().filter(|_| finish).cloned());
                if let Some(slot) = slot {
                    let mut chunk = wait_chunk(&slot);
                    // Done already unless it was still unstarted, or a
                    // helper had claimed it and not yet reached the lock.
                    if !chunk.done {
                        chunk.evaluate(|s, down| {
                            let c = s.client as usize;
                            evaluate(s, down, |ap| &links[ap][c], view.cfg, &mut warm[c], gains)
                        });
                    }
                }
            }
            while let Some(front) = sink.pending.front() {
                let Some(chunk) = try_chunk(front).filter(|chunk| chunk.done) else {
                    break;
                };
                chunk.reduce_into(view.clients);
                drop(chunk);
                sink.pending.pop_front();
            }
            if !finish || sink.pending.is_empty() {
                return;
            }
        }
    }
}

impl Sink {
    /// Queues the chunk being filled, first publishing link copies for any
    /// client the helpers have not met. Returns how many chunks the pool
    /// now has waiting.
    fn submit(&mut self, links: &[Vec<WirelessLink>]) -> usize {
        let n_clients = links.first().map_or(0, Vec::len);
        {
            let mut protos = self.world.links.lock().expect("oracle link table poisoned");
            for c in protos.len()..n_clients {
                protos.push((0, links.iter().map(|row| row[c].clone()).collect()));
            }
        }
        let slot: Slot = Arc::new(Mutex::new(std::mem::take(&mut self.filling)));
        self.pending.push_back(Arc::clone(&slot));
        let mut q = self.pool.queue();
        q.jobs.push_back(Job {
            world: Arc::clone(&self.world),
            slot,
        });
        self.pool.wake.notify_one();
        q.jobs.len()
    }

    /// Takes this world's oldest unstarted chunk back out of the pool.
    fn take_back(&self) -> Option<Slot> {
        let mut q = self.pool.queue();
        let at = q
            .jobs
            .iter()
            .position(|job| Arc::ptr_eq(&job.world, &self.world))?;
        q.jobs.remove(at).map(|job| job.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{prime_events, WgttWorld};
    use wgtt_phy::mobility::ConstantSpeed;
    use wgtt_sim::Simulator;

    /// A one-vehicle world driven by hand, as fig23 and the benchmark's
    /// step probe build theirs.
    fn hand_built() -> Simulator<WgttWorld> {
        let cfg = SystemConfig::default();
        let dep = cfg.deployment.build();
        let traj = ConstantSpeed::drive_by(&dep, 25.0, 4.0);
        let world = WgttWorld::new(cfg, vec![Box::new(traj)], 7, SimTime::from_secs(2), false);
        let mut sim = Simulator::new(world);
        prime_events(&mut sim);
        sim
    }

    #[test]
    fn unattached_world_reduces_at_every_tick() {
        let mut sim = hand_built();
        sim.run_until(SimTime::from_millis(300));
        let m = &sim.world().clients[0].metrics;
        // Ticks at 0.5, 1.5, … 299.5 ms, none deferred.
        assert_eq!(m.capacity_samples, 300);
    }

    #[test]
    fn undrained_world_holds_neither_thread_nor_pool() {
        // Dropping an attached world mid-run must not keep the helpers
        // alive: the scope below has to join them and return.
        let mut sim = hand_built();
        with_helpers(1, Some(2), |pool| {
            sim.world_mut()
                .attach_oracle(pool.expect("two helpers asked for"));
            sim.run_until(SimTime::from_secs(1));
            drop(sim);
        });
    }

    #[test]
    #[should_panic(expected = "an oracle helper panicked")]
    fn helper_panic_reaches_the_draining_world() {
        let mut sim = hand_built();
        with_helpers(1, Some(1), |pool| {
            let w = sim.world_mut();
            let mut recorder = Recorder::default();
            recorder.attach(pool.expect("one helper asked for"), &w.cfg);
            let sink = recorder.sink.as_mut().expect("attached");
            // A chunk of samples naming a client the world does not have:
            // the helper indexes past the published links and panics
            // holding the chunk.
            for i in 0..CHUNK {
                sink.filling.push(
                    Sample {
                        t: SimTime::from_millis(i as u64),
                        client: 1,
                        serving: None,
                        pos: Position::new(0.0, 6.0, 1.5),
                        speed: 10.0,
                    },
                    &[false; 8],
                );
            }
            sink.submit(&w.links);
            // Let the helper get there first: until it holds (or has
            // poisoned) the chunk, this thread could evaluate it instead.
            let slot = Arc::clone(sink.pending.front().expect("just submitted"));
            while slot.try_lock().is_ok() {
                std::thread::yield_now();
            }
            recorder.drain(WorldView {
                links: &w.links,
                cfg: &w.cfg,
                clients: &mut w.clients,
            });
        });
    }
}
