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
//! a host with no spare core) evaluates each sample at its tick. An
//! attached world batches samples into chunks for the background queue of
//! its run's [`wgtt_sim::pool`], whose idle workers evaluate them
//! concurrently with the event loop; the recording thread takes its own
//! oldest chunk back whenever more than `QUEUED_PER_HELPER` per helper are
//! waiting, which bounds memory and balances load, and `Recorder::drain`
//! finishes the rest before a run returns.

use crate::ap::GUARD_INTERVAL;
use crate::client::ClientState;
use crate::config::SystemConfig;
use crate::world::RANGE_FLOOR_DB;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use wgtt_phy::{Cplx, EsnrMemo, Modulation, Position, WirelessLink};
use wgtt_sim::pool::{lock, Jobs};
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
/// event loop goes on to change. Public only for `tests/properties.rs`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Sample {
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
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
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
/// Memos are kept for the winner (inside `best`) and the serving AP so the
/// capacity integral reuses the ranking's 16-QAM integrations, and an AP is
/// skipped as soon as a ceiling on its ESNR sits at or below the incumbent
/// (`e > b` would have been false regardless). Four ceilings, cheapest
/// first: the static headroom over the mean SNR, before any fading work;
/// the reach the link remembers, before any `sincos`; the tap gains' reach,
/// before the 56 tones; the best tone — exact, since `esnr_db` clamps to it
/// — before the integration. `gains` is the caller's tap-gain scratch.
///
/// `warm` is the previous winner for this client: channel coherence makes
/// it the likely incumbent, so visiting it first lets the ceiling prunes
/// discard almost every other AP before any ESNR integration. Visit order
/// cannot change the outcome — the update rule is the exact lexicographic
/// argmax (highest ESNR, lowest AP id on exact ties) that the plain
/// ascending scan computes — so any evaluator may keep its own hint, and
/// whatever its links remember only decides how much work a prune saves.
#[doc(hidden)]
pub fn evaluate<'a>(
    s: &Sample,
    down: &[bool],
    link: impl Fn(usize) -> &'a WirelessLink,
    cfg: &SystemConfig,
    warm: &mut Option<usize>,
    gains: &mut Vec<Cplx>,
) -> Option<Verdict> {
    let serving = s.serving.map(|a| a as usize);
    let mean_snr = |ap: usize| link(ap).mean_snr_db(&s.pos);
    let in_radio_range = |ap: usize| mean_snr(ap) >= RANGE_FLOOR_DB;
    let hint = *warm;
    // `(ap, ESNR, its memo)` of the incumbent.
    let mut best: Option<(usize, f64, EsnrMemo)> = None;
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
        let cannot_beat = |x: f64| {
            !is_serving && matches!(best, Some((bi, b, _)) if x < b || (x == b && ap > bi))
        };
        // Static ceiling: no fading realization lifts a tone past
        // mean + headroom, so skip the whole channel evaluation.
        if cannot_beat(mean_snr(ap) + link(ap).peak_tone_headroom_db()) {
            continue;
        }
        // Remembered reach: the taps cannot have gained more than their
        // rate allows since the link last evaluated them.
        if cannot_beat(link(ap).reach_ceiling_db(s.t, &s.pos, s.speed)) {
            continue;
        }
        // Tap ceiling: the taps' gains bound every tone they can add up
        // to, so skip the tones when even that cannot win.
        let reach = link(ap).tap_gains(s.t, s.speed, gains);
        if cannot_beat(link(ap).gains_ceiling_db(&s.pos, reach)) {
            continue;
        }
        let mut memo = link(ap).memo_from_gains(&s.pos, gains);
        if cannot_beat(memo.best_tone_db()) {
            continue;
        }
        let e = memo.esnr_db(Modulation::Qam16);
        let wins = best
            .as_ref()
            .map_or(true, |&(bi, b, _)| e > b || (e == b && ap < bi));
        if wins {
            // A serving AP that loses the lead keeps its memo for the
            // capacity fold.
            if let Some((prev, _, prev_memo)) = best.replace((ap, e, memo)) {
                if serving == Some(prev) {
                    serving_esnr = Some(prev_memo);
                }
            }
        } else if is_serving {
            serving_esnr = Some(memo);
        }
    }
    *warm = best.as_ref().map(|&(ap, ..)| ap);
    let (oracle, _, mut oracle_esnr) = best?;
    // Capacity-loss integral (Figs 4, 21): the best link's
    // instantaneous capacity minus what the serving link offers.
    let gi = GUARD_INTERVAL;
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
                let mut fresh = link(ap).memo(s.t, &s.pos, s.speed);
                cfg.per_model.capacity_with(&mut fresh, gi, 1500)
            }
        },
        None => 0.0,
    };
    Some(Verdict {
        best_cap,
        loss: (best_cap - serv_cap).max(0.0),
        has_serving: serving.is_some(),
        optimal: serving == Some(oracle),
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

/// Oracle helpers for a run on `loop_threads` event-loop threads that may
/// use `share` of the host's cores: the cores its loops leave, at most
/// `HELPERS_PER_LOOP` per loop. `share` is every core for a run on its
/// own and `⌊cores / W⌋` for each of `W` runs fanned out at once, so the
/// fan-out cannot oversubscribe the host.
pub fn helper_count(loop_threads: usize, share: usize) -> usize {
    share
        .saturating_sub(loop_threads)
        .min(HELPERS_PER_LOOP * loop_threads)
}

/// A chunk as the recording world and the helpers share it. Whoever
/// evaluates it holds the lock for the whole evaluation, so waiting for a
/// chunk is locking it. A helper that panics leaves its chunk poisoned and
/// not `done`: the world evaluates it itself, and the pool's scope resumes
/// the panic.
type Slot = Arc<Mutex<Chunk>>;

/// What a chunk's job is queued under.
fn key(slot: &Slot) -> usize {
    Arc::as_ptr(slot) as usize
}

fn try_chunk(slot: &Slot) -> Option<MutexGuard<'_, Chunk>> {
    match slot.try_lock() {
        Ok(chunk) => Some(chunk),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// What helpers need of one attached world.
struct WorldShare {
    /// The world's configuration when it was attached.
    cfg: SystemConfig,
    /// Per client, a copy of the world's links to it (`[ap]`) for helpers
    /// to clone from — `WirelessLink` memoizes through `Cell`s, so threads
    /// cannot share one — and how many helpers have come for it.
    links: Mutex<Vec<(usize, Vec<WirelessLink>)>>,
    /// Per pool worker, what it keeps of this world.
    helpers: Vec<Mutex<Helper>>,
}

/// One helper's link clones and warm-start hints, by client, made the
/// first time it meets the client; and its tap-gain scratch.
#[derive(Default)]
struct Helper {
    clients: Vec<Option<(Vec<WirelessLink>, Option<usize>)>>,
    gains: Vec<Cplx>,
}

impl WorldShare {
    /// Worker `worker` evaluates the chunk in `slot`.
    fn evaluate(&self, worker: usize, slot: &Slot) {
        let mut chunk = lock(slot);
        if chunk.done {
            return; // its draining world got to the lock first
        }
        let mut helper = lock(&self.helpers[worker]);
        let Helper { clients, gains } = &mut *helper;
        chunk.evaluate(|s, down| {
            let c = s.client as usize;
            if clients.len() <= c {
                clients.resize_with(c + 1, || None);
            }
            let (links, warm) = clients[c].get_or_insert_with(|| {
                let mut protos = lock(&self.links);
                let (taken, proto) = &mut protos[c];
                *taken += 1;
                // The last helper to come leaves no copy behind.
                let links = if *taken == self.helpers.len() {
                    std::mem::take(proto)
                } else {
                    proto.clone()
                };
                (links, None)
            });
            evaluate(s, down, |ap| &links[ap], &self.cfg, warm, gains)
        });
    }
}

/// The attached half of a [`Recorder`].
struct Sink {
    jobs: Jobs,
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
    /// Sends this world's samples to the pool behind `jobs` from now on
    /// (until [`Self::drain`]). `cfg` is snapshotted for the helpers.
    pub fn attach(&mut self, jobs: &Jobs, cfg: &SystemConfig) {
        debug_assert!(self.sink.is_none(), "world attached twice");
        self.sink = Some(Sink {
            jobs: jobs.clone(),
            world: Arc::new(WorldShare {
                cfg: cfg.clone(),
                links: Mutex::default(),
                helpers: (0..jobs.workers()).map(|_| Mutex::default()).collect(),
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
            let behind = unstarted > QUEUED_PER_HELPER * sink.jobs.workers();
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
        let Some(sink) = sink.as_mut() else { return };
        let links = view.links;
        loop {
            if help {
                let slot = sink
                    .take_back()
                    .or_else(|| sink.pending.front().filter(|_| finish).cloned());
                if let Some(slot) = slot {
                    let mut chunk = lock(&slot);
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
            let mut protos = lock(&self.world.links);
            for c in protos.len()..n_clients {
                protos.push((0, links.iter().map(|row| row[c].clone()).collect()));
            }
        }
        let slot: Slot = Arc::new(Mutex::new(std::mem::take(&mut self.filling)));
        self.pending.push_back(Arc::clone(&slot));
        let world = Arc::clone(&self.world);
        self.jobs
            .push(key(&slot), move |worker| world.evaluate(worker, &slot))
    }

    /// Takes this world's oldest unstarted chunk back out of the pool.
    fn take_back(&self) -> Option<Slot> {
        let mut pending = self.pending.iter();
        pending.find(|slot| self.jobs.take(key(slot))).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::one_vehicle;
    use crate::world::WgttWorld;
    use wgtt_sim::{pool, Simulator};

    /// A one-vehicle world driven outside `run` with no helpers attached,
    /// as fig23 and the benchmark's step probe drive theirs.
    fn unattached() -> Simulator<WgttWorld> {
        one_vehicle().build()
    }

    #[test]
    fn unattached_world_reduces_at_every_tick() {
        let mut sim = unattached();
        sim.run_until(SimTime::from_millis(300));
        let m = &sim.world().clients[0].metrics;
        // Ticks at 0.5, 1.5, … 299.5 ms, none deferred.
        assert_eq!(m.capacity_samples, 300);
    }

    #[test]
    fn undrained_world_holds_neither_thread_nor_pool() {
        // Dropping an attached world mid-run must not keep the helpers
        // alive: the scope below has to join them and return.
        let mut sim = unattached();
        pool::scope(
            3,
            |(), _| (),
            |pool| {
                sim.world_mut().attach_oracle(pool.jobs());
                sim.run_until(SimTime::from_secs(1));
                drop(sim);
            },
        );
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn helper_panic_resurfaces_from_the_run_scope() {
        let mut sim = unattached();
        pool::scope(
            2,
            |(), _| (),
            |pool| {
                let w = sim.world_mut();
                let mut recorder = Recorder::default();
                recorder.attach(pool.jobs(), &w.cfg);
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
                let slot = Arc::clone(sink.pending.front().expect("just submitted"));
                while !slot.is_poisoned() {
                    std::thread::yield_now();
                }
                // Left for its world to evaluate; the scope resumes the panic.
                assert!(!lock(&slot).done);
            },
        );
    }

    #[test]
    fn a_lone_run_gets_what_the_host_spares() {
        // cores − loops, at most three per loop.
        assert_eq!(helper_count(1, 1), 0);
        assert_eq!(helper_count(1, 2), 1);
        assert_eq!(helper_count(1, 8), 3);
        assert_eq!(helper_count(2, 2), 0);
        assert_eq!(helper_count(2, 8), 6);
    }
}
