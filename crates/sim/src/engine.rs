//! The discrete-event simulation loop.
//!
//! A [`World`] is the complete mutable state of an experiment (APs,
//! controller, clients, channel, medium, flows). The engine pops the
//! earliest event from the future event list, advances the clock, and hands
//! the event to the world together with a [`Ctx`] through which the world
//! schedules follow-up events. Nothing is cancelled: a timer's handler
//! checks whether it still matters when it fires.
//!
//! The loop is intentionally synchronous and single-threaded: the simulated
//! system is closed (no real I/O), so determinism and debuggability dominate
//! any concurrency concern. Parallelism lives one level up, where experiment
//! harnesses fan independent *runs* out across threads.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// Engine-level performance counters: how much simulated work was done and
/// how long the host took to do it. Wall-clock never feeds back into the
/// simulation — results stay bit-identical whatever the host speed — it is
/// only read out afterwards by experiment harnesses and the benchmark
/// (`sim.engine.events_per_s`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EnginePerf {
    /// Events processed so far.
    pub events: u64,
    /// Host wall-clock time spent inside [`Simulator::run_until`] loops.
    pub wall: Duration,
}

/// The mutable state of a simulation plus its event-handling logic.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at the context's current time. New events are
    /// scheduled through `ctx`.
    fn handle(&mut self, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);
}

/// Scheduling context passed to [`World::handle`].
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Ctx<'a, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Panics if `at` is in the past; events in the present (`at == now`)
    /// are allowed and run after all earlier-scheduled events for this
    /// instant.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.queue.push(at, event)
    }

    /// Schedules `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event)
    }
}

/// Drives a [`World`] through simulated time.
pub struct Simulator<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed: u64,
    wall: Duration,
}

impl<W: World> Simulator<W> {
    /// Creates a simulator around an initial world state.
    pub fn new(world: W) -> Self {
        Simulator {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            wall: Duration::ZERO,
        }
    }

    /// Performance counters accumulated so far (events processed, host
    /// wall-clock spent in the run loops).
    pub fn perf(&self) -> EnginePerf {
        EnginePerf {
            events: self.processed,
            wall: self.wall,
        }
    }

    /// Current simulated time (time of the most recently processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for seeding state between phases and
    /// extracting metrics afterwards).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulator, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event from outside the event loop (experiment setup).
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event)
    }

    /// Processes a single event. Returns `false` when the event list is
    /// empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((t, ev)) => {
                debug_assert!(t >= self.now, "event list went backwards");
                self.now = t;
                let mut ctx = Ctx {
                    now: t,
                    queue: &mut self.queue,
                };
                self.world.handle(ev, &mut ctx);
                self.processed += 1;
                true
            }
            None => false,
        }
    }

    /// Runs until the event list is exhausted or `end` is reached. Events
    /// scheduled exactly at `end` are processed; later ones are left queued.
    /// Afterwards the clock reads `end` (or the last event time if the list
    /// drained first).
    pub fn run_until(&mut self, end: SimTime) {
        let t0 = Instant::now();
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= end => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < end {
            self.now = end;
        }
        self.wall += t0.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world: a counter that reschedules itself a fixed number of
    /// times, plus a one-shot.
    struct Toy {
        ticks: Vec<SimTime>,
        remaining: u32,
        period: SimDuration,
        fired_oneshot: bool,
    }

    enum ToyEvent {
        Tick,
        OneShot,
    }

    impl World for Toy {
        type Event = ToyEvent;
        fn handle(&mut self, event: ToyEvent, ctx: &mut Ctx<'_, ToyEvent>) {
            match event {
                ToyEvent::Tick => {
                    self.ticks.push(ctx.now());
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        ctx.schedule_in(self.period, ToyEvent::Tick);
                    }
                }
                ToyEvent::OneShot => self.fired_oneshot = true,
            }
        }
    }

    fn toy() -> Toy {
        Toy {
            ticks: Vec::new(),
            remaining: 0,
            period: SimDuration::from_millis(10),
            fired_oneshot: false,
        }
    }

    /// Steps until the event list is empty.
    fn drain(sim: &mut Simulator<Toy>) {
        while sim.step() {}
    }

    #[test]
    fn periodic_self_rescheduling() {
        let mut world = toy();
        world.remaining = 4;
        let mut sim = Simulator::new(world);
        sim.schedule_at(SimTime::from_millis(0), ToyEvent::Tick);
        drain(&mut sim);
        assert_eq!(
            sim.world().ticks,
            vec![
                SimTime::from_millis(0),
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                SimTime::from_millis(30),
                SimTime::from_millis(40),
            ]
        );
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn run_until_is_inclusive_and_advances_clock() {
        let mut world = toy();
        world.remaining = 100;
        let mut sim = Simulator::new(world);
        sim.schedule_at(SimTime::from_millis(0), ToyEvent::Tick);
        sim.run_until(SimTime::from_millis(25));
        // Ticks at 0, 10, 20 processed; 30 still queued.
        assert_eq!(sim.world().ticks.len(), 3);
        assert_eq!(sim.now(), SimTime::from_millis(25));
        sim.run_until(SimTime::from_millis(30));
        assert_eq!(sim.world().ticks.len(), 4);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn oneshot_fires_at_its_time() {
        let mut sim = Simulator::new(toy());
        sim.schedule_at(SimTime::from_millis(50), ToyEvent::OneShot);
        drain(&mut sim);
        assert!(sim.world().fired_oneshot);
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    fn step_returns_false_when_drained() {
        let mut sim = Simulator::new(toy());
        assert!(!sim.step());
        sim.schedule_at(SimTime::from_millis(1), ToyEvent::OneShot);
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    fn perf_counters_track_run_loops() {
        let mut world = toy();
        world.remaining = 50;
        let mut sim = Simulator::new(world);
        assert_eq!(sim.perf().events, 0);
        assert_eq!(sim.perf().wall, std::time::Duration::ZERO);
        sim.schedule_at(SimTime::from_millis(0), ToyEvent::Tick);
        sim.run_until(SimTime::from_millis(200));
        let mid = sim.perf();
        assert_eq!(mid.events, 21);
        sim.run_until(SimTime::from_secs(1));
        let done = sim.perf();
        assert_eq!(done.events, 51);
        // Wall-clock accumulates across run loops.
        assert!(done.wall >= mid.wall);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new(toy());
        sim.schedule_at(SimTime::from_millis(5), ToyEvent::OneShot);
        drain(&mut sim);
        // now == 5ms; scheduling at 1ms must panic.
        sim.schedule_at(SimTime::from_millis(1), ToyEvent::OneShot);
    }
}
