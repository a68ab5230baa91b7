//! # wgtt-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the *Wi-Fi Goes to Town* reproduction: simulated time,
//! a future event list with stable tie-breaking, a deterministic forkable
//! RNG, the event loop itself, and the statistics primitives every
//! experiment shares.
//!
//! Everything above this crate (PHY, MAC, network stack, the WGTT control
//! plane) is written as poll-style state machines driven by a [`World`]
//! implementation; this crate supplies the clockwork.
//!
//! ```
//! use wgtt_sim::{Simulator, World, Ctx, SimTime, SimDuration};
//!
//! struct Counter(u32);
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, _ev: (), ctx: &mut Ctx<'_, ()>) {
//!         self.0 += 1;
//!         if self.0 < 3 {
//!             ctx.schedule_in(SimDuration::from_millis(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(Counter(0));
//! sim.schedule_at(SimTime::ZERO, ());
//! while sim.step() {}
//! assert_eq!(sim.world().0, 3);
//! assert_eq!(sim.now(), SimTime::from_millis(2));
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod lockstep;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod storm;
pub mod time;

pub use engine::{Ctx, EnginePerf, Simulator, World};
pub use fault::{BackhaulFault, BackhaulImpairment, FaultEdge, FaultSchedule};
pub use lockstep::LockstepShard;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
