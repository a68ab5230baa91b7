//! # wgtt-benchmark — the repo benchmark
//!
//! Four transit workloads, eight end-to-end metrics reported for every
//! workload, 74 per-layer metrics and a traced run. Every number is taken
//! from *outside* the program under test: through `wgtt_core::run`,
//! `run_sharded`, `Simulator::step`, `lockstep::drive` and the layers'
//! public functions. Host time (what the simulator costs) and simulated
//! time (what the modelled WGTT system does) are both first-class and
//! every metric is labelled with the one it uses; the engine is
//! deterministic, so every simulated-time metric and every count repeats
//! bit-exactly for one seed.
//!
//! See `README.md` beside this crate for the workloads, the metric tables
//! and how to read `out/trace.json`.

pub mod alloc;
pub mod compare;
pub mod host;
pub mod kernels;
pub mod layers;
pub mod measure;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
