//! Heap budget: what one (AP, client) pair and two whole runs may ask the
//! allocator for, so that a regression of per-pair footprint fails tier-1
//! and not only the benchmark's `peak_heap_mib`.
//!
//! The binary has its own counting `#[global_allocator]` and exactly one
//! test, so no other test's thread allocates while a figure is taken. The
//! runs use no oracle helper and one lockstep worker: the figures are the
//! same on any host, and they are *requested* bytes, not resident ones, so
//! they are the same under any system allocator.
//!
//! Each budget is 1.25 × what the sparse cyclic queue measured when it
//! landed; the dense queue's figure is in the message, as the size of the
//! step back a failure would be.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wgtt::core::config::SystemConfig;
use wgtt::core::cyclic::CyclicQueue;
use wgtt::core::runner::{run_with_oracle_helpers, FlowSpec, Scenario};
use wgtt::core::shard::{run_sharded_with_oracle_helpers, ShardedScenario};
use wgtt::sim::SimDuration;

// Relaxed everywhere: statistics that publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters never touch the
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, which
        // means it came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Most bytes live at once while `f` ran (its result included), above what
/// was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let kept = f();
    let peak = PEAK.load(Ordering::Relaxed);
    drop(kept);
    peak - base
}

const KIB: usize = 1024;
/// `(sparse, dense)` peak of the 15 mph drive, KiB.
const DRIVE_KIB: (usize, usize) = (3_164, 5_507);
/// `(sparse, dense)` peak of the ring corridor, KiB.
const RING_KIB: (usize, usize) = (14_911, 42_587);

fn assert_within(what: &str, got: usize, measured_kib: usize, dense_kib: usize) {
    let budget = measured_kib * KIB * 5 / 4;
    assert!(
        got <= budget,
        "{what}: peak heap {} KiB is over the budget of {} KiB (1.25 × the {measured_kib} KiB \
         the sparse cyclic queue measured; the dense queue it replaced: {dense_kib} KiB)",
        got / KIB,
        budget / KIB,
    );
}

#[test]
fn heap_stays_within_budget() {
    // One idle pair: the position table and nothing else.
    let pair = peak_of(CyclicQueue::new);
    assert!(
        pair <= 16 * KIB,
        "CyclicQueue::new() asked for {pair} B; the dense queue asked for 480 KiB"
    );

    // The paper's headline drive: eight APs, one client, 30 Mb/s down, so
    // every non-serving AP's queue fills within a second.
    let drive = Scenario::single_drive(
        SystemConfig::default(),
        15.0,
        vec![FlowSpec::DownlinkUdp {
            rate_bps: 30_000_000,
            payload: 1472,
        }],
        21,
    );
    let got = peak_of(|| run_with_oracle_helpers(drive, 0));
    assert_within("15 mph UDP drive", got, DRIVE_KIB.0, DRIVE_KIB.1);

    // The benchmark's corridor op: 8 shards × 4 APs × 2 vehicles, each
    // vehicle handing over once.
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let ring =
        ShardedScenario::ring_corridor(cfg, 8, 2, 35.0, 5_000_000, SimDuration::from_secs(5), 21);
    let got = peak_of(|| run_sharded_with_oracle_helpers(&ring, 1, 0));
    assert_within("8 × 2 ring corridor", got, RING_KIB.0, RING_KIB.1);
}
