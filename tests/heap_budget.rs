//! Heap and allocation budget: what one (AP, client) pair, a fresh dedup
//! table, a fresh selector and two whole runs may ask the allocator for —
//! in bytes live at once and in calls per event — so that a regression of
//! either fails tier-1 and not only the benchmark's `peak_heap_mib` and
//! `sim.engine.allocs_per_event`.
//!
//! The binary has its own counting `#[global_allocator]` and exactly one
//! test, so no other test's thread allocates while a figure is taken. The
//! runs use no oracle helper and one lockstep worker: the figures are the
//! same on any host, and they are *requested* bytes and *calls*, not
//! resident pages, so they are the same under any system allocator. (They
//! repeat to a few calls and a few KiB, not to the digit, even with the
//! test on the process's only thread: the run's `HashMap`s are seeded per
//! process, and when one of them rehashes depends on the seed.)
//!
//! Each budget is 1.25 × what the 80-byte packet and the loaned burst
//! buffers measured when they landed; the figure of the commit before is in
//! the message, as the size of the step back a failure would be.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wgtt::core::config::SystemConfig;
use wgtt::core::cyclic::CyclicQueue;
use wgtt::core::dedup::Deduplicator;
use wgtt::core::runner::{run_with_oracle_helpers, FlowSpec, Scenario};
use wgtt::core::selection::{ApSelector, SelectionConfig};
use wgtt::core::shard::{run_sharded_with_oracle_helpers, ShardedScenario};
use wgtt::sim::SimDuration;

// Relaxed everywhere: statistics that publish no other data.
static IN_USE: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);
/// Calls that ask for memory: `alloc`, `alloc_zeroed`, `realloc`.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = IN_USE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    HIGH_WATER.fetch_max(live, Ordering::Relaxed);
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
        IN_USE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                CALLS.fetch_add(1, Ordering::Relaxed);
                IN_USE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` asked of the allocator: its result, the most bytes live at once
/// while it ran (the result included) above what was live when it started,
/// and the number of calls.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = IN_USE.load(Ordering::Relaxed);
    HIGH_WATER.store(base, Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);
    let kept = f();
    let peak = HIGH_WATER.load(Ordering::Relaxed);
    (kept, peak - base, CALLS.load(Ordering::Relaxed) - calls)
}

const KIB: usize = 1024;

/// One run's budget: `(this PR, the commit before)` for peak KiB and for
/// allocator calls per thousand events.
struct Budget {
    what: &'static str,
    peak_kib: (usize, usize),
    calls_per_kev: (usize, usize),
}

const DRIVE: Budget = Budget {
    what: "15 mph UDP drive",
    peak_kib: (2_042, 3_164),
    calls_per_kev: (13, 702),
};
const RING: Budget = Budget {
    what: "8 × 2 ring corridor",
    peak_kib: (8_667, 14_911),
    calls_per_kev: (49, 1_102),
};

impl Budget {
    /// Holds a run to 1.25 × what it measured when the budget was set.
    fn check(&self, peak: usize, calls: usize, events: u64) {
        let Budget {
            what,
            peak_kib: (kib, kib_before),
            calls_per_kev: (per_kev, per_kev_before),
        } = *self;
        let budget = kib * KIB * 5 / 4;
        assert!(
            peak <= budget,
            "{what}: peak heap {} KiB is over the budget of {} KiB (1.25 × the {kib} KiB measured \
             with the 80-byte packet; the 120-byte packet and the reserved dedup table before \
             it: {kib_before} KiB)",
            peak / KIB,
            budget / KIB,
        );
        let got = calls as u64 * 1000 / events;
        let budget = per_kev as u64 * 5 / 4;
        assert!(
            got <= budget,
            "{what}: {got} allocator calls per thousand events ({calls} in {events}) is over the \
             budget of {budget} (1.25 × the {per_kev} measured with loaned burst buffers and the \
             dense selector; the per-burst and per-tick `Vec`s before them: {per_kev_before})",
        );
    }
}

#[test]
fn heap_stays_within_budget() {
    // One idle pair: the position table and nothing else.
    let (_, pair, _) = measured(CyclicQueue::new);
    assert!(
        pair <= 16 * KIB,
        "CyclicQueue::new() asked for {pair} B; the dense queue asked for 480 KiB"
    );

    // A controller that has seen no uplink and a selector that has heard no
    // AP have asked for nothing…
    let (mut dedup, _, calls) = measured(|| Deduplicator::new(16_384));
    assert_eq!(calls, 0, "a fresh dedup table reserved memory");
    let (_, _, calls) = measured(|| ApSelector::new(SelectionConfig::default()));
    assert_eq!(calls, 0, "a fresh selector reserved memory");
    // …and the table that grew to its cap stops there, forgetting its
    // 16 385th-oldest key and nothing newer.
    let (_, grown, _) = measured(|| {
        for key in 0..=16_384 {
            assert!(dedup.check_key(key));
        }
    });
    assert!(
        grown <= 640 * KIB,
        "16 385 keys grew the dedup table by {grown} B at most; it should peak at 560 KiB, in \
         its last rehash, and settle at the 416 KiB it used to reserve"
    );
    assert_eq!(dedup.len(), 16_384);
    assert!(!dedup.check_key(1), "the oldest key kept was forgotten");
    assert!(dedup.check_key(0), "the key past the cap was kept");

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
    let (run, peak, calls) = measured(|| run_with_oracle_helpers(drive, 0));
    DRIVE.check(peak, calls, run.events);
    drop(run);

    // The benchmark's corridor op: 8 shards × 4 APs × 2 vehicles, each
    // vehicle handing over once.
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let ring =
        ShardedScenario::ring_corridor(cfg, 8, 2, 35.0, 5_000_000, SimDuration::from_secs(5), 21);
    let (run, peak, calls) = measured(|| run_sharded_with_oracle_helpers(&ring, 1, 0));
    RING.check(peak, calls, run.events);
}
