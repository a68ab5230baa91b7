//! Heap and allocation budget: what one (AP, client) pair, a fresh dedup
//! table, a fresh selector, the ESNR tables, a second world's links and
//! four whole runs may ask the allocator for —
//! in bytes live at once and in calls per event — so that a regression of
//! either fails tier-1 and not only the benchmark's `peak_heap_mib` and
//! `sim.engine.allocs_per_event`.
//!
//! The binary has its own counting `#[global_allocator]`, which charges
//! only the thread inside `measured`: whatever another thread of the
//! process (the test harness's own included) allocates meanwhile is not in
//! a figure. The runs use no oracle helper and one lockstep worker, so
//! every allocation of a run is on that thread: the figures are the
//! same on any host, and they are *requested* bytes and *calls*, not
//! resident pages, so they are the same under any system allocator. (They
//! repeat to a few calls and a few KiB, not to the digit: the run's
//! `HashMap`s are seeded per process, and when one of them rehashes
//! depends on the seed.)
//!
//! Each run's budget is 1.25 × what it measured when its figures were last
//! moved, and the budget names what moved them: for the drive and the
//! convoy, 32-byte records in the cyclic-queue slabs, a sequence bitmap per
//! UDP sink and an ident bitmap per source in the dedup table; for the two
//! corridors, an event queue that hands a drained burst's slab back and a
//! migration residue reserved exactly. The figure of the commit before is
//! in the message, as the size of the step back a failure would be.
//! The test prints what each run measured, which `-- --show-output` shows
//! on a pass.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use wgtt::core::config::SystemConfig;
use wgtt::core::cyclic::CyclicQueue;
use wgtt::core::dedup::Deduplicator;
use wgtt::core::runner::{run_with_oracle_helpers, FlowSpec, Scenario};
use wgtt::core::selection::{ApSelector, SelectionConfig};
use wgtt::core::shard::{run_sharded_with_oracle_helpers, ShardedScenario};
use wgtt::phy::{esnr_db, DeploymentConfig, LinkConfig, Modulation, WirelessLink};
use wgtt::sim::{SimDuration, SimRng};

// Relaxed everywhere: statistics that publish no other data.
/// Bytes the charged threads have asked for less what they have freed; it
/// goes below zero when one frees what it was not charged for.
static IN_USE: AtomicIsize = AtomicIsize::new(0);
static HIGH_WATER: AtomicIsize = AtomicIsize::new(0);
/// Calls that ask for memory: `alloc`, `alloc_zeroed`, `realloc`.
static CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocator calls are counted: only while it
    /// runs `measured`. `const`, so reading it never allocates.
    static CHARGED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn charged() -> bool {
    CHARGED.with(Cell::get)
}

fn grew(bytes: usize) {
    if charged() {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let live = IN_USE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        HIGH_WATER.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if charged() {
        IN_USE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
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
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                grew(0); // still a call
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` asked of the allocator on this thread: its result, the most
/// bytes live at once while it ran (the result included) above what was
/// live when it started, and the number of calls.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = IN_USE.load(Ordering::Relaxed);
    HIGH_WATER.store(base, Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);
    CHARGED.with(|c| c.set(true));
    let kept = f();
    CHARGED.with(|c| c.set(false));
    let peak = HIGH_WATER.load(Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    (kept, (peak - base) as usize, calls)
}

const KIB: usize = 1024;

/// One run's budget: `(measured with what `since` names, the commit
/// before)` for peak KiB and for allocator calls per thousand events.
struct Budget {
    what: &'static str,
    since: &'static str,
    peak_kib: (usize, usize),
    calls_per_kev: (usize, usize),
}

/// What set the drive's and the convoy's figures.
const COMPACT: &str = "compact cyclic-queue records, sequence bitmaps and ident maps";
/// What set the corridors' figures.
const REBUILT: &str = "event slabs rebuilt after a burst and residue reserved exactly";

const DRIVE: Budget = Budget {
    what: "15 mph UDP drive",
    since: COMPACT,
    peak_kib: (792, 1_736),
    calls_per_kev: (3, 3),
};
const CONVOY: Budget = Budget {
    what: "three-vehicle TCP-down, UDP-up convoy",
    since: COMPACT,
    peak_kib: (1_168, 2_090),
    calls_per_kev: (35, 35),
};
const RING: Budget = Budget {
    what: "8 × 2 ring corridor",
    since: REBUILT,
    peak_kib: (2_793, 4_257),
    calls_per_kev: (18, 18),
};
const STORM: Budget = Budget {
    what: "2 × 2 ring corridor under a composite storm",
    since: REBUILT,
    peak_kib: (880, 1_225),
    calls_per_kev: (35, 35),
};

impl Budget {
    /// Holds a run to 1.25 × what it measured when the budget was set, and
    /// prints what it measured.
    fn check(&self, peak: usize, calls: usize, events: u64) {
        let Budget {
            what,
            since,
            peak_kib: (kib, kib_before),
            calls_per_kev: (per_kev, per_kev_before),
        } = *self;
        let budget = kib * KIB * 5 / 4;
        assert!(
            peak <= budget,
            "{what}: peak heap {} KiB is over the budget of {} KiB (1.25 × the {kib} KiB measured \
             with {since}; the commit before them: {kib_before} KiB)",
            peak / KIB,
            budget / KIB,
        );
        let got = calls as u64 * 1000 / events;
        let budget = per_kev as u64 * 5 / 4;
        assert!(
            got <= budget,
            "{what}: {got} allocator calls per thousand events ({calls} in {events}) is over the \
             budget of {budget} (1.25 × the {per_kev} measured with {since}; the commit before \
             them: {per_kev_before})",
        );
        println!(
            "{what}: peak heap {} KiB, {got} allocator calls per thousand events ({calls} in {events})",
            peak / KIB
        );
    }
}

#[test]
fn heap_stays_within_budget() {
    // The first ESNR of each modulation builds its BER table, in static
    // memory: no allocator call. (Nothing before this line has asked.)
    for m in Modulation::ALL {
        let (_, _, calls) = measured(|| esnr_db(m, &[3.0; 56]));
        assert_eq!(calls, 0, "building the {m:?} BER table asked the allocator");
    }

    // One idle pair asks for nothing: its position table comes with its
    // first packet. (The dense queue asked for 480 KiB, the table alone
    // for 8 KiB.)
    let (_, _, calls) = measured(CyclicQueue::new);
    assert_eq!(calls, 0, "CyclicQueue::new() reserved memory");

    // A controller that has seen no uplink and a selector that has heard no
    // AP have asked for nothing…
    let (mut dedup, _, calls) = measured(|| Deduplicator::new(16_384));
    assert_eq!(calls, 0, "a fresh dedup table reserved memory");
    let (_, _, calls) = measured(|| ApSelector::new(SelectionConfig::default()));
    assert_eq!(calls, 0, "a fresh selector reserved memory");
    // …and the table that grew to its cap stops there, forgetting its
    // 16 385th-oldest key and nothing newer. One source's keys take one
    // 8 KiB ident map and a ring of 16 384 keys; the map's entry in the
    // list of sources is the rest.
    let (_, grown, _) = measured(|| {
        for key in 0..=16_384 {
            assert!(dedup.check_key(key));
        }
    });
    let figure = 8 * KIB + 16_384 * 8;
    assert!(
        grown <= figure + 256,
        "16 385 keys grew the dedup table by {grown} B at most; one ident map and the ring of \
         keys are {figure} B (the hash set and queue it replaced peaked at 560 KiB)"
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

    // The benchmark's convoy geometry: three vehicles, greedy TCP down and
    // 4 Mb/s UDP up each, so the dedup table and the server's UDP sinks
    // fill as the benchmark's do.
    let (run, peak, calls) = measured(|| run_with_oracle_helpers(common::convoy_drive(), 0));
    CONVOY.check(peak, calls, run.events);
    drop(run);

    // The benchmark's corridor op: 8 shards × 4 APs × 2 vehicles, each
    // vehicle handing over once.
    let mut cfg = SystemConfig::default();
    cfg.deployment.num_aps = 4;
    let ring =
        ShardedScenario::ring_corridor(cfg, 8, 2, 35.0, 5_000_000, SimDuration::from_secs(5), 21);
    let (run, peak, calls) = measured(|| run_sharded_with_oracle_helpers(&ring, 1, 0));
    RING.check(peak, calls, run.events);
    drop(run);

    // The benchmark's storm op: the 2-shard ring under a random composite
    // storm, so the fault paths' heap is gated too.
    let storm = common::fault_storm_corridor(21);
    let (run, peak, calls) = measured(|| run_sharded_with_oracle_helpers(&storm, 1, 0));
    STORM.check(peak, calls, run.events);
    drop(run);

    // Links share one twiddle matrix per tap-delay profile, built by the
    // first link of the profile: a second world's links, of a profile no
    // run above built, ask for less than the first world's by at least the
    // matrix — they build none.
    let mut cfg = LinkConfig::default();
    cfg.fading.rms_delay_spread_ns = 93.0;
    let world_links = || {
        let root = SimRng::new(5);
        let aps = DeploymentConfig::default().build().aps;
        let rng = |a: usize| root.fork_indexed("link", a as u64);
        let links = aps.iter().enumerate();
        links
            .map(|(a, site)| WirelessLink::new(*site, cfg.clone(), &mut rng(a)))
            .collect::<Vec<_>>()
    };
    let (_first, first, _) = measured(world_links);
    let (_second, second, _) = measured(world_links);
    let matrix = 2 * cfg.fading.num_taps * wgtt::phy::NUM_SUBCARRIERS * std::mem::size_of::<f64>();
    assert!(
        second + matrix <= first,
        "a second world's links asked for {second} B against the first's {first} B: they built a \
         {matrix} B twiddle matrix of their own"
    );
}
