//! The future event list.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by
//! time, with a monotonically increasing sequence number breaking ties so
//! that events scheduled for the same instant pop in FIFO (insertion) order.
//! Deterministic tie-breaking is essential: the WGTT controller and APs
//! frequently schedule several actions for the same nanosecond (e.g. a
//! control packet arrival and a queue service completion), and run-to-run
//! reproducibility of every experiment depends on a stable order.
//!
//! Two implementations share the `EventQueue` front:
//!
//! * [`CalendarQueue`] — the default hot path. A calendar/bucket queue:
//!   events live in an index-addressed slab (free-list reuse, no steady
//!   state allocation), and 16-byte references to them hash into a ring of
//!   time buckets (64 µs wide, ~67 ms horizon) with a spill heap for
//!   far-future timers. Cancellation is O(1) — the slab slot is freed and
//!   its generation bumped immediately, so a cancelled 30 ms `stop`
//!   retransmission timer releases its event right away instead of
//!   lingering until it would have fired.
//! * [`LegacyEventQueue`] — the original `BinaryHeap` + tombstone design,
//!   retained as the bit-exactness reference path
//!   ([`EventQueue::new_reference`]). Its historical leak — `cancel` only
//!   removed the sequence number from the pending set, leaving the heap
//!   entry (and the event payload) alive until it surfaced, so
//!   cancel-heavy workloads grew the heap without bound — is fixed by
//!   amortized compaction: when tombstones outnumber live entries the heap
//!   is rebuilt from the live entries only.
//!
//! Both implementations pop in exactly the same `(time, seq)` order, which
//! `reference_and_calendar_agree_under_churn` locks down and the
//! engine-level fingerprint tests re-verify end to end.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Identifies a scheduled event so it can later be cancelled. Opaque: only
/// meaningful to the queue that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

// ---------------------------------------------------------------------------
// Legacy reference implementation: BinaryHeap + tombstones.
// ---------------------------------------------------------------------------

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Minimum backing size before cancel-triggered compaction kicks in — keeps
/// tiny queues from rebuilding constantly.
const COMPACT_FLOOR: usize = 64;

/// The original time-ordered future event list: a `BinaryHeap` with
/// tombstone-based cancellation, kept as the reference path the calendar
/// queue is checked against.
pub struct LegacyEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers of events currently live in the heap (pushed, not
    /// yet popped or cancelled). Cancellation removes from this set and the
    /// heap entry is dropped lazily when it surfaces or at compaction.
    pending: HashSet<u64>,
    next_seq: u64,
}

impl<E> Default for LegacyEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LegacyEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        LegacyEventQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.pending.insert(seq);
        EventKey(seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. had not already popped or been cancelled).
    ///
    /// When tombstoned entries come to outnumber live ones the heap is
    /// rebuilt from the live entries, bounding memory under push/cancel
    /// churn (the long-run disarm-heavy workloads that used to leak).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let cancelled = self.pending.remove(&key.0);
        if cancelled && self.heap.len() >= COMPACT_FLOOR && self.heap.len() > 2 * self.pending.len()
        {
            self.compact();
        }
        cancelled
    }

    /// Drops every tombstoned entry by rebuilding the heap from live ones.
    fn compact(&mut self) {
        let pending = &self.pending;
        self.heap = std::mem::take(&mut self.heap)
            .into_iter()
            .filter(|e| pending.contains(&e.seq))
            .collect();
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        self.heap.pop().map(|e| {
            self.pending.remove(&e.seq);
            (e.time, e.event)
        })
    }

    fn skip_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.pending.contains(&top.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Number of live events still pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Entries physically held by the backing heap, live *and* tombstoned —
    /// diagnostics for the compaction bound.
    pub fn backing_len(&self) -> usize {
        self.heap.len()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pending.clear();
    }
}

// ---------------------------------------------------------------------------
// Calendar/bucket queue: the allocation-free hot path.
// ---------------------------------------------------------------------------

/// log2 of the bucket width in nanoseconds: 2^16 ns = 65.536 µs, a few
/// 802.11 slot times — fine enough that a bucket rarely holds more than a
/// handful of events, coarse enough that the ring spans the protocol's
/// 30 ms timers.
const BUCKET_BITS: u32 = 16;
/// Ring size (power of two): 1024 buckets × 65.536 µs ≈ 67 ms horizon.
/// Events beyond the horizon wait in the spill heap.
const NUM_BUCKETS: u64 = 1024;

/// A slab slot. `gen` increments every time the slot is freed, so stale
/// references (from cancelled or superseded entries still sitting in a
/// bucket) can be recognized and skipped.
struct Slot<E> {
    gen: u32,
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

/// Sort key embedding `(time, seq)` — totally ordered, unique per entry.
#[inline]
fn sort_key(time: SimTime, seq: u64) -> u128 {
    ((time.as_nanos() as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// Packed slab reference: slot index in the high half, generation in the
/// low half.
#[inline]
fn pack_ref(slot: u32, gen: u32) -> u64 {
    ((slot as u64) << 32) | gen as u64
}

/// A `(sort key, slab reference)` pair as stored in buckets, the drain list
/// and the spill heap. Ordering is by key alone (keys are unique).
type Ref = (u128, u64);

/// Calendar/bucket future event list — see the module docs. Pops in exactly
/// the legacy `(time, seq)` order.
pub struct CalendarQueue<E> {
    slots: Vec<Slot<E>>,
    /// Free slab slots available for reuse.
    free: Vec<u32>,
    /// Ring of buckets; bucket `b` (absolute index `time >> BUCKET_BITS`)
    /// lives at `ring[b % NUM_BUCKETS]`. Holds only buckets within the
    /// horizon `[cursor, cursor + NUM_BUCKETS)`, so each ring cell maps to
    /// a single absolute bucket at any moment.
    ring: Vec<Vec<Ref>>,
    /// References (live or stale) currently in the ring.
    ring_count: usize,
    /// Spill heap for events beyond the ring horizon, min-ordered by key.
    spill: BinaryHeap<std::cmp::Reverse<Ref>>,
    /// Sorted drain list of the bucket the cursor points at.
    cur: Vec<Ref>,
    /// Drain position within `cur`.
    cur_pos: usize,
    /// Absolute bucket index currently being drained.
    cursor: u64,
    /// Live events.
    len: usize,
    next_seq: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            slots: Vec::new(),
            free: Vec::new(),
            ring: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            ring_count: 0,
            spill: BinaryHeap::new(),
            cur: Vec::new(),
            cur_pos: 0,
            cursor: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.time = time;
                sl.seq = seq;
                sl.event = Some(event);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    time,
                    seq,
                    event: Some(event),
                });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        let r: Ref = (sort_key(time, seq), pack_ref(slot, gen));
        self.len += 1;

        let bucket = time.as_nanos() >> BUCKET_BITS;
        if bucket <= self.cursor {
            // Present bucket (or, defensively, earlier): insert into the
            // undrained tail of the current drain list, keeping it sorted.
            let ins = self.cur[self.cur_pos..].partition_point(|&(k, _)| k < r.0);
            self.cur.insert(self.cur_pos + ins, r);
        } else if bucket < self.cursor + NUM_BUCKETS {
            self.ring[(bucket % NUM_BUCKETS) as usize].push(r);
            self.ring_count += 1;
        } else {
            self.spill.push(std::cmp::Reverse(r));
        }
        EventKey(r.1)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending. O(1): the slab slot is freed (and the event
    /// dropped) immediately; the bucket reference goes stale and is skipped
    /// when its bucket drains.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let slot = (key.0 >> 32) as usize;
        let gen = key.0 as u32;
        match self.slots.get_mut(slot) {
            Some(sl) if sl.gen == gen && sl.event.is_some() => {
                sl.event = None;
                sl.gen = sl.gen.wrapping_add(1);
                self.free.push(slot as u32);
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn is_live(&self, packed: u64) -> bool {
        let slot = (packed >> 32) as usize;
        let gen = packed as u32;
        self.slots[slot].gen == gen
    }

    /// Positions `cur[cur_pos]` at the next live entry. Returns `false`
    /// when the queue is empty.
    fn settle(&mut self) -> bool {
        loop {
            while let Some(&(_, packed)) = self.cur.get(self.cur_pos) {
                if self.is_live(packed) {
                    return true;
                }
                self.cur_pos += 1; // stale (cancelled) reference
            }
            self.cur.clear();
            self.cur_pos = 0;
            if self.len == 0 {
                return false;
            }
            self.advance_to_next_bucket();
        }
    }

    /// Moves the cursor to the next bucket holding any reference and loads
    /// it into the drain list.
    fn advance_to_next_bucket(&mut self) {
        let spill_bucket = self
            .spill
            .peek()
            .map(|std::cmp::Reverse((k, _))| key_time(*k).as_nanos() >> BUCKET_BITS);
        let target = if self.ring_count == 0 {
            // Nothing inside the horizon: jump straight to the earliest
            // spilled bucket (it must exist — len > 0).
            spill_bucket.expect("live events but empty ring and spill")
        } else {
            // Scan forward; ring references always live in
            // (cursor, cursor + NUM_BUCKETS), so this terminates.
            let mut b = self.cursor + 1;
            loop {
                if spill_bucket == Some(b) || !self.ring[(b % NUM_BUCKETS) as usize].is_empty() {
                    break b;
                }
                b += 1;
            }
        };
        self.cursor = target;
        // Load the ring bucket: keep live references only (their slot data
        // is valid, so the embedded sort key is too).
        // Swap the cell out so the slab can be consulted while filtering;
        // swap it back to keep its retained capacity (no steady-state
        // allocation). `cur` is already empty and keeps its capacity too.
        let mut cell = std::mem::take(&mut self.ring[(target % NUM_BUCKETS) as usize]);
        self.ring_count -= cell.len();
        for &r in &cell {
            if self.is_live(r.1) {
                self.cur.push(r);
            }
        }
        cell.clear();
        self.ring[(target % NUM_BUCKETS) as usize] = cell;
        // Pull every spilled event belonging to this bucket.
        while let Some(std::cmp::Reverse((k, _))) = self.spill.peek() {
            if key_time(*k).as_nanos() >> BUCKET_BITS != target {
                break;
            }
            let std::cmp::Reverse(r) = self.spill.pop().unwrap();
            if self.is_live(r.1) {
                self.cur.push(r);
            }
        }
        self.cur.sort_unstable_by_key(|&(k, _)| k);
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.settle() {
            Some(key_time(self.cur[self.cur_pos].0))
        } else {
            None
        }
    }

    /// Pops the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.settle() {
            return None;
        }
        let (key, packed) = self.cur[self.cur_pos];
        self.cur_pos += 1;
        let slot = (packed >> 32) as usize;
        let sl = &mut self.slots[slot];
        let event = sl.event.take().expect("settled entry must be live");
        sl.gen = sl.gen.wrapping_add(1);
        self.free.push(slot as u32);
        self.len -= 1;
        Some((key_time(key), event))
    }

    /// Number of live events still pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events. Slab generations survive so stale keys
    /// from before the clear can never cancel later entries.
    pub fn clear(&mut self) {
        for sl in &mut self.slots {
            if sl.event.take().is_some() {
                sl.gen = sl.gen.wrapping_add(1);
            }
        }
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
        for cell in &mut self.ring {
            cell.clear();
        }
        self.ring_count = 0;
        self.spill.clear();
        self.cur.clear();
        self.cur_pos = 0;
        self.cursor = 0;
        self.len = 0;
    }
}

// ---------------------------------------------------------------------------
// The front both implementations share.
// ---------------------------------------------------------------------------

enum Imp<E> {
    Calendar(CalendarQueue<E>),
    Legacy(LegacyEventQueue<E>),
}

/// Time-ordered future event list with stable FIFO tie-breaking and O(1)
/// cancellation. Defaults to the calendar queue; the legacy heap
/// implementation is retained behind [`EventQueue::new_reference`] so the
/// engine's reference path (fingerprint-equality suites) can run on the
/// original structure.
pub struct EventQueue<E>(Imp<E>);

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the calendar hot path.
    pub fn new() -> Self {
        EventQueue(Imp::Calendar(CalendarQueue::new()))
    }

    /// Creates an empty queue on the legacy heap reference path.
    pub fn new_reference() -> Self {
        EventQueue(Imp::Legacy(LegacyEventQueue::new()))
    }

    /// Schedules `event` at `time`, returning a key usable with
    /// [`EventQueue::cancel`].
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        match &mut self.0 {
            Imp::Calendar(q) => q.push(time, event),
            Imp::Legacy(q) => q.push(time, event),
        }
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. had not already popped or been cancelled).
    #[inline]
    pub fn cancel(&mut self, key: EventKey) -> bool {
        match &mut self.0 {
            Imp::Calendar(q) => q.cancel(key),
            Imp::Legacy(q) => q.cancel(key),
        }
    }

    /// Time of the next live event, if any.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.0 {
            Imp::Calendar(q) => q.peek_time(),
            Imp::Legacy(q) => q.peek_time(),
        }
    }

    /// Pops the earliest live event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.0 {
            Imp::Calendar(q) => q.pop(),
            Imp::Legacy(q) => q.pop(),
        }
    }

    /// Number of live events still pending.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Imp::Calendar(q) => q.len(),
            Imp::Legacy(q) => q.len(),
        }
    }

    /// True when no live events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Imp::Calendar(q) => q.clear(),
            Imp::Legacy(q) => q.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Every behavioral test runs against both implementations.
    fn both() -> [EventQueue<&'static str>; 2] {
        [EventQueue::new(), EventQueue::new_reference()]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.push(t(30), "c");
            q.push(t(10), "a");
            q.push(t(20), "b");
            assert_eq!(q.pop(), Some((t(10), "a")));
            assert_eq!(q.pop(), Some((t(20), "b")));
            assert_eq!(q.pop(), Some((t(30), "c")));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn same_time_is_fifo() {
        for variant in [EventQueue::new, EventQueue::new_reference] {
            let mut q = variant();
            for i in 0..100 {
                q.push(t(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((t(5), i)));
            }
        }
    }

    #[test]
    fn cancel_removes_event() {
        for mut q in both() {
            let k1 = q.push(t(1), "x");
            q.push(t(2), "y");
            assert_eq!(q.len(), 2);
            assert!(q.cancel(k1));
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((t(2), "y")));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn cancel_twice_is_noop() {
        for variant in [EventQueue::new, EventQueue::new_reference] {
            let mut q = variant();
            let k = q.push(t(1), ());
            assert!(q.cancel(k));
            assert!(!q.cancel(k));
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        for mut q in both() {
            let k = q.push(t(1), "x");
            q.push(t(2), "y");
            assert_eq!(q.pop(), Some((t(1), "x")));
            // `k` already fired: cancelling must not disturb remaining
            // events.
            assert!(!q.cancel(k));
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((t(2), "y")));
        }
    }

    #[test]
    fn cancel_unknown_key_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventKey(42)));
        let mut q: EventQueue<()> = EventQueue::new_reference();
        assert!(!q.cancel(EventKey(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        for mut q in both() {
            let k = q.push(t(1), "gone");
            q.push(t(5), "kept");
            q.cancel(k);
            assert_eq!(q.peek_time(), Some(t(5)));
        }
    }

    #[test]
    fn clear_empties() {
        for variant in [EventQueue::new, EventQueue::new_reference] {
            let mut q = variant();
            q.push(t(1), 1);
            q.push(t(2), 2);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
            // The queue keeps working after a clear.
            q.push(t(3), 3);
            assert_eq!(q.pop(), Some((t(3), 3)));
        }
    }

    #[test]
    fn stale_key_after_clear_cannot_cancel() {
        let mut q = EventQueue::new();
        let k = q.push(t(1), 1);
        q.clear();
        let _k2 = q.push(t(2), 2);
        // The pre-clear key may map to a reused slab slot; it must not
        // cancel the new entry.
        assert!(!q.cancel(k));
        assert_eq!(q.pop(), Some((t(2), 2)));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        for variant in [EventQueue::new, EventQueue::new_reference] {
            let mut q = variant();
            q.push(t(10), 10);
            q.push(t(5), 5);
            assert_eq!(q.pop(), Some((t(5), 5)));
            q.push(t(7), 7);
            q.push(t(6), 6);
            assert_eq!(q.pop(), Some((t(6), 6)));
            assert_eq!(q.pop(), Some((t(7), 7)));
            assert_eq!(q.pop(), Some((t(10), 10)));
        }
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Events far beyond the ring horizon (~67 ms) take the spill path
        // and must still pop in exact order, including ties at the same
        // nanosecond across the horizon boundary.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "far-a");
        q.push(t(1), "near");
        q.push(SimTime::from_secs(10), "far-b");
        let far_cancel = q.push(SimTime::from_secs(5), "cancelled");
        q.push(SimTime::MAX, "sentinel");
        q.cancel(far_cancel);
        assert_eq!(q.pop(), Some((t(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far-a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far-b")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "sentinel")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn legacy_compaction_bounds_heap_under_churn() {
        // Regression for the tombstone leak: a push/cancel churn loop (the
        // disarm-every-timer pattern of acked `stop` retransmissions) must
        // not grow the backing heap without bound.
        let mut q = LegacyEventQueue::new();
        let mut live = Vec::new();
        for i in 0..50_000u64 {
            let k = q.push(SimTime::from_micros(1_000_000 + i), i);
            if i % 10 == 0 {
                live.push(k); // 10% survive
            } else {
                q.cancel(k);
            }
        }
        assert_eq!(q.len(), live.len());
        // Without compaction the heap would hold all 50k entries. With the
        // tombstones > live sweep it stays within a small multiple of live.
        assert!(
            q.backing_len() <= 2 * q.len() + COMPACT_FLOOR,
            "backing {} vs live {}",
            q.backing_len(),
            q.len()
        );
        // And the survivors still pop correctly.
        assert_eq!(q.pop().map(|(_, v)| v), Some(0));
    }

    #[test]
    fn calendar_slab_is_bounded_under_churn() {
        // The calendar queue frees cancelled slots immediately; steady
        // push/cancel churn reuses the same handful of slab slots.
        let mut q = CalendarQueue::new();
        for i in 0..50_000u64 {
            let k = q.push(SimTime::from_micros(1_000_000 + i), i);
            if i % 10 != 0 {
                q.cancel(k);
            }
        }
        assert_eq!(q.len(), 5_000);
        assert!(
            q.slots.len() <= q.len() + 2,
            "slab grew to {} for {} live",
            q.slots.len(),
            q.len()
        );
    }

    #[test]
    fn reference_and_calendar_agree_under_churn() {
        // Drive both implementations through an identical randomized
        // push/cancel/pop script and demand bit-identical outputs — the
        // unit-level half of the bit-exactness discipline (the engine
        // fingerprint suites are the end-to-end half).
        let mut rng = SimRng::new(0xC0FFEE).fork("queue-equiv");
        let mut cal = EventQueue::new();
        let mut leg = EventQueue::new_reference();
        let mut keys: Vec<(EventKey, EventKey)> = Vec::new();
        let mut now = 0u64;
        for step in 0..20_000u64 {
            match rng.range(0u64..10) {
                0..=4 => {
                    // Push somewhere from "now" to beyond the horizon.
                    let dt = match rng.range(0u64..3) {
                        0 => rng.range(0u64..1_000),          // same-bucket ties
                        1 => rng.range(0u64..10_000_000),     // within horizon
                        _ => rng.range(0u64..40_000_000_000), // spill path
                    };
                    let at = SimTime::from_nanos(now + dt);
                    keys.push((cal.push(at, step), leg.push(at, step)));
                }
                5..=6 => {
                    if !keys.is_empty() {
                        let i = rng.range(0u64..keys.len() as u64) as usize;
                        let (kc, kl) = keys.swap_remove(i);
                        assert_eq!(cal.cancel(kc), leg.cancel(kl), "step {step}");
                    }
                }
                _ => {
                    assert_eq!(cal.peek_time(), leg.peek_time(), "step {step}");
                    let a = cal.pop();
                    let b = leg.pop();
                    assert_eq!(a, b, "step {step}");
                    if let Some((t, _)) = a {
                        now = t.as_nanos();
                    }
                }
            }
            assert_eq!(cal.len(), leg.len(), "step {step}");
        }
        // Drain both to the end.
        loop {
            let a = cal.pop();
            let b = leg.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
