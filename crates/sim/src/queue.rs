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
//! It is a calendar/bucket queue: events live in an index-addressed slab
//! (free-list reuse, no steady state allocation), and 24-byte references to
//! them hash into a ring of time buckets (64 µs wide, ~67 ms horizon) with a
//! spill heap for far-future timers. Cancellation is O(1) — the slab slot is
//! freed and its generation bumped immediately, so a cancelled 30 ms `stop`
//! retransmission timer releases its event right away instead of lingering
//! until it would have fired.
//!
//! The `(time, seq)` pop order is checked at unit level against an ordered
//! map (`reference_and_calendar_agree_under_churn` here and
//! `event_queue_total_order` in the root package's property tests) and end
//! to end by the golden run digests (`tests/golden/`), which move if any two
//! events swap.

use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can later be cancelled. Opaque: only
/// meaningful to the queue that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

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
    event: Option<E>,
}

/// Packed slab reference: slot index in the high half, generation in the
/// low half.
#[inline]
fn pack_ref(slot: u32, gen: u32) -> u64 {
    ((slot as u64) << 32) | gen as u64
}

/// `(time in ns, push number, slab reference)` as stored in buckets, the
/// drain list and the spill heap: three words, where a `u128` sort key would
/// pad the same content to four. Tuple order is the pop order — `(time,
/// push number)` is unique per entry, so the reference never decides.
type Ref = (u64, u64, u64);

#[inline]
fn ref_time(r: &Ref) -> SimTime {
    SimTime::from_nanos(r.0)
}

/// Time-ordered future event list with stable FIFO tie-breaking and O(1)
/// cancellation — see the module docs.
pub struct EventQueue<E> {
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

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
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

    /// Schedules `event` at `time`, returning a key usable with
    /// [`EventQueue::cancel`].
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].event = Some(event);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    event: Some(event),
                });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        let r: Ref = (time.as_nanos(), seq, pack_ref(slot, gen));
        self.len += 1;

        let bucket = time.as_nanos() >> BUCKET_BITS;
        if bucket <= self.cursor {
            // Present bucket (or, defensively, earlier): insert into the
            // undrained tail of the current drain list, keeping it sorted.
            let ins = self.cur[self.cur_pos..].partition_point(|&other| other < r);
            self.cur.insert(self.cur_pos + ins, r);
        } else if bucket < self.cursor + NUM_BUCKETS {
            self.ring[(bucket % NUM_BUCKETS) as usize].push(r);
            self.ring_count += 1;
        } else {
            self.spill.push(std::cmp::Reverse(r));
        }
        EventKey(r.2)
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
            while let Some(&(_, _, packed)) = self.cur.get(self.cur_pos) {
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
            .map(|std::cmp::Reverse(r)| r.0 >> BUCKET_BITS);
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
            if self.is_live(r.2) {
                self.cur.push(r);
            }
        }
        cell.clear();
        self.ring[(target % NUM_BUCKETS) as usize] = cell;
        // Pull every spilled event belonging to this bucket.
        while let Some(std::cmp::Reverse(r)) = self.spill.peek() {
            if r.0 >> BUCKET_BITS != target {
                break;
            }
            let std::cmp::Reverse(r) = self.spill.pop().unwrap();
            if self.is_live(r.2) {
                self.cur.push(r);
            }
        }
        self.cur.sort_unstable();
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.settle() {
            Some(ref_time(&self.cur[self.cur_pos]))
        } else {
            None
        }
    }

    /// Pops the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.settle() {
            return None;
        }
        let r = self.cur[self.cur_pos];
        let packed = r.2;
        self.cur_pos += 1;
        let slot = (packed >> 32) as usize;
        let sl = &mut self.slots[slot];
        let event = sl.event.take().expect("settled entry must be live");
        sl.gen = sl.gen.wrapping_add(1);
        self.free.push(slot as u32);
        self.len -= 1;
        Some((ref_time(&r), event))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimTime;
    use std::collections::BTreeMap;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let k1 = q.push(t(1), "x");
        q.push(t(2), "y");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(k1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "y")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_is_noop() {
        let mut q = EventQueue::new();
        let k = q.push(t(1), ());
        assert!(q.cancel(k));
        assert!(!q.cancel(k));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let k = q.push(t(1), "x");
        q.push(t(2), "y");
        assert_eq!(q.pop(), Some((t(1), "x")));
        // `k` already fired: cancelling must not disturb remaining
        // events.
        assert!(!q.cancel(k));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "y")));
    }

    #[test]
    fn cancel_unknown_key_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventKey(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let k = q.push(t(1), "gone");
        q.push(t(5), "kept");
        q.cancel(k);
        assert_eq!(q.peek_time(), Some(t(5)));
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(t(1), 1);
        q.push(t(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // The queue keeps working after a clear.
        q.push(t(3), 3);
        assert_eq!(q.pop(), Some((t(3), 3)));
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
        let mut q = EventQueue::new();
        q.push(t(10), 10);
        q.push(t(5), 5);
        assert_eq!(q.pop(), Some((t(5), 5)));
        q.push(t(7), 7);
        q.push(t(6), 6);
        assert_eq!(q.pop(), Some((t(6), 6)));
        assert_eq!(q.pop(), Some((t(7), 7)));
        assert_eq!(q.pop(), Some((t(10), 10)));
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
    fn calendar_slab_is_bounded_under_churn() {
        // Cancelled slots are freed immediately; steady push/cancel churn
        // (the disarm-every-timer pattern of acked `stop` retransmissions)
        // reuses the same handful of slab slots.
        let mut q = EventQueue::new();
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
    fn a_reference_is_three_words() {
        assert_eq!(std::mem::size_of::<Ref>(), 24);
        // What a slab slot adds to its event: the generation, and nothing
        // the reference already carries.
        assert_eq!(std::mem::size_of::<Slot<[u64; 4]>>(), 48);
    }

    #[test]
    fn reference_and_calendar_agree_under_churn() {
        // Drive the queue and its reference — an ordered map keyed by
        // `(time, push number)` — through an identical randomized
        // push/cancel/pop script and demand identical outputs: the
        // unit-level order check (the golden run digests are the
        // end-to-end one).
        let mut rng = SimRng::new(0xC0FFEE).fork("queue-equiv");
        let mut cal = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut keys: Vec<(EventKey, (SimTime, u64))> = Vec::new();
        let mut now = 0u64;
        for step in 0..20_000u64 {
            match rng.range(0u64..10) {
                0..=4 => {
                    // Push somewhere from "now" to beyond the horizon.
                    let dt = match rng.range(0u64..4) {
                        0 => rng.range(0u64..1_000),                 // same-bucket ties
                        1 => rng.range(0u64..10_000_000),            // within horizon
                        2 => rng.range(0u64..40_000_000_000),        // spill path
                        _ => 100_000_000 + rng.range(0u64..100_000), // spilled, shared buckets
                    };
                    let at = SimTime::from_nanos(now + dt);
                    model.insert((at, step), step);
                    keys.push((cal.push(at, step), (at, step)));
                }
                5..=6 => {
                    if !keys.is_empty() {
                        let i = rng.range(0u64..keys.len() as u64) as usize;
                        let (kc, km) = keys.swap_remove(i);
                        assert_eq!(cal.cancel(kc), model.remove(&km).is_some(), "step {step}");
                    }
                }
                _ => {
                    let want = model.pop_first().map(|((at, _), e)| (at, e));
                    assert_eq!(cal.peek_time(), want.map(|(at, _)| at), "step {step}");
                    assert_eq!(cal.pop(), want, "step {step}");
                    if let Some((at, _)) = want {
                        now = at.as_nanos();
                    }
                }
            }
            assert_eq!(cal.len(), model.len(), "step {step}");
        }
        // Drain both to the end.
        for ((at, _), e) in model {
            assert_eq!(cal.pop(), Some((at, e)));
        }
        assert_eq!(cal.pop(), None);
    }
}
