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
//! spill heap for far-future timers. Nothing is ever cancelled: every timer
//! is fire-and-check — its handler decides whether it still matters, as
//! `SwitchEngine::on_timeout` ignores a `stop` retransmission timer its
//! switch has already outrun — so a queued reference always names a live
//! event.
//!
//! The `(time, seq)` pop order is checked at unit level against an ordered
//! map (`reference_and_calendar_agree_under_churn` here and
//! `event_queue_total_order` in the root package's property tests) and end
//! to end by the golden run digests (`tests/golden/`), which move if any two
//! events swap.

use crate::time::SimTime;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds: 2^16 ns = 65.536 µs, a few
/// 802.11 slot times — fine enough that a bucket rarely holds more than a
/// handful of events, coarse enough that the ring spans the protocol's
/// 30 ms timers.
const BUCKET_BITS: u32 = 16;
/// Ring size (power of two): 1024 buckets × 65.536 µs ≈ 67 ms horizon.
/// Events beyond the horizon wait in the spill heap.
const NUM_BUCKETS: u64 = 1024;

/// `(time in ns, push number, slab slot)` as stored in buckets, the drain
/// list and the spill heap: three words, where a `u128` sort key would pad
/// the same content to four. Tuple order is the pop order — `(time, push
/// number)` is unique per entry, so the slot never decides.
type Ref = (u64, u64, u32);

/// Time-ordered future event list with stable FIFO tie-breaking — see the
/// module docs.
pub struct EventQueue<E> {
    /// The pending events; `None` marks a slot on the free list.
    slots: Vec<Option<E>>,
    /// Free slab slots available for reuse.
    free: Vec<u32>,
    /// Ring of buckets; bucket `b` (absolute index `time >> BUCKET_BITS`)
    /// lives at `ring[b % NUM_BUCKETS]`. Holds only buckets within the
    /// horizon `[cursor, cursor + NUM_BUCKETS)`, so each ring cell maps to
    /// a single absolute bucket at any moment.
    ring: Vec<Vec<Ref>>,
    /// References currently in the ring.
    ring_count: usize,
    /// Spill heap for events beyond the ring horizon, min-ordered by key.
    spill: BinaryHeap<std::cmp::Reverse<Ref>>,
    /// Sorted drain list of the bucket the cursor points at.
    cur: Vec<Ref>,
    /// Drain position within `cur`.
    cur_pos: usize,
    /// Absolute bucket index currently being drained.
    cursor: u64,
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
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        let r: Ref = (time.as_nanos(), seq, slot);

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
    }

    /// Positions `cur[cur_pos]` at the next event. Returns `false` when the
    /// queue is empty.
    fn settle(&mut self) -> bool {
        if self.cur_pos < self.cur.len() {
            return true;
        }
        self.cur.clear();
        self.cur_pos = 0;
        if self.is_empty() {
            return false;
        }
        self.advance_to_next_bucket();
        true
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
            // spilled bucket (it must exist — the queue is not empty).
            spill_bucket.expect("pending events but empty ring and spill")
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
        // Move the ring bucket's references over; the cell keeps its
        // capacity and `cur` (empty here) keeps its own, so there is no
        // steady-state allocation.
        let cell = &mut self.ring[(target % NUM_BUCKETS) as usize];
        self.ring_count -= cell.len();
        self.cur.append(cell);
        // Pull every spilled event belonging to this bucket.
        while let Some(std::cmp::Reverse(r)) = self.spill.peek() {
            if r.0 >> BUCKET_BITS != target {
                break;
            }
            let std::cmp::Reverse(r) = self.spill.pop().unwrap();
            self.cur.push(r);
        }
        self.cur.sort_unstable();
    }

    /// Time of the next event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle()
            .then(|| SimTime::from_nanos(self.cur[self.cur_pos].0))
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.settle() {
            return None;
        }
        let (time, _, slot) = self.cur[self.cur_pos];
        self.cur_pos += 1;
        let event = self.slots[slot as usize]
            .take()
            .expect("a queued reference's slot holds its event");
        self.free.push(slot);
        Some((SimTime::from_nanos(time), event))
    }

    /// Number of events still pending: every slab slot not on the free list.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        q.push(SimTime::from_secs(5), "far-first");
        q.push(SimTime::MAX, "sentinel");
        assert_eq!(q.pop(), Some((t(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "far-first")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far-a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far-b")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "sentinel")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn calendar_slab_is_bounded_under_churn() {
        // A popped event's slot is freed at once; steady push/pop churn
        // (a self-rescheduling tick, a timer re-armed as it fires) reuses
        // the same handful of slab slots.
        let mut q = EventQueue::new();
        for i in 0..50_000u64 {
            q.push(SimTime::from_micros(1_000_000 + i), i);
            if i % 10 != 0 {
                assert!(q.pop().is_some());
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
    }

    #[test]
    fn reference_and_calendar_agree_under_churn() {
        // Drive the queue and its reference — an ordered map keyed by
        // `(time, push number)` — through an identical randomized
        // push/pop script and demand identical outputs: the unit-level
        // order check (the golden run digests are the end-to-end one).
        let mut rng = SimRng::new(0xC0FFEE).fork("queue-equiv");
        let mut cal = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut now = 0u64;
        for step in 0..20_000u64 {
            match rng.range(0u64..8) {
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
                    cal.push(at, step);
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
