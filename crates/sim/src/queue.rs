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
//! It is a calendar/bucket queue over one slab. A slab slot holds an
//! event, its `(time, push number)` key and a link to the next slot of its
//! time bucket (64 µs wide); a ring of 1024 `(head, tail)` cells (~67 ms
//! horizon) threads each bucket's slots into a list, and a spill heap
//! holds far-future timers. A bucket becomes a sorted drain list of
//! 24-byte references only when the cursor reaches it, so the queue's
//! memory is the slab — grown a quarter at a time — plus the largest
//! single bucket, not the sum of every bucket's own high water. Freed slots
//! are threaded onto a free list through the same link (no steady-state
//! allocation). The slab tracks what is pending, not what once was: when a
//! pop leaves a slab of at least 512 slots with at most an eighth of them
//! live — the tail of a drained burst, such as a seam import fanning a
//! migrant's residue out to every AP in one instant — the queue moves its
//! live events, keys unchanged, into a fresh slab of 1.25 × live and hands
//! the old one back. Nothing is ever cancelled: every timer is
//! fire-and-check — its handler decides whether it still matters, as
//! `SwitchEngine::on_timeout` ignores a `stop` retransmission timer its
//! switch has already outrun — so a bucket's list only ever links live
//! events.
//!
//! The `(time, seq)` pop order is checked at unit level against an ordered
//! map (`reference_and_calendar_agree_under_churn` and
//! `a_drained_burst_hands_its_slab_back_in_order` here and
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

/// End of a slot list (a bucket's or the free list).
const NIL: u32 = u32::MAX;

/// `(time in ns, push number, slab slot)` as stored in the drain list and
/// the spill heap: three words, where a `u128` sort key would pad the same
/// content to four. Tuple order is the pop order — `(time, push number)` is
/// unique per entry, so the slot never decides.
type Ref = (u64, u64, u32);

/// One slab slot: a pending event with its pop key and the next slot of
/// its bucket, or — `event` `None` — a free slot and the next free one.
struct Slot<E> {
    time: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// Makes room for one more element in a full `slab`, by a quarter of its
/// length (at least 64) and never past `bound` elements, where `Vec::push`
/// would double: a slab as deep as the most it ever held at once then
/// reserves at most a quarter more, not up to as much again.
pub fn reserve_quarter<T>(slab: &mut Vec<T>, bound: usize) {
    let len = slab.len();
    if len == slab.capacity() && len < bound {
        slab.reserve_exact((len / 4).max(64).min(bound - len));
    }
}

/// Slab length below which the queue never rebuilds: a small slab costs
/// less than moving its events.
const REBUILD_MIN_SLOTS: usize = 512;
/// A slab of at least [`REBUILD_MIN_SLOTS`] is rebuilt once no more than
/// `1 / REBUILD_SPARSITY` of its slots hold an event.
const REBUILD_SPARSITY: usize = 8;

/// Slab capacity a rebuild leaves for `live` events: 1.25 × live, the same
/// headroom [`reserve_quarter`] grows by.
fn rebuilt_capacity(live: usize) -> usize {
    live + live / 4
}

/// Moves `from`'s event, with its key, to the end of `to` and returns its
/// slot there.
fn move_slot<E>(from: &mut Slot<E>, to: &mut Vec<Slot<E>>) -> u32 {
    to.push(Slot {
        time: from.time,
        seq: from.seq,
        next: NIL,
        event: from.event.take(),
    });
    (to.len() - 1) as u32
}

/// Time-ordered future event list with stable FIFO tie-breaking — see the
/// module docs.
pub struct EventQueue<E> {
    /// Every event pending, and the free slots between them.
    slots: Vec<Slot<E>>,
    /// First slot of the free list, or `NIL`.
    free: u32,
    /// Slots holding an event.
    live: usize,
    /// Ring of bucket lists as `(first slot, last slot)`, `NIL` when empty;
    /// bucket `b` (absolute index `time >> BUCKET_BITS`) lives at
    /// `ring[b % NUM_BUCKETS]`. Holds only buckets within the horizon
    /// `[cursor, cursor + NUM_BUCKETS)`, so each ring cell maps to a single
    /// absolute bucket at any moment.
    ring: Vec<(u32, u32)>,
    /// Events currently linked into the ring.
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
            free: NIL,
            live: 0,
            ring: vec![(NIL, NIL); NUM_BUCKETS as usize],
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
        let time = time.as_nanos();
        let filled = Slot {
            time,
            seq,
            next: NIL,
            event: Some(event),
        };
        let slot = if self.free != NIL {
            let s = self.free;
            self.free = self.slots[s as usize].next;
            self.slots[s as usize] = filled;
            s
        } else {
            reserve_quarter(&mut self.slots, usize::MAX);
            self.slots.push(filled);
            (self.slots.len() - 1) as u32
        };
        self.live += 1;
        let r: Ref = (time, seq, slot);

        let bucket = time >> BUCKET_BITS;
        if bucket <= self.cursor {
            // Present bucket (or, defensively, earlier): insert into the
            // undrained tail of the current drain list, keeping it sorted.
            let ins = self.cur[self.cur_pos..].partition_point(|&other| other < r);
            self.cur.insert(self.cur_pos + ins, r);
        } else if bucket < self.cursor + NUM_BUCKETS {
            let cell = &mut self.ring[(bucket % NUM_BUCKETS) as usize];
            match cell.1 {
                NIL => cell.0 = slot,
                last => self.slots[last as usize].next = slot,
            }
            cell.1 = slot;
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

    /// Moves the cursor to the next bucket holding any event and loads it
    /// into the drain list.
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
            // Scan forward; ring events always live in
            // (cursor, cursor + NUM_BUCKETS), so this terminates.
            let mut b = self.cursor + 1;
            loop {
                if spill_bucket == Some(b) || self.ring[(b % NUM_BUCKETS) as usize].0 != NIL {
                    break b;
                }
                b += 1;
            }
        };
        self.cursor = target;
        // Walk the bucket's list into `cur` (empty here, and keeping its
        // capacity, so there is no steady-state allocation).
        let cell = &mut self.ring[(target % NUM_BUCKETS) as usize];
        let mut s = std::mem::replace(cell, (NIL, NIL)).0;
        while s != NIL {
            let slot = &self.slots[s as usize];
            self.cur.push((slot.time, slot.seq, s));
            s = slot.next;
        }
        self.ring_count -= self.cur.len();
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
        let (time, _, s) = self.cur[self.cur_pos];
        self.cur_pos += 1;
        let slot = &mut self.slots[s as usize];
        let event = slot
            .event
            .take()
            .expect("a queued reference's slot holds its event");
        slot.next = self.free;
        self.free = s;
        self.live -= 1;
        if self.slots.len() >= REBUILD_MIN_SLOTS && self.live <= self.slots.len() / REBUILD_SPARSITY
        {
            self.rebuild();
        }
        Some((SimTime::from_nanos(time), event))
    }

    /// Moves every pending event into a fresh slab of
    /// [`rebuilt_capacity`] slots and frees the old one, so a drained
    /// burst stops holding its depth for the rest of the run. Each event
    /// keeps its `(time, push number)` key, and the ring, the spill heap
    /// and the undrained drain list keep their entries in their order, so
    /// no pop order changes. Every pending event is named by exactly one
    /// of the three, which is how each is moved exactly once.
    fn rebuild(&mut self) {
        let mut old = std::mem::replace(
            &mut self.slots,
            Vec::with_capacity(rebuilt_capacity(self.live)),
        );
        let slots = &mut self.slots;
        let mut cur = Vec::with_capacity(self.cur.len() - self.cur_pos);
        for &(time, seq, s) in &self.cur[self.cur_pos..] {
            cur.push((time, seq, move_slot(&mut old[s as usize], slots)));
        }
        self.cur = cur;
        self.cur_pos = 0;
        for cell in &mut self.ring {
            let mut s = cell.0;
            let mut last = NIL;
            while s != NIL {
                let next = old[s as usize].next;
                let to = move_slot(&mut old[s as usize], slots);
                match last {
                    NIL => cell.0 = to,
                    _ => slots[last as usize].next = to,
                }
                last = to;
                s = next;
            }
            cell.1 = last;
        }
        let mut spill = std::mem::take(&mut self.spill).into_vec();
        for std::cmp::Reverse(r) in &mut spill {
            r.2 = move_slot(&mut old[r.2 as usize], slots);
        }
        // The keys are where they were, so the vector is still a heap.
        self.spill = BinaryHeap::from(spill);
        debug_assert_eq!(self.slots.len(), self.live);
        self.free = NIL;
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.live
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

    /// Bytes the queue holds on the heap, reserved or in use.
    fn retained_bytes<E>(q: &EventQueue<E>) -> usize {
        use std::mem::size_of;
        q.slots.capacity() * size_of::<Slot<E>>()
            + q.ring.capacity() * size_of::<(u32, u32)>()
            + (q.spill.capacity() + q.cur.capacity()) * size_of::<Ref>()
    }

    #[test]
    fn retained_memory_tracks_the_largest_burst_not_every_bucket() {
        // Post-handover bursts: a thousand packet copies land in one
        // bucket, drain, and the next thousand land in another bucket at a
        // different distance ahead — 200 bursts over most of the ring. The
        // queue may keep what one burst needed, not what every bucket it
        // ever drained once held.
        const BURST: u64 = 1_000;
        let mut q = EventQueue::new();
        let mut now = 0u64;
        for k in 0..200u64 {
            let ahead = (1 + k * 37 % (NUM_BUCKETS - 24)) << BUCKET_BITS;
            for i in 0..BURST {
                q.push(SimTime::from_nanos(now + ahead + i), i);
            }
            while let Some((at, _)) = q.pop() {
                now = at.as_nanos();
            }
        }
        let burst = BURST as usize * (std::mem::size_of::<u64>() + std::mem::size_of::<Ref>());
        let kept = retained_bytes(&q);
        assert!(
            kept <= 4 * burst,
            "the queue keeps {kept} B after bursts of {burst} B (events and their references)"
        );
    }

    /// Pushes `at` to the queue and its reference, the push number as the
    /// event.
    fn push_both(q: &mut EventQueue<u64>, model: &mut BTreeMap<(u64, u64), u64>, at: u64) {
        let n = q.next_seq;
        q.push(SimTime::from_nanos(at), n);
        model.insert((at, n), n);
    }

    #[test]
    fn a_drained_burst_hands_its_slab_back_in_order() {
        // A seam import: 4 096 packet copies at one instant, behind events
        // waiting in the current bucket, ring timers and far spilled
        // timers. Every ninth pop of the drain pushes one more event — to
        // the current bucket, the ring or the spill in turn — so the queue
        // falls to an eighth of its slab with the burst not yet drained and
        // rebuilds there. Every pop matches the ordered map.
        const BURST: u64 = 4_096;
        let ms = 1_000_000;
        let mut q = EventQueue::new();
        let mut model = BTreeMap::new();
        q.push(SimTime::from_nanos(10 * ms), u64::MAX);
        q.pop();
        let now = 10 * ms;
        for i in 0..8 {
            push_both(&mut q, &mut model, now + 100 + i);
        }
        for i in 1..=16 {
            push_both(&mut q, &mut model, now + 2 * ms + i * ms);
            push_both(&mut q, &mut model, now + i * 1_000 * ms);
        }
        let at = now + 2 * ms;
        let first = q.next_seq;
        for _ in 0..BURST {
            push_both(&mut q, &mut model, at);
        }
        let burst = first..q.next_seq;
        let deepest = q.slots.len();
        let mut burst_left = BURST;
        let mut rebuilt_with = None;
        let mut pops = 0u64;
        while burst_left > 0 {
            let ((t, seq), e) = model.pop_first().unwrap();
            assert_eq!(q.pop(), Some((SimTime::from_nanos(t), e)), "pop {pops}");
            burst_left -= burst.contains(&seq) as u64;
            if rebuilt_with.is_none() && q.slots.len() < deepest {
                rebuilt_with = Some(burst_left);
            }
            pops += 1;
            if pops % 9 == 0 {
                let ahead = [0, 5 * ms, 2_000 * ms][(pops / 9 % 3) as usize];
                push_both(&mut q, &mut model, t + ahead);
            }
            assert_eq!(q.len(), model.len());
        }
        assert!(
            matches!(rebuilt_with, Some(left) if left > 0),
            "the slab was not rebuilt mid-drain ({rebuilt_with:?} burst events left)"
        );
        let live = q.len();
        assert!(
            q.slots.capacity() <= live + live / 4 + 64,
            "{} slots kept for {live} pending",
            q.slots.capacity()
        );
        for ((t, _), e) in model {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(t), e)));
        }
        assert_eq!(q.pop(), None);
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
