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
//! It is a binary heap of 24-byte `(time, push number, slot)` keys over one
//! slab of events: a sift moves keys, never an event. The slab grows a
//! quarter at a time and threads its freed slots onto a free list (no
//! steady-state allocation). It tracks what is pending, not what once was:
//! when a pop leaves a slab of at least 512 slots with at most an eighth of
//! them live — the tail of a drained burst, such as a seam import fanning a
//! migrant's residue out to every AP in one instant — the queue moves its
//! live events into a fresh slab of 1.25 × live and hands the old one back.
//! Nothing is ever cancelled: every timer is fire-and-check — its handler
//! decides whether it still matters, as `SwitchEngine::on_timeout` ignores
//! a `stop` retransmission timer its switch has already outrun.
//!
//! The `(time, seq)` pop order is checked at unit level against an ordered
//! map (`queue_and_reference_agree_under_churn` and
//! `a_drained_burst_hands_its_slab_back_in_order` here and
//! `event_queue_total_order` in the root package's property tests) and end
//! to end by the golden run digests (`tests/golden/`), which move if any two
//! events swap.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// End of the free list.
const NIL: u32 = u32::MAX;

/// `(time in ns, push number, slab slot)`, one heap entry: three words,
/// where a `u128` sort key would pad the same content to four. Tuple order
/// is the pop order — `(time, push number)` is unique per entry, so the
/// slot never decides.
type Ref = (u64, u64, u32);

/// One slab slot: a pending event, or — `event` `None` — a free slot and
/// the next free one.
struct Slot<E> {
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

/// Time-ordered future event list with stable FIFO tie-breaking — see the
/// module docs.
pub struct EventQueue<E> {
    /// Every event pending, and the free slots between them.
    slots: Vec<Slot<E>>,
    /// First slot of the free list, or `NIL`.
    free: u32,
    /// One key per pending event, the earliest on top.
    heap: BinaryHeap<Reverse<Ref>>,
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
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = if self.free != NIL {
            let s = self.free;
            let slot = &mut self.slots[s as usize];
            self.free = slot.next;
            slot.event = Some(event);
            s
        } else {
            reserve_quarter(&mut self.slots, usize::MAX);
            self.slots.push(Slot {
                next: NIL,
                event: Some(event),
            });
            (self.slots.len() - 1) as u32
        };
        self.heap.push(Reverse((time.as_nanos(), seq, slot)));
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|&Reverse((time, _, _))| SimTime::from_nanos(time))
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((time, _, s)) = self.heap.pop()?;
        let slot = &mut self.slots[s as usize];
        let event = slot
            .event
            .take()
            .expect("a queued reference's slot holds its event");
        slot.next = self.free;
        self.free = s;
        if self.slots.len() >= REBUILD_MIN_SLOTS
            && self.len() <= self.slots.len() / REBUILD_SPARSITY
        {
            self.rebuild();
        }
        Some((SimTime::from_nanos(time), event))
    }

    /// Moves every pending event into a fresh slab of 1.25 × live slots —
    /// the headroom [`reserve_quarter`] grows by — and frees the old one,
    /// so a drained burst stops holding its depth for the rest of the run.
    /// Only the slot of each heap entry changes, not its key, so no pop
    /// order changes.
    fn rebuild(&mut self) {
        let live = self.len();
        let mut old = std::mem::replace(&mut self.slots, Vec::with_capacity(live + live / 4));
        let mut heap = std::mem::take(&mut self.heap).into_vec();
        for Reverse((_, _, s)) in &mut heap {
            let event = old[*s as usize].event.take();
            self.slots.push(Slot { next: NIL, event });
            *s = (self.slots.len() - 1) as u32;
        }
        heap.shrink_to(self.slots.capacity());
        // The keys are where they were, so the vector is still a heap.
        self.heap = BinaryHeap::from(heap);
        self.free = NIL;
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
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
    fn far_timers_pop_in_order() {
        // Timers seconds ahead, and one at the end of time, pop in exact
        // order among near events, ties at the same nanosecond in push
        // order.
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
    fn slab_is_bounded_under_churn() {
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
        q.slots.capacity() * size_of::<Slot<E>>() + q.heap.capacity() * size_of::<Ref>()
    }

    #[test]
    fn retained_memory_tracks_the_largest_burst() {
        // Post-handover bursts: a thousand packet copies land 65.536 µs to
        // 65.5 ms ahead, drain, and the next thousand land at a different
        // distance ahead — 200 bursts. The queue may keep what one burst
        // needed, not what every burst once held.
        const BURST: u64 = 1_000;
        let mut q = EventQueue::new();
        let mut now = 0u64;
        for k in 0..200u64 {
            let ahead = (1 + k * 37 % 1_000) << 16;
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
        // 100 ns ahead, timers milliseconds ahead and timers seconds
        // ahead. Every ninth pop of the drain pushes one more event — at
        // the popped instant, 5 ms or 2 s after it in turn — so the queue
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
    fn queue_and_reference_agree_under_churn() {
        // Drive the queue and its reference — an ordered map keyed by
        // `(time, push number)` — through an identical randomized
        // push/pop script and demand identical outputs: the unit-level
        // order check (the golden run digests are the end-to-end one).
        let mut rng = SimRng::new(0xC0FFEE).fork("queue-equiv");
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut now = 0u64;
        for step in 0..20_000u64 {
            match rng.range(0u64..8) {
                0..=4 => {
                    // Push somewhere from "now" to 40 s ahead.
                    let dt = match rng.range(0u64..4) {
                        0 => rng.range(0u64..1_000),                 // near ties
                        1 => rng.range(0u64..10_000_000),            // up to 10 ms
                        2 => rng.range(0u64..40_000_000_000),        // up to 40 s
                        _ => 100_000_000 + rng.range(0u64..100_000), // far, clustered
                    };
                    let at = SimTime::from_nanos(now + dt);
                    model.insert((at, step), step);
                    q.push(at, step);
                }
                _ => {
                    let want = model.pop_first().map(|((at, _), e)| (at, e));
                    assert_eq!(q.peek_time(), want.map(|(at, _)| at), "step {step}");
                    assert_eq!(q.pop(), want, "step {step}");
                    if let Some((at, _)) = want {
                        now = at.as_nanos();
                    }
                }
            }
            assert_eq!(q.len(), model.len(), "step {step}");
        }
        // Drain both to the end.
        for ((at, _), e) in model {
            assert_eq!(q.pop(), Some((at, e)));
        }
        assert_eq!(q.pop(), None);
    }
}
