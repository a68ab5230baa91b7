//! Block acknowledgement scoreboards (802.11e/n).
//!
//! An A-MPDU is acknowledged by a single Block ACK frame carrying the
//! window start sequence and a 64-bit bitmap of received MPDUs. Two state
//! machines cooperate:
//!
//! * the **transmitter scoreboard** ([`TxScoreboard`]) tracks which MPDUs
//!   in the current window are outstanding, consumes Block ACK bitmaps, and
//!   yields the set to retransmit — when a Block ACK is *lost*, nothing is
//!   marked and the whole aggregate is retransmitted, which is precisely
//!   the failure WGTT's Block-ACK forwarding (§3.2.1) repairs;
//! * the **receiver reorderer** ([`RxReorder`]) records which MPDUs arrived
//!   and produces the Block ACK response.
//!
//! Sequence numbers live in the 12-bit 802.11 space and wrap at 4096; all
//! comparisons are window-relative.

use crate::timing::SEQ_SPACE;
use std::collections::VecDeque;

/// Block ACK window size (MPDUs).
pub const BA_WINDOW: u16 = 64;

/// Distance from `from` to `to` going forward in 12-bit sequence space.
#[inline]
pub fn seq_fwd_dist(from: u16, to: u16) -> u16 {
    (to.wrapping_sub(from)) & (SEQ_SPACE - 1)
}

/// Adds `n` to a 12-bit sequence number.
#[inline]
pub fn seq_add(seq: u16, n: u16) -> u16 {
    (seq.wrapping_add(n)) & (SEQ_SPACE - 1)
}

/// A Block ACK response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAckFrame {
    /// Starting sequence number of the acknowledged window.
    pub start_seq: u16,
    /// Bit `i` acknowledges sequence `start_seq + i`.
    pub bitmap: u64,
}

impl BlockAckFrame {
    /// True if `seq` is acknowledged by this frame's bitmap.
    pub fn acks(&self, seq: u16) -> bool {
        let d = seq_fwd_dist(self.start_seq, seq);
        d < 64 && (self.bitmap >> d) & 1 == 1
    }

    /// True if this frame acknowledges `seq` either explicitly (bitmap) or
    /// implicitly — `start_seq` carries cumulative meaning: everything
    /// behind the receiver's window start was already received and
    /// released to the upper layer.
    pub fn covers(&self, seq: u16) -> bool {
        let d = seq_fwd_dist(self.start_seq, seq);
        if d >= 2048 {
            return true; // behind the window: implicitly acknowledged
        }
        d < 64 && (self.bitmap >> d) & 1 == 1
    }
}

/// Transmitter-side Block ACK scoreboard for one (AP, client, TID) agreement.
#[derive(Debug, Clone)]
pub struct TxScoreboard {
    /// Outstanding MPDUs in window order: (seq, acked).
    window: VecDeque<(u16, bool)>,
    /// Next fresh sequence number to assign.
    next_seq: u16,
}

impl Default for TxScoreboard {
    fn default() -> Self {
        Self::new(0)
    }
}

impl TxScoreboard {
    /// Creates a scoreboard whose first assigned sequence is `start`.
    pub fn new(start: u16) -> Self {
        TxScoreboard {
            window: VecDeque::new(),
            next_seq: start & (SEQ_SPACE - 1),
        }
    }

    /// Sequence of the oldest outstanding MPDU (window start), or the next
    /// fresh sequence when the window is empty.
    pub fn win_start(&self) -> u16 {
        self.window
            .front()
            .map(|&(s, _)| s)
            .unwrap_or(self.next_seq)
    }

    /// Number of outstanding (transmitted, not yet acknowledged) MPDUs.
    pub fn outstanding(&self) -> usize {
        self.window.len()
    }

    /// How many new MPDUs may be added without exceeding the BA window.
    pub fn available(&self) -> usize {
        BA_WINDOW as usize - self.window.len()
    }

    /// Assigns the next sequence number to a fresh MPDU and registers it as
    /// outstanding. Panics if the window is full — callers must check
    /// [`TxScoreboard::available`].
    pub fn assign(&mut self) -> u16 {
        assert!(self.available() > 0, "Block ACK window full");
        let seq = self.next_seq;
        self.next_seq = seq_add(self.next_seq, 1);
        self.window.push_back((seq, false));
        seq
    }

    /// Registers an externally assigned sequence number as outstanding
    /// (WGTT assigns MPDU sequences from the controller's index numbers, so
    /// APs register rather than allocate). Sequences normally arrive in
    /// forward order, but a bounded step *backward* is legal too: the WGTT
    /// cyclic queue rewinds its head when backhaul jitter delivers an index
    /// late (see `CyclicQueue::insert`), so the transmit path may offer,
    /// say, 0 after 3. The window is kept in transmit order; acknowledgement
    /// and drop handling scan it positionally, so non-sorted contents are
    /// fine. Panics if the window is full.
    pub fn register(&mut self, seq: u16) {
        assert!(self.available() > 0, "Block ACK window full");
        debug_assert!(
            !self.window.iter().any(|&(s, _)| s == seq),
            "sequence {seq} registered twice: window={:?}",
            self.window
        );
        self.window.push_back((seq & (SEQ_SPACE - 1), false));
        // `next_seq` tracks the stream high-water mark; a late (rewound)
        // registration must not drag it backward.
        let candidate = seq_add(seq, 1);
        if seq_fwd_dist(self.next_seq, candidate) < SEQ_SPACE / 2 {
            self.next_seq = candidate;
        }
    }

    /// Whether `seq` is currently in the window (outstanding, acked or
    /// not). The transmit path must not register a sequence twice, so
    /// ingest layers use this to recognise duplicate deliveries of a frame
    /// that is still in the MAC pipeline.
    pub fn in_window(&self, seq: u16) -> bool {
        let seq = seq & (SEQ_SPACE - 1);
        self.window.iter().any(|&(s, _)| s == seq)
    }

    /// Sequences that still need (re)transmission: every outstanding,
    /// un-acked MPDU, in order.
    pub fn unacked(&self) -> Vec<u16> {
        self.window
            .iter()
            .filter(|&&(_, acked)| !acked)
            .map(|&(s, _)| s)
            .collect()
    }

    /// Whether any outstanding MPDU still needs (re)transmission.
    pub fn has_unacked(&self) -> bool {
        self.window.iter().any(|&(_, acked)| !acked)
    }

    /// Whether `seq` is outstanding and not yet acknowledged.
    pub fn is_unacked(&self, seq: u16) -> bool {
        self.window.contains(&(seq, false))
    }

    /// Consumes a Block ACK, returning the sequences *newly* acknowledged.
    /// The window head advances past contiguously acked MPDUs. The world
    /// applies every Block ACK through [`Self::on_block_ack_into`]; this
    /// allocating form stays for `benchmark/src/kernels.rs`, which times it.
    pub fn on_block_ack(&mut self, ba: &BlockAckFrame) -> Vec<u16> {
        let mut newly = Vec::new();
        self.on_block_ack_into(ba, &mut newly);
        newly
    }

    /// [`Self::on_block_ack`], writing the newly acknowledged sequences
    /// over `newly` — a buffer the caller keeps between Block ACKs.
    pub fn on_block_ack_into(&mut self, ba: &BlockAckFrame, newly: &mut Vec<u16>) {
        newly.clear();
        for (seq, acked) in self.window.iter_mut() {
            if !*acked && ba.covers(*seq) {
                *acked = true;
                newly.push(*seq);
            }
        }
        while let Some(&(_, true)) = self.window.front() {
            self.window.pop_front();
        }
    }

    /// Drops an outstanding MPDU without acknowledgement (e.g. retry limit
    /// reached or the WGTT switch discarded it). Returns `true` if present.
    pub fn drop_seq(&mut self, seq: u16) -> bool {
        if let Some(pos) = self.window.iter().position(|&(s, _)| s == seq) {
            self.window.remove(pos);
            // Removing the head may expose acked entries.
            while let Some(&(_, true)) = self.window.front() {
                self.window.pop_front();
            }
            true
        } else {
            false
        }
    }

    /// Clears all outstanding state (used when a WGTT switch flushes an
    /// AP's queue for a client).
    pub fn flush(&mut self) {
        self.window.clear();
    }
}

/// Receiver-side scoreboard: records arrivals, answers with a Block ACK.
#[derive(Debug, Clone)]
pub struct RxReorder {
    win_start: u16,
    /// Bit `i` set ⇒ `win_start + i` received.
    received: u64,
    /// Total distinct MPDUs accepted.
    accepted: u64,
    /// Total duplicate MPDUs seen.
    duplicates: u64,
}

impl Default for RxReorder {
    fn default() -> Self {
        Self::new(0)
    }
}

impl RxReorder {
    /// Creates a reorderer expecting `start` as the first sequence.
    pub fn new(start: u16) -> Self {
        RxReorder {
            win_start: start & (SEQ_SPACE - 1),
            received: 0,
            accepted: 0,
            duplicates: 0,
        }
    }

    /// Current window start.
    pub fn win_start(&self) -> u16 {
        self.win_start
    }

    /// Distinct MPDUs accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Duplicates observed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Records an arriving MPDU. Returns `true` if it is new. Sequences
    /// more than a window ahead slide the window forward (802.11 receiver
    /// behaviour).
    pub fn on_mpdu(&mut self, seq: u16) -> bool {
        let d = seq_fwd_dist(self.win_start, seq);
        if d >= 2048 {
            // Behind the window: an old retransmission → duplicate.
            self.duplicates += 1;
            return false;
        }
        if d >= 64 {
            // Ahead of the window: slide so `seq` is the last slot.
            let shift = d - 63;
            self.received >>= shift.min(63) as u64;
            if shift >= 64 {
                self.received = 0;
            }
            self.win_start = seq_add(self.win_start, shift);
        }
        let d = seq_fwd_dist(self.win_start, seq) as u64;
        if (self.received >> d) & 1 == 1 {
            self.duplicates += 1;
            false
        } else {
            self.received |= 1 << d;
            self.accepted += 1;
            true
        }
    }

    /// Builds the Block ACK response for the current window.
    pub fn block_ack(&self) -> BlockAckFrame {
        BlockAckFrame {
            start_seq: self.win_start,
            bitmap: self.received,
        }
    }

    /// Gives up on the head-of-window hole: advances the window start to
    /// the first received MPDU (the 802.11 reorder-buffer *release timeout*
    /// behaviour — without it, a hole left by frames that will never be
    /// retransmitted stalls delivery forever). Returns how many sequence
    /// positions were skipped, 0 if there is no buffered frame.
    pub fn skip_hole(&mut self) -> u32 {
        if self.received == 0 {
            return 0;
        }
        let skip = self.received.trailing_zeros();
        if skip > 0 {
            self.received >>= skip;
            self.win_start = seq_add(self.win_start, skip as u16);
        }
        skip
    }

    /// Advances the window start past contiguously received MPDUs
    /// (delivery to the upper layer).
    pub fn release_in_order(&mut self) -> u32 {
        let run = (!self.received).trailing_zeros().min(64);
        if run > 0 {
            self.received = if run >= 64 { 0 } else { self.received >> run };
            self.win_start = seq_add(self.win_start, run as u16);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_arithmetic_wraps() {
        assert_eq!(seq_add(4095, 1), 0);
        assert_eq!(seq_add(4090, 10), 4);
        assert_eq!(seq_fwd_dist(4090, 4), 10);
        assert_eq!(seq_fwd_dist(4, 4090), 4086);
        assert_eq!(seq_fwd_dist(7, 7), 0);
    }

    #[test]
    fn assign_is_sequential_and_windowed() {
        let mut tx = TxScoreboard::new(4090);
        let seqs: Vec<u16> = (0..10).map(|_| tx.assign()).collect();
        assert_eq!(&seqs[..8], &[4090, 4091, 4092, 4093, 4094, 4095, 0, 1]);
        assert_eq!(tx.outstanding(), 10);
        assert_eq!(tx.available(), 54);
        assert_eq!(tx.win_start(), 4090);
    }

    #[test]
    #[should_panic]
    fn assign_beyond_window_panics() {
        let mut tx = TxScoreboard::new(0);
        for _ in 0..65 {
            tx.assign();
        }
    }

    #[test]
    fn covers_is_cumulative_below_window() {
        let ba = BlockAckFrame {
            start_seq: 100,
            bitmap: 0b1,
        };
        assert!(ba.covers(100));
        assert!(!ba.covers(101));
        // Everything behind the window start is implicitly acked.
        assert!(ba.covers(99));
        assert!(ba.covers(50));
        assert!(!ba.acks(99));
    }

    #[test]
    fn register_external_sequences() {
        let mut tx = TxScoreboard::new(0);
        tx.register(10);
        tx.register(11);
        tx.register(15); // gaps allowed (some indices were never sent here)
        assert_eq!(tx.win_start(), 10);
        assert_eq!(tx.unacked(), vec![10, 11, 15]);
        let ba = BlockAckFrame {
            start_seq: 10,
            bitmap: 0b100011,
        };
        assert_eq!(tx.on_block_ack(&ba), vec![10, 11, 15]);
        assert_eq!(tx.outstanding(), 0);
        // next fresh follows the last registered.
        assert_eq!(tx.win_start(), 16);
    }

    #[test]
    fn block_ack_marks_and_advances() {
        let mut tx = TxScoreboard::new(0);
        for _ in 0..4 {
            tx.assign();
        }
        // Ack 0, 1, 3 — leaving a hole at 2.
        let ba = BlockAckFrame {
            start_seq: 0,
            bitmap: 0b1011,
        };
        let newly = tx.on_block_ack(&ba);
        assert_eq!(newly, vec![0, 1, 3]);
        assert_eq!(tx.win_start(), 2);
        assert_eq!(tx.unacked(), vec![2]);
        // The allocation-free queries agree: 3 is in the window but acked,
        // 1 has left it.
        assert!(tx.has_unacked());
        assert_eq!([1, 2, 3].map(|s| tx.is_unacked(s)), [false, true, false]);
        // Re-acking is idempotent, and a kept buffer is overwritten.
        let mut kept = newly;
        tx.on_block_ack_into(&ba, &mut kept);
        assert!(kept.is_empty());
        // Acking the hole drains the window.
        let ba2 = BlockAckFrame {
            start_seq: 2,
            bitmap: 0b1,
        };
        assert_eq!(tx.on_block_ack(&ba2), vec![2]);
        assert_eq!(tx.outstanding(), 0);
        assert_eq!(tx.win_start(), 4); // next fresh
    }

    #[test]
    fn lost_block_ack_leaves_all_unacked() {
        // The §3.2.1 failure mode: no BA arrives, so every MPDU looks
        // unacked and would be retransmitted.
        let mut tx = TxScoreboard::new(100);
        let seqs: Vec<u16> = (0..20).map(|_| tx.assign()).collect();
        assert_eq!(tx.unacked(), seqs);
    }

    #[test]
    fn drop_seq_removes() {
        let mut tx = TxScoreboard::new(0);
        for _ in 0..3 {
            tx.assign();
        }
        assert!(tx.drop_seq(1));
        assert!(!tx.drop_seq(1));
        assert_eq!(tx.unacked(), vec![0, 2]);
        // Dropping the head after acking the rest advances fully.
        let ba = BlockAckFrame {
            start_seq: 0,
            bitmap: 0b100,
        };
        tx.on_block_ack(&ba);
        assert!(tx.drop_seq(0));
        assert_eq!(tx.outstanding(), 0);
        tx.flush();
        assert_eq!(tx.outstanding(), 0);
    }

    #[test]
    fn rx_records_and_responds() {
        let mut rx = RxReorder::new(0);
        assert!(rx.on_mpdu(0));
        assert!(rx.on_mpdu(2));
        assert!(!rx.on_mpdu(2)); // duplicate
        let ba = rx.block_ack();
        assert_eq!(ba.start_seq, 0);
        assert_eq!(ba.bitmap, 0b101);
        assert!(ba.acks(0));
        assert!(!ba.acks(1));
        assert!(ba.acks(2));
        assert_eq!(rx.accepted(), 2);
        assert_eq!(rx.duplicates(), 1);
    }

    #[test]
    fn rx_release_in_order() {
        let mut rx = RxReorder::new(10);
        rx.on_mpdu(10);
        rx.on_mpdu(11);
        rx.on_mpdu(13);
        assert_eq!(rx.release_in_order(), 2);
        assert_eq!(rx.win_start(), 12);
        // 13 still buffered.
        assert_eq!(rx.block_ack().bitmap, 0b10);
        assert_eq!(rx.release_in_order(), 0);
        rx.on_mpdu(12);
        assert_eq!(rx.release_in_order(), 2);
        assert_eq!(rx.win_start(), 14);
    }

    #[test]
    fn rx_window_slides_on_far_ahead_seq() {
        let mut rx = RxReorder::new(0);
        rx.on_mpdu(0);
        rx.release_in_order();
        // Jump 100 ahead: window must slide.
        assert!(rx.on_mpdu(101));
        let d = seq_fwd_dist(rx.win_start(), 101);
        assert!(d < 64);
        assert!(rx.block_ack().acks(101));
    }

    #[test]
    fn rx_old_seq_is_duplicate() {
        let mut rx = RxReorder::new(100);
        rx.on_mpdu(100);
        rx.release_in_order();
        assert!(!rx.on_mpdu(90)); // behind: old retransmission
        assert_eq!(rx.duplicates(), 1);
    }

    #[test]
    fn tx_rx_roundtrip_with_loss() {
        // Transmit 30 MPDUs, lose one third on "air", ack the rest, then
        // retransmit stragglers until the window drains.
        let mut tx = TxScoreboard::new(4000); // crosses the wrap
        let mut rx = RxReorder::new(4000);
        let seqs: Vec<u16> = (0..30).map(|_| tx.assign()).collect();
        for (i, &s) in seqs.iter().enumerate() {
            if i % 3 != 0 {
                rx.on_mpdu(s);
            }
        }
        tx.on_block_ack(&rx.block_ack());
        let mut rounds = 0;
        while tx.outstanding() > 0 {
            for s in tx.unacked() {
                rx.on_mpdu(s);
            }
            tx.on_block_ack(&rx.block_ack());
            rounds += 1;
            assert!(rounds < 5, "did not converge");
        }
        assert_eq!(rx.accepted(), 30);
    }
}
