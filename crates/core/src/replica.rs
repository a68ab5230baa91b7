//! Warm-standby controller replication: the deterministic state journal
//! a primary controller ships over the backhaul and the standby-side
//! replica that tails it.
//!
//! The journal is snapshot-style: every batch carries the primary's full
//! per-client soft state (switch-epoch high water, serving AP, downlink
//! index allocator position) plus the *delta* of uplink dedup keys
//! forwarded since the previous batch, and doubles as the primary's
//! heartbeat. Snapshots make the replica insensitive to lost batches for
//! everything except the dedup-key deltas; a sequence gap is counted
//! ([`ApplyOutcome::AppliedAfterGap`]), and the keys it lost are the ones
//! the APs' recent-key rings re-prime in the takeover's resync round.
//!
//! What is deliberately NOT journaled: selector windows, health tracker
//! state, retransmission timers, and in-flight switches. The journal can
//! trail the crash by a batch interval, so no switch it names is trusted:
//! every takeover the [`crate::recovery`] engine decides ends in the
//! term-stamped resync round, whose replies carry the APs' authoritative
//! guard high waters and serving claims (DESIGN.md §6c).

use wgtt_net::{ApId, ClientId};

/// One client's journaled controller-side soft state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientJournalState {
    /// Client this entry describes.
    pub client: ClientId,
    /// Highest switch epoch the primary has allocated for the client —
    /// the takeover feeds this through `resume_epochs_above` so the new
    /// controller can never re-issue a generation still alive in AP
    /// guards or in-flight frames.
    pub epoch: u32,
    /// The AP the primary believed was serving the client (None =
    /// unattached or mid-first-association).
    pub serving: Option<ApId>,
    /// The primary's downlink cyclic-index allocator position for the
    /// client (the next index it would have stamped).
    pub alloc_next: u16,
}

/// One journal batch, shipped primary → standby over the (faulty,
/// reorderable) backhaul every journal interval. Also the heartbeat: a
/// standby that stops receiving batches past its takeover timeout
/// declares the primary dead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JournalBatch {
    /// Controller term of the shipping primary.
    pub term: u32,
    /// Batch sequence number, 1-based and strictly increasing per
    /// primary reign. The replica detects reorder (stale) and loss (gap)
    /// from it.
    pub seq: u64,
    /// Full per-client snapshot, ascending client order (the shipper
    /// sorts, so replay is deterministic).
    pub clients: Vec<ClientJournalState>,
    /// Uplink dedup keys forwarded since the previous batch (delta, not
    /// snapshot — the full table is unbounded).
    pub dedup_keys: Vec<u64>,
}

impl JournalBatch {
    /// Approximate wire size, for the backhaul latency model.
    pub fn wire_bytes(&self) -> usize {
        64 + self.clients.len() * 16 + self.dedup_keys.len() * 8
    }
}

/// Replica verdict on an incoming batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// In-order batch: snapshot replaced, key delta absorbed.
    Applied,
    /// Batch arrived after a gap in the sequence: the snapshot is still
    /// applied (it is self-contained), but one or more dedup-key deltas
    /// were missed — the takeover's resync round re-primes them from the
    /// APs' recent-key rings.
    AppliedAfterGap,
    /// Sequence at or below the high-water mark: a reordered or
    /// duplicated stale batch, ignored entirely.
    Stale,
}

/// Upper bound on dedup keys the replica retains (oldest evicted first).
/// Sized well above what a journal interval's worth of uplink can carry
/// times the takeover timeout, and mirrors the AP-side recent-key rings
/// the takeover's resync round re-primes from.
pub const REPLICA_KEY_CAP: usize = 4096;

/// The standby's view of the primary, built by tailing the journal.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Replica {
    /// Highest batch sequence applied (0 = never fed).
    last_seq: u64,
    /// Term of the primary whose journal this replica tails.
    term: u32,
    /// Latest full per-client snapshot.
    clients: Vec<ClientJournalState>,
    /// Accumulated dedup-key deltas, oldest first, bounded by
    /// [`REPLICA_KEY_CAP`].
    keys: Vec<u64>,
}

impl Replica {
    /// A fresh, never-fed replica.
    pub fn new() -> Self {
        Replica::default()
    }

    /// Absorbs one journal batch.
    pub fn apply(&mut self, batch: &JournalBatch) -> ApplyOutcome {
        if batch.seq <= self.last_seq {
            return ApplyOutcome::Stale;
        }
        let gap = self.last_seq > 0 && batch.seq > self.last_seq + 1;
        self.last_seq = batch.seq;
        self.term = batch.term;
        self.clients = batch.clients.clone();
        self.keys.extend_from_slice(&batch.dedup_keys);
        if self.keys.len() > REPLICA_KEY_CAP {
            let drop = self.keys.len() - REPLICA_KEY_CAP;
            self.keys.drain(..drop);
        }
        if gap {
            ApplyOutcome::AppliedAfterGap
        } else {
            ApplyOutcome::Applied
        }
    }

    /// Term of the journaling primary (0 = never fed).
    pub fn term(&self) -> u32 {
        self.term
    }

    /// Highest batch sequence applied.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Latest per-client snapshot.
    pub fn clients(&self) -> &[ClientJournalState] {
        &self.clients
    }

    /// Accumulated dedup keys, oldest first.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(seq: u64, keys: &[u64]) -> JournalBatch {
        JournalBatch {
            term: 1,
            seq,
            clients: vec![ClientJournalState {
                client: ClientId(0),
                epoch: seq as u32,
                serving: Some(ApId(2)),
                alloc_next: 7,
            }],
            dedup_keys: keys.to_vec(),
        }
    }

    #[test]
    fn in_order_batches_apply_cleanly() {
        let mut r = Replica::new();
        assert_eq!(r.last_seq(), 0);
        assert_eq!(r.apply(&batch(1, &[10])), ApplyOutcome::Applied);
        assert_eq!(r.apply(&batch(2, &[11, 12])), ApplyOutcome::Applied);
        assert_eq!(r.last_seq(), 2);
        assert_eq!(r.keys(), &[10, 11, 12]);
        assert_eq!(r.clients()[0].epoch, 2);
    }

    #[test]
    fn gap_applies_snapshot_and_says_so() {
        let mut r = Replica::new();
        r.apply(&batch(1, &[10]));
        // Batches 2 and 3 lost on the backhaul.
        assert_eq!(r.apply(&batch(4, &[40])), ApplyOutcome::AppliedAfterGap);
        // The snapshot itself is still current — only keys are missing.
        assert_eq!(r.clients()[0].epoch, 4);
        assert_eq!(r.keys(), &[10, 40]);
    }

    #[test]
    fn stale_and_duplicate_batches_are_ignored() {
        let mut r = Replica::new();
        r.apply(&batch(1, &[10]));
        r.apply(&batch(2, &[20]));
        // A reordered batch 1 (or duplicated batch 2) changes nothing —
        // in particular it must not rewind the snapshot or re-add keys.
        assert_eq!(r.apply(&batch(1, &[10])), ApplyOutcome::Stale);
        assert_eq!(r.apply(&batch(2, &[20])), ApplyOutcome::Stale);
        assert_eq!(r.keys(), &[10, 20]);
        assert_eq!(r.clients()[0].epoch, 2);
    }

    #[test]
    fn first_batch_above_one_is_a_clean_start_not_a_gap() {
        // A standby attached mid-reign starts at whatever seq it first
        // hears; only gaps *after* the first batch lose deltas it was
        // ever promised.
        let mut r = Replica::new();
        assert_eq!(r.apply(&batch(5, &[50])), ApplyOutcome::Applied);
        assert_eq!(r.apply(&batch(6, &[60])), ApplyOutcome::Applied);
    }

    #[test]
    fn key_ring_is_bounded() {
        let mut r = Replica::new();
        let keys: Vec<u64> = (0..REPLICA_KEY_CAP as u64 + 100).collect();
        r.apply(&JournalBatch {
            dedup_keys: keys,
            ..batch(1, &[])
        });
        assert_eq!(r.keys().len(), REPLICA_KEY_CAP);
        // Oldest evicted first.
        assert_eq!(r.keys()[0], 100);
    }
}
