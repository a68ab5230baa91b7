//! Warm-standby controller replication: the deterministic state journal
//! a primary controller ships over the backhaul and the standby-side
//! replica that tails it.
//!
//! The journal is snapshot-style: every batch carries the primary's full
//! per-client soft state (switch-epoch high water, serving AP, downlink
//! index allocator position) plus the *delta* of uplink dedup keys
//! forwarded since the previous batch, and doubles as the primary's
//! heartbeat. Snapshots make the replica insensitive to lost batches for
//! everything except the dedup-key deltas — a sequence gap therefore
//! marks the replica `gapped`, and a gapped takeover falls back to the
//! AP-sourced resync path (which rebuilds dedup keys from AP-held rings)
//! instead of trusting the journal alone.
//!
//! What is deliberately NOT journaled: selector windows, health tracker
//! state, and retransmission timers. All of it is reconstructible from
//! live CSI within one staleness horizon, and journaling timers would tie
//! the standby to the primary's event loop. The takeover the
//! [`crate::recovery`] engine decides re-drives in-flight switches from
//! the journaled pending set under a fresh epoch instead.

use wgtt_net::{ApId, ClientId};

/// One client's journaled controller-side soft state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One in-flight switch as journaled — enough for the standby to re-drive
/// it under a fresh epoch after takeover (the crash loses the `stop`
/// retransmission timer, so the switch would otherwise orphan its client
/// until resync or local re-adoption noticed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingJournalState {
    /// Client being switched.
    pub client: ClientId,
    /// AP being switched away from.
    pub from: ApId,
    /// AP being switched to.
    pub to: ApId,
}

/// One journal batch, shipped primary → standby over the (faulty,
/// reorderable) backhaul every journal interval. Also the heartbeat: a
/// standby that stops receiving batches past its takeover timeout
/// declares the primary dead.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// In-flight switches at snapshot time, ascending client order.
    pub pending: Vec<PendingJournalState>,
    /// Uplink dedup keys forwarded since the previous batch (delta, not
    /// snapshot — the full table is unbounded).
    pub dedup_keys: Vec<u64>,
}

impl JournalBatch {
    /// Approximate wire size, for the backhaul latency model.
    pub fn wire_bytes(&self) -> usize {
        64 + self.clients.len() * 16 + self.pending.len() * 12 + self.dedup_keys.len() * 8
    }
}

/// Replica verdict on an incoming batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// In-order batch: snapshot replaced, key delta absorbed.
    Applied,
    /// Batch arrived after a gap in the sequence: the snapshot is still
    /// applied (it is self-contained), but one or more dedup-key deltas
    /// were missed — the replica is now `gapped` and a takeover must fall
    /// back to AP-sourced resync for the dedup re-prime.
    AppliedAfterGap,
    /// Sequence at or below the high-water mark: a reordered or
    /// duplicated stale batch, ignored entirely.
    Stale,
}

/// Upper bound on dedup keys the replica retains (oldest evicted first).
/// Sized well above what a journal interval's worth of uplink can carry
/// times the takeover timeout, and mirrors the AP-side recent-key rings
/// the resync fallback re-primes from.
pub const REPLICA_KEY_CAP: usize = 4096;

/// The standby's view of the primary, built by tailing the journal.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    /// Highest batch sequence applied (0 = never fed).
    last_seq: u64,
    /// Term of the primary whose journal this replica tails.
    term: u32,
    /// Whether any dedup-key delta was lost to a sequence gap.
    gapped: bool,
    /// Number of missing batches detected across all gaps.
    gaps: u64,
    /// Latest full per-client snapshot.
    clients: Vec<ClientJournalState>,
    /// In-flight switches at the latest snapshot.
    pending: Vec<PendingJournalState>,
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
        if gap {
            self.gapped = true;
            self.gaps += batch.seq - self.last_seq - 1;
        }
        self.last_seq = batch.seq;
        self.term = batch.term;
        self.clients = batch.clients.clone();
        self.pending = batch.pending.clone();
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

    /// Whether at least one batch was ever applied. A never-fed standby
    /// has nothing to rebuild from and must take over cold (resync path).
    pub fn fed(&self) -> bool {
        self.last_seq > 0
    }

    /// Whether a dedup-key delta was lost — the takeover must not trust
    /// the journaled key set and falls back to AP-sourced resync.
    pub fn gapped(&self) -> bool {
        self.gapped
    }

    /// Missing batches detected across all sequence gaps.
    pub fn gaps(&self) -> u64 {
        self.gaps
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

    /// In-flight switches at the latest snapshot.
    pub fn pending(&self) -> &[PendingJournalState] {
        &self.pending
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
            pending: Vec::new(),
            dedup_keys: keys.to_vec(),
        }
    }

    #[test]
    fn in_order_batches_apply_cleanly() {
        let mut r = Replica::new();
        assert!(!r.fed());
        assert_eq!(r.apply(&batch(1, &[10])), ApplyOutcome::Applied);
        assert_eq!(r.apply(&batch(2, &[11, 12])), ApplyOutcome::Applied);
        assert!(r.fed());
        assert!(!r.gapped());
        assert_eq!(r.last_seq(), 2);
        assert_eq!(r.keys(), &[10, 11, 12]);
        assert_eq!(r.clients()[0].epoch, 2);
    }

    #[test]
    fn gap_applies_snapshot_but_marks_replica() {
        let mut r = Replica::new();
        r.apply(&batch(1, &[10]));
        // Batches 2 and 3 lost on the backhaul.
        assert_eq!(r.apply(&batch(4, &[40])), ApplyOutcome::AppliedAfterGap);
        assert!(r.gapped(), "missed key deltas must poison the replica");
        assert_eq!(r.gaps(), 2);
        // The snapshot itself is still current — only keys are suspect.
        assert_eq!(r.clients()[0].epoch, 4);
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
        assert!(!r.gapped());
    }

    #[test]
    fn first_batch_above_one_is_a_clean_start_not_a_gap() {
        // A standby attached mid-reign starts at whatever seq it first
        // hears; only gaps *after* the first batch lose deltas it was
        // ever promised.
        let mut r = Replica::new();
        assert_eq!(r.apply(&batch(5, &[50])), ApplyOutcome::Applied);
        assert!(!r.gapped());
        // ...but it is also not trusted as complete: world-side takeover
        // only skips resync when the replica is both fed and un-gapped,
        // and a mid-reign attach still satisfies that because snapshots
        // are self-contained and pre-attach keys age out of relevance
        // within the takeover timeout.
        assert!(r.fed());
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
