//! The WGTT controller's state (paper Figs 3, 5).
//!
//! The controller sits between the traffic server and the AP array. Per
//! client it keeps an [`ApSelector`] (ESNR windows + switching decision), a
//! 12-bit [`IndexAllocator`] for downlink packets, the current serving AP,
//! the [`SwitchEngine`] tracking in-flight `stop`/`start`/`ack` exchanges,
//! and the uplink [`Deduplicator`]. In baseline mode only the serving map
//! and dedup-free bridging are used.

use crate::cyclic::IndexAllocator;
use crate::dedup::Deduplicator;
use crate::health::ApHealth;
use crate::recovery::{resync_verdicts, ResyncAction};
use crate::replica::ClientJournalState;
use crate::selection::{ApSelector, SelectionConfig};
use crate::switching::{AckOutcome, ResyncReply, SwitchEngine};
use std::collections::HashMap;
use wgtt_net::{ApId, ClientId};
use wgtt_sim::SimTime;

/// Controller state.
#[derive(Debug)]
pub struct ControllerState {
    selection_cfg: SelectionConfig,
    /// Per-client AP selection state.
    pub selectors: HashMap<ClientId, ApSelector>,
    /// Per-client downlink index allocation.
    pub allocators: HashMap<ClientId, IndexAllocator>,
    /// Current serving AP per client.
    pub serving: HashMap<ClientId, ApId>,
    /// Switch protocol engine.
    pub engine: SwitchEngine,
    /// Uplink de-duplication filter.
    pub dedup: Deduplicator,
    /// AP liveness tracking (CSI staleness + abandon blacklist).
    pub health: ApHealth,
}

impl ControllerState {
    /// Creates a controller.
    pub fn new(selection_cfg: SelectionConfig) -> Self {
        ControllerState {
            selection_cfg,
            selectors: HashMap::new(),
            allocators: HashMap::new(),
            serving: HashMap::new(),
            engine: SwitchEngine::new(),
            dedup: Deduplicator::default(),
            health: ApHealth::default(),
        }
    }

    /// The selector for a client, created on first reference.
    pub fn selector_mut(&mut self, client: ClientId) -> &mut ApSelector {
        let cfg = self.selection_cfg;
        self.selectors
            .entry(client)
            .or_insert_with(|| ApSelector::new(cfg))
    }

    /// Ingests a CSI report from an AP.
    pub fn on_csi(&mut self, now: SimTime, ap: ApId, client: ClientId, esnr_db: f64) {
        self.health.on_csi(ap, now);
        self.selector_mut(client).on_reading(ap, now, esnr_db);
    }

    /// Processes a switch `ack`: the engine validates source AP and epoch
    /// before closing, and a genuine completion doubles as epoch-keyed
    /// proof of life for the target AP (a stale straggler does not).
    pub fn on_switch_ack(
        &mut self,
        now: SimTime,
        client: ClientId,
        from_ap: ApId,
        epoch: u32,
    ) -> AckOutcome {
        let out = self.engine.on_ack(now, client, from_ap, epoch);
        if let AckOutcome::Completed(rec) = out {
            self.serving.insert(client, rec.to);
            self.health.on_ack_proof(rec.to, rec.epoch);
        }
        out
    }

    /// Assigns the next downlink index for a client.
    pub fn assign_index(&mut self, client: ClientId) -> u16 {
        self.allocators.entry(client).or_default().allocate()
    }

    /// Index the next downlink packet will get (without consuming it).
    pub fn peek_index(&mut self, client: ClientId) -> u16 {
        self.allocators.entry(client).or_default().peek()
    }

    /// The serving AP for a client.
    pub fn serving(&self, client: ClientId) -> Option<ApId> {
        self.serving.get(&client).copied()
    }

    /// Models the controller process dying: every piece of soft state —
    /// selectors, downlink index allocators, the serving map, the switch
    /// engine (epochs included), the uplink dedup table, and the health
    /// tracker — is dropped in place. Only the static selection
    /// configuration survives; everything else must be rebuilt — from the
    /// journal if a standby took over, and from the AP resync replies
    /// either way — before the controller can safely issue switches.
    pub fn crash_wipe(&mut self) {
        self.selectors.clear();
        self.allocators.clear();
        self.serving.clear();
        self.engine.crash_wipe();
        self.dedup = Deduplicator::default();
        self.health = ApHealth::default();
    }

    /// Rebuilds the controller's state from the APs' resync replies (the
    /// APs hold the authoritative copies) and returns one action per
    /// client the replies mention ([`resync_verdicts`] decides them):
    ///
    /// * switch epochs resume **strictly above** the maximum guard
    ///   high-water any AP reported, so no recycled generation can alias
    ///   an in-flight pre-crash frame;
    /// * the dedup table is re-primed with every recently-forwarded key,
    ///   so no duplicate uplink delivery crosses the restart;
    /// * the health tracker counts each reply as proof of life;
    /// * index allocators resume at the chosen AP's queue tail;
    /// * the serving map follows the verdict: the claimant kept, or — for
    ///   a client nobody claims — no entry until the repair `start` is
    ///   acked, whatever a journal restored;
    /// * serving conflicts (dual claim / no claim) surface as repair
    ///   actions for the caller to resolve with fresh epoch-stamped
    ///   protocol traffic.
    pub fn apply_resync(&mut self, now: SimTime, replies: &[ResyncReply]) -> Vec<ResyncAction> {
        self.engine.resume_from_resync(replies);
        for reply in replies {
            self.health.on_resync_reply(reply.ap, now);
            // APs report the keys they recently forwarded; marking them
            // seen makes the rebuilt filter at least as strict as the lost
            // one, so a copy whose first delivery predates the crash still
            // drops instead of reaching the Internet twice.
            for &key in &reply.recent_uplink_keys {
                self.dedup.check_key(key);
            }
        }
        let mut actions = Vec::new();
        for (action, tail) in resync_verdicts(replies) {
            let client = match action {
                ResyncAction::Adopted { client, ap: adopt }
                | ResyncAction::RepairSwitch { client, adopt, .. } => {
                    self.serving.insert(client, adopt);
                    client
                }
                ResyncAction::RepairAdopt { client, .. } => {
                    self.serving.remove(&client);
                    client
                }
            };
            self.allocators.entry(client).or_default().resume_at(tail);
            actions.push(action);
        }
        actions
    }

    /// Snapshots the journaled subset of the controller's soft state for
    /// one [`crate::replica::JournalBatch`]: per-client epoch high water,
    /// serving AP, and allocator position for every client any of those
    /// maps mention, in ascending client order so standby replay is
    /// deterministic.
    pub fn journal_snapshot(&self) -> Vec<ClientJournalState> {
        let mut clients = self.engine.journal_snapshot();
        for &client in self.serving.keys().chain(self.allocators.keys()) {
            if let Err(at) = clients.binary_search_by_key(&client, |s| s.client) {
                // Known to the serving map or an allocator only.
                let blank = ClientJournalState {
                    client,
                    epoch: 0,
                    serving: None,
                    alloc_next: 0,
                };
                clients.insert(at, blank);
            }
        }
        for s in &mut clients {
            s.serving = self.serving.get(&s.client).copied();
            s.alloc_next = self.allocators.get(&s.client).map_or(0, |a| a.peek());
        }
        clients
    }

    /// Restores what a standby's journal held at takeover, before the new
    /// term's resync round ([`ControllerState::apply_resync`]) overrides it
    /// with what the APs report — the journal can trail the crash by a
    /// batch, so it seeds the round rather than replacing it:
    ///
    /// * epochs resume strictly above the journaled high water;
    /// * the serving map and index allocators are restored in place, for
    ///   clients no reply mentions;
    /// * the dedup table is re-primed with the journaled key ring, beside
    ///   the keys the APs' rings re-prime, so no duplicate uplink delivery
    ///   crosses the takeover.
    ///
    /// Selector windows and health state are deliberately NOT journaled —
    /// live CSI rebuilds them within one staleness horizon — and neither
    /// are in-flight switches: the round finds any the crash left
    /// half-open.
    pub fn restore_from_journal(&mut self, clients: &[ClientJournalState], keys: &[u64]) {
        self.engine.restore_from_journal(clients);
        for cs in clients {
            if let Some(ap) = cs.serving {
                self.serving.insert(cs.client, ap);
            }
            self.allocators
                .entry(cs.client)
                .or_default()
                .resume_at(cs.alloc_next);
        }
        for &k in keys {
            self.dedup.check_key(k); // re-prime as seen
        }
    }

    /// Imports the controller-side half of an inter-controller migration
    /// record — the warm-handoff analogue of
    /// [`ControllerState::restore_from_journal`], with the *source
    /// controller*, not a journal or the APs, as the source of truth:
    ///
    /// * the client's switch epochs resume strictly above the source's
    ///   high-water, so straggler control frames stamped in the source
    ///   space can never alias a live generation here;
    /// * the source's recently-seen uplink idents are re-primed under the
    ///   client's address in *this* world, so cross-seam retransmits of
    ///   already-delivered packets drop instead of reaching the Internet
    ///   twice.
    ///
    /// Selector windows, health state, and the serving map are NOT
    /// imported: the client re-associates through normal selection once
    /// its first CSI lands, exactly like a resync-repaired client.
    ///
    /// Both halves are monotone — the epoch floor joins by max and key
    /// priming is a no-op for seen keys — so applying the same record twice
    /// leaves the controller byte-equal to applying it once. A re-exported
    /// record reaching a controller that **already admitted** the client
    /// (the source aborted on a lost commit, readopted, and handed over
    /// again) takes this same path, even with a switch in flight.
    pub fn import_migration(&mut self, client: ClientId, epoch_max: u32, idents: &[u16]) {
        self.engine.resume_epochs_above(client, epoch_max);
        for &ident in idents {
            self.dedup.check_key(Deduplicator::key(client, ident));
        }
    }

    /// The fan-out set for a client's downlink packets, written over `out`
    /// as ascending AP indices: all APs heard from within the fan-out
    /// horizon plus (always) the serving AP.
    pub fn fanout(&mut self, now: SimTime, client: ClientId, out: &mut Vec<usize>) {
        const FANOUT_HORIZON: wgtt_sim::SimDuration = wgtt_sim::SimDuration::from_millis(100);
        let serving = self.serving(client);
        let heard = self.selector_mut(client).heard_within(now, FANOUT_HORIZON);
        out.clear();
        out.extend(heard.map(|ap| ap.0 as usize));
        if let Some(s) = serving.map(|ap| ap.0 as usize) {
            if let Err(at) = out.binary_search(&s) {
                out.insert(at, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switching::ClientResyncState;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn index_assignment_per_client() {
        let mut c = ControllerState::new(SelectionConfig::default());
        assert_eq!(c.assign_index(ClientId(0)), 0);
        assert_eq!(c.assign_index(ClientId(0)), 1);
        assert_eq!(c.assign_index(ClientId(1)), 0);
        assert_eq!(c.peek_index(ClientId(0)), 2);
    }

    #[test]
    fn fanout_includes_serving_even_when_stale() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(0);
        c.on_csi(t(100), ApId(2), client, 20.0);
        c.on_csi(t(100), ApId(3), client, 22.0);
        c.serving.insert(client, ApId(7)); // serving but no fresh CSI
        let mut f = vec![9; 4]; // whatever the last packet left behind
        c.fanout(t(101), client, &mut f);
        assert_eq!(f, [2, 3, 7]);
        // Within the 100 ms fan-out horizon the APs are still targeted
        // even though the 10 ms selection window has forgotten them…
        c.fanout(t(150), client, &mut f);
        assert_eq!(f, [2, 3, 7]);
        // …much later all CSI is stale; only serving remains.
        c.fanout(t(500), client, &mut f);
        assert_eq!(f, [7]);
        // A serving AP below the ones heard goes in front of them.
        c.on_csi(t(600), ApId(8), client, 20.0);
        c.serving.insert(client, ApId(5));
        c.fanout(t(601), client, &mut f);
        assert_eq!(f, [5, 8]);
    }

    #[test]
    fn fanout_no_duplicates() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(0);
        c.on_csi(t(10), ApId(1), client, 15.0);
        c.serving.insert(client, ApId(1));
        let mut f = Vec::new();
        c.fanout(t(11), client, &mut f);
        assert_eq!(f, [1]);
    }

    #[test]
    fn switch_ack_validates_and_updates_serving() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(0);
        c.serving.insert(client, ApId(0));
        c.engine.issue(t(0), client, ApId(0), ApId(1));
        // Stale epoch and wrong source leave serving untouched.
        assert_eq!(
            c.on_switch_ack(t(5), client, ApId(1), 0),
            AckOutcome::StaleEpoch
        );
        assert_eq!(
            c.on_switch_ack(t(6), client, ApId(2), 1),
            AckOutcome::WrongSource
        );
        assert_eq!(c.serving(client), Some(ApId(0)));
        // The genuine ack completes and flips serving.
        assert!(matches!(
            c.on_switch_ack(t(10), client, ApId(1), 1),
            AckOutcome::Completed(_)
        ));
        assert_eq!(c.serving(client), Some(ApId(1)));
    }

    #[test]
    fn completed_ack_is_epoch_keyed_proof_of_life() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(0);
        // Epoch 1 against ApId(1) was abandoned and blacklisted it.
        c.engine.issue(t(0), client, ApId(0), ApId(1));
        c.engine.abort(client);
        c.health.on_abandon(ApId(1), t(0), 1);
        assert!(c.health.is_blacklisted(ApId(1), t(10)));
        // A stale epoch-1 ack straggling in cannot lift the blacklist: the
        // engine has no pending switch, so it never reaches the health
        // layer.
        assert_eq!(
            c.on_switch_ack(t(15), client, ApId(1), 1),
            AckOutcome::NoPending
        );
        assert!(c.health.is_blacklisted(ApId(1), t(15)));
        // Epoch 2 switch to the blacklisted AP completes → proof of life.
        c.engine.issue(t(20), client, ApId(0), ApId(1));
        assert_eq!(c.engine.current_epoch(client), 2);
        assert!(matches!(
            c.on_switch_ack(t(30), client, ApId(1), 2),
            AckOutcome::Completed(_)
        ));
        assert!(!c.health.is_blacklisted(ApId(1), t(30)));
    }

    fn resync_state(
        client: ClientId,
        epoch_high_water: u32,
        start_applied: u32,
        serving: bool,
        queue_head: u16,
        queue_tail: u16,
    ) -> ClientResyncState {
        ClientResyncState {
            client,
            epoch_high_water,
            start_applied,
            serving,
            queue_head,
            queue_tail,
        }
    }

    #[test]
    fn crash_wipe_drops_all_soft_state_but_keeps_config() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(0);
        c.on_csi(t(10), ApId(1), client, 20.0);
        c.engine.issue(t(10), client, ApId(0), ApId(1));
        c.assign_index(client);
        c.serving.insert(client, ApId(0));
        c.dedup.check_key(42);
        c.crash_wipe();
        assert!(c.serving.is_empty());
        assert!(c.selectors.is_empty());
        assert!(c.allocators.is_empty());
        assert_eq!(c.engine.current_epoch(client), 0);
        assert!(!c.engine.in_flight(client));
        assert!(c.dedup.is_empty());
        assert_eq!(c.health.last_csi(ApId(1)), None);
        // The selection config survives: selectors can be rebuilt.
        c.selector_mut(client);
    }

    #[test]
    fn resync_restores_unanimous_serving_and_epoch_floor() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(3);
        let replies = vec![
            ResyncReply {
                ap: ApId(0),
                seq: 1,
                clients: vec![resync_state(client, 4, 0, false, 90, 100)],
                recent_uplink_keys: vec![7, 8],
            },
            ResyncReply {
                ap: ApId(1),
                seq: 1,
                clients: vec![resync_state(client, 4, 4, true, 95, 101)],
                recent_uplink_keys: vec![8, 9],
            },
        ];
        let actions = c.apply_resync(t(500), &replies);
        assert_eq!(
            actions,
            vec![ResyncAction::Adopted {
                client,
                ap: ApId(1)
            }]
        );
        assert_eq!(c.serving(client), Some(ApId(1)));
        // Epochs resume strictly above the reported high-water.
        assert_eq!(c.engine.allocate_epoch(client), 5);
        // The allocator resumes at the serving AP's tail.
        assert_eq!(c.peek_index(client), 101);
        // Dedup was re-primed: the reported keys now drop as duplicates.
        assert_eq!(c.dedup.len(), 3);
        assert!(!c.dedup.check_key(7));
        assert!(!c.dedup.check_key(9));
        // Replies were proof of life.
        assert_eq!(c.health.last_csi(ApId(0)), Some(t(500)));
    }

    #[test]
    fn resync_repairs_dual_serving_toward_newest_start() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(0);
        let replies = vec![
            ResyncReply {
                ap: ApId(2),
                seq: 1,
                clients: vec![resync_state(client, 6, 6, true, 80, 90)],
                recent_uplink_keys: vec![],
            },
            ResyncReply {
                ap: ApId(5),
                seq: 1,
                clients: vec![resync_state(client, 5, 5, true, 70, 88)],
                recent_uplink_keys: vec![],
            },
        ];
        let actions = c.apply_resync(t(100), &replies);
        assert_eq!(
            actions,
            vec![ResyncAction::RepairSwitch {
                client,
                stop: ApId(5),
                adopt: ApId(2),
            }]
        );
        assert_eq!(c.serving(client), Some(ApId(2)));
    }

    #[test]
    fn resync_readopts_orphaned_mid_protocol_client() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(1);
        // A journal restored before the round still names AP2.
        c.serving.insert(client, ApId(2));
        // Stop applied at AP0 (serving=false, saw epoch 3), start never
        // landed anywhere; AP1 only ever saw epoch 1.
        let replies = vec![
            ResyncReply {
                ap: ApId(0),
                seq: 1,
                clients: vec![resync_state(client, 3, 2, false, 55, 60)],
                recent_uplink_keys: vec![],
            },
            ResyncReply {
                ap: ApId(1),
                seq: 1,
                clients: vec![resync_state(client, 1, 1, false, 40, 60)],
                recent_uplink_keys: vec![],
            },
        ];
        let actions = c.apply_resync(t(100), &replies);
        assert_eq!(
            actions,
            vec![ResyncAction::RepairAdopt {
                client,
                adopt: ApId(0),
                head: 55,
            }]
        );
        // Not serving until the repair start is acked.
        assert_eq!(c.serving(client), None);
        // A fresh repair epoch is strictly above anything reported.
        assert_eq!(c.engine.allocate_epoch(client), 4);
    }

    #[test]
    fn resync_ignores_clients_never_touched_by_the_protocol() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let replies = vec![ResyncReply {
            ap: ApId(0),
            seq: 1,
            clients: vec![resync_state(ClientId(9), 0, 0, false, 0, 0)],
            recent_uplink_keys: vec![],
        }];
        assert!(c.apply_resync(t(100), &replies).is_empty());
    }

    #[test]
    fn journal_snapshot_is_sorted_and_complete() {
        let mut c = ControllerState::new(SelectionConfig::default());
        // Client 5: mid-switch. Client 2: settled. Client 9: only an
        // allocator (saw downlink before any switch).
        c.serving.insert(ClientId(5), ApId(0));
        c.engine.issue(t(10), ClientId(5), ApId(0), ApId(1));
        c.serving.insert(ClientId(2), ApId(3));
        c.engine.issue(t(0), ClientId(2), ApId(2), ApId(3));
        c.on_switch_ack(t(5), ClientId(2), ApId(3), 1);
        c.assign_index(ClientId(9));
        let clients = c.journal_snapshot();
        let ids: Vec<ClientId> = clients.iter().map(|s| s.client).collect();
        assert_eq!(ids, vec![ClientId(2), ClientId(5), ClientId(9)]);
        let c5 = clients.iter().find(|s| s.client == ClientId(5)).unwrap();
        assert_eq!(c5.epoch, 1);
        assert_eq!(c5.serving, Some(ApId(0)));
    }

    #[test]
    fn journal_restore_mirrors_resync_guarantees() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let snapshot = vec![
            ClientJournalState {
                client: ClientId(1),
                epoch: 4,
                serving: Some(ApId(2)),
                alloc_next: 77,
            },
            ClientJournalState {
                client: ClientId(8),
                epoch: 2,
                serving: None,
                alloc_next: 0,
            },
        ];
        c.restore_from_journal(&snapshot, &[111, 222]);
        // Epochs resume strictly above the journaled high water.
        assert_eq!(c.engine.allocate_epoch(ClientId(1)), 5);
        assert_eq!(c.engine.allocate_epoch(ClientId(8)), 3);
        assert_eq!(c.serving(ClientId(1)), Some(ApId(2)));
        assert_eq!(c.serving(ClientId(8)), None);
        assert_eq!(c.peek_index(ClientId(1)), 77);
        // Re-primed keys drop as duplicates.
        assert_eq!(c.dedup.len(), 2);
        assert!(!c.dedup.check_key(111));
        assert!(!c.dedup.check_key(222));
        assert!(c.dedup.check_key(333));
    }

    #[test]
    fn migration_import_adopts_epoch_space_and_primes_idents() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(4);
        c.import_migration(client, 7, &[10, 11]);
        // The first epoch issued here is strictly above the source's max.
        assert_eq!(c.engine.allocate_epoch(client), 8);
        // Transferred idents drop as duplicates under the new address…
        assert!(!c.dedup.check_key(Deduplicator::key(client, 10)));
        assert!(!c.dedup.check_key(Deduplicator::key(client, 11)));
        // …without poisoning other clients or fresh idents.
        assert!(c.dedup.check_key(Deduplicator::key(client, 12)));
        assert!(c.dedup.check_key(Deduplicator::key(ClientId(5), 10)));
        // No serving entry is invented: the migrant re-associates via
        // selection.
        assert_eq!(c.serving(client), None);
    }

    #[test]
    fn selector_feeds_decisions() {
        let mut c = ControllerState::new(SelectionConfig::default());
        let client = ClientId(3);
        for i in 0..5 {
            c.on_csi(t(10 + i), ApId(0), client, 25.0);
        }
        let target = c.selector_mut(client).decide(t(15), None);
        assert_eq!(target, Some(ApId(0)));
        assert_eq!(c.serving(client), None);
    }

    /// Deterministic byte-level snapshot of everything a migration record
    /// touches: the client's epoch counter, the dedup filter's remembered
    /// keys in insertion order (per client, so hash layout cannot leak
    /// in), and the filter's size.
    fn migration_snapshot(c: &ControllerState, clients: u32) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for id in 0..clients {
            let id = ClientId(id);
            let _ = write!(
                s,
                "c{}:e{}:{:?};",
                id.0,
                c.engine.current_epoch(id),
                c.dedup.idents_for(id)
            );
        }
        let _ = write!(s, "len={}", c.dedup.len());
        s
    }

    /// Property: applying a migration record twice — the duplicated or
    /// retried `MigratePrepare` the seam can always deliver — leaves the
    /// controller byte-identical to applying it once, across randomized
    /// prior traffic and record contents. This is the state-level half of
    /// the seam idempotence claim: `resume_epochs_above` joins by max and
    /// re-priming a seen dedup key is a no-op, so the ledger in the sharded
    /// runner only has to suppress *side effects* (residue re-deposit,
    /// counters), never state corruption.
    #[test]
    fn migration_record_double_apply_is_byte_identical() {
        use wgtt_sim::SimRng;
        const CLIENTS: u32 = 8;
        for seed in 0..64u64 {
            // Deterministic generator: both controllers replay the same
            // prior history and receive the same record.
            let build = || {
                let mut rng = SimRng::new(0xD0D0 + seed).fork("merge-idem");
                let mut c = ControllerState::new(SelectionConfig::default());
                for _ in 0..rng.range(0..40usize) {
                    let id = ClientId(rng.range(0..CLIENTS));
                    let ident = rng.range(0..64u32) as u16;
                    let _ = c.dedup.check_key(Deduplicator::key(id, ident));
                }
                let migrant = ClientId(rng.range(0..CLIENTS));
                for _ in 0..rng.range(0..4usize) {
                    c.engine.allocate_epoch(migrant);
                }
                let epoch_max = rng.range(0..10u32);
                let n = rng.range(0..16usize);
                let idents: Vec<u16> = (0..n).map(|_| rng.range(0..64u32) as u16).collect();
                (c, migrant, epoch_max, idents)
            };
            let (mut once, migrant, epoch_max, idents) = build();
            once.import_migration(migrant, epoch_max, &idents);
            let (mut twice, migrant2, epoch_max2, idents2) = build();
            assert_eq!(migrant, migrant2);
            twice.import_migration(migrant2, epoch_max2, &idents2);
            twice.import_migration(migrant2, epoch_max2, &idents2);
            assert_eq!(
                migration_snapshot(&once, CLIENTS),
                migration_snapshot(&twice, CLIENTS),
                "seed {seed}: double-applied record diverged"
            );
        }
    }
}
