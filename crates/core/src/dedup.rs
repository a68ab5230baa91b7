//! Uplink packet de-duplication (paper §3.2.2–3.2.3).
//!
//! Every associated AP forwards every uplink packet it hears to the
//! controller — that redundancy is WGTT's uplink diversity. Before handing
//! packets to the Internet the controller must drop the duplicate copies,
//! or TCP endpoints would see duplicated segments/ACKs and trigger spurious
//! retransmissions.
//!
//! The paper composes a 48-bit key from the source IP address (32 bits) and
//! the IP identification field (16 bits) and checks a hashset. The ident
//! field wraps every 65,536 packets, so entries must age out; we keep a
//! bounded FIFO of recent keys, which matches the real implementation's
//! behaviour (a hashset that is periodically pruned). The set that hashset
//! models is kept here as one 65,536-bit ident map per source (8 KiB,
//! allocated on the source's first key and freed when its last one ages
//! out) beside the FIFO, a ring of keys that grows up to the cap: a lookup
//! is a search over the few sources and a bit test, and a full table of
//! 16,384 keys from one source is 136 KiB.

use wgtt_net::{ClientId, Packet};
use wgtt_sim::queue::reserve_quarter;

/// Words in one source's ident map: a bit per 16-bit ident.
const MAP_WORDS: usize = (1 << 16) / 64;

/// One source's remembered idents.
#[derive(Debug)]
struct IdentMap {
    /// `key >> 16`.
    source: u64,
    /// Bit `ident % 64` of word `ident / 64` is set while the key is
    /// remembered.
    bits: Box<[u64]>,
    /// Set bits.
    live: usize,
}

/// The controller's uplink de-duplication filter.
#[derive(Debug)]
pub struct Deduplicator {
    /// One map per source with a remembered key, by ascending source.
    maps: Vec<IdentMap>,
    /// Remembered keys in arrival order, `ring[oldest]` first once the
    /// ring is full (oldest is 0 until then).
    ring: Vec<u64>,
    oldest: usize,
    capacity: usize,
}

impl Deduplicator {
    /// Creates a filter remembering the most recent `capacity` keys.
    /// 16,384 entries comfortably outlasts any realistic reordering window
    /// while staying well below the 65,536-packet ident wrap. The table
    /// starts empty and grows with the keys it holds, up to the cap: a
    /// controller that sees no uplink pays nothing for it.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Deduplicator {
            maps: Vec::new(),
            ring: Vec::new(),
            oldest: 0,
            capacity,
        }
    }

    /// The 48-bit key: source address (client id standing in for the
    /// 32-bit IP) in the high bits, IP ident in the low 16.
    pub fn key(client: ClientId, ip_ident: u16) -> u64 {
        ((client.0 as u64) << 16) | ip_ident as u64
    }

    /// Checks a packet: `true` ⇒ first copy (forward it), `false` ⇒
    /// duplicate (drop).
    pub fn check(&mut self, packet: &Packet) -> bool {
        self.check_key(Self::key(packet.client, packet.ip_ident))
    }

    /// Key-level check (used by tests and the ARP carve-out: packets
    /// without an IP header are never deduplicated per the paper's
    /// footnote 5 — callers simply skip the filter for those). Remembers
    /// `key` in the bounded FIFO, evicting the oldest key at capacity;
    /// `false` when `key` is already remembered (nothing moves). The
    /// world's `SystemMetrics` counts what passed and what dropped.
    ///
    /// Checking a key and discarding the verdict primes it as already
    /// seen: the post-crash resync and migration re-primes do that.
    pub fn check_key(&mut self, key: u64) -> bool {
        let source = key >> 16;
        let at = match self.maps.binary_search_by_key(&source, |m| m.source) {
            Ok(at) => at,
            Err(at) => {
                let bits = vec![0; MAP_WORDS].into_boxed_slice();
                self.maps.insert(
                    at,
                    IdentMap {
                        source,
                        bits,
                        live: 0,
                    },
                );
                at
            }
        };
        let (word, bit) = ident_bit(key);
        let map = &mut self.maps[at];
        if map.bits[word] & bit != 0 {
            return false;
        }
        map.bits[word] |= bit;
        map.live += 1;
        if self.ring.len() < self.capacity {
            reserve_quarter(&mut self.ring, self.capacity);
            self.ring.push(key);
        } else {
            let old = std::mem::replace(&mut self.ring[self.oldest], key);
            self.oldest = (self.oldest + 1) % self.capacity;
            self.forget(old);
        }
        true
    }

    /// Clears `key`'s bit, and drops its source's map when that was the
    /// last.
    fn forget(&mut self, key: u64) {
        let at = self.maps.binary_search_by_key(&(key >> 16), |m| m.source);
        let at = at.expect("a remembered key's source has a map");
        let (word, bit) = ident_bit(key);
        let map = &mut self.maps[at];
        map.bits[word] &= !bit;
        map.live -= 1;
        if map.live == 0 {
            self.maps.remove(at);
        }
    }

    /// The IP idents currently remembered for `client`, oldest first.
    ///
    /// This is the dedup half of a client's migration record: the source
    /// controller exports the idents it has recently seen so the
    /// destination can [`Self::check_key`] them under the client's new
    /// address and drop cross-seam retransmits of already-delivered
    /// packets. Walking the FIFO keeps the export in arrival order.
    pub fn idents_for(&self, client: ClientId) -> Vec<u16> {
        let hi = (client.0 as u64) << 16;
        let (newer, older) = self.ring.split_at(self.oldest);
        older
            .iter()
            .chain(newer)
            .filter(|&&k| k & !0xFFFF == hi)
            .map(|&k| (k & 0xFFFF) as u16)
            .collect()
    }

    /// Current number of remembered keys.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// The word and bit of `key`'s ident in its source's map.
fn ident_bit(key: u64) -> (usize, u64) {
    ((key & 0xFFFF) as usize / 64, 1 << (key % 64))
}

impl Default for Deduplicator {
    fn default() -> Self {
        Self::new(16_384)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};
    use wgtt_net::{Direction, FlowId, PacketFactory, Payload};
    use wgtt_sim::{SimRng, SimTime};

    fn uplink(f: &mut PacketFactory, client: u32) -> Packet {
        f.make(
            ClientId(client),
            FlowId(0),
            Direction::Uplink,
            200,
            SimTime::ZERO,
            Payload::Udp { seq: 0 },
        )
    }

    #[test]
    fn first_copy_passes_rest_drop() {
        let mut d = Deduplicator::default();
        let mut f = PacketFactory::new();
        let p = uplink(&mut f, 1);
        // The packet as heard by three APs: only the first copy passes.
        let verdicts: Vec<bool> = (0..3).map(|_| d.check(&p)).collect();
        assert_eq!(verdicts, [true, false, false]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_packets_pass() {
        let mut d = Deduplicator::default();
        let mut f = PacketFactory::new();
        let a = uplink(&mut f, 1);
        let b = uplink(&mut f, 1); // next ip_ident
        assert!(d.check(&a));
        assert!(d.check(&b));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn same_ident_different_clients_pass() {
        let mut d = Deduplicator::default();
        let mut f1 = PacketFactory::new();
        let mut f2 = PacketFactory::new();
        let a = uplink(&mut f1, 1);
        let b = uplink(&mut f2, 2); // same ident 0, different client
        assert_eq!(a.ip_ident, b.ip_ident);
        assert!(d.check(&a));
        assert!(d.check(&b));
    }

    #[test]
    fn key_layout() {
        let k = Deduplicator::key(ClientId(0xABCD), 0x1234);
        assert_eq!(k, 0xABCD_1234);
        // 48-bit bound: client 32 bits + ident 16 bits.
        assert!(Deduplicator::key(ClientId(u32::MAX), u16::MAX) < (1u64 << 48));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut d = Deduplicator::new(3);
        for k in 0..3u64 {
            assert!(d.check_key(k));
        }
        assert_eq!(d.len(), 3);
        // Inserting a fourth evicts key 0.
        assert!(d.check_key(3));
        assert_eq!(d.len(), 3);
        // Key 0 was forgotten → passes again (ident wrap behaviour).
        assert!(d.check_key(0));
        // Key 2 is still remembered.
        assert!(!d.check_key(2));
    }

    #[test]
    fn ident_wraparound_survives_full_cycle() {
        // One client sends a full trip around the 16-bit ident space. With
        // the default 16,384-entry capacity, every key from the previous
        // lap has aged out by the time its ident is reused — the wrapped
        // packet must pass, not be mistaken for a months-old duplicate.
        let mut d = Deduplicator::default();
        let c = ClientId(9);
        for ident in 0..=u16::MAX {
            assert!(d.check_key(Deduplicator::key(c, ident)));
        }
        // Ident 0 again (the wrap): first copy of a *new* packet.
        assert!(d.check_key(Deduplicator::key(c, 0)));
        // A duplicate inside the retention window still drops.
        assert!(!d.check_key(Deduplicator::key(c, 0)));
        // Retention is bounded by capacity regardless of stream length.
        assert_eq!(d.len(), 16_384);
    }

    #[test]
    fn key_non_collision_for_wide_client_ids() {
        // Client ids wider than 16 bits must not alias a (client, ident)
        // pair whose ident happens to carry the overflowing bits: the key
        // shifts the full 32-bit client id clear of the 16-bit ident.
        let a = Deduplicator::key(ClientId(0x0001_0000), 0x0000);
        let b = Deduplicator::key(ClientId(0x0000_0001), 0x0000);
        assert_ne!(a, b);
        // The classic concatenation trap: 0xABCD|1234 vs 0xAB|CD12 would
        // collide under a variable-width pack; the fixed 16-bit shift keeps
        // them apart.
        assert_ne!(
            Deduplicator::key(ClientId(0xABCD), 0x1234),
            Deduplicator::key(ClientId(0xAB), 0xCD12)
        );
        // Spot-exhaustive: distinct (client, ident) pairs spanning the
        // 16-bit client boundary all produce distinct keys.
        let clients = [0u32, 1, 0xFFFF, 0x1_0000, 0x1_0001, 0xDEAD_BEEF, u32::MAX];
        let idents = [0u16, 1, 0x00FF, 0xFF00, u16::MAX];
        let mut keys = std::collections::HashSet::new();
        for &c in &clients {
            for &i in &idents {
                assert!(
                    keys.insert(Deduplicator::key(ClientId(c), i)),
                    "key collision for client {c:#x}, ident {i:#x}"
                );
            }
        }
    }

    #[test]
    fn primed_keys_drop_as_duplicates() {
        let mut d = Deduplicator::new(3);
        // A re-prime checks the key and ignores the verdict.
        d.check_key(7);
        d.check_key(7); // idempotent
        assert_eq!(d.len(), 1);
        // The first post-restart copy of a pre-crash packet is a duplicate,
        // and so is every later one.
        assert!(!d.check_key(7));
        assert!(!d.check_key(7));
        assert_eq!(d.len(), 1);
        // Priming respects capacity like any insert.
        for k in [8, 9, 10] {
            d.check_key(k);
        }
        assert_eq!(d.len(), 3);
        assert!(d.check_key(7), "evicted primed key passes again");
    }

    #[test]
    fn idents_for_exports_in_insertion_order() {
        let mut d = Deduplicator::default();
        let a = ClientId(3);
        let b = ClientId(4);
        for ident in [5u16, 2, 9] {
            assert!(d.check_key(Deduplicator::key(a, ident)));
        }
        d.check_key(Deduplicator::key(b, 5)); // other client, same ident
        assert_eq!(d.idents_for(a), vec![5, 2, 9]);
        assert_eq!(d.idents_for(b), vec![5]);
        assert_eq!(d.idents_for(ClientId(99)), Vec::<u16>::new());
        // Eviction removes exported idents like any other key.
        let mut small = Deduplicator::new(2);
        for ident in [1u16, 2, 3] {
            assert!(small.check_key(Deduplicator::key(a, ident)));
        }
        assert_eq!(small.idents_for(a), vec![2, 3]);
    }

    #[test]
    fn empty_state() {
        let mut d = Deduplicator::default();
        assert!(d.is_empty());
        assert_eq!(d.idents_for(ClientId(0)), Vec::<u16>::new());
        // Nothing is remembered, so any key passes.
        assert!(d.check_key(0));
    }

    /// The filter as it was: a hash set beside a FIFO of the same keys.
    struct Reference {
        seen: HashSet<u64>,
        order: VecDeque<u64>,
        capacity: usize,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            let (seen, order) = (HashSet::new(), VecDeque::new());
            Reference {
                seen,
                order,
                capacity,
            }
        }

        fn check_key(&mut self, key: u64) -> bool {
            if self.seen.contains(&key) {
                return false;
            }
            if self.order.len() == self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
            self.seen.insert(key);
            self.order.push_back(key);
            true
        }

        fn idents_for(&self, client: ClientId) -> Vec<u16> {
            let hi = (client.0 as u64) << 16;
            let own = self.order.iter().filter(|&&k| k & !0xFFFF == hi);
            own.map(|&k| (k & 0xFFFF) as u16).collect()
        }
    }

    /// Every verdict, `len` and export of the ident maps against the hash
    /// set they replaced, with sources churning past the cap, one of them
    /// wrapping its idents, copies and re-primes of recent idents mixed
    /// in; then an export re-primed under a new address.
    #[test]
    fn ident_maps_match_hash_set_under_churn() {
        let clients = [0u32, 1, 2, 0xFFFF, 0x1_0000, u32::MAX].map(ClientId);
        for (seed, capacity) in [(1u64, 1_000), (2, 16_384), (3, 7)] {
            let mut rng = SimRng::new(seed);
            let mut d = Deduplicator::new(capacity);
            let mut r = Reference::new(capacity);
            let mut next = [0u16; 6];
            for step in 0..100_000 {
                // Client 0 sends most, enough to wrap its idents.
                let c = if rng.chance(0.75) {
                    0
                } else {
                    rng.range(1..clients.len())
                };
                let ident = if rng.range(0..10u32) < 3 {
                    next[c].wrapping_sub(rng.range(0..=40u16))
                } else {
                    next[c] = next[c].wrapping_add(1);
                    next[c]
                };
                let key = Deduplicator::key(clients[c], ident);
                assert_eq!(d.check_key(key), r.check_key(key), "step {step}: {key:#x}");
                assert_eq!(d.len(), r.order.len());
                if step % 4_999 == 0 {
                    for &c in &clients {
                        assert_eq!(d.idents_for(c), r.idents_for(c), "step {step}");
                    }
                }
            }
            let (mut d2, mut r2) = (Deduplicator::new(capacity), Reference::new(capacity));
            let moved = ClientId(9);
            for ident in d.idents_for(clients[0]) {
                let key = Deduplicator::key(moved, ident);
                assert_eq!(d2.check_key(key), r2.check_key(key));
            }
            for ident in 0..=u16::MAX {
                let key = Deduplicator::key(moved, ident);
                assert_eq!(d2.check_key(key), r2.check_key(key), "re-primed {ident}");
            }
            assert_eq!(d2.idents_for(moved), r2.idents_for(moved));
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = Deduplicator::new(0);
    }
}
