//! The WGTT cyclic queue (paper §3.1.2, Fig 7).
//!
//! The controller assigns every downlink data packet an *m-bit index
//! number* that increments per client (`m = 12`, so indices live in
//! `0..4096` and uniqueness holds within one buffer horizon). Every AP in
//! range buffers the packet in a per-client cyclic queue slotted by index.
//! Because all candidate APs hold the same packets at the same indices, a
//! switch is just "start transmitting from index k" — no packet transfer is
//! needed at switch time.
//!
//! The index space is 4096 wide at every (AP, client) pair; the memory is
//! not. [`CyclicQueue`] keeps a 2-byte position per index and the packets
//! themselves in a slab as large as the pair's backlog has been (grown a
//! quarter at a time), so a pair that has buffered costs an 8 KiB table
//! rather than 4096 packet slots, and one that never has costs nothing. A
//! slot holds a 32-byte record of what tells one buffered packet from the
//! next — creation time, transport sequence, flow, lengths, IP ident,
//! payload kind and direction — not a 72-byte
//! [`Packet`]: the client is the queue's, once, and the index is the one
//! the slot is filed under, so a pop rebuilds the packet that went in. The
//! dense array of whole packets it replaced lives on under `#[cfg(test)]`
//! as the reference the equivalence tests drive beside it.

use wgtt_net::{ClientId, Direction, FlowId, Packet, Payload};
use wgtt_sim::queue::reserve_quarter;
use wgtt_sim::SimTime;

/// Number of index bits (`m = 12` in the paper).
pub const INDEX_BITS: u32 = 12;
/// Size of the index space and the cyclic buffer.
pub const INDEX_SPACE: u16 = 1 << INDEX_BITS;

/// Advances an index by `n`, wrapping in the 12-bit space.
#[inline]
pub fn index_add(index: u16, n: u16) -> u16 {
    (index.wrapping_add(n)) & (INDEX_SPACE - 1)
}

/// Forward distance from `from` to `to` in index space.
#[inline]
pub fn index_fwd_dist(from: u16, to: u16) -> u16 {
    (to.wrapping_sub(from)) & (INDEX_SPACE - 1)
}

/// Allocates consecutive index numbers for one client's downlink stream
/// (controller side).
#[derive(Debug, Clone, Default)]
pub struct IndexAllocator {
    next: u16,
}

impl IndexAllocator {
    /// Creates an allocator starting at index 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next index and advances.
    pub fn allocate(&mut self) -> u16 {
        let idx = self.next;
        self.next = index_add(self.next, 1);
        idx
    }

    /// The index the next call will return.
    pub fn peek(&self) -> u16 {
        self.next
    }

    /// Repositions the allocator so the next index handed out is `next` —
    /// the post-crash resync resumes the downlink stream at the serving
    /// AP's reported queue tail instead of restarting at 0 (which would
    /// insert new packets *behind* every AP's buffered window).
    pub fn resume_at(&mut self, next: u16) {
        self.next = next & (INDEX_SPACE - 1);
    }
}

/// Position-table entry of an index with no buffered packet.
const EMPTY: u16 = u16::MAX;

/// How far behind the head a late (backhaul-reordered) index may land and
/// still rewind it.
const REWIND: u16 = 64;

/// An upper bound on the packets one queue holds at once: a window one
/// short of half the index space, a rewind behind it, and the insert that
/// precedes the half-space expiry. The slab's growth stops here — doubling
/// unchecked would take every queue that fills (2048 packets for that
/// instant) to a full index space of them.
const SLAB_BOUND: usize = (INDEX_SPACE / 2 + REWIND) as usize;

/// The transport payload a [`Record`] rebuilds.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Udp,
    TcpData,
    Raw,
}

/// One buffered packet, less its client (the queue's) and its index (the
/// slot's).
#[derive(Debug, Clone, Copy)]
struct Record {
    created: SimTime,
    /// The UDP or TCP sequence; 0 for a raw payload.
    seq: u64,
    flow: FlowId,
    len_bytes: u32,
    /// A TCP segment's length; 0 otherwise.
    tcp_len: u32,
    ip_ident: u16,
    kind: Kind,
    direction: Direction,
}

const _: () = assert!(std::mem::size_of::<Record>() == 32);

impl Record {
    /// Packs what [`Self::unpack`] cannot infer; see [`CyclicQueue::insert`]
    /// for the packets it takes.
    fn pack(packet: &Packet) -> Record {
        let narrow = |n: u64| u32::try_from(n).expect("a buffered length fits 32 bits");
        let (kind, seq, tcp_len) = match packet.payload {
            Payload::Udp { seq } => (Kind::Udp, seq, 0),
            Payload::TcpData { seq, len } => (Kind::TcpData, seq, narrow(len)),
            Payload::Raw => (Kind::Raw, 0, 0),
            Payload::TcpAck { .. } => panic!("a TCP acknowledgement reached a cyclic queue"),
        };
        Record {
            created: packet.created,
            seq,
            flow: packet.flow,
            len_bytes: narrow(packet.len_bytes as u64),
            tcp_len,
            ip_ident: packet.ip_ident,
            kind,
            direction: packet.direction,
        }
    }

    /// The packet this record was packed from, to `client` at `index`.
    fn unpack(self, client: ClientId, index: u16) -> Packet {
        let payload = match self.kind {
            Kind::Udp => Payload::Udp { seq: self.seq },
            Kind::TcpData => Payload::TcpData {
                seq: self.seq,
                len: self.tcp_len as u64,
            },
            Kind::Raw => Payload::Raw,
        };
        Packet {
            client,
            flow: self.flow,
            direction: self.direction,
            len_bytes: self.len_bytes as usize,
            created: self.created,
            payload,
            ip_ident: self.ip_ident,
            index: Some(index),
        }
    }
}

/// One client's cyclic packet buffer at one AP.
///
/// Packets are addressed by index number. The queue tracks a *head* — the
/// next index to transmit — which a switch protocol `start(c, k)` message
/// repositions.
///
/// Every index has an entry in an 8 KiB position table, allocated at the
/// first insert and kept from then on, but packets live in a slab of
/// 32-byte records that grows with the backlog — by a quarter of its
/// length, at least 64 records, where `Vec` would double — and is reused
/// through a free list: a queue that never buffered costs nothing, an
/// emptied one the table, a full one the table plus at most 2112 records
/// (`SLAB_BOUND`, 66 KiB), one whose backlog peaked at `n` at most
/// `1.25 n + 64` slots, and neither a steady stream nor a discard
/// allocates or moves a record.
#[derive(Debug, Clone)]
pub struct CyclicQueue {
    /// Index → position of its record in `slab`, or `EMPTY`; empty until
    /// the first insert.
    pos: Box<[u16]>,
    /// Record storage. Positions listed in `free` hold a stale record.
    slab: Vec<Record>,
    /// Slab positions whose packet was popped or discarded, reused before
    /// the slab grows.
    free: Vec<u16>,
    /// Next index to hand to the transmit path.
    head: u16,
    /// Highest (most recently inserted) index + 1, i.e. where the
    /// controller's stream has reached. Equal to `head` when empty.
    tail: u16,
    /// Whether any packet has been inserted yet (disambiguates the
    /// head == tail case).
    any: bool,
    /// Packets dropped by overwrite (buffer wrapped before transmission).
    overwrites: u64,
    /// The client every buffered packet is to.
    client: ClientId,
}

impl Default for CyclicQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CyclicQueue {
    /// Creates an empty queue, allocating nothing: the position table
    /// comes with the first packet, and many (AP, client) pairs never
    /// buffer one.
    pub fn new() -> Self {
        CyclicQueue {
            pos: Box::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: 0,
            tail: 0,
            any: false,
            overwrites: 0,
            client: ClientId(0),
        }
    }

    /// Next index the transmit path will take.
    pub fn head(&self) -> u16 {
        self.head
    }

    /// One past the newest inserted index.
    pub fn tail(&self) -> u16 {
        self.tail
    }

    /// Number of packets between head and tail (the transmit backlog):
    /// the slab's live count, since a packet leaves the slab when the head
    /// passes its index.
    pub fn backlog(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Slow reference count of occupied indices inside `[head, tail)` —
    /// test-only invariant check for the O(1) count.
    #[doc(hidden)]
    pub fn backlog_walk(&self) -> usize {
        if !self.any {
            return 0;
        }
        let mut n = 0;
        let mut i = self.head;
        while i != self.tail {
            if self.pos[i as usize] != EMPTY {
                n += 1;
            }
            i = index_add(i, 1);
        }
        n
    }

    /// Count of packets lost to slot overwrites.
    pub fn overwrites(&self) -> u64 {
        self.overwrites
    }

    /// Puts `record` in the slab and returns its position.
    fn store(&mut self, record: Record) -> u16 {
        if let Some(at) = self.free.pop() {
            self.slab[at as usize] = record;
            return at;
        }
        reserve_quarter(&mut self.slab, SLAB_BOUND);
        self.slab.push(record);
        (self.slab.len() - 1) as u16
    }

    /// Unlinks `index`'s packet, if it holds one, and returns the slab
    /// position it still sits at.
    fn release(&mut self, index: u16) -> Option<usize> {
        let at = std::mem::replace(&mut self.pos[index as usize], EMPTY);
        if at == EMPTY {
            return None;
        }
        self.free.push(at);
        Some(at as usize)
    }

    /// Discards every buffered packet; the slab keeps its capacity.
    fn release_all(&mut self) {
        self.pos.fill(EMPTY);
        self.slab.clear();
        self.free.clear();
    }

    /// Inserts a packet at its controller-assigned index.
    ///
    /// Panics if the packet has no index (the controller must assign one
    /// before fan-out), if it is a TCP acknowledgement (only clients send
    /// those), or if a length does not fit 32 bits. Every packet a queue
    /// holds is to one client, the one its (AP, client) pair names.
    pub fn insert(&mut self, packet: Packet) {
        let index = packet
            .index
            .expect("downlink packet reached AP without a WGTT index");
        debug_assert!(index < INDEX_SPACE);
        debug_assert!(self.backlog() == 0 || packet.client == self.client);
        if self.pos.is_empty() {
            self.pos = vec![EMPTY; INDEX_SPACE as usize].into_boxed_slice();
        }
        self.client = packet.client;
        let record = Record::pack(&packet);
        let at = self.pos[index as usize];
        if at != EMPTY {
            self.overwrites += 1;
            self.slab[at as usize] = record;
        } else {
            self.pos[index as usize] = self.store(record);
        }
        if !self.any {
            self.any = true;
            self.head = index;
            self.tail = index_add(index, 1);
            return;
        }
        let new_tail = index_add(index, 1);
        // Cases, checked in order:
        if index_fwd_dist(self.head, index) < index_fwd_dist(self.head, self.tail) {
            // Inside the current [head, tail) window (the head may have
            // been rewound by an earlier late arrival): an in-window
            // (re)delivery, already stored in its slot.
            return;
        }
        if (1..INDEX_SPACE / 2).contains(&index_fwd_dist(self.tail, new_tail)) {
            // At or ahead of the tail: normal forward extension of the
            // stream (gaps are fine — other copies were routed elsewhere).
            self.tail = new_tail;
            // Every modular comparison in this structure is only sound
            // while the window spans less than half the index space; cap
            // it by expiring the oldest slots (they are beyond any
            // realistic transmit horizon anyway).
            if index_fwd_dist(self.head, self.tail) >= INDEX_SPACE / 2 {
                let new_head = index_add(self.tail, INDEX_SPACE / 2 + 1);
                let mut i = self.head;
                while i != new_head {
                    if self.release(i).is_some() {
                        self.overwrites += 1;
                    }
                    i = index_add(i, 1);
                }
                self.head = new_head;
            }
            return;
        }
        // The index is behind the window. Disambiguate via the physical
        // invariant that the controller's stream only moves forward
        // (backhaul reordering spans microseconds — a handful of indices
        // at most):
        let behind_head = index_fwd_dist(index, self.head);
        if (1..=REWIND).contains(&behind_head) {
            // Backhaul reordering delivered an index the head has already
            // walked past; step back a bounded distance so the late packet
            // is still transmitted (the client's reorder window absorbs
            // the resulting over-the-air reordering).
            self.head = index;
        } else {
            // The buffered window is from a previous trip around the
            // 12-bit index space — this AP sat out an epoch (out of range
            // or never serving) while the controller's allocator wrapped.
            // Everything buffered is ancient; restart cleanly at the new
            // stream position (the packet we just wrote survives).
            let keep = self.slab.swap_remove(self.pos[index as usize] as usize);
            self.release_all();
            self.pos[index as usize] = self.store(keep);
            self.head = index;
            self.tail = new_tail;
        }
    }

    /// Pops the packet at the head, advancing past empty slots up to the
    /// tail. Returns `None` when no backlog remains.
    pub fn pop_head(&mut self) -> Option<Packet> {
        while self.any && self.head != self.tail {
            let idx = self.head;
            self.head = index_add(self.head, 1);
            if let Some(at) = self.release(idx) {
                return Some(self.slab[at].unpack(self.client, idx));
            }
        }
        None
    }

    /// Repositions the head to index `k` — the `start(c, k)` operation.
    /// Slots before `k` are discarded (they were already delivered or are
    /// the old AP's responsibility).
    pub fn start_from(&mut self, k: u16) {
        if !self.any {
            self.head = k;
            self.tail = k;
            return;
        }
        // If k is outside (or wraps past) the buffered window, the window
        // contents belong to another epoch of the index space: clear
        // everything.
        let in_window = index_fwd_dist(self.head, k) <= index_fwd_dist(self.head, self.tail);
        if !in_window {
            self.release_all();
            self.head = k;
            self.tail = k;
            return;
        }
        // Clear the delivered/abandoned prefix up to k.
        let mut i = self.head;
        while i != k {
            self.release(i);
            i = index_add(i, 1);
        }
        self.head = k;
    }

    /// Discards every buffered packet for this client (e.g. on
    /// disassociation).
    pub fn clear(&mut self) {
        self.release_all();
        self.head = 0;
        self.tail = 0;
        self.any = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::{ClientId, Direction, FlowId, PacketFactory, Payload};
    use wgtt_sim::{SimRng, SimTime};

    fn pkt(factory: &mut PacketFactory, index: u16) -> Packet {
        let mut p = factory.make(
            ClientId(0),
            FlowId(0),
            Direction::Downlink,
            1500,
            SimTime::ZERO,
            Payload::Udp { seq: index as u64 },
        );
        p.index = Some(index);
        p
    }

    /// The queue as it was before the slot table — one `Option<Packet>`
    /// per index, 480 KiB a pair — kept as the reference the sparse queue
    /// must match op for op (`sparse_matches_dense_under_churn`).
    struct DenseQueue {
        slots: Vec<Option<Packet>>,
        head: u16,
        tail: u16,
        any: bool,
        occupied: usize,
        overwrites: u64,
    }

    impl DenseQueue {
        fn new() -> Self {
            DenseQueue {
                slots: vec![None; INDEX_SPACE as usize],
                head: 0,
                tail: 0,
                any: false,
                occupied: 0,
                overwrites: 0,
            }
        }

        fn backlog_walk(&self) -> usize {
            if !self.any {
                return 0;
            }
            let mut n = 0;
            let mut i = self.head;
            while i != self.tail {
                if self.slots[i as usize].is_some() {
                    n += 1;
                }
                i = index_add(i, 1);
            }
            n
        }

        fn clear_slots(&mut self) {
            for s in &mut self.slots {
                *s = None;
            }
        }

        fn insert(&mut self, packet: Packet) {
            let index = packet.index.expect("indexed");
            let slot = &mut self.slots[index as usize];
            if slot.is_some() {
                self.overwrites += 1;
            } else {
                self.occupied += 1;
            }
            *slot = Some(packet);
            if !self.any {
                self.any = true;
                self.head = index;
                self.tail = index_add(index, 1);
                return;
            }
            let new_tail = index_add(index, 1);
            if index_fwd_dist(self.head, index) < index_fwd_dist(self.head, self.tail) {
                return;
            }
            if (1..INDEX_SPACE / 2).contains(&index_fwd_dist(self.tail, new_tail)) {
                self.tail = new_tail;
                if index_fwd_dist(self.head, self.tail) >= INDEX_SPACE / 2 {
                    let new_head = index_add(self.tail, INDEX_SPACE / 2 + 1);
                    let mut i = self.head;
                    while i != new_head {
                        if self.slots[i as usize].take().is_some() {
                            self.occupied -= 1;
                            self.overwrites += 1;
                        }
                        i = index_add(i, 1);
                    }
                    self.head = new_head;
                }
                return;
            }
            let behind_head = index_fwd_dist(index, self.head);
            if (1..=64).contains(&behind_head) {
                self.head = index;
            } else {
                let keep = self.slots[index as usize].take();
                self.clear_slots();
                self.occupied = usize::from(keep.is_some());
                self.slots[index as usize] = keep;
                self.head = index;
                self.tail = new_tail;
            }
        }

        fn pop_head(&mut self) -> Option<Packet> {
            while self.any && self.head != self.tail {
                let idx = self.head;
                self.head = index_add(self.head, 1);
                if let Some(p) = self.slots[idx as usize].take() {
                    self.occupied -= 1;
                    return Some(p);
                }
            }
            None
        }

        fn start_from(&mut self, k: u16) {
            if !self.any {
                self.head = k;
                self.tail = k;
                return;
            }
            let in_window = index_fwd_dist(self.head, k) <= index_fwd_dist(self.head, self.tail);
            if !in_window {
                self.clear_slots();
                self.occupied = 0;
                self.head = k;
                self.tail = k;
                return;
            }
            let mut i = self.head;
            while i != k {
                if self.slots[i as usize].take().is_some() {
                    self.occupied -= 1;
                }
                i = index_add(i, 1);
            }
            self.head = k;
        }

        fn clear(&mut self) {
            self.clear_slots();
            self.head = 0;
            self.tail = 0;
            self.any = false;
            self.occupied = 0;
        }
    }

    /// A packet at `index` with every field a slot record keeps drawn from
    /// `rng`: UDP, TCP-data or raw, each number 0 a quarter of the time,
    /// its type's maximum a quarter, and anything between the rest.
    fn random_packet(rng: &mut SimRng, index: u16) -> Packet {
        let draw = |rng: &mut SimRng, bits: u32| match rng.range(0..4u32) {
            0 => 0,
            1 => u64::MAX >> (64 - bits),
            _ => rng.next_u64() >> (64 - bits),
        };
        let payload = match rng.range(0..3u32) {
            0 => Payload::Udp { seq: draw(rng, 64) },
            1 => Payload::TcpData {
                seq: draw(rng, 64),
                len: draw(rng, 32),
            },
            _ => Payload::Raw,
        };
        let direction = if rng.chance(0.5) {
            Direction::Downlink
        } else {
            Direction::Uplink
        };
        Packet {
            client: ClientId(3),
            flow: FlowId(draw(rng, 32) as u32),
            direction,
            len_bytes: draw(rng, 32) as usize,
            created: SimTime::from_nanos(draw(rng, 64)),
            payload,
            ip_ident: draw(rng, 16) as u16,
            index: Some(index),
        }
    }

    /// Both queues, every op applied to each, everything observable —
    /// each popped packet whole — compared after each.
    struct Pair {
        sparse: CyclicQueue,
        dense: DenseQueue,
        /// Draws the fields of each inserted packet.
        fields: SimRng,
    }

    impl Pair {
        fn new(seed: u64) -> Self {
            Pair {
                sparse: CyclicQueue::new(),
                dense: DenseQueue::new(),
                fields: SimRng::new(seed).fork("fields"),
            }
        }

        fn insert(&mut self, index: u16) {
            let p = random_packet(&mut self.fields, index);
            self.dense.insert(p.clone());
            self.sparse.insert(p);
            self.check(format_args!("insert({index})"));
        }

        fn pop_head(&mut self) {
            assert_eq!(self.sparse.pop_head(), self.dense.pop_head(), "pop_head");
            self.check(format_args!("pop_head"));
        }

        fn start_from(&mut self, k: u16) {
            self.dense.start_from(k);
            self.sparse.start_from(k);
            self.check(format_args!("start_from({k})"));
        }

        fn clear(&mut self) {
            self.dense.clear();
            self.sparse.clear();
            self.check(format_args!("clear"));
        }

        fn check(&self, op: std::fmt::Arguments<'_>) {
            let (s, d) = (&self.sparse, &self.dense);
            assert_eq!(
                (s.head(), s.tail(), s.backlog(), s.overwrites()),
                (d.head, d.tail, d.occupied, d.overwrites),
                "head/tail/backlog/overwrites after {op}"
            );
            assert_eq!(s.backlog_walk(), d.backlog_walk(), "walk after {op}");
            assert_eq!(s.backlog(), s.backlog_walk(), "count vs walk after {op}");
            assert!(s.slab.capacity() <= SLAB_BOUND, "slab grew past the bound");
        }
    }

    #[test]
    fn sparse_matches_dense_under_churn() {
        // Three traffic shapes a seed each: a serving AP (pops keep up), a
        // fan-out AP that never serves (the window fills and expires), and
        // an even mix. Weights are (insert, pop) out of 100; the rest is
        // start_from and the odd clear.
        for (seed, (w_insert, w_pop)) in [(1u64, (45, 45)), (2, (88, 4)), (3, (60, 25))] {
            let mut rng = SimRng::new(seed);
            let mut pair = Pair::new(seed);
            for _ in 0..30_000 {
                let (head, tail) = (pair.dense.head, pair.dense.tail);
                let window = index_fwd_dist(head, tail);
                let roll: u32 = rng.range(0..100);
                if roll < w_insert {
                    let index = match rng.range(0..20u32) {
                        // A redelivery inside the window.
                        0 | 1 if window > 0 => index_add(head, rng.range(0..window)),
                        // Backhaul reordering: 1–64 behind the head.
                        2 => index_add(head, INDEX_SPACE - rng.range(1..=REWIND)),
                        // A full trip round the index space: behind the
                        // rewind allowance, too far ahead to extend.
                        3 => index_add(head, INDEX_SPACE - rng.range(REWIND + 1..1900)),
                        // A jump ahead of the tail (other copies routed
                        // elsewhere), sometimes far enough to expire.
                        4 => index_add(tail, rng.range(1..2040)),
                        // The stream's next index.
                        _ => tail,
                    };
                    pair.insert(index);
                } else if roll < w_insert + w_pop {
                    pair.pop_head();
                } else if roll < 99 {
                    let k = if rng.chance(0.8) {
                        // Inside the window, its end included.
                        index_add(head, rng.range(0..=window.min(80)))
                    } else {
                        rng.range(0..INDEX_SPACE)
                    };
                    pair.start_from(k);
                } else if rng.chance(0.2) {
                    pair.clear();
                }
            }
            // Whatever is left comes out the same.
            while pair.dense.occupied > 0 {
                pair.pop_head();
            }
            pair.pop_head();
        }
    }

    #[test]
    fn slab_stops_growing_at_the_window_bound() {
        // A fan-out AP that never serves: three trips round the index
        // space with no pop. The window holds 2048 packets for an instant
        // (the insert precedes the expiry), which plain `Vec` doubling
        // would round up to a full 4096-packet slab. Quarter steps from 64
        // reach 1906 slots and then stop at the bound.
        let mut pair = Pair::new(4);
        let mut indices = IndexAllocator::new();
        for _ in 0..3 * INDEX_SPACE {
            pair.insert(indices.allocate());
        }
        assert_eq!(pair.sparse.backlog(), (INDEX_SPACE / 2 - 1) as usize);
        assert_eq!(pair.sparse.slab.capacity(), SLAB_BOUND);
        // Late indices behind a full window fill the slab to the bound and
        // take it no further. (Two is as deep as a full window rewinds: a
        // third index behind it reads as a forward extension, here as in
        // the dense queue.)
        for _ in 0..2 {
            let head = pair.sparse.head();
            pair.insert(index_add(head, INDEX_SPACE - 1));
            assert_eq!(index_fwd_dist(pair.sparse.head(), head), 1);
        }
        pair.insert(pair.sparse.tail());
        assert_eq!(pair.sparse.backlog(), (INDEX_SPACE / 2 - 1) as usize);
        assert_eq!(pair.sparse.slab.capacity(), SLAB_BOUND);
        // Emptied, the queue keeps the slab it grew: the next fill
        // allocates nothing.
        pair.start_from(index_add(pair.sparse.tail(), 1000));
        assert_eq!(pair.sparse.backlog(), 0);
        assert_eq!(pair.sparse.slab.capacity(), SLAB_BOUND);
    }

    #[test]
    fn index_arithmetic() {
        assert_eq!(index_add(4095, 1), 0);
        assert_eq!(index_add(4090, 10), 4);
        assert_eq!(index_fwd_dist(4090, 4), 10);
        assert_eq!(index_fwd_dist(0, 0), 0);
    }

    #[test]
    fn allocator_wraps() {
        let mut a = IndexAllocator::new();
        for expected in 0..INDEX_SPACE {
            assert_eq!(a.allocate(), expected);
        }
        assert_eq!(a.allocate(), 0);
        assert_eq!(a.peek(), 1);
    }

    #[test]
    fn insert_pop_in_order() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..5 {
            q.insert(pkt(&mut f, i));
        }
        assert_eq!(q.backlog(), 5);
        for i in 0..5 {
            let p = q.pop_head().unwrap();
            assert_eq!(p.index, Some(i));
        }
        assert!(q.pop_head().is_none());
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn start_from_skips_delivered_prefix() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..10 {
            q.insert(pkt(&mut f, i));
        }
        // The switch says: AP1 already handled up to 6.
        q.start_from(7);
        assert_eq!(q.head(), 7);
        assert_eq!(q.backlog(), 3);
        assert_eq!(q.pop_head().unwrap().index, Some(7));
    }

    #[test]
    fn start_from_beyond_tail_empties() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..3 {
            q.insert(pkt(&mut f, i));
        }
        q.start_from(100);
        assert_eq!(q.backlog(), 0);
        assert!(q.pop_head().is_none());
        // New packets at 100+ flow normally.
        q.insert(pkt(&mut f, 100));
        assert_eq!(q.pop_head().unwrap().index, Some(100));
    }

    #[test]
    fn wraparound_delivery() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.start_from(4094);
        for i in [4094u16, 4095, 0, 1] {
            q.insert(pkt(&mut f, i));
        }
        assert_eq!(q.backlog(), 4);
        let got: Vec<u16> = std::iter::from_fn(|| q.pop_head().map(|p| p.index.unwrap())).collect();
        assert_eq!(got, vec![4094, 4095, 0, 1]);
    }

    #[test]
    fn late_arrival_steps_head_back() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        // Packets 0 and 2 arrive; 1 is delayed on the backhaul.
        q.insert(pkt(&mut f, 0));
        q.insert(pkt(&mut f, 2));
        assert_eq!(q.pop_head().unwrap().index, Some(0));
        assert_eq!(q.pop_head().unwrap().index, Some(2));
        // Late packet 1 arrives after the head passed it.
        q.insert(pkt(&mut f, 1));
        assert_eq!(q.pop_head().unwrap().index, Some(1));
        assert!(q.pop_head().is_none());
    }

    #[test]
    fn reordered_burst_after_rewind_stays_in_window() {
        // Regression test: 12 arrives first and is transmitted; then the
        // delayed 10 rewinds the head; then 11 lands *inside* the rewound
        // window and must not be mistaken for a new epoch.
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.start_from(10);
        q.insert(pkt(&mut f, 12));
        assert_eq!(q.pop_head().unwrap().index, Some(12));
        q.insert(pkt(&mut f, 10));
        q.insert(pkt(&mut f, 11));
        assert_eq!(q.pop_head().unwrap().index, Some(10));
        assert_eq!(q.pop_head().unwrap().index, Some(11));
        assert!(q.pop_head().is_none());
    }

    #[test]
    fn window_never_spans_half_the_index_space() {
        // A stream that jumps far ahead (epoch churn) must not leave a
        // window ≥ 2048 wide — modular comparisons would turn ambiguous
        // and strand packets (this exact corruption once livelocked the
        // simulator).
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.insert(pkt(&mut f, 0));
        q.insert(pkt(&mut f, 1900));
        q.insert(pkt(&mut f, 3900)); // would make the window 3901 wide
        assert!(index_fwd_dist(q.head(), q.tail()) < INDEX_SPACE / 2);
        // The newest content survives; the expired prefix is gone.
        let got: Vec<u16> = std::iter::from_fn(|| q.pop_head().map(|p| p.index.unwrap())).collect();
        assert!(got.contains(&3900));
        assert!(!got.contains(&0));
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn insert_just_behind_empty_window_rewinds() {
        // Regression test for a livelock: after start_from empties the
        // window, a late copy of index k−1 must rewind the head (not be
        // stranded outside [head, tail) while inflating the backlog).
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..48 {
            q.insert(pkt(&mut f, i));
        }
        q.start_from(48); // empty window at 48
        q.insert(pkt(&mut f, 47));
        assert_eq!(q.backlog(), 1);
        assert_eq!(q.pop_head().unwrap().index, Some(47));
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn far_out_of_window_index_starts_new_epoch() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.start_from(1000);
        q.insert(pkt(&mut f, 1000));
        assert_eq!(q.pop_head().unwrap().index, Some(1000));
        // Anything outside the window and beyond the 64-slot reorder
        // allowance can only be a later trip around the index space
        // (streams never move backwards): the queue restarts there.
        q.insert(pkt(&mut f, 901));
        assert_eq!(q.head(), 901);
        assert_eq!(q.pop_head().unwrap().index, Some(901));
    }

    #[test]
    fn epoch_wrap_resets_stale_buffer() {
        // An AP that sat out while the controller's index allocator
        // wrapped must not strand fresh packets behind a stale tail.
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..10 {
            q.insert(pkt(&mut f, i));
        }
        while q.pop_head().is_some() {}
        // The stream is now ~3000 indices further (appears "behind" the
        // old tail in modulo space).
        q.insert(pkt(&mut f, 3000));
        q.insert(pkt(&mut f, 3001));
        assert_eq!(q.backlog(), 2);
        assert_eq!(q.pop_head().unwrap().index, Some(3000));
        assert_eq!(q.pop_head().unwrap().index, Some(3001));
    }

    #[test]
    fn start_from_outside_window_clears_everything() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..10 {
            q.insert(pkt(&mut f, i));
        }
        // k far beyond the buffered window: ancient content must vanish.
        q.start_from(2500);
        assert_eq!(q.backlog(), 0);
        assert!(q.pop_head().is_none());
        q.insert(pkt(&mut f, 2500));
        assert_eq!(q.pop_head().unwrap().index, Some(2500));
    }

    #[test]
    fn overwrite_counted() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.insert(pkt(&mut f, 5));
        q.insert(pkt(&mut f, 5));
        assert_eq!(q.overwrites(), 1);
    }

    #[test]
    fn gaps_are_skipped() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.insert(pkt(&mut f, 0));
        q.insert(pkt(&mut f, 2)); // index 1 never arrives
        assert_eq!(q.pop_head().unwrap().index, Some(0));
        assert_eq!(q.pop_head().unwrap().index, Some(2));
        assert!(q.pop_head().is_none());
    }

    #[test]
    fn clear_resets() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..4 {
            q.insert(pkt(&mut f, i));
        }
        q.clear();
        assert_eq!(q.backlog(), 0);
        q.insert(pkt(&mut f, 9));
        assert_eq!(q.pop_head().unwrap().index, Some(9));
        assert!(q.pop_head().is_none());
    }

    #[test]
    #[should_panic]
    fn insert_without_index_panics() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        let p = f.make(
            ClientId(0),
            FlowId(0),
            Direction::Downlink,
            100,
            SimTime::ZERO,
            Payload::Raw,
        );
        q.insert(p);
    }

    #[test]
    #[should_panic]
    fn insert_tcp_ack_panics() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        let ack = Payload::TcpAck {
            ack: 0,
            sack: wgtt_net::SackBlocks::default(),
        };
        let mut p = f.make(
            ClientId(0),
            FlowId(0),
            Direction::Downlink,
            52,
            SimTime::ZERO,
            ack,
        );
        p.index = Some(0);
        q.insert(p);
    }
}
