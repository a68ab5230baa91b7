//! Property-based tests on the core data structures and protocol
//! invariants, spanning crates through the `wgtt` facade.

use proptest::prelude::*;
use wgtt::core::cyclic::{index_add, index_fwd_dist, CyclicQueue, IndexAllocator, INDEX_SPACE};
use wgtt::core::dedup::Deduplicator;
use wgtt::mac::blockack::{seq_add, seq_fwd_dist, BlockAckFrame, RxReorder, TxScoreboard};
use wgtt::net::{
    ClientId, Direction, FlowId, PacketFactory, Payload, TcpConfig, TcpReceiver, TcpSender,
};
use wgtt::sim::stats::TimeWindow;
use wgtt::sim::storm::shrink;
use wgtt::sim::{
    BackhaulFault, EventQueue, FaultEdge, FaultSchedule, SimDuration, SimRng, SimTime,
};

fn packet_with_index(f: &mut PacketFactory, index: u16) -> wgtt::net::Packet {
    let mut p = f.make(
        ClientId(0),
        FlowId(0),
        Direction::Downlink,
        1500,
        SimTime::ZERO,
        Payload::Udp { seq: index as u64 },
    );
    p.index = Some(index % INDEX_SPACE);
    p
}

proptest! {
    /// 12-bit index arithmetic: fwd_dist inverts add.
    #[test]
    fn index_math_roundtrips(start in 0u16..4096, n in 0u16..4095) {
        let end = index_add(start, n);
        prop_assert_eq!(index_fwd_dist(start, end), n);
        prop_assert!(end < INDEX_SPACE);
    }

    /// 802.11 sequence math mirrors it.
    #[test]
    fn seq_math_roundtrips(start in 0u16..4096, n in 0u16..4095) {
        let end = seq_add(start, n);
        prop_assert_eq!(seq_fwd_dist(start, end), n);
    }

    /// The allocator never reuses an index within a buffer horizon.
    #[test]
    fn allocator_unique_within_horizon(count in 1usize..4096) {
        let mut a = IndexAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..count {
            prop_assert!(seen.insert(a.allocate()));
        }
    }

    /// Cyclic queue: whatever subset of a contiguous index stream is
    /// inserted (in any order), popping yields each inserted index exactly
    /// once, in index order from the first insert onward — also when the
    /// stream wraps the 12-bit space (the second `start` range puts most
    /// picks past index 4095).
    #[test]
    fn cyclic_queue_delivers_each_once(
        start in prop_oneof![0u16..4096, 4040u16..4096],
        mut picks in proptest::collection::vec(0u16..60, 1..40),
    ) {
        picks.sort_unstable();
        picks.dedup();
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.start_from(start);
        for &offset in &picks {
            q.insert(packet_with_index(&mut f, index_add(start, offset)));
        }
        let mut got = Vec::new();
        while let Some(p) = q.pop_head() {
            got.push(index_fwd_dist(start, p.index.unwrap()));
        }
        prop_assert_eq!(got, picks);
    }

    /// Under arbitrary interleavings of inserts (with stream jumps),
    /// pops, `start_from`, and `clear`, the O(1) backlog counter always
    /// equals a slow walk of the window, and the window never spans half
    /// the index space (where modular comparisons turn ambiguous). This is
    /// the invariant whose violation once livelocked the simulator. Half
    /// the streams start just short of index 4095, so the window wraps
    /// within the first ops.
    #[test]
    fn cyclic_queue_counter_invariant(
        first in prop_oneof![Just(0u16), 3900u16..4096],
        ops in proptest::collection::vec((0u8..4, 0u16..4096), 1..250),
    ) {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        let mut next_idx = first;
        for (kind, arg) in ops {
            match kind {
                0 | 3 => {
                    // Insert the next stream index, occasionally jumping.
                    if kind == 3 {
                        next_idx = index_add(next_idx, arg % 3000);
                    }
                    q.insert(packet_with_index(&mut f, next_idx));
                    next_idx = index_add(next_idx, 1);
                }
                1 => {
                    let _ = q.pop_head();
                }
                _ => q.start_from(arg),
            }
            prop_assert_eq!(q.backlog(), q.backlog_walk(), "counter drifted");
            prop_assert!(
                q.backlog() == 0 || index_fwd_dist(q.head(), q.tail()) < INDEX_SPACE / 2,
                "window spans half the index space"
            );
        }
    }

    /// `start_from(k)` discards exactly the prefix before `k`, wherever
    /// in the index space the 50 packets sit (the second `base` range
    /// wraps them).
    #[test]
    fn cyclic_start_from_discards_prefix(
        base in prop_oneof![Just(0u16), 4047u16..4096],
        k in 0u16..50,
    ) {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..50u16 {
            q.insert(packet_with_index(&mut f, index_add(base, i)));
        }
        q.start_from(index_add(base, k));
        prop_assert_eq!(q.backlog(), usize::from(50 - k));
        let first = q.pop_head().map(|p| p.index.unwrap());
        prop_assert_eq!(first, Some(index_add(base, k)));
    }

    /// Tx scoreboard + Rx reorderer converge: under arbitrary per-MPDU
    /// loss patterns, retransmitting the unacked set eventually delivers
    /// every registered sequence exactly once.
    #[test]
    fn blockack_converges_under_loss(
        start in 0u16..4096,
        count in 1usize..64,
        loss in proptest::collection::vec(any::<bool>(), 64 * 6),
    ) {
        let mut tx = TxScoreboard::new(start);
        let mut rx = RxReorder::new(start);
        for _ in 0..count {
            tx.assign();
        }
        let mut li = 0;
        let mut rounds = 0;
        while tx.outstanding() > 0 && rounds < 200 {
            for s in tx.unacked() {
                let lost = loss.get(li).copied().unwrap_or(false);
                li += 1;
                if !lost {
                    rx.on_mpdu(s);
                }
            }
            tx.on_block_ack(&rx.block_ack());
            rx.release_in_order();
            rounds += 1;
        }
        // With the loss vector exhausted everything gets through.
        prop_assert_eq!(tx.outstanding(), 0);
        prop_assert_eq!(rx.accepted(), count as u64);
    }

    /// A Block ACK never acknowledges a sequence the receiver did not get.
    #[test]
    fn blockack_is_sound(received in proptest::collection::vec(0u16..64, 0..64)) {
        let mut rx = RxReorder::new(0);
        let mut truth = std::collections::HashSet::new();
        for s in received {
            rx.on_mpdu(s);
            truth.insert(s);
        }
        let ba: BlockAckFrame = rx.block_ack();
        for s in 0u16..64 {
            if ba.acks(s) {
                prop_assert!(truth.contains(&s), "BA acks un-received {s}");
            }
        }
    }

    /// Dedup: first copy of every distinct key passes; every repeat within
    /// capacity is suppressed — regardless of interleaving.
    #[test]
    fn dedup_exactly_once(keys in proptest::collection::vec(0u64..500, 1..2000)) {
        let mut d = Deduplicator::new(4096);
        let mut seen = std::collections::HashSet::new();
        for k in keys {
            let fresh = seen.insert(k);
            prop_assert_eq!(d.check_key(k), fresh);
        }
    }

    /// The event queue is a stable priority queue: under any interleaving
    /// of pushes and pops it agrees with an ordered set of
    /// `(time, push number)`, the push number being the payload —
    /// time-ordered, FIFO within a nanosecond, nothing lost. Offsets run
    /// from same-nanosecond ties through the bucket ring and past its
    /// ~67 ms horizon (the spill heap) to `SimTime::MAX`. Bursts of
    /// hundreds of events at one instant, drained by runs of pops, take
    /// the slab past the size at which a drained queue rebuilds it.
    #[test]
    fn event_queue_total_order(
        ops in proptest::collection::vec(
            (
                0u8..8,
                prop_oneof![
                    0u64..2,
                    0u64..100_000,
                    0u64..60_000_000,
                    60_000_000u64..500_000_000,
                    Just(u64::MAX),
                ],
                256usize..1536,
            ),
            1..400,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut model = std::collections::BTreeSet::new();
        let mut pushed = 0usize;
        let mut now = 0u64;
        for (kind, offset, run) in ops {
            let (pushes, pops) = match kind {
                0..=3 => (1, 0),
                4..=5 => (0, 1),
                6 => (run, 0),
                _ => (0, run),
            };
            let at = now.saturating_add(offset);
            for _ in 0..pushes {
                model.insert((at, pushed));
                q.push(SimTime::from_nanos(at), pushed);
                pushed += 1;
            }
            for _ in 0..pops {
                let want = model.pop_first().map(|(t, i)| (SimTime::from_nanos(t), i));
                prop_assert_eq!(q.peek_time(), want.map(|(t, _)| t));
                prop_assert_eq!(q.pop(), want);
                match want {
                    Some((t, _)) => now = t.as_nanos(),
                    None => break,
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        for (t, i) in model {
            prop_assert_eq!(q.pop(), Some((SimTime::from_nanos(t), i)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// The AP-selection time window never reports a stale median.
    #[test]
    fn time_window_median_is_fresh(
        samples in proptest::collection::vec((0u64..1000, -10.0f64..40.0), 1..200),
    ) {
        let mut sorted = samples.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut w = TimeWindow::new(SimDuration::from_millis(10));
        for (t, v) in &sorted {
            w.push(SimTime::from_millis(*t), *v);
        }
        let now = SimTime::from_millis(sorted.last().unwrap().0);
        w.evict(now);
        let fresh: Vec<f64> = sorted
            .iter()
            .filter(|(t, _)| now.saturating_since(SimTime::from_millis(*t)) <= SimDuration::from_millis(10))
            .map(|&(_, v)| v)
            .collect();
        prop_assert_eq!(w.len(), fresh.len());
        if let Some(m) = w.median() {
            let mut f = fresh.clone();
            f.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(m, f[f.len() / 2]);
        }
    }

    /// TCP sender/receiver pair: under arbitrary segment loss and ack
    /// delivery, cumulative acks never exceed contiguous delivered bytes,
    /// and the sender's una never exceeds the receiver's rcv_nxt.
    #[test]
    fn tcp_invariants_under_loss(loss in proptest::collection::vec(any::<bool>(), 200)) {
        let mut snd = TcpSender::new(TcpConfig::default());
        let mut rcv = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        let mut li = 0;
        for _round in 0..40 {
            let mut segs = Vec::new();
            while let Some(s) = snd.next_segment(now) {
                segs.push(s);
            }
            now += SimDuration::from_millis(10);
            let mut last_ack = None;
            for s in segs {
                let lost = loss.get(li % loss.len()).copied().unwrap_or(false);
                li += 1;
                if !lost {
                    last_ack = Some(rcv.on_data(s.seq, s.len));
                }
            }
            now += SimDuration::from_millis(10);
            if let Some(a) = last_ack {
                snd.on_ack(now, a);
            }
            snd.on_rto_check(now);
            prop_assert!(snd.snd_una() <= rcv.rcv_nxt());
        }
    }
}

/// The eleven window families, as the test names them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    Outage,
    Partition,
    Crash,
    Failover,
    Lag,
    Backhaul,
    Csi,
    Dup,
    Reorder,
    SeamLoss,
    SeamDup,
}

/// One fault window as the test added it — an entry of the flat list
/// `fault_queries_equal_a_brute_force_fold` folds by hand. A family reads
/// the fields it has: `ap` (outage, partition), `p` (every probability),
/// `d` (lag, backhaul latency, reorder hold-back), `jitter` (backhaul).
#[derive(Debug, Clone, Copy)]
struct Added {
    family: Family,
    from: SimTime,
    until: SimTime,
    ap: usize,
    p: f64,
    d: SimDuration,
    jitter: SimDuration,
}

const FAULT_APS: usize = 4;

/// The one place the test names a builder per family.
fn add_window(s: FaultSchedule, w: &Added) -> FaultSchedule {
    let Added {
        from, until, ap, p, ..
    } = *w;
    match w.family {
        Family::Outage => s.with_ap_outage(ap, from, until),
        Family::Partition => s.with_partition(ap, from, until),
        Family::Crash => s.with_controller_crash(from, until),
        Family::Failover => s.with_controller_failover(from, until),
        Family::Lag => s.with_journal_lag(from, until, w.d),
        Family::Backhaul => s.with_backhaul_fault(
            from,
            until,
            BackhaulFault {
                extra_loss_prob: p,
                extra_latency: w.d,
                extra_jitter_mean: w.jitter,
            },
        ),
        Family::Csi => s.with_csi_drops(from, until, p),
        Family::Dup => s.with_duplication(from, until, p),
        Family::Reorder => s.with_reordering(from, until, p, w.d),
        Family::SeamLoss => s.with_migration_loss(from, until, p),
        Family::SeamDup => s.with_migration_dup(from, until, p),
    }
}

fn build(list: &[Added]) -> FaultSchedule {
    list.iter().fold(FaultSchedule::new(), add_window)
}

/// A seeded schedule over all eleven families, in shuffled insertion
/// order: four disjoint windows per AP for outages and for partitions,
/// four on the one controller timeline (cold crash and failover
/// alternating), and five per stackable family of which the first three
/// all cover `[4 s, 5 s)`.
fn random_fault_list(seed: u64) -> Vec<Added> {
    use Family::*;
    let mut rng = SimRng::new(seed).fork("fault-property");
    let mut list: Vec<Added> = Vec::new();
    let mut add = |rng: &mut SimRng, family, ap, from_ms, until_ms| {
        list.push(Added {
            family,
            from: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(until_ms),
            ap,
            p: rng.range(0.01..1.0),
            d: SimDuration::from_micros(rng.range(1..5000u64)),
            jitter: SimDuration::from_micros(rng.range(0..500u64)),
        });
    };
    // Families whose windows claim a target: walk its timeline forward.
    let timelines = (0..FAULT_APS)
        .flat_map(|ap| [(ap, [Outage; 4]), (ap, [Partition; 4])])
        .chain([(0, [Crash, Failover, Crash, Failover])]);
    for (ap, families) in timelines {
        let mut at = 0u64;
        for family in families {
            let from = at + rng.range(0..1500u64);
            at = from + rng.range(1..1500u64);
            add(&mut rng, family, ap, from, at);
        }
    }
    for k in 0..5 {
        for family in [Lag, Backhaul, Csi, Dup, Reorder, SeamLoss, SeamDup] {
            let (from, until) = if k < 3 {
                (rng.range(0..4000u64), rng.range(5000..10_000u64))
            } else {
                let from = rng.range(0..9000u64);
                (from, from + rng.range(1..3000u64))
            };
            add(&mut rng, family, 0, from, until);
        }
    }
    rng.shuffle(&mut list);
    list
}

/// Every `FaultSchedule` query, on a time grid that includes each window's
/// first and last instant and the instants either side, equals a fold over
/// the flat list of what was added — bit for bit for the probabilities,
/// which therefore compose in insertion order, not start order.
#[test]
fn fault_queries_equal_a_brute_force_fold() {
    use Family::*;
    for seed in 0..6 {
        let list = random_fault_list(seed);
        let s = build(&list);
        assert_eq!(s.window_count(), list.len());
        assert!(!s.is_empty());

        let ns = SimDuration::from_nanos(1);
        let mut grid: Vec<SimTime> = (0..=12_000).step_by(37).map(SimTime::from_millis).collect();
        for w in &list {
            grid.extend([w.from, w.from + ns, w.until, w.until + ns]);
            grid.extend(
                [w.from, w.until].map(|t| SimTime::from_nanos(t.as_nanos().saturating_sub(1))),
            );
        }
        for t in grid {
            // The windows of `family` open at `t`, in insertion order.
            let active = |family: Family| {
                list.iter()
                    .filter(move |w| w.family == family && w.from <= t && t < w.until)
            };
            // `1 − Π(1 − p)`, multiplied in that order.
            let prob = |family| 1.0 - active(family).fold(1.0f64, |keep, w| keep * (1.0 - w.p));
            let sum = |family, of: fn(&Added) -> SimDuration| {
                active(family).fold(SimDuration::ZERO, |sum, w| sum + of(w))
            };
            for ap in 0..=FAULT_APS {
                let down = active(Outage).any(|w| w.ap == ap);
                let cut = active(Partition).any(|w| w.ap == ap);
                assert_eq!(s.ap_down(ap, t), down, "ap_down({ap}, {t})");
                assert_eq!(s.partitioned(ap, t), down || cut, "partitioned({ap}, {t})");
            }
            let crashed = active(Crash).next().is_some();
            assert_eq!(s.controller_down(t), crashed, "controller_down({t})");
            assert_eq!(s.journal_lag_at(t), sum(Lag, |w| w.d), "lag at {t}");
            let imp = s.backhaul_at(t);
            let hold = active(Reorder).map(|w| w.d).max().unwrap_or_default();
            assert_eq!(imp.extra_latency, sum(Backhaul, |w| w.d), "latency at {t}");
            assert_eq!(
                imp.extra_jitter_mean,
                sum(Backhaul, |w| w.jitter),
                "jitter at {t}"
            );
            assert_eq!(imp.reorder_window, hold, "reorder_window at {t}");
            for (name, got, family) in [
                ("extra_loss_prob", imp.extra_loss_prob, Backhaul),
                ("dup_prob", imp.dup_prob, Dup),
                ("reorder_prob", imp.reorder_prob, Reorder),
                ("csi_drop_prob", s.csi_drop_prob(t), Csi),
                ("migration_loss_prob", s.migration_loss_prob(t), SeamLoss),
                ("migration_dup_prob", s.migration_dup_prob(t), SeamDup),
            ] {
                assert_eq!(
                    got.to_bits(),
                    prob(family).to_bits(),
                    "{name} at {t} (seed {seed})"
                );
            }
        }

        let mut edges: Vec<(SimTime, FaultEdge)> = Vec::new();
        for w in &list {
            let (down, up) = match w.family {
                Outage => (FaultEdge::Crash(w.ap), FaultEdge::Reboot(w.ap)),
                Crash => (FaultEdge::ControllerCrash, FaultEdge::ControllerRecover),
                Failover => (FaultEdge::ControllerCrash, FaultEdge::ZombieWake),
                _ => continue,
            };
            edges.extend([(w.from, down), (w.until, up)]);
        }
        // Crash before reboot before zombie wake; APs by index, then the
        // controller. No two edges share a key, so the order is total.
        edges.sort_by_key(|&(t, e)| match e {
            FaultEdge::Crash(ap) => (t, 0, ap),
            FaultEdge::ControllerCrash => (t, 0, usize::MAX),
            FaultEdge::Reboot(ap) => (t, 1, ap),
            FaultEdge::ControllerRecover => (t, 1, usize::MAX),
            FaultEdge::ZombieWake => (t, 2, usize::MAX),
        });
        assert_eq!(s.edges(), edges, "edges (seed {seed})");
    }
}

/// The shrinker scans shard → family → newest window first and restarts
/// after every deletion it keeps, so of several windows that each satisfy
/// the predicate the *first inserted* is the one left standing.
#[test]
fn shrink_keeps_the_first_inserted_culprits() {
    let lists = [random_fault_list(100), random_fault_list(101)];
    let storm: Vec<FaultSchedule> = lists.iter().map(|l| build(l)).collect();
    // At least three windows of every stackable family cover this instant.
    let t = SimTime::from_millis(4500);
    let fails = |ss: &[FaultSchedule]| {
        ss[0].migration_loss_prob(t) > 0.0 && ss[1].backhaul_at(t).dup_prob > 0.0
    };
    let first = |list: &[Added], family: Family| {
        let covering = || {
            list.iter()
                .filter(|w| w.family == family && w.from <= t && t < w.until)
        };
        assert!(covering().count() >= 3);
        add_window(FaultSchedule::new(), covering().next().unwrap())
    };
    let want = vec![
        first(&lists[0], Family::SeamLoss),
        first(&lists[1], Family::Dup),
    ];
    assert_eq!(shrink(storm, fails), want);
}

/// Seeded links for the ceiling properties: shadowing off (seed 0) and on,
/// the default tap shape and a 3-tap, 19-sinusoid one, at every AP; each
/// with a stream of draws for points.
fn ceiling_links() -> Vec<(wgtt::phy::WirelessLink, SimRng)> {
    use wgtt::phy::{DeploymentConfig, LinkConfig, WirelessLink};
    let dep = DeploymentConfig::default().build();
    let mut out = Vec::new();
    for seed in 0..4u64 {
        let mut cfg = LinkConfig::default();
        cfg.shadowing.sigma_db = seed as f64 * 2.0;
        if seed % 2 == 1 {
            cfg.fading.num_taps = 3;
            cfg.fading.num_sinusoids = 19;
        }
        let root = SimRng::new(0x7a9 + seed);
        for (a, site) in dep.aps.iter().enumerate() {
            let mut r = root.fork_indexed("link", a as u64);
            let link = WirelessLink::new(*site, cfg.clone(), &mut r);
            out.push((link, root.fork_indexed("points", a as u64)));
        }
    }
    out
}

/// A point on or off the road, a speed from rest to 90 mph and an instant
/// in the first minute.
fn ceiling_point(draw: &mut SimRng) -> (wgtt::phy::Position, f64, SimTime) {
    let pos = wgtt::phy::Position::new(draw.range(-40.0..140.0), draw.range(2.0..10.0), 1.5);
    let speed = draw.range(0.0..40.0);
    let t = SimTime::from_nanos((draw.range(0.0..60.0) * 1e9) as u64);
    (pos, speed, t)
}

/// Two memos agree bit for bit: the best tone and the ESNR of every
/// modulation.
fn assert_same_memo(mut got: wgtt::phy::EsnrMemo, mut want: wgtt::phy::EsnrMemo, what: &str) {
    use wgtt::phy::Modulation;
    assert_eq!(
        got.best_tone_db().to_bits(),
        want.best_tone_db().to_bits(),
        "{what}"
    );
    for m in Modulation::ALL {
        assert_eq!(
            got.esnr_db(m).to_bits(),
            want.esnr_db(m).to_bits(),
            "{what} {m:?}"
        );
    }
}

/// The oracle's tap ceiling (`core/oracle.rs`) is sound and its split
/// snapshot exact: for seeded links, positions, speeds and instants,
/// `gains_ceiling_db` is never below the finished snapshot's best tone —
/// itself a ceiling on the ESNR of every modulation — and `memo`,
/// `memo_from_gains` and `beacon` are the memo of `csi`'s snapshot bit for
/// bit, `beacon`'s RSSI that snapshot's mean tone power over the mean SNR.
#[test]
fn tap_ceiling_bounds_the_snapshot_it_finishes() {
    use wgtt::phy::{linear_to_db, EsnrMemo};
    let mut gains = Vec::new();
    for (a, (link, mut draw)) in ceiling_links().into_iter().enumerate() {
        for _ in 0..150 {
            let (pos, speed, t) = ceiling_point(&mut draw);
            let what = format!("link {a} t={t}");
            let whole = link.csi(t, &pos, speed);
            let reach = link.tap_gains(t, speed, &mut gains);
            assert_same_memo(
                link.memo_from_gains(&pos, &gains),
                EsnrMemo::new(&whole),
                &what,
            );
            assert_same_memo(link.memo(t, &pos, speed), EsnrMemo::new(&whole), &what);
            let (beacon, rssi) = link.beacon(t, &pos, speed);
            assert_same_memo(beacon, EsnrMemo::new(&whole), &what);
            let power = whole.h.iter().map(|h| h.abs2()).sum::<f64>() / whole.h.len() as f64;
            let want = whole.mean_snr_db + linear_to_db(power);
            assert_eq!(rssi.to_bits(), want.to_bits(), "{what} rssi");

            let ceiling = link.gains_ceiling_db(&pos, reach);
            let best_tone = EsnrMemo::new(&whole).best_tone_db();
            assert!(ceiling >= best_tone, "{what}: {ceiling} < {best_tone}");
        }
    }
}

/// The oracle's remembered-reach ceiling is sound from whatever a link
/// remembers: the reach of taps evaluated at one `(t, speed)` bounds the
/// reach — so the tap ceiling, so the best tone — at any later instant,
/// any earlier one and any other speed, near the remembered instant, where
/// it prunes, and far from it.
#[test]
fn remembered_reach_bounds_any_other_instant_and_speed() {
    let mut gains = Vec::new();
    for (a, (link, mut draw)) in ceiling_links().into_iter().enumerate() {
        assert_eq!(
            link.reach_ceiling_db(SimTime::ZERO, &ceiling_point(&mut draw).0, 10.0),
            f64::INFINITY,
            "link {a} remembered nothing yet"
        );
        for _ in 0..10 {
            let (pos, speed0, t0) = ceiling_point(&mut draw);
            for k in 0..12u64 {
                // 1 µs to 2 s either side, at the same speed or another.
                let dt = SimDuration::from_micros(1 + k * k * k * 1_200);
                let t = if k % 2 == 0 { t0 + dt } else { t0 - dt };
                let speed = if k % 3 == 0 {
                    speed0
                } else {
                    draw.range(0.0..40.0)
                };
                link.tap_gains(t0, speed0, &mut gains);
                let ceiling = link.reach_ceiling_db(t, &pos, speed);
                let reach = link.tap_gains(t, speed, &mut gains);
                let tap_ceiling = link.gains_ceiling_db(&pos, reach);
                let best_tone = link.memo(t, &pos, speed).best_tone_db();
                let what =
                    format!("link {a}: remembered at t={t0} {speed0} m/s, at t={t} {speed} m/s");
                assert!(ceiling >= tap_ceiling, "{what}: {ceiling} < {tap_ceiling}");
                assert!(
                    ceiling >= best_tone,
                    "{what}: {ceiling} < best tone {best_tone}"
                );
            }
        }
    }
}

/// Oracle samples, each with the crashed-AP set at its tick.
type Stream = Vec<(wgtt::core::oracle::Sample, Vec<bool>)>;

/// A world's `links[ap][client]`.
type Links = Vec<Vec<wgtt::phy::WirelessLink>>;

/// Per-sample oracle inputs of a hand-driven world, as its accuracy tick
/// records them: three vehicles a few seconds apart through the default
/// deployment, `faults` applied, one sample per vehicle per millisecond.
/// Returns the samples with their crashed-AP sets, the run's links (each
/// remembering where it last evaluated its taps, later than any sample)
/// and untouched links of the same seed.
fn recorded_stream(faults: FaultSchedule, seconds: u64) -> (Stream, Links, Links) {
    use wgtt::core::config::SystemConfig;
    use wgtt::core::oracle::Sample;
    use wgtt::core::runner::{ClientSpec, Scenario, TrajectorySpec};
    let clients = [(25.0, 4.0), (35.0, 20.0), (15.0, -6.0)]
        .iter()
        .map(|&(mph, lead_in_m)| ClientSpec {
            trajectory: TrajectorySpec::DriveBy { mph, lead_in_m },
            flows: Vec::new(),
        })
        .collect();
    let scenario = Scenario {
        config: SystemConfig::default(),
        clients,
        duration: SimDuration::from_secs(seconds),
        seed: 29,
        log_deliveries: false,
        flow_start: SimDuration::from_millis(1),
        faults: faults.clone(),
    };
    let untouched = scenario.build().into_world().links;
    let mut sim = scenario.build();
    let n_aps = sim.world().deployment.aps.len();
    let mut samples = Vec::new();
    for k in 0..seconds * 1000 {
        let t = SimTime::from_micros(500 + k * 1000);
        sim.run_until(t);
        let down: Vec<bool> = (0..n_aps).map(|ap| faults.ap_down(ap, t)).collect();
        for (c, client) in sim.world().clients.iter().enumerate() {
            let sample = Sample {
                t,
                client: c as u32,
                serving: client.serving.map(|a| a.0),
                pos: client.position(t),
                speed: client.speed(t),
            };
            samples.push((sample, down.clone()));
        }
    }
    (samples, sim.world().links.clone(), untouched)
}

/// The recorded convoy stream and the recorded storm stream (APs flapping
/// and one out under the same convoy), three seconds each.
fn oracle_streams() -> Vec<(&'static str, (Stream, Links, Links))> {
    let storm = FaultSchedule::new()
        .with_ap_flapping(
            2,
            SimTime::from_millis(200),
            SimTime::from_millis(1700),
            SimDuration::from_millis(90),
            0.4,
        )
        .with_ap_flapping(
            4,
            SimTime::from_millis(900),
            SimTime::from_secs(3),
            SimDuration::from_millis(130),
            0.5,
        )
        .with_ap_outage(3, SimTime::from_millis(1500), SimTime::from_millis(2300));
    [("convoy", FaultSchedule::new()), ("storm", storm)]
        .into_iter()
        .map(|(what, faults)| (what, recorded_stream(faults, 3)))
        .collect()
}

/// A verdict's bits: `(loss, has_serving, optimal)`.
type VerdictBits = Option<(u64, bool, bool)>;

fn verdict_bits(v: Option<wgtt::core::oracle::Verdict>) -> VerdictBits {
    v.map(|v| (v.loss.to_bits(), v.has_serving, v.optimal))
}

/// What `link` remembers cannot change a verdict: a recorded convoy stream
/// and a recorded storm stream give the same verdicts, to the bit,
/// evaluated in order on links that carry state from later instants, in
/// reverse order, and on a fresh clone of untouched links per sample with
/// no warm-start hint.
#[test]
fn oracle_verdicts_do_not_depend_on_remembered_state() {
    use wgtt::core::config::SystemConfig;
    use wgtt::core::oracle::{evaluate, Scratch};
    use wgtt::phy::WirelessLink;
    let cfg = SystemConfig::default();
    let mut scratch = Scratch::default();
    for (what, (samples, mut kept, untouched)) in oracle_streams() {
        let fresh: Vec<_> = samples
            .iter()
            .map(|(s, down)| {
                let c = s.client as usize;
                let links: Vec<WirelessLink> = untouched.iter().map(|row| row[c].clone()).collect();
                let v = evaluate(s, down, |ap| &links[ap], &cfg, &mut None, &mut scratch);
                verdict_bits(v)
            })
            .collect();
        let mut replay = |links: &Links, order: &mut dyn Iterator<Item = usize>| {
            let mut warm = [None; 3];
            let mut out = vec![None; samples.len()];
            for i in order {
                let (s, down) = &samples[i];
                let c = s.client as usize;
                let v = evaluate(
                    s,
                    down,
                    |ap| &links[ap][c],
                    &cfg,
                    &mut warm[c],
                    &mut scratch,
                );
                out[i] = verdict_bits(v);
            }
            out
        };
        assert_eq!(
            replay(&kept, &mut (0..samples.len())),
            fresh,
            "{what}, in order"
        );
        kept.clone_from(&untouched);
        assert_eq!(
            replay(&kept, &mut (0..samples.len()).rev()),
            fresh,
            "{what}, reversed"
        );
        assert!(
            fresh.iter().any(|v| v.is_some_and(|v| !v.2)),
            "{what}: never suboptimal"
        );
    }
}

/// The oracle skips only work its verdict cannot read: over the recorded
/// convoy and storm streams, every verdict equals, to the bit, a reference
/// that integrates every in-range AP's 16-QAM ESNR, takes the plain
/// ascending argmax and always folds both capacities. The streams hold
/// every case the oracle short-cuts or falls back on: a serving AP alone
/// in range, a serving AP that is down, and no serving AP.
#[test]
fn oracle_verdicts_equal_a_full_reference() {
    use wgtt::core::config::SystemConfig;
    use wgtt::core::oracle::{evaluate, Scratch};
    use wgtt::core::world::RANGE_FLOOR_DB;
    use wgtt::phy::{GuardInterval, CONTROLLER_MODULATION};
    let cfg = SystemConfig::default();
    let mut scratch = Scratch::default();
    let (mut alone, mut down_serving, mut unserved) = (0, 0, 0);
    for (what, (samples, _, untouched)) in oracle_streams() {
        let mut warm = [None; 3];
        for (i, (s, down)) in samples.iter().enumerate() {
            let c = s.client as usize;
            let link = |ap: usize| &untouched[ap][c];
            let in_range: Vec<usize> = (0..down.len())
                .filter(|&ap| !down[ap] && link(ap).mean_snr_db(&s.pos) >= RANGE_FLOOR_DB)
                .collect();
            let serving = s.serving.map(|a| a as usize);
            alone += usize::from(in_range.len() == 1 && serving == in_range.first().copied());
            down_serving += usize::from(serving.is_some_and(|ap| down[ap]));
            unserved += usize::from(serving.is_none() && !in_range.is_empty());
            let memo = |ap: usize| link(ap).memo(s.t, &s.pos, s.speed);
            let mut best: Option<(usize, f64)> = None;
            for &ap in &in_range {
                let e = memo(ap).esnr_db(CONTROLLER_MODULATION);
                if best.map_or(true, |(_, b)| e > b) {
                    best = Some((ap, e));
                }
            }
            let want = best.map(|(oracle, _)| {
                let cap = |ap| {
                    cfg.per_model
                        .capacity_with(&mut memo(ap), GuardInterval::Short, 1500)
                };
                let serv_cap = serving.map_or(0.0, cap);
                let loss = (cap(oracle) - serv_cap).max(0.0);
                (loss.to_bits(), serving.is_some(), serving == Some(oracle))
            });
            let got = evaluate(s, down, link, &cfg, &mut warm[c], &mut scratch);
            assert_eq!(verdict_bits(got), want, "{what}, sample {i}: {s:?}");
        }
    }
    assert!(alone > 0, "no sample with its serving AP alone in range");
    assert!(down_serving > 0, "no sample with its serving AP down");
    assert!(
        unserved > 0,
        "no sample in range of an AP with no serving AP"
    );
}
