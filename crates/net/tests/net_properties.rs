//! Property-based tests on the network substrate.

use proptest::prelude::*;
use wgtt_net::{Backhaul, CbrSource, SackBlocks, TcpConfig, TcpReceiver, TcpSender, UdpSink};
use wgtt_sim::{BackhaulImpairment, SimDuration, SimRng, SimTime};

proptest! {
    /// A CBR source emits exactly `floor(t·rate/size) + 1` datagrams by
    /// time t (the +1 for the one at t = 0), with consecutive sequence
    /// numbers.
    #[test]
    fn cbr_emission_count(rate_mbps in 1u64..100, payload in 200usize..1500, ms in 1u64..5_000) {
        let rate = rate_mbps * 1_000_000;
        let mut src = CbrSource::new(rate, payload, SimTime::ZERO);
        let now = SimTime::from_millis(ms);
        let mut seqs = Vec::new();
        while let Some(q) = src.emit(now) {
            seqs.push(q);
        }
        // Count: interval = payload·8/rate; emissions at 0, i, 2i, … ≤ now.
        let interval_ns = (payload as u128 * 8 * 1_000_000_000).div_ceil(rate as u128) as u64;
        let expect = now.as_nanos() / interval_ns + 1;
        prop_assert_eq!(seqs.len() as u64, expect);
        for (i, &q) in seqs.iter().enumerate() {
            prop_assert_eq!(q, i as u64);
        }
    }

    /// The UDP sink's loss accounting: received + lost = highest + 1, and
    /// duplicates never affect either.
    #[test]
    fn udp_sink_accounting(
        arrivals in proptest::collection::vec(0u64..200, 1..400),
    ) {
        let mut sink = UdpSink::new();
        let mut distinct = std::collections::HashSet::new();
        for (i, &seq) in arrivals.iter().enumerate() {
            let fresh = distinct.insert(seq);
            let t = SimTime::from_micros(i as u64 * 50);
            prop_assert_eq!(sink.on_receive(t, seq, 100), fresh);
        }
        prop_assert_eq!(sink.received(), distinct.len() as u64);
        prop_assert_eq!(
            sink.duplicates(),
            (arrivals.len() - distinct.len()) as u64
        );
        let highest = *arrivals.iter().max().unwrap();
        let expected_loss = 1.0 - distinct.len() as f64 / (highest + 1) as f64;
        prop_assert!((sink.loss_rate() - expected_loss).abs() < 1e-12);
    }

    /// Backhaul delays are at least base + wire time and respect the
    /// configured loss probability at the extremes.
    #[test]
    fn backhaul_delay_floor(len in 1usize..100_000, seed in 0u64..500) {
        let mut b = Backhaul::new(SimRng::new(seed));
        let d = b.transit(len).unwrap();
        let wire = SimDuration::for_bits(len as u64 * 8, Backhaul::RATE_BPS);
        prop_assert!(d >= Backhaul::BASE_DELAY + wire);
    }

    /// TCP sender conservation: retransmit counter only grows, snd_una is
    /// monotone, and completion is stable under arbitrary ack sequences.
    #[test]
    fn tcp_sender_monotonicity(
        acks in proptest::collection::vec(0u64..2_000_000, 1..200),
    ) {
        let mut s = TcpSender::with_limit(TcpConfig::default(), 1_000_000);
        let mut now = SimTime::ZERO;
        let mut last_una = 0;
        let mut was_complete = false;
        for (i, &a) in acks.iter().enumerate() {
            while s.next_segment(now).is_some() {}
            s.on_ack(now, a);
            prop_assert!(s.snd_una() >= last_una, "una went backwards");
            last_una = s.snd_una();
            if was_complete {
                prop_assert!(s.is_complete(), "completion reverted");
            }
            was_complete = s.is_complete();
            now += SimDuration::from_millis(5 + (i as u64 % 7));
            s.on_rto_check(now);
        }
    }

    /// Receiver + SACK blocks: blocks never overlap the cumulative ack and
    /// are sorted, disjoint, and within received data.
    #[test]
    fn sack_blocks_are_wellformed(
        segs in proptest::collection::vec((0u64..60, 1u64..4), 1..60),
    ) {
        let mut r = TcpReceiver::new();
        let mss = 1000u64;
        for &(start, len) in &segs {
            r.on_data(start * mss, (len * mss) as usize);
        }
        let ack = r.rcv_nxt();
        let blocks = r.sack_blocks(3);
        prop_assert!(blocks.len() <= 3);
        let mut prev_end = ack;
        for &(s, e) in &blocks {
            prop_assert!(s >= prev_end, "block overlaps ack/previous: {blocks:?}");
            prop_assert!(e > s);
            prev_end = e;
        }
    }

    /// What an ACK carries of a receiver's SACK blocks is exactly the
    /// blocks: every state a receiver can reach (anywhere in the 64-bit
    /// sequence space, a window under 4 GiB) survives the 32-bit relative
    /// encoding, so the sender sees what absolute pairs would have shown it.
    #[test]
    fn sack_blocks_round_trip_through_the_ack(
        base in any::<u32>(),
        segs in proptest::collection::vec((0u64..60, 1u64..4), 1..60),
    ) {
        let mut r = TcpReceiver::new();
        let mss = 1448u64;
        let base = (base as u64) << 24;
        r.on_data(0, base as usize); // everything below `base` is delivered
        for &(start, len) in &segs {
            r.on_data(base + start * mss, (len * mss) as usize);
        }
        let ack = r.rcv_nxt();
        let blocks = r.sack_blocks(3);
        let carried: Vec<_> = SackBlocks::new(ack, &blocks).blocks(ack).collect();
        prop_assert_eq!(carried, blocks);
    }

    /// Arbitrary block lists — below the ack, inverted, astronomically far —
    /// never panic or wrap: each block is either carried exactly or left out.
    #[test]
    fn sack_encoding_carries_a_block_exactly_or_not_at_all(
        ack in any::<u64>(),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u32..4), 0..6),
    ) {
        // Mix blocks near the ack (which can fit) with arbitrary ones.
        let near = |x: u64, y: u64| (ack.wrapping_add(x % 100_000), ack.wrapping_add(y % 100_000));
        let blocks: Vec<(u64, u64)> = raw
            .iter()
            .map(|&(a, b, kind)| if kind == 0 { (a, b) } else { near(a, b) })
            .collect();
        let carried: Vec<_> = SackBlocks::new(ack, &blocks).blocks(ack).collect();
        let fits = |&&(s, e): &&(u64, u64)| {
            s >= ack && e > s && s - ack <= u32::MAX as u64 && e - s <= u32::MAX as u64
        };
        let expect: Vec<_> = blocks.iter().filter(fits).take(3).copied().collect();
        prop_assert_eq!(carried, expect);
    }
}

#[test]
fn backhaul_extreme_loss_rates() {
    let mut b = Backhaul::new(SimRng::new(1));
    let loss = |extra_loss_prob| BackhaulImpairment {
        extra_loss_prob,
        ..BackhaulImpairment::default()
    };
    assert!(b.transit_faulty(100, &loss(1.0)).primary.is_none());
    assert!(b.transit_faulty(100, &loss(0.0)).primary.is_some());
    assert!(b.transit(100).is_some());
}
