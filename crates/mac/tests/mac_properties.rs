//! Property-based tests on the MAC substrate.

use proptest::prelude::*;
use wgtt_mac::ampdu::AmpduPolicy;
use wgtt_mac::blockack::{RxReorder, TxScoreboard};
use wgtt_mac::timing::{
    ampdu_airtime, contention_window, frame_airtime, payload_airtime, CW_MAX, CW_MIN,
    MAX_AMPDU_BYTES, MPDU_DELIMITER_BYTES,
};
use wgtt_phy::{GuardInterval, Mcs};

proptest! {
    /// Contention window stays within [CWmin, CWmax] and is monotone in
    /// the retry count.
    #[test]
    fn cw_bounds(retries in 0u32..64) {
        let cw = contention_window(retries);
        prop_assert!((CW_MIN..=CW_MAX).contains(&cw));
        prop_assert!(contention_window(retries + 1) >= cw);
    }

    /// Airtime grows with payload size and shrinks with MCS.
    #[test]
    fn airtime_monotonicity(bytes in 100usize..60_000, extra in 1usize..5_000, mcs in 0u8..7) {
        let gi = GuardInterval::Long;
        prop_assert!(
            payload_airtime(bytes + extra, Mcs(mcs), gi) >= payload_airtime(bytes, Mcs(mcs), gi)
        );
        prop_assert!(
            payload_airtime(bytes, Mcs(mcs + 1), gi) <= payload_airtime(bytes, Mcs(mcs), gi)
        );
        prop_assert!(frame_airtime(bytes, Mcs(mcs), gi) > payload_airtime(bytes, Mcs(mcs), gi));
    }

    /// The aggregation policy never exceeds any of its limits, never takes
    /// more than available, and always admits at least one pending MPDU
    /// when the window allows it.
    #[test]
    fn ampdu_policy_respects_limits(
        lens in proptest::collection::vec(60usize..2000, 0..120),
        window in 0usize..65,
        mcs in 0u8..8,
    ) {
        let p = AmpduPolicy::default();
        let gi = GuardInterval::Short;
        let n = p.take_count(&lens, Mcs(mcs), gi, window);
        prop_assert!(n <= lens.len());
        prop_assert!(n <= window.min(p.max_mpdus));
        if !lens.is_empty() && window > 0 {
            prop_assert!(n >= 1);
        }
        if n > 1 {
            let bytes: usize = lens[..n].iter().map(|l| l + MPDU_DELIMITER_BYTES).sum();
            prop_assert!(bytes <= MAX_AMPDU_BYTES);
            prop_assert!(ampdu_airtime(&lens[..n], Mcs(mcs), gi) <= p.max_duration);
        }
    }

    /// Scoreboard + reorderer with a *perfect* channel: one round delivers
    /// and acknowledges everything, whatever the start sequence and count.
    #[test]
    fn blockack_perfect_channel_one_round(start in 0u16..4096, count in 1usize..64) {
        let mut tx = TxScoreboard::new(start);
        let mut rx = RxReorder::new(start);
        let seqs: Vec<u16> = (0..count).map(|_| tx.assign()).collect();
        for &s in &seqs {
            prop_assert!(rx.on_mpdu(s));
        }
        // The world's entry point, into a buffer that already holds junk.
        let mut newly = vec![9_999];
        tx.on_block_ack_into(&rx.block_ack(), &mut newly);
        prop_assert_eq!(newly, seqs);
        prop_assert_eq!(tx.outstanding(), 0);
        prop_assert_eq!(rx.release_in_order(), count as u32);
    }

    /// Duplicate MPDUs are always flagged and never double-released.
    #[test]
    fn reorderer_dedups(start in 0u16..4096, count in 1usize..64) {
        let mut rx = RxReorder::new(start);
        let seqs: Vec<u16> = (0..count as u16)
            .map(|i| wgtt_mac::seq_add(start, i))
            .collect();
        for &s in &seqs {
            rx.on_mpdu(s);
        }
        for &s in &seqs {
            prop_assert!(!rx.on_mpdu(s), "duplicate {s} accepted");
        }
        prop_assert_eq!(rx.accepted(), count as u64);
        prop_assert_eq!(rx.duplicates(), count as u64);
        prop_assert_eq!(rx.release_in_order() as usize, count);
    }

    /// Dropping any subset of outstanding sequences leaves the scoreboard
    /// consistent (outstanding = assigned − dropped) and re-ackable.
    #[test]
    fn scoreboard_drop_consistency(
        count in 1usize..64,
        drop_mask in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let mut tx = TxScoreboard::new(0);
        let seqs: Vec<u16> = (0..count).map(|_| tx.assign()).collect();
        let mut dropped = 0;
        for (i, &s) in seqs.iter().enumerate() {
            if drop_mask[i] {
                prop_assert!(tx.drop_seq(s));
                dropped += 1;
            }
        }
        prop_assert_eq!(tx.outstanding(), count - dropped);
        // The survivors are exactly the un-dropped ones, in order.
        let expect: Vec<u16> = seqs
            .iter()
            .enumerate()
            .filter(|(i, _)| !drop_mask[*i])
            .map(|(_, &s)| s)
            .collect();
        prop_assert_eq!(tx.unacked(), expect);
    }
}
