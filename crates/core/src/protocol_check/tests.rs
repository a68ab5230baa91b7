//! The checker's own state, step by step. Every slice — a configuration
//! searched end to end — is in the root package's `tests/checker.rs`.

use super::*;

/// The two situations the lagged-journal slice violated in while a
/// fed journal was trusted without a round (shortest traces
/// `[Deliver(0), FailoverToStandby(1)]` → `EpochRegression` and
/// `[FailoverToStandby(1), Deliver(0), …]` → `DualServing`): the dead
/// reign's `start`, or its `stop`, reaches an AP after the takeover.
/// The round raised every fence first, so the frame is dropped there,
/// and draining the wire leaves at most one AP serving at every step.
#[test]
fn lagged_journal_traces_replay() {
    let cfg = CheckerConfig {
        switches: vec![(0, 1), (0, 2)],
        max_failovers: 1,
        max_journal_lag: 1,
        ..CheckerConfig::default()
    };
    let step = |st: &mut State, choice: Choice, tally: &mut CheckReport| {
        assert!(st.choices(&cfg).contains(&choice), "{choice:?}");
        assert_eq!(st.apply(&cfg, choice, tally), Ok(()), "{choice:?}");
        assert!(st.aps.iter().filter(|a| a.serving).count() <= 1);
    };
    let dead_reign = |m: &NetMsg| {
        matches!(
            m,
            NetMsg::Stop { term: 1, .. } | NetMsg::Start { term: 1, .. }
        )
    };
    for start_in_flight in [true, false] {
        let (mut st, mut tally) = (State::initial(&cfg), CheckReport::default());
        if start_in_flight {
            // The `stop` at AP 0, the only frame on the wire.
            step(&mut st, Choice::Deliver(0), &mut tally);
        }
        step(&mut st, Choice::FailoverToStandby(1), &mut tally);
        let old = st
            .net
            .iter()
            .position(dead_reign)
            .expect("still on the wire");
        let fenced = tally.term_fence_drops;
        step(&mut st, Choice::Deliver(old), &mut tally);
        assert_eq!(tally.term_fence_drops, fenced + 1, "{start_in_flight}");
        while !st.net.is_empty() {
            step(&mut st, Choice::Deliver(0), &mut tally);
        }
    }
}

/// The wire is a multiset: the same frames sent in either order make one
/// state, and [`Choice::Deliver`] names a frame by its place in the
/// sorted wire, not by when it was sent.
#[test]
fn send_order_does_not_split_states() {
    let cfg = CheckerConfig::default();
    let stop = NetMsg::Stop {
        ap: 1,
        to_ap: 2,
        epoch: 2,
        term: 1,
    };
    let ack = NetMsg::Ack {
        from_ap: 1,
        epoch: 1,
    };
    let (mut a, mut b) = (State::initial(&cfg), State::initial(&cfg));
    a.send(&cfg, stop);
    a.send(&cfg, ack);
    b.send(&cfg, ack);
    b.send(&cfg, stop);
    assert!(a == b, "{:?} vs {:?}", a.net, b.net);
    assert!(a.net.windows(2).all(|w| w[0] <= w[1]));
}
