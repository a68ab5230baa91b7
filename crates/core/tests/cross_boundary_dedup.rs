//! Cross-boundary uplink de-duplication (the migration protocol's dedup
//! transfer, exercised end-to-end).
//!
//! The hazard: an uplink packet is forwarded to the source controller and
//! delivered to the Internet, but the radio ack back to the client is
//! lost, so the packet stays in the client's uplink queue with a bumped
//! retry count. The client then crosses a shard boundary. Its queue rides
//! the migration record to the destination, which retransmits — and
//! unless the source's recent dedup keys were re-primed under the
//! client's new address, the destination controller forwards the
//! retransmit and the server receives the same datagram twice. A backhaul
//! duplication window straddling the barrier maximises the number of
//! forwarded copies in flight around the crossing instant.
//!
//! Each world has its own server sink, so per-sink duplicate counters are
//! structurally blind to this: the double delivery is only visible by
//! intersecting the sequence sets the two sinks accepted. This test pins
//! both directions: the real transfer yields an empty intersection, and
//! the same record with its dedup keys stripped (the no-transfer shim)
//! yields a non-empty one — proving the clean result is the key transfer
//! working, not the hazard failing to materialise.

use wgtt_core::config::SystemConfig;
use wgtt_core::runner::{ClientSpec, FlowSpec, Scenario, TrajectorySpec};
use wgtt_core::world::{
    prime_migrant_events, FlowKind, MigrantFlow, MigrantSpec, MigrationRecord, SeamPayload,
    WgttWorld,
};
use wgtt_net::Payload;
use wgtt_phy::mph_to_mps;
use wgtt_sim::{FaultSchedule, SimDuration, SimTime, Simulator};

const RATE_BPS: u64 = 2_000_000;
const PAYLOAD: usize = 1472;
const MPH: f64 = 35.0;

/// A world of `clients` on four APs, its traffic ending at `traffic_until`.
fn scenario(clients: Vec<ClientSpec>, seed: u64, traffic_until: SimTime) -> Scenario {
    let mut config = SystemConfig::default();
    config.deployment.num_aps = 4;
    Scenario {
        config,
        clients,
        duration: traffic_until - SimTime::ZERO,
        seed,
        log_deliveries: false,
        flow_start: SimDuration::from_millis(1),
        faults: FaultSchedule::default(),
    }
}

/// Source world: one vehicle driving the corridor with an uplink CBR
/// flow, under a backhaul duplication window covering the whole run (so
/// it necessarily straddles whichever barrier instant we pick).
fn source_sim(traffic_until: SimTime) -> Simulator<WgttWorld> {
    let vehicle = ClientSpec {
        trajectory: TrajectorySpec::DriveBy {
            mph: MPH,
            lead_in_m: 4.0,
        },
        flows: vec![FlowSpec::UplinkUdp {
            rate_bps: RATE_BPS,
            payload: PAYLOAD,
        }],
    };
    let mut s = scenario(vec![vehicle], 1717, traffic_until);
    s.faults = FaultSchedule::new().with_duplication(
        SimTime::ZERO,
        traffic_until + SimDuration::from_secs(2),
        1.0,
    );
    s.build()
}

fn uplink_seq(payload: &Payload) -> Option<u64> {
    match payload {
        Payload::Udp { seq } => Some(*seq),
        _ => None,
    }
}

/// Runs a destination world from scratch, admits the migrant at `now`
/// with `record`, and lets it ride through the cluster.
fn run_destination(record: &MigrationRecord, now: SimTime, traffic_until: SimTime) -> WgttWorld {
    let mut sim = scenario(Vec::new(), 2424, traffic_until).build();
    let dep = &sim.world().deployment;
    let (entry_x, lane_y) = (dep.aps[0].position.x, dep.lane_near_y);
    sim.run_until(now);
    // Enter inside AP 0's coverage: the hazard under test is the dedup
    // transfer, and residue retransmitted from a coverage hole would
    // exhaust its radio retries before the question is even posed.
    let spec = MigrantSpec {
        entry_x,
        lane_y,
        speed_mps: mph_to_mps(MPH),
        flows: vec![MigrantFlow {
            rate_bps: RATE_BPS,
            payload: PAYLOAD,
            uplink: true,
        }],
    };
    let c = sim.world_mut().admit_migrant(&spec, Some(record), now);
    prime_migrant_events(&mut sim, c);
    sim.run_until(now + SimDuration::from_secs(3));
    sim.into_world()
}

/// Sequence numbers accepted by *both* worlds' server sinks — each one is
/// a datagram the Internet received twice.
fn double_deliveries(src: &WgttWorld, dst: &WgttWorld, seq_bound: u64) -> Vec<u64> {
    let s = src.flows[0]
        .up_sink
        .as_ref()
        .expect("uplink flow at source");
    let d = dst.flows[0]
        .up_sink
        .as_ref()
        .expect("uplink flow at destination");
    (0..seq_bound)
        .filter(|&q| s.contains(q) && d.contains(q))
        .collect()
}

#[test]
fn dup_window_straddling_a_migration_barrier_never_double_delivers() {
    let traffic_until = SimTime::from_secs(8);
    let mut sim = source_sim(traffic_until);

    // Walk the source in barrier-sized steps until the client has an
    // uplink entry sitting in its queue. That instant becomes the barrier.
    let mut barrier = None;
    let mut t = SimTime::from_millis(500);
    while t < SimTime::from_secs(6) {
        sim.run_until(t);
        if !sim.world().clients[0].uplink_queue.is_empty() {
            barrier = Some(t);
            break;
        }
        t += SimDuration::from_millis(50);
    }
    let now = barrier.expect("the run never left an uplink entry queued at a step boundary");

    // Arm the hazard: the queued packet's forwarded copy reaches the
    // controller (dedup filter records its key) and the server accepts it
    // — but the radio ack back to the client was lost, so the entry stays
    // queued for retransmission. This is the forwarded-but-unacked state
    // uplink diversity produces whenever a neighbour AP's forward beats a
    // failing serving-AP ack; constructing it explicitly pins the barrier
    // on top of it instead of sampling for a transient coincidence.
    let w = sim.world_mut();
    let armed = w.clients[0].uplink_queue.front().unwrap().packet.clone();
    let armed_seq = uplink_seq(&armed.payload).expect("uplink entries carry UDP payloads");
    w.ctrl.dedup.check(&armed);
    w.flows[0]
        .up_sink
        .as_mut()
        .unwrap()
        .on_receive(now, armed_seq, armed.len_bytes);

    let rec = sim.world_mut().retire_client(0, now);
    let src = sim.into_world();
    let src_sink = src.flows[0].up_sink.as_ref().unwrap();
    let seq_bound = match &src.flows[0].kind {
        FlowKind::UpUdp(s) => s.next_seq(),
        _ => unreachable!(),
    };

    // Precondition: the record actually carries the hazardous entry.
    let hazardous: Vec<u64> = rec
        .residue
        .iter()
        .filter_map(|e| match &e.payload {
            SeamPayload::UplinkQueued(p, _) => uplink_seq(&p.payload),
            _ => None,
        })
        .filter(|&q| src_sink.contains(q))
        .collect();
    assert!(
        !hazardous.is_empty(),
        "the exported record must contain an already-delivered uplink entry"
    );

    // Real transfer: the destination re-primes the source's dedup keys, so
    // the retransmit of the already-delivered datagram is dropped at the
    // destination controller — the Internet never sees a second copy.
    let dst = run_destination(&rec, now, traffic_until);
    assert_eq!(
        double_deliveries(&src, &dst, seq_bound),
        Vec::<u64>::new(),
        "migration with dedup transfer must not double-deliver across the seam"
    );

    // No-transfer shim: same record, dedup keys stripped. The destination
    // controller has no memory of the source's deliveries, forwards the
    // retransmit, and the server accepts the same datagram a second time.
    let mut stripped = rec.clone();
    stripped.dedup_idents.clear();
    let dst_naive = run_destination(&stripped, now, traffic_until);
    let dups = double_deliveries(&src, &dst_naive, seq_bound);
    assert!(
        !dups.is_empty(),
        "stripping the dedup keys must surface the cross-seam duplicate \
         the transfer exists to prevent"
    );
}
