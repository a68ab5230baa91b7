//! Per-layer kernels: the benchmark timing calls into each layer's public
//! functions, on inputs replayed from the workloads' own geometry.
//!
//! Each kernel runs [`BATCHES`] batches; a batch times its own calls and
//! reports `(calls, elapsed)`. The metric is the median ns per call over
//! the batches, and every batch is one span under its layer. Batch sizes
//! give at least 10⁵ calls per kernel.

use crate::spec::layer_of;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{storm_config, Workload, DRIVE_MPH};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wgtt_core::cyclic::{index_add, CyclicQueue, IndexAllocator};
use wgtt_core::dedup::Deduplicator;
use wgtt_core::selection::{ApSelector, SelectionConfig};
use wgtt_core::switching::{ApSwitchGuard, SwitchEngine, SwitchMsg};
use wgtt_mac::{AmpduPolicy, Backoff, Medium, RxReorder, TxScoreboard};
use wgtt_net::{
    ApId, Backhaul, ClientId, Direction, FlowId, Packet, PacketFactory, Payload, TcpConfig,
    TcpReceiver, TcpSender,
};
use wgtt_phy::mobility::ConstantSpeed;
use wgtt_phy::{
    controller_esnr_db, Csi, DeploymentConfig, EsnrMemo, GuardInterval, LinkConfig, Mcs,
    Modulation, PerModel, Position, Trajectory, WirelessLink,
};
use wgtt_sim::lockstep::{drive, LockstepShard};
use wgtt_sim::stats::median;
use wgtt_sim::storm::{random_storm, StormConfig};
use wgtt_sim::{
    BackhaulImpairment, Ctx, EventQueue, SimDuration, SimRng, SimTime, Simulator, World,
};

/// Batches per kernel.
pub const BATCHES: usize = 5;

/// Where kernel results and spans go.
pub struct Bench<'a> {
    tracer: &'a mut Tracer,
    root: Option<SpanId>,
    /// The layer whose kernels are running, and its span. Kernels of one
    /// layer run back to back, so a layer's span closes when the next
    /// layer's first kernel starts.
    layer: (&'static str, Option<SpanId>),
    /// Metric name → value.
    pub results: BTreeMap<&'static str, f64>,
}

impl<'a> Bench<'a> {
    /// A bench recording under span `root`.
    pub fn new(tracer: &'a mut Tracer, root: Option<SpanId>) -> Self {
        Bench {
            tracer,
            root,
            layer: ("", None),
            results: BTreeMap::new(),
        }
    }

    fn layer_span(&mut self, metric: &'static str) -> Option<SpanId> {
        let layer = layer_of(metric);
        if self.layer.0 != layer {
            self.tracer.close(self.layer.1, &[]);
            self.layer = (layer, self.tracer.open(layer, self.root));
        }
        self.layer.1
    }

    /// Runs `batch` [`BATCHES`] times and stores the median of
    /// `elapsed ÷ calls × scale` under `metric` (`scale` converts ns to
    /// the metric's unit, or divides by the calls one iteration makes).
    pub fn kernel(
        &mut self,
        metric: &'static str,
        scale: f64,
        mut batch: impl FnMut() -> (u64, Duration),
    ) {
        let layer = self.layer_span(metric);
        let mut per_call = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = self.tracer.now_ns();
            let (calls, elapsed) = batch();
            let end = self.tracer.now_ns();
            self.tracer
                .add(metric, layer, start, end, &[("calls", calls as f64)]);
            per_call.push(elapsed.as_nanos() as f64 / calls.max(1) as f64 * scale);
        }
        self.results.insert(metric, median(&per_call));
    }

    /// Closes the last layer's span and hands back the results.
    pub fn finish(self) -> BTreeMap<&'static str, f64> {
        self.tracer.close(self.layer.1, &[]);
        self.results
    }
}

/// Times `calls` iterations of `f`.
fn timed(calls: u64, mut f: impl FnMut(u64)) -> (u64, Duration) {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    (calls, t0.elapsed())
}

/// Positions, times and channel snapshots along the paper's drives: the
/// default 8-AP array, one link per AP, the near lane at 15, 25 and 35
/// mph, one sample every 700 µs (about one A-MPDU).
struct Replay {
    links: Vec<WirelessLink>,
    /// `(time, position, speed m/s, nearest AP)`.
    samples: Vec<(SimTime, Position, f64, usize)>,
    /// CSI at every eighth sample, from the nearest AP's link.
    csis: Vec<Csi>,
}

impl Replay {
    fn new(rng: &SimRng) -> Replay {
        let dep = DeploymentConfig::default().build();
        let links: Vec<WirelessLink> = dep
            .aps
            .iter()
            .enumerate()
            .map(|(a, site)| {
                let mut r = rng.fork_indexed("kernel-link", a as u64);
                WirelessLink::new(*site, LinkConfig::default(), &mut r)
            })
            .collect();
        let mut samples = Vec::new();
        for mph in DRIVE_MPH {
            let drive = ConstantSpeed::drive_by(&dep, mph, 4.0);
            let speed = drive.speed_mps;
            for i in 0..2000u64 {
                let t = SimTime::from_micros(i * 700);
                let pos = drive.position(t);
                let nearest = dep
                    .aps
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        let da = (a.1.position.x - pos.x).abs();
                        let db = (b.1.position.x - pos.x).abs();
                        da.partial_cmp(&db).expect("finite coordinates")
                    })
                    .map_or(0, |(a, _)| a);
                samples.push((t, pos, speed, nearest));
            }
        }
        let csis = samples
            .iter()
            .step_by(8)
            .map(|&(t, pos, speed, ap)| links[ap].csi(t, &pos, speed))
            .collect();
        Replay {
            links,
            samples,
            csis,
        }
    }
}

struct Tick;

impl World for Tick {
    type Event = ();
    fn handle(&mut self, _ev: (), ctx: &mut Ctx<'_, ()>) {
        ctx.schedule_in(SimDuration::from_micros(1), ());
    }
}

fn queue_hold(
    b: &mut Bench<'_>,
    metric: &'static str,
    rng: &SimRng,
    incr_us: std::ops::Range<u64>,
) {
    let mut rng = rng.fork(metric);
    let incr: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_micros(rng.range(incr_us.clone())))
        .collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    let base = SimTime::from_secs(1);
    for i in 0..1024u32 {
        q.push(base + incr[i as usize], i);
    }
    b.kernel(metric, 1.0, || {
        timed(200_000, |i| {
            let (t, e) = q.pop().expect("hold model keeps the queue full");
            q.push(t + incr[(i & 4095) as usize], black_box(e));
        })
    });
}

fn sim_kernels(b: &mut Bench<'_>, rng: &SimRng) {
    // The MAC/backhaul horizon: µs–ms increments.
    queue_hold(b, "sim.queue.hold_ns", rng, 1..1000);
    // Ticks, switch timeouts, fault edges: the calendar's far buckets.
    queue_hold(b, "sim.queue.hold_far_ns", rng, 10_000..500_000);

    let mut sim = Simulator::new(Tick);
    sim.schedule_at(SimTime::ZERO, ());
    b.kernel("sim.engine.dispatch_ns", 1.0, || {
        timed(500_000, |_| {
            black_box(sim.step());
        })
    });

    let storm = storm_config(1, 4, SimDuration::from_secs(10));
    let schedule = random_storm(&storm, &mut rng.fork("kernel-storm")).swap_remove(0);
    let horizon_us = storm.duration.as_micros();
    let mut acc = 0.0f64;
    // Three lookups an iteration, as `world.rs` makes on the slow path.
    b.kernel("sim.fault.lookup_ns", 1.0 / 3.0, || {
        timed(100_000, |i| {
            let t = SimTime::from_micros((i * 9973) % horizon_us);
            acc += schedule.backhaul_at(t).extra_loss_prob;
            acc += f64::from(u8::from(schedule.ap_down((i % 4) as usize, t)));
            acc += f64::from(u8::from(schedule.controller_down(t)));
        })
    });
    black_box(acc);
}

struct Noop;

impl LockstepShard for Noop {
    fn advance_to(&mut self, _horizon: SimTime) {}
}

struct Spin(Duration);

impl LockstepShard for Spin {
    fn advance_to(&mut self, _horizon: SimTime) {
        let t0 = Instant::now();
        while t0.elapsed() < self.0 {
            std::hint::spin_loop();
        }
    }
}

/// One `lockstep::drive` leg over `shards` for `epochs` 1 ms epochs, one
/// span per epoch. Returns the leg's wall time.
fn lockstep_leg<S: LockstepShard>(
    b: &mut Bench<'_>,
    name: &'static str,
    shards: &mut [S],
    workers: usize,
    epochs: u64,
) -> Duration {
    let layer = b.layer_span("sim.lockstep.epoch_overhead_us");
    let leg = b.tracer.open(name, layer);
    let origin = Instant::now();
    let origin_ns = b.tracer.now_ns();
    let mut barriers: Vec<u64> = Vec::with_capacity(epochs as usize);
    drive(
        shards,
        workers,
        SimTime::ZERO,
        SimTime::from_millis(epochs),
        SimDuration::from_millis(1),
        |_, _| barriers.push(origin.elapsed().as_nanos() as u64),
    );
    let wall = origin.elapsed();
    b.tracer.close(
        leg,
        &[("epochs", epochs as f64), ("workers", workers as f64)],
    );
    let mut start = origin_ns;
    for at in barriers {
        b.tracer.add("epoch", leg, start, origin_ns + at, &[]);
        start = origin_ns + at;
    }
    wall
}

fn lockstep_kernels(b: &mut Bench<'_>, workers: usize) {
    const SHARDS: usize = 8;
    // Spawn + join cost of an epoch with nothing to do in it.
    let mut idle: Vec<Noop> = (0..SHARDS).map(|_| Noop).collect();
    let mut per_epoch_us = Vec::new();
    for _ in 0..BATCHES {
        let epochs = 200;
        let wall = lockstep_leg(b, "noop_shards", &mut idle, workers, epochs);
        per_epoch_us.push(wall.as_secs_f64() * 1e6 / epochs as f64);
    }
    b.results
        .insert("sim.lockstep.epoch_overhead_us", median(&per_epoch_us));
    // Ideal ÷ actual with a fixed 100 µs of work per shard per epoch.
    let work = Duration::from_micros(100);
    let mut busy: Vec<Spin> = (0..SHARDS).map(|_| Spin(work)).collect();
    let mut efficiency = Vec::new();
    for _ in 0..BATCHES {
        let epochs = 100;
        let wall = lockstep_leg(b, "spin_shards", &mut busy, workers, epochs);
        let ideal = work.as_secs_f64() * SHARDS as f64 / workers as f64 * epochs as f64;
        efficiency.push(ideal / wall.as_secs_f64());
    }
    b.results
        .insert("sim.lockstep.driver_efficiency", median(&efficiency));
}

fn phy_kernels(b: &mut Bench<'_>, replay: &Replay) {
    let n = replay.samples.len() as u64;
    // A new instant every call, so the per-link snapshot memo misses as
    // it does between A-MPDUs.
    b.kernel("phy.fading.csi_ns", 1.0, || {
        timed(20_000, |i| {
            let (t, pos, speed, ap) = replay.samples[(i % n) as usize];
            black_box(replay.links[ap].csi(t + SimDuration::from_nanos(i), &pos, speed));
        })
    });
    let per = PerModel::default();
    let gi = GuardInterval::Short;
    let m = replay.csis.len() as u64;
    b.kernel("phy.esnr.capacity_ns", 1.0, || {
        timed(20_000, |i| {
            black_box(per.capacity_bps(gi, black_box(&replay.csis[(i % m) as usize]), 1500));
        })
    });
    b.kernel("phy.esnr.memo_ns", 1.0, || {
        timed(20_000, |i| {
            let mut memo = EsnrMemo::new(black_box(&replay.csis[(i % m) as usize]));
            black_box(memo.esnr_db(Modulation::Qam16) + memo.esnr_db(Modulation::Qam64));
        })
    });
    b.kernel("phy.esnr.controller_esnr_ns", 1.0, || {
        timed(20_000, |i| {
            black_box(controller_esnr_db(black_box(
                &replay.csis[(i % m) as usize],
            )));
        })
    });
    // The engine asks each link about one position several times before
    // the vehicle moves: eight repeats a position.
    b.kernel("phy.link.mean_snr_hit_ns", 1.0, || {
        timed(400_000, |i| {
            let (_, pos, _, ap) = replay.samples[((i / 8) % n) as usize];
            black_box(replay.links[ap].mean_snr_db(black_box(&pos)));
        })
    });
    // Three vehicles interleave on one link: a new position every call.
    b.kernel("phy.link.mean_snr_miss_ns", 1.0, || {
        timed(100_000, |i| {
            let (_, pos, _, ap) = replay.samples[((i * 7) % n) as usize];
            black_box(replay.links[ap].mean_snr_db(black_box(&pos)));
        })
    });
}

fn dcf_round(b: &mut Bench<'_>, metric: &'static str, rng: &SimRng, contenders: usize) {
    let mut rng = rng.fork(metric);
    let mut medium = Medium::new();
    let backoffs = vec![Backoff::default(); contenders];
    let airtime = SimDuration::from_micros(300);
    let mut now = SimTime::from_secs(1);
    b.kernel(metric, 1.0, || {
        timed(200_000, |_| {
            let mut first = SimTime::MAX;
            for backoff in &backoffs {
                let at = medium.access_time(now, backoff.draw(&mut rng));
                first = first.min(at);
            }
            medium.occupy(first, airtime);
            now = first + airtime;
        })
    });
    black_box(medium.tx_count());
}

fn mac_kernels(b: &mut Bench<'_>, rng: &SimRng) {
    dcf_round(b, "mac.dcf.round_ns_1", rng, 1);
    dcf_round(b, "mac.dcf.round_ns_3", rng, 3);

    let policy = AmpduPolicy::default();
    let lens = vec![1500usize; 64];
    b.kernel("mac.ampdu.take_ns", 1.0, || {
        timed(50_000, |i| {
            let mcs = Mcs((i % 8) as u8);
            black_box(policy.take_count(black_box(&lens), mcs, GuardInterval::Short, 64));
        })
    });

    // One 64-frame window: assign, deliver all but four, Block ACK,
    // retransmit the four, Block ACK, release.
    let mut tx = TxScoreboard::new(0);
    let mut rx = RxReorder::new(0);
    b.kernel("mac.blockack.window_ns", 1.0, || {
        timed(20_000, |_| {
            let mut seqs = [0u16; 64];
            for s in &mut seqs {
                *s = tx.assign();
            }
            for (i, &s) in seqs.iter().enumerate() {
                if i % 16 != 7 {
                    rx.on_mpdu(s);
                }
            }
            black_box(tx.on_block_ack(&rx.block_ack()));
            for (i, &s) in seqs.iter().enumerate() {
                if i % 16 == 7 {
                    rx.on_mpdu(s);
                }
            }
            black_box(tx.on_block_ack(&rx.block_ack()));
            black_box(rx.release_in_order());
        })
    });
}

fn net_kernels(b: &mut Bench<'_>, rng: &SimRng) {
    let mut backhaul = Backhaul::new(rng.fork("kernel-backhaul"));
    b.kernel("net.backhaul.transit_ns", 1.0, || {
        timed(200_000, |_| {
            black_box(backhaul.transit(black_box(1500)));
        })
    });
    let storm = StormConfig::default();
    let window = BackhaulImpairment {
        dup_prob: storm.dup_prob,
        reorder_prob: storm.reorder_prob,
        reorder_window: storm.reorder_hold,
        ..BackhaulImpairment::default()
    };
    b.kernel("net.backhaul.transit_faulty_ns", 1.0, || {
        timed(200_000, |_| {
            black_box(backhaul.transit_faulty(black_box(1500), &window));
        })
    });

    // A sender and a receiver back to back; one segment in a hundred is
    // dropped on first transmission, so SACK recovery runs too.
    let mut tx = TcpSender::new(TcpConfig::default());
    let mut rx = TcpReceiver::new();
    let mut now = SimTime::from_millis(1);
    let mut until_drop = 100u32;
    b.kernel("net.tcp.segment_ns", 1.0, || {
        let calls = 50_000u64;
        let mut sent = 0u64;
        let mut idle = 0u32;
        let t0 = Instant::now();
        while sent < calls {
            match tx.next_segment(now) {
                Some(seg) => {
                    idle = 0;
                    sent += 1;
                    now += SimDuration::from_micros(50);
                    until_drop -= 1;
                    if until_drop == 0 && !seg.is_retransmit {
                        until_drop = 100;
                    } else {
                        until_drop = until_drop.max(1);
                        let ack = rx.on_data(seg.seq, seg.len);
                        tx.on_ack_sack(now, ack, &rx.sack_blocks(3));
                    }
                }
                None => {
                    idle += 1;
                    assert!(idle < 1000, "the TCP kernel stalled");
                    match tx.rto_deadline() {
                        Some(deadline) => {
                            now = now.max(deadline);
                            tx.on_rto_check(now);
                        }
                        None => now += SimDuration::from_millis(1),
                    }
                }
            }
        }
        (calls, t0.elapsed())
    });
}

fn downlink_packet(factory: &mut PacketFactory, index: u16) -> Packet {
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

fn core_kernels(b: &mut Bench<'_>, replay: &Replay) {
    let mut factory = PacketFactory::new();

    // Steady state of a serving AP: a short backlog, one in, one out.
    let mut q = CyclicQueue::new();
    let mut indices = IndexAllocator::new();
    for _ in 0..32 {
        q.insert(downlink_packet(&mut factory, indices.allocate()));
    }
    b.kernel("core.cyclic.insert_pop_ns", 1.0, || {
        timed(200_000, |_| {
            let mut p = q.pop_head().expect("backlog never empties");
            p.index = Some(indices.allocate());
            q.insert(p);
        })
    });

    // `start(c, k)` on a ring holding one to two thousand packets, each
    // call discarding a 32-packet prefix. Refills are not timed.
    let mut q = CyclicQueue::new();
    let mut indices = IndexAllocator::new();
    let template = downlink_packet(&mut factory, 0);
    let mut refill = |q: &mut CyclicQueue, n: usize| {
        for _ in 0..n {
            let mut p = template.clone();
            p.index = Some(indices.allocate());
            q.insert(p);
        }
    };
    refill(&mut q, 1920);
    b.kernel("core.cyclic.start_from_ns", 1.0, || {
        let mut calls = 0u64;
        let mut elapsed = Duration::ZERO;
        for _ in 0..700 {
            let t0 = Instant::now();
            for _ in 0..30 {
                q.start_from(index_add(q.head(), 32));
            }
            elapsed += t0.elapsed();
            calls += 30;
            refill(&mut q, 960);
        }
        (calls, elapsed)
    });

    // Eight APs report once a millisecond into the 10 ms window.
    let esnr: Vec<f64> = replay.csis.iter().map(controller_esnr_db).collect();
    let mut selector = ApSelector::new(SelectionConfig::default());
    let mut now = SimTime::from_secs(1);
    b.kernel("core.selection.reading_ns", 1.0, || {
        timed(200_000, |i| {
            let ap = (i % 8) as u32;
            if ap == 0 {
                now += SimDuration::from_millis(1);
            }
            selector.on_reading(ApId(ap), now, esnr[(i as usize) % esnr.len()]);
        })
    });
    b.kernel("core.selection.decide_ns", 1.0, || {
        let mut calls = 0u64;
        let mut elapsed = Duration::ZERO;
        for tick in 0..6_000u64 {
            now += SimDuration::from_millis(1);
            for ap in 0..8u32 {
                let reading = esnr[((tick * 8 + ap as u64) as usize) % esnr.len()];
                selector.on_reading(ApId(ap), now, reading);
            }
            let t0 = Instant::now();
            for current in 0..4u32 {
                black_box(selector.decide(now, Some(ApId(current))));
            }
            elapsed += t0.elapsed();
            calls += 4;
        }
        (calls, elapsed)
    });

    // Controller issues, old AP admits the stop, new AP admits the start,
    // controller takes the ack.
    let mut engine = SwitchEngine::new();
    let mut old_ap = ApSwitchGuard::default();
    let mut new_ap = ApSwitchGuard::default();
    let client = ClientId(0);
    let mut now = SimTime::from_secs(1);
    b.kernel("core.switching.cycle_ns", 1.0, || {
        timed(40_000, |i| {
            let (from, to) = (ApId((i % 8) as u32), ApId(((i + 1) % 8) as u32));
            let Some(SwitchMsg::Stop { epoch, .. }) = engine.issue(now, client, from, to) else {
                panic!("the previous switch was acked, so a new one must issue");
            };
            black_box(old_ap.on_stop(epoch));
            black_box(new_ap.on_start(epoch));
            now += SimDuration::from_millis(17);
            black_box(engine.on_ack(now, client, to, epoch));
        })
    });

    // Three APs each forward a copy of every uplink packet.
    let mut dedup = Deduplicator::new(16_384);
    let mut n = 0u64;
    b.kernel("core.dedup.check_ns", 1.0, || {
        timed(60_000, |_| {
            let packet = n / 3;
            let key = Deduplicator::key(ClientId((packet >> 16) as u32), packet as u16);
            black_box(dedup.check_key(key));
            n += 1;
        })
    });
}

/// Runs every kernel. `workers` is the lockstep width for the two
/// `lockstep::drive` legs (2, or 1 on a one-core host). Returns metric
/// name → value; kernels share no state with the workload's runs, so the
/// values depend on the seed only through the channel realisations the
/// PHY kernels replay.
pub fn run_all(
    tracer: &mut Tracer,
    root: Option<SpanId>,
    workload: &Workload,
    seed: u64,
    workers: usize,
) -> BTreeMap<&'static str, f64> {
    let rng = SimRng::new(seed).fork("kernels");
    let replay = Replay::new(&rng);
    let mut b = Bench::new(tracer, root);
    sim_kernels(&mut b, &rng);
    lockstep_kernels(&mut b, workers);
    phy_kernels(&mut b, &replay);
    mac_kernels(&mut b, &rng);
    net_kernels(&mut b, &rng);
    core_kernels(&mut b, &replay);
    crate::layers::world_kernels(&mut b, workload);
    b.finish()
}
