//! The traced pass: one rep with spans, the legs too intrusive for the
//! timed pass, the kernels, and the 74 per-layer metrics they add up to.

use crate::kernels::{self, Bench};
use crate::measure::{ratio, run_op, OpOutput, Session, Tally};
use crate::spec::{paper, PER_LAYER};
use crate::stats::LogHistogram;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{self, Input, Scale, Workload, SETTLE_S};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wgtt_core::runner::{FlowSpec, Scenario, TrajectorySpec};
use wgtt_core::world::{prime_events, FlowKind, WgttWorld};
use wgtt_net::{CbrSource, TcpConfig, TcpSender};
use wgtt_phy::mobility::{ConstantSpeed, Stationary};
use wgtt_phy::{Deployment, Position, Trajectory};
use wgtt_sim::stats::{mean, median};
use wgtt_sim::{SimDuration, SimTime, Simulator};

fn trajectory(spec: &TrajectorySpec, dep: &Deployment) -> Box<dyn Trajectory> {
    match *spec {
        TrajectorySpec::Stationary { x } => Box::new(Stationary {
            position: Position::new(x, dep.lane_near_y, 1.5),
        }),
        TrajectorySpec::DriveBy { mph, lead_in_m } => {
            Box::new(ConstantSpeed::drive_by(dep, mph, lead_in_m))
        }
        TrajectorySpec::DriveByOffset {
            mph,
            lead_in_m,
            offset_m,
            far_lane,
        } => {
            let mut t = ConstantSpeed::drive_by(dep, mph, lead_in_m);
            t.start.x -= offset_m;
            if far_lane {
                t.start.y = dep.lane_far_y;
            }
            Box::new(t)
        }
        TrajectorySpec::Opposing { mph, lead_in_m } => {
            Box::new(ConstantSpeed::drive_by_opposing(dep, mph, lead_in_m))
        }
    }
}

/// Builds a primed simulator for `s` through the public path
/// `wgtt_core::run` itself uses: `WgttWorld::new`, `add_flow`,
/// `prime_events`.
pub fn build_sim(s: &Scenario) -> Simulator<WgttWorld> {
    let dep = s.config.deployment.build();
    let trajectories = s
        .clients
        .iter()
        .map(|c| trajectory(&c.trajectory, &dep))
        .collect();
    let traffic_until = SimTime::ZERO + s.duration;
    let mut world = WgttWorld::new(
        s.config.clone(),
        trajectories,
        s.seed,
        traffic_until,
        s.log_deliveries,
    );
    world.faults = s.faults.clone();
    let start = SimTime::ZERO + s.flow_start;
    for (c, spec) in s.clients.iter().enumerate() {
        for flow in &spec.flows {
            let kind = match *flow {
                FlowSpec::DownlinkUdp { rate_bps, payload } => {
                    FlowKind::DownUdp(CbrSource::new(rate_bps, payload, start))
                }
                FlowSpec::DownlinkTcp { limit } => {
                    let cfg = TcpConfig::default();
                    FlowKind::DownTcp(Box::new(match limit {
                        Some(n) => TcpSender::with_limit(cfg, n),
                        None => TcpSender::new(cfg),
                    }))
                }
                FlowSpec::UplinkUdp { rate_bps, payload } => {
                    FlowKind::UpUdp(CbrSource::new(rate_bps, payload, start))
                }
            };
            let fidx = world.add_flow(c, kind);
            world.flows[fidx].start = start;
        }
    }
    let mut sim = Simulator::new(world);
    prime_events(&mut sim);
    sim
}

/// Steps `sim` to `end` (and one event past it: `step` cannot peek).
/// With `hist`, every step sits between an `Instant` pair.
fn step_to(sim: &mut Simulator<WgttWorld>, end: SimTime, mut hist: Option<&mut LogHistogram>) {
    loop {
        let more = match hist.as_deref_mut() {
            Some(h) => {
                let t0 = Instant::now();
                let more = sim.step();
                h.record(t0.elapsed().as_nanos() as u64);
                more
            }
            None => sim.step(),
        };
        if !more || sim.now() > end {
            break;
        }
    }
}

/// `core.world.*`: construction through the public path, and an external
/// `Instant` pair around every `Simulator::step` of the workload's probe
/// scenario.
pub fn world_kernels(b: &mut Bench<'_>, workload: &Workload) {
    let probe = workload.probe_scenario();
    b.kernel("core.world.construct_ms", 1e-6, || {
        let t0 = Instant::now();
        let sims: Vec<_> = (0..4).map(|_| build_sim(black_box(&probe))).collect();
        let elapsed = t0.elapsed();
        drop(sims);
        (4, elapsed)
    });
    let end = SimTime::ZERO + probe.duration + SimDuration::from_secs_f64(SETTLE_S);
    let mut hist = LogHistogram::new();
    let (mut plain, mut timed) = (Duration::ZERO, Duration::ZERO);
    // Alternate the two variants so a slow stretch of the host lands on
    // both.
    for _ in 0..2 {
        let mut sim = build_sim(&probe);
        let t0 = Instant::now();
        step_to(&mut sim, end, None);
        plain += t0.elapsed();
        let mut sim = build_sim(&probe);
        let t0 = Instant::now();
        step_to(&mut sim, end, Some(&mut hist));
        timed += t0.elapsed();
    }
    b.results
        .insert("core.world.step_ns_p50", hist.quantile(0.5));
    b.results
        .insert("core.world.step_ns_p99", hist.quantile(0.99));
    b.results.insert(
        "core.world.step_trace_overhead",
        ratio(timed.as_secs_f64(), plain.as_secs_f64()) - 1.0,
    );
}

/// What the traced pass hands back.
#[derive(Debug)]
pub struct Traced {
    /// All 74 per-layer metrics, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `1 − untraced wall ÷ traced wall` over the whole-run spans: the
    /// share of `sim_rt_ratio` the tracing costs.
    pub tracing_overhead: f64,
}

fn scenario_counts(out: &OpOutput) -> [(&'static str, f64); 4] {
    [
        ("events", out.tally.events as f64),
        ("switches", out.tally.switch_ns.len() as f64),
        ("allocs", out.allocs as f64),
        ("payload_bytes", out.tally.payload_bytes as f64),
    ]
}

/// Runs every input of `inputs` once at `workers`, under one span, with
/// the session's invariants but no digest check (these legs run other
/// modes or other workloads' inputs). Returns the merged tally, Σ
/// event-loop wall and the outputs.
fn leg(
    session: &mut Session,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    name: &str,
    inputs: &[Input],
    workers: usize,
) -> (Tally, f64, Vec<OpOutput>) {
    let span = tracer.open(name, parent);
    let mut tally = Tally::default();
    let mut loop_s = 0.0;
    let mut outs = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        session.ops += 1;
        match run_op(input, workers) {
            Ok(out) => {
                if out.tally.mis_switches > 0 {
                    session.fail(format!("{name} op {i}: mis_switches > 0"));
                }
                loop_s += out.loop_wall_s;
                tally.merge(&out.tally);
                outs.push(out);
            }
            Err(panic) => session.fail(format!("{name} op {i} panicked: {panic}")),
        }
    }
    tracer.close(
        span,
        &[("events", tally.events as f64), ("loop_wall_s", loop_s)],
    );
    (tally, loop_s, outs)
}

/// The traced pass over `session`'s workload. Every op it runs counts
/// into the session's `ops`/`ops_failed`.
pub fn traced_pass(session: &mut Session, tracer: &mut Tracer, seed: u64) -> Traced {
    let name = session.workload.name;
    let root = tracer.open(format!("workload {name}"), None);
    let rep = tracer.open("rep 0", root);

    // Whole-run spans: each scenario runs untraced, then traced, back to
    // back, so a slow stretch of the host lands on both sides of the
    // overhead figure.
    let mut tally = Tally::default();
    let (mut untraced_s, mut traced_s, mut allocs) = (0.0, 0.0, 0u64);
    let mut fingerprints: Vec<Option<String>> = Vec::new();
    for i in 0..session.workload.inputs.len() {
        let start = tracer.now_ns();
        let plain = session.run_checked(i);
        let end = tracer.now_ns();
        tracer.add(format!("scenario {i} untraced"), rep, start, end, &[]);
        let start = tracer.now_ns();
        let traced = session.run_checked(i);
        let end = tracer.now_ns();
        if let (Some(plain), Some(traced)) = (&plain, &traced) {
            untraced_s += plain.loop_wall_s;
            traced_s += traced.loop_wall_s;
            allocs += traced.allocs;
            tally.merge(&traced.tally);
            let span = tracer.add(
                format!("scenario {i}"),
                rep,
                start,
                end,
                &scenario_counts(traced),
            );
            // `run` builds the world and then loops; only the loop's
            // length is reported, so it is laid against the span's end.
            let loop_ns = (traced.loop_wall_s * 1e9) as u64;
            let split = end.saturating_sub(loop_ns).max(start);
            tracer.add("construct", span, start, split, &[]);
            tracer.add(
                "event_loop",
                span,
                split,
                end,
                &[("events", traced.tally.events as f64)],
            );
        }
        fingerprints.push(traced.map(|t| t.fingerprint));
    }
    tracer.close(rep, &[("events", tally.events as f64)]);

    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|s| (s.name, 0.0)).collect();
    let t = &tally;
    let events = t.events as f64;
    let switches = t.switch_ns.len() as f64;
    let median_ms = |ns: &[u64]| median(&ns.iter().map(|&v| v as f64 / 1e6).collect::<Vec<_>>());
    m.extend([
        ("sim.engine.events", events),
        ("sim.engine.events_per_s", ratio(events, traced_s)),
        ("sim.engine.ns_per_event", ratio(traced_s * 1e9, events)),
        ("sim.engine.allocs_per_event", ratio(allocs as f64, events)),
        ("sim.lockstep.epochs", t.epochs as f64),
        (
            "sim.lockstep.events_per_epoch",
            ratio(events, t.epochs as f64),
        ),
        ("sim.fault.windows", t.fault_windows as f64),
        ("mac.dcf.tx_count", t.tx_count as f64),
        ("mac.dcf.collisions", t.collisions as f64),
        (
            "mac.dcf.busy_ratio",
            ratio(t.busy_ns as f64, t.medium_ns as f64),
        ),
        ("mac.ampdu.mpdu_attempts", t.mpdu_attempts as f64),
        (
            "mac.ampdu.mpdu_success_ratio",
            ratio(t.mpdu_successes as f64, t.mpdu_attempts as f64),
        ),
        ("mac.ampdu.retransmits", t.mpdu_retransmits as f64),
        ("mac.blockack.ba_forwarded", t.ba_forwarded as f64),
        ("mac.blockack.ba_lost_at_serving", t.ba_lost as f64),
        ("net.backhaul.dup_deliveries", t.dup_deliveries as f64),
        ("net.backhaul.reorders", t.reorders as f64),
        ("net.tcp.retransmits", t.tcp_retransmits as f64),
        ("net.tcp.timeouts", t.tcp_timeouts as f64),
        ("core.cyclic.flushed_packets", t.flushed as f64),
        ("core.switching.switches", switches),
        ("core.switching.retries", t.switch_retries as f64),
        (
            "core.switching.abandon_ratio",
            ratio(t.abandoned as f64, switches + t.abandoned as f64),
        ),
        ("core.switching.stale_dropped", t.stale_dropped as f64),
        ("core.switching.dup_dropped", t.dup_dropped as f64),
        ("core.dedup.uplink_copies", t.uplink_copies as f64),
        (
            "core.dedup.dup_ratio",
            ratio(t.uplink_duplicates as f64, t.uplink_copies as f64),
        ),
        ("core.controller.downlink_copies", t.downlink_copies as f64),
        ("core.controller.control_packets", t.control_packets as f64),
        (
            "core.health.emergency_reattaches",
            t.emergency_reattaches as f64,
        ),
        ("core.health.failover_ms_p50", median_ms(&t.failover_ns)),
        ("core.replica.takeover_ms_p50", median_ms(&t.takeover_ns)),
        ("core.replica.journal_batches", t.journal_batches as f64),
        ("core.replica.journal_gaps", t.journal_gaps as f64),
        (
            "core.replica.stale_term_dropped",
            t.stale_term_dropped as f64,
        ),
        ("core.shard.migrations", t.migrations as f64),
        ("core.shard.migration_retries", t.migration_retries as f64),
        ("core.shard.seam_retention", t.seam_retention()),
    ]);

    // Legs that belong to one workload only; elsewhere the metric stays 0.
    let legs = tracer.open("legs", root);
    if session.workload.is_sharded() && session.workers == 1 {
        m.insert("sim.lockstep.serial_sim_rt_ratio", ratio(t.sim_s, traced_s));
    }
    if name == "corridor_ring" && session.workers > 1 {
        let inputs = session.workload.inputs.clone();
        let (serial, serial_s, outs) = leg(session, tracer, legs, "one_worker", &inputs, 1);
        for (i, (one, two)) in outs.iter().zip(&fingerprints).enumerate() {
            if two.as_ref().is_some_and(|two| *two != one.fingerprint) {
                session.fail(format!(
                    "op {i}: fingerprint at {} workers differs from 1 worker",
                    session.workers
                ));
            }
        }
        m.insert(
            "sim.lockstep.serial_sim_rt_ratio",
            ratio(serial.sim_s, serial_s),
        );
        m.insert("sim.lockstep.speedup", ratio(serial_s, traced_s));
        // ROADMAP's "≈2.6× per event" as a tracked number: the sharded
        // corridor on one worker against the unsharded drive.
        if let Some(drive) = Workload::generate("drive_udp", seed, Scale::Full) {
            let (unsharded, unsharded_s, _) =
                leg(session, tracer, legs, "drive_udp", &drive.inputs, 1);
            m.insert(
                "core.shard.per_event_overhead",
                ratio(
                    ratio(serial_s, serial.events as f64),
                    ratio(unsharded_s, unsharded.events as f64),
                ),
            );
        }
    }
    if name == "drive_udp" {
        let baseline = workloads::drive_udp_baseline(seed);
        let (base, _, _) = leg(session, tracer, legs, "enhanced_80211r", &baseline, 1);
        m.insert(
            "model.gain_vs_80211r",
            ratio(t.goodput_mbps(), base.goodput_mbps()),
        );
        m.insert(
            "model.goodput_vs_paper",
            t.goodput_mbps() / paper::UDP_GOODPUT_MBPS,
        );
        m.insert(
            "model.switch_ms_vs_paper",
            mean(&t.switch_ms()) / paper::SWITCH_MS,
        );
        m.insert(
            "model.accuracy_vs_paper",
            t.switch_accuracy() / paper::ACCURACY,
        );
    }
    tracer.close(legs, &[]);

    let kernel_span = tracer.open("kernels", root);
    let lockstep_workers = crate::host::nproc().min(2);
    let kernel_results = kernels::run_all(
        tracer,
        kernel_span,
        &session.workload,
        seed,
        lockstep_workers,
    );
    tracer.close(kernel_span, &[]);
    m.extend(kernel_results);
    tracer.close(root, &[("ops", session.ops as f64)]);

    Traced {
        metrics: m,
        tracing_overhead: 1.0 - ratio(untraced_s, traced_s),
    }
}
