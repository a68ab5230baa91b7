//! Running ops and turning finished worlds into numbers.
//!
//! One op is one `run` or `run_sharded` call, wrapped in `catch_unwind`.
//! Everything read here comes from the returned worlds' public fields.

use crate::alloc;
use crate::host;
use crate::stats::{tail_percentile, Summary};
use crate::workloads::{Input, Scale, Workload, SETTLE_S};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wgtt_core::runner::run;
use wgtt_core::shard::run_sharded;
use wgtt_core::world::{FlowKind, WgttWorld};
use wgtt_sim::stats::{mean, median};

/// Counts and sums read from finished worlds. Integer fields and the
/// order-fixed vectors repeat bit-exactly for one input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Engine events processed.
    pub events: u64,
    /// Simulated seconds covered (traffic + settle per op).
    pub sim_s: f64,
    /// Vehicle-seconds of traffic.
    pub vehicle_s: f64,
    /// Application payload bytes delivered to sinks (downlink UDP and TCP
    /// at the clients, uplink UDP at the server; no headers, no
    /// retransmissions, no duplicates).
    pub payload_bytes: u64,
    /// The UDP part of `payload_bytes`.
    pub udp_bytes: u64,
    /// UDP payload bits offered.
    pub udp_offered_bits: f64,
    /// `SwitchRecord::execution_time` of every completed switch, ns, in
    /// world then history order.
    pub switch_ns: Vec<u64>,
    /// Σ `accuracy_optimal`.
    pub accuracy_optimal: u64,
    /// Σ `accuracy_total`.
    pub accuracy_total: u64,
    /// Lockstep epochs.
    pub epochs: u64,
    /// Fault windows scheduled.
    pub fault_windows: u64,
    /// `Medium::tx_count`.
    pub tx_count: u64,
    /// `WgttWorld::dcf_collisions`.
    pub collisions: u64,
    /// `Medium::busy_time`, ns.
    pub busy_ns: u64,
    /// Simulated ns a medium existed for (sim time × worlds).
    pub medium_ns: u64,
    /// Σ `ClientMetrics::mpdu_attempts`.
    pub mpdu_attempts: u64,
    /// Σ `mpdu_successes`.
    pub mpdu_successes: u64,
    /// Σ `mpdu_retransmits`.
    pub mpdu_retransmits: u64,
    /// Σ `ba_forwarded_applied`.
    pub ba_forwarded: u64,
    /// Σ `ba_lost_at_serving`.
    pub ba_lost: u64,
    /// `backhaul_dup_deliveries`.
    pub dup_deliveries: u64,
    /// `backhaul_reorders`.
    pub reorders: u64,
    /// Σ `TcpSender::retransmit_count`.
    pub tcp_retransmits: u64,
    /// Σ `TcpSender::timeout_count`.
    pub tcp_timeouts: u64,
    /// `flushed_packets`.
    pub flushed: u64,
    /// Σ retries over completed and abandoned switches.
    pub switch_retries: u64,
    /// `abandoned_switches`.
    pub abandoned: u64,
    /// `stale_control_dropped`.
    pub stale_dropped: u64,
    /// `dup_control_dropped`.
    pub dup_dropped: u64,
    /// `uplink_copies`.
    pub uplink_copies: u64,
    /// `uplink_duplicates`.
    pub uplink_duplicates: u64,
    /// `downlink_copies`.
    pub downlink_copies: u64,
    /// `control_packets`.
    pub control_packets: u64,
    /// `emergency_reattaches`.
    pub emergency_reattaches: u64,
    /// `ClientMetrics::failovers` latencies, ns.
    pub failover_ns: Vec<u64>,
    /// `SystemMetrics::takeovers` latencies, ns.
    pub takeover_ns: Vec<u64>,
    /// `journal_batches_shipped`.
    pub journal_batches: u64,
    /// `journal_gaps`.
    pub journal_gaps: u64,
    /// `stale_term_dropped`.
    pub stale_term_dropped: u64,
    /// Boundary crossings exported.
    pub migrations: u64,
    /// `migration_retries`.
    pub migration_retries: u64,
    /// `migrated_in`.
    pub migrated_in: u64,
    /// `departed_data_bytes`.
    pub departed_data_bytes: u64,
    /// Downlink UDP payload bytes at client sinks (seam-retention
    /// numerator, as `wgtt-bench handoff_scaling` defines it).
    pub sink_bytes: u64,
    /// `mis_switches`.
    pub mis_switches: u64,
    /// Duplicates that reached a server-side uplink sink.
    pub server_uplink_dups: u64,
}

/// FNV-1a over u64 words: the benchmark-side digest.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn mix_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.mix(b as u64);
        }
    }
}

impl Tally {
    fn absorb_world(&mut self, w: &WgttWorld, sim_s: f64, d: &mut Digest) {
        for h in w.ctrl.engine.history() {
            self.switch_ns.push(h.execution_time().as_nanos());
            self.switch_retries += h.retries as u64;
            for v in [
                h.client.0 as u64,
                h.from.0 as u64,
                h.to.0 as u64,
                h.issued_at.as_nanos(),
                h.completed_at.as_nanos(),
                h.retries as u64,
                h.epoch as u64,
            ] {
                d.mix(v);
            }
        }
        for a in w.ctrl.engine.abandoned() {
            self.switch_retries += a.retries as u64;
        }
        for c in &w.clients {
            let m = &c.metrics;
            for &(t, ap) in &m.assoc_timeline {
                d.mix(t.as_nanos());
                d.mix(ap.map_or(0, |a| a.0 as u64 + 1));
            }
            self.accuracy_optimal += m.accuracy_optimal;
            self.accuracy_total += m.accuracy_total;
            self.mpdu_attempts += m.mpdu_attempts;
            self.mpdu_successes += m.mpdu_successes;
            self.mpdu_retransmits += m.mpdu_retransmits;
            self.ba_forwarded += m.ba_forwarded_applied;
            self.ba_lost += m.ba_lost_at_serving;
            for &(_, lat) in &m.failovers {
                self.failover_ns.push(lat.as_nanos());
                d.mix(lat.as_nanos());
            }
        }
        // Flows in registration order, so the digest does not depend on
        // the iteration order of the clients' sink maps.
        for f in &w.flows {
            let c = &w.clients[f.client];
            let bytes = match &f.kind {
                FlowKind::DownUdp(_) => {
                    let b = c.udp_sink.get(&f.id).map_or(0, |k| k.bytes());
                    self.udp_bytes += b;
                    self.sink_bytes += b;
                    b
                }
                FlowKind::DownTcp(sender) => {
                    self.tcp_retransmits += sender.retransmit_count();
                    self.tcp_timeouts += sender.timeout_count();
                    c.tcp_rx.get(&f.id).map_or(0, |r| r.rcv_nxt())
                }
                FlowKind::UpUdp(src) => {
                    let sink = f.up_sink.as_ref();
                    self.server_uplink_dups += sink.map_or(0, |k| k.duplicates());
                    let b = sink.map_or(0, |k| k.received()) * src.payload_bytes as u64;
                    self.udp_bytes += b;
                    b
                }
            };
            self.payload_bytes += bytes;
            d.mix(bytes);
        }
        self.tx_count += w.medium.tx_count();
        self.collisions += w.dcf_collisions;
        self.busy_ns += w.medium.busy_time().as_nanos();
        self.medium_ns += (sim_s * 1e9) as u64;
        let s = &w.sys;
        self.dup_deliveries += s.backhaul_dup_deliveries;
        self.reorders += s.backhaul_reorders;
        self.flushed += s.flushed_packets;
        self.abandoned += s.abandoned_switches;
        self.stale_dropped += s.stale_control_dropped;
        self.dup_dropped += s.dup_control_dropped;
        self.uplink_copies += s.uplink_copies;
        self.uplink_duplicates += s.uplink_duplicates;
        self.downlink_copies += s.downlink_copies;
        self.control_packets += s.control_packets;
        self.emergency_reattaches += s.emergency_reattaches;
        self.takeover_ns
            .extend(s.takeovers.iter().map(|&(_, lat)| lat.as_nanos()));
        self.journal_batches += s.journal_batches_shipped;
        self.journal_gaps += s.journal_gaps;
        self.stale_term_dropped += s.stale_term_dropped;
        self.migration_retries += s.migration_retries;
        self.migrated_in += s.migrated_in;
        self.departed_data_bytes += s.departed_data_bytes;
        self.mis_switches += s.mis_switches;
        // Every SystemMetrics counter goes into the digest, the ones the
        // tally does not keep too. Fields are named one by one (not
        // destructured) so a counter added later does not stop the
        // benchmark from building.
        for v in [
            s.uplink_copies,
            s.uplink_duplicates,
            s.control_packets,
            s.downlink_copies,
            s.flushed_packets,
            s.ap_crashes,
            s.ap_reboots,
            s.abandoned_switches,
            s.emergency_reattaches,
            s.re_wedged_switches,
            s.stale_control_dropped,
            s.dup_control_dropped,
            s.mis_switches,
            s.backhaul_dup_deliveries,
            s.dup_data_dropped,
            s.backhaul_reorders,
            s.controller_crashes,
            s.controller_recoveries,
            s.resync_replies,
            s.resync_repairs,
            s.resyncs.len() as u64,
            s.controller_rx_dropped,
            s.degraded_uplink_buffered,
            s.degraded_uplink_dropped,
            s.degraded_uplink_flushed,
            s.local_readoptions,
            s.journal_batches_shipped,
            s.journal_batches_applied,
            s.journal_gaps,
            s.standby_takeovers,
            s.stale_term_dropped,
            s.zombie_standdowns,
            s.orphaned_control_dropped,
            s.migrated_out,
            s.migrated_in,
            s.departed_ctrl_drops,
            s.departed_data_drops,
            s.departed_data_bytes,
            s.seam_forwarded,
            s.residue_transferred,
            s.resync_held_overflow,
            s.migration_retries,
            s.migration_dups_dropped,
            s.migration_aborts,
        ] {
            d.mix(v);
        }
        for &(t, lat) in s.resyncs.iter().chain(&s.takeovers) {
            d.mix(t.as_nanos());
            d.mix(lat.as_nanos());
        }
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, o: &Tally) {
        self.events += o.events;
        self.sim_s += o.sim_s;
        self.vehicle_s += o.vehicle_s;
        self.payload_bytes += o.payload_bytes;
        self.udp_bytes += o.udp_bytes;
        self.udp_offered_bits += o.udp_offered_bits;
        self.switch_ns.extend_from_slice(&o.switch_ns);
        self.accuracy_optimal += o.accuracy_optimal;
        self.accuracy_total += o.accuracy_total;
        self.epochs += o.epochs;
        self.fault_windows += o.fault_windows;
        self.tx_count += o.tx_count;
        self.collisions += o.collisions;
        self.busy_ns += o.busy_ns;
        self.medium_ns += o.medium_ns;
        self.mpdu_attempts += o.mpdu_attempts;
        self.mpdu_successes += o.mpdu_successes;
        self.mpdu_retransmits += o.mpdu_retransmits;
        self.ba_forwarded += o.ba_forwarded;
        self.ba_lost += o.ba_lost;
        self.dup_deliveries += o.dup_deliveries;
        self.reorders += o.reorders;
        self.tcp_retransmits += o.tcp_retransmits;
        self.tcp_timeouts += o.tcp_timeouts;
        self.flushed += o.flushed;
        self.switch_retries += o.switch_retries;
        self.abandoned += o.abandoned;
        self.stale_dropped += o.stale_dropped;
        self.dup_dropped += o.dup_dropped;
        self.uplink_copies += o.uplink_copies;
        self.uplink_duplicates += o.uplink_duplicates;
        self.downlink_copies += o.downlink_copies;
        self.control_packets += o.control_packets;
        self.emergency_reattaches += o.emergency_reattaches;
        self.failover_ns.extend_from_slice(&o.failover_ns);
        self.takeover_ns.extend_from_slice(&o.takeover_ns);
        self.journal_batches += o.journal_batches;
        self.journal_gaps += o.journal_gaps;
        self.stale_term_dropped += o.stale_term_dropped;
        self.migrations += o.migrations;
        self.migration_retries += o.migration_retries;
        self.migrated_in += o.migrated_in;
        self.departed_data_bytes += o.departed_data_bytes;
        self.sink_bytes += o.sink_bytes;
        self.mis_switches += o.mis_switches;
        self.server_uplink_dups += o.server_uplink_dups;
    }

    /// Application goodput per vehicle, Mb/s.
    pub fn goodput_mbps(&self) -> f64 {
        ratio(self.payload_bytes as f64 * 8.0, self.vehicle_s) / 1e6
    }

    /// UDP payload delivered ÷ offered.
    pub fn udp_delivery_ratio(&self) -> f64 {
        ratio(self.udp_bytes as f64 * 8.0, self.udp_offered_bits)
    }

    /// Switch execution times, ms.
    pub fn switch_ms(&self) -> Vec<f64> {
        self.switch_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Σ optimal ÷ Σ total selection ticks (Table 2).
    pub fn switch_accuracy(&self) -> f64 {
        ratio(self.accuracy_optimal as f64, self.accuracy_total as f64)
    }

    /// Delivered ÷ (delivered + lost at a seam); exactly 1 when nothing
    /// was lost.
    pub fn seam_retention(&self) -> f64 {
        let lost = self.departed_data_bytes;
        if lost == 0 {
            1.0
        } else {
            self.sink_bytes as f64 / (self.sink_bytes + lost) as f64
        }
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one successful op produced.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// Host seconds around the whole call (construction + event loop).
    pub total_wall_s: f64,
    /// Host seconds inside the event loop, as the program reports them
    /// (`RunPerf::wall_s`, `ShardedRunResult::wall`).
    pub loop_wall_s: f64,
    /// Allocation calls during the call.
    pub allocs: u64,
    /// Benchmark-side digest of everything observable.
    pub digest: u64,
    /// `ShardedRunResult::fingerprint` (empty for unsharded ops).
    pub fingerprint: String,
    /// Counts read from the finished worlds.
    pub tally: Tally,
}

/// Runs one input. `Err` carries the panic message.
pub fn run_op(input: &Input, workers: usize) -> Result<OpOutput, String> {
    let sim_s = input.sim_seconds();
    let a0 = alloc::calls();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        let mut d = Digest::new();
        let mut tally = Tally {
            sim_s,
            vehicle_s: input.vehicles() as f64 * (sim_s - SETTLE_S),
            udp_offered_bits: input.udp_offered_bits(),
            epochs: input.epochs(),
            fault_windows: input.fault_windows(),
            ..Tally::default()
        };
        match input {
            Input::Plain(scenario) => {
                let r = run(scenario.clone());
                let total_wall_s = t0.elapsed().as_secs_f64();
                tally.events = r.events;
                d.mix(r.events);
                tally.absorb_world(&r.world, sim_s, &mut d);
                (total_wall_s, r.perf.wall_s, String::new(), tally, d)
            }
            Input::Sharded(scenario) => {
                let r = run_sharded(scenario, workers);
                let total_wall_s = t0.elapsed().as_secs_f64();
                tally.events = r.events;
                tally.migrations = r.migrations.len() as u64;
                d.mix(r.events);
                for w in &r.worlds {
                    tally.absorb_world(w, sim_s, &mut d);
                }
                let fingerprint = r.fingerprint();
                d.mix_str(&fingerprint);
                (total_wall_s, r.wall.as_secs_f64(), fingerprint, tally, d)
            }
        }
    }));
    match out {
        Ok((total_wall_s, loop_wall_s, fingerprint, tally, d)) => Ok(OpOutput {
            total_wall_s,
            loop_wall_s,
            allocs: alloc::calls() - a0,
            digest: d.0,
            fingerprint,
            tally,
        }),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string())),
    }
}

/// The invariants an op's outputs must keep. Returns what broke.
pub fn broken_invariants(workload: &Workload, t: &Tally) -> Vec<String> {
    let mut broken = Vec::new();
    if t.mis_switches > 0 {
        broken.push(format!("mis_switches = {}", t.mis_switches));
    }
    if t.server_uplink_dups > 0 {
        broken.push(format!(
            "{} uplink duplicates reached a server sink",
            t.server_uplink_dups
        ));
    }
    if workload.is_sharded() {
        if t.departed_data_bytes > 0 {
            broken.push(format!(
                "departed_data_bytes = {} on a ring corridor",
                t.departed_data_bytes
            ));
        }
        if t.migrated_in == 0 {
            broken.push("no handoff ever committed (migrated_in = 0)".to_string());
        }
    }
    broken
}

/// Host-side record of one timed rep (one pass over the inputs).
#[derive(Debug, Clone, Default)]
pub struct RepSample {
    /// Σ simulated seconds ÷ Σ event-loop wall.
    pub sim_rt_ratio: f64,
    /// Σ (wall around the call − event-loop wall): construction and
    /// teardown.
    pub construct_s: f64,
    /// Wall of the rep.
    pub wall_s: f64,
    /// Process CPU seconds during the rep.
    pub cpu_s: f64,
    /// Peak live heap during the rep, bytes.
    pub peak_heap_bytes: u64,
}

/// Running state of one workload's pass: what ran, what failed, and what
/// the first run of each input produced, which later runs must repeat.
#[derive(Debug)]
pub struct Session {
    /// The workload.
    pub workload: Workload,
    /// Lockstep workers for sharded inputs.
    pub workers: usize,
    /// Digest of the first run of each input.
    digests: Vec<Option<u64>>,
    /// Counts of the first complete pass over the inputs.
    pub tally: Option<Tally>,
    /// `simulated seconds ÷ event-loop wall` of every timed op.
    pub op_ratios: Vec<f64>,
    /// One sample per timed rep.
    pub reps: Vec<RepSample>,
    /// Ops run.
    pub ops: u64,
    /// Ops that panicked, changed their digest or broke an invariant.
    pub ops_failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

impl Session {
    /// A session with nothing run yet.
    pub fn new(workload: Workload, workers: usize) -> Self {
        Session {
            digests: vec![None; workload.inputs.len()],
            op_ratios: Vec::new(),
            workload,
            workers,
            tally: None,
            reps: Vec::new(),
            ops: 0,
            ops_failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts one failed op.
    pub fn fail(&mut self, what: String) {
        eprintln!("FAILED {}: {what}", self.workload.name);
        self.ops_failed += 1;
        self.failures.push(what);
    }

    /// Runs input `i` as one op: it fails on a panic, on a broken
    /// invariant, and on a digest that differs from the first run's.
    pub fn run_checked(&mut self, i: usize) -> Option<OpOutput> {
        self.ops += 1;
        let out = match run_op(&self.workload.inputs[i], self.workers) {
            Ok(out) => out,
            Err(panic) => {
                self.fail(format!("op {i} panicked: {panic}"));
                return None;
            }
        };
        let mut broken = broken_invariants(&self.workload, &out.tally);
        match self.digests[i] {
            None => self.digests[i] = Some(out.digest),
            Some(first) if first != out.digest => broken.push(format!(
                "digest {:016x} differs from the first run's {first:016x}",
                out.digest
            )),
            Some(_) => {}
        }
        if !broken.is_empty() {
            self.fail(format!("op {i}: {}", broken.join("; ")));
        }
        Some(out)
    }

    /// One timed pass over the inputs.
    pub fn run_rep(&mut self) {
        let mut tally = Tally::default();
        let (mut sim_s, mut loop_s, mut construct_s) = (0.0, 0.0, 0.0);
        let mut complete = true;
        alloc::reset_peak();
        let cpu0 = host::process_cpu_seconds();
        let t0 = Instant::now();
        for i in 0..self.workload.inputs.len() {
            let Some(out) = self.run_checked(i) else {
                complete = false;
                continue;
            };
            sim_s += out.tally.sim_s;
            loop_s += out.loop_wall_s;
            construct_s += out.total_wall_s - out.loop_wall_s;
            self.op_ratios.push(ratio(out.tally.sim_s, out.loop_wall_s));
            tally.merge(&out.tally);
        }
        self.reps.push(RepSample {
            sim_rt_ratio: ratio(sim_s, loop_s),
            construct_s,
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: host::process_cpu_seconds() - cpu0,
            peak_heap_bytes: alloc::peak_bytes(),
        });
        if self.tally.is_none() && complete {
            self.tally = Some(tally);
        }
    }

    /// Host seconds the timed reps have taken so far.
    pub fn measured_s(&self) -> f64 {
        self.reps.iter().map(|r| r.wall_s).sum()
    }
}

/// One set-up: input generation from the seed plus the warm-up op (the
/// workload's first input, run once). Returns the workload and the host
/// seconds it took.
pub fn set_up(name: &str, seed: u64, workers_cap: usize) -> Result<(Workload, f64), String> {
    let t0 = Instant::now();
    let workload = Workload::generate(name, seed, Scale::Full)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let workers = workload.workers.min(workers_cap.max(1));
    run_op(&workload.inputs[0], workers).map_err(|p| format!("warm-up op panicked: {p}"))?;
    Ok((workload, t0.elapsed().as_secs_f64()))
}

/// Mean of the largest tenth (at least one) of `ratios`; 0 for none.
///
/// The shared reference host slows down by a quarter for seconds to minutes
/// at a time, and a 20 s run holds anything from none to all of such a
/// stretch: the median over a run's ops flips between the disturbed and
/// the undisturbed level from run to run (IQR 5–20 % of the median over
/// ten runs). Interference only ever slows an op down, and most runs have
/// some undisturbed ops; the fastest tenth sits on the level a change to
/// the code moves (IQR 3–15 %, and at worst the gap between the two levels
/// of the fastest ops, ≈17 %, where the median's is ≈27 %).
pub fn fastest_tenth_mean(ratios: &[f64]) -> f64 {
    let mut sorted = ratios.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("NaN in op ratios"));
    sorted.truncate(ratios.len().div_ceil(10));
    mean(&sorted)
}

/// The eight end-to-end values of one workload, with the host-time
/// summaries behind them.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Mean `simulated seconds ÷ event-loop wall` over the fastest tenth of
    /// the timed ops: the reported value.
    pub sim_rt_ratio: f64,
    /// The same ratio of every timed op, summarised.
    pub op_sim_rt_ratio: Summary,
    /// Per-rep `sim_rt_ratio` (Σ sim ÷ Σ wall of each pass), summarised —
    /// the noise guard reads its spread.
    pub rep_sim_rt_ratio: Summary,
    /// Set-up samples (generation + warm-up), summarised.
    pub setup: Summary,
    /// Median set-up + median per-rep construction overhead, s.
    pub setup_s: f64,
    /// Max over reps of the peak live heap, MiB.
    pub peak_heap_mib: f64,
    /// Mb/s per vehicle.
    pub goodput_mbps: f64,
    /// Delivered ÷ offered.
    pub udp_delivery_ratio: f64,
    /// Median switch time, ms.
    pub switch_ms_p50: f64,
    /// 95th percentile switch time, ms.
    pub switch_ms_p95: f64,
    /// Switch samples behind the two percentiles.
    pub switch_samples: usize,
    /// Table 2 accuracy.
    pub switch_accuracy: f64,
}

impl EndToEnd {
    /// Distils a finished session. Fails when no rep succeeded or when
    /// the switch-time tail has too few samples to report.
    pub fn of(session: &Session, setups: &[f64]) -> Result<EndToEnd, String> {
        let t = session.tally.as_ref().ok_or("no rep completed")?;
        let switch_ms = t.switch_ms();
        let switch_ms_p95 =
            tail_percentile(&switch_ms, 0.95).map_err(|e| format!("switch_ms_p95: {e}"))?;
        let setup = Summary::of(setups);
        let construct: Vec<f64> = session.reps.iter().map(|r| r.construct_s).collect();
        let rep_ratios: Vec<f64> = session.reps.iter().map(|r| r.sim_rt_ratio).collect();
        let peak = session
            .reps
            .iter()
            .map(|r| r.peak_heap_bytes)
            .max()
            .unwrap_or(0);
        Ok(EndToEnd {
            sim_rt_ratio: fastest_tenth_mean(&session.op_ratios),
            op_sim_rt_ratio: Summary::of(&session.op_ratios),
            rep_sim_rt_ratio: Summary::of(&rep_ratios),
            setup,
            setup_s: setup.median + median(&construct),
            peak_heap_mib: peak as f64 / (1024.0 * 1024.0),
            goodput_mbps: t.goodput_mbps(),
            udp_delivery_ratio: t.udp_delivery_ratio(),
            switch_ms_p50: median(&switch_ms),
            switch_ms_p95,
            switch_samples: switch_ms.len(),
            switch_accuracy: t.switch_accuracy(),
        })
    }

    /// The eight values in [`crate::spec::END_TO_END`] order.
    pub fn values(&self) -> [f64; 8] {
        [
            self.sim_rt_ratio,
            self.setup_s,
            self.peak_heap_mib,
            self.goodput_mbps,
            self.udp_delivery_ratio,
            self.switch_ms_p50,
            self.switch_ms_p95,
            self.switch_accuracy,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_tenth_mean_takes_the_top_decile() {
        let ratios: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(fastest_tenth_mean(&ratios), 29.0); // mean of 28, 29, 30
        assert_eq!(fastest_tenth_mean(&[4.0, 9.0]), 9.0);
        assert_eq!(fastest_tenth_mean(&[]), 0.0);
    }
}
