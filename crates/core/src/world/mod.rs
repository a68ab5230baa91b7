//! The complete simulated network: APs, clients, controller, server,
//! radio medium, and backhaul, driven by the discrete-event engine.
//!
//! One [`WgttWorld`] instance is a full experiment: it can run in WGTT mode
//! (controller-driven millisecond switching, §3 of the paper) or Enhanced
//! 802.11r mode (the paper's §5.1 baseline) over identical channel
//! realizations, which is what makes the head-to-head comparisons fair.
//!
//! ## Layers
//!
//! This file holds the struct, its constructors, [`Ev`] and the dispatch;
//! the handlers live one layer to a file — `air` (the radio), `datapath`
//! (backhaul hops and traffic), `control` (selection and the switch
//! protocol), `recovery` (faults and what repairs them), `seam` (shard
//! boundaries), `baseline` (probes, oracle tick, 802.11r roaming) — each
//! an `impl WgttWorld` block that owns one sub-enum of `Ev`, shares this
//! file's imports through `use super::*`, and keeps the state only it
//! touches in a struct private to itself (DESIGN.md §6h).

use crate::ap::{ApState, Role, DEGRADED_UPLINK_CAP, GUARD_INTERVAL, MPDU_RETRY_LIMIT};
use crate::client::{ClientState, DeliveryRecord};
use crate::config::{Mode, SystemConfig};
use crate::controller::ControllerState;
use crate::dedup::Deduplicator;
use crate::metrics::SystemMetrics;
use crate::oracle::{Recorder, Sample, WorldView};
use crate::recovery::{RecoveryEngine, ResyncAction};
use crate::replica::JournalBatch;
use crate::runner::FlowSpec;
use crate::switching::{AckOutcome, ResyncReply, SwitchMsg, TermVerdict, CONTROL_PACKET_BYTES};
use wgtt_mac::blockack::BlockAckFrame;
use wgtt_mac::timing::{
    ampdu_airtime, block_ack_airtime, difs, frame_airtime, sifs, slot, MAX_AMPDU_BYTES,
};
use wgtt_mac::{AssocState, Medium, MgmtFrame};
use wgtt_net::{
    overhead, ApId, Backhaul, CbrSource, ClientId, Direction, FlowId, Packet, PacketFactory,
    Payload, SackBlocks, TcpConfig, TcpReceiver, TcpSender, UdpSink,
};
use wgtt_phy::geom::Deployment;
use wgtt_phy::mcs::Mcs;
use wgtt_phy::{EsnrMemo, LinkConfig, WirelessLink};
use wgtt_sim::{Ctx, FaultEdge, FaultSchedule, SimDuration, SimRng, SimTime, World};

mod air;
mod baseline;
mod control;
mod datapath;
mod recovery;
mod seam;

use air::AirState;
pub use air::{Air, RANGE_FLOOR_DB};
pub use baseline::Probe;
pub use control::Ctl;
pub use datapath::{Data, FlowKind, ServerFlow};
pub use recovery::Recovery;
pub use seam::{
    prime_migrant_events, MigrantFlow, MigrantSpec, MigrationRecord, Seam, SeamEntry, SeamPayload,
};

/// Events of the world, one sub-enum per layer module. `Clone` so the
/// backhaul duplication fault can deliver the same frame twice.
#[derive(Clone)]
pub enum Ev {
    /// The radio (`air.rs`).
    Air(Air),
    /// The tunnelled datapath and its traffic sources (`datapath.rs`).
    Data(Data),
    /// Selection and the switch protocol (`control.rs`).
    Ctl(Ctl),
    /// Fault edges and what repairs them (`recovery.rs`).
    Recovery(Recovery),
    /// Shard-seam re-injection (`seam.rs`).
    Seam(Seam),
    /// Client-driven periodic events (`baseline.rs`).
    Probe(Probe),
}

impl Ev {
    /// The client an event targets, if it names exactly one — the hook for
    /// the departed-client guard in [`World::handle`]. Every sub-enum
    /// answers with an exhaustive match (no wildcard arm), so a new
    /// client-addressed variant cannot bypass the guard without a compile
    /// error. Events without a single client target (contention rounds,
    /// ticks that loop over all clients, fault edges, controller lifecycle)
    /// return `None` and guard per-client inside their handlers.
    fn client(&self, flows: &[ServerFlow]) -> Option<usize> {
        match self {
            Ev::Air(e) => e.client(),
            Ev::Data(e) => e.client(flows),
            Ev::Ctl(e) => e.client(),
            Ev::Recovery(e) => e.client(),
            Ev::Seam(e) => e.client(),
            Ev::Probe(e) => e.client(),
        }
    }
}

/// The world.
pub struct WgttWorld {
    /// Configuration.
    pub cfg: SystemConfig,
    /// AP array geometry.
    pub deployment: Deployment,
    /// `links[ap][client]`.
    pub links: Vec<Vec<WirelessLink>>,
    /// Access points.
    pub aps: Vec<ApState>,
    /// Clients.
    pub clients: Vec<ClientState>,
    /// Controller.
    pub ctrl: ControllerState,
    /// Application flows.
    pub flows: Vec<ServerFlow>,
    /// Shared radio medium.
    pub medium: Medium,
    /// Wired backhaul model.
    pub backhaul: Backhaul,
    /// Packet id/ident factory.
    pub factory: PacketFactory,
    /// System-wide counters.
    pub sys: SystemMetrics,
    /// Traffic stops at this time.
    pub traffic_until: SimTime,
    /// Injected fault schedule (empty by default; an empty schedule leaves
    /// every RNG stream untouched, so healthy runs stay bit-identical).
    pub faults: FaultSchedule,
    /// RNG stream reserved for fault decisions (CSI drops), forked off the
    /// root so fault draws never perturb the main `rng` sequence.
    fault_rng: SimRng,
    /// Ground truth: which APs are currently crashed.
    ap_down: Vec<bool>,
    /// Ground truth: whether the controller is currently crashed. While
    /// set, every controller handler drops its input and no controller
    /// timer has effect.
    controller_down: bool,
    /// What only the recovery layer touches: resync round, standby, zombie.
    recovery: RecoveryEngine<(usize, Packet)>,
    /// Emergency re-attaches in progress, dense by client index:
    /// `Some((target AP, retries, switch epoch))` while one is pending.
    /// Index order equals the old ordered-map iteration order, so the
    /// reboot re-association scan stays deterministic.
    pending_reattach: Vec<Option<(usize, u32, u32)>>,
    /// Clients whose serving AP crashed (dense by client index, holding
    /// the crash instant) — resolved into failover-latency samples when
    /// they re-attach.
    pending_failover: Vec<Option<SimTime>>,
    /// Accuracy-oracle samples on their way into the clients' metrics.
    oracle: Recorder,
    /// Dense by client index: `true` once the client was retired out of
    /// this world (migrated to a neighboring shard at a lockstep barrier).
    /// All-false in unsharded runs, where every guard on it is a no-op and
    /// the engine stays bit-identical to the pre-sharding code.
    pub(crate) departed: Vec<bool>,
    /// Dense by client index: seam datagrams of a *departed* client,
    /// captured by the event guard instead of dropped. Drained by the
    /// sharding layer at the next lockstep barrier and forwarded to the
    /// client's destination shard. Always empty in unsharded runs.
    pub(crate) outbox: Vec<Vec<SeamPayload>>,
    /// Dense by client index: imported seam datagrams (already rewritten
    /// into this world's id space) waiting for the migrant's first
    /// association — re-injecting before the controller has a fan-out set
    /// would silently drop them. Flushed by the selection tick the moment
    /// the client associates, or by `Seam::MigrantFlush` for later barriers.
    /// Always empty in unsharded runs.
    pending_import: Vec<Vec<SeamPayload>>,
    rng: SimRng,
    /// The downlink fan-out set of the packet at the controller, on loan to
    /// `on_packet_at_controller` (overwritten per packet, capacity kept).
    fanout: Vec<usize>,
    /// What only the radio layer touches: in-flight table, round scratch.
    air: AirState,
    /// DCF collisions observed (stats).
    pub dcf_collisions: u64,
}

impl WgttWorld {
    /// Builds a world: deployment geometry, per-link channel realizations,
    /// APs, clients (with trajectories), and the controller. Public only
    /// because `benchmark/src/layers.rs` calls it (ROADMAP item 10(a)).
    #[doc(hidden)]
    pub fn new(
        cfg: SystemConfig,
        trajectories: Vec<Box<dyn wgtt_phy::Trajectory>>,
        seed: u64,
        traffic_until: SimTime,
        log_deliveries: bool,
    ) -> Self {
        let dep = cfg.deployment.build();
        Self::assemble(cfg, dep, trajectories, seed, traffic_until, log_deliveries)
    }

    /// The one constructor, on a built (possibly irregular) deployment:
    /// what [`Scenario::build`](crate::runner::Scenario::build) calls.
    pub(crate) fn assemble(
        cfg: SystemConfig,
        deployment: Deployment,
        trajectories: Vec<Box<dyn wgtt_phy::Trajectory>>,
        seed: u64,
        traffic_until: SimTime,
        log_deliveries: bool,
    ) -> Self {
        let root = SimRng::new(seed);
        let n_aps = deployment.aps.len();
        let n_clients = trajectories.len();
        let mut world = WgttWorld {
            links: (0..n_aps).map(|_| Vec::with_capacity(n_clients)).collect(),
            aps: (0..n_aps).map(|_| ApState::default()).collect(),
            clients: Vec::with_capacity(n_clients),
            deployment,
            ctrl: ControllerState::new(cfg.selection),
            flows: Vec::new(),
            medium: Medium::new(),
            backhaul: Backhaul::new(root.fork("backhaul")),
            factory: PacketFactory::new(),
            sys: SystemMetrics::default(),
            traffic_until,
            faults: FaultSchedule::default(),
            fault_rng: root.fork("faults"),
            ap_down: vec![false; n_aps],
            controller_down: false,
            recovery: RecoveryEngine::new(DEGRADED_UPLINK_CAP),
            pending_reattach: Vec::with_capacity(n_clients),
            pending_failover: Vec::with_capacity(n_clients),
            oracle: Recorder::default(),
            departed: Vec::with_capacity(n_clients),
            outbox: Vec::with_capacity(n_clients),
            pending_import: Vec::with_capacity(n_clients),
            rng: root.fork("world"),
            fanout: Vec::new(),
            air: AirState::default(),
            dcf_collisions: 0,
            cfg,
        };
        for (c, t) in trajectories.into_iter().enumerate() {
            world.push_client(t, log_deliveries, |w, a| {
                scenario_link(seed, &w.deployment, &w.cfg.link, a, c)
            });
        }
        world
    }

    /// Appends a client: one link per AP, `link(self, ap)`, its
    /// [`ClientState`], and an empty slot in every dense per-client
    /// vector. Returns the new client index.
    fn push_client(
        &mut self,
        trajectory: Box<dyn wgtt_phy::Trajectory>,
        log_deliveries: bool,
        link: impl Fn(&Self, usize) -> WirelessLink,
    ) -> usize {
        let c = self.clients.len();
        for a in 0..self.links.len() {
            debug_assert_eq!(self.links[a].len(), c);
            let link = link(self, a);
            self.links[a].push(link);
        }
        self.clients
            .push(ClientState::new(trajectory, log_deliveries));
        self.pending_reattach.push(None);
        self.pending_failover.push(None);
        self.departed.push(false);
        self.outbox.push(Vec::new());
        self.pending_import.push(Vec::new());
        c
    }

    /// Registers a flow, returning its index (public only for
    /// `benchmark/src/layers.rs`, like [`WgttWorld::new`]).
    #[doc(hidden)]
    pub fn add_flow(&mut self, client: usize, kind: FlowKind) -> usize {
        let id = FlowId(self.flows.len() as u32);
        let up_sink = matches!(kind, FlowKind::UpUdp(_)).then(UdpSink::new);
        // Make sure the client has matching endpoint state.
        match &kind {
            FlowKind::DownTcp(_) => {
                self.clients[client].tcp_rx.insert(id, TcpReceiver::new());
            }
            FlowKind::DownUdp(_) => {
                self.clients[client].udp_sink.insert(id, UdpSink::new());
            }
            FlowKind::UpUdp(_) => {}
        }
        self.flows.push(ServerFlow {
            id,
            client,
            kind,
            up_sink,
            completed_at: None,
            start: SimTime::ZERO,
            rto_check_at: None,
        });
        self.flows.len() - 1
    }

    /// Gives `client` the flow `spec` describes, its traffic starting at
    /// `start` — the one place a flow description becomes a [`FlowKind`],
    /// for a scenario's clients and an admitted migrant alike.
    pub(crate) fn attach_flow(&mut self, client: usize, spec: &FlowSpec, start: SimTime) {
        let kind = match *spec {
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
        let fidx = self.add_flow(client, kind);
        self.flows[fidx].start = start;
    }
}

/// The link every world built at `seed` on `deployment` gives AP `a` and
/// client `c`: the fork name `link/{a}/{c}` fixes its fading realization.
/// Fig 2, Fig 10, Fig 21 and `channel_explorer` sample client 0's links
/// without a world, so they see the channel a world's first client sees.
pub fn scenario_link(
    seed: u64,
    deployment: &Deployment,
    cfg: &LinkConfig,
    a: usize,
    c: usize,
) -> WirelessLink {
    let mut rng = SimRng::new(seed).fork(&format!("link/{a}/{c}"));
    WirelessLink::new(deployment.aps[a], cfg.clone(), &mut rng)
}

/// Seeds the initial periodic events for a freshly built world (public
/// only for `benchmark/src/layers.rs`, like [`WgttWorld::new`]).
#[doc(hidden)]
pub fn prime_events(sim: &mut wgtt_sim::Simulator<WgttWorld>) {
    let n_clients = sim.world().clients.len();
    let n_flows = sim.world().flows.len();
    let mode = sim.world().cfg.mode;
    sim.schedule_at(SimTime::ZERO, Ev::Ctl(Ctl::SelectionTick));
    sim.schedule_at(SimTime::from_micros(500), Ev::Probe(Probe::AccuracyTick));
    if mode == Mode::Enhanced80211r {
        sim.schedule_at(SimTime::ZERO, Ev::Probe(Probe::BeaconTick));
        for c in 0..n_clients {
            sim.schedule_at(
                SimTime::from_millis(1),
                Ev::Probe(Probe::RoamCheck { client: c }),
            );
        }
    }
    for c in 0..n_clients {
        sim.schedule_at(
            SimTime::from_micros(100),
            Ev::Probe(Probe::ProbeTick { client: c }),
        );
    }
    let edges = sim.world().faults.edges();
    for (t, edge) in edges {
        let ev = match edge {
            FaultEdge::Crash(ap) => Recovery::ApCrash(ap),
            FaultEdge::Reboot(ap) => Recovery::ApReboot(ap),
            FaultEdge::ControllerCrash => Recovery::ControllerCrash,
            FaultEdge::ControllerRecover => Recovery::ControllerRecover,
            FaultEdge::ZombieWake => Recovery::ZombieWake,
        };
        sim.schedule_at(t, Ev::Recovery(ev));
    }
    // Warm-standby machinery only spins up when a failover is armed: an
    // unarmed run schedules no journal or detector events at all, keeping
    // it bit-identical to the single-controller engine.
    if mode == Mode::Wgtt && sim.world().faults.has_failover() {
        sim.schedule_at(
            SimTime::from_millis(10),
            Ev::Recovery(Recovery::JournalShip),
        );
        sim.schedule_at(
            SimTime::from_millis(5),
            Ev::Recovery(Recovery::StandbyCheck),
        );
    }
    for f in 0..n_flows {
        let (at, tick) = sim.world().flows[f].first_tick(f, SimTime::from_millis(1));
        sim.schedule_at(at, Ev::Data(tick));
    }
}

impl World for WgttWorld {
    type Event = Ev;

    fn handle(&mut self, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        // Departed-client guard: a client retired to another shard can
        // still be named by events that were already in flight when the
        // barrier retired it. No handler ever touches a retired client's
        // wiped state; what becomes of the event is the seam's business.
        // In unsharded runs `departed` is all-false and this never fires.
        if let Some(c) = event.client(&self.flows) {
            if self.departed[c] {
                return self.capture_departed(c, event);
            }
        }
        match event {
            Ev::Air(e) => self.handle_air(e, ctx),
            Ev::Data(e) => self.handle_data(e, ctx),
            Ev::Ctl(e) => self.handle_ctl(e, ctx),
            Ev::Recovery(e) => self.handle_recovery(e, ctx),
            Ev::Seam(e) => self.handle_seam(e, ctx),
            Ev::Probe(e) => self.handle_probe(e, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queue slot holds an `Option<Ev>`. The largest variant is
    /// `Data::PacketAtAp` — 8 bytes of AP index, a 72-byte `Packet` and a
    /// tag — and nesting the enum must not add a second tag word on top,
    /// nor the slot's `None` a third.
    #[test]
    fn nested_ev_is_no_larger_than_the_flat_one() {
        use std::mem::size_of;
        assert!(size_of::<Packet>() <= 72, "{}", size_of::<Packet>());
        assert!(size_of::<Ev>() <= 88, "{}", size_of::<Ev>());
        assert!(size_of::<Data>() <= 88);
        assert!(size_of::<Option<Ev>>() <= 88, "{}", size_of::<Option<Ev>>());
    }
}
