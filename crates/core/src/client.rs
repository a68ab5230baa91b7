//! Client (station) state.
//!
//! A client rides a trajectory past the AP array, receives downlink
//! A-MPDUs through a Block ACK reorderer, runs the transport endpoints
//! (TCP receiver, UDP sinks, uplink sources), queues uplink frames (TCP
//! ACKs, UDP data, probes, management), and — in baseline mode — runs the
//! Enhanced 802.11r roaming logic off beacon RSSI measurements.

use crate::ap::GUARD_INTERVAL;
use crate::metrics::ClientMetrics;
use std::collections::{BTreeMap, HashMap, VecDeque};
use wgtt_mac::blockack::RxReorder;
use wgtt_mac::dcf::Backoff;
use wgtt_net::{ApId, FlowId, Packet, TcpReceiver, UdpSink};
use wgtt_phy::{MinstrelLite, Position, Trajectory};
use wgtt_sim::stats::Ewma;
use wgtt_sim::{SimDuration, SimTime};

/// Width of the bins a client's throughput timeline is kept in.
const METRICS_BIN: SimDuration = SimDuration::from_millis(100);

/// An uplink frame waiting for the air, with retry accounting.
#[derive(Debug, Clone)]
pub struct UplinkEntry {
    /// The packet (data) or `None` payload probes/management are encoded as
    /// packets too.
    pub packet: Packet,
    /// Link-layer retries so far.
    pub retries: u32,
    /// Uplink 802.11 sequence number.
    pub seq: u16,
}

/// Baseline roaming attempt in progress.
#[derive(Debug, Clone, Copy)]
pub struct RoamAttempt {
    /// AP the client is trying to reassociate with.
    pub target: ApId,
    /// Reassociation request (re)transmissions so far.
    pub retries: u32,
}

/// One mobile client. Its id is its index in the world's client list.
pub struct ClientState {
    /// Motion plan.
    pub trajectory: Box<dyn Trajectory>,
    /// The AP currently serving this client, from the client's own point of
    /// view (authoritative in baseline mode; mirrors the controller in WGTT
    /// mode).
    pub serving: Option<ApId>,
    /// Downlink Block ACK reorderer. Sequence numbers equal WGTT indices,
    /// so the window survives AP switches.
    pub rx_reorder: RxReorder,
    /// Out-of-order packet buffer keyed by sequence.
    pub rx_buffer: HashMap<u16, Packet>,
    /// Uplink transmit queue.
    pub uplink_queue: VecDeque<UplinkEntry>,
    /// Uplink rate control.
    pub ratectl: MinstrelLite,
    /// Uplink DCF backoff.
    pub backoff: Backoff,
    /// Next uplink 802.11 sequence number.
    pub next_ul_seq: u16,
    /// Time of the last uplink transmission (probe scheduling).
    pub last_uplink_tx: SimTime,
    /// TCP receive endpoints, by flow.
    pub tcp_rx: HashMap<FlowId, TcpReceiver>,
    /// Downlink UDP sinks, by flow.
    pub udp_sink: HashMap<FlowId, UdpSink>,
    /// Measurements.
    pub metrics: ClientMetrics,
    /// Baseline: smoothed beacon RSSI per AP, in AP order.
    pub rssi: BTreeMap<ApId, Ewma>,
    /// Baseline: last switch time (1 s hysteresis).
    pub last_roam: Option<SimTime>,
    /// Baseline: in-flight roaming attempt.
    pub roam: Option<RoamAttempt>,
    /// Per-flow delivery log (enabled for QoE post-processing).
    pub delivery_log: Option<Vec<DeliveryRecord>>,
    /// When the current head-of-window reorder hole appeared (reorder
    /// release timer).
    pub hole_since: Option<SimTime>,
    /// Baseline: when the serving AP's beacon was last heard (beacon-miss
    /// detection).
    pub last_serving_beacon: Option<SimTime>,
}

/// One application-level delivery at the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryRecord {
    /// Arrival time.
    pub at: SimTime,
    /// Flow.
    pub flow: FlowId,
    /// Transport sequence (UDP seq or TCP cumulative byte count).
    pub seq: u64,
    /// Payload bytes delivered by this event.
    pub bytes: usize,
}

impl ClientState {
    /// Creates a client.
    pub fn new(trajectory: Box<dyn Trajectory>, log_deliveries: bool) -> Self {
        ClientState {
            trajectory,
            serving: None,
            rx_reorder: RxReorder::new(0),
            rx_buffer: HashMap::new(),
            uplink_queue: VecDeque::new(),
            ratectl: MinstrelLite::new(GUARD_INTERVAL),
            backoff: Backoff::default(),
            next_ul_seq: 0,
            last_uplink_tx: SimTime::ZERO,
            tcp_rx: HashMap::new(),
            udp_sink: HashMap::new(),
            metrics: ClientMetrics::new(METRICS_BIN),
            rssi: BTreeMap::new(),
            last_roam: None,
            roam: None,
            delivery_log: log_deliveries.then(Vec::new),
            hole_since: None,
            last_serving_beacon: None,
        }
    }

    /// Position at `t`.
    pub fn position(&self, t: SimTime) -> Position {
        self.trajectory.position(t)
    }

    /// Speed at `t`, m/s.
    pub fn speed(&self, t: SimTime) -> f64 {
        self.trajectory.speed_mps(t)
    }

    /// Enqueues an uplink packet, assigning its 802.11 sequence.
    pub fn enqueue_uplink(&mut self, packet: Packet) {
        let seq = self.next_ul_seq;
        self.next_ul_seq = (self.next_ul_seq + 1) & 0x0FFF;
        self.uplink_queue.push_back(UplinkEntry {
            packet,
            retries: 0,
            seq,
        });
    }

    /// True when the client radio has something to send.
    pub fn has_uplink_work(&self) -> bool {
        !self.uplink_queue.is_empty()
    }

    /// Records a delivery in the optional log.
    pub fn log_delivery(&mut self, rec: DeliveryRecord) {
        if let Some(log) = &mut self.delivery_log {
            log.push(rec);
        }
    }

    /// Baseline: smoothed RSSI for an AP, if any beacons were heard.
    pub fn rssi_db(&self, ap: ApId) -> Option<f64> {
        self.rssi.get(&ap).and_then(|e| e.value())
    }

    /// Baseline: the AP with the highest smoothed RSSI; an exact tie goes
    /// to the lower AP id.
    pub fn best_rssi_ap(&self) -> Option<(ApId, f64)> {
        self.rssi
            .iter()
            .filter_map(|(&ap, e)| e.value().map(|v| (ap, v)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
    }
}

impl std::fmt::Debug for ClientState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientState")
            .field("serving", &self.serving)
            .field("uplink_queue", &self.uplink_queue.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::{ClientId, Direction, PacketFactory, Payload};
    use wgtt_phy::Stationary;

    fn client() -> ClientState {
        ClientState::new(
            Box::new(Stationary {
                position: Position::new(1.0, 2.0, 1.5),
            }),
            true,
        )
    }

    #[test]
    fn uplink_seq_assignment_wraps() {
        let mut c = client();
        c.next_ul_seq = 0x0FFE;
        let mut f = PacketFactory::new();
        for _ in 0..4 {
            let p = f.make(
                ClientId(0),
                FlowId(0),
                Direction::Uplink,
                100,
                SimTime::ZERO,
                Payload::Raw,
            );
            c.enqueue_uplink(p);
        }
        let seqs: Vec<u16> = c.uplink_queue.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0x0FFE, 0x0FFF, 0, 1]);
        assert!(c.has_uplink_work());
    }

    #[test]
    fn position_follows_trajectory() {
        let c = client();
        assert_eq!(
            c.position(SimTime::from_secs(10)),
            Position::new(1.0, 2.0, 1.5)
        );
        assert_eq!(c.speed(SimTime::ZERO), 0.0);
    }

    #[test]
    fn rssi_tracking() {
        let mut c = client();
        assert_eq!(c.rssi_db(ApId(0)), None);
        assert_eq!(c.best_rssi_ap(), None);
        c.rssi
            .entry(ApId(0))
            .or_insert_with(|| Ewma::new(0.5))
            .update(10.0);
        c.rssi
            .entry(ApId(1))
            .or_insert_with(|| Ewma::new(0.5))
            .update(20.0);
        assert_eq!(c.best_rssi_ap().unwrap().0, ApId(1));
        assert_eq!(c.rssi_db(ApId(0)), Some(10.0));
    }

    #[test]
    fn rssi_tie_goes_to_the_lower_ap() {
        let mut c = client();
        for ap in [ApId(5), ApId(2), ApId(7)] {
            c.rssi.insert(ap, Ewma::new(0.5));
            c.rssi.get_mut(&ap).unwrap().update(15.0);
        }
        c.rssi.insert(ApId(0), Ewma::new(0.5));
        c.rssi.get_mut(&ApId(0)).unwrap().update(3.0);
        assert_eq!(c.best_rssi_ap(), Some((ApId(2), 15.0)));
    }

    #[test]
    fn delivery_log_optional() {
        let mut c = client();
        c.log_delivery(DeliveryRecord {
            at: SimTime::from_millis(5),
            flow: FlowId(0),
            seq: 1,
            bytes: 1400,
        });
        assert_eq!(c.delivery_log.as_ref().unwrap().len(), 1);

        let mut quiet = ClientState::new(
            Box::new(Stationary {
                position: Position::new(0.0, 0.0, 0.0),
            }),
            false,
        );
        quiet.log_delivery(DeliveryRecord {
            at: SimTime::ZERO,
            flow: FlowId(0),
            seq: 0,
            bytes: 1,
        });
        assert!(quiet.delivery_log.is_none());
    }
}
