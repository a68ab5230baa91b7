//! Miniature TCP (Reno/NewReno) — enough transport realism for the paper's
//! end-to-end experiments.
//!
//! The WGTT evaluation repeatedly exercises TCP pathologies: the Enhanced
//! 802.11r baseline stalls mid-drive and "TCP timeout occurs … causing the
//! TCP connection to break" (Fig 14), duplicate uplink ACKs can cause
//! spurious retransmissions (§3.2.3), and bufferbloat at a stale AP
//! disrupts ongoing flows (§3.1.2). Reproducing those effects needs a real
//! congestion-control state machine, not a fluid model, so this module
//! implements byte-sequence TCP with:
//!
//! * slow start / congestion avoidance / NewReno fast recovery,
//! * duplicate-ACK fast retransmit (3 dup ACKs),
//! * RTT estimation (SRTT/RTTVAR, Karn's rule) and exponential RTO backoff,
//! * cumulative ACKs with out-of-order reassembly at the receiver.
//!
//! Sender and receiver are poll-style machines: the surrounding world asks
//! the sender for the next segment it *would* transmit, carries it through
//! the simulated network, and feeds ACKs and timer expirations back in.

use wgtt_sim::{SimDuration, SimTime};

/// Tunables for one TCP connection.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size, bytes (1500 MTU − 40 header → 1460; we use
    /// 1448 as with timestamps).
    pub mss: usize,
    /// Initial congestion window in segments (RFC 6928: 10).
    pub init_cwnd_segs: u32,
    /// Initial RTO before any RTT sample.
    pub init_rto: SimDuration,
    /// Lower RTO clamp (Linux: 200 ms).
    pub min_rto: SimDuration,
    /// Upper RTO clamp.
    pub max_rto: SimDuration,
    /// Duplicate ACKs triggering fast retransmit.
    pub dupack_threshold: u32,
    /// Receive/send window cap, bytes — models the era's default receive
    /// windows and keeps one flow from bloating the AP queues (the paper's
    /// testbed observed 1,600–2,000 buffered packets only under UDP
    /// overload, not TCP).
    pub max_window: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            init_cwnd_segs: 10,
            init_rto: SimDuration::from_secs(1),
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            dupack_threshold: 3,
            max_window: 64 * 1024,
        }
    }
}

/// Congestion-control phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongPhase {
    /// Exponential window growth.
    SlowStart,
    /// Additive increase.
    Avoidance,
    /// NewReno loss recovery; holds the `recover` sequence.
    FastRecovery,
}

/// A segment the sender wants on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegmentOut {
    /// First byte covered.
    pub seq: u64,
    /// Length in bytes.
    pub len: usize,
    /// True when this is a retransmission.
    pub is_retransmit: bool,
}

/// The sending half of a connection.
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    /// MSS-aligned segment starts known received via SACK (≥ snd_una).
    sacked: std::collections::BTreeSet<u64>,
    /// SACK-based recovery: next sequence to scan for hole retransmission.
    rtx_scan: u64,
    /// SACK-based recovery: retransmissions currently allowed (grows by
    /// one per ack received in recovery — the pipe approximation).
    rtx_credit: u32,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next new byte to send.
    snd_nxt: u64,
    /// Congestion window, bytes (f64 for fractional CA growth).
    cwnd: f64,
    /// Slow-start threshold, bytes.
    ssthresh: f64,
    phase: CongPhase,
    /// NewReno recovery point.
    recover: u64,
    dup_acks: u32,
    /// Pending retransmission of the head segment.
    rtx_pending: bool,
    /// Smoothed RTT, seconds.
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rto_deadline: Option<SimTime>,
    consecutive_rtos: u32,
    /// In-flight RTT sample: (sequence that will confirm it, send time).
    rtt_sample: Option<(u64, SimTime)>,
    /// Highest sequence ever sent (marks go-back-N retransmissions).
    high_water: u64,
    /// Application data limit (`None` = unlimited/greedy source).
    app_limit: Option<u64>,
    /// Cumulative retransmitted segments (stats).
    retransmit_count: u64,
    /// Cumulative RTO events (stats).
    timeout_count: u64,
}

impl TcpSender {
    /// Creates a greedy (unlimited-data) sender.
    pub fn new(cfg: TcpConfig) -> Self {
        let cwnd = (cfg.init_cwnd_segs as usize * cfg.mss) as f64;
        TcpSender {
            cfg,
            sacked: std::collections::BTreeSet::new(),
            rtx_scan: 0,
            rtx_credit: 0,
            snd_una: 0,
            snd_nxt: 0,
            cwnd,
            ssthresh: cfg.max_window as f64,
            phase: CongPhase::SlowStart,
            recover: 0,
            dup_acks: 0,
            rtx_pending: false,
            srtt: None,
            rttvar: 0.0,
            rto: cfg.init_rto,
            rto_deadline: None,
            consecutive_rtos: 0,
            rtt_sample: None,
            high_water: 0,
            app_limit: None,
            retransmit_count: 0,
            timeout_count: 0,
        }
    }

    /// Creates a sender with a finite amount of application data (e.g. a
    /// 2.1 MB web page).
    pub fn with_limit(cfg: TcpConfig, total_bytes: u64) -> Self {
        let mut s = Self::new(cfg);
        s.app_limit = Some(total_bytes);
        s
    }

    /// Oldest unacknowledged byte.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Bytes currently in flight.
    pub fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window, bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current congestion phase.
    pub fn phase(&self) -> CongPhase {
        self.phase
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Total segments retransmitted.
    pub fn retransmit_count(&self) -> u64 {
        self.retransmit_count
    }

    /// Total RTO firings.
    pub fn timeout_count(&self) -> u64 {
        self.timeout_count
    }

    /// Consecutive RTO firings without an intervening new ACK — large
    /// values mean the connection is effectively dead (the Fig 14
    /// "connection breaks" condition).
    pub fn consecutive_timeouts(&self) -> u32 {
        self.consecutive_rtos
    }

    /// True when all application data has been acknowledged.
    pub fn is_complete(&self) -> bool {
        match self.app_limit {
            Some(limit) => self.snd_una >= limit,
            None => false,
        }
    }

    fn effective_window(&self) -> u64 {
        (self.cwnd as u64).min(self.cfg.max_window as u64)
    }

    fn app_has_data(&self) -> bool {
        match self.app_limit {
            Some(limit) => self.snd_nxt < limit,
            None => true,
        }
    }

    /// The next segment this sender wants to transmit, if the window and
    /// application data allow one. The caller must actually "send" it;
    /// calling again returns the following segment.
    pub fn next_segment(&mut self, now: SimTime) -> Option<TcpSegmentOut> {
        // Retransmission of the head takes priority.
        if self.rtx_pending {
            self.rtx_pending = false;
            self.retransmit_count += 1;
            let len = self.head_segment_len();
            self.arm_rto(now);
            return Some(TcpSegmentOut {
                seq: self.snd_una,
                len,
                is_retransmit: true,
            });
        }
        // SACK loss recovery: retransmit the un-SACKed holes below the
        // recovery point, one per acknowledgement credit (the pipe
        // approximation of RFC 6675) — this is what repairs a burst loss
        // in ~one RTT instead of NewReno's hole-per-RTT crawl.
        if self.phase == CongPhase::FastRecovery && self.rtx_credit > 0 {
            while self.rtx_scan < self.recover {
                let seq = self.rtx_scan.max(self.snd_una);
                if seq >= self.recover {
                    break;
                }
                self.rtx_scan = seq + self.cfg.mss as u64;
                if self.sacked.contains(&seq) {
                    continue;
                }
                self.rtx_credit -= 1;
                self.retransmit_count += 1;
                self.arm_rto(now);
                let len = (self.cfg.mss as u64).min(self.recover - seq) as usize;
                return Some(TcpSegmentOut {
                    seq,
                    len,
                    is_retransmit: true,
                });
            }
        }
        if !self.app_has_data() {
            return None;
        }
        if self.bytes_in_flight() >= self.effective_window() {
            return None;
        }
        // Skip over data the receiver already holds (post-RTO go-back-N
        // resend with SACK knowledge).
        while self.sacked.contains(&self.snd_nxt) {
            self.snd_nxt += self.cfg.mss as u64;
        }
        let remaining = self
            .app_limit
            .map(|l| l.saturating_sub(self.snd_nxt))
            .unwrap_or(u64::MAX);
        if remaining == 0 {
            return None;
        }
        let len = (self.cfg.mss as u64).min(remaining) as usize;
        let seq = self.snd_nxt;
        self.snd_nxt += len as u64;
        let is_retransmit = seq < self.high_water;
        self.high_water = self.high_water.max(self.snd_nxt);
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        if self.rtt_sample.is_none() && !is_retransmit {
            self.rtt_sample = Some((seq + len as u64, now));
        }
        Some(TcpSegmentOut {
            seq,
            len,
            is_retransmit,
        })
    }

    fn head_segment_len(&self) -> usize {
        let outstanding = self.high_water - self.snd_una;
        (self.cfg.mss as u64).min(outstanding.max(1)) as usize
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rto);
    }

    /// When the next RTO check should run, if a timer is armed.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Fires the retransmission timer if it is due. Returns `true` when a
    /// timeout actually occurred (the caller should then ask for segments —
    /// the head will be retransmitted).
    pub fn on_rto_check(&mut self, now: SimTime) -> bool {
        match self.rto_deadline {
            Some(deadline) if now >= deadline && self.bytes_in_flight() > 0 => {
                self.timeout_count += 1;
                self.consecutive_rtos += 1;
                // Classic Reno response.
                let flight = self.bytes_in_flight() as f64;
                self.ssthresh = (flight / 2.0).max(2.0 * self.cfg.mss as f64);
                self.cwnd = self.cfg.mss as f64;
                self.phase = CongPhase::SlowStart;
                self.dup_acks = 0;
                self.rto = (self.rto * 2).min(self.cfg.max_rto);
                // Go-back-N: everything past snd_una is presumed lost and
                // will be re-sent from the head (receiver discards
                // overlap). Without this reset, phantom in-flight bytes
                // would block the collapsed window forever.
                self.snd_nxt = self.snd_una;
                self.rtx_pending = false;
                self.rtt_sample = None; // Karn: no sampling of retransmits
                self.arm_rto(now);
                true
            }
            Some(deadline) if now >= deadline => {
                // Nothing in flight: disarm.
                self.rto_deadline = None;
                false
            }
            _ => false,
        }
    }

    /// Processes a cumulative acknowledgement (no SACK information).
    pub fn on_ack(&mut self, now: SimTime, ack: u64) {
        self.on_ack_sack(now, ack, &[]);
    }

    /// Processes an acknowledgement with SACK blocks.
    pub fn on_ack_sack(&mut self, now: SimTime, ack: u64, sack: &[(u64, u64)]) {
        // Register SACKed ranges at MSS granularity.
        for &(start, end) in sack {
            let mut seq = start - (start % self.cfg.mss as u64);
            if seq < start {
                seq += self.cfg.mss as u64; // partial leading segment: skip
            }
            while seq + (self.cfg.mss as u64) <= end {
                if seq >= self.snd_una {
                    self.sacked.insert(seq);
                }
                seq += self.cfg.mss as u64;
            }
        }
        if ack > self.high_water {
            // Ack for data never sent: ignore (corrupt/duplicated).
            return;
        }
        if ack > self.snd_una {
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            self.sacked = self.sacked.split_off(&ack);
            // After a go-back-N reset the ack may cover data sent before
            // the reset; transmission resumes past it.
            if ack > self.snd_nxt {
                self.snd_nxt = ack;
            }
            self.consecutive_rtos = 0;

            // RTT sample (Karn's rule handled by clearing on retransmit).
            if let Some((sample_seq, sent_at)) = self.rtt_sample {
                if ack >= sample_seq {
                    let rtt = now.saturating_since(sent_at).as_secs_f64();
                    self.update_rtt(rtt);
                    self.rtt_sample = None;
                }
            }

            match self.phase {
                CongPhase::FastRecovery => {
                    if ack >= self.recover {
                        // Full recovery.
                        self.cwnd = self.ssthresh;
                        self.phase = CongPhase::Avoidance;
                        self.dup_acks = 0;
                        self.rtx_credit = 0;
                    } else {
                        // Partial ACK: another hole may be repaired.
                        self.rtx_credit += 1;
                        self.rtx_scan = self.rtx_scan.max(ack);
                        self.cwnd = (self.cwnd - acked as f64 + self.cfg.mss as f64)
                            .max(self.cfg.mss as f64);
                    }
                }
                CongPhase::SlowStart => {
                    self.cwnd += acked as f64;
                    self.dup_acks = 0;
                    if self.cwnd >= self.ssthresh {
                        self.phase = CongPhase::Avoidance;
                    }
                }
                CongPhase::Avoidance => {
                    // cwnd += MSS²/cwnd per ACKed cwnd of data.
                    self.cwnd += (self.cfg.mss as f64 * self.cfg.mss as f64 / self.cwnd).max(1.0);
                    self.dup_acks = 0;
                }
            }
            self.cwnd = self.cwnd.min(self.cfg.max_window as f64);

            // Re-arm or disarm the timer.
            if self.bytes_in_flight() > 0 {
                self.arm_rto(now);
            } else {
                self.rto_deadline = None;
            }
        } else if ack == self.snd_una && self.bytes_in_flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            match self.phase {
                CongPhase::FastRecovery => {
                    // Window inflation + one more repair credit.
                    self.cwnd += self.cfg.mss as f64;
                    self.rtx_credit += 1;
                }
                _ => {
                    if self.dup_acks >= self.cfg.dupack_threshold {
                        // Fast retransmit; SACK scan starts at the head.
                        let flight = self.bytes_in_flight() as f64;
                        self.ssthresh = (flight / 2.0).max(2.0 * self.cfg.mss as f64);
                        self.cwnd =
                            self.ssthresh + self.cfg.dupack_threshold as f64 * self.cfg.mss as f64;
                        self.phase = CongPhase::FastRecovery;
                        self.recover = self.snd_nxt;
                        self.rtx_pending = true;
                        self.rtx_scan = self.snd_una + self.cfg.mss as u64;
                        self.rtx_credit = self.cfg.dupack_threshold;
                        self.rtt_sample = None;
                    }
                }
            }
        }
    }

    fn update_rtt(&mut self, rtt_s: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt_s);
                self.rttvar = rtt_s / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - rtt_s).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * rtt_s);
            }
        }
        let rto = self.srtt.unwrap() + (4.0 * self.rttvar).max(0.01);
        let rto = SimDuration::from_secs_f64(rto);
        self.rto = rto.max(self.cfg.min_rto).min(self.cfg.max_rto);
    }

    /// Smoothed RTT estimate, if any sample has completed.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }
}

/// The receiving half of a connection: cumulative ACK generation with
/// out-of-order segment buffering.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    rcv_nxt: u64,
    /// Out-of-order segments: start → end (exclusive), non-overlapping.
    ooo: std::collections::BTreeMap<u64, u64>,
    /// Segments received in total (stats).
    segments_received: u64,
}

impl TcpReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next byte expected (also the cumulative ACK value).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Total segments processed.
    pub fn segments_received(&self) -> u64 {
        self.segments_received
    }

    /// Number of buffered out-of-order segments.
    pub fn ooo_segments(&self) -> usize {
        self.ooo.len()
    }

    /// Up to `max` SACK blocks `[start, end)` describing buffered
    /// out-of-order data, lowest first.
    pub fn sack_blocks(&self, max: usize) -> Vec<(u64, u64)> {
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        for (&s, &e) in &self.ooo {
            match blocks.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => {
                    if blocks.len() == max {
                        break;
                    }
                    blocks.push((s, e));
                }
            }
        }
        blocks
    }

    /// Ingests a data segment and returns the cumulative ACK to send back.
    pub fn on_data(&mut self, seq: u64, len: usize) -> u64 {
        self.segments_received += 1;
        let end = seq + len as u64;
        if end <= self.rcv_nxt {
            // Entirely old: pure duplicate.
            return self.rcv_nxt;
        }
        if seq <= self.rcv_nxt {
            // Extends the in-order prefix.
            self.rcv_nxt = end;
            // Drain any now-contiguous out-of-order data.
            loop {
                let mut advanced = false;
                let keys: Vec<u64> = self.ooo.range(..=self.rcv_nxt).map(|(&s, _)| s).collect();
                for s in keys {
                    let e = self.ooo.remove(&s).expect("key just seen");
                    if e > self.rcv_nxt {
                        self.rcv_nxt = e;
                        advanced = true;
                    }
                }
                if !advanced {
                    break;
                }
            }
        } else {
            // Out of order: buffer (merge overlaps conservatively).
            let entry = self.ooo.entry(seq).or_insert(end);
            if *entry < end {
                *entry = end;
            }
        }
        self.rcv_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let mut s = TcpSender::new(TcpConfig::default());
        let mut count = 0;
        while s.next_segment(t(0)).is_some() {
            count += 1;
        }
        assert_eq!(count, 10);
        assert_eq!(s.bytes_in_flight(), 10 * 1448);
        assert_eq!(s.phase(), CongPhase::SlowStart);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(TcpConfig::default());
        let mut segs = Vec::new();
        while let Some(seg) = s.next_segment(t(0)) {
            segs.push(seg);
        }
        // Ack everything: cwnd should grow by the acked amount.
        let acked = s.bytes_in_flight();
        s.on_ack(
            t(50),
            segs.last().unwrap().seq + segs.last().unwrap().len as u64,
        );
        assert_eq!(s.bytes_in_flight(), 0);
        assert!(s.cwnd_bytes() >= 10 * 1448 + acked - 1448);
        // Now roughly twice as many segments fit.
        let mut count = 0;
        while s.next_segment(t(51)).is_some() {
            count += 1;
        }
        assert!(count >= 19, "count {count}");
    }

    #[test]
    fn dup_acks_trigger_fast_retransmit() {
        let mut s = TcpSender::new(TcpConfig::default());
        let first = s.next_segment(t(0)).unwrap();
        while s.next_segment(t(0)).is_some() {}
        // Three duplicate ACKs for the head.
        s.on_ack(t(10), first.seq);
        s.on_ack(t(11), first.seq);
        assert_eq!(s.phase(), CongPhase::SlowStart);
        s.on_ack(t(12), first.seq);
        assert_eq!(s.phase(), CongPhase::FastRecovery);
        let rtx = s.next_segment(t(13)).unwrap();
        assert!(rtx.is_retransmit);
        assert_eq!(rtx.seq, first.seq);
        assert_eq!(s.retransmit_count(), 1);
    }

    #[test]
    fn full_ack_exits_fast_recovery() {
        let mut s = TcpSender::new(TcpConfig::default());
        while s.next_segment(t(0)).is_some() {}
        let high = s.snd_una() + s.bytes_in_flight();
        for i in 0..3 {
            s.on_ack(t(10 + i), 0);
        }
        assert_eq!(s.phase(), CongPhase::FastRecovery);
        let _ = s.next_segment(t(14));
        s.on_ack(t(20), high);
        assert_eq!(s.phase(), CongPhase::Avoidance);
        assert_eq!(s.bytes_in_flight(), 0);
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut s = TcpSender::new(TcpConfig::default());
        while s.next_segment(t(0)).is_some() {}
        for i in 0..3 {
            s.on_ack(t(10 + i), 0);
        }
        let _ = s.next_segment(t(13)); // head retransmit
                                       // Partial ack: first segment arrives but hole remains.
        s.on_ack(t(30), 1448);
        assert_eq!(s.phase(), CongPhase::FastRecovery);
        let rtx = s.next_segment(t(31)).unwrap();
        assert!(rtx.is_retransmit);
        assert_eq!(rtx.seq, 1448);
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut s = TcpSender::new(TcpConfig::default());
        let _ = s.next_segment(t(0)).unwrap();
        let d1 = s.rto_deadline().unwrap();
        assert_eq!(d1, t(1000)); // initial RTO 1 s
        assert!(!s.on_rto_check(t(999)));
        assert!(s.on_rto_check(t(1000)));
        assert_eq!(s.timeout_count(), 1);
        assert_eq!(s.cwnd_bytes(), 1448);
        assert_eq!(s.phase(), CongPhase::SlowStart);
        // Go-back-N: transmission resumes from snd_una.
        assert_eq!(s.bytes_in_flight(), 0);
        let rtx = s.next_segment(t(1001)).unwrap();
        assert!(rtx.is_retransmit);
        assert_eq!(rtx.seq, 0);
        // Next timeout after ~2 s (doubled).
        assert!(s.rto() >= SimDuration::from_secs(2));
        assert!(s.on_rto_check(t(3200)));
        assert_eq!(s.consecutive_timeouts(), 2);
        assert!(s.rto() >= SimDuration::from_secs(4));
    }

    #[test]
    fn ack_resets_consecutive_timeouts() {
        let mut s = TcpSender::new(TcpConfig::default());
        let seg = s.next_segment(t(0)).unwrap();
        assert!(s.on_rto_check(t(1000)));
        let _ = s.next_segment(t(1001));
        s.on_ack(t(1100), seg.seq + seg.len as u64);
        assert_eq!(s.consecutive_timeouts(), 0);
    }

    #[test]
    fn rtt_estimation_sets_rto() {
        let mut s = TcpSender::new(TcpConfig::default());
        let seg = s.next_segment(t(0)).unwrap();
        s.on_ack(t(40), seg.seq + seg.len as u64);
        let srtt = s.srtt().unwrap();
        assert!((srtt.as_millis() as i64 - 40).abs() <= 1);
        // RTO clamped at min_rto (200 ms) since 40 + 4·20 = 120 < 200.
        assert_eq!(s.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn limited_sender_completes() {
        let mut s = TcpSender::with_limit(TcpConfig::default(), 3000);
        let a = s.next_segment(t(0)).unwrap();
        let b = s.next_segment(t(0)).unwrap();
        let c = s.next_segment(t(0)).unwrap();
        assert_eq!(a.len, 1448);
        assert_eq!(b.len, 1448);
        assert_eq!(c.len, 104); // 3000 − 2·1448
        assert!(s.next_segment(t(0)).is_none());
        assert!(!s.is_complete());
        s.on_ack(t(10), 3000);
        assert!(s.is_complete());
    }

    #[test]
    fn receiver_in_order_acks() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(0, 1448), 1448);
        assert_eq!(r.on_data(1448, 1448), 2896);
        assert_eq!(r.rcv_nxt(), 2896);
        assert_eq!(r.segments_received(), 2);
    }

    #[test]
    fn receiver_buffers_out_of_order() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(1448, 1448), 0); // hole at 0
        assert_eq!(r.ooo_segments(), 1);
        assert_eq!(r.on_data(2896, 1448), 0);
        // Filling the hole releases everything.
        assert_eq!(r.on_data(0, 1448), 4344);
        assert_eq!(r.ooo_segments(), 0);
    }

    #[test]
    fn receiver_ignores_duplicates() {
        let mut r = TcpReceiver::new();
        r.on_data(0, 1448);
        assert_eq!(r.on_data(0, 1448), 1448); // duplicate: same ack
        assert_eq!(r.rcv_nxt(), 1448);
        // Partial overlap extends.
        assert_eq!(r.on_data(1000, 1448), 2448);
    }

    #[test]
    fn sender_ignores_future_acks() {
        let mut s = TcpSender::new(TcpConfig::default());
        let _ = s.next_segment(t(0));
        s.on_ack(t(5), 1_000_000);
        assert_eq!(s.snd_una(), 0);
    }

    #[test]
    fn window_caps_outstanding_data() {
        let cfg = TcpConfig {
            max_window: 5 * 1448,
            ..TcpConfig::default()
        };
        let mut s = TcpSender::new(cfg);
        let mut n = 0;
        while s.next_segment(t(0)).is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn greedy_transfer_end_to_end() {
        // Simulate a perfect 20 ms RTT link and verify steady progress.
        let mut s = TcpSender::new(TcpConfig::default());
        let mut r = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        for _round in 0..50 {
            let mut segs = Vec::new();
            while let Some(seg) = s.next_segment(now) {
                segs.push(seg);
            }
            now += SimDuration::from_millis(10);
            let mut last_ack = 0;
            for seg in segs {
                last_ack = r.on_data(seg.seq, seg.len);
            }
            now += SimDuration::from_millis(10);
            s.on_ack(now, last_ack);
        }
        // After 50 RTTs with no loss, megabytes should be through.
        assert!(r.rcv_nxt() > 2_000_000, "delivered {}", r.rcv_nxt());
        assert_eq!(s.timeout_count(), 0);
        assert_eq!(s.snd_una(), r.rcv_nxt());
    }
}
