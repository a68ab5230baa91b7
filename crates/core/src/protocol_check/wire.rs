//! The checker's wire: the frames in flight, and each AP's soft state they
//! land on.

use super::{CheckReport, Checked, CheckerConfig, State};
use crate::switching::{ApSwitchGuard, TermGuard};
use std::collections::BTreeSet;

/// An in-flight control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetMsg {
    /// Controller → old AP.
    Stop {
        ap: usize,
        to_ap: usize,
        epoch: u32,
        term: u32,
    },
    /// Old AP → new AP.
    Start {
        ap: usize,
        k: u16,
        epoch: u32,
        term: u32,
    },
    /// New AP → controller. Deliberately un-termed: the controller is the
    /// term authority and the epoch already pins the generation.
    Ack { from_ap: usize, epoch: u32 },
    /// Client → destination controller: a post-seam uplink retransmission
    /// (the dup window straddling the migration barrier).
    UplinkAtDest { ident: u16 },
    /// Destination controller → client: a transferred residue datagram
    /// being re-delivered. Rides the barrier-serialized transfer, not the
    /// lossy wire, so it is never a drop choice — dropping it would model
    /// a loss the protocol cannot see and forge `LostResidue`.
    DownAtDest { ident: u16 },
    /// Source controller → destination controller: the two-phase export,
    /// carrying the record the [`SeamEngine`](crate::seam::SeamEngine)
    /// retains (the epoch high-water; the keys and residue it stands for
    /// are the `MIG_*` constants), the engine's `seq` and the source's
    /// current `term`.
    MigPrepare { seq: u64, epoch_max: u32, term: u32 },
    /// Destination controller → source controller: the prepare with this
    /// `seq` was applied (or absorbed); the source may release its
    /// retained record.
    MigCommit { seq: u64 },
}

/// Model of one AP's per-client soft state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ModelAp {
    pub serving: bool,
    pub head: Option<u16>,
    pub guard: ApSwitchGuard,
    /// The production term fence.
    pub fence: TermGuard,
    /// Epochs whose `start` this AP actually applied — the ground truth
    /// completions are checked against.
    pub applied: BTreeSet<u32>,
}

impl State {
    /// Puts a frame on the wire, in order. A frame addressed to a dead AP
    /// is eaten silently (the simulator's `ap_reachable` check) — it never
    /// becomes a choice, which keeps the abandon scenarios small.
    pub fn send(&mut self, cfg: &CheckerConfig, m: NetMsg) {
        // Acks go to the controller, seam legs to a controller or the
        // migrated client: only `stop` and `start` can meet a dead AP.
        if let NetMsg::Stop { ap, .. } | NetMsg::Start { ap, .. } = m {
            if cfg.dead_aps.contains(&ap) {
                return;
            }
        }
        let at = self.net.partition_point(|x| *x < m);
        self.net.insert(at, m);
    }

    /// Processes a delivered frame through the production state machines.
    pub fn process(&mut self, cfg: &CheckerConfig, m: NetMsg, tally: &mut CheckReport) -> Checked {
        match m {
            NetMsg::Stop { .. } | NetMsg::Start { .. } | NetMsg::Ack { .. } => {
                self.switch_frame(cfg, m, tally)
            }
            _ => self.seam_frame(cfg, m, tally),
        }
    }
}
