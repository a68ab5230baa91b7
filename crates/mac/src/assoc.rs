//! 802.11 authentication/association state machine.
//!
//! Used in two places:
//!
//! * the **Enhanced 802.11r baseline** walks a client through
//!   authentication and (re)association with each AP it roams to, paying
//!   the over-the-air exchange each time (§5.1 of the paper, steps 1–3);
//! * **WGTT** performs the exchange once, with the first AP, then shares
//!   the resulting station state to every other AP over the backhaul
//!   (§4.3, Fig 12), which is why its switches need no over-the-air
//!   handshake at all.
//!
//! The machine is poll-style: feed frames in, get the required response
//! frames and state transitions out.

use wgtt_sim::SimTime;

/// Association status of a client at one AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocState {
    /// No relationship.
    Unauthenticated,
    /// Open-system authentication completed (or inherited via 802.11r fast
    /// transition / WGTT state sharing).
    Authenticated,
    /// Fully associated; data frames may flow.
    Associated,
}

/// Management frames involved in the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgmtFrame {
    /// Authentication request (client → AP).
    AuthReq,
    /// Authentication response (AP → client).
    AuthResp,
    /// Association request (client → AP).
    AssocReq,
    /// Association response (AP → client).
    AssocResp,
    /// Reassociation request — used by 802.11r fast transition; the target
    /// AP already holds the key material, so a single exchange suffices.
    ReassocReq,
    /// Reassociation response.
    ReassocResp,
}

/// Typical management frame length, bytes.
pub fn mgmt_frame_bytes(f: MgmtFrame) -> usize {
    match f {
        MgmtFrame::AuthReq | MgmtFrame::AuthResp => 30,
        MgmtFrame::AssocReq | MgmtFrame::ReassocReq => 90,
        MgmtFrame::AssocResp | MgmtFrame::ReassocResp => 80,
    }
}

/// AP-side association bookkeeping for one client.
#[derive(Debug, Clone)]
pub struct ApAssoc {
    state: AssocState,
    /// Time the client reached [`AssocState::Associated`].
    associated_at: Option<SimTime>,
}

impl Default for ApAssoc {
    fn default() -> Self {
        Self::new()
    }
}

impl ApAssoc {
    /// Creates an unauthenticated entry.
    pub fn new() -> Self {
        ApAssoc {
            state: AssocState::Unauthenticated,
            associated_at: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> AssocState {
        self.state
    }

    /// When association completed, if it has.
    pub fn associated_at(&self) -> Option<SimTime> {
        self.associated_at
    }

    /// Handles a client management frame, returning the response the AP
    /// sends, or `None` if the frame is invalid in this state (real APs
    /// answer with a status code; for the simulation a silent drop and
    /// client retry models the same outcome).
    pub fn on_frame(&mut self, now: SimTime, frame: MgmtFrame) -> Option<MgmtFrame> {
        match (self.state, frame) {
            (AssocState::Unauthenticated, MgmtFrame::AuthReq) => {
                self.state = AssocState::Authenticated;
                Some(MgmtFrame::AuthResp)
            }
            (AssocState::Authenticated, MgmtFrame::AssocReq) => {
                self.state = AssocState::Associated;
                self.associated_at = Some(now);
                Some(MgmtFrame::AssocResp)
            }
            // Fast transition: a reassociation request against inherited
            // authentication completes in one exchange.
            (AssocState::Authenticated, MgmtFrame::ReassocReq) => {
                self.state = AssocState::Associated;
                self.associated_at = Some(now);
                Some(MgmtFrame::ReassocResp)
            }
            // Duplicate requests are answered idempotently.
            (AssocState::Associated, MgmtFrame::AssocReq)
            | (AssocState::Associated, MgmtFrame::ReassocReq) => Some(MgmtFrame::AssocResp),
            (AssocState::Authenticated, MgmtFrame::AuthReq)
            | (AssocState::Associated, MgmtFrame::AuthReq) => Some(MgmtFrame::AuthResp),
            _ => None,
        }
    }

    /// Installs state received over the backhaul (WGTT's `sta_info`
    /// sharing, or a controller-based 802.11r deployment's key
    /// distribution): the AP now treats the client as authenticated without
    /// any over-the-air exchange.
    pub fn install_shared_auth(&mut self) {
        if self.state == AssocState::Unauthenticated {
            self.state = AssocState::Authenticated;
        }
    }

    /// Installs *full* association state (WGTT: all APs appear as one BSSID
    /// and the client is usable at every AP immediately).
    pub fn install_shared_association(&mut self, now: SimTime) {
        self.state = AssocState::Associated;
        if self.associated_at.is_none() {
            self.associated_at = Some(now);
        }
    }

    /// Tears down the association (client roamed away under 802.11r).
    pub fn disassociate(&mut self) {
        if self.state == AssocState::Associated {
            self.state = AssocState::Authenticated;
            self.associated_at = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn full_handshake() {
        let mut ap = ApAssoc::new();
        assert_eq!(ap.state(), AssocState::Unauthenticated);
        assert_eq!(
            ap.on_frame(t(0), MgmtFrame::AuthReq),
            Some(MgmtFrame::AuthResp)
        );
        assert_eq!(ap.state(), AssocState::Authenticated);
        assert_eq!(
            ap.on_frame(t(1), MgmtFrame::AssocReq),
            Some(MgmtFrame::AssocResp)
        );
        assert_eq!(ap.state(), AssocState::Associated);
        assert_eq!(ap.associated_at(), Some(t(1)));
    }

    #[test]
    fn assoc_without_auth_rejected() {
        let mut ap = ApAssoc::new();
        assert_eq!(ap.on_frame(t(0), MgmtFrame::AssocReq), None);
        assert_eq!(ap.on_frame(t(0), MgmtFrame::ReassocReq), None);
        assert_eq!(ap.state(), AssocState::Unauthenticated);
    }

    #[test]
    fn fast_transition_single_exchange() {
        let mut ap = ApAssoc::new();
        ap.install_shared_auth();
        assert_eq!(ap.state(), AssocState::Authenticated);
        assert_eq!(
            ap.on_frame(t(5), MgmtFrame::ReassocReq),
            Some(MgmtFrame::ReassocResp)
        );
        assert_eq!(ap.state(), AssocState::Associated);
    }

    #[test]
    fn shared_association_is_immediate() {
        let mut ap = ApAssoc::new();
        ap.install_shared_association(t(9));
        assert_eq!(ap.state(), AssocState::Associated);
        assert_eq!(ap.associated_at(), Some(t(9)));
    }

    #[test]
    fn duplicate_requests_idempotent() {
        let mut ap = ApAssoc::new();
        ap.on_frame(t(0), MgmtFrame::AuthReq);
        ap.on_frame(t(1), MgmtFrame::AssocReq);
        let at = ap.associated_at();
        assert_eq!(
            ap.on_frame(t(2), MgmtFrame::AssocReq),
            Some(MgmtFrame::AssocResp)
        );
        assert_eq!(ap.associated_at(), at);
    }

    #[test]
    fn disassociate_reverts_to_authenticated() {
        let mut ap = ApAssoc::new();
        ap.on_frame(t(0), MgmtFrame::AuthReq);
        ap.on_frame(t(1), MgmtFrame::AssocReq);
        ap.disassociate();
        assert_eq!(ap.state(), AssocState::Authenticated);
        assert_eq!(ap.associated_at(), None);
        // Can reassociate quickly.
        assert_eq!(
            ap.on_frame(t(3), MgmtFrame::ReassocReq),
            Some(MgmtFrame::ReassocResp)
        );
    }

    #[test]
    fn shared_auth_does_not_downgrade() {
        let mut ap = ApAssoc::new();
        ap.install_shared_association(t(0));
        ap.install_shared_auth();
        assert_eq!(ap.state(), AssocState::Associated);
    }

    #[test]
    fn frame_sizes_plausible() {
        assert!(mgmt_frame_bytes(MgmtFrame::AuthReq) < mgmt_frame_bytes(MgmtFrame::AssocReq));
        for f in [
            MgmtFrame::AuthReq,
            MgmtFrame::AuthResp,
            MgmtFrame::AssocReq,
            MgmtFrame::AssocResp,
            MgmtFrame::ReassocReq,
            MgmtFrame::ReassocResp,
        ] {
            let b = mgmt_frame_bytes(f);
            assert!((20..200).contains(&b));
        }
    }
}
