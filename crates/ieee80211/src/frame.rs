//! Owned, decoded representations of 802.11 frames.
//!
//! [`Frame`] is the type that flows through the whole Jigsaw pipeline: the
//! simulator produces them, monitors capture (possibly corrupted) serialized
//! copies, and the merge/reconstruction stages parse them back.

use crate::addr::MacAddr;
use crate::fc::{FcFlags, FrameControl, Subtype};
use crate::ie::Ie;
use crate::seq::SeqNum;

/// Header shared by every management frame (24 bytes on the air).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MgmtHeader {
    /// Duration/ID field in µs.
    pub duration: u16,
    /// Destination address (addr1).
    pub da: MacAddr,
    /// Source address (addr2).
    pub sa: MacAddr,
    /// BSSID (addr3).
    pub bssid: MacAddr,
    /// 12-bit sequence number.
    pub seq: SeqNum,
    /// 4-bit fragment number.
    pub frag: u8,
    /// Retry flag from frame control.
    pub retry: bool,
}

impl MgmtHeader {
    /// A fresh header with zero duration and fragment, no retry.
    pub fn new(da: MacAddr, sa: MacAddr, bssid: MacAddr, seq: SeqNum) -> Self {
        MgmtHeader {
            duration: 0,
            da,
            sa,
            bssid,
            seq,
            frag: 0,
            retry: false,
        }
    }
}

/// Body of each management subtype the pipeline decodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MgmtBody {
    /// AP beacon: TSF timestamp (µs), beacon interval (TU), capabilities, IEs.
    Beacon {
        /// 64-bit TSF timer value — makes every beacon content-unique.
        timestamp: u64,
        /// Beacon interval in time units (1 TU = 1024 µs).
        interval_tu: u16,
        /// Capability information field.
        cap: u16,
        /// Tagged parameters.
        ies: Vec<Ie>,
    },
    /// Client probe request (broadcast SSID scan or directed).
    ProbeReq {
        /// Tagged parameters (SSID, supported rates).
        ies: Vec<Ie>,
    },
    /// AP probe response (beacon-like, unicast).
    ProbeResp {
        /// TSF timestamp (µs).
        timestamp: u64,
        /// Beacon interval in TU.
        interval_tu: u16,
        /// Capability information field.
        cap: u16,
        /// Tagged parameters.
        ies: Vec<Ie>,
    },
    /// Association request.
    AssocReq {
        /// Capability information field.
        cap: u16,
        /// Listen interval in beacon intervals.
        listen_interval: u16,
        /// Tagged parameters.
        ies: Vec<Ie>,
    },
    /// Association response.
    AssocResp {
        /// Capability information field.
        cap: u16,
        /// Status code (0 = success).
        status: u16,
        /// Association ID.
        aid: u16,
        /// Tagged parameters.
        ies: Vec<Ie>,
    },
    /// Reassociation request (adds the current-AP address).
    ReassocReq {
        /// Capability information field.
        cap: u16,
        /// Listen interval.
        listen_interval: u16,
        /// Address of the AP the client is moving from.
        current_ap: MacAddr,
        /// Tagged parameters.
        ies: Vec<Ie>,
    },
    /// Reassociation response.
    ReassocResp {
        /// Capability information field.
        cap: u16,
        /// Status code.
        status: u16,
        /// Association ID.
        aid: u16,
        /// Tagged parameters.
        ies: Vec<Ie>,
    },
    /// Authentication handshake step.
    Auth {
        /// Algorithm number (0 = open system).
        algorithm: u16,
        /// Transaction sequence (1, 2, ...).
        auth_seq: u16,
        /// Status code.
        status: u16,
    },
    /// Deauthentication notification.
    Deauth {
        /// Reason code.
        reason: u16,
    },
    /// Disassociation notification.
    Disassoc {
        /// Reason code.
        reason: u16,
    },
}

impl MgmtBody {
    /// The frame subtype this body corresponds to.
    pub fn subtype(&self) -> Subtype {
        match self {
            MgmtBody::Beacon { .. } => Subtype::Beacon,
            MgmtBody::ProbeReq { .. } => Subtype::ProbeReq,
            MgmtBody::ProbeResp { .. } => Subtype::ProbeResp,
            MgmtBody::AssocReq { .. } => Subtype::AssocReq,
            MgmtBody::AssocResp { .. } => Subtype::AssocResp,
            MgmtBody::ReassocReq { .. } => Subtype::ReassocReq,
            MgmtBody::ReassocResp { .. } => Subtype::ReassocResp,
            MgmtBody::Auth { .. } => Subtype::Auth,
            MgmtBody::Deauth { .. } => Subtype::Deauth,
            MgmtBody::Disassoc { .. } => Subtype::Disassoc,
        }
    }
}

/// A data frame (including NULL-data used for power-save signalling).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataFrame {
    /// Duration/ID field in µs (covers SIFS + ACK for unicast).
    pub duration: u16,
    /// addr1 — receiver address (AP for ToDS, client for FromDS).
    pub addr1: MacAddr,
    /// addr2 — transmitter address.
    pub addr2: MacAddr,
    /// addr3 — DA for ToDS, SA for FromDS.
    pub addr3: MacAddr,
    /// 12-bit sequence number.
    pub seq: SeqNum,
    /// 4-bit fragment number.
    pub frag: u8,
    /// Header flag bits (ToDS/FromDS/retry/protected/...).
    pub flags: FcFlags,
    /// True for NULL-data (empty body, power management signalling).
    pub null: bool,
    /// MSDU payload: LLC/SNAP header plus network-layer packet.
    pub body: Vec<u8>,
}

impl DataFrame {
    /// The on-air destination (who should consume the MSDU).
    pub fn destination(&self) -> MacAddr {
        if self.flags.to_ds {
            self.addr3
        } else {
            self.addr1
        }
    }

    /// The original source of the MSDU.
    pub fn source(&self) -> MacAddr {
        if self.flags.from_ds {
            self.addr3
        } else {
            self.addr2
        }
    }

    /// The BSSID of the infrastructure exchange.
    pub fn bssid(&self) -> MacAddr {
        match (self.flags.to_ds, self.flags.from_ds) {
            (true, false) => self.addr1,
            (false, true) => self.addr2,
            _ => self.addr3,
        }
    }
}

/// Any 802.11 frame the pipeline understands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// DATA / NULL-data.
    Data(DataFrame),
    /// Link-layer acknowledgment. Carries only the receiver address.
    Ack {
        /// Duration (0 except within fragment bursts).
        duration: u16,
        /// Receiver address — the station being acknowledged.
        ra: MacAddr,
    },
    /// Request-to-send.
    Rts {
        /// Reservation length in µs.
        duration: u16,
        /// Receiver address.
        ra: MacAddr,
        /// Transmitter address.
        ta: MacAddr,
    },
    /// Clear-to-send; `ra == transmitter` for CTS-to-self protection.
    Cts {
        /// Reservation length in µs.
        duration: u16,
        /// Receiver address (the station granted the medium).
        ra: MacAddr,
    },
    /// Any management frame.
    Mgmt {
        /// The common 24-byte header.
        header: MgmtHeader,
        /// The decoded subtype-specific body.
        body: MgmtBody,
    },
}

impl Frame {
    /// The frame-control word this frame serializes with.
    pub fn frame_control(&self) -> FrameControl {
        match self {
            Frame::Data(d) => {
                let mut fc = FrameControl::new(if d.null {
                    Subtype::NullData
                } else {
                    Subtype::Data
                });
                fc.flags = d.flags;
                fc
            }
            Frame::Ack { .. } => FrameControl::new(Subtype::Ack),
            Frame::Rts { .. } => FrameControl::new(Subtype::Rts),
            Frame::Cts { .. } => FrameControl::new(Subtype::Cts),
            Frame::Mgmt { header, body } => {
                FrameControl::new(body.subtype()).with_retry(header.retry)
            }
        }
    }

    /// Frame subtype.
    pub fn subtype(&self) -> Subtype {
        self.frame_control().subtype
    }

    /// The transmitting station, when the frame carries it. ACK and CTS
    /// frames only name the receiver — exactly the ambiguity Jigsaw's
    /// link-layer reconstruction has to work around.
    pub fn transmitter(&self) -> Option<MacAddr> {
        match self {
            Frame::Data(d) => Some(d.addr2),
            Frame::Rts { ta, .. } => Some(*ta),
            Frame::Mgmt { header, .. } => Some(header.sa),
            Frame::Ack { .. } | Frame::Cts { .. } => None,
        }
    }

    /// The addressed receiver of this frame.
    pub fn receiver(&self) -> MacAddr {
        match self {
            Frame::Data(d) => d.addr1,
            Frame::Ack { ra, .. } | Frame::Cts { ra, .. } | Frame::Rts { ra, .. } => *ra,
            Frame::Mgmt { header, .. } => header.da,
        }
    }

    /// The sequence number, for frame types that carry one.
    pub fn seq(&self) -> Option<SeqNum> {
        match self {
            Frame::Data(d) => Some(d.seq),
            Frame::Mgmt { header, .. } => Some(header.seq),
            _ => None,
        }
    }

    /// The retry bit.
    pub fn retry(&self) -> bool {
        match self {
            Frame::Data(d) => d.flags.retry,
            Frame::Mgmt { header, .. } => header.retry,
            _ => false,
        }
    }

    /// The Duration/ID field value.
    pub fn duration(&self) -> u16 {
        match self {
            Frame::Data(d) => d.duration,
            Frame::Ack { duration, .. }
            | Frame::Rts { duration, .. }
            | Frame::Cts { duration, .. } => *duration,
            Frame::Mgmt { header, .. } => header.duration,
        }
    }

    /// True if the frame is group-addressed (never acknowledged/retried).
    pub fn is_group_addressed(&self) -> bool {
        self.receiver().is_multicast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_frame(to_ds: bool, from_ds: bool) -> DataFrame {
        DataFrame {
            duration: 44,
            addr1: MacAddr::local(1, 1),
            addr2: MacAddr::local(2, 2),
            addr3: MacAddr::local(3, 3),
            seq: SeqNum::new(9),
            frag: 0,
            flags: FcFlags {
                to_ds,
                from_ds,
                ..Default::default()
            },
            null: false,
            body: vec![1, 2, 3],
        }
    }

    #[test]
    fn ds_address_semantics() {
        let up = data_frame(true, false); // client → AP
        assert_eq!(up.destination(), up.addr3);
        assert_eq!(up.source(), up.addr2);
        assert_eq!(up.bssid(), up.addr1);

        let down = data_frame(false, true); // AP → client
        assert_eq!(down.destination(), down.addr1);
        assert_eq!(down.source(), down.addr3);
        assert_eq!(down.bssid(), down.addr2);
    }

    #[test]
    fn transmitter_known_only_for_addressed_frames() {
        let ack = Frame::Ack {
            duration: 0,
            ra: MacAddr::local(1, 1),
        };
        assert_eq!(ack.transmitter(), None);
        let cts = Frame::Cts {
            duration: 100,
            ra: MacAddr::local(1, 1),
        };
        assert_eq!(cts.transmitter(), None);
        let data = Frame::Data(data_frame(true, false));
        assert_eq!(data.transmitter(), Some(MacAddr::local(2, 2)));
    }

    #[test]
    fn sync_reference_classification() {
        let is_ref = |f: &Frame| {
            let bytes = crate::wire::serialize_frame(f);
            crate::wire::FrameHeader::decode(&bytes)
                .unwrap()
                .is_sync_reference(bytes.len())
        };
        let mut d = data_frame(true, false);
        assert!(is_ref(&Frame::Data(d.clone())));
        d.flags.retry = true;
        assert!(!is_ref(&Frame::Data(d.clone())));
        d.flags.retry = false;
        d.body.clear();
        assert!(!is_ref(&Frame::Data(d)));

        let beacon = Frame::Mgmt {
            header: MgmtHeader::new(
                MacAddr::BROADCAST,
                MacAddr::local(0, 1),
                MacAddr::local(0, 1),
                SeqNum::new(1),
            ),
            body: MgmtBody::Beacon {
                timestamp: 12345,
                interval_tu: 100,
                cap: 0x401,
                ies: vec![],
            },
        };
        assert!(is_ref(&beacon));

        let ack = Frame::Ack {
            duration: 0,
            ra: MacAddr::local(1, 1),
        };
        assert!(!is_ref(&ack));
    }

    #[test]
    fn group_addressing() {
        let mut d = data_frame(false, true);
        d.addr1 = MacAddr::BROADCAST;
        assert!(Frame::Data(d).is_group_addressed());
    }

    #[test]
    fn subtype_mapping() {
        let auth = Frame::Mgmt {
            header: MgmtHeader::new(
                MacAddr::local(0, 1),
                MacAddr::local(1, 2),
                MacAddr::local(0, 1),
                SeqNum::new(0),
            ),
            body: MgmtBody::Auth {
                algorithm: 0,
                auth_seq: 1,
                status: 0,
            },
        };
        assert_eq!(auth.subtype(), Subtype::Auth);
        assert_eq!(
            Frame::Cts {
                duration: 0,
                ra: MacAddr::ZERO
            }
            .subtype(),
            Subtype::Cts
        );
    }
}
