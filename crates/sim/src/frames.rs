//! Frame construction helpers: building the exact on-air frames stations
//! emit (beacons with ERP protection signalling, probes, association
//! handshakes, data frames with correct DS bits and Duration fields).

use jigsaw_ieee80211::fc::FcFlags;
use jigsaw_ieee80211::frame::{DataFrame, Frame, MgmtBody, MgmtHeader};
use jigsaw_ieee80211::ie::{erp, Ie};
use jigsaw_ieee80211::timing::{duration_data_ack, Preamble};
use jigsaw_ieee80211::{MacAddr, PhyRate, SeqNum};

/// The supported-rates IEs for a station: 802.11b-only or full b/g.
pub fn rate_ies(b_only: bool) -> Vec<Ie> {
    if b_only {
        // 1, 2, 5.5, 11 Mbps — basic-rate bits set on 1 and 2.
        vec![Ie::SupportedRates(vec![0x82, 0x84, 0x0b, 0x16])]
    } else {
        vec![
            Ie::SupportedRates(vec![0x82, 0x84, 0x0b, 0x16, 0x0c, 0x12, 0x18, 0x24]),
            Ie::ExtSupportedRates(vec![0x30, 0x48, 0x60, 0x6c]),
        ]
    }
}

/// Builds a beacon frame body for an AP.
pub fn beacon(
    ap: MacAddr,
    ssid: &[u8],
    channel: u8,
    protection_on: bool,
    tsf: u64,
    seq: SeqNum,
) -> Frame {
    let mut ies = vec![Ie::Ssid(ssid.to_vec())];
    ies.extend(rate_ies(false));
    ies.push(Ie::DsParam(channel));
    let mut erp_flags = 0u8;
    if protection_on {
        erp_flags |= erp::USE_PROTECTION | erp::NON_ERP_PRESENT;
    }
    ies.push(Ie::ErpInfo(erp_flags));
    Frame::Mgmt {
        header: MgmtHeader::new(MacAddr::BROADCAST, ap, ap, seq),
        body: MgmtBody::Beacon {
            timestamp: tsf,
            interval_tu: 100,
            cap: 0x0401,
            ies,
        },
    }
}

/// Builds a broadcast probe request from a client.
pub fn probe_req(client: MacAddr, b_only: bool, seq: SeqNum) -> Frame {
    let mut ies = vec![Ie::Ssid(Vec::new())]; // wildcard SSID
    ies.extend(rate_ies(b_only));
    Frame::Mgmt {
        header: MgmtHeader::new(MacAddr::BROADCAST, client, MacAddr::BROADCAST, seq),
        body: MgmtBody::ProbeReq { ies },
    }
}

/// Builds a probe response from an AP to a scanning client.
pub fn probe_resp(
    ap: MacAddr,
    client: MacAddr,
    ssid: &[u8],
    channel: u8,
    protection_on: bool,
    tsf: u64,
    seq: SeqNum,
) -> MgmtBody {
    let mut ies = vec![Ie::Ssid(ssid.to_vec())];
    ies.extend(rate_ies(false));
    ies.push(Ie::DsParam(channel));
    let mut erp_flags = 0u8;
    if protection_on {
        erp_flags |= erp::USE_PROTECTION | erp::NON_ERP_PRESENT;
    }
    ies.push(Ie::ErpInfo(erp_flags));
    let _ = (ap, client, seq);
    MgmtBody::ProbeResp {
        timestamp: tsf,
        interval_tu: 100,
        cap: 0x0401,
        ies,
    }
}

/// Builds an authentication frame (open system).
pub fn auth(step: u16) -> MgmtBody {
    MgmtBody::Auth {
        algorithm: 0,
        auth_seq: step,
        status: 0,
    }
}

/// Builds an association request body.
pub fn assoc_req(b_only: bool) -> MgmtBody {
    MgmtBody::AssocReq {
        cap: 0x0401,
        listen_interval: 10,
        ies: rate_ies(b_only),
    }
}

/// Builds an association response body.
pub fn assoc_resp(aid: u16) -> MgmtBody {
    MgmtBody::AssocResp {
        cap: 0x0401,
        status: 0,
        aid: aid | 0xc000,
        ies: rate_ies(false),
    }
}

/// Assembles a unicast/broadcast data frame with correct DS bits, duration
/// and retry flag.
#[allow(clippy::too_many_arguments)]
pub fn data_frame(
    dst: MacAddr,
    transmitter: MacAddr,
    addr3: MacAddr,
    to_ds: bool,
    from_ds: bool,
    seq: SeqNum,
    retry: bool,
    rate: PhyRate,
    preamble: Preamble,
    body: Vec<u8>,
) -> Frame {
    let duration = if dst.is_unicast() {
        duration_data_ack(rate, preamble)
    } else {
        0
    };
    Frame::Data(DataFrame {
        duration,
        addr1: dst,
        addr2: transmitter,
        addr3,
        seq,
        frag: 0,
        flags: FcFlags {
            to_ds,
            from_ds,
            retry,
            ..Default::default()
        },
        null: false,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::ie;
    use jigsaw_ieee80211::wire::{parse_frame, serialize_frame, FrameHeader};

    #[test]
    fn beacon_roundtrips_and_signals_protection() {
        let ap = MacAddr::local(0, 1);
        let f = beacon(ap, b"cse", 6, true, 123456, SeqNum::new(7));
        let bytes = serialize_frame(&f);
        let back = parse_frame(&bytes).unwrap();
        if let Frame::Mgmt {
            body: MgmtBody::Beacon { ies, .. },
            ..
        } = &back
        {
            assert_eq!(ie::find_channel(ies), Some(6));
            let flags = ie::find_erp(ies).unwrap();
            assert!(flags & erp::USE_PROTECTION != 0);
        } else {
            panic!("not a beacon: {back:?}");
        }
        // Without protection.
        let f2 = beacon(ap, b"cse", 6, false, 1, SeqNum::new(8));
        if let Frame::Mgmt {
            body: MgmtBody::Beacon { ies, .. },
            ..
        } = &f2
        {
            assert_eq!(ie::find_erp(ies), Some(0));
        }
    }

    #[test]
    fn rate_ies_identify_capability() {
        assert!(!ie::rates_include_ofdm(&rate_ies(true)));
        assert!(ie::rates_include_ofdm(&rate_ies(false)));
    }

    #[test]
    fn data_frame_duration_set_for_unicast_only() {
        let f = data_frame(
            MacAddr::local(1, 1),
            MacAddr::local(2, 2),
            MacAddr::local(3, 3),
            true,
            false,
            SeqNum::new(0),
            false,
            PhyRate::R11,
            Preamble::Long,
            vec![0; 100],
        );
        assert!(f.duration() > 0);
        let b = data_frame(
            MacAddr::BROADCAST,
            MacAddr::local(2, 2),
            MacAddr::local(3, 3),
            false,
            true,
            SeqNum::new(0),
            false,
            PhyRate::R1,
            Preamble::Long,
            vec![0; 100],
        );
        assert_eq!(b.duration(), 0);
    }

    #[test]
    fn probe_req_is_sync_ineligible() {
        // Probe requests must not serve as sync references (paper notes
        // some stations zero their probe sequence numbers).
        let bytes = serialize_frame(&probe_req(MacAddr::local(3, 9), false, SeqNum::new(0)));
        let h = FrameHeader::decode(&bytes).unwrap();
        assert!(!h.is_sync_reference(bytes.len()));
    }

    #[test]
    fn assoc_handshake_bodies() {
        let req = assoc_req(true);
        if let MgmtBody::AssocReq { ies, .. } = &req {
            assert!(!ie::rates_include_ofdm(ies));
        } else {
            panic!();
        }
        let resp = assoc_resp(5);
        if let MgmtBody::AssocResp { aid, status, .. } = resp {
            assert_eq!(aid & 0x3fff, 5);
            assert_eq!(status, 0);
        } else {
            panic!();
        }
    }
}
