//! Learning the station population purely from observed frames — the
//! analyses classify addresses the same way Jigsaw had to: APs are
//! addresses that beacon; clients are addresses that probe, associate, or
//! send ToDS data; b-only clients are those whose rate-set IEs carry no
//! ERP-OFDM rates (and that never transmit OFDM).
//!
//! There is one census per pass: the [`Suite`](crate::suite::Suite) owns
//! the only [`StationLearner`], feeds it each decoded jframe, and lends it
//! to every analyzer; [`StationsAnalysis`] is the census read as a figure.

use crate::suite::{Analyzer, Figure, Record};
use jigsaw_core::jframe::JFrame;
use jigsaw_ieee80211::frame::{Frame, MgmtBody};
use jigsaw_ieee80211::{ie, MacAddr, Micros};
// tidy:allow-file(hash-order): maps and sets feed membership and count queries only; no iteration order reaches records
use std::collections::{HashMap, HashSet};

/// Capability of a client as inferred from the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capability {
    /// Rate IEs included ERP-OFDM rates, or the station transmitted OFDM.
    G,
    /// Only CCK/DSSS rates ever advertised or used.
    BOnly,
    /// Nothing decisive seen yet.
    Unknown,
}

/// Streamed station knowledge.
#[derive(Debug, Default)]
pub struct StationLearner {
    /// Addresses seen transmitting beacons (≡ APs), with their SSID.
    pub aps: HashMap<MacAddr, Vec<u8>>,
    /// Client capability by address.
    pub capability: HashMap<MacAddr, Capability>,
    /// Current association: client → AP (from AssocResp and FromDS/ToDS
    /// data frames' BSSID).
    pub assoc: HashMap<MacAddr, MacAddr>,
    /// Last time each client transmitted anything (activity tracking).
    pub last_seen: HashMap<MacAddr, Micros>,
    /// Addresses ever seen as clients.
    pub clients: HashSet<MacAddr>,
}

impl StationLearner {
    /// Creates an empty learner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is this address a known AP?
    pub fn is_ap(&self, a: MacAddr) -> bool {
        self.aps.contains_key(&a)
    }

    /// Inferred capability (Unknown when never classified).
    pub fn capability_of(&self, a: MacAddr) -> Capability {
        self.capability
            .get(&a)
            .copied()
            .unwrap_or(Capability::Unknown)
    }

    fn note_rates(&mut self, sta: MacAddr, ies: &[ie::Ie]) {
        let cap = if ie::rates_include_ofdm(ies) {
            Capability::G
        } else {
            Capability::BOnly
        };
        // G evidence wins (a station may send b-rates in some IEs).
        let e = self.capability.entry(sta).or_insert(cap);
        if cap == Capability::G {
            *e = Capability::G;
        }
    }

    /// Feeds one valid jframe and its decoded frame.
    pub fn observe(&mut self, jf: &JFrame, frame: &Frame) {
        match frame {
            Frame::Mgmt { header, body } => match body {
                MgmtBody::Beacon { ies, .. } => {
                    let ssid = ie::find_ssid(ies).unwrap_or(b"").to_vec();
                    self.aps.insert(header.sa, ssid);
                }
                MgmtBody::ProbeReq { ies } => {
                    self.clients.insert(header.sa);
                    self.last_seen.insert(header.sa, jf.ts);
                    self.note_rates(header.sa, ies);
                }
                MgmtBody::AssocReq { ies, .. } | MgmtBody::ReassocReq { ies, .. } => {
                    self.clients.insert(header.sa);
                    self.last_seen.insert(header.sa, jf.ts);
                    self.note_rates(header.sa, ies);
                }
                MgmtBody::AssocResp { status: 0, .. } | MgmtBody::ReassocResp { status: 0, .. } => {
                    // AP → client: an association formed.
                    self.clients.insert(header.da);
                    self.assoc.insert(header.da, header.sa);
                }
                MgmtBody::Disassoc { .. } | MgmtBody::Deauth { .. } => {
                    // Either side may end it; drop the client's binding.
                    if self.is_ap(header.sa) {
                        self.assoc.remove(&header.da);
                    } else {
                        self.assoc.remove(&header.sa);
                    }
                }
                _ => {}
            },
            Frame::Data(d) => {
                if d.flags.to_ds {
                    let client = d.addr2;
                    self.clients.insert(client);
                    self.last_seen.insert(client, jf.ts);
                    self.assoc.insert(client, d.addr1);
                    // OFDM transmission is definitive g evidence.
                    if !jf.rate.is_b_compatible() {
                        self.capability.insert(client, Capability::G);
                    }
                } else if d.flags.from_ds {
                    self.aps.entry(d.addr2).or_default();
                }
            }
            _ => {}
        }
    }

    /// Clients active (transmitted) within `[t0, t1)`.
    pub fn active_clients_between(&self, t0: Micros, t1: Micros) -> usize {
        self.last_seen
            .values()
            .filter(|&&t| t >= t0 && t < t1)
            .count()
    }
}

/// The station census as a figure of its own: who is on the air, learned
/// purely from observed frames (the paper's Table-1 AP/client counts plus
/// the b/g capability split that drives §7.3). Stateless: the figure is
/// read off the suite's census at finish time.
#[derive(Debug)]
pub struct StationsAnalysis;

impl Analyzer for StationsAnalysis {
    fn into_figure(self: Box<Self>, l: &StationLearner) -> Box<dyn Figure> {
        let cap = |want: Capability| {
            l.clients
                .iter()
                .filter(|c| l.capability_of(**c) == want)
                .count()
        };
        Box::new(StationsFigure {
            aps: l.aps.len(),
            clients: l.clients.len(),
            g_clients: cap(Capability::G),
            b_only_clients: cap(Capability::BOnly),
            unknown_clients: cap(Capability::Unknown),
            associations: l.assoc.len(),
        })
    }
}

/// The finished station census.
#[derive(Debug, Clone)]
pub struct StationsFigure {
    /// Addresses seen beaconing (or sourcing FromDS data).
    pub aps: usize,
    /// Distinct client addresses.
    pub clients: usize,
    /// Clients with 802.11g evidence.
    pub g_clients: usize,
    /// Clients that only ever advertised/used CCK/DSSS rates.
    pub b_only_clients: usize,
    /// Clients never decisively classified.
    pub unknown_clients: usize,
    /// Client→AP bindings still standing at the end of the trace.
    pub associations: usize,
}

impl Figure for StationsFigure {
    fn name(&self) -> &'static str {
        "stations"
    }

    fn title(&self) -> &'static str {
        "STATION CENSUS — APs, clients, and b/g capabilities"
    }

    fn render(&self) -> String {
        format!(
            "aps={}  clients={} (g={}, b-only={}, unknown={})  associations={}\n",
            self.aps,
            self.clients,
            self.g_clients,
            self.b_only_clients,
            self.unknown_clients,
            self.associations
        )
    }

    fn records(&self) -> Vec<Record> {
        vec![
            Record::u64("aps", self.aps as u64),
            Record::u64("clients", self.clients as u64),
            Record::u64("g_clients", self.g_clients as u64),
            Record::u64("b_only_clients", self.b_only_clients as u64),
            Record::u64("unknown_clients", self.unknown_clients as u64),
            Record::u64("associations", self.associations as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::fc::FcFlags;
    use jigsaw_ieee80211::frame::{DataFrame, MgmtHeader};
    use jigsaw_ieee80211::wire::serialize_frame;
    use jigsaw_ieee80211::{PhyRate, SeqNum};

    fn jf_of(frame: &Frame, ts: u64, rate: PhyRate) -> JFrame {
        let bytes = serialize_frame(frame);
        let wire_len = bytes.len() as u32;
        JFrame {
            ts,
            bytes: bytes.into(),
            wire_len,
            rate,
            channel: jigsaw_ieee80211::Channel::of(1),
            instances: Default::default(),
            dispersion: 0,
            valid: true,
            unique: false,
        }
    }

    /// Feeds `frame` the way the suite does: captured, then decoded.
    fn feed(l: &mut StationLearner, frame: &Frame, ts: u64, rate: PhyRate) {
        let jf = jf_of(frame, ts, rate);
        l.observe(&jf, &jf.parse().expect("a valid frame"));
    }

    fn beacon(ap: MacAddr) -> Frame {
        jigsaw_sim::frames::beacon(ap, b"net", 6, false, 123, SeqNum::new(0))
    }

    #[test]
    fn beacons_identify_aps() {
        let mut l = StationLearner::new();
        let ap = MacAddr::local(0, 3);
        feed(&mut l, &beacon(ap), 100, PhyRate::R1);
        assert!(l.is_ap(ap));
        assert_eq!(l.aps[&ap], b"net".to_vec());
    }

    #[test]
    fn probe_req_classifies_capability() {
        let mut l = StationLearner::new();
        let b_client = MacAddr::local(3, 1);
        let g_client = MacAddr::local(3, 2);
        let pb = jigsaw_sim::frames::probe_req(b_client, true, SeqNum::new(0));
        let pg = jigsaw_sim::frames::probe_req(g_client, false, SeqNum::new(0));
        feed(&mut l, &pb, 10, PhyRate::R1);
        feed(&mut l, &pg, 20, PhyRate::R1);
        assert_eq!(l.capability_of(b_client), Capability::BOnly);
        assert_eq!(l.capability_of(g_client), Capability::G);
        assert_eq!(l.capability_of(MacAddr::local(3, 99)), Capability::Unknown);
    }

    #[test]
    fn assoc_resp_binds_client_to_ap() {
        let mut l = StationLearner::new();
        let ap = MacAddr::local(0, 1);
        let client = MacAddr::local(3, 7);
        let resp = Frame::Mgmt {
            header: MgmtHeader::new(client, ap, ap, SeqNum::new(1)),
            body: jigsaw_sim::frames::assoc_resp(3),
        };
        feed(&mut l, &resp, 50, PhyRate::R2);
        assert_eq!(l.assoc.get(&client), Some(&ap));
    }

    #[test]
    fn ofdm_data_is_definitive_g_evidence() {
        let mut l = StationLearner::new();
        let client = MacAddr::local(3, 5);
        let ap = MacAddr::local(0, 0);
        let d = Frame::Data(DataFrame {
            duration: 44,
            addr1: ap,
            addr2: client,
            addr3: MacAddr::local(9, 0),
            seq: SeqNum::new(2),
            frag: 0,
            flags: FcFlags {
                to_ds: true,
                ..Default::default()
            },
            null: false,
            body: vec![0; 40],
        });
        feed(&mut l, &d, 99, PhyRate::R54);
        assert_eq!(l.capability_of(client), Capability::G);
        assert_eq!(l.assoc.get(&client), Some(&ap));
        assert!(l.clients.contains(&client));
    }

    #[test]
    fn activity_window() {
        let mut l = StationLearner::new();
        let c = MacAddr::local(3, 1);
        feed(
            &mut l,
            &jigsaw_sim::frames::probe_req(c, false, SeqNum::new(0)),
            5_000,
            PhyRate::R1,
        );
        assert_eq!(l.active_clients_between(0, 10_000), 1);
        assert_eq!(l.active_clients_between(10_000, 20_000), 0);
    }
}
