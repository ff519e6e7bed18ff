//! The wired distribution network: the switch fabric connecting APs to
//! campus/Internet hosts, the wired-side packet trace (the paper's §6
//! coverage ground truth), and wired-path impairments (latency, loss).

use crate::station::WiredHost;
use crate::{HostId, StationId};
use jigsaw_ieee80211::{MacAddr, Micros};
use jigsaw_packet::Msdu;
// tidy:allow-file(hash-order): host maps are lookup-only; AP/record lists are collected into Vecs and sorted before use
use std::collections::HashMap;

/// Destination of a packet in flight on the wired side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WiredDst {
    /// To a wired host (server / router).
    Host(HostId),
    /// To one AP, for wireless transmission.
    Ap(StationId),
}

/// A packet crossing the wired network.
#[derive(Debug, Clone)]
pub struct WiredPacket {
    /// L2 source.
    pub src_mac: MacAddr,
    /// L2 destination (a client MAC, host MAC, or broadcast).
    pub dst_mac: MacAddr,
    /// Payload.
    pub msdu: Msdu,
    /// Where it is headed.
    pub dst: WiredDst,
}

/// Direction of a wired-trace record relative to the wireless network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WiredDirection {
    /// Left the wireless network through an AP.
    FromWireless,
    /// Entered the wireless network through an AP (or will, if bridged).
    ToWireless,
}

impl WiredDirection {
    /// Compact code for serialization.
    pub fn code(self) -> u8 {
        match self {
            WiredDirection::FromWireless => 0,
            WiredDirection::ToWireless => 1,
        }
    }

    /// Decodes [`WiredDirection::code`].
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(WiredDirection::FromWireless),
            1 => Some(WiredDirection::ToWireless),
            _ => None,
        }
    }
}

/// The wired side of the world: hosts, switch learning table, in-flight
/// packet storage.
#[derive(Debug, Default)]
pub struct Wired {
    /// All wired hosts.
    pub hosts: Vec<WiredHost>,
    /// Switch bridge table: which AP serves a given client MAC.
    pub client_ap: HashMap<MacAddr, StationId>,
    /// Host lookup by MAC.
    pub host_by_mac: HashMap<MacAddr, HostId>,
    /// Host lookup by IP.
    pub host_by_ip: HashMap<std::net::Ipv4Addr, HostId>,
    /// In-flight packets keyed by delivery handle.
    in_flight: HashMap<u64, WiredPacket>,
    next_handle: u64,
}

impl Wired {
    /// Builds the wired network from a host table.
    pub fn new(hosts: Vec<WiredHost>) -> Self {
        let host_by_mac = hosts.iter().map(|h| (h.mac, h.id)).collect();
        let host_by_ip = hosts.iter().map(|h| (h.ip, h.id)).collect();
        Wired {
            hosts,
            client_ap: HashMap::new(),
            host_by_mac,
            host_by_ip,
            in_flight: HashMap::new(),
            next_handle: 0,
        }
    }

    /// Host accessor.
    pub fn host(&self, id: HostId) -> &WiredHost {
        &self.hosts[id.index()]
    }

    /// Registers an in-flight packet; returns the handle to schedule with.
    pub fn launch(&mut self, pkt: WiredPacket) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        self.in_flight.insert(h, pkt);
        h
    }

    /// Claims an arrived packet.
    ///
    /// # Panics
    /// Panics on an unknown handle (scheduling bug).
    pub fn arrive(&mut self, handle: u64) -> WiredPacket {
        self.in_flight
            .remove(&handle)
            .expect("unknown wired handle")
    }

    /// Learns / refreshes a client's serving AP (bridge learning).
    pub fn learn_client(&mut self, client: MacAddr, ap: StationId) {
        self.client_ap.insert(client, ap);
    }

    /// Forgets a client (disassociation).
    pub fn forget_client(&mut self, client: MacAddr) {
        self.client_ap.remove(&client);
    }
}

/// One record of the wired distribution-network trace. This is the exact
/// analogue of the "second trace of the same traffic captured on the wired
/// distribution network" the paper compares coverage against (§6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WiredTraceRecord {
    /// True time the packet crossed the building switch, µs.
    pub ts: Micros,
    /// L2 source address.
    pub src_mac: MacAddr,
    /// L2 destination address.
    pub dst_mac: MacAddr,
    /// The AP it entered/left through (None for host↔host chatter).
    pub ap: Option<StationId>,
    /// Direction relative to the wireless side.
    pub direction: WiredDirection,
    /// Decoded payload (headers only are meaningful).
    pub msdu: Msdu,
}

/// Magic prefixing an encoded wired trace ([`encode_wired_trace`]).
pub const WIRED_TRACE_MAGIC: [u8; 4] = *b"JIGW";
/// Format version of the wired-trace encoding.
pub const WIRED_TRACE_VERSION: u8 = 1;

/// Fewest bytes an AP table entry encodes to: a one-byte id + the MAC.
const MIN_AP_ENTRY_BYTES: usize = 7;
/// Fewest bytes a record encodes to: one-byte `dts`, two MACs, one-byte AP
/// reference, direction code, one-byte MSDU length.
const MIN_RECORD_BYTES: usize = 16;

/// Encodes a wired trace (plus the AP id → MAC table the coverage analysis
/// needs to attribute `ToWireless` packets) into the corpus's `wired.jigw`
/// member. Records are delta/varint packed; MSDUs serialize through their
/// LLC/SNAP wire form snapped to the headers ([`Msdu::header_bytes`]: the
/// transport payload's zero-fill is cut, its length rides the IP/UDP length
/// fields), so every field of the record survives the roundtrip at
/// ≈65 B/record ([`Msdu::Other`] keeps its raw payload). `ap_addr_of` maps
/// a station id to its MAC (only ids appearing in the records are consulted).
pub fn encode_wired_trace(
    records: &[WiredTraceRecord],
    ap_addr_of: &dyn Fn(u16) -> MacAddr,
) -> Vec<u8> {
    use jigsaw_trace::varint::put_uvarint;
    let mut out = Vec::with_capacity(32 + records.len() * 72);
    out.extend_from_slice(&WIRED_TRACE_MAGIC);
    out.push(WIRED_TRACE_VERSION);
    // AP table: every station id referenced by a record, in id order.
    let mut ap_ids: Vec<u16> = records.iter().filter_map(|r| r.ap.map(|s| s.0)).collect();
    ap_ids.sort_unstable();
    ap_ids.dedup();
    put_uvarint(&mut out, ap_ids.len() as u64);
    for id in ap_ids {
        put_uvarint(&mut out, u64::from(id));
        out.extend_from_slice(ap_addr_of(id).bytes());
    }
    put_uvarint(&mut out, records.len() as u64);
    let mut prev_ts = 0u64;
    for r in records {
        put_uvarint(&mut out, r.ts.saturating_sub(prev_ts));
        prev_ts = r.ts;
        out.extend_from_slice(r.src_mac.bytes());
        out.extend_from_slice(r.dst_mac.bytes());
        put_uvarint(&mut out, r.ap.map(|s| u64::from(s.0) + 1).unwrap_or(0));
        out.push(r.direction.code());
        let msdu = r.msdu.header_bytes();
        put_uvarint(&mut out, msdu.len() as u64);
        out.extend_from_slice(&msdu);
    }
    out
}

/// Decodes [`encode_wired_trace`]'s output back into records plus the AP
/// id → MAC table.
pub fn decode_wired_trace(
    bytes: &[u8],
) -> Result<(Vec<WiredTraceRecord>, HashMap<u16, MacAddr>), String> {
    use jigsaw_trace::varint::get_uvarint;
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
        let s = pos
            .checked_add(n)
            .and_then(|end| bytes.get(*pos..end))
            .ok_or_else(|| format!("wired trace truncated at byte {pos}", pos = *pos))?;
        *pos += n;
        Ok(s)
    };
    let varint = |pos: &mut usize| -> Result<u64, String> {
        let (v, n) = get_uvarint(&bytes[*pos..])
            .ok_or_else(|| format!("bad varint at byte {pos}", pos = *pos))?;
        *pos += n;
        Ok(v)
    };
    if take(&mut pos, 4)? != WIRED_TRACE_MAGIC {
        return Err("bad wired-trace magic".into());
    }
    if take(&mut pos, 1)? != [WIRED_TRACE_VERSION] {
        return Err("unsupported wired-trace version".into());
    }
    let mac6 = |pos: &mut usize| -> Result<MacAddr, String> {
        let b = take(pos, 6)?;
        Ok(MacAddr::new([b[0], b[1], b[2], b[3], b[4], b[5]]))
    };

    let station_id = |v: u64| -> Result<u16, String> {
        u16::try_from(v).map_err(|_| format!("station id {v} out of range"))
    };
    // Declared counts are untrusted: one the remaining bytes cannot hold
    // is refused before anything is allocated for it.
    let fits = |pos: usize, count: u64, min_encoded: usize| {
        count <= ((bytes.len() - pos) / min_encoded) as u64
    };
    let n_aps = varint(&mut pos)?;
    if !fits(pos, n_aps, MIN_AP_ENTRY_BYTES) {
        return Err(format!("AP table of {n_aps} entries exceeds the payload"));
    }
    let mut aps = HashMap::with_capacity(n_aps as usize);
    for _ in 0..n_aps {
        let id = station_id(varint(&mut pos)?)?;
        aps.insert(id, mac6(&mut pos)?);
    }

    let n = varint(&mut pos)?;
    if !fits(pos, n, MIN_RECORD_BYTES) {
        return Err(format!("{n} records exceed the payload"));
    }
    let mut records = Vec::with_capacity(n as usize);
    let mut ts = 0u64;
    for _ in 0..n {
        ts = ts
            .checked_add(varint(&mut pos)?)
            .ok_or("wired-trace timestamp overflows")?;
        let src_mac = mac6(&mut pos)?;
        let dst_mac = mac6(&mut pos)?;
        let ap = match varint(&mut pos)? {
            0 => None,
            id => Some(StationId(station_id(id - 1)?)),
        };
        let direction = WiredDirection::from_code(take(&mut pos, 1)?[0])
            .ok_or("bad wired-trace direction code")?;
        let len = varint(&mut pos)? as usize;
        let msdu = Msdu::parse(take(&mut pos, len)?).map_err(|e| format!("bad MSDU: {e}"))?;
        records.push(WiredTraceRecord {
            ts,
            src_mac,
            dst_mac,
            ap,
            direction,
            msdu,
        });
    }
    if pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after wired trace",
            bytes.len() - pos
        ));
    }
    Ok((records, aps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_packet::{ArpPacket, Msdu};
    use std::net::Ipv4Addr;

    fn host(id: u16) -> WiredHost {
        WiredHost {
            id: HostId(id),
            mac: MacAddr::local(9, u32::from(id)),
            ip: Ipv4Addr::new(172, 16, 0, id as u8),
            latency_us: 300,
            loss_prob: 0.0,
        }
    }

    fn arp_msdu() -> Msdu {
        Msdu::Arp(ArpPacket::who_has(
            [2, 9, 0, 0, 0, 1],
            Ipv4Addr::new(172, 16, 0, 1),
            Ipv4Addr::new(10, 0, 0, 5),
        ))
    }

    #[test]
    fn launch_arrive_roundtrip() {
        let mut w = Wired::new(vec![host(0), host(1)]);
        let pkt = WiredPacket {
            src_mac: MacAddr::local(9, 0),
            dst_mac: MacAddr::BROADCAST,
            msdu: arp_msdu(),
            dst: WiredDst::Ap(StationId(3)),
        };
        let h1 = w.launch(pkt.clone());
        let h2 = w.launch(pkt.clone());
        assert_ne!(h1, h2);
        let got = w.arrive(h1);
        assert_eq!(got.dst, WiredDst::Ap(StationId(3)));
        let _ = w.arrive(h2);
    }

    #[test]
    #[should_panic(expected = "unknown wired handle")]
    fn double_arrive_panics() {
        let mut w = Wired::new(vec![]);
        let h = w.launch(WiredPacket {
            src_mac: MacAddr::ZERO,
            dst_mac: MacAddr::ZERO,
            msdu: arp_msdu(),
            dst: WiredDst::Host(HostId(0)),
        });
        let _ = w.arrive(h);
        let _ = w.arrive(h);
    }

    #[test]
    fn bridge_learning() {
        let mut w = Wired::new(vec![host(0)]);
        let c = MacAddr::local(3, 7);
        assert!(!w.client_ap.contains_key(&c));
        w.learn_client(c, StationId(2));
        assert_eq!(w.client_ap[&c], StationId(2));
        w.learn_client(c, StationId(4)); // roamed
        assert_eq!(w.client_ap[&c], StationId(4));
        w.forget_client(c);
        assert!(!w.client_ap.contains_key(&c));
    }

    #[test]
    fn wired_trace_roundtrips_through_encoding() {
        let rec = |ts: u64, ap: Option<u16>, dir: WiredDirection, msdu: Msdu| WiredTraceRecord {
            ts,
            src_mac: MacAddr::local(9, ts as u32),
            dst_mac: MacAddr::local(3, 7),
            ap: ap.map(StationId),
            direction: dir,
            msdu,
        };
        let records = vec![
            rec(1_000, Some(2), WiredDirection::ToWireless, arp_msdu()),
            rec(1_000, None, WiredDirection::FromWireless, arp_msdu()),
            rec(
                5_500,
                Some(0),
                WiredDirection::ToWireless,
                Msdu::Other {
                    ethertype: 0x86dd,
                    payload: vec![1, 2, 3, 4, 5],
                },
            ),
        ];
        let ap_addr = |sid: u16| MacAddr::local(1, u32::from(sid));
        let bytes = encode_wired_trace(&records, &ap_addr);
        let (got, aps) = decode_wired_trace(&bytes).unwrap();
        assert_eq!(got, records);
        // AP table covers exactly the referenced ids.
        assert_eq!(aps.len(), 2);
        assert_eq!(aps[&0], ap_addr(0));
        assert_eq!(aps[&2], ap_addr(2));

        // Encoding is deterministic, and corruption is detected.
        assert_eq!(bytes, encode_wired_trace(&records, &ap_addr));
        assert!(decode_wired_trace(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(decode_wired_trace(&bad).is_err());
        // Station ids past u16 are an error, never a silent wraparound.
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&WIRED_TRACE_MAGIC);
        oversized.push(WIRED_TRACE_VERSION);
        jigsaw_trace::varint::put_uvarint(&mut oversized, 1); // one AP entry
        jigsaw_trace::varint::put_uvarint(&mut oversized, 70_000); // id > u16
        oversized.extend_from_slice(ap_addr(0).bytes());
        jigsaw_trace::varint::put_uvarint(&mut oversized, 0); // no records
        assert!(decode_wired_trace(&oversized)
            .unwrap_err()
            .contains("out of range"));
        // Empty trace is fine.
        let (none, table) = decode_wired_trace(&encode_wired_trace(&[], &ap_addr)).unwrap();
        assert!(none.is_empty() && table.is_empty());
    }

    /// A payload declaring more entries than its bytes could hold is
    /// refused before anything is allocated for the declared count — a
    /// 20-byte member must not be able to ask for gigabytes.
    #[test]
    fn declared_counts_beyond_the_payload_are_refused_before_allocating() {
        use jigsaw_trace::varint::put_uvarint;
        let header = || {
            let mut b = WIRED_TRACE_MAGIC.to_vec();
            b.push(WIRED_TRACE_VERSION);
            b
        };
        // 10⁹ records (the old cap admitted it: a ~100 GB `Vec`).
        let mut records = header();
        put_uvarint(&mut records, 0); // no APs
        put_uvarint(&mut records, 1_000_000_000);
        records.resize(20, 0);
        assert!(decode_wired_trace(&records)
            .unwrap_err()
            .contains("records exceed the payload"));
        // 10⁶ AP entries.
        let mut aps = header();
        put_uvarint(&mut aps, 1_000_000);
        aps.resize(20, 0);
        assert!(decode_wired_trace(&aps)
            .unwrap_err()
            .contains("AP table of 1000000 entries"));
        // An MSDU length that would wrap the cursor is a truncation.
        let mut wrap = header();
        put_uvarint(&mut wrap, 0);
        put_uvarint(&mut wrap, 1);
        wrap.push(0); // dts
        wrap.extend_from_slice(&[0; 12]); // src + dst MAC
        wrap.extend_from_slice(&[0, 0]); // no AP, FromWireless
        put_uvarint(&mut wrap, u64::MAX);
        assert!(decode_wired_trace(&wrap).unwrap_err().contains("truncated"));
    }

    #[test]
    fn host_lookup() {
        // HostId doubles as the index into the host table.
        let w = Wired::new(vec![host(0), host(1)]);
        assert_eq!(w.host_by_mac[&MacAddr::local(9, 1)], HostId(1));
        assert_eq!(w.host_by_ip[&Ipv4Addr::new(172, 16, 0, 1)], HostId(1));
        assert_eq!(w.host(HostId(1)).latency_us, 300);
    }
}
