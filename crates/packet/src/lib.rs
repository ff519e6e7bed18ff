//! # jigsaw-packet
//!
//! Minimal network- and transport-layer packet model carried inside 802.11
//! data frames: LLC/SNAP encapsulation, ARP, IPv4, UDP and TCP.
//!
//! Jigsaw's transport reconstruction (paper §5.2) needs exactly this much:
//! enough header structure to identify flows (addresses + ports), follow TCP
//! sequence/acknowledgment numbers, and recognize ARP broadcasts; payload
//! *content* is irrelevant, only lengths matter. Checksums are real
//! (one's-complement, RFC 1071) so that corruption in the simulated capture
//! path is observable at every layer.
//!
//! Implemented: LLC/SNAP (RFC 1042), ARP request/reply for IPv4-over-802.x,
//! IPv4 (no options, no fragmentation — DF is always set, as in the paper's
//! enterprise traffic), UDP, TCP (flags, MSS option only).
//! Omitted: IPv6, ICMP, IP options, TCP SACK/timestamps/window-scale.

pub mod arp;
pub mod ipv4;
pub mod llc;
pub mod tcp;
pub mod udp;

pub mod checksum;

pub use arp::{ArpOp, ArpPacket};
pub use ipv4::{IpProto, Ipv4Packet};
pub use llc::{EtherType, LLC_SNAP_LEN};
pub use tcp::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;

use std::fmt;
use std::net::Ipv4Addr;

/// Errors from packet parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Input shorter than the mandatory header.
    Truncated {
        /// What was being parsed.
        layer: &'static str,
        /// Bytes required.
        needed: usize,
        /// Bytes present.
        got: usize,
    },
    /// A checksum failed verification.
    BadChecksum {
        /// Which layer's checksum failed.
        layer: &'static str,
    },
    /// Unsupported version / ethertype / header shape.
    Unsupported {
        /// What was unsupported.
        what: &'static str,
    },
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated { layer, needed, got } => {
                write!(f, "{layer}: truncated (need {needed}, got {got})")
            }
            PacketError::BadChecksum { layer } => write!(f, "{layer}: bad checksum"),
            PacketError::Unsupported { what } => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for PacketError {}

/// A fully decoded MSDU (the body of an 802.11 data frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msdu {
    /// An ARP packet (always LLC/SNAP-encapsulated on 802.11).
    Arp(ArpPacket),
    /// An IPv4 packet.
    Ipv4(Ipv4Packet),
    /// Anything else — preserved as raw bytes after the LLC header.
    Other {
        /// The SNAP ethertype.
        ethertype: u16,
        /// Raw payload.
        payload: Vec<u8>,
    },
}

impl Msdu {
    /// Serializes the MSDU including its LLC/SNAP header — the exact byte
    /// string that becomes an 802.11 data-frame body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Msdu::Arp(arp) => {
                llc::write_llc_snap(&mut out, EtherType::ARP.0);
                arp.write(&mut out);
            }
            Msdu::Ipv4(ip) => {
                llc::write_llc_snap(&mut out, EtherType::IPV4.0);
                ip.write(&mut out);
            }
            Msdu::Other { ethertype, payload } => {
                llc::write_llc_snap(&mut out, *ethertype);
                out.extend_from_slice(payload);
            }
        }
        out
    }

    /// [`Msdu::to_bytes`] snapped to the headers. An IPv4 transport payload
    /// is modeled by length only and written as trailing zeros; those are
    /// cut, and [`Msdu::parse`] still recovers every field because the
    /// parsers take snap-truncated packets and read lengths off the IP/UDP
    /// length fields. ARP and [`Msdu::Other`] keep every byte.
    pub fn header_bytes(&self) -> Vec<u8> {
        let mut out = self.to_bytes();
        if let Msdu::Ipv4(ip) = self {
            out.truncate(LLC_SNAP_LEN + ipv4::IPV4_HEADER_LEN + ip.payload.header_len());
        }
        out
    }

    /// Parses an 802.11 data-frame body (LLC/SNAP + network packet).
    pub fn parse(bytes: &[u8]) -> Result<Msdu, PacketError> {
        let (ethertype, rest) = llc::parse_llc_snap(bytes)?;
        match ethertype {
            x if x == EtherType::ARP.0 => Ok(Msdu::Arp(ArpPacket::parse(rest)?)),
            x if x == EtherType::IPV4.0 => Ok(Msdu::Ipv4(Ipv4Packet::parse(rest)?)),
            other => Ok(Msdu::Other {
                ethertype: other,
                payload: rest.to_vec(),
            }),
        }
    }

    /// The flow 5-tuple if this is a TCP or UDP packet:
    /// `(src_ip, src_port, dst_ip, dst_port, proto)`.
    pub fn five_tuple(&self) -> Option<(Ipv4Addr, u16, Ipv4Addr, u16, IpProto)> {
        if let Msdu::Ipv4(ip) = self {
            match &ip.payload {
                ipv4::IpPayload::Tcp(t) => {
                    Some((ip.src, t.src_port, ip.dst, t.dst_port, IpProto::Tcp))
                }
                ipv4::IpPayload::Udp(u) => {
                    Some((ip.src, u.src_port, ip.dst, u.dst_port, IpProto::Udp))
                }
                ipv4::IpPayload::Other { .. } => None,
            }
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msdu_arp_roundtrip() {
        let arp = ArpPacket {
            op: ArpOp::Request,
            sender_mac: [2, 0, 0, 0, 0, 1],
            sender_ip: Ipv4Addr::new(10, 0, 0, 1),
            target_mac: [0; 6],
            target_ip: Ipv4Addr::new(10, 0, 0, 99),
        };
        let m = Msdu::Arp(arp);
        let bytes = m.to_bytes();
        assert_eq!(Msdu::parse(&bytes).unwrap(), m);
    }

    #[test]
    fn msdu_other_roundtrip() {
        let m = Msdu::Other {
            ethertype: 0x86dd,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = m.to_bytes();
        assert_eq!(Msdu::parse(&bytes).unwrap(), m);
    }

    #[test]
    fn header_bytes_cut_only_zero_fill_and_parse_back() {
        let (a, b) = (Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(172, 16, 0, 1));
        let ip_other = Ipv4Packet {
            payload: ipv4::IpPayload::Other { proto: 1, len: 64 },
            ..Ipv4Packet::udp(a, b, UdpDatagram::new(0, 0, 0))
        };
        let cases = [
            (
                Msdu::Ipv4(Ipv4Packet::tcp(a, b, TcpSegment::syn(1234, 80, 7, 1460))),
                0,
            ),
            (
                Msdu::Ipv4(Ipv4Packet::tcp(
                    a,
                    b,
                    TcpSegment::data(1234, 80, 1000, 2000, 1460),
                )),
                1460,
            ),
            (
                Msdu::Ipv4(Ipv4Packet::udp(a, b, UdpDatagram::new(5353, 53, 300))),
                300,
            ),
            (Msdu::Ipv4(ip_other), 64),
            (
                Msdu::Other {
                    ethertype: 0x86dd,
                    payload: vec![0, 0, 9, 0, 0],
                },
                0,
            ),
        ];
        for (m, cut) in cases {
            let (full, snapped) = (m.to_bytes(), m.header_bytes());
            assert_eq!(snapped.len() + cut, full.len(), "{m:?}");
            assert_eq!(snapped, full[..snapped.len()], "{m:?}");
            assert!(full[snapped.len()..].iter().all(|&b| b == 0), "{m:?}");
            assert_eq!(Msdu::parse(&snapped).unwrap(), m);
        }
    }

    #[test]
    fn five_tuple_extraction() {
        let tcp = TcpSegment::data(1234, 80, 1000, 2000, 512);
        let ip = Ipv4Packet::tcp(
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(172, 16, 0, 1),
            tcp,
        );
        let m = Msdu::Ipv4(ip);
        let (s, sp, d, dp, proto) = m.five_tuple().unwrap();
        assert_eq!(s, Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(sp, 1234);
        assert_eq!(d, Ipv4Addr::new(172, 16, 0, 1));
        assert_eq!(dp, 80);
        assert_eq!(proto, IpProto::Tcp);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Msdu::parse(&[]).is_err());
        assert!(Msdu::parse(&[0xaa, 0xaa]).is_err());
    }
}
