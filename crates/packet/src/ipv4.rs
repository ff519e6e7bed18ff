//! IPv4 packets (20-byte header, no options, DF always set).

use crate::checksum::Checksum;
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use crate::PacketError;
use std::net::Ipv4Addr;

/// IP protocol numbers the pipeline distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
}

impl IpProto {
    /// The protocol field value.
    pub fn number(self) -> u8 {
        match self {
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
        }
    }
}

/// Transport payload of an IPv4 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpPayload {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// Any other protocol, length-only.
    Other {
        /// IP protocol number.
        proto: u8,
        /// Payload length in bytes.
        len: u16,
    },
}

impl IpPayload {
    /// On-wire length of the transport payload.
    pub fn wire_len(&self) -> usize {
        match self {
            IpPayload::Tcp(t) => t.wire_len(),
            IpPayload::Udp(u) => u.wire_len(),
            IpPayload::Other { len, .. } => usize::from(*len),
        }
    }

    /// On-wire length of the transport header alone: [`Self::wire_len`] less
    /// the zero-filled payload bytes `write` appends after it.
    pub fn header_len(&self) -> usize {
        match self {
            IpPayload::Tcp(t) => t.header_len(),
            IpPayload::Udp(u) => u.wire_len() - usize::from(u.payload_len),
            IpPayload::Other { .. } => 0,
        }
    }

    fn proto_number(&self) -> u8 {
        match self {
            IpPayload::Tcp(_) => 6,
            IpPayload::Udp(_) => 17,
            IpPayload::Other { proto, .. } => *proto,
        }
    }
}

/// An IPv4 packet with one of the modeled transport payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Packet {
    /// Identification field (used by some dedup heuristics).
    pub id: u16,
    /// Time to live.
    pub ttl: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport payload.
    pub payload: IpPayload,
}

/// IPv4 header length (no options).
pub const IPV4_HEADER_LEN: usize = 20;

impl Ipv4Packet {
    /// Wraps a TCP segment.
    pub fn tcp(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> Self {
        Ipv4Packet {
            id: 0,
            ttl: 64,
            src,
            dst,
            payload: IpPayload::Tcp(seg),
        }
    }

    /// Wraps a UDP datagram.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, d: UdpDatagram) -> Self {
        Ipv4Packet {
            id: 0,
            ttl: 64,
            src,
            dst,
            payload: IpPayload::Udp(d),
        }
    }

    /// Total on-wire length including the IP header.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.wire_len()
    }

    /// Serializes the packet (header checksum computed; DF set).
    pub fn write(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let total_len = self.wire_len() as u16;
        out.push(0x45); // version 4, IHL 5
        out.push(0); // DSCP/ECN
        out.extend_from_slice(&total_len.to_be_bytes());
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&0x4000u16.to_be_bytes()); // flags: DF
        out.push(self.ttl);
        out.push(self.payload.proto_number());
        out.extend_from_slice(&[0, 0]); // header checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        let sum = {
            let mut ck = Checksum::new();
            ck.add_bytes(&out[start..start + IPV4_HEADER_LEN]);
            ck.finish()
        };
        out[start + 10] = (sum >> 8) as u8;
        out[start + 11] = sum as u8;
        match &self.payload {
            IpPayload::Tcp(t) => t.write(out, self.src, self.dst),
            IpPayload::Udp(u) => u.write(out, self.src, self.dst),
            IpPayload::Other { len, .. } => out.resize(out.len() + usize::from(*len), 0),
        }
    }

    /// Parses an IPv4 packet. `bytes` may be snap-truncated below the IP
    /// header; the header's total-length field determines true payload sizes.
    pub fn parse(bytes: &[u8]) -> Result<Self, PacketError> {
        if bytes.len() < IPV4_HEADER_LEN {
            return Err(PacketError::Truncated {
                layer: "ipv4",
                needed: IPV4_HEADER_LEN,
                got: bytes.len(),
            });
        }
        if bytes[0] >> 4 != 4 {
            return Err(PacketError::Unsupported { what: "ip version" });
        }
        let ihl = usize::from(bytes[0] & 0x0f) * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(PacketError::Unsupported { what: "ip options" });
        }
        // Header checksum must verify whenever the full header is present.
        let mut ck = Checksum::new();
        ck.add_bytes(&bytes[..IPV4_HEADER_LEN]);
        if ck.finish() != 0 {
            return Err(PacketError::BadChecksum { layer: "ipv4" });
        }
        let total_len = usize::from(u16::from_be_bytes([bytes[2], bytes[3]]));
        if total_len < ihl {
            return Err(PacketError::Unsupported {
                what: "ip total length < header",
            });
        }
        let id = u16::from_be_bytes([bytes[4], bytes[5]]);
        let ttl = bytes[8];
        let proto = bytes[9];
        let src = Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]);
        let dst = Ipv4Addr::new(bytes[16], bytes[17], bytes[18], bytes[19]);
        let transport_wire_len = total_len - ihl;
        let avail = &bytes[IPV4_HEADER_LEN..bytes.len().min(IPV4_HEADER_LEN + transport_wire_len)];
        let payload = match proto {
            6 => IpPayload::Tcp(TcpSegment::parse(avail, transport_wire_len)?),
            17 => IpPayload::Udp(UdpDatagram::parse(avail)?),
            other => IpPayload::Other {
                proto: other,
                len: transport_wire_len as u16,
            },
        };
        Ok(Ipv4Packet {
            id,
            ttl,
            src,
            dst,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 5, 5, 5);
    const DST: Ipv4Addr = Ipv4Addr::new(128, 32, 1, 1);

    #[test]
    fn tcp_roundtrip() {
        let p = Ipv4Packet::tcp(SRC, DST, TcpSegment::data(5000, 80, 1, 1, 1000));
        let mut buf = Vec::new();
        p.write(&mut buf);
        assert_eq!(buf.len(), p.wire_len());
        assert_eq!(Ipv4Packet::parse(&buf).unwrap(), p);
    }

    #[test]
    fn udp_roundtrip() {
        let p = Ipv4Packet::udp(SRC, DST, UdpDatagram::new(2222, 2222, 90));
        let mut buf = Vec::new();
        p.write(&mut buf);
        assert_eq!(Ipv4Packet::parse(&buf).unwrap(), p);
    }

    #[test]
    fn other_proto_roundtrip() {
        let p = Ipv4Packet {
            id: 77,
            ttl: 3,
            src: SRC,
            dst: DST,
            payload: IpPayload::Other { proto: 1, len: 64 },
        };
        let mut buf = Vec::new();
        p.write(&mut buf);
        assert_eq!(Ipv4Packet::parse(&buf).unwrap(), p);
    }

    #[test]
    fn snap_truncation_recovers_headers() {
        // A 1460-byte TCP segment snapped at 64 bytes of IP payload.
        let p = Ipv4Packet::tcp(SRC, DST, TcpSegment::data(5000, 80, 900, 1, 1460));
        let mut buf = Vec::new();
        p.write(&mut buf);
        let snapped = &buf[..IPV4_HEADER_LEN + 64];
        assert_eq!(Ipv4Packet::parse(snapped).unwrap(), p);
    }

    #[test]
    fn header_corruption_detected() {
        let p = Ipv4Packet::udp(SRC, DST, UdpDatagram::new(1, 2, 3));
        let mut buf = Vec::new();
        p.write(&mut buf);
        buf[8] ^= 0xff; // ttl
        assert_eq!(
            Ipv4Packet::parse(&buf),
            Err(PacketError::BadChecksum { layer: "ipv4" })
        );
    }

    #[test]
    fn version_check() {
        let mut buf = vec![0x65; 20];
        assert!(matches!(
            Ipv4Packet::parse(&buf),
            Err(PacketError::Unsupported { .. })
        ));
        buf[0] = 0x46; // v4 but IHL 6 (options)
        assert!(matches!(
            Ipv4Packet::parse(&buf),
            Err(PacketError::Unsupported { .. })
        ));
    }
}
