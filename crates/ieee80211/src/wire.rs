//! Byte-exact serialization and parsing of 802.11 frames.
//!
//! The format follows IEEE 802.11-1999: little-endian multi-byte fields,
//! 24-byte data/management headers (no addr4 — the WDS 4-address format is
//! not used by infrastructure BSS traffic), and a trailing 4-byte FCS.
//!
//! One header reader serves every capture:
//! * [`FrameHeader::decode`] reads the MAC header of any capture, corrupt
//!   or snap-truncated ones included (no FCS check). Unification matches
//!   corrupt instances on its transmitter address (paper §4.2), and
//!   [`msdu_body`] finds a DATA frame's payload behind it;
//! * [`parse_frame`] is the full decode of an FCS-valid frame: it reads the
//!   header through [`FrameHeader`], then the body.

use crate::addr::MacAddr;
use crate::fc::{FcFlags, FrameControl, FrameType, Subtype};
use crate::fcs;
use crate::frame::{DataFrame, Frame, MgmtBody, MgmtHeader};
use crate::ie::Ie;
use crate::seq::SeqNum;
use std::fmt;

/// Errors from [`parse_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Frame shorter than its mandatory header.
    TooShort {
        /// Bytes required for the claimed frame shape.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The trailing CRC-32 does not match the body.
    BadFcs,
    /// Reserved frame type or subtype code.
    ReservedTypeSubtype {
        /// The raw frame-control word.
        fc: u16,
    },
    /// ToDS+FromDS (4-address WDS) frames are not modeled.
    WdsUnsupported,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::TooShort { needed, got } => {
                write!(f, "frame too short: need {needed} bytes, got {got}")
            }
            ParseError::BadFcs => write!(f, "FCS check failed"),
            ParseError::ReservedTypeSubtype { fc } => {
                write!(f, "reserved type/subtype in frame control {fc:#06x}")
            }
            ParseError::WdsUnsupported => write!(f, "4-address WDS frames not supported"),
        }
    }
}

impl std::error::Error for ParseError {}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_addr(out: &mut Vec<u8>, a: MacAddr) {
    out.extend_from_slice(a.bytes());
}

fn seq_ctrl(seq: SeqNum, frag: u8) -> u16 {
    (seq.value() << 4) | u16::from(frag & 0x0f)
}

/// Serializes a frame to its on-air bytes, **including** the trailing FCS.
pub fn serialize_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let fc = frame.frame_control();
    put_u16(&mut out, fc.to_u16());
    match frame {
        Frame::Data(d) => {
            put_u16(&mut out, d.duration);
            put_addr(&mut out, d.addr1);
            put_addr(&mut out, d.addr2);
            put_addr(&mut out, d.addr3);
            put_u16(&mut out, seq_ctrl(d.seq, d.frag));
            out.extend_from_slice(&d.body);
        }
        Frame::Ack { duration, ra } | Frame::Cts { duration, ra } => {
            put_u16(&mut out, *duration);
            put_addr(&mut out, *ra);
        }
        Frame::Rts { duration, ra, ta } => {
            put_u16(&mut out, *duration);
            put_addr(&mut out, *ra);
            put_addr(&mut out, *ta);
        }
        Frame::Mgmt { header, body } => {
            put_u16(&mut out, header.duration);
            put_addr(&mut out, header.da);
            put_addr(&mut out, header.sa);
            put_addr(&mut out, header.bssid);
            put_u16(&mut out, seq_ctrl(header.seq, header.frag));
            match body {
                MgmtBody::Beacon {
                    timestamp,
                    interval_tu,
                    cap,
                    ies,
                }
                | MgmtBody::ProbeResp {
                    timestamp,
                    interval_tu,
                    cap,
                    ies,
                } => {
                    put_u64(&mut out, *timestamp);
                    put_u16(&mut out, *interval_tu);
                    put_u16(&mut out, *cap);
                    Ie::write_all(ies, &mut out);
                }
                MgmtBody::ProbeReq { ies } => {
                    Ie::write_all(ies, &mut out);
                }
                MgmtBody::AssocReq {
                    cap,
                    listen_interval,
                    ies,
                } => {
                    put_u16(&mut out, *cap);
                    put_u16(&mut out, *listen_interval);
                    Ie::write_all(ies, &mut out);
                }
                MgmtBody::ReassocReq {
                    cap,
                    listen_interval,
                    current_ap,
                    ies,
                } => {
                    put_u16(&mut out, *cap);
                    put_u16(&mut out, *listen_interval);
                    put_addr(&mut out, *current_ap);
                    Ie::write_all(ies, &mut out);
                }
                MgmtBody::AssocResp {
                    cap,
                    status,
                    aid,
                    ies,
                }
                | MgmtBody::ReassocResp {
                    cap,
                    status,
                    aid,
                    ies,
                } => {
                    put_u16(&mut out, *cap);
                    put_u16(&mut out, *status);
                    put_u16(&mut out, *aid);
                    Ie::write_all(ies, &mut out);
                }
                MgmtBody::Auth {
                    algorithm,
                    auth_seq,
                    status,
                } => {
                    put_u16(&mut out, *algorithm);
                    put_u16(&mut out, *auth_seq);
                    put_u16(&mut out, *status);
                }
                MgmtBody::Deauth { reason } | MgmtBody::Disassoc { reason } => {
                    put_u16(&mut out, *reason);
                }
            }
        }
    }
    fcs::append_fcs(&mut out);
    out
}

/// Length of the data/management MAC header (no addr4): the frame body
/// starts here.
pub const DATA_HEADER_LEN: usize = 24;

/// Bytes of LLC/SNAP encapsulation that open every MSDU body.
const LLC_SNAP_LEN: usize = 8;

/// Length of the trailing frame check sequence.
const FCS_LEN: usize = 4;

/// The `N` bytes at `off`, when they were captured.
fn array_at<const N: usize>(bytes: &[u8], off: usize) -> Option<[u8; N]> {
    bytes.get(off..off.checked_add(N)?)?.try_into().ok()
}

fn le_u16(bytes: &[u8], off: usize) -> Option<u16> {
    array_at(bytes, off).map(u16::from_le_bytes)
}

fn addr_at(bytes: &[u8], off: usize) -> Option<MacAddr> {
    array_at(bytes, off).map(MacAddr)
}

/// The MAC header of a capture, read from possibly snap-truncated or
/// corrupt bytes without checking the FCS.
///
/// Every field after the frame-control word is `Some` only when its bytes
/// were captured and the subtype carries it: `addr2` (the transmitter) for
/// data, management and RTS frames; `addr3` and sequence control for data
/// and management frames. Unification attaches corrupt instances by this
/// header's transmitter (paper §4.2); attempt assembly reads snapped DATA
/// frames through it (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame subtype (implies the type).
    pub subtype: Subtype,
    /// The frame-control flag bits.
    pub flags: FcFlags,
    /// The Duration/ID field.
    pub duration: Option<u16>,
    /// Receiver address (addr1).
    pub addr1: Option<MacAddr>,
    /// Transmitter address (addr2).
    pub addr2: Option<MacAddr>,
    /// addr3: the BSSID or the far-end address, by the DS bits.
    pub addr3: Option<MacAddr>,
    /// Sequence number from sequence control.
    pub seq: Option<SeqNum>,
    /// Fragment number from sequence control.
    pub frag: Option<u8>,
}

impl FrameHeader {
    /// Decodes the header at the start of `bytes`. `None` when fewer than
    /// two bytes were captured or the type/subtype code is reserved.
    // Inlined so that a caller reading one field skips decoding the rest:
    // unification's transmitter match decodes once per corrupt candidate
    // and group.
    #[inline]
    pub fn decode(bytes: &[u8]) -> Option<FrameHeader> {
        let fc = FrameControl::from_u16(le_u16(bytes, 0)?)?;
        let addressed = fc.subtype.has_seq_ctrl();
        let seq_ctrl = le_u16(bytes, 22).filter(|_| addressed);
        Some(FrameHeader {
            subtype: fc.subtype,
            flags: fc.flags,
            duration: le_u16(bytes, 2),
            addr1: addr_at(bytes, 4),
            addr2: addr_at(bytes, 10).filter(|_| addressed || fc.subtype == Subtype::Rts),
            addr3: addr_at(bytes, 16).filter(|_| addressed),
            seq: seq_ctrl.map(|sc| SeqNum::new(sc >> 4)),
            frag: seq_ctrl.map(|sc| (sc & 0x0f) as u8),
        })
    }

    /// Is a frame with this header, `wire_len` bytes on the air (FCS
    /// included), content-unique and so usable as a time-synchronization
    /// reference (paper §4.1)? Non-retry DATA frames with a payload, and
    /// beacons and probe responses, whose 64-bit TSF timestamp differs
    /// every transmission. Never control frames (identical contents),
    /// NULL-data, or probe requests (stations that zero their sequence
    /// numbers, per the paper).
    // Inlined across crates: bootstrap and unification ask it of every
    // captured event.
    #[inline]
    pub fn is_sync_reference(&self, wire_len: usize) -> bool {
        !self.flags.retry
            && match self.subtype {
                Subtype::Data => wire_len > DATA_HEADER_LEN + FCS_LEN,
                Subtype::Beacon | Subtype::ProbeResp => true,
                _ => false,
            }
    }
}

/// The MSDU body of a DATA (not NULL-data) capture: the bytes after the
/// 24-byte header, less the trailing FCS when `has_fcs`. `None` for other
/// subtypes and for captures too short to carry the LLC/SNAP header.
pub fn msdu_body(bytes: &[u8], has_fcs: bool) -> Option<&[u8]> {
    if bytes.len() < DATA_HEADER_LEN + LLC_SNAP_LEN
        || FrameHeader::decode(bytes)?.subtype != Subtype::Data
    {
        return None;
    }
    let end = if has_fcs {
        bytes.len().saturating_sub(FCS_LEN)
    } else {
        bytes.len()
    };
    bytes.get(DATA_HEADER_LEN..end)
}

/// Reads a frame body, past the header.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], ParseError> {
        let b = array_at(self.buf, self.pos).ok_or(ParseError::TooShort {
            needed: self.pos + N,
            got: self.buf.len(),
        })?;
        self.pos += N;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, ParseError> {
        self.take().map(u16::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, ParseError> {
        self.take().map(u64::from_le_bytes)
    }

    fn addr(&mut self) -> Result<MacAddr, ParseError> {
        self.take().map(MacAddr)
    }

    fn rest(&mut self) -> &'a [u8] {
        let r = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        r
    }
}

/// Parses on-air bytes (including FCS) into a [`Frame`].
///
/// The FCS is verified first; corrupted or snapped captures yield an error
/// and are read through [`FrameHeader`] instead.
pub fn parse_frame(bytes: &[u8]) -> Result<Frame, ParseError> {
    let body = match bytes.split_last_chunk::<FCS_LEN>() {
        Some((body, _)) if bytes.len() >= 14 => body,
        _ => {
            return Err(ParseError::TooShort {
                needed: 14,
                got: bytes.len(),
            })
        }
    };
    if !fcs::check_fcs(bytes) {
        return Err(ParseError::BadFcs);
    }
    let h = FrameHeader::decode(body).ok_or_else(|| ParseError::ReservedTypeSubtype {
        fc: le_u16(body, 0).unwrap_or_default(),
    })?;
    let too_short = |needed| ParseError::TooShort {
        needed,
        got: body.len(),
    };
    let (Some(duration), Some(ra)) = (h.duration, h.addr1) else {
        return Err(too_short(10));
    };
    match h.subtype {
        Subtype::Ack => return Ok(Frame::Ack { duration, ra }),
        Subtype::Cts => return Ok(Frame::Cts { duration, ra }),
        Subtype::Rts => {
            let ta = h.addr2.ok_or(too_short(16))?;
            return Ok(Frame::Rts { duration, ra, ta });
        }
        _ => {}
    }
    if h.subtype.frame_type() == FrameType::Data && h.flags.to_ds && h.flags.from_ds {
        return Err(ParseError::WdsUnsupported);
    }
    let (Some(addr2), Some(addr3), Some(seq), Some(frag)) = (h.addr2, h.addr3, h.seq, h.frag)
    else {
        return Err(too_short(DATA_HEADER_LEN));
    };
    let mut r = Reader {
        buf: body,
        pos: DATA_HEADER_LEN,
    };
    if h.subtype.frame_type() == FrameType::Data {
        return Ok(Frame::Data(DataFrame {
            duration,
            addr1: ra,
            addr2,
            addr3,
            seq,
            frag,
            flags: h.flags,
            null: h.subtype == Subtype::NullData,
            body: r.rest().to_vec(),
        }));
    }
    let header = MgmtHeader {
        duration,
        da: ra,
        sa: addr2,
        bssid: addr3,
        seq,
        frag,
        retry: h.flags.retry,
    };
    let body = match h.subtype {
        Subtype::Beacon | Subtype::ProbeResp => {
            let timestamp = r.u64()?;
            let interval_tu = r.u16()?;
            let cap = r.u16()?;
            let ies = Ie::parse_all(r.rest());
            if h.subtype == Subtype::Beacon {
                MgmtBody::Beacon {
                    timestamp,
                    interval_tu,
                    cap,
                    ies,
                }
            } else {
                MgmtBody::ProbeResp {
                    timestamp,
                    interval_tu,
                    cap,
                    ies,
                }
            }
        }
        Subtype::ProbeReq => MgmtBody::ProbeReq {
            ies: Ie::parse_all(r.rest()),
        },
        Subtype::AssocReq => {
            let cap = r.u16()?;
            let listen_interval = r.u16()?;
            MgmtBody::AssocReq {
                cap,
                listen_interval,
                ies: Ie::parse_all(r.rest()),
            }
        }
        Subtype::ReassocReq => {
            let cap = r.u16()?;
            let listen_interval = r.u16()?;
            let current_ap = r.addr()?;
            MgmtBody::ReassocReq {
                cap,
                listen_interval,
                current_ap,
                ies: Ie::parse_all(r.rest()),
            }
        }
        Subtype::AssocResp | Subtype::ReassocResp => {
            let cap = r.u16()?;
            let status = r.u16()?;
            let aid = r.u16()?;
            let ies = Ie::parse_all(r.rest());
            if h.subtype == Subtype::AssocResp {
                MgmtBody::AssocResp {
                    cap,
                    status,
                    aid,
                    ies,
                }
            } else {
                MgmtBody::ReassocResp {
                    cap,
                    status,
                    aid,
                    ies,
                }
            }
        }
        Subtype::Auth => MgmtBody::Auth {
            algorithm: r.u16()?,
            auth_seq: r.u16()?,
            status: r.u16()?,
        },
        Subtype::Deauth => MgmtBody::Deauth { reason: r.u16()? },
        Subtype::Disassoc => MgmtBody::Disassoc { reason: r.u16()? },
        // Control and data subtypes returned above.
        _ => {
            return Err(ParseError::ReservedTypeSubtype {
                fc: le_u16(body, 0).unwrap_or_default(),
            })
        }
    };
    Ok(Frame::Mgmt { header, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fc::FcFlags;
    use crate::ie::Ie;
    use proptest::prelude::*;

    fn sample_frames() -> Vec<Frame> {
        let a = MacAddr::local(1, 1);
        let b = MacAddr::local(2, 2);
        let c = MacAddr::local(3, 3);
        vec![
            Frame::Ack { duration: 0, ra: a },
            Frame::Cts {
                duration: 312,
                ra: b,
            },
            Frame::Rts {
                duration: 500,
                ra: a,
                ta: b,
            },
            Frame::Data(DataFrame {
                duration: 44,
                addr1: a,
                addr2: b,
                addr3: c,
                seq: SeqNum::new(4095),
                frag: 3,
                flags: FcFlags {
                    to_ds: true,
                    retry: true,
                    protected: true,
                    ..Default::default()
                },
                null: false,
                body: vec![0xaa; 64],
            }),
            Frame::Data(DataFrame {
                duration: 0,
                addr1: a,
                addr2: b,
                addr3: c,
                seq: SeqNum::new(1),
                frag: 0,
                flags: FcFlags {
                    to_ds: true,
                    pwr_mgmt: true,
                    ..Default::default()
                },
                null: true,
                body: vec![],
            }),
            Frame::Mgmt {
                header: MgmtHeader::new(MacAddr::BROADCAST, a, a, SeqNum::new(77)),
                body: MgmtBody::Beacon {
                    timestamp: 0x0123_4567_89ab_cdef,
                    interval_tu: 100,
                    cap: 0x0401,
                    ies: vec![
                        Ie::Ssid(b"cse-bldg".to_vec()),
                        Ie::SupportedRates(vec![0x82, 0x84, 0x8b, 0x96]),
                        Ie::DsParam(11),
                        Ie::ErpInfo(0x03),
                    ],
                },
            },
            Frame::Mgmt {
                header: MgmtHeader::new(a, b, a, SeqNum::new(12)),
                body: MgmtBody::ProbeReq {
                    ies: vec![Ie::Ssid(vec![]), Ie::SupportedRates(vec![12, 24, 48])],
                },
            },
            Frame::Mgmt {
                header: MgmtHeader::new(b, a, a, SeqNum::new(13)),
                body: MgmtBody::ProbeResp {
                    timestamp: 42,
                    interval_tu: 100,
                    cap: 1,
                    ies: vec![Ie::Ssid(b"x".to_vec())],
                },
            },
            Frame::Mgmt {
                header: MgmtHeader::new(a, b, a, SeqNum::new(14)),
                body: MgmtBody::AssocReq {
                    cap: 0x21,
                    listen_interval: 10,
                    ies: vec![Ie::SupportedRates(vec![2, 4])],
                },
            },
            Frame::Mgmt {
                header: MgmtHeader::new(b, a, a, SeqNum::new(15)),
                body: MgmtBody::AssocResp {
                    cap: 0x21,
                    status: 0,
                    aid: 0xc001,
                    ies: vec![],
                },
            },
            Frame::Mgmt {
                header: MgmtHeader::new(a, b, a, SeqNum::new(16)),
                body: MgmtBody::ReassocReq {
                    cap: 0x21,
                    listen_interval: 10,
                    current_ap: c,
                    ies: vec![],
                },
            },
            Frame::Mgmt {
                header: MgmtHeader::new(b, a, a, SeqNum::new(17)),
                body: MgmtBody::ReassocResp {
                    cap: 0x21,
                    status: 0,
                    aid: 0xc002,
                    ies: vec![],
                },
            },
            Frame::Mgmt {
                header: MgmtHeader::new(a, b, a, SeqNum::new(18)),
                body: MgmtBody::Auth {
                    algorithm: 0,
                    auth_seq: 1,
                    status: 0,
                },
            },
            Frame::Mgmt {
                header: MgmtHeader::new(a, b, a, SeqNum::new(19)),
                body: MgmtBody::Deauth { reason: 3 },
            },
            Frame::Mgmt {
                header: MgmtHeader::new(a, b, a, SeqNum::new(20)),
                body: MgmtBody::Disassoc { reason: 8 },
            },
        ]
    }

    #[test]
    fn roundtrip_all_sample_frames() {
        for f in sample_frames() {
            let bytes = serialize_frame(&f);
            let back = parse_frame(&bytes).unwrap_or_else(|e| panic!("{f:?}: {e}"));
            assert_eq!(back, f);
        }
    }

    #[test]
    fn corrupted_fcs_rejected() {
        for f in sample_frames() {
            let mut bytes = serialize_frame(&f);
            let n = bytes.len();
            bytes[n / 2] ^= 0xff;
            assert_eq!(parse_frame(&bytes), Err(ParseError::BadFcs));
        }
    }

    #[test]
    fn ack_is_14_bytes() {
        let bytes = serialize_frame(&Frame::Ack {
            duration: 0,
            ra: MacAddr::local(1, 1),
        });
        assert_eq!(bytes.len(), crate::timing::ACK_FRAME_LEN);
    }

    #[test]
    fn rts_is_20_bytes() {
        let bytes = serialize_frame(&Frame::Rts {
            duration: 0,
            ra: MacAddr::local(1, 1),
            ta: MacAddr::local(2, 2),
        });
        assert_eq!(bytes.len(), crate::timing::RTS_FRAME_LEN);
    }

    /// What a header decoded from the first `n` bytes holds of `field`,
    /// whose bytes end at offset `end`.
    fn fits<T>(n: usize, end: usize, field: Option<T>) -> Option<T> {
        field.filter(|_| n >= end)
    }

    /// Asserts the header agrees with the owned frame it was parsed into.
    fn assert_header_matches(h: &FrameHeader, f: &Frame) {
        assert_eq!(h.subtype, f.subtype());
        assert_eq!(h.addr2, f.transmitter());
        assert_eq!(h.addr1, Some(f.receiver()));
        assert_eq!(h.seq, f.seq());
        // addr3 rides with sequence control: data and management frames.
        assert_eq!(h.addr3.is_some(), f.seq().is_some());
        // The owned control frames carry no flags.
        assert_eq!(h.flags.retry && h.subtype.has_seq_ctrl(), f.retry());
        assert_eq!(h.duration, Some(f.duration()));
    }

    #[test]
    fn header_fields_present_exactly_when_captured() {
        for f in sample_frames() {
            let bytes = serialize_frame(&f);
            let full = FrameHeader::decode(&bytes).expect("sample frame decodes");
            assert_header_matches(&full, &f);
            for n in 0..=bytes.len() {
                let Some(h) = FrameHeader::decode(&bytes[..n]) else {
                    assert!(n < 2, "{f:?} cut at {n}");
                    continue;
                };
                let snapped = FrameHeader {
                    duration: fits(n, 4, full.duration),
                    addr1: fits(n, 10, full.addr1),
                    addr2: fits(n, 16, full.addr2),
                    addr3: fits(n, 22, full.addr3),
                    seq: fits(n, 24, full.seq),
                    frag: fits(n, 24, full.frag),
                    ..full
                };
                assert_eq!(h, snapped, "{f:?} cut at {n}");
            }
        }
    }

    #[test]
    fn peek_transmitter_on_truncated_data() {
        let f = Frame::Data(DataFrame {
            duration: 44,
            addr1: MacAddr::local(1, 1),
            addr2: MacAddr::local(2, 7),
            addr3: MacAddr::local(3, 3),
            seq: SeqNum::new(5),
            frag: 0,
            flags: FcFlags::default(),
            null: false,
            body: vec![0; 100],
        });
        let bytes = serialize_frame(&f);
        // Keep 16 bytes: addr2 is complete at offset 10..16.
        let h = FrameHeader::decode(&bytes[..16]).unwrap();
        assert_eq!(h.subtype, Subtype::Data);
        assert_eq!(h.addr2, Some(MacAddr::local(2, 7)));
        // Cut inside addr2 → no transmitter recoverable.
        assert_eq!(FrameHeader::decode(&bytes[..12]).unwrap().addr2, None);
    }

    #[test]
    fn peek_transmitter_ack_has_none() {
        let bytes = serialize_frame(&Frame::Ack {
            duration: 0,
            ra: MacAddr::local(1, 1),
        });
        let h = FrameHeader::decode(&bytes).unwrap();
        assert_eq!(h.subtype, Subtype::Ack);
        assert_eq!(h.addr2, None);
    }

    #[test]
    fn short_garbage_rejected() {
        assert!(parse_frame(&[]).is_err());
        assert!(parse_frame(&[0xd4, 0x00]).is_err());
        assert_eq!(FrameHeader::decode(&[0xd4]), None);
    }

    proptest! {
        /// Any byte soup either parses to a frame that re-serializes to the
        /// identical bytes, or fails cleanly — never panics.
        #[test]
        fn parse_never_panics_and_reserializes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(frame) = parse_frame(&bytes) {
                // Round-trip: the canonical serialization must match the
                // original bytes exactly (there is no redundancy in the
                // format we accept).
                prop_assert_eq!(serialize_frame(&frame), bytes);
            }
        }

        /// The header never panics on any capture, and agrees with every
        /// frame that parses. A valid FCS is appended so that inputs with a
        /// known type/subtype and enough bytes parse.
        #[test]
        fn header_agrees_with_parse(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = FrameHeader::decode(&bytes);
            let mut framed = bytes;
            fcs::append_fcs(&mut framed);
            let h = FrameHeader::decode(&framed);
            if let Ok(frame) = parse_frame(&framed) {
                assert_header_matches(&h.expect("a parsed frame has a header"), &frame);
            }
        }

        #[test]
        fn data_roundtrip(body in proptest::collection::vec(any::<u8>(), 0..1500),
                          seq in 0u16..4096, frag in 0u8..16,
                          dur in any::<u16>(), retry: bool, to_ds: bool) {
            let f = Frame::Data(DataFrame {
                duration: dur,
                addr1: MacAddr::local(1, 1),
                addr2: MacAddr::local(2, 2),
                addr3: MacAddr::local(3, 3),
                seq: SeqNum::new(seq),
                frag,
                flags: FcFlags { retry, to_ds, from_ds: !to_ds, ..Default::default() },
                null: false,
                body,
            });
            let bytes = serialize_frame(&f);
            prop_assert_eq!(parse_frame(&bytes).unwrap(), f);
        }
    }
}
