//! The 16-bit Frame Control word: protocol version, type, subtype and flags.

use std::fmt;

/// The three 802.11 frame classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FrameType {
    /// Beacons, probes, (de)association, (de)authentication.
    Management,
    /// RTS, CTS, ACK.
    Control,
    /// Data frames, including NULL-data.
    Data,
}

impl FrameType {
    /// The 2-bit on-air encoding.
    pub fn code(self) -> u8 {
        match self {
            FrameType::Management => 0b00,
            FrameType::Control => 0b01,
            FrameType::Data => 0b10,
        }
    }

    /// Decodes the 2-bit type field. Code `0b11` is reserved.
    pub fn from_code(code: u8) -> Option<Self> {
        match code & 0b11 {
            0b00 => Some(FrameType::Management),
            0b01 => Some(FrameType::Control),
            0b10 => Some(FrameType::Data),
            _ => None,
        }
    }
}

/// Frame subtypes used by the Jigsaw pipeline.
///
/// The on-air encoding is `(type, subtype)`; see [`Subtype::code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subtype {
    // Management
    AssocReq,
    AssocResp,
    ReassocReq,
    ReassocResp,
    ProbeReq,
    ProbeResp,
    Beacon,
    Disassoc,
    Auth,
    Deauth,
    // Control
    Rts,
    Cts,
    Ack,
    // Data
    Data,
    NullData,
}

impl Subtype {
    /// The frame class this subtype belongs to.
    pub fn frame_type(self) -> FrameType {
        use Subtype::*;
        match self {
            AssocReq | AssocResp | ReassocReq | ReassocResp | ProbeReq | ProbeResp | Beacon
            | Disassoc | Auth | Deauth => FrameType::Management,
            Rts | Cts | Ack => FrameType::Control,
            Data | NullData => FrameType::Data,
        }
    }

    /// The 4-bit on-air subtype code.
    pub fn code(self) -> u8 {
        use Subtype::*;
        match self {
            AssocReq => 0b0000,
            AssocResp => 0b0001,
            ReassocReq => 0b0010,
            ReassocResp => 0b0011,
            ProbeReq => 0b0100,
            ProbeResp => 0b0101,
            Beacon => 0b1000,
            Disassoc => 0b1010,
            Auth => 0b1011,
            Deauth => 0b1100,
            Rts => 0b1011,
            Cts => 0b1100,
            Ack => 0b1101,
            Data => 0b0000,
            NullData => 0b0100,
        }
    }

    /// Decodes a `(type, subtype)` code pair.
    pub fn from_codes(ty: FrameType, sub: u8) -> Option<Self> {
        use Subtype::*;
        Some(match (ty, sub & 0b1111) {
            (FrameType::Management, 0b0000) => AssocReq,
            (FrameType::Management, 0b0001) => AssocResp,
            (FrameType::Management, 0b0010) => ReassocReq,
            (FrameType::Management, 0b0011) => ReassocResp,
            (FrameType::Management, 0b0100) => ProbeReq,
            (FrameType::Management, 0b0101) => ProbeResp,
            (FrameType::Management, 0b1000) => Beacon,
            (FrameType::Management, 0b1010) => Disassoc,
            (FrameType::Management, 0b1011) => Auth,
            (FrameType::Management, 0b1100) => Deauth,
            (FrameType::Control, 0b1011) => Rts,
            (FrameType::Control, 0b1100) => Cts,
            (FrameType::Control, 0b1101) => Ack,
            (FrameType::Data, 0b0000) => Data,
            (FrameType::Data, 0b0100) => NullData,
            _ => return None,
        })
    }

    /// True for subtypes that carry a sequence-control field
    /// (management and data frames; control frames do not).
    pub fn has_seq_ctrl(self) -> bool {
        self.frame_type() != FrameType::Control
    }
}

/// Decoded Frame Control flags (bits 8..15 of the FC word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FcFlags {
    /// Frame is headed into the distribution system (client → AP).
    pub to_ds: bool,
    /// Frame exits the distribution system (AP → client).
    pub from_ds: bool,
    /// More fragments of this MSDU follow.
    pub more_frag: bool,
    /// This frame is a retransmission (sequence number is reused).
    pub retry: bool,
    /// Sender will enter power-save after this exchange.
    pub pwr_mgmt: bool,
    /// AP has buffered frames for this station.
    pub more_data: bool,
    /// Frame body is encrypted (WEP/TKIP/CCMP).
    pub protected: bool,
    /// Strict ordering service requested.
    pub order: bool,
}

/// The full 16-bit Frame Control word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameControl {
    /// Always 0 on the air today.
    pub version: u8,
    /// Frame subtype (implies the type).
    pub subtype: Subtype,
    /// The eight flag bits.
    pub flags: FcFlags,
}

impl FrameControl {
    /// Builds a frame-control word with all flags clear.
    pub fn new(subtype: Subtype) -> Self {
        FrameControl {
            version: 0,
            subtype,
            flags: FcFlags::default(),
        }
    }

    /// Sets the retry bit (builder style).
    pub fn with_retry(mut self, retry: bool) -> Self {
        self.flags.retry = retry;
        self
    }

    /// Encodes to the little-endian on-air representation.
    pub fn to_u16(self) -> u16 {
        let f = self.flags;
        u16::from(self.version & 0b11)
            | (u16::from(self.subtype.frame_type().code()) << 2)
            | (u16::from(self.subtype.code()) << 4)
            | (u16::from(f.to_ds) << 8)
            | (u16::from(f.from_ds) << 9)
            | (u16::from(f.more_frag) << 10)
            | (u16::from(f.retry) << 11)
            | (u16::from(f.pwr_mgmt) << 12)
            | (u16::from(f.more_data) << 13)
            | (u16::from(f.protected) << 14)
            | (u16::from(f.order) << 15)
    }

    /// Decodes from the on-air representation.
    ///
    /// Returns `None` for reserved types/subtypes (the capture path records
    /// such frames as undecodable rather than erroring out).
    pub fn from_u16(w: u16) -> Option<Self> {
        let ty = FrameType::from_code(((w >> 2) & 0b11) as u8)?;
        let subtype = Subtype::from_codes(ty, ((w >> 4) & 0b1111) as u8)?;
        Some(FrameControl {
            version: (w & 0b11) as u8,
            subtype,
            flags: FcFlags {
                to_ds: w & (1 << 8) != 0,
                from_ds: w & (1 << 9) != 0,
                more_frag: w & (1 << 10) != 0,
                retry: w & (1 << 11) != 0,
                pwr_mgmt: w & (1 << 12) != 0,
                more_data: w & (1 << 13) != 0,
                protected: w & (1 << 14) != 0,
                order: w & (1 << 15) != 0,
            },
        })
    }
}

impl fmt::Display for FrameControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.subtype)?;
        if self.flags.retry {
            write!(f, "+retry")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_SUBTYPES: [Subtype; 15] = [
        Subtype::AssocReq,
        Subtype::AssocResp,
        Subtype::ReassocReq,
        Subtype::ReassocResp,
        Subtype::ProbeReq,
        Subtype::ProbeResp,
        Subtype::Beacon,
        Subtype::Disassoc,
        Subtype::Auth,
        Subtype::Deauth,
        Subtype::Rts,
        Subtype::Cts,
        Subtype::Ack,
        Subtype::Data,
        Subtype::NullData,
    ];

    #[test]
    fn subtype_code_roundtrip() {
        for st in ALL_SUBTYPES {
            let back = Subtype::from_codes(st.frame_type(), st.code()).unwrap();
            assert_eq!(back, st, "subtype {st:?} failed code roundtrip");
        }
    }

    #[test]
    fn fc_word_roundtrip_all_flags() {
        for st in ALL_SUBTYPES {
            for bits in 0..=0xffu16 {
                let fc = FrameControl {
                    version: 0,
                    subtype: st,
                    flags: FcFlags {
                        to_ds: bits & 1 != 0,
                        from_ds: bits & 2 != 0,
                        more_frag: bits & 4 != 0,
                        retry: bits & 8 != 0,
                        pwr_mgmt: bits & 16 != 0,
                        more_data: bits & 32 != 0,
                        protected: bits & 64 != 0,
                        order: bits & 128 != 0,
                    },
                };
                assert_eq!(FrameControl::from_u16(fc.to_u16()), Some(fc));
            }
        }
    }

    #[test]
    fn reserved_type_rejected() {
        // type code 0b11 is reserved
        let w = 0b11 << 2;
        assert_eq!(FrameControl::from_u16(w), None);
    }

    #[test]
    fn known_encodings() {
        // A plain ACK is type=control(01) subtype=1101 → 0b1101_01_00 = 0xd4.
        let ack = FrameControl::new(Subtype::Ack);
        assert_eq!(ack.to_u16().to_le_bytes()[0], 0xd4);
        // A beacon is type=mgmt(00) subtype=1000 → 0x80.
        let beacon = FrameControl::new(Subtype::Beacon);
        assert_eq!(beacon.to_u16().to_le_bytes()[0], 0x80);
        // CTS → 0xc4, RTS → 0xb4.
        assert_eq!(
            FrameControl::new(Subtype::Cts).to_u16().to_le_bytes()[0],
            0xc4
        );
        assert_eq!(
            FrameControl::new(Subtype::Rts).to_u16().to_le_bytes()[0],
            0xb4
        );
    }

    #[test]
    fn control_frames_have_no_seq_ctrl() {
        assert!(!Subtype::Ack.has_seq_ctrl());
        assert!(!Subtype::Rts.has_seq_ctrl());
        assert!(!Subtype::Cts.has_seq_ctrl());
        assert!(Subtype::Data.has_seq_ctrl());
        assert!(Subtype::Beacon.has_seq_ctrl());
    }
}
