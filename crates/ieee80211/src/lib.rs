//! # jigsaw-ieee80211
//!
//! A self-contained model of the parts of IEEE 802.11 (1999/2003, i.e. 802.11b
//! DSSS/CCK and 802.11g ERP-OFDM) that the Jigsaw measurement system
//! (SIGCOMM 2006) observes and reasons about:
//!
//! * 48-bit MAC addresses ([`MacAddr`]),
//! * the frame-control word, frame types and subtypes ([`fc`]),
//! * management / control / data frame bodies ([`frame`]),
//! * information elements carried by management frames ([`ie`]),
//! * the 32-bit frame check sequence ([`fcs`]),
//! * PHY rates and modulations for 802.11b/g ([`rate`]),
//! * 2.4 GHz channelization and spectral overlap ([`channel`]),
//! * PLCP/MAC timing: preambles, SIFS/DIFS/slot, airtime and the
//!   Duration/ID field ([`timing`]),
//! * 12-bit wrapping sequence numbers ([`seq`]),
//! * byte-exact serialization and parsing ([`wire`]), and the one MAC-header
//!   reader ([`wire::FrameHeader`]) that every snapped or corrupt capture is
//!   read through.
//!
//! The crate is deliberately synchronous and allocation-light (smoltcp-style):
//! frames are plain owned structs, parsing returns `Result` with a small error
//! enum, the header reader borrows the capture, and nothing panics on
//! untrusted input.
//!
//! ## Implemented / omitted
//!
//! Implemented: DATA (incl. NULL), ACK, RTS, CTS (incl. CTS-to-self usage),
//! BEACON, PROBE-REQ/RESP, ASSOC-REQ/RESP, REASSOC-REQ/RESP, AUTH, DEAUTH,
//! DISASSOC; SSID / Supported Rates / DS Parameter / ERP Information / TIM
//! information elements; long & short DSSS preambles; ERP-OFDM with signal
//! extension; duration arithmetic for ACK-protected and CTS-to-self-protected
//! exchanges.
//!
//! Omitted (not needed to reproduce the paper): WEP/TKIP crypto bodies
//! (the protected bit is modeled, payloads stay cleartext), QoS/802.11e,
//! fragmentation bursts (fragment numbers are carried but frames are built
//! unfragmented, as in the paper's traces), PS-Poll, 802.11a channels.

pub mod addr;
pub mod channel;
pub mod fc;
pub mod fcs;
pub mod frame;
pub mod ie;
pub mod rate;
pub mod seq;
pub mod timing;
pub mod wire;

pub use addr::MacAddr;
pub use channel::Channel;
pub use fc::{FrameControl, FrameType, Subtype};
pub use frame::{Frame, MgmtBody, MgmtHeader};
pub use rate::{Modulation, PhyRate};
pub use seq::SeqNum;
pub use wire::{parse_frame, serialize_frame, ParseError};

/// Microseconds — the universal time unit of the crate (Atheros hardware
/// timestamps at 1 µs resolution; the whole Jigsaw pipeline works in µs).
pub type Micros = u64;

/// Signed microseconds, used for clock offsets and dispersions.
pub type MicrosDelta = i64;
