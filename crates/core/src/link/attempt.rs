//! Transmission-attempt assembly (paper §5.1, left side of Figure 5).
//!
//! Groups one to three jframes — an optional CTS-to-self, the DATA (or
//! management) frame, and the trailing ACK — into a single *transmission
//! attempt*. The Duration field carried by CTS and DATA frames bounds the
//! future instant by which the ACK must have arrived, which prevents an ACK
//! for a *missing* DATA frame from being glued to an earlier one.
//!
//! Attempts whose DATA frame the monitors never captured are *inferred*
//! from an orphaned CTS/ACK pair (or a bare orphaned ACK): the receiver
//! plainly acknowledged something.

use crate::jframe::JFrame;
use jigsaw_ieee80211::timing::{ack_airtime_us, SIFS_US, SLOT_US};
use jigsaw_ieee80211::wire::FrameHeader;
use jigsaw_ieee80211::{MacAddr, Micros, PhyRate, SeqNum, Subtype};
use jigsaw_trace::Payload;
// tidy:allow-file(hash-order): the pending map is keyed lookup; expirations are collected and sorted by (ts, key) before emission
use std::collections::HashMap;

/// Outcome of a transmission attempt at the link layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The trailing ACK was observed.
    Acked,
    /// No ACK observed — lost, or simply not captured (ambiguous until the
    /// transport layer weighs in).
    NoAckSeen,
    /// Group-addressed frame: no ACK is ever expected.
    NoAckExpected,
}

/// One transmission attempt.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Transmitter (None only for pathological inferred attempts).
    pub transmitter: Option<MacAddr>,
    /// Addressed receiver, if knowable.
    pub receiver: Option<MacAddr>,
    /// Universal time of the DATA frame's payload start (or of the inferred
    /// position for missing DATA).
    pub ts: Micros,
    /// Universal time the DATA frame left the air.
    pub end_ts: Micros,
    /// PHY rate of the DATA frame.
    pub rate: PhyRate,
    /// 802.11 sequence number (None for inferred/control-only attempts).
    pub seq: Option<SeqNum>,
    /// Retry bit of the DATA frame.
    pub retry: bool,
    /// Subtype of the DATA frame (Data for inferred attempts).
    pub subtype: Subtype,
    /// A CTS-to-self preceded the data (802.11g protection).
    pub protected: bool,
    /// Outcome.
    pub outcome: AttemptOutcome,
    /// The DATA frame was never captured; presence inferred.
    pub inferred_data: bool,
    /// On-air length of the DATA frame (0 when inferred).
    pub wire_len: u32,
    /// Captured bytes of the DATA frame (possibly snapped; empty if
    /// inferred). A shared [`Payload`] handle cloned from the jframe.
    pub bytes: Payload,
    /// True if the DATA frame capture was FCS-valid and complete enough to
    /// parse.
    pub data_valid: bool,
    /// Instance count of the DATA jframe (coverage bookkeeping).
    pub instance_count: usize,
}

impl Attempt {
    /// Whether the attempt was positively acknowledged.
    pub fn acked(&self) -> bool {
        self.outcome == AttemptOutcome::Acked
    }
}

/// How long after its deadline an attempt lingers before being flushed.
const FLUSH_SLACK_US: Micros = 2_000;
/// Extra tolerance on ACK arrival relative to the Duration-field deadline.
const ACK_SLACK_US: Micros = 3 * SLOT_US;
/// The DATA stage must start within SIFS plus this of its CTS end.
const CTS_DATA_GAP_US: Micros = 200;

#[derive(Debug)]
struct PendingData {
    attempt: Attempt,
    ack_deadline: Micros,
}

#[derive(Debug, Clone, Copy)]
struct PendingCts {
    end_ts: Micros,
    covered_until: Micros,
}

/// Counters for attempt assembly.
#[derive(Debug, Clone, Default)]
pub struct AttemptStats {
    /// Attempts emitted.
    pub attempts: u64,
    /// Attempts with protection (CTS-to-self observed).
    pub protected: u64,
    /// Attempts whose DATA frame was inferred from CTS/ACK evidence.
    pub inferred: u64,
    /// Orphan CTS frames that never matched anything.
    pub orphan_cts: u64,
    /// Error jframes skipped.
    pub error_jframes: u64,
}

/// Streaming assembler: feed time-ordered jframes, receive attempts.
#[derive(Debug, Default)]
pub struct AttemptAssembler {
    pending_data: HashMap<MacAddr, PendingData>,
    pending_cts: HashMap<MacAddr, PendingCts>,
    /// Attempt assembly statistics.
    pub stats: AttemptStats,
}

impl AttemptAssembler {
    /// Creates an assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next jframe; completed attempts are appended to `out`.
    pub fn push(&mut self, jf: &JFrame, out: &mut Vec<Attempt>) {
        let now = jf.ts;
        self.flush_expired(now, out);

        if !jf.valid {
            self.stats.error_jframes += 1;
            return;
        }
        // CTS and ACK are acted on only when they parse; DATA and
        // management frames are read from the header, snapped or not.
        let parsed = jf.parse().is_some();
        let Some(h) = jf.header() else { return };
        match (h.subtype, h.duration, h.addr1) {
            (Subtype::Cts, Some(duration), Some(ra)) if parsed => {
                // CTS-to-self (or RTS response): `ra` is the upcoming data
                // transmitter.
                self.pending_cts.insert(
                    ra,
                    PendingCts {
                        end_ts: jf.end_ts(),
                        covered_until: jf.end_ts() + Micros::from(duration) + ACK_SLACK_US,
                    },
                );
            }
            (Subtype::Ack, _, Some(ra)) if parsed => {
                self.handle_ack(ra, jf.ts, out);
            }
            // RTS (not generated by the modeled network; NAV-only), and a
            // CTS or ACK that does not parse.
            (Subtype::Rts | Subtype::Cts | Subtype::Ack, ..) => {}
            _ => self.push_data(jf, &h, parsed, out),
        }
    }

    /// End of stream: flush everything.
    pub fn finish(&mut self, out: &mut Vec<Attempt>) {
        self.flush_expired(Micros::MAX, out);
    }

    fn flush_expired(&mut self, now: Micros, out: &mut Vec<Attempt>) {
        let mut expired: Vec<MacAddr> = self
            .pending_data
            .iter()
            .filter(|(_, p)| now.saturating_sub(FLUSH_SLACK_US) > p.ack_deadline)
            .map(|(k, _)| *k)
            .collect();
        // Deterministic emission order (attempt time, then address).
        expired.sort_by_key(|k| (self.pending_data[k].attempt.ts, k.to_u64()));
        for k in expired {
            let p = self.pending_data.remove(&k).expect("present");
            self.stats.attempts += 1;
            out.push(p.attempt);
        }
        let stale: Vec<MacAddr> = self
            .pending_cts
            .iter()
            .filter(|(_, c)| now.saturating_sub(FLUSH_SLACK_US) > c.covered_until)
            .map(|(k, _)| *k)
            .collect();
        for k in stale {
            self.pending_cts.remove(&k);
            self.stats.orphan_cts += 1;
        }
    }

    fn take_protection(&mut self, transmitter: MacAddr, data_ts: Micros) -> bool {
        if let Some(c) = self.pending_cts.get(&transmitter).copied() {
            // The DATA must start within SIFS(+slack) of the CTS end.
            if data_ts >= c.end_ts && data_ts <= c.end_ts + SIFS_US + CTS_DATA_GAP_US {
                self.pending_cts.remove(&transmitter);
                return true;
            }
        }
        false
    }

    /// The data path, for complete and snap-truncated frames alike.
    /// `data_valid` says whether the frame parsed.
    fn push_data(
        &mut self,
        jf: &JFrame,
        h: &FrameHeader,
        data_valid: bool,
        out: &mut Vec<Attempt>,
    ) {
        let protected = h
            .addr2
            .map(|t| self.take_protection(t, jf.ts))
            .unwrap_or(false);
        if protected {
            self.stats.protected += 1;
        }
        let group = h.addr1.is_some_and(|r| r.is_multicast());
        let attempt = Attempt {
            transmitter: h.addr2,
            receiver: h.addr1,
            ts: jf.ts,
            end_ts: jf.end_ts(),
            rate: jf.rate,
            seq: h.seq,
            retry: h.flags.retry,
            subtype: h.subtype,
            protected,
            outcome: if group {
                AttemptOutcome::NoAckExpected
            } else {
                AttemptOutcome::NoAckSeen
            },
            inferred_data: false,
            wire_len: jf.wire_len,
            bytes: jf.bytes.handle(),
            data_valid,
            instance_count: jf.instance_count(),
        };
        let Some(t) = h.addr2.filter(|_| !group) else {
            self.stats.attempts += 1;
            out.push(attempt);
            return;
        };
        // One outstanding unicast attempt per transmitter.
        if let Some(prev) = self.pending_data.remove(&t) {
            self.stats.attempts += 1;
            out.push(prev.attempt);
        }
        // ACK must complete by data_end + Duration (+slack); fall back to
        // SIFS + ACK airtime when the Duration field is implausible.
        let dur = match h.duration {
            Some(d) if d > 0 && d < 33_000 => Micros::from(d),
            _ => SIFS_US + ack_airtime_us(attempt.rate, jigsaw_ieee80211::timing::Preamble::Long),
        };
        let ack_deadline = attempt.end_ts + dur + ACK_SLACK_US;
        self.pending_data.insert(
            t,
            PendingData {
                attempt,
                ack_deadline,
            },
        );
    }

    fn handle_ack(&mut self, ra: MacAddr, ack_ts: Micros, out: &mut Vec<Attempt>) {
        if let Some(mut p) = self.pending_data.remove(&ra) {
            // Timing check via the Duration field: the ACK must fall inside
            // the window the DATA frame reserved.
            if ack_ts + ACK_SLACK_US >= p.attempt.end_ts && ack_ts <= p.ack_deadline {
                p.attempt.outcome = AttemptOutcome::Acked;
                self.stats.attempts += 1;
                out.push(p.attempt);
                return;
            }
            // Out-of-window ACK: emit the data attempt un-acked, and treat
            // the ACK as orphaned evidence below.
            self.stats.attempts += 1;
            out.push(p.attempt);
        }
        // Orphan ACK — the DATA frame is missing from the trace. Check for
        // an orphaned CTS from the same station (protected exchange whose
        // DATA we missed), else infer a bare attempt (paper: "deduce the
        // presence ... of missing data").
        let (ts, protected) = match self.pending_cts.remove(&ra) {
            Some(c) if ack_ts <= c.covered_until => (c.end_ts + SIFS_US, true),
            Some(_) | None => (ack_ts.saturating_sub(SIFS_US + 200), false),
        };
        self.stats.attempts += 1;
        self.stats.inferred += 1;
        if protected {
            self.stats.protected += 1;
        }
        out.push(Attempt {
            transmitter: Some(ra),
            receiver: None,
            ts,
            end_ts: ack_ts.saturating_sub(SIFS_US),
            rate: PhyRate::R11,
            seq: None,
            retry: false,
            subtype: Subtype::Data,
            protected,
            outcome: AttemptOutcome::Acked,
            inferred_data: true,
            wire_len: 0,
            bytes: Payload::empty(),
            data_valid: false,
            instance_count: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jframe::JFrame;
    use jigsaw_ieee80211::fc::FcFlags;
    use jigsaw_ieee80211::frame::{DataFrame, Frame};
    use jigsaw_ieee80211::timing::{duration_cts_to_self, duration_data_ack, Preamble};
    use jigsaw_ieee80211::wire::serialize_frame;

    fn jframe_of(frame: &Frame, ts: Micros, rate: PhyRate) -> JFrame {
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

    fn data_frame(seq: u16, retry: bool, rate: PhyRate) -> Frame {
        Frame::Data(DataFrame {
            duration: duration_data_ack(rate, Preamble::Long),
            addr1: MacAddr::local(0, 1), // AP
            addr2: MacAddr::local(3, 7), // client
            addr3: MacAddr::local(9, 1),
            seq: SeqNum::new(seq),
            frag: 0,
            flags: FcFlags {
                to_ds: true,
                retry,
                ..Default::default()
            },
            null: false,
            body: vec![0xab; 100],
        })
    }

    fn ack_to(ra: MacAddr) -> Frame {
        Frame::Ack { duration: 0, ra }
    }

    #[test]
    fn data_plus_ack_forms_acked_attempt() {
        let mut asm = AttemptAssembler::new();
        let mut out = Vec::new();
        let d = data_frame(5, false, PhyRate::R11);
        let dj = jframe_of(&d, 10_000, PhyRate::R11);
        let data_end = dj.end_ts();
        asm.push(&dj, &mut out);
        assert!(out.is_empty(), "attempt must wait for the ACK window");
        let aj = jframe_of(
            &ack_to(MacAddr::local(3, 7)),
            data_end + SIFS_US + 5,
            PhyRate::R2,
        );
        asm.push(&aj, &mut out);
        assert_eq!(out.len(), 1);
        let a = &out[0];
        assert_eq!(a.outcome, AttemptOutcome::Acked);
        assert_eq!(a.transmitter, Some(MacAddr::local(3, 7)));
        assert_eq!(a.seq, Some(SeqNum::new(5)));
        assert!(!a.inferred_data);
        assert!(!a.protected);
    }

    #[test]
    fn missing_ack_flushes_unacked() {
        let mut asm = AttemptAssembler::new();
        let mut out = Vec::new();
        let d = data_frame(6, false, PhyRate::R11);
        asm.push(&jframe_of(&d, 10_000, PhyRate::R11), &mut out);
        // A later unrelated frame pushes time past the deadline.
        let far = jframe_of(
            &data_frame(1000, false, PhyRate::R11),
            200_000,
            PhyRate::R11,
        );
        asm.push(&far, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].outcome, AttemptOutcome::NoAckSeen);
        asm.finish(&mut out);
        assert_eq!(out.len(), 2); // the far frame flushes at finish
    }

    #[test]
    fn cts_data_ack_protected_attempt() {
        let mut asm = AttemptAssembler::new();
        let mut out = Vec::new();
        let tx = MacAddr::local(3, 7);
        let rate = PhyRate::R54;
        let d = data_frame(9, false, rate);
        let dlen = serialize_frame(&d).len();
        let cts = Frame::Cts {
            duration: duration_cts_to_self(rate, dlen, Preamble::Long),
            ra: tx,
        };
        let cj = jframe_of(&cts, 5_000, PhyRate::R2);
        let cts_end = cj.end_ts();
        asm.push(&cj, &mut out);
        let dj = jframe_of(&d, cts_end + SIFS_US, rate);
        let data_end = dj.end_ts();
        asm.push(&dj, &mut out);
        let aj = jframe_of(&ack_to(tx), data_end + SIFS_US, PhyRate::R24);
        asm.push(&aj, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].protected, "CTS-to-self not linked");
        assert_eq!(out[0].outcome, AttemptOutcome::Acked);
        assert_eq!(asm.stats.protected, 1);
    }

    #[test]
    fn broadcast_is_immediate_no_ack_expected() {
        let mut asm = AttemptAssembler::new();
        let mut out = Vec::new();
        let mut d = data_frame(3, false, PhyRate::R1);
        if let Frame::Data(df) = &mut d {
            df.addr1 = MacAddr::BROADCAST;
            df.duration = 0;
            df.flags.to_ds = false;
            df.flags.from_ds = true;
        }
        asm.push(&jframe_of(&d, 1_000, PhyRate::R1), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].outcome, AttemptOutcome::NoAckExpected);
    }

    #[test]
    fn orphan_ack_infers_missing_data() {
        let mut asm = AttemptAssembler::new();
        let mut out = Vec::new();
        let tx = MacAddr::local(3, 9);
        asm.push(&jframe_of(&ack_to(tx), 50_000, PhyRate::R2), &mut out);
        assert_eq!(out.len(), 1);
        let a = &out[0];
        assert!(a.inferred_data);
        assert_eq!(a.outcome, AttemptOutcome::Acked);
        assert_eq!(a.transmitter, Some(tx));
        assert_eq!(asm.stats.inferred, 1);
    }

    #[test]
    fn orphan_cts_plus_ack_infers_protected_data() {
        let mut asm = AttemptAssembler::new();
        let mut out = Vec::new();
        let tx = MacAddr::local(3, 2);
        let cts = Frame::Cts {
            duration: 600,
            ra: tx,
        };
        let cj = jframe_of(&cts, 5_000, PhyRate::R2);
        asm.push(&cj, &mut out);
        // DATA missing; ACK arrives inside the CTS reservation.
        let aj = jframe_of(&ack_to(tx), cj.end_ts() + 500, PhyRate::R2);
        asm.push(&aj, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].inferred_data);
        assert!(out[0].protected);
    }

    #[test]
    fn ack_for_different_station_does_not_match() {
        let mut asm = AttemptAssembler::new();
        let mut out = Vec::new();
        let d = data_frame(4, false, PhyRate::R11);
        let dj = jframe_of(&d, 10_000, PhyRate::R11);
        asm.push(&dj, &mut out);
        // ACK addressed to someone else entirely.
        let aj = jframe_of(
            &ack_to(MacAddr::local(5, 5)),
            dj.end_ts() + SIFS_US,
            PhyRate::R2,
        );
        asm.push(&aj, &mut out);
        // That ACK spawns an inferred attempt; our data is still pending.
        assert_eq!(out.len(), 1);
        assert!(out[0].inferred_data);
        asm.finish(&mut out);
        assert_eq!(out.len(), 2);
        let ours = out
            .iter()
            .find(|a| a.transmitter == Some(MacAddr::local(3, 7)))
            .unwrap();
        assert_eq!(ours.outcome, AttemptOutcome::NoAckSeen);
    }

    #[test]
    fn late_ack_not_glued_to_stale_data() {
        // An ACK arriving long after the Duration window must NOT be paired
        // with this data frame.
        let mut asm = AttemptAssembler::new();
        let mut out = Vec::new();
        let d = data_frame(8, false, PhyRate::R11);
        let dj = jframe_of(&d, 10_000, PhyRate::R11);
        let deadline = dj.end_ts()
            + Micros::from(duration_data_ack(PhyRate::R11, Preamble::Long))
            + ACK_SLACK_US;
        asm.push(&dj, &mut out);
        let late = jframe_of(
            &ack_to(MacAddr::local(3, 7)),
            deadline + FLUSH_SLACK_US + 1_000,
            PhyRate::R2,
        );
        asm.push(&late, &mut out);
        // Our attempt flushed un-acked; the late ACK became inferred.
        assert_eq!(out.len(), 2);
        let ours = out.iter().find(|a| !a.inferred_data).expect("real attempt");
        assert_eq!(ours.outcome, AttemptOutcome::NoAckSeen);
        assert!(out.iter().any(|a| a.inferred_data));
    }

    #[test]
    fn snapped_data_recovered_loosely() {
        // A complete DATA frame and its snap-truncated twin take the one
        // data path: only `data_valid` (and the captured bytes) differ.
        let attempt_of = |jf: &JFrame| {
            let mut asm = AttemptAssembler::new();
            let mut out = Vec::new();
            asm.push(jf, &mut out);
            asm.push(
                &jframe_of(
                    &ack_to(MacAddr::local(3, 7)),
                    jf.end_ts() + SIFS_US,
                    PhyRate::R2,
                ),
                &mut out,
            );
            assert_eq!(out.len(), 1);
            out.remove(0)
        };
        let d = data_frame(12, false, PhyRate::R11);
        let complete = jframe_of(&d, 10_000, PhyRate::R11);
        let mut snapped = complete.clone();
        snapped.bytes = serialize_frame(&d)[..60].into(); // snapped below FCS
        let whole = attempt_of(&complete);
        let mut loose = attempt_of(&snapped);
        assert!(whole.data_valid && !loose.data_valid);
        assert_eq!(loose.transmitter, Some(MacAddr::local(3, 7)));
        assert_eq!(loose.seq, Some(SeqNum::new(12)));
        assert_eq!(loose.outcome, AttemptOutcome::Acked);
        assert!(whole.bytes.starts_with(&loose.bytes));
        loose.data_valid = true;
        loose.bytes = whole.bytes.handle();
        assert_eq!(format!("{loose:?}"), format!("{whole:?}"));
    }

    #[test]
    fn error_jframes_counted_not_processed() {
        let mut asm = AttemptAssembler::new();
        let mut out = Vec::new();
        let jf = JFrame {
            ts: 1,
            bytes: vec![0xff; 10].into(),
            wire_len: 10,
            rate: PhyRate::R1,
            channel: jigsaw_ieee80211::Channel::of(1),
            instances: Default::default(),
            dispersion: 0,
            valid: false,
            unique: false,
        };
        asm.push(&jf, &mut out);
        assert!(out.is_empty());
        assert_eq!(asm.stats.error_jframes, 1);
    }
}
