//! TCP flow reconstruction from frame exchanges (paper §5.2).
//!
//! Takes link-layer exchanges carrying TCP segments and rebuilds flows,
//! resolving the two ambiguities unique to the passive *wireless* vantage
//! point:
//!
//! 1. **Was an un-ACKed frame actually delivered?** A later cumulative TCP
//!    ACK that *covers* the segment's sequence range proves it was — the
//!    covering-ACK oracle.
//! 2. **Did the monitors miss a delivered packet entirely?** An ACK that
//!    covers sequence space we never saw on the air implies the packet flew
//!    and was delivered unobserved (a coverage omission, not a loss).
//!
//! TCP-level retransmissions are loss events; each is attributed to the
//! wireless hop (the original's frame exchange demonstrably failed) or to
//! the wired path beyond the AP (the original demonstrably crossed the air,
//! or never reached it).

use crate::link::exchange::{DeliveryStatus, Exchange};
use jigsaw_ieee80211::wire::msdu_body;
#[cfg(test)]
use jigsaw_ieee80211::MacAddr;
use jigsaw_ieee80211::{Micros, Subtype};
use jigsaw_packet::{ipv4::IpPayload, Msdu, TcpSegment};
// tidy:allow-file(hash-order): the flow map is drained then sorted by (first_ts, key) before finish() emits
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Wrapping TCP sequence compare: `a < b`.
fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Canonical flow identity: endpoint `a` is the numerically smaller
/// (ip, port) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Lower endpoint.
    pub a: (Ipv4Addr, u16),
    /// Higher endpoint.
    pub b: (Ipv4Addr, u16),
}

impl FlowKey {
    /// Builds the canonical key; returns `true` if `(src → dst)` is the
    /// a→b direction.
    pub fn canonical(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> (FlowKey, bool) {
        if src <= dst {
            (FlowKey { a: src, b: dst }, true)
        } else {
            (FlowKey { a: dst, b: src }, false)
        }
    }
}

/// What ultimately happened to an observed data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFate {
    /// The link layer saw the 802.11 ACK.
    LinkAcked,
    /// No link ACK, but a covering TCP ACK proved delivery.
    CoveredByAck,
    /// Retransmitted by TCP: a loss event.
    Lost(LossCause),
    /// Still unresolved at the end of the trace.
    Unresolved,
}

/// Which hop lost a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// The 802.11 frame exchange failed.
    Wireless,
    /// The loss happened on the wired path (or before reaching the air).
    Wired,
}

#[derive(Debug, Clone)]
struct SegRec {
    seq: u32,
    seq_end: u32,
    ts: Micros,
    link_delivery: DeliveryStatus,
    retransmitted_copy: bool,
    fate: SegmentFate,
}

#[derive(Debug, Default)]
struct DirState {
    /// Segments awaiting resolution.
    pending: Vec<SegRec>,
    /// Highest sequence-end observed on the air.
    max_seq_end: Option<u32>,
    /// Highest cumulative ACK received from the peer.
    acked_to: Option<u32>,
    /// Data segments observed.
    segs: u64,
    /// Payload bytes observed (first transmissions only).
    bytes: u64,
    /// SYN observed in this direction.
    syn: bool,
    /// FIN observed in this direction.
    fin: bool,
    /// Loss events attributed per cause.
    wireless_losses: u64,
    /// Wired losses.
    wired_losses: u64,
    /// Covered holes (packets delivered but never captured).
    covered_holes: u64,
    /// Link-ambiguous segments proven delivered by covering ACKs.
    ambiguous_resolved: u64,
    /// RTT accumulator.
    rtt_sum_us: f64,
    /// RTT sample count.
    rtt_n: u32,
}

#[derive(Debug)]
struct FlowState {
    key: FlowKey,
    first_ts: Micros,
    last_ts: Micros,
    a2b: DirState,
    b2a: DirState,
}

/// Summary record for one flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Flow identity.
    pub key: FlowKey,
    /// Handshake observed (SYN in one direction, SYN-ACK in the other) —
    /// the filter the paper applies before computing loss rates.
    pub established: bool,
    /// First / last segment times.
    pub first_ts: Micros,
    /// Last activity.
    pub last_ts: Micros,
    /// Data segments observed (both directions).
    pub segments: u64,
    /// Payload bytes observed.
    pub bytes: u64,
    /// Loss events attributed to the wireless hop.
    pub wireless_losses: u64,
    /// Loss events attributed to the wired path.
    pub wired_losses: u64,
    /// Packets proven delivered that the monitors never captured.
    pub covered_holes: u64,
    /// Link-ambiguous segments resolved as delivered by covering ACKs.
    pub ambiguous_resolved: u64,
    /// Mean RTT estimate (µs), when samples exist.
    pub rtt_mean_us: Option<f64>,
    /// TCP loss rate: loss events / (data segments + loss events).
    pub loss_rate: f64,
    /// Wireless share of the loss events (0..1; 0 when no losses).
    pub wireless_fraction: f64,
}

/// Aggregate transport statistics.
#[derive(Debug, Clone, Default)]
pub struct TransportStats {
    /// Flows tracked.
    pub flows: u64,
    /// Flows with a complete handshake.
    pub established: u64,
    /// Data segments observed.
    pub segments: u64,
    /// Wireless-attributed losses.
    pub wireless_losses: u64,
    /// Wired-attributed losses.
    pub wired_losses: u64,
    /// Covered holes (monitor omissions proven delivered).
    pub covered_holes: u64,
    /// Ambiguous link exchanges proven delivered.
    pub ambiguous_resolved: u64,
    /// Retransmissions of data the receiver had already acknowledged —
    /// spurious (RTO under delay), not losses (Jaiswal's classification).
    pub spurious_retransmissions: u64,
    /// Loss events whose original copy was link-delivered (→ wired).
    pub losses_original_delivered: u64,
    /// Loss events whose original stayed ambiguous/failed (→ wireless).
    pub losses_original_ambiguous: u64,
    /// Loss events with no observed original (→ wired).
    pub losses_no_original: u64,
}

/// Streaming transport analyzer.
#[derive(Debug, Default)]
pub struct TransportAnalyzer {
    flows: HashMap<FlowKey, FlowState>,
    /// Aggregate counters.
    pub stats: TransportStats,
}

impl TransportAnalyzer {
    /// Creates an analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts the TCP segment (plus IPs) from an exchange, if it carries
    /// one. Snap-truncated captures are fine — headers suffice.
    fn tcp_of(x: &Exchange) -> Option<(Ipv4Addr, Ipv4Addr, TcpSegment)> {
        if x.subtype != Subtype::Data {
            return None;
        }
        // Only a complete, valid capture ends in its FCS.
        let has_fcs = x.data_valid && x.bytes.len() as u32 == x.wire_len;
        match Msdu::parse(msdu_body(&x.bytes, has_fcs)?).ok()? {
            Msdu::Ipv4(ip) => match ip.payload {
                IpPayload::Tcp(seg) => Some((ip.src, ip.dst, seg)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Feeds one link-layer exchange.
    pub fn push(&mut self, x: &Exchange) {
        let Some((src_ip, dst_ip, seg)) = Self::tcp_of(x) else {
            return;
        };
        let (key, forward) = FlowKey::canonical((src_ip, seg.src_port), (dst_ip, seg.dst_port));
        let ts = x.first_ts;
        let st = self.flows.entry(key).or_insert_with(|| {
            self.stats.flows += 1;
            FlowState {
                key,
                first_ts: ts,
                last_ts: ts,
                a2b: DirState::default(),
                b2a: DirState::default(),
            }
        });
        st.last_ts = st.last_ts.max(ts);

        // Split the borrow: sending direction vs the reverse.
        let (dir, rev) = if forward {
            (&mut st.a2b, &mut st.b2a)
        } else {
            (&mut st.b2a, &mut st.a2b)
        };

        if seg.flags.syn {
            dir.syn = true;
        }
        if seg.flags.fin {
            dir.fin = true;
        }

        // --- data-bearing segment (or SYN/FIN occupying sequence space) ---
        if seg.seq_space() > 0 {
            dir.segs += 1;
            self.stats.segments += 1;
            let seq_end = seg.seq_end();
            // A retransmission requires having *observed* a prior copy of
            // the range (Jaiswal: loss is inferred from seeing the same
            // sequence range twice). A below-max segment with no prior
            // record is just an out-of-order first observation.
            let has_prior = dir
                .pending
                .iter()
                .any(|r| seq_le(r.seq, seg.seq) && seq_lt(seg.seq, r.seq_end));
            let below_max = match dir.max_seq_end {
                Some(m) => seq_lt(seg.seq, m),
                None => false,
            };
            let is_retx = below_max && has_prior;
            if is_retx {
                // A retransmission of data the cumulative ACK already
                // covers is spurious — a needless RTO, not a loss.
                let already_covered = dir.acked_to.map(|a| seq_le(seq_end, a)).unwrap_or(false);
                if already_covered {
                    self.stats.spurious_retransmissions += 1;
                    dir.pending.push(SegRec {
                        seq: seg.seq,
                        seq_end,
                        ts,
                        link_delivery: x.delivery,
                        retransmitted_copy: true,
                        fate: SegmentFate::CoveredByAck,
                    });
                    // Fall through to ACK processing below.
                } else {
                    // Loss event: attribute via the original copy if we saw it.
                    let original = dir
                        .pending
                        .iter_mut()
                        .filter(|r| {
                            !r.retransmitted_copy
                                && seq_le(r.seq, seg.seq)
                                && seq_lt(seg.seq, r.seq_end)
                        })
                        .last();
                    let cause = match original {
                        Some(orig) => {
                            // A covering ACK that already proved delivery also
                            // rules the wireless hop out.
                            let proven_delivered = orig.link_delivery == DeliveryStatus::Delivered
                                || orig.fate == SegmentFate::CoveredByAck;
                            let cause = if proven_delivered {
                                self.stats.losses_original_delivered += 1;
                                LossCause::Wired
                            } else {
                                self.stats.losses_original_ambiguous += 1;
                                LossCause::Wireless
                            };
                            orig.fate = SegmentFate::Lost(cause);
                            cause
                        }
                        // Unreachable with the has_prior gate, kept defensive.
                        None => {
                            self.stats.losses_no_original += 1;
                            LossCause::Wired
                        }
                    };
                    match cause {
                        LossCause::Wireless => {
                            dir.wireless_losses += 1;
                            self.stats.wireless_losses += 1;
                        }
                        LossCause::Wired => {
                            dir.wired_losses += 1;
                            self.stats.wired_losses += 1;
                        }
                    }
                    dir.pending.push(SegRec {
                        seq: seg.seq,
                        seq_end,
                        ts,
                        link_delivery: x.delivery,
                        retransmitted_copy: true,
                        fate: match x.delivery {
                            DeliveryStatus::Delivered => SegmentFate::LinkAcked,
                            _ => SegmentFate::Unresolved,
                        },
                    });
                }
            } else {
                dir.bytes += u64::from(seg.payload_len);
                dir.pending.push(SegRec {
                    seq: seg.seq,
                    seq_end,
                    ts,
                    link_delivery: x.delivery,
                    retransmitted_copy: false,
                    fate: match x.delivery {
                        DeliveryStatus::Delivered => SegmentFate::LinkAcked,
                        _ => SegmentFate::Unresolved,
                    },
                });
            }
            dir.max_seq_end = Some(match dir.max_seq_end {
                Some(m) if seq_lt(seq_end, m) => m,
                _ => seq_end,
            });
            // Bound state: resolved/ancient records get pruned.
            if dir.pending.len() > 512 {
                dir.pending
                    .retain(|r| r.fate == SegmentFate::Unresolved || r.ts + 5_000_000 > ts);
            }
        }

        // --- cumulative ACK processing against the reverse direction ---
        if seg.flags.ack {
            let ack = seg.ack;
            // Covered hole: ACK beyond anything we observed in reverse dir.
            if let Some(m) = rev.max_seq_end {
                if seq_lt(m, ack) {
                    rev.covered_holes += 1;
                    self.stats.covered_holes += 1;
                    rev.max_seq_end = Some(ack);
                }
            }
            let newly_acked = match rev.acked_to {
                Some(prev) => seq_lt(prev, ack),
                None => true,
            };
            if newly_acked {
                rev.acked_to = Some(ack);
                for r in rev.pending.iter_mut() {
                    if seq_le(r.seq_end, ack) {
                        match r.fate {
                            SegmentFate::Unresolved => {
                                r.fate = SegmentFate::CoveredByAck;
                                if r.link_delivery != DeliveryStatus::Delivered {
                                    rev.ambiguous_resolved += 1;
                                    self.stats.ambiguous_resolved += 1;
                                }
                                if !r.retransmitted_copy && ts >= r.ts {
                                    rev.rtt_sum_us += (ts - r.ts) as f64;
                                    rev.rtt_n += 1;
                                }
                            }
                            SegmentFate::LinkAcked => {
                                if !r.retransmitted_copy && ts >= r.ts {
                                    // First covering ACK: RTT sample.
                                    rev.rtt_sum_us += (ts - r.ts) as f64;
                                    rev.rtt_n += 1;
                                }
                                // Avoid resampling: mark as covered.
                                r.fate = SegmentFate::CoveredByAck;
                            }
                            _ => {}
                        }
                    }
                }
                rev.pending
                    .retain(|r| r.fate == SegmentFate::Unresolved || seq_lt(ack, r.seq_end));
            }
        }
    }

    /// Finalizes all flows into records.
    pub fn finish(mut self) -> (Vec<FlowRecord>, TransportStats) {
        let mut out: Vec<FlowRecord> = Vec::with_capacity(self.flows.len());
        for (_, st) in self.flows.drain() {
            let established = st.a2b.syn && (st.b2a.syn || st.b2a.segs > 0);
            if established {
                self.stats.established += 1;
            }
            let segments = st.a2b.segs + st.b2a.segs;
            let wireless = st.a2b.wireless_losses + st.b2a.wireless_losses;
            let wired = st.a2b.wired_losses + st.b2a.wired_losses;
            let losses = wireless + wired;
            let rtt_n = st.a2b.rtt_n + st.b2a.rtt_n;
            let rtt_sum = st.a2b.rtt_sum_us + st.b2a.rtt_sum_us;
            out.push(FlowRecord {
                key: st.key,
                established,
                first_ts: st.first_ts,
                last_ts: st.last_ts,
                segments,
                bytes: st.a2b.bytes + st.b2a.bytes,
                wireless_losses: wireless,
                wired_losses: wired,
                covered_holes: st.a2b.covered_holes + st.b2a.covered_holes,
                ambiguous_resolved: st.a2b.ambiguous_resolved + st.b2a.ambiguous_resolved,
                rtt_mean_us: if rtt_n > 0 {
                    Some(rtt_sum / f64::from(rtt_n))
                } else {
                    None
                },
                loss_rate: if segments > 0 {
                    losses as f64 / segments as f64
                } else {
                    0.0
                },
                wireless_fraction: if losses > 0 {
                    wireless as f64 / losses as f64
                } else {
                    0.0
                },
            });
        }
        out.sort_by_key(|f| (f.first_ts, f.key));
        (out, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::fc::FcFlags;
    use jigsaw_ieee80211::frame::{DataFrame, Frame};
    use jigsaw_ieee80211::wire::serialize_frame;
    use jigsaw_ieee80211::{PhyRate, SeqNum};
    use jigsaw_packet::Ipv4Packet;

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 1);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);

    fn exchange_with(
        seg: TcpSegment,
        upstream: bool,
        ts: Micros,
        delivery: DeliveryStatus,
    ) -> Exchange {
        let (src, dst) = if upstream {
            (CLIENT_IP, SERVER_IP)
        } else {
            (SERVER_IP, CLIENT_IP)
        };
        let ip = Ipv4Packet::tcp(src, dst, seg);
        let body = Msdu::Ipv4(ip).to_bytes();
        let frame = Frame::Data(DataFrame {
            duration: 44,
            addr1: MacAddr::local(0, 1),
            addr2: MacAddr::local(3, 1),
            addr3: MacAddr::local(9, 1),
            seq: SeqNum::new(1),
            frag: 0,
            flags: FcFlags {
                to_ds: upstream,
                from_ds: !upstream,
                ..Default::default()
            },
            null: false,
            body,
        });
        let bytes = serialize_frame(&frame);
        let wire_len = bytes.len() as u32;
        Exchange {
            transmitter: MacAddr::local(3, 1),
            receiver: Some(MacAddr::local(0, 1)),
            seq: Some(SeqNum::new(1)),
            first_ts: ts,
            last_end: ts + 300,
            attempts: 1,
            inferred_attempts: 0,
            delivery,
            subtype: Subtype::Data,
            first_rate: PhyRate::R11,
            last_rate: PhyRate::R11,
            protected: false,
            wire_len,
            bytes: bytes.into(),
            data_valid: true,
            instance_count: 2,
        }
    }

    fn handshake(analyzer: &mut TransportAnalyzer, t0: Micros) {
        let syn = TcpSegment::syn(5000, 80, 100, 1460);
        analyzer.push(&exchange_with(syn, true, t0, DeliveryStatus::Delivered));
        let syn_ack = TcpSegment::syn_ack(&syn, 900, 1460);
        analyzer.push(&exchange_with(
            syn_ack,
            false,
            t0 + 10_000,
            DeliveryStatus::Delivered,
        ));
        let ack = TcpSegment::pure_ack(5000, 80, 101, 901);
        analyzer.push(&exchange_with(
            ack,
            true,
            t0 + 20_000,
            DeliveryStatus::Delivered,
        ));
    }

    #[test]
    fn clean_flow_no_losses() {
        let mut a = TransportAnalyzer::new();
        handshake(&mut a, 0);
        // Two data segments upstream, each acknowledged.
        let d1 = TcpSegment::data(5000, 80, 101, 901, 1000);
        a.push(&exchange_with(d1, true, 50_000, DeliveryStatus::Delivered));
        let ack1 = TcpSegment::pure_ack(80, 5000, 901, 1101);
        a.push(&exchange_with(
            ack1,
            false,
            80_000,
            DeliveryStatus::Delivered,
        ));
        let (flows, stats) = a.finish();
        assert_eq!(flows.len(), 1);
        let f = &flows[0];
        assert!(f.established);
        assert_eq!(f.wireless_losses + f.wired_losses, 0);
        assert!(f.rtt_mean_us.is_some());
        assert_eq!(stats.established, 1);
    }

    #[test]
    fn covering_ack_resolves_ambiguous_delivery() {
        let mut a = TransportAnalyzer::new();
        handshake(&mut a, 0);
        // Data segment whose 802.11 ACK the monitors missed.
        let d1 = TcpSegment::data(5000, 80, 101, 901, 1000);
        a.push(&exchange_with(d1, true, 50_000, DeliveryStatus::Ambiguous));
        // The TCP ACK covering it proves delivery.
        let ack1 = TcpSegment::pure_ack(80, 5000, 901, 1101);
        a.push(&exchange_with(
            ack1,
            false,
            90_000,
            DeliveryStatus::Delivered,
        ));
        let (flows, stats) = a.finish();
        assert_eq!(stats.ambiguous_resolved, 1);
        assert_eq!(flows[0].wireless_losses, 0);
        assert_eq!(flows[0].ambiguous_resolved, 1);
    }

    #[test]
    fn wireless_loss_attributed() {
        let mut a = TransportAnalyzer::new();
        handshake(&mut a, 0);
        // Original transmission: exchange failed (no ACK, never covered).
        let d1 = TcpSegment::data(5000, 80, 101, 901, 1000);
        a.push(&exchange_with(d1, true, 50_000, DeliveryStatus::Ambiguous));
        // TCP retransmits the same range → loss, attributed wireless.
        let d1r = TcpSegment::data(5000, 80, 101, 901, 1000);
        a.push(&exchange_with(
            d1r,
            true,
            400_000,
            DeliveryStatus::Delivered,
        ));
        let (flows, stats) = a.finish();
        assert_eq!(stats.wireless_losses, 1);
        assert_eq!(stats.wired_losses, 0);
        assert!(flows[0].loss_rate > 0.0);
        assert_eq!(flows[0].wireless_fraction, 1.0);
    }

    #[test]
    fn wired_loss_attributed() {
        let mut a = TransportAnalyzer::new();
        handshake(&mut a, 0);
        // Original crossed the air fine (802.11-ACKed)…
        let d1 = TcpSegment::data(5000, 80, 101, 901, 1000);
        a.push(&exchange_with(d1, true, 50_000, DeliveryStatus::Delivered));
        // …yet TCP retransmits: the drop was beyond the AP.
        let d1r = TcpSegment::data(5000, 80, 101, 901, 1000);
        a.push(&exchange_with(
            d1r,
            true,
            400_000,
            DeliveryStatus::Delivered,
        ));
        let (_, stats) = a.finish();
        assert_eq!(stats.wired_losses, 1);
        assert_eq!(stats.wireless_losses, 0);
    }

    #[test]
    fn unobserved_original_is_not_a_loss() {
        // Jaiswal-style detection: without an observed prior copy, a
        // below-max segment is an out-of-order observation, not a
        // retransmission — charging a loss would fabricate one.
        let mut a = TransportAnalyzer::new();
        handshake(&mut a, 0);
        let d2 = TcpSegment::data(5000, 80, 1101, 901, 1000);
        a.push(&exchange_with(d2, true, 50_000, DeliveryStatus::Delivered));
        let d1r = TcpSegment::data(5000, 80, 101, 901, 1000);
        a.push(&exchange_with(
            d1r,
            true,
            300_000,
            DeliveryStatus::Delivered,
        ));
        let (_, stats) = a.finish();
        assert_eq!(stats.wired_losses, 0);
        assert_eq!(stats.wireless_losses, 0);
    }

    #[test]
    fn covered_hole_counts_monitor_omission() {
        let mut a = TransportAnalyzer::new();
        handshake(&mut a, 0);
        // Upstream data observed to seq_end 1101.
        let d1 = TcpSegment::data(5000, 80, 101, 901, 1000);
        a.push(&exchange_with(d1, true, 50_000, DeliveryStatus::Delivered));
        // Server ACKs *beyond* anything we saw: 2101 — the segment
        // [1101, 2101) flew unobserved and was delivered.
        let ack = TcpSegment::pure_ack(80, 5000, 901, 2101);
        a.push(&exchange_with(
            ack,
            false,
            90_000,
            DeliveryStatus::Delivered,
        ));
        let (flows, stats) = a.finish();
        assert_eq!(stats.covered_holes, 1);
        assert_eq!(flows[0].covered_holes, 1);
        // And no loss was charged.
        assert_eq!(stats.wireless_losses + stats.wired_losses, 0);
    }

    #[test]
    fn non_tcp_exchanges_ignored() {
        let mut a = TransportAnalyzer::new();
        let mut x = exchange_with(
            TcpSegment::syn(1, 2, 0, 1460),
            true,
            0,
            DeliveryStatus::Delivered,
        );
        x.subtype = Subtype::Beacon;
        a.push(&x);
        let (flows, stats) = a.finish();
        assert!(flows.is_empty());
        assert_eq!(stats.segments, 0);
    }

    #[test]
    fn loss_rate_math() {
        let mut a = TransportAnalyzer::new();
        handshake(&mut a, 0);
        for k in 0..8u32 {
            let d = TcpSegment::data(5000, 80, 101 + k * 1000, 901, 1000);
            a.push(&exchange_with(
                d,
                true,
                50_000 + u64::from(k) * 10_000,
                DeliveryStatus::Delivered,
            ));
        }
        // One wireless loss.
        let lost = TcpSegment::data(5000, 80, 101, 901, 1000);
        a.push(&exchange_with(
            lost,
            true,
            300_000,
            DeliveryStatus::Delivered,
        ));
        let (flows, _) = a.finish();
        let f = &flows[0];
        // 3 handshake segs count: syn+synack consume seq space (2 segs) +
        // 8 data + 1 retransmission = 11 data-bearing segments.
        assert_eq!(f.segments, 11);
        assert!(f.loss_rate > 0.0 && f.loss_rate < 0.2);
    }
}
