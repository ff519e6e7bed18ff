//! Bootstrap synchronization (paper §4.1), re-anchorable at any trace
//! position.
//!
//! [`bootstrap_at`] examines one NTP-delimited second of every radio's
//! trace — the first second for a from-the-start replay, or a second
//! starting at any per-radio window position for a mid-trace replay —
//! finds content-unique frames heard by multiple
//! radios (synchronization sets `Ek`), assembles a connected
//! synchronization graph `G` from as few large sets as possible, and
//! BFS-assigns each radio an offset `Tᵢ` such that `universal = local − Tᵢ`
//! agrees across radios to microseconds.
//!
//! The anchor-based coarse offset (`anchor_local − anchor_wall`, see
//! [`RadioMeta::coarse_offset_us`]) plays two roles: it roots each
//! connected component (so universal time stays near wall time wherever
//! the window sits), and it is the coarse seed that locates a mid-trace
//! window in each radio's local clock in the first place. It is accurate
//! to the NTP error (ms) plus oscillator drift since the anchor — the sync
//! sets then refine the *relative* offsets to microseconds, exactly as at
//! t = 0.
//!
//! Two deliberate fidelity points:
//! * radios on disjoint channels are bridged through monitors whose two
//!   radios share one hardware clock (the paper's cross-channel trick);
//! * when the graph is partitioned (the paper observes this with only 10
//!   pods), partitioned radios fall back to their millisecond-accurate NTP
//!   anchors and are flagged *coarse* rather than dropped.

use jigsaw_ieee80211::wire::{FrameHeader, DATA_HEADER_LEN};
use jigsaw_ieee80211::{Channel, Micros};
use jigsaw_trace::{PhyEvent, PhyStatus, RadioMeta};
// tidy:allow-file(hash-order): anchor sets are sorted by (Reverse(len), first element) before the sync graph is built
use std::collections::HashMap;

/// Minimum radios a reference set must span to be usable: one radio's
/// hearing of a frame relates its clock to nothing.
const MIN_SET_SIZE: usize = 2;

/// Bootstrap parameters.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Width of the bootstrap window after each trace's anchor (paper: 1 s).
    pub window_us: Micros,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            window_us: 1_000_000,
        }
    }
}

/// Errors from [`bootstrap_at`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootstrapError {
    /// No radios supplied.
    NoRadios,
    /// Metadata and prefix tables disagree in length.
    LengthMismatch,
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::NoRadios => write!(f, "no radios to synchronize"),
            BootstrapError::LengthMismatch => write!(f, "metas/prefixes length mismatch"),
        }
    }
}

impl std::error::Error for BootstrapError {}

/// The bootstrap result.
#[derive(Debug, Clone)]
pub struct BootstrapReport {
    /// Per-radio offset `Tᵢ` (µs): `universal = local − Tᵢ`.
    pub offsets: Vec<i64>,
    /// Radios that could only be NTP-anchored (partitioned from radio 0's
    /// component): accurate to milliseconds, not microseconds.
    pub coarse: Vec<bool>,
    /// Number of connected components in the synchronization graph
    /// (1 = fully unified, the healthy case).
    pub components: usize,
    /// Synchronization sets admitted into G.
    pub sets_used: usize,
    /// Candidate reference frames considered across all radios.
    pub candidates: usize,
}

/// Is this captured event a synchronization reference (paper §4.1)? The
/// one rule behind both the bootstrap's synchronization sets and the
/// jframes unification resynchronizes on ([`crate::jframe::JFrame::unique`]):
/// an FCS-valid capture of at least the 24-byte header whose frame
/// passes [`FrameHeader::is_sync_reference`].
pub(crate) fn is_sync_reference(ev: &PhyEvent) -> bool {
    ev.status == PhyStatus::Ok
        && ev.bytes.len() >= DATA_HEADER_LEN
        && FrameHeader::decode(&ev.bytes).is_some_and(|h| h.is_sync_reference(ev.wire_len as usize))
}

/// 64-bit FNV-1a over the captured bytes plus the on-air length and rate —
/// the content identity used to match instances across radios.
pub fn content_key(ev: &PhyEvent) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut feed = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    };
    for &b in ev.bytes.iter() {
        feed(b);
    }
    for b in ev.wire_len.to_le_bytes() {
        feed(b);
    }
    for b in ev.rate.centi_mbps().to_le_bytes() {
        feed(b);
    }
    h
}

struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            false
        } else {
            self.parent[ra] = rb;
            true
        }
    }
}

/// Runs bootstrap synchronization over an arbitrary window of every
/// radio's trace: `prefixes[i]` holds radio `i`'s events with `ts_local`
/// within `[window_lo[i], window_lo[i] + window]`. For a mid-trace replay,
/// `window_lo[i]` is the radio's coarse-local image of the requested
/// universal start ([`RadioMeta::coarse_local`]); offsets come out exactly
/// as at t = 0 — sync sets pin the relative offsets to microseconds,
/// components root at the anchor-based coarse offset — so the merger can
/// be (re-)seeded at any corpus timestamp.
pub fn bootstrap_at<P: AsRef<[PhyEvent]>>(
    metas: &[RadioMeta],
    prefixes: &[P],
    window_lo: &[Micros],
    cfg: &BootstrapConfig,
) -> Result<BootstrapReport, BootstrapError> {
    let n = metas.len();
    if n == 0 {
        return Err(BootstrapError::NoRadios);
    }
    if prefixes.len() != n || window_lo.len() != n {
        return Err(BootstrapError::LengthMismatch);
    }

    // 1. Collect candidate reference instances keyed by channel + content.
    //    Radios on different channels cannot hear the same transmission, so
    //    a cross-channel content coincidence must not become a (spurious)
    //    synchronization set — channels are bridged through shared monitor
    //    clocks below, never through content.
    let mut sets: HashMap<(Channel, u64), Vec<(usize, Micros)>> = HashMap::new();
    let mut candidates = 0usize;
    for (r, prefix) in prefixes.iter().enumerate() {
        let lo = window_lo[r];
        let hi = lo.saturating_add(cfg.window_us);
        for ev in prefix.as_ref() {
            if ev.ts_local < lo || ev.ts_local > hi {
                continue;
            }
            if !is_sync_reference(ev) {
                continue;
            }
            candidates += 1;
            // The radio's tuned channel (not the per-event tag) is the
            // channel identity everywhere in this crate.
            let key = (metas[r].channel, content_key(ev));
            let entry = sets.entry(key).or_default();
            // At most one instance per radio per set.
            if !entry.iter().any(|&(rr, _)| rr == r) {
                entry.push((r, ev.ts_local));
            }
        }
    }

    // 2. Assemble G: monitor bridges first (two radios, one clock), then
    //    the largest sets that still merge components (Kruskal-style, which
    //    both maximizes overlap and minimizes the number of distinct
    //    reference frames, as §4.1 prescribes).
    let mut dsu = Dsu::new(n);
    // adjacency: edges (a, b, delta) with offset_b = offset_a + delta.
    let mut adj: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    let mut by_monitor: HashMap<u16, usize> = HashMap::new();
    for (r, m) in metas.iter().enumerate() {
        if let Some(&other) = by_monitor.get(&m.monitor.0) {
            let delta = metas[r].anchor_local_us as i64 - metas[other].anchor_local_us as i64;
            adj[other].push((r, delta));
            adj[r].push((other, -delta));
            dsu.union(other, r);
        } else {
            by_monitor.insert(m.monitor.0, r);
        }
    }

    let mut set_list: Vec<&Vec<(usize, Micros)>> =
        sets.values().filter(|v| v.len() >= MIN_SET_SIZE).collect();
    // Largest sets first; ties broken deterministically (HashMap iteration
    // order must never influence the synchronization graph).
    set_list.sort_by_key(|v| (std::cmp::Reverse(v.len()), v[0].0, v[0].1));

    let mut sets_used = 0usize;
    for set in set_list {
        let spans_new = set.windows(2).any(|w| dsu.find(w[0].0) != dsu.find(w[1].0));
        if !spans_new {
            continue;
        }
        sets_used += 1;
        let (r0, y0) = set[0];
        for &(ri, yi) in &set[1..] {
            let delta = yi as i64 - y0 as i64;
            adj[r0].push((ri, delta));
            adj[ri].push((r0, -delta));
            dsu.union(r0, ri);
        }
    }

    // 3. BFS offsets per component. Roots anchor to their NTP wall clock so
    //    universal time stays near wall time for diurnal annotation.
    let mut offsets: Vec<i64> = vec![0; n];
    let mut assigned = vec![false; n];
    let mut coarse = vec![false; n];
    let mut components = 0usize;
    for start in 0..n {
        if assigned[start] {
            continue;
        }
        components += 1;
        let root_offset = metas[start].anchor_local_us as i64 - metas[start].anchor_wall_us as i64;
        let is_coarse_component = components > 1;
        offsets[start] = root_offset;
        assigned[start] = true;
        coarse[start] = is_coarse_component;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &(v, delta) in &adj[u] {
                if assigned[v] {
                    continue;
                }
                offsets[v] = offsets[u] + delta;
                assigned[v] = true;
                coarse[v] = is_coarse_component;
                queue.push_back(v);
            }
        }
    }

    Ok(BootstrapReport {
        offsets,
        coarse,
        components,
        sets_used,
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::fc::FcFlags;
    use jigsaw_ieee80211::frame::{DataFrame, Frame, MgmtBody, MgmtHeader};
    use jigsaw_ieee80211::wire::serialize_frame;
    use jigsaw_ieee80211::{Channel, MacAddr, PhyRate, SeqNum};
    use jigsaw_trace::{MonitorId, RadioId};

    /// The from-the-start bootstrap: every window at its radio's anchor.
    fn bootstrap(
        metas: &[RadioMeta],
        prefixes: &[Vec<PhyEvent>],
        cfg: &BootstrapConfig,
    ) -> Result<BootstrapReport, BootstrapError> {
        let anchors: Vec<Micros> = metas.iter().map(|m| m.anchor_local_us).collect();
        bootstrap_at(metas, prefixes, &anchors, cfg)
    }

    fn meta(radio: u16, monitor: u16, chan: u8, anchor_local: u64) -> RadioMeta {
        RadioMeta {
            radio: RadioId(radio),
            monitor: MonitorId(monitor),
            channel: Channel::of(chan),
            anchor_wall_us: 1_000,
            anchor_local_us: anchor_local,
        }
    }

    fn data_frame_bytes(seq: u16) -> Vec<u8> {
        serialize_frame(&Frame::Data(DataFrame {
            duration: 44,
            addr1: MacAddr::local(1, 1),
            addr2: MacAddr::local(2, 2),
            addr3: MacAddr::local(3, 3),
            seq: SeqNum::new(seq),
            frag: 0,
            flags: FcFlags {
                to_ds: true,
                ..Default::default()
            },
            null: false,
            body: vec![seq as u8; 40],
        }))
    }

    fn ev(radio: u16, ts: u64, chan: u8, bytes: Vec<u8>) -> PhyEvent {
        let len = bytes.len() as u32;
        PhyEvent {
            radio: RadioId(radio),
            ts_local: ts,
            channel: Channel::of(chan),
            rate: PhyRate::R11,
            rssi_dbm: -55,
            status: PhyStatus::Ok,
            wire_len: len,
            bytes: bytes.into(),
        }
    }

    #[test]
    fn two_radios_direct_sync() {
        // Radio 0 offset 0; radio 1's clock reads +5000 µs when the same
        // frame arrives.
        let metas = vec![meta(0, 0, 1, 0), meta(1, 1, 1, 5_000)];
        let f = data_frame_bytes(1);
        let prefixes = vec![vec![ev(0, 100, 1, f.clone())], vec![ev(1, 5_100, 1, f)]];
        let rep = bootstrap(&metas, &prefixes, &BootstrapConfig::default()).unwrap();
        assert_eq!(rep.components, 1);
        // universal(0, 100) == universal(1, 5100):
        let u0 = 100i64 - rep.offsets[0];
        let u1 = 5_100i64 - rep.offsets[1];
        assert_eq!(u0, u1);
    }

    #[test]
    fn transitive_sync_through_middle_radio() {
        // r0 and r2 never share a frame; both share with r1.
        let metas = vec![
            meta(0, 0, 1, 0),
            meta(1, 1, 1, 10_000),
            meta(2, 2, 1, 50_000),
        ];
        let fa = data_frame_bytes(1);
        let fb = data_frame_bytes(2);
        let prefixes = vec![
            vec![ev(0, 100, 1, fa.clone())],
            vec![ev(1, 10_100, 1, fa), ev(1, 10_500, 1, fb.clone())],
            vec![ev(2, 50_500, 1, fb)],
        ];
        let rep = bootstrap(&metas, &prefixes, &BootstrapConfig::default()).unwrap();
        assert_eq!(rep.components, 1);
        let u0 = 100i64 - rep.offsets[0];
        let u1a = 10_100i64 - rep.offsets[1];
        let u1b = 10_500i64 - rep.offsets[1];
        let u2 = 50_500i64 - rep.offsets[2];
        assert_eq!(u0, u1a);
        assert_eq!(u1b, u2);
        assert!(!rep.coarse.iter().any(|&c| c));
    }

    #[test]
    fn cross_channel_bridge_via_shared_monitor_clock() {
        // r0 (ch1) and r3 (ch6) share no frames; r1 (ch1) and r2 (ch6)
        // belong to the same monitor → same clock bridges the channels.
        let metas = vec![
            meta(0, 0, 1, 0),
            meta(1, 1, 1, 7_000),
            meta(2, 1, 6, 7_000), // same monitor as r1
            meta(3, 2, 6, 90_000),
        ];
        let fa = data_frame_bytes(1); // ch1 frame heard by r0, r1
        let fb = data_frame_bytes(2); // ch6 frame heard by r2, r3
        let prefixes = vec![
            vec![ev(0, 200, 1, fa.clone())],
            vec![ev(1, 7_200, 1, fa)],
            vec![ev(2, 7_900, 6, fb.clone())],
            vec![ev(3, 90_900, 6, fb)],
        ];
        let rep = bootstrap(&metas, &prefixes, &BootstrapConfig::default()).unwrap();
        assert_eq!(rep.components, 1, "bridge failed");
        let u0 = 200i64 - rep.offsets[0];
        let u3 = 90_900i64 - rep.offsets[3];
        // fa at universal u0; fb is 700 µs later on the shared clock.
        assert_eq!(u3 - u0, 700);
    }

    #[test]
    fn identical_content_across_channels_is_not_a_sync_set() {
        // r0 (ch1) and r1 (ch6) log byte-identical data frames — a content
        // coincidence, not a shared reception: radios on disjoint channels
        // cannot hear the same transmission. No sync set may form.
        let metas = vec![meta(0, 0, 1, 0), meta(1, 1, 6, 0)];
        let f = data_frame_bytes(1);
        let prefixes = vec![vec![ev(0, 100, 1, f.clone())], vec![ev(1, 40_000, 6, f)]];
        let rep = bootstrap(&metas, &prefixes, &BootstrapConfig::default()).unwrap();
        assert_eq!(rep.components, 2, "spurious cross-channel sync set");
        assert_eq!(rep.sets_used, 0);
    }

    #[test]
    fn partition_falls_back_to_ntp() {
        let mut m0 = meta(0, 0, 1, 1_000_000);
        let mut m1 = meta(1, 1, 1, 9_000_000);
        m0.anchor_wall_us = 500; // NTP said wall=500 at local 1 000 000
        m1.anchor_wall_us = 700;
        let metas = vec![m0, m1];
        // No shared frames at all.
        let prefixes = vec![
            vec![ev(0, 1_000_100, 1, data_frame_bytes(1))],
            vec![ev(1, 9_000_100, 1, data_frame_bytes(2))],
        ];
        let rep = bootstrap(&metas, &prefixes, &BootstrapConfig::default()).unwrap();
        assert_eq!(rep.components, 2);
        assert!(!rep.coarse[0]);
        assert!(rep.coarse[1]);
        // NTP anchoring: universal ≈ wall for each.
        assert_eq!(1_000_100 - rep.offsets[0], 600);
        assert_eq!(9_000_100 - rep.offsets[1], 800);
    }

    #[test]
    fn sync_reference_rule() {
        let (a, b) = (MacAddr::local(1, 1), MacAddr::local(2, 2));
        let data = |null: bool, body: usize| {
            serialize_frame(&Frame::Data(DataFrame {
                duration: 44,
                addr1: a,
                addr2: b,
                addr3: MacAddr::local(3, 3),
                seq: SeqNum::new(9),
                frag: 0,
                flags: FcFlags {
                    to_ds: true,
                    ..Default::default()
                },
                null,
                body: vec![1; body],
            }))
        };
        let mgmt = |body: MgmtBody| {
            serialize_frame(&Frame::Mgmt {
                header: MgmtHeader::new(MacAddr::BROADCAST, a, a, SeqNum::new(1)),
                body,
            })
        };
        let beacon = mgmt(MgmtBody::Beacon {
            timestamp: 12345,
            interval_tu: 100,
            cap: 0x401,
            ies: vec![],
        });
        let probe_resp = mgmt(MgmtBody::ProbeResp {
            timestamp: 42,
            interval_tu: 100,
            cap: 1,
            ies: vec![],
        });
        let probe_req = mgmt(MgmtBody::ProbeReq { ies: vec![] });
        let full = |bytes: Vec<u8>| ev(0, 10, 1, bytes);
        let mut snapped_beacon = full(beacon.clone());
        snapped_beacon.bytes = beacon[..20].to_vec().into();
        let mut snapped_data = full(data(false, 40));
        snapped_data.bytes = data(false, 40)[..24].to_vec().into();
        let cases = [
            ("data", full(data(false, 40)), true),
            ("data snapped to its header", snapped_data, true),
            ("data without payload", full(data(false, 0)), false),
            ("NULL-data", full(data(true, 0)), false),
            ("beacon", full(beacon), true),
            ("probe response", full(probe_resp), true),
            ("probe request", full(probe_req), false),
            ("beacon snapped below 24 bytes", snapped_beacon, false),
        ];
        for (name, e, want) in cases {
            assert_eq!(is_sync_reference(&e), want, "{name}");
        }
    }

    #[test]
    fn retries_and_acks_rejected_as_references() {
        // Build a retry frame directly (the retry bit changes the FCS).
        let f = Frame::Data(DataFrame {
            duration: 44,
            addr1: MacAddr::local(1, 1),
            addr2: MacAddr::local(2, 2),
            addr3: MacAddr::local(3, 3),
            seq: SeqNum::new(9),
            frag: 0,
            flags: FcFlags {
                retry: true,
                ..Default::default()
            },
            null: false,
            body: vec![1; 40],
        });
        let retry = serialize_frame(&f);
        let e = ev(0, 10, 1, retry);
        assert!(!is_sync_reference(&e));

        let ack = serialize_frame(&Frame::Ack {
            duration: 0,
            ra: MacAddr::local(1, 1),
        });
        let e2 = ev(0, 10, 1, ack);
        assert!(!is_sync_reference(&e2));

        let ok = ev(0, 10, 1, data_frame_bytes(1));
        assert!(is_sync_reference(&ok));
    }

    #[test]
    fn corrupt_events_ignored() {
        let mut e = ev(0, 10, 1, data_frame_bytes(1));
        e.status = PhyStatus::FcsError;
        assert!(!is_sync_reference(&e));
    }

    #[test]
    fn events_outside_window_ignored() {
        let metas = vec![meta(0, 0, 1, 0), meta(1, 1, 1, 0)];
        let f = data_frame_bytes(1);
        // Radio 1's instance is 2 s past its anchor: outside the window.
        let prefixes = vec![vec![ev(0, 100, 1, f.clone())], vec![ev(1, 2_000_100, 1, f)]];
        let rep = bootstrap(&metas, &prefixes, &BootstrapConfig::default()).unwrap();
        assert_eq!(rep.components, 2);
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(
            bootstrap(&[], &[], &BootstrapConfig::default()).unwrap_err(),
            BootstrapError::NoRadios
        );
        assert_eq!(
            bootstrap_at(
                &[meta(0, 0, 1, 0)],
                &[vec![ev(0, 1, 1, data_frame_bytes(1))]],
                &[],
                &BootstrapConfig::default()
            )
            .unwrap_err(),
            BootstrapError::LengthMismatch
        );
    }

    /// Mid-trace re-anchoring: the same sync-set machinery runs over a
    /// window hours into the trace, with the window located per radio and
    /// the offsets reflecting the clocks *at that time* (radio 1 has
    /// drifted +300 µs since t = 0 — a from-the-start bootstrap could not
    /// know that).
    #[test]
    fn bootstrap_at_mid_trace_window() {
        let hour = 3_600_000_000u64;
        let metas = vec![meta(0, 0, 1, 0), meta(1, 1, 1, 5_000)];
        let f = data_frame_bytes(1);
        let drift = 300u64; // radio 1 gained 300 µs by the window
        let prefixes = vec![
            vec![ev(0, hour + 100, 1, f.clone())],
            vec![ev(1, hour + 5_000 + drift + 100, 1, f)],
        ];
        let window_lo = vec![hour, hour + 5_000 + drift];
        let rep = bootstrap_at(&metas, &prefixes, &window_lo, &BootstrapConfig::default()).unwrap();
        assert_eq!(rep.components, 1);
        let u0 = (hour + 100) as i64 - rep.offsets[0];
        let u1 = (hour + 5_000 + drift + 100) as i64 - rep.offsets[1];
        assert_eq!(u0, u1, "mid-trace offsets must absorb the drift");

        // The same events are invisible to a t=0 bootstrap: its window
        // closed an hour ago.
        let rep0 = bootstrap(&metas, &prefixes, &BootstrapConfig::default()).unwrap();
        assert_eq!(rep0.candidates, 0);
        assert_eq!(rep0.components, 2);
    }
}
