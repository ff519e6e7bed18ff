//! Figure 10 — overprotective APs and the 802.11g clients they slow down.
//!
//! An AP "uses protection" in a bin when CTS-to-self frames precede OFDM
//! data in its BSS (from the AP itself or its clients). The AP is
//! *overprotective* when no 802.11b client has been in its range for longer
//! than a practical timeout (the paper proposes one minute, against the
//! production APs' one hour). 802.11b presence in range of an AP is
//! inferred from observed b-only probe requests answered by that AP, b-only
//! associations, and CCK-only client traffic in its BSS — all passively
//! observable, exactly the paper's §7.3 method.
//!
//! The figure reports, per bin: overprotective APs, active g clients
//! associated with them, and total active g clients. The paper finds
//! 25–50% of g clients sitting behind overprotective APs during busy hours,
//! with a ≈2× throughput headroom (footnote 7).

use crate::stations::{Capability, StationLearner};
use crate::suite::{Analyzer, Figure, Record};
use jigsaw_core::jframe::JFrame;
use jigsaw_ieee80211::frame::Frame;
use jigsaw_ieee80211::timing::{
    ack_airtime_us, airtime_us, mean_backoff_us, Preamble, CW_MIN_B, CW_MIN_G, SIFS_US,
};
use jigsaw_ieee80211::{MacAddr, Micros, PhyRate};
// tidy:allow-file(hash-order): maps feed order-independent counts (len/filter-count); bin rows are emitted in Vec index order
use std::collections::{HashMap, HashSet};

/// Per-bin row of Figure 10.
#[derive(Debug, Clone, Default)]
pub struct ProtectionBin {
    /// APs observed using protection this bin.
    pub protecting_aps: usize,
    /// Of those, APs with no recent 802.11b sighting (overprotective).
    pub overprotective_aps: usize,
    /// Active 802.11g clients in the network.
    pub active_g_clients: usize,
    /// Active g clients associated with overprotective APs.
    pub g_clients_on_overprotective: usize,
}

/// The finished Figure 10.
#[derive(Debug)]
pub struct ProtectionFigure {
    /// Bin width (µs).
    pub bin_us: Micros,
    /// Per-bin rows.
    pub bins: Vec<ProtectionBin>,
    /// Potential throughput factor for an unprotected large-frame exchange
    /// (the paper's footnote-7 arithmetic; ≈1.98 at 54 Mbps/1500 B).
    pub throughput_headroom: f64,
}

/// Streaming Figure-10 builder.
pub struct ProtectionAnalysis {
    origin: Micros,
    bin_us: Micros,
    /// The "practical" timeout for b-client sightings (paper: one minute).
    pub practical_timeout_us: Micros,
    /// Pending CTS-to-self by reserving station (ra == transmitter).
    pending_cts: HashMap<MacAddr, Micros>,
    /// Last b-client sighting per AP.
    last_b_sighting: HashMap<MacAddr, Micros>,
    /// Per bin: APs protecting, and active g clients with their AP.
    per_bin_protecting: Vec<HashSet<MacAddr>>,
    per_bin_g_clients: Vec<HashMap<MacAddr, Option<MacAddr>>>,
    /// Rolling per-AP b-sighting history for bin evaluation:
    /// (bin, ap) entries are resolved in `into_figure`.
    cts_events: Vec<(Micros, MacAddr)>,
    b_sightings: Vec<(Micros, MacAddr)>,
}

impl ProtectionAnalysis {
    /// Creates a builder; `practical_timeout_us` is the paper's "one
    /// minute", scaled however the scenario scales diurnal time.
    pub fn new(origin: Micros, bin_us: Micros, practical_timeout_us: Micros) -> Self {
        ProtectionAnalysis {
            origin,
            bin_us,
            practical_timeout_us,
            pending_cts: HashMap::new(),
            last_b_sighting: HashMap::new(),
            per_bin_protecting: Vec::new(),
            per_bin_g_clients: Vec::new(),
            cts_events: Vec::new(),
            b_sightings: Vec::new(),
        }
    }

    fn bin_of(&self, ts: Micros) -> usize {
        (ts.saturating_sub(self.origin) / self.bin_us) as usize
    }

    fn ensure_bin(&mut self, b: usize) {
        if b >= self.per_bin_protecting.len() {
            self.per_bin_protecting.resize_with(b + 1, HashSet::new);
            self.per_bin_g_clients.resize_with(b + 1, HashMap::new);
        }
    }

    /// The AP responsible for a protecting station (itself if it is an AP,
    /// else its association).
    fn bss_ap(stations: &StationLearner, sta: MacAddr) -> Option<MacAddr> {
        if stations.is_ap(sta) {
            Some(sta)
        } else {
            stations.assoc.get(&sta).copied()
        }
    }
}

impl Analyzer for ProtectionAnalysis {
    /// Reads the census mid-stream: the suite has already fed it `jf`.
    fn on_jframe(&mut self, jf: &JFrame, frame: Option<&Frame>, stations: &StationLearner) {
        let Some(frame) = frame else { return };
        let ts = jf.ts;
        match frame {
            Frame::Cts { ra, .. } => {
                // Remember: if OFDM data follows from `ra`, this was
                // CTS-to-self protection.
                self.pending_cts.insert(*ra, jf.end_ts());
            }
            Frame::Data(d) => {
                let b = self.bin_of(ts);
                self.ensure_bin(b);
                let tx = d.addr2;
                // Protection sighting: CTS-to-self + OFDM data from `tx`.
                if !jf.rate.is_b_compatible() {
                    if let Some(&cts_end) = self.pending_cts.get(&tx) {
                        if ts >= cts_end && ts <= cts_end + SIFS_US + 400 {
                            if let Some(ap) = Self::bss_ap(stations, tx) {
                                self.per_bin_protecting[b].insert(ap);
                                self.cts_events.push((ts, ap));
                            }
                            self.pending_cts.remove(&tx);
                        }
                    }
                }
                // b-client sighting: CCK data from a b-only client.
                if d.flags.to_ds && !d.null {
                    let cap = stations.capability_of(tx);
                    if cap == Capability::BOnly {
                        let ap = d.addr1;
                        self.last_b_sighting.insert(ap, ts);
                        self.b_sightings.push((ts, ap));
                    }
                    // Active g client bookkeeping.
                    if cap == Capability::G {
                        self.per_bin_g_clients[b].insert(tx, Some(d.addr1));
                    }
                }
                if d.flags.from_ds && d.addr1.is_unicast() {
                    // Downstream traffic marks the client active too.
                    let cap = stations.capability_of(d.addr1);
                    if cap == Capability::G {
                        self.per_bin_g_clients[b]
                            .entry(d.addr1)
                            .or_insert(Some(d.addr2));
                    }
                }
            }
            Frame::Mgmt { header, body } => {
                // b-only probe requests answered by an AP place a b client
                // in that AP's range; simpler and observable: a b-only
                // association request.
                if let jigsaw_ieee80211::frame::MgmtBody::AssocReq { ies, .. } = body {
                    if !jigsaw_ieee80211::ie::rates_include_ofdm(ies) {
                        self.b_sightings.push((ts, header.da));
                    }
                }
                if let jigsaw_ieee80211::frame::MgmtBody::ProbeResp { .. } = body {
                    // An AP answering a b-only prober has that b client in
                    // range (the paper's probe-response range inference).
                    if stations.capability_of(header.da) == Capability::BOnly {
                        self.b_sightings.push((ts, header.sa));
                    }
                }
            }
            _ => {}
        }
    }

    fn into_figure(self: Box<Self>, _: &StationLearner) -> Box<dyn Figure> {
        let nbins = self.per_bin_protecting.len();
        let mut bins = vec![ProtectionBin::default(); nbins];
        // Sort sightings once; per (ap, bin) decide whether a b client was
        // seen within the practical timeout before the bin's end.
        let mut sightings_by_ap: HashMap<MacAddr, Vec<Micros>> = HashMap::new();
        for (ts, ap) in &self.b_sightings {
            sightings_by_ap.entry(*ap).or_default().push(*ts);
        }
        for v in sightings_by_ap.values_mut() {
            v.sort_unstable();
        }
        for (b, row) in bins.iter_mut().enumerate() {
            let bin_end = self.origin + (b as u64 + 1) * self.bin_us;
            let protecting = &self.per_bin_protecting[b];
            row.protecting_aps = protecting.len();
            let mut overprotective: HashSet<MacAddr> = HashSet::new();
            for ap in protecting {
                let recent_b = sightings_by_ap
                    .get(ap)
                    .map(|v| {
                        let cutoff = bin_end.saturating_sub(self.practical_timeout_us);
                        // Any sighting in (bin_end - timeout, bin_end]?
                        let i = v.partition_point(|&t| t <= cutoff);
                        v.get(i).map(|&t| t <= bin_end).unwrap_or(false)
                    })
                    .unwrap_or(false);
                if !recent_b {
                    overprotective.insert(*ap);
                }
            }
            row.overprotective_aps = overprotective.len();
            let g = &self.per_bin_g_clients[b];
            row.active_g_clients = g.len();
            row.g_clients_on_overprotective = g
                .values()
                .filter(|ap| ap.map(|a| overprotective.contains(&a)).unwrap_or(false))
                .count();
        }
        Box::new(ProtectionFigure {
            bin_us: self.bin_us,
            bins,
            throughput_headroom: throughput_headroom(PhyRate::R54, 1500),
        })
    }
}

/// The paper's footnote-7 estimate: protected vs unprotected airtime for a
/// large frame at `rate`, using a 2 Mbps long-preamble CTS.
pub fn throughput_headroom(rate: PhyRate, mss_frame_len: usize) -> f64 {
    let cts = airtime_us(PhyRate::R2, 14, Preamble::Long) as f64; // 248 µs
    let data = airtime_us(rate, mss_frame_len, Preamble::Long) as f64;
    let ack = ack_airtime_us(rate, Preamble::Long) as f64;
    let sifs = SIFS_US as f64;
    let backoff_bg = mean_backoff_us(CW_MIN_B) as f64; // mixed b/g
    let backoff_g = mean_backoff_us(CW_MIN_G) as f64; // pure g
    (cts + sifs + data + sifs + ack + backoff_bg) / (data + sifs + ack + backoff_g)
}

impl Figure for ProtectionFigure {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn title(&self) -> &'static str {
        "FIGURE 10 — overprotective APs (paper §7.3)"
    }

    /// Renders the per-bin table.
    fn render(&self) -> String {
        let mut s = String::from("bin  protecting_aps  overprotective  g_on_overprot  g_active\n");
        for (b, r) in self.bins.iter().enumerate() {
            s.push_str(&format!(
                "{b:>4} {:>13} {:>14} {:>13} {:>9}\n",
                r.protecting_aps,
                r.overprotective_aps,
                r.g_clients_on_overprotective,
                r.active_g_clients
            ));
        }
        s.push_str(&format!(
            "potential throughput headroom without protection: {:.2}x (paper: 1.98x)\n",
            self.throughput_headroom
        ));
        s
    }

    fn records(&self) -> Vec<Record> {
        let peak =
            |f: fn(&ProtectionBin) -> usize| self.bins.iter().map(f).max().unwrap_or(0) as u64;
        vec![
            Record::u64("bins", self.bins.len() as u64),
            Record::u64("peak_protecting_aps", peak(|b| b.protecting_aps)),
            Record::u64("peak_overprotective_aps", peak(|b| b.overprotective_aps)),
            Record::u64("peak_g_clients", peak(|b| b.active_g_clients)),
            Record::u64(
                "peak_g_on_overprotective",
                peak(|b| b.g_clients_on_overprotective),
            ),
            Record::f64("throughput_headroom", self.throughput_headroom),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::only_figure;
    use crate::suite::Suite;
    use jigsaw_core::PipelineObserver;

    #[test]
    fn headroom_matches_footnote7() {
        let h = throughput_headroom(PhyRate::R54, 1500);
        assert!((1.7..2.3).contains(&h), "headroom {h}");
    }

    #[test]
    fn headroom_larger_for_faster_rates() {
        // Protection overhead hurts more the faster the data goes.
        let h54 = throughput_headroom(PhyRate::R54, 1500);
        let h6 = throughput_headroom(PhyRate::R6, 1500);
        assert!(h54 > h6);
    }

    #[test]
    fn protection_lifecycle_binning() {
        use jigsaw_ieee80211::wire::serialize_frame;
        use jigsaw_ieee80211::SeqNum;
        let bin = 1_000_000u64;
        let mut p = Suite::new().register(ProtectionAnalysis::new(0, bin, 2_000_000));
        let ap = MacAddr::local(0, 1);
        let g_client = MacAddr::local(3, 1);

        let mk = |f: &Frame, ts: u64, rate: PhyRate| {
            let bytes = serialize_frame(f);
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
        };

        // Learn the AP and a g client association.
        p.on_jframe(&mk(
            &jigsaw_sim::frames::beacon(ap, b"x", 1, true, 5, SeqNum::new(0)),
            10,
            PhyRate::R1,
        ));
        // g client sends OFDM data with CTS-to-self in bin 0.
        let g_probe = jigsaw_sim::frames::probe_req(g_client, false, SeqNum::new(0));
        p.on_jframe(&mk(&g_probe, 20, PhyRate::R1));
        let cts = Frame::Cts {
            duration: 400,
            ra: g_client,
        };
        let cts_jf = mk(&cts, 100_000, PhyRate::R2);
        let cts_end = cts_jf.end_ts();
        p.on_jframe(&cts_jf);
        let data = jigsaw_sim::frames::data_frame(
            ap,
            g_client,
            MacAddr::local(9, 1),
            true,
            false,
            SeqNum::new(1),
            false,
            PhyRate::R54,
            Preamble::Long,
            vec![0; 200],
        );
        p.on_jframe(&mk(&data, cts_end + SIFS_US, PhyRate::R54));

        let fig: ProtectionFigure = only_figure(p);
        assert!(!fig.bins.is_empty());
        let b0 = &fig.bins[0];
        assert_eq!(b0.protecting_aps, 1);
        // No b clients anywhere → overprotective.
        assert_eq!(b0.overprotective_aps, 1);
        assert_eq!(b0.active_g_clients, 1);
        assert_eq!(b0.g_clients_on_overprotective, 1);
    }

    #[test]
    fn b_sighting_clears_overprotective() {
        use jigsaw_ieee80211::wire::serialize_frame;
        use jigsaw_ieee80211::SeqNum;
        let bin = 1_000_000u64;
        let mut p = Suite::new().register(ProtectionAnalysis::new(0, bin, 5_000_000));
        let ap = MacAddr::local(0, 1);
        let b_client = MacAddr::local(3, 9);
        let g_client = MacAddr::local(3, 1);

        let mk = |f: &Frame, ts: u64, rate: PhyRate| {
            let bytes = serialize_frame(f);
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
        };

        p.on_jframe(&mk(
            &jigsaw_sim::frames::beacon(ap, b"x", 1, true, 5, SeqNum::new(0)),
            10,
            PhyRate::R1,
        ));
        // A b-only client probes and sends CCK data to the AP.
        p.on_jframe(&mk(
            &jigsaw_sim::frames::probe_req(b_client, true, SeqNum::new(0)),
            50,
            PhyRate::R1,
        ));
        let bdata = jigsaw_sim::frames::data_frame(
            ap,
            b_client,
            MacAddr::local(9, 1),
            true,
            false,
            SeqNum::new(1),
            false,
            PhyRate::R11,
            Preamble::Long,
            vec![0; 100],
        );
        p.on_jframe(&mk(&bdata, 60_000, PhyRate::R11));
        // Then protected OFDM traffic in the same bin.
        p.on_jframe(&mk(
            &jigsaw_sim::frames::probe_req(g_client, false, SeqNum::new(0)),
            70_000,
            PhyRate::R1,
        ));
        let cts = Frame::Cts {
            duration: 400,
            ra: g_client,
        };
        let cj = mk(&cts, 100_000, PhyRate::R2);
        let ce = cj.end_ts();
        p.on_jframe(&cj);
        let gdata = jigsaw_sim::frames::data_frame(
            ap,
            g_client,
            MacAddr::local(9, 1),
            true,
            false,
            SeqNum::new(2),
            false,
            PhyRate::R54,
            Preamble::Long,
            vec![0; 200],
        );
        p.on_jframe(&mk(&gdata, ce + SIFS_US, PhyRate::R54));

        let fig: ProtectionFigure = only_figure(p);
        let b0 = &fig.bins[0];
        assert_eq!(b0.protecting_aps, 1);
        // b client recently seen → NOT overprotective.
        assert_eq!(b0.overprotective_aps, 0);
    }
}
