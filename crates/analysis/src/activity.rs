//! Figure 8 — network activity over the day.
//!
//! (a) active clients and active APs per time bin (a client is active when
//! it communicates with an AP or is establishing an association; an AP is
//! active when it communicates with an active client — beaconing alone does
//! not count);
//! (b) traffic per bin split into the paper's four categories — Data,
//! Management/control, Beacon, and ARP — plus the broadcast airtime share
//! that drives §7.1's "broadcast regularly consumes 10% of the channel"
//! finding.

use crate::stations::StationLearner;
use crate::stats::TimeSeries;
use crate::suite::{Analyzer, Figure, Record};
use jigsaw_core::jframe::JFrame;
use jigsaw_ieee80211::frame::{Frame, MgmtBody};
use jigsaw_ieee80211::timing::{airtime_us, Preamble};
use jigsaw_ieee80211::{MacAddr, Micros};
use jigsaw_packet::Msdu;
// tidy:allow-file(hash-order): sets answer membership/cardinality queries only; every per-bin output is a count, never an iteration order
use std::collections::HashSet;

/// Traffic categories of Figure 8(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Unicast and broadcast data frames (excluding ARP payloads).
    Data,
    /// Management and control traffic (probes, associations, ACKs, CTS…).
    Management,
    /// AP beacons.
    Beacon,
    /// ARP broadcasts/replies — split out for their §7.1 prominence.
    Arp,
}

/// The Figure-8 time series bundle.
#[derive(Debug)]
pub struct ActivityFigure {
    /// Bin width, µs.
    pub bin_us: Micros,
    /// Active clients per bin.
    pub active_clients: Vec<usize>,
    /// Active APs per bin.
    pub active_aps: Vec<usize>,
    /// Bytes per bin by category.
    pub bytes_data: TimeSeries,
    /// Management/control bytes.
    pub bytes_mgmt: TimeSeries,
    /// Beacon bytes.
    pub bytes_beacon: TimeSeries,
    /// ARP bytes.
    pub bytes_arp: TimeSeries,
    /// Airtime (µs) consumed by broadcast frames per bin.
    pub broadcast_airtime: TimeSeries,
    /// Airtime (µs) consumed by all frames per bin.
    pub total_airtime: TimeSeries,
}

/// Streaming Figure-8 builder.
pub struct ActivityAnalysis {
    origin: Micros,
    bin_us: Micros,
    clients_per_bin: Vec<HashSet<MacAddr>>,
    aps_per_bin: Vec<HashSet<MacAddr>>,
    fig: ActivityFigure,
}

impl ActivityAnalysis {
    /// Creates a builder binning from `origin` with `bin_us`-wide bins.
    pub fn new(origin: Micros, bin_us: Micros) -> Self {
        ActivityAnalysis {
            origin,
            bin_us,
            clients_per_bin: Vec::new(),
            aps_per_bin: Vec::new(),
            fig: ActivityFigure {
                bin_us,
                active_clients: Vec::new(),
                active_aps: Vec::new(),
                bytes_data: TimeSeries::new(origin, bin_us),
                bytes_mgmt: TimeSeries::new(origin, bin_us),
                bytes_beacon: TimeSeries::new(origin, bin_us),
                bytes_arp: TimeSeries::new(origin, bin_us),
                broadcast_airtime: TimeSeries::new(origin, bin_us),
                total_airtime: TimeSeries::new(origin, bin_us),
            },
        }
    }

    fn mark_active(map: &mut Vec<HashSet<MacAddr>>, bin: usize, addr: MacAddr) {
        if bin >= map.len() {
            map.resize_with(bin + 1, HashSet::new);
        }
        map[bin].insert(addr);
    }

    /// Classifies a valid frame into a Figure-8 category.
    pub fn categorize(frame: &Frame) -> Category {
        match frame {
            Frame::Mgmt { body, .. } => match body {
                MgmtBody::Beacon { .. } => Category::Beacon,
                _ => Category::Management,
            },
            Frame::Ack { .. } | Frame::Cts { .. } | Frame::Rts { .. } => Category::Management,
            Frame::Data(d) => {
                if Msdu::parse(&d.body)
                    .map(|m| matches!(m, Msdu::Arp(_)))
                    .unwrap_or(false)
                {
                    Category::Arp
                } else {
                    Category::Data
                }
            }
        }
    }
}

impl Analyzer for ActivityAnalysis {
    fn on_jframe(&mut self, jf: &JFrame, frame: Option<&Frame>, _: &StationLearner) {
        let Some(frame) = frame else { return };
        let bin = ((jf.ts.saturating_sub(self.origin)) / self.bin_us) as usize;
        let bytes = f64::from(jf.wire_len);
        let air = airtime_us(jf.rate, jf.wire_len as usize, Preamble::Long) as f64;
        self.fig.total_airtime.add(jf.ts, air);
        if frame.receiver().is_multicast() {
            self.fig.broadcast_airtime.add(jf.ts, air);
        }
        match Self::categorize(frame) {
            Category::Data => self.fig.bytes_data.add(jf.ts, bytes),
            Category::Management => self.fig.bytes_mgmt.add(jf.ts, bytes),
            Category::Beacon => self.fig.bytes_beacon.add(jf.ts, bytes),
            Category::Arp => self.fig.bytes_arp.add(jf.ts, bytes),
        }

        // Activity: a client is active when communicating with an AP or
        // associating; the AP it talks to becomes active as well.
        match frame {
            Frame::Data(d) if !d.null => {
                if d.flags.to_ds {
                    Self::mark_active(&mut self.clients_per_bin, bin, d.addr2);
                    Self::mark_active(&mut self.aps_per_bin, bin, d.addr1);
                } else if d.flags.from_ds && d.addr1.is_unicast() {
                    Self::mark_active(&mut self.clients_per_bin, bin, d.addr1);
                    Self::mark_active(&mut self.aps_per_bin, bin, d.addr2);
                }
            }
            Frame::Mgmt { header, body } => match body {
                MgmtBody::ProbeReq { .. }
                | MgmtBody::AssocReq { .. }
                | MgmtBody::ReassocReq { .. }
                | MgmtBody::Auth { .. } => {
                    Self::mark_active(&mut self.clients_per_bin, bin, header.sa);
                }
                MgmtBody::AssocResp { .. } | MgmtBody::ReassocResp { .. } => {
                    Self::mark_active(&mut self.clients_per_bin, bin, header.da);
                    Self::mark_active(&mut self.aps_per_bin, bin, header.sa);
                }
                _ => {}
            },
            _ => {}
        }
    }

    fn into_figure(mut self: Box<Self>, stations: &StationLearner) -> Box<dyn Figure> {
        // Only count as clients things that never beaconed (an AP's FromDS
        // data frames name it in mark_active's AP map already).
        let n = self.clients_per_bin.len().max(self.aps_per_bin.len());
        self.clients_per_bin.resize_with(n, HashSet::new);
        self.aps_per_bin.resize_with(n, HashSet::new);
        self.fig.active_clients = self
            .clients_per_bin
            .iter()
            .map(|s| s.iter().filter(|a| !stations.is_ap(**a)).count())
            .collect();
        self.fig.active_aps = self.aps_per_bin.iter().map(|s| s.len()).collect();
        Box::new(self.fig)
    }
}

impl ActivityFigure {
    /// Broadcast share of airtime over the whole trace (paper: ~10%).
    pub fn broadcast_airtime_fraction(&self) -> f64 {
        let total = self.total_airtime.total();
        if total > 0.0 {
            self.broadcast_airtime.total() / total
        } else {
            0.0
        }
    }
}

impl Figure for ActivityFigure {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn title(&self) -> &'static str {
        "FIGURE 8 — diurnal activity time series (paper §7.1)"
    }

    /// Renders the per-bin table, then the whole trace's broadcast
    /// airtime share against the paper's.
    fn render(&self) -> String {
        let mut s =
            String::from("bin  clients  aps  data_B  mgmt_B  beacon_B  arp_B  bcast_air_frac\n");
        let bins = self
            .active_clients
            .len()
            .max(self.bytes_data.bins().len())
            .max(self.bytes_beacon.bins().len());
        for b in 0..bins {
            let g = |t: &TimeSeries| t.bins().get(b).copied().unwrap_or(0.0);
            let air = g(&self.total_airtime);
            let frac = if air > 0.0 {
                g(&self.broadcast_airtime) / air
            } else {
                0.0
            };
            s.push_str(&format!(
                "{b:>4} {:>7} {:>4} {:>8.0} {:>7.0} {:>8.0} {:>6.0}  {frac:.3}\n",
                self.active_clients.get(b).copied().unwrap_or(0),
                self.active_aps.get(b).copied().unwrap_or(0),
                g(&self.bytes_data),
                g(&self.bytes_mgmt),
                g(&self.bytes_beacon),
                g(&self.bytes_arp),
            ));
        }
        s.push_str(&format!(
            "broadcast airtime share: {:.3} (paper: ~0.10 'as seen by any given monitor')\n",
            self.broadcast_airtime_fraction()
        ));
        s
    }

    fn records(&self) -> Vec<Record> {
        let peak_clients = self.active_clients.iter().copied().max().unwrap_or(0);
        let peak_aps = self.active_aps.iter().copied().max().unwrap_or(0);
        // Byte totals are whole numbers accumulated as f64 — type them as
        // integers, matching table1's byte records (rounding guards
        // against any accumulated representation error).
        let bytes = |t: &TimeSeries| t.total().round() as u64;
        vec![
            Record::u64("bins", self.active_clients.len() as u64),
            Record::u64("peak_clients", peak_clients as u64),
            Record::u64("peak_aps", peak_aps as u64),
            Record::u64("data_bytes", bytes(&self.bytes_data)),
            Record::u64("mgmt_bytes", bytes(&self.bytes_mgmt)),
            Record::u64("beacon_bytes", bytes(&self.bytes_beacon)),
            Record::u64("arp_bytes", bytes(&self.bytes_arp)),
            Record::f64(
                "broadcast_airtime_fraction",
                self.broadcast_airtime_fraction(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::only_figure;
    use crate::suite::Suite;
    use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
    use jigsaw_sim::scenario::ScenarioConfig;

    #[test]
    fn activity_from_tiny_world() {
        let out = ScenarioConfig::tiny(9).run();
        let day = out.duration_us;
        let bin = day / 8;
        let mut suite = Suite::new().register(ActivityAnalysis::new(0, bin));
        Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut suite).unwrap();
        let fig: ActivityFigure = only_figure(suite);
        // Both clients become active at some point.
        let peak_clients = fig.active_clients.iter().copied().max().unwrap_or(0);
        assert!(peak_clients >= 1, "no active clients seen");
        let peak_aps = fig.active_aps.iter().copied().max().unwrap_or(0);
        assert_eq!(peak_aps, 1);
        // Beacons are constant background: every bin has beacon bytes.
        let beacon_bins = fig.bytes_beacon.bins().iter().filter(|&&b| b > 0.0).count();
        assert!(beacon_bins >= 7, "beacon bins {beacon_bins}");
        // Data flows exist.
        assert!(fig.bytes_data.total() > 0.0);
        // Broadcast airtime share is meaningful but not dominant.
        let f = fig.broadcast_airtime_fraction();
        assert!(f > 0.01 && f < 0.9, "broadcast fraction {f}");
        assert!(fig.render().contains("clients"));
    }

    #[test]
    fn categorization() {
        use jigsaw_ieee80211::{MacAddr, SeqNum};
        let beacon =
            jigsaw_sim::frames::beacon(MacAddr::local(0, 1), b"x", 1, false, 7, SeqNum::new(0));
        assert_eq!(ActivityAnalysis::categorize(&beacon), Category::Beacon);
        let ack = Frame::Ack {
            duration: 0,
            ra: MacAddr::local(1, 1),
        };
        assert_eq!(ActivityAnalysis::categorize(&ack), Category::Management);
        // ARP data frame.
        let arp = jigsaw_packet::ArpPacket::who_has(
            [2, 0, 0, 0, 0, 1],
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
        );
        let body = Msdu::Arp(arp).to_bytes();
        let d = jigsaw_sim::frames::data_frame(
            MacAddr::BROADCAST,
            MacAddr::local(0, 1),
            MacAddr::local(9, 1),
            false,
            true,
            SeqNum::new(1),
            false,
            jigsaw_ieee80211::PhyRate::R1,
            Preamble::Long,
            body,
        );
        assert_eq!(ActivityAnalysis::categorize(&d), Category::Arp);
    }
}
