//! Table 1 — trace summary characteristics.
//!
//! The paper's Table 1 reports, for a 24-hour trace: monitors/radios,
//! total events, the PHY/CRC-error share, unified events, jframes, events
//! per jframe, APs observed (in-building and external), unique clients,
//! and traffic volumes. This module computes the same rows from the
//! pipeline's outputs.

use crate::stations::StationLearner;
use crate::suite::{Analyzer, Figure, Record};
use jigsaw_core::jframe::JFrame;
use jigsaw_core::transport::flow::FlowRecord;
use jigsaw_ieee80211::frame::Frame;
use jigsaw_ieee80211::{FrameType, Micros};
use jigsaw_trace::PhyStatus;

/// Accumulates Table-1 statistics from the jframe stream (flow counts
/// arrive through `on_flows`, the AP and client counts from the suite's
/// station census).
#[derive(Debug, Default)]
pub struct SummaryBuilder {
    radios: usize,
    events_total: u64,
    events_phy_err: u64,
    events_fcs_err: u64,
    events_unified: u64,
    jframes: u64,
    valid_jframes: u64,
    data_frames: u64,
    mgmt_frames: u64,
    ctrl_frames: u64,
    bytes_on_air: u64,
    first_ts: Option<Micros>,
    last_ts: Micros,
    flows: u64,
    flows_established: u64,
}

/// The finished table.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Trace duration on the universal clock, µs.
    pub duration_us: Micros,
    /// Number of radios that contributed events.
    pub radios: usize,
    /// Total PHY events across all radios.
    pub events_total: u64,
    /// PHY-error events.
    pub events_phy_err: u64,
    /// FCS-error events.
    pub events_fcs_err: u64,
    /// Fraction of events that were PHY or CRC errors (paper: 47%).
    pub error_fraction: f64,
    /// Events unified into multi-or-single-instance jframes (valid frames
    /// plus associated error frames — the paper's 1.58 B).
    pub events_unified: u64,
    /// jframes produced (the paper's 530 M).
    pub jframes: u64,
    /// jframes with at least one valid instance.
    pub valid_jframes: u64,
    /// Average events per jframe (the paper's 2.97).
    pub events_per_jframe: f64,
    /// Data / management / control frame counts among valid jframes.
    pub data_frames: u64,
    /// Management frames.
    pub mgmt_frames: u64,
    /// Control frames.
    pub ctrl_frames: u64,
    /// Total bytes that crossed the air in valid frames.
    pub bytes_on_air: u64,
    /// APs observed (addresses that beaconed) — in-building + external.
    pub aps_observed: usize,
    /// Unique client addresses observed.
    pub clients_observed: usize,
    /// TCP flows reconstructed / with complete handshakes.
    pub flows: u64,
    /// Flows with complete handshakes.
    pub flows_established: u64,
}

impl SummaryBuilder {
    /// Empty builder for a trace captured by `radios` radios.
    pub fn new(radios: usize) -> Self {
        SummaryBuilder {
            radios,
            ..Self::default()
        }
    }
}

impl Analyzer for SummaryBuilder {
    fn on_jframe(&mut self, jf: &JFrame, _: Option<&Frame>, _: &StationLearner) {
        self.jframes += 1;
        self.events_total += jf.instance_count() as u64;
        for i in &jf.instances {
            match i.status {
                PhyStatus::PhyError => self.events_phy_err += 1,
                PhyStatus::FcsError => self.events_fcs_err += 1,
                PhyStatus::Ok => {}
            }
        }
        if jf.valid {
            self.valid_jframes += 1;
            self.events_unified += jf.instance_count() as u64;
            self.bytes_on_air += u64::from(jf.wire_len);
            if let Some(h) = jf.header() {
                match h.subtype.frame_type() {
                    FrameType::Data => self.data_frames += 1,
                    FrameType::Management => self.mgmt_frames += 1,
                    FrameType::Control => self.ctrl_frames += 1,
                }
            }
        }
        if self.first_ts.is_none() {
            self.first_ts = Some(jf.ts);
        }
        self.last_ts = self.last_ts.max(jf.ts);
    }

    fn on_flows(&mut self, flows: &[FlowRecord]) {
        self.flows = flows.len() as u64;
        self.flows_established = flows.iter().filter(|f| f.established).count() as u64;
    }

    fn into_figure(self: Box<Self>, stations: &StationLearner) -> Box<dyn Figure> {
        let err = self.events_phy_err + self.events_fcs_err;
        Box::new(TraceSummary {
            duration_us: self.last_ts.saturating_sub(self.first_ts.unwrap_or(0)),
            radios: self.radios,
            events_total: self.events_total,
            events_phy_err: self.events_phy_err,
            events_fcs_err: self.events_fcs_err,
            error_fraction: if self.events_total > 0 {
                err as f64 / self.events_total as f64
            } else {
                0.0
            },
            events_unified: self.events_unified,
            jframes: self.jframes,
            valid_jframes: self.valid_jframes,
            events_per_jframe: if self.valid_jframes > 0 {
                self.events_unified as f64 / self.valid_jframes as f64
            } else {
                0.0
            },
            data_frames: self.data_frames,
            mgmt_frames: self.mgmt_frames,
            ctrl_frames: self.ctrl_frames,
            bytes_on_air: self.bytes_on_air,
            aps_observed: stations.aps.len(),
            clients_observed: stations.clients.len(),
            flows: self.flows,
            flows_established: self.flows_established,
        })
    }
}

impl Figure for TraceSummary {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "TABLE 1 — trace summary (paper §7.1)"
    }

    /// Renders the table in the paper's row format, the paper's
    /// full-scale numbers quoted beneath.
    fn render(&self) -> String {
        let mut s = String::new();
        let mut row = |k: &str, v: String| {
            s.push_str(&format!("{k:<38} {v}\n"));
        };
        row(
            "Trace duration (s)",
            format!("{:.1}", self.duration_us as f64 / 1e6),
        );
        row("Radios", self.radios.to_string());
        row("Total events", self.events_total.to_string());
        row(
            "PHY/CRC error events",
            format!(
                "{} ({:.0}%)",
                self.events_phy_err + self.events_fcs_err,
                self.error_fraction * 100.0
            ),
        );
        row("Events unified", self.events_unified.to_string());
        row("jframes", self.jframes.to_string());
        row(
            "Events per valid jframe",
            format!("{:.2}", self.events_per_jframe),
        );
        row("Data frames", self.data_frames.to_string());
        row("Management frames", self.mgmt_frames.to_string());
        row("Control frames", self.ctrl_frames.to_string());
        row("Bytes on air", self.bytes_on_air.to_string());
        row("APs observed", self.aps_observed.to_string());
        row("Unique clients", self.clients_observed.to_string());
        row(
            "TCP flows (handshake-complete)",
            format!("{} ({})", self.flows, self.flows_established),
        );
        s.push_str(
            "(paper, full scale: 2.7B events, 47% errors, 1.58B unified, 530M jframes, 2.97 events/jframe, 1026 clients)\n",
        );
        s
    }

    fn records(&self) -> Vec<Record> {
        vec![
            Record::u64("duration_us", self.duration_us),
            Record::u64("radios", self.radios as u64),
            Record::u64("events_total", self.events_total),
            Record::u64("events_phy_err", self.events_phy_err),
            Record::u64("events_fcs_err", self.events_fcs_err),
            Record::f64("error_fraction", self.error_fraction),
            Record::u64("events_unified", self.events_unified),
            Record::u64("jframes", self.jframes),
            Record::u64("valid_jframes", self.valid_jframes),
            Record::f64("events_per_jframe", self.events_per_jframe),
            Record::u64("data_frames", self.data_frames),
            Record::u64("mgmt_frames", self.mgmt_frames),
            Record::u64("ctrl_frames", self.ctrl_frames),
            Record::u64("bytes_on_air", self.bytes_on_air),
            Record::u64("aps_observed", self.aps_observed as u64),
            Record::u64("clients_observed", self.clients_observed as u64),
            Record::u64("flows", self.flows),
            Record::u64("flows_established", self.flows_established),
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
    fn summary_from_tiny_world() {
        let out = ScenarioConfig::tiny(3).run();
        let mut suite = Suite::new().register(SummaryBuilder::new(out.radio_meta.len()));
        let report =
            Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut suite).unwrap();
        let t: TraceSummary = only_figure(suite);
        assert_eq!(t.radios, report.bootstrap.offsets.len());
        assert_eq!(t.flows, report.transport.flows);
        assert_eq!(t.flows_established, report.transport.established);
        assert_eq!(t.events_total, out.total_events());
        assert!(t.jframes > 0);
        assert!(t.events_per_jframe > 1.0, "epj {}", t.events_per_jframe);
        assert!(t.error_fraction > 0.0 && t.error_fraction < 0.9);
        assert_eq!(t.aps_observed, 1);
        assert!(t.clients_observed >= 1);
        assert!(t.flows_established > 0);
        assert!(t.data_frames > 50);
        assert!(t.mgmt_frames > 50); // beacons
        assert!(t.ctrl_frames > 20); // acks
        let rendered = t.render();
        assert!(rendered.contains("jframes"));
        assert!(rendered.contains("Unique clients"));
    }
}
