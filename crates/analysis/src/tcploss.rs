//! Figure 11 — TCP loss rate, split into its wireless and wired components.
//!
//! Operates on the transport layer's per-flow records (handshake-complete
//! flows only, as the paper filters), delivered through the observer's
//! `on_flows` hook — so the one analysis that used to be post-hoc
//! (consuming `report.flows` after the run) now rides the same
//! [`Analyzer`] interface as every jframe-streaming figure. The finding
//! being reproduced: the wireless hop dominates TCP loss in an
//! enterprise WLAN.

use crate::stations::StationLearner;
use crate::stats::{Cdf, SealedCdf};
use crate::suite::{Analyzer, Figure, Record};
use jigsaw_core::transport::flow::FlowRecord;

/// The finished Figure 11.
#[derive(Debug)]
pub struct TcpLossFigure {
    /// CDF of per-flow total TCP loss rate.
    pub loss_cdf: SealedCdf,
    /// CDF of per-flow *wireless* loss rate.
    pub wireless_cdf: SealedCdf,
    /// CDF of per-flow *wired* loss rate.
    pub wired_cdf: SealedCdf,
    /// Handshake-complete flows analyzed.
    pub flows: usize,
    /// Flows excluded (no handshake — port scans, failures).
    pub flows_excluded: usize,
    /// Aggregate wireless share of all loss events (paper: dominant).
    pub wireless_share: f64,
    /// Total loss events.
    pub loss_events: u64,
}

/// Builds Figure 11 from flow records.
pub fn tcp_loss_figure(flows: &[FlowRecord]) -> TcpLossFigure {
    let mut loss_cdf = Cdf::new();
    let mut wireless_cdf = Cdf::new();
    let mut wired_cdf = Cdf::new();
    let mut wireless = 0u64;
    let mut wired = 0u64;
    let mut kept = 0usize;
    let mut excluded = 0usize;
    for f in flows {
        if !f.established || f.segments == 0 {
            excluded += 1;
            continue;
        }
        kept += 1;
        loss_cdf.add(f.loss_rate);
        wireless_cdf.add(f.wireless_losses as f64 / f.segments as f64);
        wired_cdf.add(f.wired_losses as f64 / f.segments as f64);
        wireless += f.wireless_losses;
        wired += f.wired_losses;
    }
    let total = wireless + wired;
    TcpLossFigure {
        loss_cdf: loss_cdf.seal(),
        wireless_cdf: wireless_cdf.seal(),
        wired_cdf: wired_cdf.seal(),
        flows: kept,
        flows_excluded: excluded,
        wireless_share: if total > 0 {
            wireless as f64 / total as f64
        } else {
            0.0
        },
        loss_events: total,
    }
}

/// Streaming Figure-11 builder: captures the flow records the pipeline
/// delivers once at the end of the run.
#[derive(Debug, Default)]
pub struct TcpLossAnalysis {
    fig: Option<TcpLossFigure>,
}

impl TcpLossAnalysis {
    /// Empty analysis.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Analyzer for TcpLossAnalysis {
    fn on_flows(&mut self, flows: &[FlowRecord]) {
        self.fig = Some(tcp_loss_figure(flows));
    }

    /// Figure 11 (empty if no flow records ever arrived).
    fn into_figure(self: Box<Self>, _: &StationLearner) -> Box<dyn Figure> {
        Box::new(self.fig.unwrap_or_else(|| tcp_loss_figure(&[])))
    }
}

impl Figure for TcpLossFigure {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn title(&self) -> &'static str {
        "FIGURE 11 — TCP loss rate, wireless vs wired (paper §7.4)"
    }

    /// Renders the three CDFs side by side.
    fn render(&self) -> String {
        let mut s = String::from("loss_rate  total_cdf  wireless_cdf  wired_cdf\n");
        for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99] {
            s.push_str(&format!(
                "q{:0>2}   {:>8.4}  {:>9.4}  {:>8.4}\n",
                (q * 100.0) as u32,
                self.loss_cdf.quantile(q).unwrap_or(0.0),
                self.wireless_cdf.quantile(q).unwrap_or(0.0),
                self.wired_cdf.quantile(q).unwrap_or(0.0),
            ));
        }
        s.push_str(&format!(
            "flows={} excluded={} loss-events={} wireless-share={:.2} (paper: wireless dominant)\n",
            self.flows, self.flows_excluded, self.loss_events, self.wireless_share
        ));
        s
    }

    fn records(&self) -> Vec<Record> {
        vec![
            Record::u64("flows", self.flows as u64),
            Record::u64("flows_excluded", self.flows_excluded as u64),
            Record::u64("loss_events", self.loss_events),
            Record::f64("wireless_share", self.wireless_share),
            Record::f64("p50_loss_rate", self.loss_cdf.quantile(0.5).unwrap_or(0.0)),
            Record::f64("p90_loss_rate", self.loss_cdf.quantile(0.9).unwrap_or(0.0)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::only_figure;
    use crate::suite::Suite;
    use jigsaw_core::transport::flow::FlowKey;
    use jigsaw_core::PipelineObserver;
    use std::net::Ipv4Addr;

    fn flow(established: bool, segs: u64, wl: u64, wd: u64) -> FlowRecord {
        let losses = wl + wd;
        FlowRecord {
            key: FlowKey {
                a: (Ipv4Addr::new(10, 0, 0, 1), 1000),
                b: (Ipv4Addr::new(10, 0, 0, 2), 80),
            },
            established,
            first_ts: 0,
            last_ts: 1,
            segments: segs,
            bytes: segs * 1000,
            wireless_losses: wl,
            wired_losses: wd,
            covered_holes: 0,
            ambiguous_resolved: 0,
            rtt_mean_us: Some(20_000.0),
            loss_rate: if segs > 0 {
                losses as f64 / segs as f64
            } else {
                0.0
            },
            wireless_fraction: if losses > 0 {
                wl as f64 / losses as f64
            } else {
                0.0
            },
        }
    }

    #[test]
    fn wireless_dominance_measured() {
        let flows = vec![
            flow(true, 100, 8, 2),
            flow(true, 200, 10, 1),
            flow(true, 50, 0, 0),
            flow(false, 10, 5, 5), // excluded: no handshake
        ];
        let fig = tcp_loss_figure(&flows);
        assert_eq!(fig.flows, 3);
        assert_eq!(fig.flows_excluded, 1);
        assert_eq!(fig.loss_events, 21);
        assert!(fig.wireless_share > 0.8, "share {}", fig.wireless_share);
        let text = fig.render();
        assert!(text.contains("wireless-share"));
    }

    #[test]
    fn analyzer_on_flows_matches_post_hoc() {
        let flows = vec![flow(true, 100, 8, 2), flow(false, 10, 5, 5)];
        let mut suite = Suite::new().register(TcpLossAnalysis::new());
        suite.on_flows(&flows);
        let via_trait: TcpLossFigure = only_figure(suite);
        let post_hoc = tcp_loss_figure(&flows);
        assert_eq!(via_trait.render(), post_hoc.render());
        assert_eq!(via_trait.records(), post_hoc.records());
        // Never fed → the empty figure.
        let empty: TcpLossFigure = only_figure(Suite::new().register(TcpLossAnalysis::new()));
        assert_eq!(empty.flows, 0);
    }

    #[test]
    fn empty_flows() {
        let fig = tcp_loss_figure(&[]);
        assert_eq!(fig.flows, 0);
        assert_eq!(fig.wireless_share, 0.0);
    }

    #[test]
    fn quantiles_ordered() {
        let flows: Vec<FlowRecord> = (0..50).map(|k| flow(true, 100, k % 7, k % 3)).collect();
        let fig = tcp_loss_figure(&flows);
        let q50 = fig.loss_cdf.quantile(0.5).unwrap();
        let q90 = fig.loss_cdf.quantile(0.9).unwrap();
        assert!(q50 <= q90);
    }
}
