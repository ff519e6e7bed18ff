//! Figure 4 — CDF of group dispersion across all jframes.
//!
//! The paper reports, for 156 radios over 24 hours with a 10 ms search
//! window: 90% of jframes see a worst-case inter-radio offset under 10 µs
//! and 99% under 20 µs. This analysis reproduces the CDF from the merge's
//! dispersion values (multi-instance jframes only — a singleton has no
//! dispersion by definition).

use crate::stations::StationLearner;
use crate::stats::{Cdf, SealedCdf};
use crate::suite::{Analyzer, Figure, Record};
use jigsaw_core::jframe::JFrame;
use jigsaw_ieee80211::frame::Frame;

/// Streaming Figure-4 builder.
#[derive(Debug, Default)]
pub struct DispersionAnalysis {
    cdf: Cdf,
    singletons: u64,
}

/// The finished figure.
#[derive(Debug)]
pub struct DispersionFigure {
    /// The CDF of group dispersion (µs) over multi-instance jframes.
    pub cdf: SealedCdf,
    /// jframes with a single instance (excluded from the CDF).
    pub singletons: u64,
    /// Fraction of jframes with dispersion < 10 µs (paper: 0.90).
    pub frac_below_10us: f64,
    /// Fraction below 20 µs (paper: 0.99).
    pub frac_below_20us: f64,
}

impl DispersionAnalysis {
    /// Empty analysis.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Analyzer for DispersionAnalysis {
    fn on_jframe(&mut self, jf: &JFrame, _: Option<&Frame>, _: &StationLearner) {
        if jf.instance_count() >= 2 && jf.valid {
            self.cdf.add(jf.dispersion as f64);
        } else {
            self.singletons += 1;
        }
    }

    fn into_figure(self: Box<Self>, _: &StationLearner) -> Box<dyn Figure> {
        let cdf = self.cdf.seal();
        let frac_below_10us = cdf.fraction_below(10.0);
        let frac_below_20us = cdf.fraction_below(20.0);
        Box::new(DispersionFigure {
            cdf,
            singletons: self.singletons,
            frac_below_10us,
            frac_below_20us,
        })
    }
}

impl Figure for DispersionFigure {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn title(&self) -> &'static str {
        "FIGURE 4 — CDF of group dispersion (paper §4.2)"
    }

    /// Prints the CDF series the way the paper's Figure 4 plots it, at 20
    /// points.
    fn render(&self) -> String {
        let mut s = String::from("dispersion_us  cumulative_fraction\n");
        for (v, f) in self.cdf.points(20) {
            s.push_str(&format!("{v:>10.1}    {f:.4}\n"));
        }
        s.push_str(&format!(
            "P[disp < 10us] = {:.3}   P[disp < 20us] = {:.3}   (paper: 0.90 / 0.99)\n",
            self.frac_below_10us, self.frac_below_20us
        ));
        s
    }

    fn records(&self) -> Vec<Record> {
        vec![
            Record::u64("samples", self.cdf.len() as u64),
            Record::u64("singletons", self.singletons),
            Record::f64("frac_below_10us", self.frac_below_10us),
            Record::f64("frac_below_20us", self.frac_below_20us),
            Record::f64("p50_us", self.cdf.quantile(0.5).unwrap_or(0.0)),
            Record::f64("p99_us", self.cdf.quantile(0.99).unwrap_or(0.0)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::only_figure;
    use crate::suite::Suite;
    use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
    use jigsaw_core::PipelineObserver;
    use jigsaw_sim::scenario::ScenarioConfig;

    #[test]
    fn tiny_world_matches_paper_shape() {
        let out = ScenarioConfig::tiny(17).run();
        let mut suite = Suite::new().register(DispersionAnalysis::new());
        Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut suite).unwrap();
        let fig: DispersionFigure = only_figure(suite);
        assert!(fig.cdf.len() > 50, "too few multi-instance jframes");
        // The paper's headline: 90% < 10 µs, 99% < 20 µs. Our synthetic
        // clocks should meet or beat that.
        assert!(
            fig.frac_below_10us >= 0.80,
            "frac<10us = {}",
            fig.frac_below_10us
        );
        assert!(
            fig.frac_below_20us >= 0.95,
            "frac<20us = {}",
            fig.frac_below_20us
        );
        let text = fig.render();
        assert!(text.contains("cumulative_fraction"));
        assert!(text.contains("(paper: 0.90 / 0.99)"));
    }

    #[test]
    fn singletons_excluded() {
        let mut suite = Suite::new().register(DispersionAnalysis::new());
        let jf = JFrame {
            ts: 0,
            bytes: Default::default(),
            wire_len: 0,
            rate: jigsaw_ieee80211::PhyRate::R1,
            channel: jigsaw_ieee80211::Channel::of(1),
            instances: Default::default(),
            dispersion: 0,
            valid: false,
            unique: false,
        };
        suite.on_jframe(&jf);
        let fig: DispersionFigure = only_figure(suite);
        assert_eq!(fig.singletons, 1);
        assert_eq!(fig.cdf.len(), 0);
        assert_eq!(Figure::records(&fig)[1], Record::u64("singletons", 1));
    }
}
