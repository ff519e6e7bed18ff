//! The uniform analysis API: [`Analyzer`] (streaming observation →
//! [`Figure`]) and [`Suite`] (a registry fanning one pipeline pass out to
//! every registered analysis).
//!
//! Every paper figure used to be a bespoke struct with its own
//! `observe`/`finish`/`render` shape; the trait pair makes them uniform:
//!
//! * an [`Analyzer`] subscribes to exactly the pipeline streams it needs
//!   (jframes, attempts, exchanges, flows) via default-no-op hooks, and
//!   finishes into a figure;
//! * a [`Figure`] renders (`&self`, immutably — CDFs are sealed at finish
//!   time) and exposes machine-readable key/value [`Figure::records`],
//!   which is what the equivalence tests and CI summaries compare;
//! * a [`Suite`] owns boxed analyzers and is the one
//!   [`PipelineObserver`], so `Pipeline::run(sources, &cfg, &mut suite)`
//!   streams every registered analysis in a single pass — including
//!   straight off a disk corpus, with no `Vec<JFrame>` ever materialized.
//!
//! The suite is also the only reader of a jframe's frame: it decodes each
//! jframe once (`JFrame::parse`), feeds the result to its one
//! [`StationLearner`] — the station census — and hands both the decoded
//! frame and the updated census to every analyzer's `on_jframe`; the final
//! census reaches [`Analyzer::into_figure`]. An analyzer run alone in a
//! one-analyzer suite therefore sees exactly what it sees in the full one.
//!
//! Records are **typed**: a [`Record`] pairs a [`RecordKey`] with a
//! [`RecordValue`] (`U64`/`F64`/`Text`), so downstream consumers — the
//! diagnosis detectors above all — threshold real numbers instead of
//! reparsing strings. Rendering is centralized in the `Display` impls
//! (one canonical formatting per value class), so every record line in a
//! golden file is byte-stable by construction. A caller that needs a
//! figure's typed fields downcasts it (`Figure: Any`).
//!
//! ```
//! use jigsaw_analysis::dispersion::DispersionAnalysis;
//! use jigsaw_analysis::suite::Suite;
//! use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
//!
//! let out = jigsaw_sim::scenario::ScenarioConfig::tiny(1).run();
//! let mut suite = Suite::new().register(DispersionAnalysis::new());
//! Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut suite).unwrap();
//! for fig in suite.finish() {
//!     println!("{}", fig.title());
//!     for r in fig.records() {
//!         println!("  {} = {}", r.key, r.value);
//!     }
//! }
//! ```

use crate::stations::StationLearner;
use jigsaw_core::jframe::JFrame;
use jigsaw_core::link::attempt::Attempt;
use jigsaw_core::link::exchange::Exchange;
use jigsaw_core::observer::PipelineObserver;
use jigsaw_core::transport::flow::FlowRecord;
use jigsaw_ieee80211::frame::Frame;
use jigsaw_ieee80211::Micros;
use std::any::Any;

/// The key of one machine record: a short stable identifier
/// (`"jframes"`, `"p99_us"`, …), scoped by the figure name when the
/// record renders as a `record <figure>.<key> <value>` line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordKey(String);

impl RecordKey {
    /// Wraps a key string.
    pub fn new(key: impl Into<String>) -> Self {
        Self(key.into())
    }

    /// The key as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for RecordKey {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

impl From<String> for RecordKey {
    fn from(s: String) -> Self {
        Self(s)
    }
}

impl std::fmt::Display for RecordKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A typed record value with exactly one canonical rendering per class —
/// the `Display` impl below is the **only** place record formatting
/// lives, so no figure can drift to `{:.3}` vs `{}` on its own.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordValue {
    /// Counts and whole-number totals; renders as a plain integer.
    U64(u64),
    /// Fractions, ratios, and quantiles; renders in the stable 4-decimal
    /// form with negative zero normalized to zero.
    F64(f64),
    /// Free-form text (labels, classifications).
    Text(String),
}

impl RecordValue {
    /// The integer value, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            RecordValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` — numeric for both `U64` and `F64`, `None`
    /// for text. What detectors threshold against.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            RecordValue::U64(v) => Some(*v as f64),
            RecordValue::F64(v) => Some(*v),
            RecordValue::Text(_) => None,
        }
    }
}

impl std::fmt::Display for RecordValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordValue::U64(v) => write!(f, "{v}"),
            RecordValue::F64(v) => {
                // Negative zero would render as `-0.0000` and flip golden
                // bytes depending on summation order; normalize it away.
                let v = if *v == 0.0 { 0.0 } else { *v };
                write!(f, "{v:.4}")
            }
            RecordValue::Text(s) => f.write_str(s),
        }
    }
}

/// One machine-readable fact a figure (or a diagnosis detector) reports:
/// a typed value under a stable key.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Stable key, unique within the figure.
    pub key: RecordKey,
    /// Typed value; renders canonically via `Display`.
    pub value: RecordValue,
}

impl Record {
    /// A count/total record.
    pub fn u64(key: impl Into<RecordKey>, value: u64) -> Self {
        Self {
            key: key.into(),
            value: RecordValue::U64(value),
        }
    }

    /// A fraction/ratio/quantile record.
    pub fn f64(key: impl Into<RecordKey>, value: f64) -> Self {
        Self {
            key: key.into(),
            value: RecordValue::F64(value),
        }
    }

    /// A free-form text record.
    pub fn text(key: impl Into<RecordKey>, value: impl Into<String>) -> Self {
        Self {
            key: key.into(),
            value: RecordValue::Text(value.into()),
        }
    }
}

impl std::fmt::Display for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.key, self.value)
    }
}

/// A finished, immutable analysis product: one table or figure of the
/// paper's evaluation. `Any`, so a caller that needs typed fields can
/// downcast a `Box<dyn Figure>` to the concrete figure.
pub trait Figure: Any {
    /// Short stable key (`"table1"`, `"fig4"`, …) — used in machine
    /// records and the `repro` CLI.
    fn name(&self) -> &'static str;

    /// Human banner title (defaults to [`Figure::name`]).
    fn title(&self) -> &'static str {
        self.name()
    }

    /// Renders the figure the way the paper prints it. Takes `&self`:
    /// figures are sealed at finish time and never mutate to render.
    fn render(&self) -> String;

    /// Machine-readable typed [`Record`]s — the stable, comparable
    /// summary of the figure. Two runs produced the same figure iff their
    /// records (and render) match.
    fn records(&self) -> Vec<Record>;
}

/// A streaming analysis: subscribes to the pipeline streams it needs via
/// default-no-op hooks, and finishes into a [`Figure`]. Only a [`Suite`]
/// drives it.
pub trait Analyzer {
    /// One unified frame, with the suite's one decode of it (`None` when
    /// the jframe is invalid or does not parse) and the station census,
    /// already updated with this jframe.
    fn on_jframe(&mut self, _jf: &JFrame, _frame: Option<&Frame>, _stations: &StationLearner) {}

    /// One reconstructed transmission attempt.
    fn on_attempt(&mut self, _at: &Attempt) {}

    /// One reconstructed frame exchange.
    fn on_exchange(&mut self, _x: &Exchange) {}

    /// The reconstructed flow records, once at the end of a run.
    fn on_flows(&mut self, _flows: &[FlowRecord]) {}

    /// Consumes the analysis and produces its figure, given the final
    /// station census.
    fn into_figure(self: Box<Self>, stations: &StationLearner) -> Box<dyn Figure>;
}

/// A registry of analyzers sharing one streaming pass and one station
/// census.
///
/// `Suite` implements [`PipelineObserver`]: it decodes each jframe once,
/// updates its [`StationLearner`], and fans every hook out to each
/// registered analyzer in registration order — hand `&mut suite` to any
/// pipeline driver (serial, channel-sharded, in-memory, or disk corpus)
/// and call [`Suite::finish`] afterwards.
#[derive(Default)]
pub struct Suite {
    analyzers: Vec<Box<dyn Analyzer>>,
    stations: StationLearner,
}

impl Suite {
    /// An empty suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an analyzer (builder style).
    pub fn register(mut self, a: impl Analyzer + 'static) -> Self {
        self.analyzers.push(Box::new(a));
        self
    }

    /// Registered analyzer count.
    pub fn len(&self) -> usize {
        self.analyzers.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.analyzers.is_empty()
    }

    /// Finishes every analyzer into its figure, in registration order.
    pub fn finish(self) -> Vec<Box<dyn Figure>> {
        let stations = self.stations;
        self.analyzers
            .into_iter()
            .map(|a| a.into_figure(&stations))
            .collect()
    }

    /// The paper's single-trace figure suite: Table 1, Figure 4
    /// (dispersion), Figure 8 (activity), Figure 9 (interference),
    /// Figure 10 (protection), the station census, and Figure 11 (TCP
    /// loss, via `on_flows`). Figure 6 (coverage) additionally needs the
    /// wired distribution-network trace — register a
    /// [`CoverageAnalysis`](crate::coverage::CoverageAnalysis) on top
    /// when one is available.
    pub fn paper(p: &PaperParams) -> Self {
        Suite::new()
            .register(crate::summary::SummaryBuilder::new(p.radios))
            .register(crate::dispersion::DispersionAnalysis::new())
            .register(crate::activity::ActivityAnalysis::new(p.origin, p.bin_us))
            .register(crate::interference::InterferenceAnalysis::new())
            .register(crate::protection::ProtectionAnalysis::new(
                p.origin,
                p.bin_us,
                p.practical_timeout_us.max(1),
            ))
            .register(crate::stations::StationsAnalysis)
            .register(crate::tcploss::TcpLossAnalysis::new())
    }
}

/// Parameters for [`Suite::paper`].
#[derive(Debug, Clone)]
pub struct PaperParams {
    /// Radios contributing to the trace (Table 1 reports it).
    pub radios: usize,
    /// Universal-clock origin of the binned time series (µs).
    pub origin: Micros,
    /// Bin width for the diurnal series (µs).
    pub bin_us: Micros,
    /// The "practical" b-client sighting timeout for Figure 10 (the
    /// paper's one minute, scaled to the scenario's day compression).
    pub practical_timeout_us: Micros,
}

impl PipelineObserver for Suite {
    fn on_jframe(&mut self, jf: &JFrame) {
        let frame = jf.parse();
        if let Some(f) = &frame {
            self.stations.observe(jf, f);
        }
        for a in &mut self.analyzers {
            a.on_jframe(jf, frame.as_ref(), &self.stations);
        }
    }

    fn on_attempt(&mut self, at: &Attempt) {
        for a in &mut self.analyzers {
            a.on_attempt(at);
        }
    }

    fn on_exchange(&mut self, x: &Exchange) {
        for a in &mut self.analyzers {
            a.on_exchange(x);
        }
    }

    fn on_flows(&mut self, flows: &[FlowRecord]) {
        for a in &mut self.analyzers {
            a.on_flows(flows);
        }
    }
}

/// Renders every figure's machine records as stable
/// `record <name>.<key> <value>` lines (what CI echoes into the step
/// summary and the equivalence tests compare).
pub fn record_lines(figures: &[Box<dyn Figure>]) -> String {
    let mut s = String::new();
    for f in figures {
        for r in f.records() {
            s.push_str(&format!("record {}.{r}\n", f.name()));
        }
    }
    s
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
    use jigsaw_sim::scenario::ScenarioConfig;

    /// Test support: a finished figure as its concrete type.
    pub(crate) fn downcast<F: Figure>(figure: Box<dyn Figure>) -> F {
        let figure: Box<dyn Any> = figure;
        *figure.downcast().expect("the analyzer's own figure type")
    }

    /// Test support: finishes a one-analyzer suite into its concrete figure.
    pub(crate) fn only_figure<F: Figure>(suite: Suite) -> F {
        let mut figures = suite.finish();
        assert_eq!(figures.len(), 1, "a one-analyzer suite");
        downcast(figures.pop().expect("one figure"))
    }

    fn tiny_params(out: &jigsaw_sim::output::SimOutput) -> PaperParams {
        let day = out.duration_us;
        PaperParams {
            radios: out.radio_meta.len(),
            origin: 0,
            bin_us: (day / 8).max(1),
            practical_timeout_us: day,
        }
    }

    fn run(out: &jigsaw_sim::output::SimOutput, mut suite: Suite) -> Vec<Box<dyn Figure>> {
        Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut suite).unwrap();
        suite.finish()
    }

    #[test]
    fn paper_suite_streams_every_figure_in_one_pass() {
        let out = ScenarioConfig::tiny(3).run();
        let suite = Suite::paper(&tiny_params(&out));
        assert_eq!(suite.len(), 7);
        let figs = run(&out, suite);
        assert_eq!(
            figs.iter().map(|f| f.name()).collect::<Vec<_>>(),
            vec!["table1", "fig4", "fig8", "fig9", "fig10", "stations", "fig11"]
        );
        for f in &figs {
            assert!(!f.render().is_empty(), "{} rendered empty", f.name());
            assert!(!f.records().is_empty(), "{} has no records", f.name());
        }
        let lines = record_lines(&figs);
        assert!(lines.contains("record table1.jframes "));
        assert!(lines.contains("record fig11.flows "));
        // Every record line is well-formed: `record <name>.<key> <value>`.
        for line in lines.lines() {
            let mut parts = line.splitn(3, ' ');
            assert_eq!(parts.next(), Some("record"));
            assert!(parts.next().unwrap().contains('.'));
            assert!(parts.next().is_some());
        }
        // Typed access: counts come back as numbers without reparsing.
        let table1 = &figs[0];
        let jframes = table1
            .records()
            .into_iter()
            .find(|r| r.key.as_str() == "jframes")
            .expect("table1 reports jframes");
        assert!(jframes.value.as_u64().is_some());
        assert_eq!(
            jframes.value.as_u64().map(|v| v as f64),
            jframes.value.as_f64()
        );
    }

    #[test]
    fn record_value_display_is_canonical() {
        // The one formatting authority: integers plain, fractions {:.4}
        // with negative zero normalized, text verbatim.
        assert_eq!(RecordValue::U64(9613).to_string(), "9613");
        assert_eq!(RecordValue::F64(0.031_04).to_string(), "0.0310");
        assert_eq!(RecordValue::F64(-0.0).to_string(), "0.0000");
        assert_eq!(RecordValue::F64(2.762).to_string(), "2.7620");
        assert_eq!(RecordValue::Text("wireless".into()).to_string(), "wireless");
        assert_eq!(Record::u64("jframes", 7).to_string(), "jframes 7");
        assert_eq!(RecordValue::Text("x".into()).as_f64(), None);
    }

    /// The one census is shared, never leaked between analyzers: each
    /// analyzer of the whole single-trace evaluation (`Suite::paper` plus
    /// coverage, what `jigsaw_bench::figure_suite_parts` registers), run
    /// alone in a one-analyzer suite, renders and records exactly what it
    /// does inside the full suite.
    #[test]
    fn each_analyzer_alone_equals_itself_in_the_full_suite() {
        for seed in [11, 20060124] {
            let out = ScenarioConfig::tiny(seed).run();
            let ap_addrs: Vec<_> = out.stations.iter().map(|s| s.addr).collect();
            let full = || {
                let coverage = crate::coverage::CoverageAnalysis::new(
                    &out.wired,
                    &|sid| ap_addrs[usize::from(sid)],
                    10_000_000,
                );
                Suite::paper(&tiny_params(&out)).register(coverage)
            };
            let together = run(&out, full());
            let alone: Vec<_> = full()
                .analyzers
                .into_iter()
                .flat_map(|a| {
                    let one = Suite {
                        analyzers: vec![a],
                        ..Suite::default()
                    };
                    run(&out, one)
                })
                .collect();
            assert_eq!(together.len(), 8);
            assert_eq!(alone.len(), together.len());
            for (a, t) in alone.iter().zip(&together) {
                assert_eq!(a.name(), t.name(), "seed {seed}");
                assert_eq!(a.render(), t.render(), "{} seed {seed}", t.name());
                assert_eq!(a.records(), t.records(), "{} seed {seed}", t.name());
            }
            assert!(record_lines(&together).contains("record stations.clients "));
        }
    }
}
