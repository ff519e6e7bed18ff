//! # jigsaw-analysis
//!
//! The paper's evaluation, § by §: every table and figure of
//! *Jigsaw: Solving the Puzzle of Enterprise 802.11 Analysis* (SIGCOMM 2006)
//! implemented as a streaming consumer of the pipeline's outputs.
//!
//! Every analysis speaks one uniform API ([`suite`]): an
//! [`suite::Analyzer`] subscribes, via default-no-op hooks, to exactly the
//! streams it needs — jframes, attempts, exchanges, or the end-of-run flow
//! records — and finishes into a [`suite::Figure`] with an immutable
//! `render(&self)` and machine-readable key/value records. Analyzers are
//! not pipeline observers: a [`suite::Suite`] is the one
//! [`jigsaw_core::observer::PipelineObserver`]. It fans one pipeline pass
//! out to every registered analysis — including straight off an on-disk
//! corpus (`repro analyze --corpus`), single-pass and bounded-memory, with
//! no `Vec<JFrame>` ever materialized — and is the only reader of a
//! jframe's frame: it decodes each jframe once and keeps the one station
//! census every analyzer reads.
//!
//! | paper artifact | module | analyzer (figure name) | streams |
//! |---|---|---|---|
//! | Table 1 — trace summary | [`summary`] | `SummaryBuilder` (`table1`) | jframes + flows |
//! | Figure 4 — CDF of group dispersion | [`dispersion`] | `DispersionAnalysis` (`fig4`) | jframes |
//! | §6 oracle + Figures 6 & 7 — coverage | [`coverage`] | `CoverageAnalysis` (`fig6`), `OracleCoverage` (`oracle`) | exchanges / jframes |
//! | Figure 8 — diurnal activity time series | [`activity`] | `ActivityAnalysis` (`fig8`) | jframes |
//! | Figure 9 — interference loss rate CDF | [`interference`] | `InterferenceAnalysis` (`fig9`) | jframes + attempts |
//! | Figure 10 — overprotective APs | [`protection`] | `ProtectionAnalysis` (`fig10`) | jframes |
//! | Figure 11 — TCP loss rate, wireless vs wired | [`tcploss`] | `TcpLossAnalysis` (`fig11`) | flows |
//! | station census | [`stations`] | `StationsAnalysis` (`stations`) | the suite's census |
//!
//! Shared machinery lives in [`stats`] (write-side [`Cdf`] sealing into a
//! read-only [`SealedCdf`], binned time series) and [`stations`]
//! (learning which addresses are APs/clients and their b/g capabilities
//! purely from observed frames — the analyses never peek at simulator
//! ground truth). The suite owns the one
//! [`StationLearner`](stations::StationLearner) and lends it to every
//! analyzer.

pub mod activity;
pub mod coverage;
pub mod dispersion;
pub mod interference;
pub mod protection;
pub mod stations;
pub mod stats;
pub mod suite;
pub mod summary;
pub mod tcploss;

pub use stats::{Cdf, SealedCdf, TimeSeries};
pub use suite::{Analyzer, Figure, PaperParams, Record, RecordKey, RecordValue, Suite};
