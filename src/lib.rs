//! # jigsaw
//!
//! A from-scratch Rust reproduction of **Jigsaw: Solving the Puzzle of
//! Enterprise 802.11 Analysis** (Cheng, Bellardo, Benkö, Snoeren, Voelker,
//! Savage — SIGCOMM 2006): building-scale multi-sniffer trace
//! synchronization, frame unification, and cross-layer reconstruction.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`ieee80211`] — the 802.11b/g frame model (frames, rates, timing, FCS);
//! * [`packet`] — LLC/SNAP, ARP, IPv4, UDP, TCP carried in data frames;
//! * [`trace`] — per-radio PHY event records, the jigdump-style format,
//!   and the on-disk trace corpus (`trace::corpus`): one compressed,
//!   indexed trace per radio plus a manifest and digest, written by
//!   `repro record` and re-merged by `repro merge --corpus`;
//! * [`sim`] — the discrete-event building simulator standing in for the
//!   UCSD CSE deployment (39 pods / 156 radios / 44 APs / diurnal clients);
//! * [`core`] — the paper's contribution: bootstrap synchronization,
//!   continuous clock management, frame unification, link-layer and
//!   transport-layer reconstruction, plus baseline mergers; the one
//!   driver, [`core::pipeline::Pipeline::run`] (a
//!   [`core::PipelineRun`] started and finished; stepped between for
//!   sources that pend), takes one
//!   [`core::observer::PipelineObserver`] with default-no-op hooks for
//!   jframes, attempts, exchanges, and flows, and its merge layout (serial
//!   by default, channel-sharded across threads on request) is
//!   configuration;
//! * [`live`] — online ingest: chunk-fed live sources ([`live::LiveSource`])
//!   and the always-on [`live::LiveMerger`], which unifies streams *while
//!   they are still being written*: it steps the pipeline's one driver
//!   ([`core::PipelineRun`]) over sources that can pend — jframes leave
//!   with bounded lag and the batch merge's memory — and adds only the
//!   wall-clock rules: dead without a header, lagged after `max_lag_us`;
//! * [`analysis`] — every table and figure of the paper's evaluation,
//!   each an [`analysis::Analyzer`] (observer → [`analysis::Figure`]),
//!   with [`analysis::Suite`] fanning one streaming pass to all of them.
//!
//! ## Quickstart
//!
//! ```
//! use jigsaw::sim::scenario::ScenarioConfig;
//! use jigsaw::core::pipeline::{Pipeline, PipelineConfig};
//!
//! // Simulate a small building and merge its traces.
//! let out = ScenarioConfig::tiny(42).run();
//! let (jframes, exchanges, report) =
//!     Pipeline::run_collect(out.memory_streams(), &PipelineConfig::default()).unwrap();
//! assert!(report.merge.jframes_out > 0);
//! assert!(!jframes.is_empty());
//! assert!(!exchanges.is_empty());
//! ```
//!
//! Analyses subscribe to the pipeline's streams through one observer —
//! several at once via a tuple, or a whole registered [`analysis::Suite`]:
//!
//! ```
//! use jigsaw::analysis::dispersion::DispersionAnalysis;
//! use jigsaw::analysis::suite::Suite;
//! use jigsaw::core::pipeline::{Pipeline, PipelineConfig};
//!
//! let out = jigsaw::sim::scenario::ScenarioConfig::tiny(42).run();
//! let mut suite = Suite::new().register(DispersionAnalysis::new());
//! Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut suite).unwrap();
//! for figure in suite.finish() {
//!     println!("{}\n{}", figure.title(), figure.render());
//!     for record in figure.records() {
//!         println!("record {}.{record}", figure.name());
//!     }
//! }
//! ```
//!
//! The same pipeline runs from disk with window-bounded memory — record a
//! corpus (one compressed, indexed trace per radio), stream it back, and
//! feed any observer (`repro analyze --corpus <dir>` streams the entire
//! figure suite this way, with no `Vec<JFrame>` ever materialized):
//!
//! ```no_run
//! use jigsaw::core::pipeline::{CorpusSource, Pipeline, PipelineConfig};
//! use jigsaw::trace::corpus::{Corpus, CorpusWriter};
//! use std::sync::{atomic::AtomicU64, Arc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let out = jigsaw::sim::scenario::ScenarioConfig::tiny(42).run();
//! let dir = std::path::Path::new("target/my_corpus");
//! let mut w = CorpusWriter::create(dir, "tiny", 42, 1.0, 65_535, out.duration_us, 0)?;
//! for (meta, trace) in out.radio_meta.iter().zip(&out.traces) {
//!     w.record_radio(*meta, trace.iter())?;
//! }
//! println!("corpus digest {}", w.finish()?.digest);
//!
//! let corpus = Corpus::open(dir)?;
//! let sources: Vec<CorpusSource> = corpus
//!     .sources(Arc::new(AtomicU64::new(0)))?
//!     .into_iter()
//!     .map(|s| CorpusSource::new(s, None))
//!     .collect();
//! // Any observer plugs in here — a Suite streams every paper figure.
//! let mut suite = jigsaw::analysis::Suite::new()
//!     .register(jigsaw::analysis::dispersion::DispersionAnalysis::new());
//! let report = Pipeline::run(sources, &PipelineConfig::default(), &mut suite)?;
//! assert_eq!(report.merge.events_in, corpus.total_events());
//! # Ok(())
//! # }
//! ```
//!
//! Replays need not start at t = 0. A **time-windowed replay** opens each
//! radio — the same source type, given a window — at any `[from, to)`
//! interval of the corpus (anchor-universal µs):
//! reads index-seek to the window, the clock bootstrap re-anchors there
//! through the manifest's NTP anchors, and only in-window jframes reach
//! the observer — cost proportional to the window, not the corpus (the
//! CLI spelling is `repro analyze --corpus <dir> --from 3000000 --to
//! 6000000 [--parallel]`, and `repro merge --from/--to --verify` pins the
//! windowed run against the full replay clipped to the same window):
//!
//! ```no_run
//! use jigsaw::core::pipeline::{CorpusSource, Pipeline, PipelineConfig};
//! use jigsaw::trace::corpus::Corpus;
//! use jigsaw::trace::TimeWindow;
//! use std::sync::{atomic::AtomicU64, Arc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = Corpus::open(std::path::Path::new("target/my_corpus"))?;
//! let window = TimeWindow::new(3_000_000, 6_000_000).expect("from < to");
//! let sources: Vec<CorpusSource> = corpus
//!     .sources(Arc::new(AtomicU64::new(0)))?
//!     .into_iter()
//!     .map(|s| CorpusSource::new(s, Some(window)))
//!     .collect();
//! let cfg = PipelineConfig { window: Some(window), ..PipelineConfig::default() };
//! let mut suite = jigsaw::analysis::Suite::new()
//!     .register(jigsaw::analysis::dispersion::DispersionAnalysis::new());
//! Pipeline::run(sources, &cfg, &mut suite)?; // only [from, to) is analyzed
//! # Ok(())
//! # }
//! ```
//!
//! The corpus need not even be finished: the **live merger** merges traces
//! while they are still being written. Each radio file is tailed in
//! arbitrary-size chunks — `ChunkedFileTail::follow` treats EOF as the live
//! edge, picking up the writer's appends on later polls ( `open` is the
//! replay mode for finished recordings, where EOF is the end) — and the
//! merger steps the one pipeline driver, emitting jframes continuously
//! under the bounded-lag contract. The emitted stream is byte-identical to
//! a batch merge of the same events — for every chunking (`repro tail
//! --corpus <dir> [--chunk-bytes N] [--verify]` steps the same driver over
//! a recorded corpus, and CI pins the equivalence at several chunk sizes;
//! stepping needs the serial merge — a sharded run of a finished corpus is
//! `repro analyze --parallel`):
//!
//! ```no_run
//! use jigsaw::live::{ChunkedFileTail, LiveConfig, LiveMerger, SystemClock};
//!
//! # fn capture_is_over() -> bool { true }
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut lm = LiveMerger::new(LiveConfig::default(), SystemClock::new());
//! for name in ["r000.jigt", "r001.jigt"] {
//!     lm.add_source(ChunkedFileTail::follow(std::path::Path::new(name), 64 * 1024)?);
//! }
//! let mut on_jframe = |jframe: jigsaw::core::JFrame| {
//!     // Arrives in timestamp order, no later than 2×search_window
//!     // behind the slowest live radio.
//!     let _ = jframe.ts;
//! };
//! while !capture_is_over() {
//!     lm.step(&mut on_jframe)?;
//! }
//! // Writers are done: `finish` reads what they left, then ends.
//! let report = lm.finish(on_jframe)?;
//! println!("p99 emission lag: {} µs", report.lag.quantiles(&[0.99])[0]);
//! # Ok(())
//! # }
//! ```
//!
//! The merger reads a live radio only once its last event has been
//! consumed — the batch merge's own pull — so what it buffers tracks the
//! search window, not the length of the day; what it has not read stays in
//! the source. For
//! a radio captured in-process that source is a bounded channel, and
//! `send` reports the back-pressure instead of queueing without limit:
//!
//! ```no_run
//! use jigsaw::live::{ChannelSource, SendOutcome};
//!
//! # fn radio_meta() -> jigsaw::trace::RadioMeta { unimplemented!() }
//! # fn next_capture() -> jigsaw::trace::PhyEvent { unimplemented!() }
//! let (tx, source) = ChannelSource::new(radio_meta());
//! // `lm.add_source(source)`, then on the capture thread:
//! let mut ev = next_capture();
//! loop {
//!     ev = match tx.send(ev) {
//!         SendOutcome::Inserted => next_capture(),
//!         // The merger is holding this radio behind a slower one (or has
//!         // not stepped yet): keep the event and offer it again, in order.
//!         SendOutcome::Full(unsent) => {
//!             std::thread::yield_now();
//!             unsent
//!         }
//!         // The merger is gone.
//!         SendOutcome::Closed => break,
//!     };
//! }
//! ```
//!
//! ## Adversarial scenarios and the golden sweep
//!
//! [`sim::spec::ScenarioSpec`] composes a base [`sim::scenario::ScenarioConfig`]
//! with orthogonal perturbations — roaming, hidden terminals, co-channel
//! interference with mid-run re-allocation, session churn, QoS mixes —
//! into a world that is a pure function of (spec, seed):
//!
//! ```
//! use jigsaw::sim::spec::{Roaming, ScenarioSpec};
//! use jigsaw::sim::scenario::{ScenarioConfig, TruthConfig};
//!
//! let base = ScenarioConfig {
//!     day_us: 2_000_000,
//!     truth: TruthConfig::Off,
//!     ..ScenarioConfig::tiny(0)
//! };
//! let spec = ScenarioSpec {
//!     roaming: Some(Roaming { roamers: 2, dwell_us: 600_000 }),
//!     ..ScenarioSpec::plain("my_roaming", base)
//! };
//! let out = spec.run(7); // same spec + same seed ⇒ byte-identical traces
//! assert!(out.total_events() > 0);
//! ```
//!
//! `ScenarioSpec::sweep_matrix()` names six shipped adversarial shapes
//! (`roaming`, `hidden_terminal`, `cochannel_realloc`, `protection_mix`,
//! `qos_mix`, `error_stress`). `repro sweep` runs each end-to-end —
//! record to disk, full merges serial and sharded from memory and disk,
//! the figure suite serial vs sharded, a windowed replay — and diffs the
//! surviving digests + `record` lines against per-scenario golden files
//! under `.github/golden/sweep/` (re-bless intentional changes with
//! `repro sweep --bless`; see `.github/golden/README.md`).

pub use jigsaw_analysis as analysis;
pub use jigsaw_core as core;
pub use jigsaw_diagnosis as diagnosis;
pub use jigsaw_ieee80211 as ieee80211;
pub use jigsaw_live as live;
pub use jigsaw_packet as packet;
pub use jigsaw_sim as sim;
pub use jigsaw_trace as trace;
