//! # jigsaw-diagnosis
//!
//! Evidence-grounded diagnosis over the figure suite's typed records.
//!
//! The analyses in `jigsaw_analysis` answer "what does the trace look
//! like"; this crate answers "what went wrong, when, and how sure are
//! we". A [`Detector`] inspects the whole-corpus figure records (the
//! *coarse* pass), and when its gate fires, the figure records of each
//! suspect time window alone (see "Wiring" for where they come from) are
//! handed back for a *windowed* confirmation. Every emitted [`Incident`] is
//! grounded in machine-readable [`Record`] evidence copied verbatim
//! from the figure records that justified it — a diagnosis you can grep.
//!
//! ## Detector catalogue
//!
//! | detector | coarse gate | evidence records |
//! |---|---|---|
//! | `retry-storm` | `fig9.avg_background_loss` ≥ `retry_loss` **or** `fig9.frac_with_interference` ≥ `retry_interference` | `fig9.avg_background_loss`, `fig9.frac_with_interference`, `fig9.median_x`, `fig9.pairs` |
//! | `coverage-hole` | `fig6.client_coverage` < `coverage_floor` | `fig6.client_coverage`, `fig6.ap_coverage`, `fig6.overall`, `fig6.clients_95`, `fig6.stations` |
//! | `sync-degradation` | `fig4.p99_us` > `sync_p99_us` **or** `fig4.frac_below_20us` < `sync_frac_20us` | `fig4.p99_us`, `fig4.frac_below_10us`, `fig4.frac_below_20us`, `fig4.samples`, `fig4.singletons` |
//! | `protection-mode-inefficiency` | `fig10.peak_overprotective_aps` ≥ 1 **and** `fig10.peak_g_on_overprotective` ≥ 1 | `fig10.peak_overprotective_aps`, `fig10.peak_g_on_overprotective`, `fig10.peak_g_clients`, `fig10.throughput_headroom` |
//! | `tcp-loss-localization` | `fig11.loss_events` ≥ `tcp_min_loss_events` | `fig11.locus` (wired/wireless verdict), `fig11.wireless_share`, `fig11.p90_loss_rate`, `fig11.loss_events`, `fig11.flows` |
//!
//! Gate names in the middle column are [`Thresholds`] fields; every
//! detector re-checks its gate against the *window's own* records
//! before emitting an incident, so an incident always localizes the
//! pathology to a window that exhibits it, never just to a corpus that
//! does somewhere.
//!
//! ## Reliability and severity
//!
//! Both scores are pure functions of the window's records:
//!
//! * **reliability** `= n / (n + K)` — where `n` is the detector's
//!   supporting sample population inside the window (fig9 pairs, fig6
//!   stations, fig4 samples, fig10 bins, fig11 flows) and `K` is the
//!   detector's half-saturation constant. A diagnosis resting on `K`
//!   observations scores 0.5; one resting on `9K` scores 0.9. This
//!   keeps a storm "detected" from three packets honest about itself.
//! * **severity** — how far past the gate the window sits, clamped to
//!   `[0, 1]`: for exceed-type gates `min(1, m / (4·gate))` (the gate
//!   itself scores 0.25, four times the gate saturates); for floor-type
//!   gates `min(1, 4·(floor − m) / floor)` (a 25% shortfall saturates).
//!
//! Because detectors read only ([`RecordSet`], [`Thresholds`]), the
//! whole report is a deterministic pure function of (corpus records,
//! thresholds) — property-tested in this crate, and pinned serial ≡
//! sharded by the bench suite's equivalence tests.
//!
//! ## Wiring
//!
//! The crate never touches the pipeline: callers hand [`run_diagnosis`]
//! a coarse [`RecordSet`] plus a [`WindowAnalyzer`] that yields the
//! records of one [`TimeWindow`]. Distinct windows are looked at once and
//! cached, however many detectors inspect them.
//!
//! `repro diagnose` (`jigsaw_bench::CorpusSession::diagnose`) reads the
//! corpus **once**: the deep-dive tiles ([`deep_dive_windows`] over the
//! diagnosed span) ride the coarse pass through a tile fan-out
//! (`jigsaw_core::pipeline::TileFanout`), and the analyzer it passes is
//! [`TileRecords`] — a lookup into those precomputed per-tile records,
//! which refuses a window that is not one of its tiles. A tile's records
//! are byte-identical to `repro analyze` of the same sources clipped to
//! the tile: the reference side of the windowed ≡ clipped-full contract,
//! on the coarse pass's continuously resynchronised clocks — the clocks
//! that fired the gate a detector re-checks — and not a re-anchored
//! mid-trace replay's, whose fresh bootstrap can read a clock-sensitive
//! figure (`fig4.p99_us`, the µs-scale fig9 overlap tests) differently
//! from the run being diagnosed. Tiles close as the stream passes them
//! (merged time a second past the tile's end); a jframe whose anchor key
//! lands in a closed tile is counted and fails the run rather than being
//! dropped. A [`WindowAnalyzer`] backed by windowed
//! replays (`repro analyze --from/--to` per window; what jigtrace's
//! `diagnose.dive_s` times) remains a valid implementation, at the cost
//! of re-reading the corpus per window.

#![forbid(unsafe_code)]

pub mod detectors;

use jigsaw_analysis::Figure;
use jigsaw_trace::TimeWindow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

pub use jigsaw_analysis::{Record, RecordKey, RecordValue};

pub use detectors::{
    CoverageHole, ProtectionInefficiency, RetryStorm, SyncDegradation, TcpLossLocalization,
};

/// A flat, ordered view of a figure suite's records, keyed
/// `"{figure}.{key}"` (e.g. `"fig9.avg_background_loss"`) — the sole
/// input detectors see.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordSet {
    map: BTreeMap<String, RecordValue>,
}

impl RecordSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one figure record under `"{figure}.{key}"`.
    pub fn insert(&mut self, figure: &str, record: &Record) {
        self.map
            .insert(format!("{figure}.{}", record.key), record.value.clone());
    }

    /// Collects every record of every finished figure.
    pub fn from_figures(figures: &[Box<dyn Figure>]) -> Self {
        let mut set = Self::new();
        for f in figures {
            for r in f.records() {
                set.insert(f.name(), &r);
            }
        }
        set
    }

    /// Raw value at `path`, if present.
    pub fn get(&self, path: &str) -> Option<&RecordValue> {
        self.map.get(path)
    }

    /// Numeric value at `path` (`U64` widens to `f64`).
    pub fn num(&self, path: &str) -> Option<f64> {
        self.get(path).and_then(RecordValue::as_f64)
    }

    /// Integer value at `path` (`U64` only).
    pub fn count(&self, path: &str) -> Option<u64> {
        self.get(path).and_then(RecordValue::as_u64)
    }

    /// Re-materializes the record at `path` with its full path as key —
    /// the form evidence is quoted in.
    pub fn record(&self, path: &str) -> Option<Record> {
        self.get(path).map(|v| Record {
            key: path.into(),
            value: v.clone(),
        })
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(path, value)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RecordValue)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Every gate and knob the detectors read — deliberately one flat,
/// plain-data struct so a diagnosis is reproducible from (records,
/// thresholds) alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// `retry-storm`: background loss rate gate (paper §5.3 reports
    /// mean background loss well under this in a healthy building).
    pub retry_loss: f64,
    /// `retry-storm`: fraction of sender pairs showing interference.
    pub retry_interference: f64,
    /// `coverage-hole`: minimum acceptable client-side wired/wireless
    /// coverage (paper §6: client coverage ≈ 0.96).
    pub coverage_floor: f64,
    /// `sync-degradation`: p99 group dispersion gate in µs (paper §4.2:
    /// 99% of jframes under 20 µs).
    pub sync_p99_us: f64,
    /// `sync-degradation`: minimum fraction of jframes under 20 µs.
    pub sync_frac_20us: f64,
    /// `tcp-loss-localization`: minimum corpus-wide loss events before
    /// localization is worth running.
    pub tcp_min_loss_events: u64,
    /// `tcp-loss-localization`: p90 per-flow loss rate gate.
    pub tcp_loss_rate: f64,
    /// Number of equal deep-dive windows the corpus span is split into.
    pub windows: u32,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            retry_loss: 0.02,
            retry_interference: 0.5,
            coverage_floor: 0.90,
            sync_p99_us: 20.0,
            sync_frac_20us: 0.99,
            tcp_min_loss_events: 1,
            tcp_loss_rate: 0.01,
            windows: 4,
        }
    }
}

/// One localized, evidence-backed finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The detector that produced it.
    pub detector: &'static str,
    /// The deep-dive window the pathology was confirmed in.
    pub window: TimeWindow,
    /// How far past the gate the window sits, in `[0, 1]`.
    pub severity: f64,
    /// `n / (n + K)` over the window's supporting sample population.
    pub reliability: f64,
    /// The figure records (full-path keys) that justify the finding.
    pub evidence: Vec<Record>,
}

/// A diagnosis rule: a coarse corpus-level gate plus a per-window
/// confirmation. See the crate docs for the shipped catalogue.
pub trait Detector {
    /// Stable machine-readable name (also the golden-file handle).
    fn name(&self) -> &'static str;

    /// Coarse gate over the whole-corpus records. `Some(evidence)`
    /// when the corpus looks suspicious and deep dives are warranted;
    /// the evidence quotes the records that fired the gate.
    fn scan(&self, coarse: &RecordSet, thresholds: &Thresholds) -> Option<Vec<Record>>;

    /// Window-level confirmation over that window's re-analyzed
    /// records. `None` when this window does not exhibit the pathology.
    fn diagnose(
        &self,
        window: TimeWindow,
        windowed: &RecordSet,
        thresholds: &Thresholds,
    ) -> Option<Incident>;
}

/// Yields one time window's [`RecordSet`] — the seam between this crate
/// and the pipeline (`repro diagnose` passes [`TileRecords`], precomputed
/// by its one pass over the corpus; tests implement it with a closure).
pub trait WindowAnalyzer {
    /// The figure suite's records over `[window.from, window.to)` only.
    fn analyze_window(&mut self, window: TimeWindow) -> Result<RecordSet, String>;
}

impl<F> WindowAnalyzer for F
where
    F: FnMut(TimeWindow) -> Result<RecordSet, String>,
{
    fn analyze_window(&mut self, window: TimeWindow) -> Result<RecordSet, String> {
        self(window)
    }
}

/// A [`WindowAnalyzer`] over records computed ahead of time, one set per
/// deep-dive tile. Asking for a window that is not a tile is an error,
/// never an empty answer.
#[derive(Debug)]
pub struct TileRecords {
    tiles: BTreeMap<(u64, u64), RecordSet>,
}

impl TileRecords {
    /// The records of each `(tile, records)` pair, keyed by the tile.
    pub fn new(tiles: impl IntoIterator<Item = (TimeWindow, RecordSet)>) -> Self {
        TileRecords {
            tiles: tiles
                .into_iter()
                .map(|(w, records)| ((w.from, w.to), records))
                .collect(),
        }
    }
}

impl WindowAnalyzer for TileRecords {
    fn analyze_window(&mut self, window: TimeWindow) -> Result<RecordSet, String> {
        self.tiles
            .get(&(window.from, window.to))
            .cloned()
            .ok_or_else(|| format!("window {window} is not a precomputed deep-dive tile"))
    }
}

/// Splits the inclusive event span `[lo, hi]` into `parts` equal
/// half-open deep-dive windows; the last window's exclusive end covers
/// `hi` itself. Degenerate spans yield fewer (possibly zero) windows.
pub fn deep_dive_windows(span: (u64, u64), parts: u32) -> Vec<TimeWindow> {
    let (lo, hi) = span;
    if hi < lo {
        return Vec::new();
    }
    let parts = u64::from(parts.max(1));
    let end = hi.saturating_add(1);
    let width = ((end - lo) / parts).max(1);
    let mut out = Vec::new();
    let mut from = lo;
    for i in 0..parts {
        if from >= end {
            break;
        }
        let to = if i + 1 == parts {
            end
        } else {
            (from + width).min(end)
        };
        if let Some(w) = TimeWindow::new(from, to) {
            out.push(w);
        }
        from = to;
    }
    out
}

/// Per-detector outcome, reported even when nothing fired so the
/// record stream always names every registered detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorOutcome {
    /// The detector's stable name.
    pub name: &'static str,
    /// Whether the coarse gate fired (deep dives ran).
    pub triggered: bool,
    /// Incidents this detector confirmed.
    pub incidents: usize,
    /// The coarse records that fired the gate (empty if untriggered).
    pub gate_evidence: Vec<Record>,
}

/// The full diagnosis: every detector's outcome plus every confirmed
/// incident, in detector-registration then window order.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisReport {
    /// The inclusive event span that was diagnosed.
    pub span: (u64, u64),
    /// One outcome per registered detector, in registration order.
    pub detectors: Vec<DetectorOutcome>,
    /// Confirmed incidents.
    pub incidents: Vec<Incident>,
    /// Distinct deep-dive windows actually re-analyzed.
    pub windows_analyzed: usize,
}

impl DiagnosisReport {
    /// Stable machine-readable record lines — the diagnosis golden's
    /// exact byte format. Floats render through [`RecordValue`]'s
    /// canonical `Display`, like every other record in the workspace.
    pub fn record_lines(&self) -> String {
        let f = |v: f64| RecordValue::F64(v).to_string();
        let mut s = format!(
            "diagnosis span {} {} detectors {} windows_analyzed {} incidents {}\n",
            self.span.0,
            self.span.1,
            self.detectors.len(),
            self.windows_analyzed,
            self.incidents.len()
        );
        for d in &self.detectors {
            s.push_str(&format!(
                "detector {} triggered {} incidents {}\n",
                d.name,
                u8::from(d.triggered),
                d.incidents
            ));
        }
        for (i, inc) in self.incidents.iter().enumerate() {
            s.push_str(&format!(
                "incident {i} detector {} window {} {} severity {} reliability {}\n",
                inc.detector,
                inc.window.from,
                inc.window.to,
                f(inc.severity),
                f(inc.reliability)
            ));
            for e in &inc.evidence {
                s.push_str(&format!("incident {i} evidence {e}\n"));
            }
        }
        s
    }
}

/// Runs every detector: coarse scan over `coarse`, then a windowed
/// confirmation for each deep-dive window of `span` (each distinct
/// window is re-analyzed exactly once, shared across detectors).
///
/// Deterministic given deterministic `analyzer` output: detectors run
/// in slice order, windows in time order, and the window cache is a
/// `BTreeMap` — the report is a pure function of (records, thresholds).
pub fn run_diagnosis(
    detectors: &[Box<dyn Detector>],
    coarse: &RecordSet,
    span: (u64, u64),
    thresholds: &Thresholds,
    analyzer: &mut dyn WindowAnalyzer,
) -> Result<DiagnosisReport, String> {
    let windows = deep_dive_windows(span, thresholds.windows);
    let mut cache: BTreeMap<(u64, u64), RecordSet> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(detectors.len());
    let mut incidents = Vec::new();
    for d in detectors {
        let mut outcome = DetectorOutcome {
            name: d.name(),
            triggered: false,
            incidents: 0,
            gate_evidence: Vec::new(),
        };
        if let Some(gate_evidence) = d.scan(coarse, thresholds) {
            outcome.triggered = true;
            outcome.gate_evidence = gate_evidence;
            for w in &windows {
                let windowed = match cache.entry((w.from, w.to)) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(analyzer.analyze_window(*w)?),
                };
                if let Some(inc) = d.diagnose(*w, windowed, thresholds) {
                    outcome.incidents += 1;
                    incidents.push(inc);
                }
            }
        }
        outcomes.push(outcome);
    }
    Ok(DiagnosisReport {
        span,
        detectors: outcomes,
        incidents,
        windows_analyzed: cache.len(),
    })
}

/// The shipped catalogue, in report order.
pub fn standard_detectors() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(RetryStorm),
        Box::new(CoverageHole),
        Box::new(SyncDegradation),
        Box::new(ProtectionInefficiency),
        Box::new(TcpLossLocalization),
    ]
}

/// `n / (n + K)`: reliability half-saturating at `K` supporting
/// observations.
pub fn reliability(n: u64, half_saturation: f64) -> f64 {
    let n = n as f64;
    n / (n + half_saturation)
}

/// Exceed-type severity: `min(1, m / (4·gate))`, 0 when the gate is 0.
pub fn severity_exceed(metric: f64, gate: f64) -> f64 {
    if gate <= 0.0 {
        return 0.0;
    }
    (metric / (4.0 * gate)).clamp(0.0, 1.0)
}

/// Floor-type severity: `min(1, 4·(floor − m) / floor)`.
pub fn severity_deficit(metric: f64, floor: f64) -> f64 {
    if floor <= 0.0 {
        return 0.0;
    }
    (4.0 * (floor - metric) / floor).clamp(0.0, 1.0)
}

/// Quotes the records at `paths` (skipping absent ones) as evidence.
pub fn quote_evidence(set: &RecordSet, paths: &[&str]) -> Vec<Record> {
    paths.iter().filter_map(|p| set.record(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(&str, RecordValue)]) -> RecordSet {
        let mut s = RecordSet::new();
        for (path, v) in pairs {
            let (fig, key) = path.split_once('.').unwrap();
            s.insert(
                fig,
                &Record {
                    key: key.into(),
                    value: v.clone(),
                },
            );
        }
        s
    }

    #[test]
    fn deep_dive_windows_tile_the_span() {
        let ws = deep_dive_windows((100, 899), 4);
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0].from, 100);
        assert_eq!(ws.last().unwrap().to, 900, "last window covers hi");
        for pair in ws.windows(2) {
            assert_eq!(pair[0].to, pair[1].from, "windows are contiguous");
        }
    }

    #[test]
    fn deep_dive_windows_degenerate_spans() {
        assert!(deep_dive_windows((5, 4), 4).is_empty());
        // One-microsecond span still yields one valid window.
        let ws = deep_dive_windows((7, 7), 4);
        assert_eq!(ws, vec![TimeWindow::new(7, 8).unwrap()]);
    }

    #[test]
    fn scores_are_clamped_and_anchored() {
        assert_eq!(severity_exceed(0.08, 0.02), 1.0);
        assert!((severity_exceed(0.02, 0.02) - 0.25).abs() < 1e-12);
        assert_eq!(severity_exceed(-1.0, 0.02), 0.0);
        assert_eq!(severity_deficit(0.0, 0.9), 1.0);
        assert!(severity_deficit(0.95, 0.9) == 0.0);
        assert!((reliability(20, 20.0) - 0.5).abs() < 1e-12);
        assert!(reliability(180, 20.0) > 0.89);
    }

    #[test]
    fn untriggered_detectors_still_reported() {
        let coarse = set(&[
            ("fig9.avg_background_loss", RecordValue::F64(0.0)),
            ("fig9.frac_with_interference", RecordValue::F64(0.0)),
        ]);
        let mut analyzer = |_w: TimeWindow| -> Result<RecordSet, String> {
            panic!("no gate fired; nothing should be re-analyzed")
        };
        let report = run_diagnosis(
            &standard_detectors(),
            &coarse,
            (0, 999),
            &Thresholds::default(),
            &mut analyzer,
        )
        .unwrap();
        assert_eq!(report.detectors.len(), 5);
        assert!(report.detectors.iter().all(|d| !d.triggered));
        assert_eq!(report.windows_analyzed, 0);
        let lines = report.record_lines();
        for d in &report.detectors {
            assert!(
                lines.contains(&format!("detector {} triggered 0 incidents 0", d.name)),
                "missing outcome line for {}",
                d.name
            );
        }
    }

    #[test]
    fn windows_are_analyzed_once_across_detectors() {
        // Two gates fire; four windows must still be analyzed only once
        // each, and the confirmed incidents carry quoted evidence.
        let coarse = set(&[
            ("fig9.avg_background_loss", RecordValue::F64(0.05)),
            ("fig9.frac_with_interference", RecordValue::F64(0.8)),
            ("fig9.pairs", RecordValue::U64(40)),
            ("fig4.p99_us", RecordValue::F64(45.0)),
            ("fig4.frac_below_20us", RecordValue::F64(0.7)),
        ]);
        let windowed = set(&[
            ("fig9.avg_background_loss", RecordValue::F64(0.05)),
            ("fig9.frac_with_interference", RecordValue::F64(0.8)),
            ("fig9.median_x", RecordValue::F64(0.2)),
            ("fig9.pairs", RecordValue::U64(40)),
            ("fig4.p99_us", RecordValue::F64(45.0)),
            ("fig4.frac_below_10us", RecordValue::F64(0.5)),
            ("fig4.frac_below_20us", RecordValue::F64(0.7)),
            ("fig4.samples", RecordValue::U64(200)),
            ("fig4.singletons", RecordValue::U64(3)),
        ]);
        let mut calls = 0u32;
        let mut analyzer = |_w: TimeWindow| {
            calls += 1;
            Ok(windowed.clone())
        };
        let report = run_diagnosis(
            &standard_detectors(),
            &coarse,
            (0, 3_999),
            &Thresholds::default(),
            &mut analyzer,
        )
        .unwrap();
        assert_eq!(calls, 4, "each distinct window analyzed exactly once");
        assert_eq!(report.windows_analyzed, 4);
        let storm: Vec<_> = report
            .incidents
            .iter()
            .filter(|i| i.detector == "retry-storm")
            .collect();
        assert_eq!(storm.len(), 4);
        assert!(storm[0]
            .evidence
            .iter()
            .any(|r| r.key.as_str() == "fig9.avg_background_loss"));
        assert!((storm[0].reliability - 40.0 / 60.0).abs() < 1e-12);
        let lines = report.record_lines();
        assert!(lines.contains("detector retry-storm triggered 1 incidents 4"));
        assert!(lines.contains("incident 0 evidence fig9.avg_background_loss 0.0500"));
    }
}
