//! # jigsaw-bench
//!
//! The reproduction harness: scenario presets scaled to a CPU/RAM budget,
//! the [`CorpusSession`] every corpus-backed run goes through, the
//! equivalence harness that owns every "these runs emitted the same thing"
//! decision — one [`StreamDigest`], one [`agree`] leg check and one
//! [`sweep::check_golden`] — and the `repro` binary that regenerates every
//! table and figure of the paper's evaluation. Criterion micro-benchmarks live under `benches/`; the
//! repo's measurement surface is `benchmark/` (jigbench + jigtrace).

use jigsaw_analysis::suite::{Figure, Suite};
use jigsaw_core::observer::OnJFrame;
use jigsaw_core::pipeline::{
    CorpusSource, Pipeline, PipelineConfig, PipelineReport, Tile, TileFanout,
};
use jigsaw_core::unify::MergeStats;
use jigsaw_core::{JFrame, PipelineObserver};
use jigsaw_diagnosis::{
    deep_dive_windows, run_diagnosis, standard_detectors, DiagnosisReport, RecordSet, Thresholds,
    TileRecords,
};
use jigsaw_ieee80211::MacAddr;
use jigsaw_live::ChunkedFileTail;
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_sim::spec::ScenarioSpec;
use jigsaw_sim::wired::WiredTraceRecord;
use jigsaw_trace::corpus::{Corpus, CorpusError, CorpusSummary, CorpusWriter};
use jigsaw_trace::digest::Fnv64;
use jigsaw_trace::{RadioMeta, TimeWindow};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub mod alloc;
pub mod cli;
pub mod sweep;

/// The paper-scale scenario at a CPU/RAM scale factor.
///
/// `scale = 1.0` simulates a full diurnal "day" compressed into 720 s of
/// simulated time with 39 pods / 156 radios / 44+12 APs / 60 clients.
/// Smaller scales shorten the represented day proportionally (the diurnal
/// curve is preserved; only its sampling shrinks).
pub fn paper_scenario(seed: u64, scale: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_day(seed);
    let scale = scale.clamp(0.02, 4.0);
    cfg.day_us = (720_000_000.0 * scale) as u64;
    cfg.day_compression = 86_400_000_000.0 / cfg.day_us as f64;
    cfg.protection_timeout_us = (3_600_000_000.0 / cfg.day_compression) as u64;
    cfg.protection_check_us = (cfg.protection_timeout_us / 20).max(250_000);
    cfg
}

/// The per-"minute" bin width for a scenario: the represented day has 1440
/// minutes regardless of compression.
pub fn minute_bin_us(day_us: u64) -> u64 {
    (day_us / 1440).max(1)
}

/// One represented minute of wall time in scenario µs (the paper's
/// "practical" one-minute b-client timeout, scaled to the scenario's day
/// compression). Always ≥ 1.
pub fn practical_minute_us(day_us: u64) -> u64 {
    ((60_000_000.0 / (86_400_000_000.0 / day_us as f64)) as u64).max(1)
}

/// The full paper figure [`Suite`], coverage included: Table 1, Figures
/// 4/6/8/9/10/11, and the station census, all parameterized exactly the way
/// `repro` wires them ("hour" bins of the represented day, one-minute
/// practical timeout) — built from a corpus's radio count, duration, wired
/// trace and AP table, so nothing needs re-simulating.
///
/// The suite holds no borrow of `wired` — the coverage expectation index is
/// built here from it.
pub fn figure_suite_parts(
    radios: usize,
    duration_us: u64,
    wired: &[WiredTraceRecord],
    ap_addr_of: &dyn Fn(u16) -> MacAddr,
) -> Suite {
    let params = jigsaw_analysis::PaperParams {
        radios,
        origin: 0,
        bin_us: minute_bin_us(duration_us) * 60,
        practical_timeout_us: practical_minute_us(duration_us),
    };
    let coverage = jigsaw_analysis::coverage::CoverageAnalysis::new(wired, ap_addr_of, 10_000_000);
    Suite::paper(&params).register(coverage)
}

/// The sharded counterpart of the default (serial) config for a radio set
/// — one merge shard per distinct channel, whatever the core count — plus
/// the number of shards it plans. Every serial ≡ sharded check (the sweep,
/// `merge --verify`, the equivalence tests) runs this against the default;
/// fewer than two shards means the comparison would be vacuous.
pub fn sharded_config(metas: &[RadioMeta]) -> (PipelineConfig, usize) {
    let channels = jigsaw_trace::stream::distinct_channels(metas).len();
    let mut cfg = PipelineConfig::default();
    cfg.shard.max_threads = channels.max(1);
    let shards = cfg.shard.shards_for(channels);
    (cfg, shards)
}

/// A scenario resolved from a manifest (or CLI) name: either one of the
/// classic fixed presets, or a named [`ScenarioSpec`] from the sweep
/// matrix, carrying the seed it will run under.
#[derive(Debug, Clone)]
pub enum NamedScenario {
    /// `tiny` | `small` | `paper_day`.
    Preset(ScenarioConfig),
    /// A sweep-matrix spec (`roaming`, `hidden_terminal`, …) plus the run
    /// seed.
    Spec(ScenarioSpec, u64),
}

impl NamedScenario {
    /// Simulated duration in µs.
    pub fn day_us(&self) -> u64 {
        match self {
            NamedScenario::Preset(c) => c.day_us,
            NamedScenario::Spec(s, _) => s.base.day_us,
        }
    }

    /// Simulates the scenario to completion.
    pub fn run(&self) -> SimOutput {
        match self {
            NamedScenario::Preset(c) => c.clone().run(),
            NamedScenario::Spec(s, seed) => s.run(*seed),
        }
    }
}

/// Resolves a scenario by the name recorded in a corpus manifest. `scale`
/// only applies to `paper_day` (the presets are fixed-size by design);
/// names not among the classic presets fall through to the sweep matrix
/// ([`ScenarioSpec::by_name`]), so a corpus recorded by `repro sweep`
/// re-verifies with plain `repro merge --verify`.
pub fn scenario_by_name(name: &str, seed: u64, scale: f64) -> Option<NamedScenario> {
    match name {
        "tiny" => Some(NamedScenario::Preset(ScenarioConfig::tiny(seed))),
        "small" => Some(NamedScenario::Preset(ScenarioConfig::small(seed))),
        "paper_day" => Some(NamedScenario::Preset(paper_scenario(seed, scale))),
        _ => ScenarioSpec::by_name(name).map(|s| NamedScenario::Spec(s, seed)),
    }
}

/// The source revision a bench record was produced at: `GITHUB_SHA` when
/// CI exports one, else the working tree's `git rev-parse`, else
/// `"unknown"` — never an error, so bench runs work from a bare export.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        let sha = sha.trim().to_string();
        if !sha.is_empty() {
            return sha.chars().take(12).collect();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Records a simulated world as an on-disk corpus (one compressed, indexed
/// trace per radio plus the wired distribution-network member, manifest,
/// and digest). `block_bytes = 0` uses the format's default block size;
/// smaller blocks mean a finer index.
pub fn record_corpus(
    out: &SimOutput,
    dir: &Path,
    scenario: &str,
    seed: u64,
    scale: f64,
    snaplen: u32,
    block_bytes: usize,
) -> Result<CorpusSummary, CorpusError> {
    let mut w = CorpusWriter::create(
        dir,
        scenario,
        seed,
        scale,
        snaplen,
        out.duration_us,
        block_bytes,
    )?;
    for (meta, trace) in out.radio_meta.iter().zip(&out.traces) {
        w.record_radio(*meta, trace.iter())?;
    }
    // The wired side-channel rides along so `analyze --corpus` runs the
    // Figure 6 coverage comparison without re-simulating the scenario.
    let ap_addrs: Vec<MacAddr> = out.stations.iter().map(|s| s.addr).collect();
    let payload =
        jigsaw_sim::wired::encode_wired_trace(&out.wired, &|sid| ap_addrs[usize::from(sid)]);
    w.record_wired(out.wired.len() as u64, &payload)?;
    w.finish()
}

/// A decoded wired member: the records plus the AP id → MAC table.
pub type WiredTrace = (Vec<WiredTraceRecord>, HashMap<u16, MacAddr>);

/// Decodes a corpus's wired member into records plus the AP id → MAC table
/// (the Figure 6 inputs). Errors when the corpus has none — corpora
/// recorded before the wired member existed must be re-recorded.
pub fn corpus_wired(corpus: &Corpus) -> Result<WiredTrace, String> {
    let payload = corpus
        .wired_payload()
        .map_err(|e| e.to_string())?
        .ok_or("corpus has no wired member (re-record it)")?;
    jigsaw_sim::wired::decode_wired_trace(&payload)
}

/// The records of a wired trace that fall in `window` (all of them for
/// `None`), borrowed. `decode_wired_trace` accumulates delta-encoded
/// timestamps, so records are nondecreasing in `ts` by construction and a
/// `[from, to)` window is the contiguous sub-slice between two partition
/// points — a windowed run never clones the trace.
pub fn wired_window(wired: &[WiredTraceRecord], window: Option<TimeWindow>) -> &[WiredTraceRecord] {
    let Some(w) = window else { return wired };
    let lo = wired.partition_point(|r| r.ts < w.from);
    let hi = wired.partition_point(|r| r.ts < w.to);
    wired.get(lo..hi).unwrap_or(&[])
}

/// Opens every radio of a corpus as a pipeline source for a full replay,
/// all feeding one shared disk-bytes counter.
pub fn corpus_sources(
    corpus: &Corpus,
    counter: Arc<AtomicU64>,
) -> Result<Vec<CorpusSource>, CorpusError> {
    corpus_sources_windowed(corpus, counter, None)
}

/// Opens every radio of a corpus as a pipeline source on `window`: given
/// one, reads index-seek to it (clock bootstrap re-anchored at its warm-up
/// start), so disk bytes and merge work scale with the window, not the
/// corpus; `None` is the full replay. Pair a window with
/// `PipelineConfig::window = Some(window)` so emission is clipped to
/// `[from, to)` as well.
pub fn corpus_sources_windowed(
    corpus: &Corpus,
    counter: Arc<AtomicU64>,
    window: impl Into<Option<TimeWindow>>,
) -> Result<Vec<CorpusSource>, CorpusError> {
    let window = window.into();
    Ok(corpus
        .sources(counter)?
        .into_iter()
        .map(|s| CorpusSource::new(s, window))
        .collect())
}

/// Why a corpus-backed run stopped, split the way `repro`'s exit codes
/// are: a request that cannot be served as asked versus a corpus (or a run
/// over it) that is wrong.
#[derive(Debug)]
pub enum SessionError {
    /// No corpus or manifest at the path, a malformed or out-of-span
    /// window, a corpus recorded without a wired member — `repro` exits 2.
    Usage(String),
    /// Digest mismatch, an unreadable index or wired member, a failed
    /// pipeline run — `repro` prints `FAIL:` and exits 1.
    Fail(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (SessionError::Usage(msg) | SessionError::Fail(msg)) = self;
        f.write_str(msg)
    }
}

fn usage(msg: impl Into<String>) -> SessionError {
    SessionError::Usage(msg.into())
}

fn fail(what: &str, e: impl std::fmt::Display) -> SessionError {
    SessionError::Fail(format!("{what}: {e}"))
}

/// One opened, digest-checked corpus and everything a run over it needs —
/// the single owner of what `repro merge`/`analyze`/`tail`/`diagnose`, the
/// sweep and the equivalence tests would otherwise each redo: the open and
/// the digest check (an input check, made on every open), one decode of
/// the wired member (on first use, shared by every later suite), window
/// validation, suite construction over a borrowed wired slice, source
/// opening, and the pipeline call itself. A diagnosis run — coarse pass
/// with every deep-dive tile riding it — is one session and one pass.
pub struct CorpusSession {
    corpus: Corpus,
    wired: OnceCell<WiredTrace>,
    disk_bytes: Arc<AtomicU64>,
}

impl CorpusSession {
    /// Opens the corpus at `dir` and checks its files against the recorded
    /// digest.
    pub fn open(dir: &Path) -> Result<Self, SessionError> {
        let corpus = Corpus::open(dir)
            .map_err(|e| usage(format!("cannot open corpus {}: {e}", dir.display())))?;
        if !corpus
            .verify_digest()
            .map_err(|e| fail("corpus digest check", e))?
        {
            return Err(SessionError::Fail(
                "corpus files do not match their recorded digest (corrupt or tampered)".into(),
            ));
        }
        Ok(CorpusSession {
            corpus,
            wired: OnceCell::new(),
            disk_bytes: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The opened corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Bytes read from disk through this session's sources so far.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_bytes.load(Ordering::Relaxed)
    }

    /// The corpus's span on the anchor-universal timeline.
    pub fn span(&self) -> Result<(u64, u64), SessionError> {
        self.corpus
            .universal_span()
            .map_err(|e| fail("read corpus indexes", e))?
            .ok_or_else(|| usage("corpus records no events"))
    }

    /// The validated replay window of a `--from/--to` request, or `None`
    /// when neither was given. Rejects half-specified windows, `from ≥ to`,
    /// and windows that miss the corpus's recorded span — every one of
    /// these would otherwise be an empty run that *looks* like a clean
    /// result.
    pub fn window(
        &self,
        from: Option<u64>,
        to: Option<u64>,
    ) -> Result<Option<TimeWindow>, SessionError> {
        let window = match (from, to) {
            (None, None) => return Ok(None),
            (Some(from), Some(to)) => TimeWindow::new(from, to)
                .ok_or_else(|| usage(format!("--from {from} must be strictly below --to {to}")))?,
            _ => return Err(usage("--from and --to must be given together")),
        };
        let (lo, hi) = self.span()?;
        if !window.overlaps(lo, hi) {
            return Err(usage(format!(
                "window {window} lies outside the corpus span [{lo}, {hi}] (universal µs)"
            )));
        }
        Ok(Some(window))
    }

    fn wired(&self) -> Result<&WiredTrace, SessionError> {
        if let Some(wired) = self.wired.get() {
            return Ok(wired);
        }
        if self.corpus.manifest().wired.is_none() {
            return Err(usage("corpus has no wired member (re-record it)"));
        }
        let decoded = corpus_wired(&self.corpus).map_err(|e| fail("wired member", e))?;
        Ok(self.wired.get_or_init(|| decoded))
    }

    /// The paper figure suite for this corpus, its Figure 6 expectations
    /// built from the wired records in `window` (wired timestamps are
    /// wall-clock, the timeline a window is phrased in, up to the
    /// documented NTP tolerance). The suite keeps no borrow.
    pub fn suite(&self, window: Option<TimeWindow>) -> Result<Suite, SessionError> {
        let (wired, ap_table) = self.wired()?;
        let m = self.corpus.manifest();
        Ok(figure_suite_parts(
            m.radios.len(),
            m.duration_us,
            wired_window(wired, window),
            &|sid| ap_table[&sid],
        ))
    }

    /// Every radio as a pipeline source reading `read` (`None`: the whole
    /// trace), counted into [`CorpusSession::disk_bytes`].
    pub fn sources(&self, read: Option<TimeWindow>) -> Result<Vec<CorpusSource>, SessionError> {
        corpus_sources_windowed(&self.corpus, Arc::clone(&self.disk_bytes), read)
            .map_err(|e| fail("open corpus sources", e))
    }

    /// Bootstrap + merge only over sources reading `read`, handing every
    /// jframe `cfg.window` admits to `on_jframe`. `read` is `cfg.window`
    /// for an ordinary run; `None` under a set `cfg.window` is the
    /// clipped-full replay a windowed run is verified against.
    pub fn merge(
        &self,
        read: Option<TimeWindow>,
        cfg: &PipelineConfig,
        on_jframe: impl FnMut(&JFrame),
    ) -> Result<MergeStats, SessionError> {
        Pipeline::merge_only(self.sources(read)?, cfg, OnJFrame(on_jframe))
            .map(|(_, stats)| stats)
            .map_err(|e| fail("merge", e))
    }

    /// Streams the figure suite off the corpus — `cfg.window` of it, when
    /// set — in one bounded-memory pass.
    pub fn analyze(
        &self,
        cfg: &PipelineConfig,
    ) -> Result<(PipelineReport, Vec<Box<dyn Figure>>), SessionError> {
        self.run_suite(cfg, ())
    }

    /// [`CorpusSession::analyze`] over the traces tailed in `chunk_bytes`
    /// chunks ([`ChunkedFileTail`]), the run stepped as a live one is and
    /// `also` observing beside the suite: `analyze`'s output at any chunking.
    pub fn tail(
        &self,
        chunk_bytes: usize,
        also: impl PipelineObserver,
    ) -> Result<(PipelineReport, Vec<Box<dyn Figure>>), SessionError> {
        let tails = self.corpus.manifest().radios.iter().map(|r| {
            let path = self.corpus.dir().join(&r.data);
            ChunkedFileTail::open(&path, chunk_bytes).map_err(|e| fail("open trace tail", e))
        });
        let tails = tails.collect::<Result<Vec<_>, _>>()?;
        let mut suite = self.suite(None)?;
        let tail = |e| fail("tail", e);
        let mut run =
            Pipeline::start(tails, &PipelineConfig::default(), (&mut suite, also)).map_err(tail)?;
        while run.step(&mut drop).map_err(tail)? {}
        let report = run.finish(drop).map_err(tail)?;
        Ok((report, suite.finish()))
    }

    /// The suite over `cfg.window`, with `also` observing beside it — the
    /// one place a corpus-backed run calls [`Pipeline::run`].
    fn run_suite(
        &self,
        cfg: &PipelineConfig,
        also: impl PipelineObserver,
    ) -> Result<(PipelineReport, Vec<Box<dyn Figure>>), SessionError> {
        let mut suite = self.suite(cfg.window)?;
        let report = Pipeline::run(self.sources(cfg.window)?, cfg, (&mut suite, also))
            .map_err(|e| fail("pipeline", e))?;
        Ok((report, suite.finish()))
    }

    /// [`CorpusSession::analyze`] with one more figure suite per tile
    /// riding the same pass ([`TileFanout`]): each of the sorted, disjoint
    /// `tiles` gets exactly the jframes `analyze` of the same sources with
    /// `cfg.window` set to that tile would see, so its figures are
    /// byte-identical to that run's — at one read of the corpus, not one
    /// per tile. `reduce` turns a tile's finished figures into what the
    /// caller keeps, as soon as the stream is past the tile. A jframe
    /// keyed into a tile that had already closed fails the run.
    pub fn analyze_tiled<R>(
        &self,
        cfg: &PipelineConfig,
        tiles: &[TimeWindow],
        mut reduce: impl FnMut(Vec<Box<dyn Figure>>) -> R,
    ) -> Result<TiledAnalysis<R>, SessionError> {
        let suites = tiles
            .iter()
            .map(|&w| Ok((w, self.suite(Some(w))?)))
            .collect::<Result<Vec<_>, SessionError>>()?;
        let mut fanout = TileFanout::new(&self.corpus.metas(), suites, |suite: Suite| {
            reduce(suite.finish())
        });
        let (report, figures) = self.run_suite(cfg, &mut fanout)?;
        let (tiles, late) = fanout.finish();
        if late > 0 {
            return Err(SessionError::Fail(format!(
                "{late} jframes were keyed into a tile the stream had already closed \
                 (anchor time over a second behind merged time): tiles would not equal clipped replays"
            )));
        }
        Ok(TiledAnalysis {
            report,
            figures,
            tiles,
        })
    }

    /// The triage `repro diagnose` runs, in one pass over the corpus: the
    /// coarse figure suite over `cfg.window` (the whole corpus for `None`)
    /// gates the standard detectors, and the deep-dive tiles of the
    /// diagnosed span ride that same pass ([`CorpusSession::analyze_tiled`])
    /// — so each tile's records are those of `analyze` clipped to the tile,
    /// on the coarse pass's own clocks.
    pub fn diagnose(
        &self,
        cfg: &PipelineConfig,
        thresholds: &Thresholds,
    ) -> Result<(PipelineReport, DiagnosisReport), SessionError> {
        let (lo, hi) = self.span()?;
        let span = match cfg.window {
            Some(w) => (w.from.max(lo), w.to.saturating_sub(1).min(hi)),
            None => (lo, hi),
        };
        let tiles = deep_dive_windows(span, thresholds.windows);
        let run = self.analyze_tiled(cfg, &tiles, |figures| RecordSet::from_figures(&figures))?;
        let coarse = RecordSet::from_figures(&run.figures);
        let mut tiles = TileRecords::new(run.tiles.into_iter().map(|t| (t.window, t.output)));
        let report = run_diagnosis(&standard_detectors(), &coarse, span, thresholds, &mut tiles)
            .map_err(|e| fail("deep dive", e))?;
        Ok((run.report, report))
    }
}

/// What [`CorpusSession::analyze_tiled`] returns: the coarse pass as
/// [`CorpusSession::analyze`] returns it, plus every tile.
pub struct TiledAnalysis<R> {
    /// The one pipeline run's report.
    pub report: PipelineReport,
    /// The coarse suite's figures (over `cfg.window`).
    pub figures: Vec<Box<dyn Figure>>,
    /// Each tile in window order: its jframe count and `reduce`d figures.
    pub tiles: Vec<Tile<R>>,
}

/// One reading of a jframe stream: how many jframes it held and their
/// digest. Two runs emitted the same stream, under that reading, iff the
/// readings are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reading {
    /// Jframes observed.
    pub count: u64,
    /// The digest as 16-char hex.
    pub hex: String,
}

impl std::fmt::Display for Reading {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} jframes, {}", self.count, self.hex)
    }
}

/// The one running digest over a jframe stream. Each jframe folds in once
/// and the digest reads two ways:
///
/// * [`StreamDigest::ordered`] — count + order + every field
///   ([`JFrame::digest_into`]). Two full runs emitted the same stream iff
///   it matches: serial ≡ sharded ≡ disk ≡ live, and each sweep golden's
///   `stream_digest`.
/// * [`StreamDigest::invariant`] — per channel, the count and the
///   commutative sum of [`JFrame::stable_digest`] (capture-side fields
///   only), folded in channel order. This is the windowed-replay
///   contract's comparison object. A replay re-anchored mid-trace
///   reproduces the full replay's *unification* exactly — same groups,
///   same instances, same per-channel streams — but its universal timeline
///   is re-derived from the NTP anchors at the window, so merged
///   timestamps (and with them the cross-channel emission interleaving)
///   agree only to the re-anchor tolerance. Per channel, the *multiset* of
///   clock-invariant jframe identities plus the count is what is exact:
///   windowed ≡ clipped-full, and each sweep golden's `window_digest`.
#[derive(Debug, Clone, Default)]
pub struct StreamDigest {
    ordered: Fnv64,
    channels: BTreeMap<u8, (u64, u64)>, // channel → (count, commutative sum)
}

impl StreamDigest {
    /// An empty stream digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the next jframe of the stream.
    pub fn observe(&mut self, jf: &JFrame) {
        jf.digest_into(&mut self.ordered);
        let (count, sum) = self.channels.entry(jf.channel.number()).or_default();
        *count += 1;
        *sum = sum.wrapping_add(jf.stable_digest());
    }

    /// Jframes observed across all channels.
    pub fn count(&self) -> u64 {
        self.channels.values().map(|&(c, _)| c).sum()
    }

    /// The count + order + content reading, for full runs.
    pub fn ordered(&self) -> Reading {
        Reading {
            count: self.count(),
            hex: self.ordered.hex(),
        }
    }

    /// The per-channel clock-invariant reading, for windowed runs.
    pub fn invariant(&self) -> Reading {
        let mut h = Fnv64::new();
        for (chan, &(count, sum)) in &self.channels {
            h.update(&[*chan]);
            h.update_u64(count);
            h.update_u64(sum);
        }
        Reading {
            count: self.count(),
            hex: h.hex(),
        }
    }
}

impl PipelineObserver for StreamDigest {
    fn on_jframe(&mut self, jf: &JFrame) {
        self.observe(jf);
    }
}

/// The one agreement check over named runs that must have emitted the
/// same stream: every leg's reading must equal the first leg's, and `Ok`
/// is that agreed reading. `Err` is the first disagreement as one line
/// naming both legs with their counts and digests — the text a caller
/// prints after `FAIL:`.
pub fn agree(legs: &[(impl std::fmt::Display, Reading)]) -> Result<Reading, String> {
    let Some(((base_leg, base), rest)) = legs.split_first() else {
        return Err("no runs to compare".into());
    };
    match rest.iter().find(|(_, r)| r != base) {
        None => Ok(base.clone()),
        Some((leg, r)) => Err(format!("{leg} ({r}) != {base_leg} ({base})")),
    }
}

/// Builds memory streams for a subset of radios (Figure 7 pod reduction).
pub fn subset_streams(
    out: &SimOutput,
    radios: &[usize],
) -> Vec<jigsaw_trace::stream::MemoryStream> {
    radios
        .iter()
        .map(|&r| jigsaw_trace::stream::MemoryStream::new(out.radio_meta[r], out.traces[r].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_scaling() {
        let full = paper_scenario(1, 1.0);
        assert_eq!(full.day_us, 720_000_000);
        assert_eq!(full.n_pods, 39);
        let half = paper_scenario(1, 0.5);
        assert_eq!(half.day_us, 360_000_000);
        // Compression doubles when the day halves.
        assert!((half.day_compression / full.day_compression - 2.0).abs() < 1e-9);
        // Protection timeout keeps representing one hour of the day.
        assert_eq!(half.protection_timeout_us * 24, half.day_us / 2 * 2);
    }

    #[test]
    fn minute_bins() {
        assert_eq!(minute_bin_us(720_000_000), 500_000);
        assert_eq!(minute_bin_us(1_440), 1);
    }

    #[test]
    fn practical_minute_scales_with_compression() {
        // A 720 s day represents 86400 s: one represented minute = 500 ms.
        assert_eq!(practical_minute_us(720_000_000), 500_000);
        // Never zero, however compressed the day.
        assert!(practical_minute_us(1) >= 1);
    }

    #[test]
    fn figure_suite_registers_every_paper_figure() {
        let out = ScenarioConfig::tiny(1).run();
        let ap_addrs: Vec<MacAddr> = out.stations.iter().map(|s| s.addr).collect();
        let suite = figure_suite_parts(out.radio_meta.len(), out.duration_us, &out.wired, &|sid| {
            ap_addrs[usize::from(sid)]
        });
        let figures = suite.finish();
        assert_eq!(
            figures.iter().map(|f| f.name()).collect::<Vec<_>>(),
            vec!["table1", "fig4", "fig8", "fig9", "fig10", "stations", "fig11", "fig6"]
        );
    }

    #[test]
    fn scenario_names_resolve() {
        assert!(scenario_by_name("tiny", 1, 1.0).is_some());
        assert!(scenario_by_name("small", 1, 1.0).is_some());
        let p = scenario_by_name("paper_day", 1, 0.5).unwrap();
        assert_eq!(p.day_us(), 360_000_000);
        // Non-preset names fall through to the sweep matrix.
        let s = scenario_by_name("roaming", 7, 1.0).unwrap();
        assert!(matches!(s, NamedScenario::Spec(_, 7)));
        assert!(scenario_by_name("nope", 1, 1.0).is_none());
    }

    #[test]
    fn git_sha_is_short_and_nonempty() {
        let sha = git_sha();
        assert!(!sha.is_empty());
        assert!(sha.len() <= 12);
    }

    /// The borrowed wired slice is exactly what filtering would keep: the
    /// decoder's output is ordered, a record at `from` is in, one at `to`
    /// is out.
    #[test]
    fn wired_window_is_the_contiguous_slice_a_filter_would_keep() {
        let out = ScenarioConfig::tiny(20060124).run();
        let ap_addrs: Vec<MacAddr> = out.stations.iter().map(|s| s.addr).collect();
        let payload =
            jigsaw_sim::wired::encode_wired_trace(&out.wired, &|sid| ap_addrs[usize::from(sid)]);
        let (wired, _) = jigsaw_sim::wired::decode_wired_trace(&payload).unwrap();
        assert!(wired.len() > 10, "tiny world has wired traffic");
        assert!(wired.windows(2).all(|p| p[0].ts <= p[1].ts));

        assert_eq!(wired_window(&wired, None).len(), wired.len());
        // Edges exactly on record timestamps (duplicates included), plus
        // windows before, across and past the whole trace.
        let (first, last) = (wired[0].ts, wired[wired.len() - 1].ts);
        let (a, b) = (wired[wired.len() / 3].ts, wired[2 * wired.len() / 3].ts);
        assert!(a < b);
        for (from, to) in [
            (a, b),
            (first, last),
            (first, last + 1),
            (0, first.max(1)),
            (a, a + 1),
            (last + 1, last + 2),
        ] {
            let w = TimeWindow::new(from, to).unwrap();
            let kept = wired.iter().filter(|r| w.contains(r.ts));
            assert!(wired_window(&wired, Some(w)).iter().eq(kept), "window {w}");
        }
        // A record exactly at `from` is in; one exactly at `to` is out.
        let w = TimeWindow::new(a, b).unwrap();
        let slice = wired_window(&wired, Some(w));
        assert_eq!(slice[0].ts, a);
        assert!(slice[slice.len() - 1].ts < b);
    }

    #[test]
    fn windowed_stream_digest_is_order_insensitive_within_channel() {
        use jigsaw_core::jframe::{Instance, JFrame};
        use jigsaw_ieee80211::{Channel, PhyRate};
        use jigsaw_trace::{PhyStatus, RadioId};
        let jf = |ts: u64, chan: u8, fill: u8| JFrame {
            ts,
            bytes: vec![fill; 20].into(),
            wire_len: 20,
            rate: PhyRate::R11,
            channel: Channel::of(chan),
            instances: jigsaw_core::Instances::one(Instance {
                radio: RadioId(0),
                ts_local: ts + 7,
                ts_universal: ts,
                rssi_dbm: -50,
                status: PhyStatus::Ok,
            }),
            dispersion: 0,
            valid: true,
            unique: true,
        };
        let digest = |frames: &mut dyn Iterator<Item = JFrame>| {
            let mut d = StreamDigest::new();
            frames.for_each(|f| d.observe(&f));
            d
        };
        let frames = [jf(1, 1, 1), jf(2, 6, 2), jf(3, 1, 3)];
        let fwd = digest(&mut frames.iter().cloned());
        assert_eq!(fwd.count(), 3);
        // Same multiset, different cross-channel interleaving: only the
        // ordered reading moves.
        let rev = digest(&mut frames.iter().rev().cloned());
        assert_eq!(fwd.invariant(), rev.invariant());
        assert_ne!(fwd.ordered().hex, rev.ordered().hex);
        assert_eq!(fwd.ordered().count, rev.ordered().count);
        // Clock-derived fields move the ordered reading only...
        let shifted = digest(&mut frames.iter().map(|f| {
            let mut f = f.clone();
            f.ts += 1_000;
            f.instances[0].ts_universal += 1_000;
            f
        }));
        assert_eq!(fwd.invariant(), shifted.invariant());
        assert_ne!(fwd.ordered(), shifted.ordered());
        // ...while content, channel and count move both.
        let flipped = digest(&mut frames.iter().enumerate().map(|(i, f)| {
            let mut f = f.clone();
            if i == 1 {
                let mut bytes = f.bytes.to_vec();
                bytes[7] ^= 1;
                f.bytes = bytes.into();
            }
            f
        }));
        assert_ne!(fwd.invariant(), flipped.invariant());
        assert_ne!(fwd.ordered(), flipped.ordered());
        let dropped = digest(&mut frames.iter().take(2).cloned());
        assert_ne!(fwd.invariant(), dropped.invariant());
        assert_ne!(fwd.ordered(), dropped.ordered());
        let moved = digest(&mut frames.iter().enumerate().map(|(i, f)| {
            let mut f = f.clone();
            if i == 0 {
                f.channel = Channel::of(11);
            }
            f
        }));
        assert_ne!(fwd.invariant().hex, moved.invariant().hex);
        assert_ne!(fwd.ordered().hex, moved.ordered().hex);
    }

    #[test]
    fn agreement_names_the_first_disagreeing_leg() {
        let reading = |count, hex: &str| Reading {
            count,
            hex: hex.into(),
        };
        let none: [(&str, Reading); 0] = [];
        assert!(agree(&none).is_err());
        let same = [("a", reading(3, "x")), ("b", reading(3, "x"))];
        assert_eq!(agree(&same), Ok(reading(3, "x")));
        let legs = [
            ("serial", reading(3, "aa")),
            ("sharded", reading(3, "aa")),
            ("disk", reading(4, "bb")),
            ("live", reading(3, "cc")),
        ];
        assert_eq!(
            agree(&legs),
            Err("disk (4 jframes, bb) != serial (3 jframes, aa)".into())
        );
    }
}
