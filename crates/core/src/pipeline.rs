//! The single-pass streaming pipeline: bootstrap → unify → link → transport.
//!
//! Mirrors the paper's online design (§4, requirement 3): traces are
//! consumed once, in time order, and every stage streams into the next.
//! Analyses subscribe via a single [`PipelineObserver`] instead of
//! materializing the 500M-jframe intermediate the paper's hardware had to
//! contend with: one observer receives every unified jframe, every
//! transmission attempt, every closed exchange, and (once, at the end)
//! the reconstructed flow records. Closures stay ergonomic through the
//! [`crate::observer`] adapters, and tuples fan one pass out to several
//! analyses.
//!
//! The driver takes a `Vec` of [`EventSource`]s — one per radio. A source
//! abstracts *where events come from*: any in-memory or decoded
//! [`EventStream`] is a source, and a disk corpus radio ([`CorpusSource`])
//! is a source that index-seeks its trace file to the range a replay
//! needs. Either way the stream is consumed exactly once: the bootstrap
//! window is split off its front ([`OpenedRadio`]) and re-seeded into the
//! merger ([`SourceSet`]), so every trace block is decoded once and a
//! day-long corpus is merged with memory bounded by the bootstrap window
//! plus the search window, never by trace length
//! ([`MergeStats::peak_buffered`](crate::unify::MergeStats) measures it).
//!
//! Replays need not start at t = 0: a [`CorpusSource`] given a window
//! re-anchors the clock bootstrap at any corpus timestamp (index-seeked
//! reads, coarse NTP-anchor seed, [`bootstrap_at`] refinement) and
//! [`PipelineConfig::window`] clips emission to the requested `[from, to)`
//! — the paper's "start at 11 am" replay, with I/O and merge cost
//! proportional to the window. [`WindowClipper`] documents the
//! clock-invariant membership rule and the equivalence contract a windowed
//! replay is pinned against. Several clipped analyses of one run need not
//! be several runs: a [`TileFanout`] observer routes the one merged stream
//! to disjoint time tiles by the same membership rule.
//!
//! There is one driver, [`PipelineRun`]: open → bootstrap → merge → clip →
//! reconstruct, stepped while its sources pend (a live tail) and finished;
//! [`Pipeline::run`] is [`Pipeline::start`], then finish. How the merge is
//! laid out is configuration: [`PipelineConfig::shard`] plans one shard by
//! default — the serial [`Merger`], the only layout that can wait on a
//! stream that pends — and with more threads one merge thread per channel
//! shard ([`crate::shard`]), with reconstruction consuming the K-way-merged
//! jframe stream on the calling thread. Output is jframe-for-jframe
//! identical at every layout, stepped or not.

use crate::jframe::JFrame;
use crate::link::attempt::{Attempt, AttemptAssembler, AttemptStats};
use crate::link::exchange::{Exchange, ExchangeAssembler, LinkStats};
use crate::observer::PipelineObserver;
use crate::shard::{seeded_merger, ShardConfig};
use crate::sync::bootstrap::{bootstrap_at, BootstrapConfig, BootstrapError, BootstrapReport};
use crate::transport::flow::{FlowRecord, TransportAnalyzer, TransportStats};
use crate::unify::{MergeConfig, MergeStats, Merger, StreamStatus};
use jigsaw_ieee80211::Micros;
use jigsaw_trace::format::FormatError;
use jigsaw_trace::stream::{distinct_channels, EventStream, SourcePoll};
use jigsaw_trace::{PhyEvent, RadioId, RadioMeta, TimeWindow};
use std::collections::{BTreeMap, VecDeque};

/// Pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Bootstrap parameters.
    pub bootstrap: BootstrapConfig,
    /// Unification parameters.
    pub merge: MergeConfig,
    /// Merge layout: serial by default, channel-sharded across threads
    /// when [`ShardConfig::max_threads`] says so.
    pub shard: ShardConfig,
    /// Replay window: when set, only jframes whose anchor-time key falls
    /// in `[from, to)` reach the observer (see [`WindowClipper`] for the
    /// clock-invariant membership rule and the equivalence contract).
    /// Pair it with sources opened on the same window
    /// ([`CorpusSource::new`]) so reads are window-bounded too; with
    /// whole-trace sources it clips a full replay — the reference side of
    /// the windowed-equivalence check.
    pub window: Option<TimeWindow>,
}

/// Everything the pipeline reports at the end of a run.
#[derive(Debug)]
pub struct PipelineReport {
    /// Bootstrap outcome.
    pub bootstrap: BootstrapReport,
    /// Merge statistics.
    pub merge: MergeStats,
    /// Per radio, what its stream delivered (serial merge; else empty).
    pub radios: Vec<RadioReport>,
    /// Emission lag of the serial merge (else empty).
    pub lag: LagStats,
    /// Attempt-assembly statistics.
    pub attempts: AttemptStats,
    /// Exchange-assembly statistics (the paper's §5.1 inference rates).
    pub link: LinkStats,
    /// Per-flow transport records.
    pub flows: Vec<FlowRecord>,
    /// Aggregate transport statistics.
    pub transport: TransportStats,
}

/// Errors from a pipeline run.
#[derive(Debug)]
pub enum PipelineError {
    /// Bootstrap failed.
    Bootstrap(BootstrapError),
    /// Trace decoding failed.
    Format(FormatError),
    /// A sharded run was stepped, or pended in bootstrap: only the serial
    /// merger can wait on a stream that pends.
    ShardedPend,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Bootstrap(e) => write!(f, "bootstrap: {e}"),
            PipelineError::Format(e) => write!(f, "trace: {e}"),
            PipelineError::ShardedPend => f.write_str("a sharded merge cannot wait on a pend"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<BootstrapError> for PipelineError {
    fn from(e: BootstrapError) -> Self {
        PipelineError::Bootstrap(e)
    }
}

impl From<FormatError> for PipelineError {
    fn from(e: FormatError) -> Self {
        PipelineError::Format(e)
    }
}

/// What one radio's stream delivered over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadioReport {
    /// The radio.
    pub radio: RadioId,
    /// Events delivered, bootstrap window and late drops included.
    pub events: u64,
    /// Events it delivered while lagging, below the horizon, and dropped.
    pub late_dropped: u64,
    /// Whether the run ever declared it lagging ([`PipelineRun::lag`]).
    pub lagged: bool,
}

const LAG_RESERVOIR: usize = 4096;

/// Bounded emission-lag accumulator: the merge horizon minus each jframe's
/// timestamp as it left the merger (µs). Quantiles are exact until 4096
/// samples, then Algorithm-R reservoir sampling (a fixed-seed SplitMix64
/// step, so the statistics stay a pure function of the emitted stream)
/// keeps a uniform subset at constant memory — what an always-on service
/// needs. Count and max are always exact.
#[derive(Debug, Clone)]
pub struct LagStats {
    samples: Vec<Micros>,
    count: u64,
    max: Micros,
    rng: u64,
}

impl LagStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        LagStats {
            samples: Vec::new(),
            count: 0,
            max: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn push(&mut self, lag: Micros) {
        self.count += 1;
        self.max = self.max.max(lag);
        if self.samples.len() < LAG_RESERVOIR {
            self.samples.push(lag);
            return;
        }
        // Algorithm R: the n-th sample replaces a reservoir slot with
        // probability reservoir/n, keeping the subset uniform.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let slot = (z % self.count) as usize;
        if let Some(s) = self.samples.get_mut(slot) {
            *s = lag;
        }
    }

    /// Total jframes observed (not capped by the reservoir).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Worst-case lag (µs); 0 when nothing was emitted.
    pub fn max(&self) -> Micros {
        self.max
    }

    /// The requested quantiles (`0.5` = p50), from a single sort of the
    /// reservoir; all zeros when nothing was emitted.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Micros> {
        if self.samples.is_empty() {
            return vec![0; qs.len()];
        }
        let mut s = self.samples.clone();
        s.sort_unstable();
        qs.iter()
            .map(|&q| {
                let idx = ((s.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
                s[idx.min(s.len() - 1)]
            })
            .collect()
    }
}

impl Default for LagStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A per-radio supplier of pipeline input.
///
/// Opening a source splits its *bootstrap window* (input to offset
/// estimation) off its *merge stream* — an [`OpenedRadio`], pulled once,
/// which a stored stream completes. Every source is consumed once: the
/// window events, plus the one past-window event the split necessarily
/// reads, are re-seeded into the merger ahead of the stream. The two
/// implementations differ only in where the stream starts and its window sits:
///
/// * any [`EventStream`] is a source (blanket impl), read from its first
///   event with the window at the radio's NTP anchor;
/// * a [`CorpusSource`] index-seeks its trace file to the range a replay
///   needs and puts the window at the start of that range.
pub trait EventSource {
    /// The merge stream this source opens into.
    type Stream: EventStream;

    /// Opens the source, splitting off the bootstrap window.
    fn open(self, cfg: &BootstrapConfig) -> Result<OpenedRadio<Self::Stream>, FormatError>;
}

/// One opened [`EventSource`] — the one bootstrap window rule, for batch
/// and live sources alike: every event with `ts_local ≤ window_lo +
/// window_us`, whatever precedes `window_lo` included, is bootstrap input,
/// and the first event past it completes the window as the carry. The split
/// resumes: [`OpenedRadio::pull`] reads until the carry or the end of the
/// stream arrives, or the stream pends.
pub struct OpenedRadio<S> {
    /// Radio metadata.
    pub meta: RadioMeta,
    /// Events inside the bootstrap window — the input to offset
    /// estimation, and nothing else: one out-of-window reference frame is
    /// enough to skew a synchronization set.
    pub window: Vec<PhyEvent>,
    /// The one event read past the window. It must reach the merger ahead
    /// of `stream` — dropping it would lose an event.
    pub carry: Option<PhyEvent>,
    /// Local time the bootstrap window starts at: the NTP anchor for a
    /// from-the-start source, or the coarse-local image of the replay
    /// window's read start for a windowed one. Offset estimation windows
    /// at it, and the merger's clock EWMA references it.
    pub window_lo: Micros,
    /// The merge stream.
    pub stream: S,
    /// The last local time inside the window.
    window_hi: Micros,
    /// The carry arrived or the stream ended.
    complete: bool,
}

impl<S: EventStream> OpenedRadio<S> {
    /// Splits `stream` with its window at `window_lo`, pulling once.
    fn open(stream: S, window_lo: Micros, cfg: &BootstrapConfig) -> Result<Self, FormatError> {
        let mut radio = OpenedRadio {
            meta: stream.meta(),
            window: Vec::new(),
            carry: None,
            window_lo,
            stream,
            window_hi: window_lo.saturating_add(cfg.window_us),
            complete: false,
        };
        radio.pull()?;
        Ok(radio)
    }

    /// Reads until the window is complete or the stream pends; returns
    /// whether it is complete. Once it is, the rest is the merger's.
    pub fn pull(&mut self) -> Result<bool, FormatError> {
        while !self.complete {
            match self.stream.poll_event()? {
                SourcePoll::Event(ev) if ev.ts_local > self.window_hi => {
                    self.carry = Some(ev);
                    self.complete = true;
                }
                SourcePoll::Event(ev) => self.window.push(ev),
                SourcePoll::End => self.complete = true,
                SourcePoll::Pending => break,
            }
        }
        Ok(self.complete)
    }
}

impl<S: EventStream> EventSource for S {
    type Stream = S;

    fn open(self, cfg: &BootstrapConfig) -> Result<OpenedRadio<S>, FormatError> {
        let window_lo = self.meta().anchor_local_us;
        OpenedRadio::open(self, window_lo, cfg)
    }
}

/// Left-edge warm-up: how far before `window.from` a windowed replay
/// starts reading and merging (µs). The first [`BootstrapConfig::window_us`]
/// of it feeds the mid-trace offset bootstrap; the rest gives continuous
/// resynchronization time to converge onto the full-replay clock state
/// before the first in-window jframe is emitted.
pub const WINDOW_WARMUP_US: Micros = 2_000_000;

/// Right-edge read slack (µs): how far past `window.to` each radio keeps
/// reading, so a jframe whose earliest instance sits just inside the
/// window still collects instances from radios whose NTP anchors disagree
/// by milliseconds. Generous — it costs at most a couple of extra blocks
/// per radio.
pub const WINDOW_READ_SLACK_US: Micros = 100_000;

/// A disk-corpus radio as a pipeline source (a wrapper, because the
/// blanket stream impl above forbids implementing [`EventSource`] directly
/// for the foreign [`RadioTraceSource`](jigsaw_trace::corpus::RadioTraceSource)
/// type): one index-seeked stream over the local-time range the replay
/// needs, its bootstrap window split off the front like any other
/// stream's — each block of the range is decoded exactly once.
///
/// The range is the whole trace, or — given a replay window — the window
/// plus [`WINDOW_WARMUP_US`] before and [`WINDOW_READ_SLACK_US`] after:
/// reads are then index-seeked, the bootstrap window sits at the warm-up
/// start, and nothing past the range is ever decoded, so disk bytes are
/// proportional to the window's blocks, not the corpus. The window is
/// phrased in anchor-universal time; each radio locates it on its own
/// local clock through [`RadioMeta::coarse_local`] (the NTP anchor pair as
/// the coarse seed), and [`bootstrap_at`] then refines the offsets from
/// sync-quality frames found right there.
pub struct CorpusSource {
    source: jigsaw_trace::corpus::RadioTraceSource,
    window: Option<TimeWindow>,
}

impl CorpusSource {
    /// Wraps a corpus radio for a full replay (`None`) or a `[from, to)`
    /// one.
    pub fn new(source: jigsaw_trace::corpus::RadioTraceSource, window: Option<TimeWindow>) -> Self {
        CorpusSource { source, window }
    }
}

impl EventSource for CorpusSource {
    type Stream = jigsaw_trace::corpus::WindowedCorpusStream;

    fn open(self, cfg: &BootstrapConfig) -> Result<OpenedRadio<Self::Stream>, FormatError> {
        let meta = self.source.meta();
        // (read range, bootstrap window start). A full replay reads
        // everything — pre-anchor events included, the merger must see
        // them — and bootstraps at the NTP anchor.
        let (lo, hi, window_lo) = match self.window {
            None => (0, u64::MAX, meta.anchor_local_us),
            Some(w) => {
                let lo = meta.coarse_local(w.from.saturating_sub(WINDOW_WARMUP_US));
                let hi = meta.coarse_local(w.to).saturating_add(WINDOW_READ_SLACK_US);
                (lo, hi, lo)
            }
        };
        OpenedRadio::open(self.source.open_stream_range(lo, hi)?, window_lo, cfg)
    }
}

/// A jframe's clock-invariant **anchor key**: the minimum over its
/// instances of [`RadioMeta::anchor_universal`]`(ts_local)` — a value
/// derived purely from captured timestamps and manifest anchors, so every
/// replay of a corpus computes the same key for the same jframe whatever
/// its clock state. [`WindowClipper`] and [`TileFanout`] both decide
/// membership on it; this is the one place it is computed.
pub struct AnchorKey {
    /// Coarse offset by radio id (radio ids are small and dense; an id
    /// past the table keys with offset 0).
    coarse: Vec<i64>,
}

impl AnchorKey {
    /// Builds the per-radio offset table for a radio set.
    pub fn new(metas: &[RadioMeta]) -> Self {
        let len = metas.iter().map(|m| usize::from(m.radio.0) + 1).max();
        let mut coarse = vec![0; len.unwrap_or(0)];
        for m in metas {
            coarse[usize::from(m.radio.0)] = m.coarse_offset_us();
        }
        AnchorKey { coarse }
    }

    /// The jframe's key: its earliest instance in anchor time (falls back
    /// to the merged `ts` for an instance-less jframe, which the merger
    /// never emits).
    pub fn of(&self, jf: &JFrame) -> Micros {
        jf.instances
            .iter()
            .map(|i| {
                let off = self
                    .coarse
                    .get(usize::from(i.radio.0))
                    .copied()
                    .unwrap_or(0);
                (i.ts_local as i64 - off).max(0) as Micros
            })
            .min()
            .unwrap_or(jf.ts)
    }
}

/// Decides which jframes belong to a replay window.
///
/// Membership is keyed on **anchor time** ([`AnchorKey`]), not merged
/// universal time. Merged universal timestamps depend on clock state (a
/// mid-trace bootstrap re-derives the timeline, so windowed and full
/// replays agree on `ts` only to the re-anchor tolerance); the anchor key
/// is identical in both, which is what makes "windowed ≡
/// full-clipped-to-window" an exact, pinnable equivalence on
/// [`JFrame::stable_digest`] multisets.
pub struct WindowClipper {
    window: TimeWindow,
    key: AnchorKey,
}

impl WindowClipper {
    /// Builds a clipper for `window` over the given radio set.
    pub fn new(metas: &[RadioMeta], window: TimeWindow) -> Self {
        WindowClipper {
            window,
            key: AnchorKey::new(metas),
        }
    }

    /// The window being clipped to.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// The jframe's clock-invariant window key ([`AnchorKey::of`]).
    pub fn anchor_ts(&self, jf: &JFrame) -> Micros {
        self.key.of(jf)
    }

    /// True when the jframe belongs to the window.
    pub fn admits(&self, jf: &JFrame) -> bool {
        self.window.contains(self.anchor_ts(jf))
    }
}

/// Every radio's opened source — the one path from opened radios to
/// bootstrap and merge input.
pub struct SourceSet<S> {
    /// The opened radios, in radio order.
    pub radios: Vec<OpenedRadio<S>>,
}

impl<S: EventStream> SourceSet<S> {
    /// Opens all sources, preserving radio order.
    pub fn open<I>(sources: Vec<I>, cfg: &BootstrapConfig) -> Result<Self, FormatError>
    where
        I: EventSource<Stream = S>,
    {
        let radios = sources
            .into_iter()
            .map(|src| src.open(cfg))
            .collect::<Result<_, _>>()?;
        Ok(SourceSet { radios })
    }

    /// Runs bootstrap over the in-window events only, windowed at each
    /// radio's window start.
    pub fn bootstrap(&self, cfg: &BootstrapConfig) -> Result<BootstrapReport, BootstrapError> {
        let metas: Vec<RadioMeta> = self.radios.iter().map(|r| r.meta).collect();
        let windows: Vec<&[PhyEvent]> = self.radios.iter().map(|r| r.window.as_slice()).collect();
        let window_los: Vec<Micros> = self.radios.iter().map(|r| r.window_lo).collect();
        bootstrap_at(&metas, &windows, &window_los, cfg)
    }

    /// Splits into merge input: the streams, plus per radio the events to
    /// seed ahead of them (window, then carry) and the local time to
    /// reference the clock EWMA at.
    pub fn into_merge_input(self) -> (Vec<S>, Vec<Vec<PhyEvent>>, Vec<Micros>) {
        let (streams, (seeds, window_los)) = self
            .radios
            .into_iter()
            .map(|r| {
                let mut seed = r.window;
                seed.extend(r.carry);
                (r.stream, (seed, r.window_lo))
            })
            .unzip();
        (streams, seeds, window_los)
    }
}

/// The post-unification reconstruction chain: attempt assembly → exchange
/// assembly → transport reconstruction, plus the exchange reorder queue
/// (exchanges close out of order — a delivered exchange closes at its ACK,
/// an ambiguous one lingers to the 500 ms timeout — but transport
/// reconstruction needs transmission-time order, so closed exchanges wait
/// in a small ordered map until a 1 s watermark passes them).
///
/// A [`PipelineRun`] feeds every shard layout's jframes through one, so
/// sharded runs reconstruct exactly what serial runs reconstruct, and each
/// [`TileFanout`] tile owns one.
struct Reconstruction<O> {
    attempts: AttemptAssembler,
    exchanges: ExchangeAssembler,
    transport: TransportAnalyzer,
    attempt_buf: Vec<Attempt>,
    exchange_buf: Vec<Exchange>,
    /// Closed exchanges by `(first_ts, arrival seq)`: transmission order,
    /// ties in closing order.
    reorder: BTreeMap<(u64, u64), Exchange>,
    reorder_seq: u64,
    obs: O,
}

const REORDER_HORIZON_US: u64 = 1_000_000;

impl<O: PipelineObserver> Reconstruction<O> {
    /// Wraps an observer; see [`Pipeline::run`] for the observer contract.
    fn new(obs: O) -> Self {
        Reconstruction {
            attempts: AttemptAssembler::new(),
            exchanges: ExchangeAssembler::new(),
            transport: TransportAnalyzer::new(),
            attempt_buf: Vec::new(),
            exchange_buf: Vec::new(),
            reorder: BTreeMap::new(),
            reorder_seq: 0,
            obs,
        }
    }

    fn enqueue_closed(&mut self) {
        for x in self.exchange_buf.drain(..) {
            self.reorder.insert((x.first_ts, self.reorder_seq), x);
            self.reorder_seq += 1;
        }
    }

    /// Feeds one unified jframe (must arrive in emission order).
    fn push(&mut self, jf: &JFrame) {
        self.obs.on_jframe(jf);
        self.attempts.push(jf, &mut self.attempt_buf);
        for a in self.attempt_buf.drain(..) {
            self.obs.on_attempt(&a);
            self.exchanges.push(a, &mut self.exchange_buf);
        }
        self.enqueue_closed();
        let watermark = jf.ts.saturating_sub(REORDER_HORIZON_US);
        while let Some(oldest) = self.reorder.first_entry() {
            if oldest.key().0 >= watermark {
                break;
            }
            let x = oldest.remove();
            self.transport.push(&x);
            self.obs.on_exchange(&x);
        }
    }

    /// Flushes every assembler, delivers the flow records, and hands the
    /// observer back beside `(attempts, link, flows, transport)` — the
    /// aggregates [`PipelineReport`] carries.
    #[allow(clippy::type_complexity)]
    fn close(
        mut self,
    ) -> (
        O,
        (AttemptStats, LinkStats, Vec<FlowRecord>, TransportStats),
    ) {
        self.attempts.finish(&mut self.attempt_buf);
        for a in self.attempt_buf.drain(..) {
            self.obs.on_attempt(&a);
            self.exchanges.push(a, &mut self.exchange_buf);
        }
        self.exchanges.finish(&mut self.exchange_buf);
        self.enqueue_closed();
        while let Some((_, x)) = self.reorder.pop_first() {
            self.transport.push(&x);
            self.obs.on_exchange(&x);
        }
        let (flows, transport_stats) = self.transport.finish();
        self.obs.on_flows(&flows);
        let aggregates = (
            self.attempts.stats.clone(),
            self.exchanges.stats.clone(),
            flows,
            transport_stats,
        );
        (self.obs, aggregates)
    }
}

/// One finished tile of a [`TileFanout`].
#[derive(Debug)]
pub struct Tile<R> {
    /// The tile's `[from, to)` in anchor time.
    pub window: TimeWindow,
    /// Jframes routed to it.
    pub jframes: u64,
    /// What the fan-out's `close` made of the tile's observer.
    pub output: R,
}

/// Fans one merged jframe stream out to disjoint time tiles, each with its
/// own reconstruction chain and observer — several clipped analyses for the
/// price of one merge.
///
/// Hand it to [`Pipeline::run`] beside (in a tuple with) any other
/// observer. Each jframe's [`AnchorKey`] is computed once and the jframe is
/// pushed into the reconstruction chain of the tile whose window contains the
/// key, so a tile's observer sees **exactly the callback stream a run of
/// the same sources with [`PipelineConfig::window`] set to that tile
/// delivers** — the reference side of the windowed ≡ clipped-full contract,
/// on this run's own clocks. Jframes keyed outside every tile are not
/// routed.
///
/// Tiles **close as the stream passes them**: once a jframe's merged `ts`
/// is a full exchange-reorder horizon (1 s) past a tile's end, the tile's
/// chain is flushed, its observer receives `on_flows`, and `close` reduces
/// it to the tile's output — so the pending attempts and exchanges of a
/// finished tile (and the decoded trace blocks their payload handles pin)
/// are released there and not at the end of the run. Anchor keys and merged
/// timestamps differ by the NTP anchor error — milliseconds — so on a sane
/// corpus nothing arrives for a closed tile; a jframe that does is
/// **counted, never delivered and never silently dropped**:
/// [`TileFanout::finish`] reports the count, and a caller that promises
/// tiles ≡ clipped-full must treat a non-zero count as a failed run.
pub struct TileFanout<O, R, F> {
    key: AnchorKey,
    windows: Vec<TimeWindow>,
    /// The chains of `windows[closed.len()..]` with their jframe counts.
    open: VecDeque<(Reconstruction<O>, u64)>,
    closed: Vec<Tile<R>>,
    close: F,
    late: u64,
}

impl<O: PipelineObserver, R, F: FnMut(O) -> R> TileFanout<O, R, F> {
    /// One chain per `(window, observer)` tile over the given radio set.
    ///
    /// # Panics
    ///
    /// When the windows are not sorted and disjoint — routing and the
    /// streaming close both rely on it.
    pub fn new(metas: &[RadioMeta], tiles: Vec<(TimeWindow, O)>, close: F) -> Self {
        let (windows, open): (Vec<_>, VecDeque<_>) = tiles
            .into_iter()
            .map(|(w, obs)| (w, (Reconstruction::new(obs), 0)))
            .unzip();
        assert!(
            windows.windows(2).all(|p| p[0].to <= p[1].from),
            "tiles must be sorted and disjoint: {windows:?}"
        );
        TileFanout {
            key: AnchorKey::new(metas),
            closed: Vec::with_capacity(windows.len()),
            windows,
            open,
            close,
            late: 0,
        }
    }

    /// Closes the earliest open tile.
    fn close_front(&mut self) {
        if let Some((chain, jframes)) = self.open.pop_front() {
            self.closed.push(Tile {
                window: self.windows[self.closed.len()],
                jframes,
                output: (self.close)(chain.close().0),
            });
        }
    }

    /// Closes the tiles still open and returns every tile in window order,
    /// plus the number of jframes that were keyed into a tile after it had
    /// closed.
    pub fn finish(mut self) -> (Vec<Tile<R>>, u64) {
        while !self.open.is_empty() {
            self.close_front();
        }
        (self.closed, self.late)
    }
}

impl<O: PipelineObserver, R, F: FnMut(O) -> R> PipelineObserver for TileFanout<O, R, F> {
    fn on_jframe(&mut self, jf: &JFrame) {
        let key = self.key.of(jf);
        let tile = self.windows.partition_point(|w| w.to <= key);
        if self.windows.get(tile).is_some_and(|w| w.from <= key) {
            match tile.checked_sub(self.closed.len()) {
                Some(k) => {
                    let (chain, jframes) = &mut self.open[k];
                    chain.push(jf);
                    *jframes += 1;
                }
                None => self.late += 1,
            }
        }
        while self
            .windows
            .get(self.closed.len())
            .is_some_and(|w| jf.ts >= w.to.saturating_add(REORDER_HORIZON_US))
        {
            self.close_front();
        }
    }
}

/// Where each merged jframe goes: the replay window clips it, then the
/// reconstruction chain (if the run has one) and the caller's sink take it.
struct Outlet<O> {
    clip: Option<WindowClipper>,
    rec: Option<Reconstruction<O>>,
    lag: LagStats,
}

impl<O: PipelineObserver> Outlet<O> {
    /// A merged jframe, with the horizon as it left a serial merger.
    fn take(&mut self, jf: JFrame, horizon: Option<Micros>, out: &mut impl FnMut(JFrame)) {
        if let Some(horizon) = horizon {
            self.lag.push(horizon.saturating_sub(jf.ts));
        }
        if self.clip.as_ref().is_none_or(|c| c.admits(&jf)) {
            if let Some(rec) = &mut self.rec {
                rec.push(&jf);
            }
            out(jf);
        }
    }
}

/// One run of the pipeline, [`Pipeline::start`]'s: stepped
/// ([`PipelineRun::step`]) while its sources pend, then finished. Until the
/// clocks are bootstrapped a step resumes every bootstrap split
/// ([`OpenedRadio::pull`]); once all are complete it bootstraps and builds
/// the serial [`Merger`] from the [`SourceSet`] — the one place that
/// happens — and from then on pulls again every stream that pended and
/// merges what has arrived ([`Merger::repoll`], [`Merger::advance`]). Each
/// jframe the replay window admits goes through the reconstruction chain
/// into the observer, then by value to the step's `out`: exactly what the
/// same sources finished in one go emit. A live service's wall-clock rules
/// are the caller's, applied between steps through [`PipelineRun::lag`].
pub struct PipelineRun<S, O> {
    cfg: PipelineConfig,
    metas: Vec<RadioMeta>,
    /// The bootstrap splits, until the merge (and its bootstrap) begins.
    splits: SourceSet<S>,
    merge: Option<(Merger<S>, BootstrapReport)>,
    /// Radios ever declared lagging.
    lagged: Vec<bool>,
    sharded: bool,
    outlet: Outlet<O>,
}

impl<S: EventStream + Send + 'static, O: PipelineObserver> PipelineRun<S, O> {
    /// Opens every source, splitting off its bootstrap window. With
    /// `Some(obs)` the run reconstructs into `obs` ([`Pipeline::run`]'s
    /// observer contract); with `None` it merges only.
    pub fn open<I: EventSource<Stream = S>>(
        sources: Vec<I>,
        cfg: &PipelineConfig,
        obs: Option<O>,
    ) -> Result<Self, PipelineError> {
        let splits = SourceSet::open(sources, &cfg.bootstrap)?;
        let metas: Vec<RadioMeta> = splits.radios.iter().map(|r| r.meta).collect();
        Ok(PipelineRun {
            sharded: cfg.shard.shards_for(distinct_channels(&metas).len()) > 1,
            outlet: Outlet {
                clip: cfg.window.map(|w| WindowClipper::new(&metas, w)),
                rec: obs.map(Reconstruction::new),
                lag: LagStats::new(),
            },
            lagged: vec![false; metas.len()],
            cfg: cfg.clone(),
            metas,
            splits,
            merge: None,
        })
    }

    /// One step (type docs); whether any radio is still open — live,
    /// lagging, or in its bootstrap window. A sharded run cannot step.
    pub fn step(&mut self, out: &mut impl FnMut(JFrame)) -> Result<bool, PipelineError> {
        if self.sharded {
            return Err(PipelineError::ShardedPend);
        }
        if self.merge.is_none() && !self.pull_splits()? {
            return Ok(true);
        }
        self.begin()?;
        let (merger, _) = self.merge.as_mut().expect("the merge began");
        let outlet = &mut self.outlet;
        merger.repoll()?;
        merger.advance(|jf, horizon| outlet.take(jf, Some(horizon), out))?;
        Ok((0..merger.radios()).any(|r| merger.status(r) != StreamStatus::Ended))
    }

    /// Ends the run — each stream ends at its next pend, a split still open
    /// bootstraps from what it holds — drains it into `out`, and reports.
    pub fn finish(mut self, mut out: impl FnMut(JFrame)) -> Result<PipelineReport, PipelineError> {
        let complete = self.merge.is_some() || self.pull_splits()?;
        let (bootstrap, merge, radios) = if self.sharded {
            if !complete {
                return Err(PipelineError::ShardedPend);
            }
            let (bootstrap, (streams, seeds, refs)) = self.merge_input()?;
            let (offsets, outlet, cfg) = (&bootstrap.offsets, &mut self.outlet, &self.cfg);
            let merge = crate::shard::run_sharded(
                streams,
                offsets,
                seeds,
                &refs,
                &cfg.merge,
                &cfg.shard,
                |jf| outlet.take(jf, None, &mut out),
            )?;
            (bootstrap, merge, Vec::new())
        } else {
            self.begin()?;
            let (mut merger, bootstrap) = self.merge.take().expect("the merge began");
            let outlet = &mut self.outlet;
            let merge = merger.finish(|jf, horizon| outlet.take(jf, Some(horizon), &mut out))?;
            let radios = self.metas.iter().enumerate().map(|(r, m)| RadioReport {
                radio: m.radio,
                events: merger.delivered(r),
                late_dropped: merger.late_dropped(r),
                lagged: self.lagged[r],
            });
            (bootstrap, merge, radios.collect())
        };
        let rec = self.outlet.rec.map(|rec| rec.close().1);
        let (attempts, link, flows, transport) = rec.unwrap_or_default();
        Ok(PipelineReport {
            bootstrap,
            merge,
            radios,
            lag: self.outlet.lag,
            attempts,
            link,
            flows,
            transport,
        })
    }

    /// Resumes every split whose radio is not lagging; returns whether all
    /// are complete.
    fn pull_splits(&mut self) -> Result<bool, FormatError> {
        let mut complete = true;
        for (radio, &lagged) in self.splits.radios.iter_mut().zip(&self.lagged) {
            complete &= lagged || radio.pull()?;
        }
        Ok(complete)
    }

    /// Bootstraps the clocks over the splits and takes their merge input.
    #[allow(clippy::type_complexity)]
    fn merge_input(
        &mut self,
    ) -> Result<(BootstrapReport, (Vec<S>, Vec<Vec<PhyEvent>>, Vec<Micros>)), BootstrapError> {
        let set = std::mem::replace(&mut self.splits, SourceSet { radios: Vec::new() });
        Ok((set.bootstrap(&self.cfg.bootstrap)?, set.into_merge_input()))
    }

    /// Bootstraps and builds the serial merger, once, lagging the radios
    /// lagged during bootstrap.
    fn begin(&mut self) -> Result<(), PipelineError> {
        if self.merge.is_none() {
            let (bootstrap, (streams, mut seeds, refs)) = self.merge_input()?;
            let radios = streams.into_iter().enumerate().collect();
            let cfg = &self.cfg.merge;
            let mut merger = seeded_merger(radios, &bootstrap.offsets, &mut seeds, &refs, cfg);
            for r in (0..self.lagged.len()).filter(|&r| self.lagged[r]) {
                merger.lag(r);
            }
            self.merge = Some((merger, bootstrap));
        }
        Ok(())
    }

    /// True once the clocks are bootstrapped and the merge has begun.
    pub fn is_streaming(&self) -> bool {
        self.merge.is_some()
    }

    /// The merge's emitted horizon ([`Merger::horizon`]); 0 before it began.
    pub fn horizon(&self) -> Micros {
        self.merge.as_ref().map_or(0, |(m, _)| m.horizon())
    }

    /// Where radio `r`'s stream stands; before the merge began, a split
    /// is live unless lagged.
    pub fn status(&self, r: usize) -> StreamStatus {
        match &self.merge {
            Some((m, _)) => m.status(r),
            None if self.lagged[r] => StreamStatus::Lagging,
            None => StreamStatus::Live,
        }
    }

    /// True while radio `r` waits on its producer: its split, or its last
    /// pull, pended. A stream whose head waits in the merge is not pulled.
    pub fn is_pending(&self, r: usize) -> bool {
        match &self.merge {
            Some((m, _)) => m.is_pending(r),
            None => !self.lagged[r] && !self.splits.radios[r].complete,
        }
    }

    /// Events radio `r` delivered so far ([`RadioReport::events`]).
    pub fn delivered(&self, r: usize) -> u64 {
        match &self.merge {
            Some((m, _)) => m.delivered(r),
            None => {
                let split = &self.splits.radios[r];
                split.window.len() as u64 + u64::from(split.carry.is_some())
            }
        }
    }

    /// Declares a live radio silent: its split stops being waited for (it
    /// bootstraps from what it delivered), and in the merge it holds nothing
    /// back until it catches up ([`StreamStatus::Lagging`]).
    pub fn lag(&mut self, r: usize) {
        if self.status(r) == StreamStatus::Live {
            self.lagged[r] = true;
            if let Some((m, _)) = &mut self.merge {
                m.lag(r);
            }
        }
    }
}

/// The pipeline driver.
pub struct Pipeline;

impl Pipeline {
    /// Starts a run delivering every output stream to `obs`
    /// ([`Pipeline::run`]): step it while its sources pend, then finish it.
    pub fn start<I, O>(
        sources: Vec<I>,
        cfg: &PipelineConfig,
        obs: O,
    ) -> Result<PipelineRun<I::Stream, O>, PipelineError>
    where
        I: EventSource,
        I::Stream: Send + 'static,
        O: PipelineObserver,
    {
        PipelineRun::open(sources, cfg, Some(obs))
    }

    /// Runs the full pipeline over per-radio sources (streams or disk
    /// corpus radios), delivering every output stream to `obs`: a run
    /// started, then finished.
    ///
    /// The observer receives every unified jframe, every transmission
    /// attempt (the paper's §7.2 interference analysis operates on
    /// attempts, which are distinct from frame exchanges), every closed
    /// exchange, and — once, at the end — the reconstructed flow records.
    /// Pass `()` for no observation, a closure adapter such as
    /// [`OnJFrame`](crate::observer::OnJFrame) for one stream, a tuple to
    /// fan out to several analyses, or `&mut analysis` to keep the
    /// analysis afterwards.
    ///
    /// The merge runs at the layout [`PipelineConfig::shard`] plans
    /// (bootstrap is global either way — monitor clocks bridge channels);
    /// reconstruction always consumes the merged stream here on the
    /// calling thread, so the observer needs no `Send` bound and sees the
    /// same callbacks at every layout. The streams do need `Send`: a shard
    /// thread may own them.
    pub fn run<I>(
        sources: Vec<I>,
        cfg: &PipelineConfig,
        obs: impl PipelineObserver,
    ) -> Result<PipelineReport, PipelineError>
    where
        I: EventSource,
        I::Stream: Send + 'static,
    {
        Self::start(sources, cfg, obs)?.finish(drop)
    }

    /// Bootstrap + merge only — no link/transport reconstruction, so only
    /// [`PipelineObserver::on_jframe`] fires. Benchmarks isolate the merge
    /// stage with this; `repro merge --corpus` streams jframes off disk
    /// through it.
    pub fn merge_only<I>(
        sources: Vec<I>,
        cfg: &PipelineConfig,
        mut obs: impl PipelineObserver,
    ) -> Result<(BootstrapReport, MergeStats), PipelineError>
    where
        I: EventSource,
        I::Stream: Send + 'static,
    {
        let run = PipelineRun::<_, ()>::open(sources, cfg, None)?;
        let report = run.finish(|jf| obs.on_jframe(&jf))?;
        Ok((report.bootstrap, report.merge))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{Collect, OnExchange, OnJFrame};
    use jigsaw_ieee80211::fc::FcFlags;
    use jigsaw_ieee80211::frame::{DataFrame, Frame};
    use jigsaw_ieee80211::wire::serialize_frame;
    use jigsaw_ieee80211::{Channel, MacAddr, PhyRate, SeqNum};
    use jigsaw_trace::stream::MemoryStream;
    use jigsaw_trace::{MonitorId, PhyStatus, RadioId};

    fn meta(radio: u16, anchor_local: u64) -> RadioMeta {
        RadioMeta {
            radio: RadioId(radio),
            monitor: MonitorId(radio),
            channel: Channel::of(1),
            anchor_wall_us: 0,
            anchor_local_us: anchor_local,
        }
    }

    fn frame_bytes(seq: u16) -> Vec<u8> {
        serialize_frame(&Frame::Data(DataFrame {
            duration: 44,
            addr1: MacAddr::local(1, 1),
            addr2: MacAddr::local(2, 2),
            addr3: MacAddr::local(3, 3),
            seq: SeqNum::new(seq),
            frag: 0,
            flags: FcFlags {
                to_ds: true,
                ..Default::default()
            },
            null: false,
            body: vec![seq as u8; 40],
        }))
    }

    fn ev(radio: u16, ts: u64, bytes: Vec<u8>) -> PhyEvent {
        let wire_len = bytes.len() as u32;
        PhyEvent {
            radio: RadioId(radio),
            ts_local: ts,
            channel: Channel::of(1),
            rate: PhyRate::R11,
            rssi_dbm: -50,
            status: PhyStatus::Ok,
            wire_len,
            bytes: bytes.into(),
        }
    }

    /// A live producer that pends before every event.
    struct Stutter(MemoryStream, bool);

    impl EventStream for Stutter {
        fn meta(&self) -> RadioMeta {
            self.0.meta()
        }

        fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError> {
            self.0.next_event()
        }

        fn poll_event(&mut self) -> Result<SourcePoll, FormatError> {
            self.1 = !self.1;
            if self.1 {
                return Ok(SourcePoll::Pending);
            }
            self.0.poll_event()
        }
    }

    /// The bootstrap window boundary: an event at exactly `anchor + window`
    /// is bootstrap input; the first event past it is kept for merging but
    /// excluded from bootstrap. A split resumed across pending pulls comes
    /// out identical.
    #[test]
    fn bootstrap_window_splits_at_boundary() {
        let cfg = BootstrapConfig::default();
        let window = cfg.window_us; // 1 s
        let streams = || {
            vec![
                MemoryStream::new(
                    meta(0, 0),
                    vec![
                        ev(0, 100, frame_bytes(1)),
                        ev(0, window, frame_bytes(2)), // exactly at the edge: in
                        ev(0, window + 1, frame_bytes(3)), // first past the edge: out
                        ev(0, window + 50, frame_bytes(4)), // never read as prefix
                    ],
                ),
                MemoryStream::new(meta(1, 0), vec![ev(1, 150, frame_bytes(1))]),
            ]
        };
        let set = SourceSet::open(streams(), &cfg).unwrap();
        // Radio 0: three events consumed (the split stops after the first
        // out-of-window event), only two of them bootstrap input.
        assert_eq!(set.radios[0].window.len(), 2);
        assert!(set.radios[0].carry.is_some());
        assert_eq!(set.radios[1].window.len(), 1);
        assert!(set.radios[1].carry.is_none());
        // The stream still holds the unread tail.
        assert_eq!(set.radios[0].stream.len(), 1);

        // The out-of-window event is NOT a synchronization candidate...
        let boot = set.bootstrap(&cfg).unwrap();
        assert_eq!(boot.candidates, 3); // r0: seq 1 + seq 2; r1: seq 1
        assert_eq!(boot.components, 1);

        // The same split, one event per pull.
        let stutters = streams().into_iter().map(|s| Stutter(s, false)).collect();
        let mut resumed = SourceSet::open(stutters, &cfg).unwrap();
        let mut pending_pulls = 0;
        for radio in &mut resumed.radios {
            while !radio.pull().unwrap() {
                pending_pulls += 1;
            }
        }
        assert_eq!(pending_pulls, 3, "a pull pends after every window event");
        for (radio, one_shot) in resumed.radios.iter().zip(&set.radios) {
            assert_eq!(radio.window, one_shot.window);
            assert_eq!(radio.carry, one_shot.carry);
            assert_eq!(radio.stream.0.len(), one_shot.stream.len());
        }

        // ...but it IS merge input, seeded ahead of the stream.
        let (streams, seeds, refs) = set.into_merge_input();
        assert_eq!(seeds[0].len(), 3);
        assert_eq!(seeds[0][2].ts_local, window + 1);
        assert_eq!(seeds[1].len(), 1);
        assert_eq!(streams[0].len(), 1);
        // Stream sources reference their clocks at the NTP anchor.
        assert_eq!(refs, vec![0, 0]);
        let (_, resumed_seeds, resumed_refs) = resumed.into_merge_input();
        assert_eq!((resumed_seeds, resumed_refs), (seeds, refs));
    }

    /// End-to-end: the consumed out-of-window event still reaches the
    /// merger (no event is dropped on the floor).
    #[test]
    fn out_of_window_prefix_event_still_merged() {
        let window = BootstrapConfig::default().window_us;
        let streams = vec![
            MemoryStream::new(
                meta(0, 0),
                vec![
                    ev(0, 100, frame_bytes(1)),
                    ev(0, window + 1, frame_bytes(3)),
                ],
            ),
            MemoryStream::new(meta(1, 0), vec![ev(1, 102, frame_bytes(1))]),
        ];
        let mut collect = Collect::default();
        let report = Pipeline::run(streams, &PipelineConfig::default(), &mut collect).unwrap();
        assert_eq!(report.merge.events_in, 3);
        assert_eq!(collect.jframes.len(), 2);
        assert!(collect.jframes.iter().any(|j| j.ts == window + 1));
    }

    /// One observer sees every stream the pipeline emits, with `on_flows`
    /// firing exactly once at the end — the contract every analysis (and
    /// the analysis `Suite`) builds on.
    #[test]
    fn observer_sees_every_stream_once() {
        #[derive(Default)]
        struct Probe {
            jframes: u64,
            attempts: u64,
            exchanges: u64,
            flows_calls: u64,
            flows_after_streams: bool,
        }
        impl crate::observer::PipelineObserver for Probe {
            fn on_jframe(&mut self, _jf: &JFrame) {
                self.jframes += 1;
            }
            fn on_attempt(&mut self, _a: &Attempt) {
                self.attempts += 1;
            }
            fn on_exchange(&mut self, _x: &Exchange) {
                self.exchanges += 1;
            }
            fn on_flows(&mut self, _flows: &[crate::transport::flow::FlowRecord]) {
                self.flows_calls += 1;
                self.flows_after_streams = self.jframes > 0;
            }
        }

        let streams = vec![
            MemoryStream::new(
                meta(0, 0),
                (0..40u64)
                    .map(|k| ev(0, 1_000 + k * 2_000, frame_bytes(k as u16)))
                    .collect(),
            ),
            MemoryStream::new(meta(1, 0), vec![ev(1, 1_002, frame_bytes(0))]),
        ];
        let mut probe = Probe::default();
        let report = Pipeline::run(streams, &PipelineConfig::default(), &mut probe).unwrap();
        assert_eq!(probe.jframes, report.merge.jframes_out);
        assert_eq!(probe.attempts, report.link.attempts);
        assert_eq!(probe.exchanges, report.link.exchanges);
        assert_eq!(probe.flows_calls, 1, "on_flows must fire exactly once");
        assert!(
            probe.flows_after_streams,
            "on_flows fires after the streams"
        );
        assert!(probe.jframes > 0 && probe.attempts > 0 && probe.exchanges > 0);
    }

    /// A hand-built jframe seen by `radios` at the given local times.
    fn jframe(ts: u64, seq: u16, receptions: &[(u16, u64)]) -> JFrame {
        let bytes = frame_bytes(seq);
        let mut instances = crate::Instances::new();
        for &(radio, ts_local) in receptions {
            instances.push(crate::jframe::Instance {
                radio: RadioId(radio),
                ts_local,
                ts_universal: ts,
                rssi_dbm: -50,
                status: PhyStatus::Ok,
            });
        }
        JFrame {
            ts,
            wire_len: bytes.len() as u32,
            bytes: bytes.into(),
            rate: PhyRate::R11,
            channel: Channel::of(1),
            instances,
            dispersion: 0,
            valid: true,
            unique: true,
        }
    }

    /// Counts what a tile's chain delivers.
    #[derive(Default, Debug, PartialEq)]
    struct TileProbe {
        seqs: Vec<u16>,
        flows_calls: u32,
    }

    impl PipelineObserver for TileProbe {
        fn on_jframe(&mut self, jf: &JFrame) {
            let Some(Frame::Data(d)) = jf.parse() else {
                panic!("test jframes are data frames");
            };
            self.seqs.push(d.seq.value());
        }
        fn on_flows(&mut self, _flows: &[FlowRecord]) {
            self.flows_calls += 1;
        }
    }

    fn window(from: u64, to: u64) -> TimeWindow {
        TimeWindow::new(from, to).unwrap()
    }

    /// The fan-out partitions the stream: every jframe reaches exactly the
    /// tile whose window holds its anchor key — the tile a clipped run
    /// would admit it to — edges included (`from` is in, `to` belongs to
    /// the next tile), and keys in no tile reach none.
    #[test]
    fn tile_fanout_partitions_the_stream_by_anchor_key() {
        // Radio 1's clock reads 1000 µs ahead of anchor time; radio 0's 0.
        let metas = [
            meta(0, 0),
            RadioMeta {
                anchor_wall_us: 0,
                ..meta(1, 1_000)
            },
        ];
        let windows = [window(100, 200), window(200, 300), window(400, 500)];
        let tiles = windows.iter().map(|&w| (w, TileProbe::default())).collect();
        let mut fanout = TileFanout::new(&metas, tiles, |probe| probe);
        // (anchor key, receptions): the key is the earliest reception in
        // anchor time, whichever radio holds it.
        let stream: Vec<(u64, Vec<(u16, u64)>)> = vec![
            (99, vec![(0, 99)]),               // before every tile
            (100, vec![(0, 100)]),             // exactly tile 0's `from`
            (199, vec![(0, 210), (1, 1_199)]), // radio 1 holds the key
            (200, vec![(1, 1_200)]),           // exactly the shared edge
            (299, vec![(0, 299)]),             //
            (300, vec![(0, 300)]),             // tile 1's `to`, in the gap
            (400, vec![(1, 1_400), (0, 401)]), //
            (499, vec![(0, 499)]),             //
            (500, vec![(0, 500), (1, 1_777)]), // past every tile
        ];
        let mut expected = vec![Vec::new(); windows.len()];
        for (seq, (key, receptions)) in stream.iter().enumerate() {
            let jf = jframe(*key, seq as u16, receptions);
            for (w, admitted) in windows.iter().zip(&mut expected) {
                let clip = WindowClipper::new(&metas, *w);
                assert_eq!(clip.anchor_ts(&jf), *key);
                if clip.admits(&jf) {
                    admitted.push(seq as u16);
                }
            }
            fanout.on_jframe(&jf);
        }
        assert_eq!(expected, [vec![1, 2], vec![3, 4], vec![6, 7]]);
        let (tiles, late) = fanout.finish();
        assert_eq!(late, 0);
        for ((tile, w), admitted) in tiles.iter().zip(windows).zip(expected) {
            assert_eq!(tile.window, w);
            assert_eq!(tile.jframes, admitted.len() as u64);
            assert_eq!(tile.output.seqs, admitted, "tile {w}");
            assert_eq!(
                tile.output.flows_calls, 1,
                "each tile's chain finishes once"
            );
        }
    }

    /// Tiles close as the stream passes them, and a jframe keyed into a
    /// closed tile is counted — not delivered to any tile, not lost
    /// without trace.
    #[test]
    fn tile_fanout_closes_passed_tiles_and_counts_late_arrivals() {
        let metas = [meta(0, 0)];
        let windows = [window(0, 1_000), window(1_000, 2_000)];
        let tiles = windows.iter().map(|&w| (w, TileProbe::default())).collect();
        let mut fanout = TileFanout::new(&metas, tiles, |probe| probe);
        fanout.on_jframe(&jframe(500, 0, &[(0, 500)]));
        // One µs short of the horizon past tile 0's end: still open.
        fanout.on_jframe(&jframe(1_000 + REORDER_HORIZON_US - 1, 1, &[(0, 1_500)]));
        assert!(fanout.closed.is_empty());
        fanout.on_jframe(&jframe(1_000 + REORDER_HORIZON_US, 2, &[(0, 1_600)]));
        assert_eq!(fanout.closed.len(), 1, "the stream is past tile 0");
        assert_eq!(
            fanout.closed[0].output.flows_calls, 1,
            "closed means flushed"
        );
        // Merged time says "long past", the capture timestamp says tile 0.
        fanout.on_jframe(&jframe(1_000 + REORDER_HORIZON_US + 1, 3, &[(0, 700)]));
        let (tiles, late) = fanout.finish();
        assert_eq!(late, 1, "the late arrival is counted");
        assert_eq!(
            tiles[0].output.seqs,
            [0],
            "and not delivered to the closed tile"
        );
        assert_eq!(tiles[1].output.seqs, [1, 2], "nor to another");
        assert_eq!((tiles[0].jframes, tiles[1].jframes), (1, 2));
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn tile_fanout_rejects_overlapping_tiles() {
        let tiles = vec![(window(0, 10), ()), (window(9, 20), ())];
        TileFanout::new(&[meta(0, 0)], tiles, |()| ());
    }

    /// Four radios on three channels, 400 events each over 1.6 s: the
    /// first second is bootstrap window, the rest arrives through the merge
    /// stream.
    fn four_radio_streams() -> Vec<MemoryStream> {
        let chans = [1u8, 6, 11, 1];
        (0..chans.len())
            .map(|r| {
                let events = (0..400u64)
                    .map(|k| {
                        let mut e = ev(
                            r as u16,
                            1_000 + k * 4_000 + r as u64,
                            frame_bytes(k as u16),
                        );
                        e.channel = Channel::of(chans[r]);
                        e
                    })
                    .collect();
                let meta = RadioMeta {
                    channel: Channel::of(chans[r]),
                    ..meta(r as u16, 0)
                };
                MemoryStream::new(meta, events)
            })
            .collect()
    }

    /// Live ≡ batch inside the one driver: a run stepped over streams that
    /// pend before every event — bootstrap splits resumed a pull at a time,
    /// then the merge held at every watermark — delivers the jframes,
    /// exchanges and report counters of `Pipeline::run` over the same
    /// streams finished in one go. A sharded layout refuses to step.
    #[test]
    fn stepped_run_matches_run() {
        let mut collect = Collect::default();
        let want = Pipeline::run(
            four_radio_streams(),
            &PipelineConfig::default(),
            &mut collect,
        )
        .unwrap();
        let (want_jframes, want_xs) = (collect.jframes, collect.exchanges);
        assert!(!want_xs.is_empty(), "the comparison needs exchanges");

        let (mut jframes, mut xs) = (Vec::new(), Vec::new());
        let stutters: Vec<Stutter> = four_radio_streams()
            .into_iter()
            .map(|s| Stutter(s, false))
            .collect();
        let obs = (
            OnJFrame(|jf: &JFrame| jframes.push(jf.clone())),
            OnExchange(|x: &Exchange| xs.push(x.clone())),
        );
        let mut run = Pipeline::start(stutters, &PipelineConfig::default(), obs).unwrap();
        let (mut steps, mut out) = (0, 0u64);
        while run.step(&mut |_| out += 1).unwrap() {
            steps += 1;
        }
        assert!(steps >= 400, "every event pends first: {steps} steps");
        let got = run.finish(|_| out += 1).unwrap();
        assert_eq!(format!("{jframes:?}"), format!("{want_jframes:?}"));
        assert_eq!(format!("{xs:?}"), format!("{want_xs:?}"));
        assert_eq!(out, got.merge.jframes_out, "`out` takes every jframe");
        let counters = |r: &PipelineReport| {
            let (b, m, a, l, t) = (&r.bootstrap, &r.merge, &r.attempts, &r.link, &r.transport);
            format!("{b:?}\n{m:?}\n{:?}\n{a:?}\n{l:?}\n{t:?}", r.radios)
        };
        assert_eq!(counters(&got), counters(&want));
        assert_eq!(got.radios.iter().map(|r| r.events).sum::<u64>(), 1_600);

        let mut cfg = PipelineConfig::default();
        cfg.shard.max_threads = 2;
        let mut sharded = Pipeline::start(four_radio_streams(), &cfg, ()).unwrap();
        assert!(matches!(
            sharded.step(&mut drop),
            Err(PipelineError::ShardedPend)
        ));
    }

    #[test]
    fn lag_stats_bounded_and_exact_below_reservoir() {
        let mut st = LagStats::new();
        for lag in 0..100u64 {
            st.push(lag);
        }
        assert_eq!(st.count(), 100);
        assert_eq!(st.max(), 99);
        // Exact while below the reservoir bound; one sort serves them all.
        assert_eq!(st.quantiles(&[0.0, 0.5, 1.0]), vec![0, 50, 99]);
        // Past the bound: memory stays constant, count/max stay exact, and
        // quantiles stay in-range estimates.
        for lag in 100..3 * LAG_RESERVOIR as u64 {
            st.push(lag);
        }
        assert_eq!(st.count(), 3 * LAG_RESERVOIR as u64);
        assert_eq!(st.max(), 3 * LAG_RESERVOIR as u64 - 1);
        assert_eq!(st.samples.len(), LAG_RESERVOIR);
        let p50 = st.quantiles(&[0.5])[0];
        assert!(p50 > 0 && p50 < st.max());
    }

    /// The one driver is layout-invariant end to end: at every shard
    /// layout (serial, channels sharing a shard, one shard per channel,
    /// auto), with the bootstrap prefix seeded back into the merger, it
    /// delivers identical jframes, exchanges and merge counters.
    #[test]
    fn parallel_pipeline_matches_serial() {
        // Everything a run delivers, in comparable form.
        let run = |threads: usize| {
            let mut cfg = PipelineConfig::default();
            cfg.shard.max_threads = threads;
            let mut collect = Collect::default();
            let mut report = Pipeline::run(four_radio_streams(), &cfg, &mut collect).unwrap();
            let (jframes, xs) = (collect.jframes, collect.exchanges);
            assert_eq!(report.merge.events_in, 1_600, "every event merged");
            assert!(!xs.is_empty(), "the comparison needs exchanges");
            // The one layout-dependent counter: shard peaks sum.
            report.merge.peak_buffered = 0;
            let (merge, link) = (report.merge, report.link);
            format!("{jframes:?}\n{xs:?}\n{merge:?}\n{link:?}")
        };
        let reference = run(1);
        let channels = 3; // 1, 6, 11
        for threads in [2, channels, 0] {
            assert!(
                run(threads) == reference,
                "max_threads={threads} diverged from the serial run"
            );
        }
    }
}
