//! The always-on unification driver: bootstrap, stream, lag, re-anchor.
//!
//! [`LiveMerger`] turns a set of [`LiveSource`]s into a continuous jframe
//! stream with **bounded lag**. See the crate docs for the watermark/lag
//! contract; the short version:
//!
//! * every source fills the batch pipeline's bootstrap split
//!   ([`OpenedRadio`]) as its events arrive, then — once offsets are
//!   bootstrapped — is one of a [`Merger`]'s streams, pulled as a batch run
//!   pulls: a radio is read only when its last event has been consumed;
//! * a pull may pend. A pending radio's *watermark* — the universal time
//!   of its last delivered event — holds the merge back, and every jframe
//!   older than `horizon − 2×search_window` is emitted, where the *safe
//!   horizon* is the earliest point anything new can still arrive at;
//! * a radio that stays pending for [`LiveConfig::max_lag_us`] of
//!   *wall-clock* time (the one decision real time is consulted for — via
//!   [`LiveClock`]) is declared **lagging**: it stops holding the merge
//!   back, but its channel stays open so it can catch up. While it lags,
//!   every event it delivers below the emitted horizon (less one search
//!   window) is counted as `late_dropped` and discarded; the first event at
//!   or above the horizon makes it live again. A deep backlog therefore
//!   drains under the filter, and a permanently-behind radio stays lagging
//!   instead of freezing the horizon — emission order is never violated.
//!
//! Periodic re-anchoring (every [`LiveConfig::reanchor_interval_us`] of
//! trace time past the bootstrap anchor) touches only radios whose clock
//! took no resync correction for a whole interval; on a healthy mesh it
//! checks and applies nothing.
//!
//! When nothing lags and no re-anchor fires, the emitted jframe sequence is
//! **byte-identical** (count, order, [`JFrame::stable_digest`]) to a batch
//! [`jigsaw_core::Pipeline`] run over the same events, for *every* chunking
//! of the input bytes — the contract `repro tail --verify` and the
//! chunk-invariance proptests pin.

use crate::clock::LiveClock;
use crate::source::LiveSource;
use jigsaw_core::pipeline::{EventSource, OpenedRadio, PipelineError, SourceSet};
use jigsaw_core::sync::bootstrap::{bootstrap_at, BootstrapConfig};
use jigsaw_core::unify::{MergeConfig, MergeStats, Merger, StreamStatus};
use jigsaw_core::JFrame;
use jigsaw_ieee80211::Micros;
use jigsaw_trace::format::FormatError;
use jigsaw_trace::stream::{EventStream, SourcePoll};
use jigsaw_trace::{PhyEvent, RadioId, RadioMeta};
use std::collections::VecDeque;

/// Recent events retained per radio for re-anchor bootstraps.
const REANCHOR_RING: usize = 512;

/// Lag samples retained for quantile estimation. Exact below this; past it,
/// reservoir sampling keeps a uniform subset at constant memory.
const LAG_RESERVOIR: usize = 4096;

/// Live-merge configuration.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Offset bootstrap parameters (shared with the batch pipeline).
    pub bootstrap: BootstrapConfig,
    /// Unification parameters (shared with the batch pipeline).
    pub merge: MergeConfig,
    /// Wall-clock silence after which a radio is declared lagging (µs).
    pub max_lag_us: u64,
    /// Spacing of re-anchor checks (µs of trace time): a check fires each
    /// time the safe horizon crosses a multiple of this past the bootstrap
    /// anchor, and considers only radios whose clock took no resync
    /// correction since the previous check.
    pub reanchor_interval_us: Micros,
    /// Minimum offset disagreement before a re-anchor is applied (µs).
    pub reanchor_drift_us: Micros,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            bootstrap: BootstrapConfig::default(),
            merge: MergeConfig::default(),
            max_lag_us: 2_000_000,
            reanchor_interval_us: 60_000_000,
            reanchor_drift_us: 5_000,
        }
    }
}

/// Where a source stands in the liveness state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// Delivering events; holds the safe horizon back.
    Live,
    /// Silent past `max_lag_us`; excluded from the safe horizon but its
    /// channel stays open — it re-admits on catch-up.
    Lagging,
    /// Producer finished cleanly; its channel may close.
    Ended,
    /// Never produced a decodable header; excluded from the merge.
    Dead,
}

/// Per-source outcome in the final report.
#[derive(Debug, Clone)]
pub struct SourceReport {
    /// The radio, once its header decoded ([`SourceStatus::Dead`] sources
    /// have none).
    pub radio: Option<RadioId>,
    /// Events delivered (including any later dropped as late).
    pub events: u64,
    /// Catch-up events discarded because they fell below the
    /// already-emitted horizon.
    pub late_dropped: u64,
    /// Whether the radio was ever declared lagging.
    pub lagged: bool,
    /// Final status.
    pub status: SourceStatus,
}

/// Everything a completed live merge reports.
#[derive(Debug)]
pub struct LiveReport {
    /// Unification statistics (identical semantics to the batch merger's).
    pub merge: MergeStats,
    /// Per-source liveness outcomes, in `add_source` order.
    pub sources: Vec<SourceReport>,
    /// Re-anchors applied (drift above threshold, shift within clamp).
    pub reanchors: u64,
    /// Re-anchors rejected by the `2×search_window` shift clamp.
    pub reanchors_skipped: u64,
    /// Emission-lag statistics: safe horizon minus jframe timestamp at the
    /// moment each jframe left the merger (µs).
    pub lag: LagStats,
}

/// Bounded emission-lag accumulator for the always-on service.
///
/// Holds at most `LAG_RESERVOIR` (4096) samples: quantiles are exact until
/// the reservoir fills, then classic Algorithm-R reservoir sampling (driven by a
/// fixed-seed SplitMix64 step — no wall-clock entropy, so the statistics
/// stay a pure function of the emitted stream) keeps a uniform subset at
/// constant memory. Count and max are always exact.
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

    /// One quantile; see [`LagStats::quantiles`].
    pub fn quantile(&self, q: f64) -> Micros {
        self.quantiles(&[q])[0]
    }
}

impl Default for LagStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A source with a known header, as its bootstrap split and then the merger
/// pull it — with what it delivered and the events re-anchoring reads.
struct Joined<S> {
    src: S,
    meta: RadioMeta,
    /// The event the source delivered in the poll that revealed its
    /// header: the first pull returns it.
    first: Option<PhyEvent>,
    /// Events delivered, bootstrap window included (and any later dropped
    /// as late).
    events: u64,
    /// Most recent events, input to re-anchor bootstraps.
    ring: VecDeque<PhyEvent>,
}

impl<S: LiveSource> EventStream for Joined<S> {
    fn meta(&self) -> RadioMeta {
        self.meta
    }

    /// A blocking pull; the merger only ever calls `poll_event`.
    fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError> {
        loop {
            match self.poll_event()? {
                SourcePoll::Event(ev) => return Ok(Some(ev)),
                SourcePoll::End => return Ok(None),
                SourcePoll::Pending => std::thread::yield_now(),
            }
        }
    }

    fn poll_event(&mut self) -> Result<SourcePoll, FormatError> {
        let poll = match self.first.take() {
            Some(ev) => SourcePoll::Event(ev),
            None => self.src.poll()?,
        };
        if let SourcePoll::Event(ev) = &poll {
            self.events += 1;
            if self.ring.len() == REANCHOR_RING {
                self.ring.pop_front();
            }
            self.ring.push_back(ev.clone());
        }
        Ok(poll)
    }
}

/// Where a source is on its way into the merge.
enum Slot<S> {
    /// No header yet: not a radio until it has one.
    Unjoined(S),
    /// Filling its bootstrap split, the batch pipeline's own.
    Splitting(Box<OpenedRadio<Joined<S>>>),
    /// One of the merger's streams, at this index.
    Merging(usize),
}

struct SourceState<S> {
    slot: Slot<S>,
    /// Status until the source joins the merge; the merger's stream status
    /// after.
    status: SourceStatus,
    lagged: bool,
    /// Clock reading when the source was last seen delivering, or not
    /// waiting on its producer.
    last_progress: u64,
    /// The clock's correction count at the previous re-anchor check; one
    /// that has not moved by the next check marks a radio continuous
    /// resynchronization is not reaching.
    corrections_seen: u64,
}

impl<S: LiveSource> SourceState<S> {
    /// One bootstrap round: joins the source once its header is known (an
    /// event the revealing poll delivered enters the split first), fills its
    /// split as far as it has delivered, and applies the stall rule.
    /// Returns whether the source expects no more bootstrap input.
    fn bootstrap_round(&mut self, cfg: &LiveConfig, now: u64) -> Result<bool, FormatError> {
        if self.status != SourceStatus::Live {
            return Ok(true);
        }
        let delivered = match &self.slot {
            Slot::Splitting(radio) => radio.stream.events,
            Slot::Unjoined(_) | Slot::Merging(_) => 0,
        };
        if let Slot::Unjoined(src) = &mut self.slot {
            // A source that knows its header joins before it is polled.
            let poll = match src.meta() {
                Some(_) => SourcePoll::Pending,
                None => src.poll()?,
            };
            match (src.meta(), poll) {
                // Nothing headerless can be placed in the merge.
                (None, SourcePoll::Event(_)) => return Err(FormatError::BadHeader),
                (None, SourcePoll::End) => {
                    self.status = SourceStatus::Ended;
                    return Ok(true);
                }
                (None, SourcePoll::Pending) => {}
                (Some(meta), poll) => {
                    let first = match poll {
                        SourcePoll::Event(ev) => Some(ev),
                        SourcePoll::Pending | SourcePoll::End => None,
                    };
                    // Always taken: the slot was just matched.
                    if let Slot::Unjoined(src) = std::mem::replace(&mut self.slot, Slot::Merging(0))
                    {
                        let joined = Joined {
                            src,
                            meta,
                            first,
                            events: 0,
                            ring: VecDeque::new(),
                        };
                        self.slot = Slot::Splitting(Box::new(joined.open(&cfg.bootstrap)?));
                    }
                }
            }
        }
        let complete = match &mut self.slot {
            Slot::Splitting(radio) => {
                let complete = radio.pull()?;
                if radio.stream.events > delivered {
                    self.last_progress = now;
                }
                complete
            }
            Slot::Unjoined(_) | Slot::Merging(_) => false,
        };
        if !complete && now.saturating_sub(self.last_progress) > cfg.max_lag_us {
            // Stalled inside the bootstrap window: a source whose header
            // never arrived has no identity and is dead; one with a header
            // bootstraps from what it delivered and joins lagging.
            if let Slot::Unjoined(_) = self.slot {
                self.status = SourceStatus::Dead;
            } else {
                self.status = SourceStatus::Lagging;
                self.lagged = true;
            }
            return Ok(true);
        }
        Ok(complete)
    }
}

/// The always-on unification service: hands its [`LiveSource`]s to a
/// [`Merger`] as streams that can pend, under the watermark/lag contract
/// (crate docs).
///
/// Drive it with [`LiveMerger::step`] (one round, for embedding in a
/// service loop) or [`LiveMerger::run`] (steps until every source ends —
/// the recorded-corpus replay mode; do not use it with sources that can
/// stay silent forever).
///
/// **Until offsets are bootstrapped**, a round fills each source's batch
/// bootstrap split ([`OpenedRadio`]); its only own decisions are wall-clock
/// ones: no header after `max_lag_us` is dead, a stall inside the window
/// joins lagging. **After that, one round** pulls again every source whose
/// last pull pended, declares lagging every live source now pending for
/// `max_lag_us` of wall time, and merges everything that has arrived. A
/// source is read only when its last event has been consumed, so the rest
/// stays in the source — on disk, or in a [`crate::ChannelSource`] whose
/// sender reports [`crate::SendOutcome::Full`] — and a source whose event
/// waits in the merge never looks silent: the one everyone waits on is
/// declared lagging.
pub struct LiveMerger<S, C> {
    cfg: LiveConfig,
    clock: C,
    sources: Vec<SourceState<S>>,
    merger: Option<Merger<Joined<S>>>,
    /// Safe-horizon value at which the next re-anchor check fires: the
    /// bootstrap anchor plus a whole number of `reanchor_interval_us`.
    next_reanchor: Micros,
    reanchors: u64,
    reanchors_skipped: u64,
    lag: LagStats,
}

impl<S: LiveSource, C: LiveClock> LiveMerger<S, C> {
    /// A live merger with no sources yet.
    pub fn new(cfg: LiveConfig, clock: C) -> Self {
        LiveMerger {
            cfg,
            clock,
            sources: Vec::new(),
            merger: None,
            next_reanchor: Micros::MAX,
            reanchors: 0,
            reanchors_skipped: 0,
            lag: LagStats::new(),
        }
    }

    /// Registers a radio. Sources join during the bootstrap phase — before
    /// the first event crosses the bootstrap window; a source added after
    /// the merge is running is a programmer error.
    ///
    /// # Panics
    /// Panics if the merge has already bootstrapped.
    pub fn add_source(&mut self, src: S) {
        assert!(
            self.merger.is_none(),
            "add_source after the merge bootstrapped"
        );
        self.sources.push(SourceState {
            slot: Slot::Unjoined(src),
            status: SourceStatus::Live,
            lagged: false,
            last_progress: self.clock.now_us(),
            corrections_seen: 0,
        });
    }

    /// True once offsets are bootstrapped and the merge is streaming.
    pub fn is_streaming(&self) -> bool {
        self.merger.is_some()
    }

    /// Mutable access to every registered source (in `add_source` order
    /// until the merge bootstraps; joined sources first after) — e.g. to
    /// [`crate::ChunkedFileTail::stop`] follow-mode tails once the capture
    /// processes exit, so [`LiveMerger::run`] can terminate.
    pub fn sources_mut(&mut self) -> impl Iterator<Item = &mut S> {
        let merging = self.merger.iter_mut().flat_map(Merger::streams_mut);
        let rest = self.sources.iter_mut().filter_map(|s| match &mut s.slot {
            Slot::Unjoined(src) => Some(src),
            Slot::Splitting(radio) => Some(&mut radio.stream.src),
            Slot::Merging(_) => None,
        });
        merging.map(|j| &mut j.src).chain(rest)
    }

    /// The current safe horizon (universal µs): everything older than
    /// `safe − 2×search_window` has been emitted.
    pub fn safe_horizon(&self) -> Micros {
        self.merger.as_ref().map_or(0, Merger::horizon)
    }

    /// Where source `k` (in `add_source` order) currently stands in the
    /// liveness state machine — service observability and test hook.
    ///
    /// # Panics
    /// Panics if `k` is not a registered source index.
    pub fn source_status(&self, k: usize) -> SourceStatus {
        let s = &self.sources[k];
        match (&s.slot, &self.merger) {
            (&Slot::Merging(r), Some(m)) => match m.status(r) {
                StreamStatus::Live => SourceStatus::Live,
                StreamStatus::Lagging => SourceStatus::Lagging,
                StreamStatus::Ended => SourceStatus::Ended,
            },
            _ => s.status,
        }
    }

    /// One round: fill the bootstrap splits until offsets exist, then
    /// re-poll → evict → merge. Returns `true` while any source is still
    /// open (live or lagging) — i.e. while there is reason to step again;
    /// call [`LiveMerger::finish`] once it returns `false`.
    pub fn step(&mut self, sink: &mut impl FnMut(JFrame)) -> Result<bool, PipelineError> {
        if self.merger.is_none() {
            self.bootstrap_step()?;
            if self.merger.is_none() {
                return Ok(true);
            }
        }
        self.stream_step(sink)?;
        Ok((0..self.sources.len()).any(|k| {
            matches!(
                self.source_status(k),
                SourceStatus::Live | SourceStatus::Lagging
            )
        }))
    }

    /// Steps until every source has ended, then finishes. The replay mode:
    /// with sources that always progress (file tails over a recorded
    /// corpus) this terminates; a forever-silent channel source would not.
    pub fn run(mut self, mut sink: impl FnMut(JFrame)) -> Result<LiveReport, PipelineError> {
        while self.step(&mut sink)? {}
        self.finish(sink)
    }

    /// Ends every remaining source — what has not arrived by now never
    /// will — drains all buffered state, and reports. Jframes still
    /// buffered (the last `2×search_window`) are emitted here.
    pub fn finish(mut self, mut sink: impl FnMut(JFrame)) -> Result<LiveReport, PipelineError> {
        // A finish before bootstrap completes (a source still inside its
        // bootstrap window) must still merge what arrived — once every
        // source with a header by now has joined.
        if self.merger.is_none() {
            self.bootstrap_step()?;
        }
        if self.merger.is_none() {
            self.transition()?;
        }
        let merger = self.merger.as_mut().expect("transition sets the merger");
        let lag = &mut self.lag;
        let merge = merger.finish(|jf, horizon| {
            lag.push(horizon.saturating_sub(jf.ts));
            sink(jf);
        })?;
        let sources = self
            .sources
            .iter()
            .map(|s| match s.slot {
                Slot::Merging(r) => {
                    let joined = merger.stream(r);
                    SourceReport {
                        radio: Some(joined.meta.radio),
                        events: joined.events,
                        late_dropped: merger.late_dropped(r),
                        lagged: s.lagged,
                        status: SourceStatus::Ended,
                    }
                }
                Slot::Unjoined(_) | Slot::Splitting(_) => SourceReport {
                    radio: None,
                    events: 0,
                    late_dropped: 0,
                    lagged: s.lagged,
                    // Headerless: dead, or ended by this finish.
                    status: if s.status == SourceStatus::Dead {
                        SourceStatus::Dead
                    } else {
                        SourceStatus::Ended
                    },
                },
            })
            .collect();
        Ok(LiveReport {
            merge,
            sources,
            reanchors: self.reanchors,
            reanchors_skipped: self.reanchors_skipped,
            lag: std::mem::take(&mut self.lag),
        })
    }

    /// Bootstrap phase: one round per source; transition to streaming once
    /// no source expects more bootstrap input.
    fn bootstrap_step(&mut self) -> Result<(), PipelineError> {
        let now = self.clock.now_us();
        let mut all_complete = true;
        for s in &mut self.sources {
            all_complete &= s.bootstrap_round(&self.cfg, now)?;
        }
        if all_complete {
            self.transition()?;
        }
        Ok(())
    }

    /// Bootstraps offsets and builds the streaming merger exactly as the
    /// batch pipeline does, from the joined sources' splits as one
    /// [`SourceSet`]: each becomes one of the merger's streams, seeded with
    /// its window and carry.
    fn transition(&mut self) -> Result<(), PipelineError> {
        let mut radios = Vec::new();
        for s in &mut self.sources {
            match std::mem::replace(&mut s.slot, Slot::Merging(radios.len())) {
                Slot::Splitting(radio) => radios.push(*radio),
                unjoined => s.slot = unjoined,
            }
        }
        let set = SourceSet { radios };
        let boot = set.bootstrap(&self.cfg.bootstrap)?;
        let (streams, seeds, window_los) = set.into_merge_input();
        let mut merger =
            Merger::new_at(streams, &boot.offsets, &window_los, self.cfg.merge.clone());
        for (r, seed) in seeds.into_iter().enumerate() {
            merger.seed_pending(r, seed);
        }
        for s in &self.sources {
            if let (Slot::Merging(r), SourceStatus::Lagging) = (&s.slot, s.status) {
                merger.lag(*r);
            }
        }
        // Re-anchor checks sit on a trace-time grid rooted at the bootstrap
        // anchor, so when they fire does not depend on how sources pended.
        let anchor = (0..window_los.len())
            .map(|r| merger.clock(r).to_universal(window_los[r]))
            .min()
            .unwrap_or(0);
        self.next_reanchor = anchor.saturating_add(self.cfg.reanchor_interval_us);
        self.merger = Some(merger);
        Ok(())
    }

    /// One streaming round: re-poll what pended → evict what has been
    /// silent → merge everything that has arrived, stopping at each
    /// re-anchor grid point to check.
    fn stream_step(&mut self, sink: &mut impl FnMut(JFrame)) -> Result<(), PipelineError> {
        let now = self.clock.now_us();
        let merger = self.merger.as_mut().expect("stream_step after transition");
        merger.repoll()?;
        // Silence counts only while a source waits on its producer: one
        // whose head is waiting in the merge is not being read. (A pull
        // that pends is retried only by `repoll`, so a source pending now
        // delivered nothing since it was last seen not pending.)
        for s in &mut self.sources {
            let Slot::Merging(r) = s.slot else { continue };
            if !merger.is_pending(r) {
                s.last_progress = now;
            } else if merger.status(r) == StreamStatus::Live
                && now.saturating_sub(s.last_progress) > self.cfg.max_lag_us
            {
                merger.lag(r);
                s.lagged = true;
            }
        }
        loop {
            let merger = self.merger.as_mut().expect("stream_step after transition");
            let lag = &mut self.lag;
            let frontier = merger.advance(self.next_reanchor, |jf, horizon| {
                lag.push(horizon.saturating_sub(jf.ts));
                sink(jf);
            })?;
            if frontier == Micros::MAX || frontier < self.next_reanchor {
                return Ok(());
            }
            self.maybe_reanchor(frontier);
        }
    }

    /// At every `reanchor_interval_us` boundary of trace time past the
    /// bootstrap anchor, re-run the offset bootstrap over each radio's
    /// recent events and re-anchor clocks whose offsets drifted past
    /// `reanchor_drift_us` — the escape hatch for drift that continuous
    /// resynchronization missed (e.g. a radio that heard no shared frames
    /// for a long stretch). Only a radio whose clock took **no** correction
    /// since the previous boundary is a candidate: a clock the merge is
    /// still correcting is already tracked to microseconds, and replacing
    /// it with a coarser ring estimate would fork the stream from the batch
    /// merge on perfectly healthy clocks. Shifts of `2×search_window` or
    /// more are rejected as bootstrap glitches (`reanchors_skipped`);
    /// coarse (NTP-only) estimates are never applied.
    fn maybe_reanchor(&mut self, safe: Micros) {
        if safe < self.next_reanchor {
            return;
        }
        // The next boundary past `safe`, staying on the anchor's grid however
        // far the merge moved the horizon.
        let interval = self.cfg.reanchor_interval_us.max(1);
        let crossed = (safe - self.next_reanchor) / interval + 1;
        self.next_reanchor = self
            .next_reanchor
            .saturating_add(interval.saturating_mul(crossed));

        let merger = self.merger.as_mut().expect("re-anchor while streaming");
        let joined: Vec<(usize, usize)> = self
            .sources
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.slot {
                Slot::Merging(r) => Some((i, r)),
                Slot::Unjoined(_) | Slot::Splitting(_) => None,
            })
            .collect();
        let idle: Vec<bool> = joined
            .iter()
            .map(|&(i, r)| {
                let now = merger.clock(r).corrections;
                std::mem::replace(&mut self.sources[i].corrections_seen, now) == now
            })
            .collect();
        if !idle.contains(&true) {
            return;
        }
        let window_us = self.cfg.bootstrap.window_us;
        let metas: Vec<RadioMeta> = joined.iter().map(|&(_, r)| merger.stream(r).meta).collect();
        // Window each radio at the tail of its ring: the freshest
        // bootstrap-window's worth of evidence.
        let window_los: Vec<Micros> = joined
            .iter()
            .map(|&(_, r)| {
                merger
                    .stream(r)
                    .ring
                    .back()
                    .map_or(0, |e| e.ts_local.saturating_sub(window_us))
            })
            .collect();
        let prefixes: Vec<Vec<PhyEvent>> = joined
            .iter()
            .map(|&(_, r)| merger.stream(r).ring.iter().cloned().collect())
            .collect();
        let Ok(boot) = bootstrap_at(&metas, &prefixes, &window_los, &self.cfg.bootstrap) else {
            return;
        };
        for (k, &(i, r)) in joined.iter().enumerate() {
            if !idle[k] || boot.coarse[k] {
                continue;
            }
            // Offset convention (see `bootstrap_at`): universal = local −
            // offset, so the clock's current offset at `lo` is the local
            // time minus its universal image.
            let lo = window_los[k];
            let current = lo as i64 - merger.clock(r).to_universal(lo) as i64;
            let shift = boot.offsets[k] - current;
            if shift.unsigned_abs() <= self.cfg.reanchor_drift_us {
                continue;
            }
            if shift.unsigned_abs() >= 2 * self.cfg.merge.search_window_us {
                self.reanchors_skipped += 1;
                continue;
            }
            merger.reanchor_clock(r, boot.offsets[k], lo);
            // The fresh clock state counts its corrections from zero.
            self.sources[i].corrections_seen = 0;
            self.reanchors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::source::{ChannelSource, LiveSender, SendOutcome};
    use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
    use jigsaw_core::OnJFrame;
    use jigsaw_ieee80211::{Channel, PhyRate};
    use jigsaw_trace::stream::MemoryStream;
    use jigsaw_trace::{MonitorId, PhyStatus};

    fn meta(r: u16) -> RadioMeta {
        RadioMeta {
            radio: RadioId(r),
            monitor: MonitorId(r),
            channel: Channel::of(1),
            anchor_wall_us: 1_000_000,
            anchor_local_us: 0,
        }
    }

    /// A content-unique data frame both radios hear at (roughly) `ts`.
    fn frame_bytes(seq: u16) -> Vec<u8> {
        let mut b = vec![0u8; 34];
        b[0] = 0x08; // data
        b[4..10].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
        b[10..16].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
        b[16..22].copy_from_slice(&[2, 0, 0, 0, 0, 3]);
        b[22] = (seq & 0xff) as u8;
        b[23] = (seq >> 8) as u8;
        b
    }

    fn ev(r: u16, ts: u64, bytes: Vec<u8>) -> PhyEvent {
        PhyEvent {
            radio: RadioId(r),
            ts_local: ts,
            channel: Channel::of(1),
            rate: PhyRate::R11,
            rssi_dbm: -50,
            status: PhyStatus::Ok,
            wire_len: bytes.len() as u32,
            bytes: bytes.into(),
        }
    }

    /// Shared scenario: two radios on one channel hearing the same frames.
    /// Returns per-radio event lists (radio 1's clock offset by `off`).
    fn shared_events(n: u64, off: i64) -> (Vec<PhyEvent>, Vec<PhyEvent>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for k in 0..n {
            let ts = 10_000 + k * 50_000;
            let f = frame_bytes(k as u16);
            a.push(ev(0, ts, f.clone()));
            b.push(ev(1, (ts as i64 + off + (k % 3) as i64) as u64, f));
        }
        (a, b)
    }

    /// The batch pipeline over the same per-radio events (radio `r` is
    /// `radios[r]`): the keys of the jframes it emits, and its merge stats.
    fn batch_merge(radios: &[&[PhyEvent]], cfg: &LiveConfig) -> (Vec<Key>, MergeStats) {
        let streams = (0..)
            .zip(radios)
            .map(|(r, evs)| MemoryStream::new(meta(r), evs.to_vec()))
            .collect();
        let cfg = PipelineConfig {
            bootstrap: cfg.bootstrap.clone(),
            merge: cfg.merge.clone(),
            ..Default::default()
        };
        let mut keys = Vec::new();
        let (_, stats) =
            Pipeline::merge_only(streams, &cfg, OnJFrame(|jf: &JFrame| keys.push(key(jf))))
                .unwrap();
        (keys, stats)
    }

    type Live = LiveMerger<ChannelSource, ManualClock>;

    /// A live merger over channel-fed radios 0 and 1, and their senders.
    fn two_radios(cfg: LiveConfig, clock: &ManualClock) -> (Live, LiveSender, LiveSender) {
        let mut lm = LiveMerger::new(cfg, clock.clone());
        let (tx0, s0) = ChannelSource::new(meta(0));
        let (tx1, s1) = ChannelSource::new(meta(1));
        lm.add_source(s0);
        lm.add_source(s1);
        (lm, tx0, tx1)
    }

    /// Sends one event; the scenarios that use this never fill the channel.
    fn send(tx: &LiveSender, ev: PhyEvent) {
        assert_eq!(tx.send(ev), SendOutcome::Inserted);
    }

    fn send_all(tx: &LiveSender, evs: &[PhyEvent]) {
        for e in evs {
            send(tx, e.clone());
        }
    }

    /// A jframe's comparable identity.
    type Key = (Micros, u8, u64, usize);

    fn key(jf: &JFrame) -> Key {
        (
            jf.ts,
            jf.channel.number(),
            jf.stable_digest(),
            jf.instance_count(),
        )
    }

    /// The lag-policy scenarios' start: two radios, lagging after 1 s of
    /// wall-time silence, that delivered `a` and `b` and were merged as far
    /// as those go. Returns the merger, both senders and what it emitted.
    fn streaming_after(
        a: &[PhyEvent],
        b: &[PhyEvent],
        clock: &ManualClock,
    ) -> (Live, LiveSender, LiveSender, Vec<JFrame>) {
        let cfg = LiveConfig {
            max_lag_us: 1_000_000,
            ..LiveConfig::default()
        };
        let (mut lm, tx0, tx1) = two_radios(cfg, clock);
        send_all(&tx0, a);
        send_all(&tx1, b);
        let mut out = Vec::new();
        for _ in 0..1_000 {
            if lm.is_streaming() {
                break;
            }
            lm.step(&mut |jf| out.push(jf)).unwrap();
        }
        assert!(lm.is_streaming(), "never reached streaming");
        settle(&mut lm, &mut out);
        (lm, tx0, tx1, out)
    }

    /// Steps until a round leaves the safe horizon where it was: everything
    /// that has arrived has been merged.
    fn settle(lm: &mut Live, out: &mut Vec<JFrame>) {
        loop {
            let before = lm.safe_horizon();
            lm.step(&mut |jf| out.push(jf)).unwrap();
            if lm.safe_horizon() == before {
                return;
            }
        }
    }

    #[test]
    fn channel_fed_live_matches_batch() {
        let (a, b) = shared_events(80, 7);
        let cfg = LiveConfig::default();
        let (want, _) = batch_merge(&[&a, &b], &cfg);

        let (mut lm, tx0, tx1) = two_radios(cfg, &ManualClock::new());
        let mut out = Vec::new();
        // Feed in uneven slices, stepping between them.
        let (mut i, mut j) = (0usize, 0usize);
        let mut round = 0usize;
        while i < a.len() || j < b.len() {
            for _ in 0..1 + round % 3 {
                if i < a.len() {
                    send(&tx0, a[i].clone());
                    i += 1;
                }
            }
            for _ in 0..1 + (round + 1) % 2 {
                if j < b.len() {
                    send(&tx1, b[j].clone());
                    j += 1;
                }
            }
            lm.step(&mut |jf| out.push(jf)).unwrap();
            round += 1;
        }
        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();

        let got: Vec<_> = out.iter().map(key).collect();
        assert_eq!(got, want, "live emission must equal the batch merge");
        assert_eq!(report.merge.events_in, 160);
        assert_eq!(report.sources.len(), 2);
        assert!(report
            .sources
            .iter()
            .all(|s| s.status == SourceStatus::Ended && !s.lagged));
    }

    /// The acceptance scenario: one radio goes silent mid-run. Unification
    /// must stall no longer than `max_lag_us`, then continue without it,
    /// re-admit it on catch-up (dropping only below-horizon events), and
    /// flag it in the report.
    #[test]
    fn killed_radio_lags_then_readmits() {
        let (a, b) = shared_events(120, 3);
        let clock = ManualClock::new();
        // Both radios deliver the first half; radio 1 then goes silent.
        let half = 60usize;
        let (mut lm, tx0, tx1, mut out) = streaming_after(&a[..half], &b[..half], &clock);
        // Radio 0 keeps going alone — but the merger reads it no further
        // than its first event past radio 1's watermark; the rest waits in
        // its channel.
        send_all(&tx0, &a[half..90]);
        settle(&mut lm, &mut out);
        let stalled_at = out.len();
        let horizon_before = lm.safe_horizon();
        // Within max_lag_us: the silent radio still holds the horizon.
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert_eq!(out.len(), stalled_at, "horizon must hold before max_lag");
        // Past max_lag_us — with radio 0 still delivering, so only radio 1
        // is silent: radio 1 is declared lagging and emission resumes.
        clock.advance(1_500_000);
        send_all(&tx0, &a[90..]);
        lm.step(&mut |jf| out.push(jf)).unwrap();
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert!(
            lm.safe_horizon() > horizon_before,
            "horizon must advance past a lagging radio"
        );
        assert!(
            out.len() > stalled_at,
            "unification must continue without the lagging radio"
        );
        // Radio 1 catches up: its stale half-way events fall below the
        // emitted horizon and are dropped; it rejoins live.
        send_all(&tx1, &b[half..]);
        lm.step(&mut |jf| out.push(jf)).unwrap();
        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();

        let r1 = &report.sources[1];
        assert!(r1.lagged, "report must flag the stalled radio");
        assert_eq!(r1.status, SourceStatus::Ended);
        assert_eq!(r1.events, 120);
        assert!(
            r1.late_dropped > 0,
            "catch-up events below the horizon are dropped"
        );
        assert!(!report.sources[0].lagged);
        // Emission order never violated despite the stall/catch-up cycle.
        for w in out.windows(2) {
            assert!(w[0].ts <= w[1].ts, "emission must stay time-ordered");
        }
    }

    /// The failure mode the one-batch catch-up test cannot see: a backlog
    /// arrives over many rounds, and the first rounds fall *entirely* below
    /// the emitted horizon. The radio must stay `Lagging` through those
    /// rounds (filter applied, watermark excluded) and flip back to live
    /// only once it delivers an event that reaches the safe horizon —
    /// flipping early fed later stale events unfiltered (out-of-order
    /// emission) with a stale watermark holding the merge back again.
    #[test]
    fn deep_backlog_drains_under_filter_before_readmission() {
        let (a, b) = shared_events(120, 3);
        let clock = ManualClock::new();
        let half = 60usize;
        let (mut lm, tx0, tx1, mut out) = streaming_after(&a[..half], &b[..half], &clock);
        // Radio 1 goes silent; radio 0's producer runs far ahead (the
        // merger leaves those events in the channel while radio 1 is live).
        send_all(&tx0, &a[half..110]);
        settle(&mut lm, &mut out);
        // Past max_lag_us, with radio 0 still delivering: radio 1 lags, and
        // the horizon follows radio 0 through its backlog.
        clock.advance(1_500_000);
        send_all(&tx0, &a[110..]);
        for _ in 0..10 {
            lm.step(&mut |jf| out.push(jf)).unwrap();
        }
        assert_eq!(lm.source_status(1), SourceStatus::Lagging);
        let horizon_hi = lm.safe_horizon();
        assert!(horizon_hi > 0);

        // The backlog arrives eight events a round, so the first catch-up
        // round is b[60..68] — seconds below the horizon in trace time. It
        // must be fully dropped WITHOUT flipping the radio live, and the
        // horizon must not move backwards.
        let mut backlog = b[half..].chunks(8);
        send_all(&tx1, backlog.next().unwrap());
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert_eq!(
            lm.source_status(1),
            SourceStatus::Lagging,
            "a fully dropped catch-up round must not re-admit the radio"
        );
        assert!(lm.safe_horizon() >= horizon_hi);
        // Drain the rest of the backlog; the radio stays lagging as long
        // as its rounds trail the horizon.
        for chunk in backlog {
            send_all(&tx1, chunk);
            lm.step(&mut |jf| out.push(jf)).unwrap();
        }
        // Fresh events past the horizon: now a retained round reaches the
        // safe horizon and the radio rejoins live.
        for k in 0..4u64 {
            send(
                &tx1,
                ev(1, 6_200_000 + k * 10_000, frame_bytes(200 + k as u16)),
            );
        }
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert_eq!(
            lm.source_status(1),
            SourceStatus::Live,
            "a caught-up radio must be re-admitted"
        );

        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();
        assert!(report.sources[1].lagged);
        assert!(report.sources[1].late_dropped > 0);
        // The documented guarantee the premature flip used to violate.
        for w in out.windows(2) {
            assert!(w[0].ts <= w[1].ts, "emission must stay time-ordered");
        }
    }

    /// A radio that keeps delivering but permanently trails the horizon
    /// must stay `Lagging` — were it re-admitted, its stale watermark would
    /// rejoin the safe-horizon minimum and freeze the horizon forever
    /// (unbounded lag) while its steady progress kept it from ever being
    /// re-declared lagging.
    #[test]
    fn permanently_behind_radio_does_not_freeze_horizon() {
        let (a, b) = shared_events(200, 3);
        let clock = ManualClock::new();
        let (mut lm, tx0, tx1, mut out) = streaming_after(&a[..30], &b[..30], &clock);
        // One more event from radio 0 consumes radio 1's last one, so
        // radio 1 now waits on its producer.
        send(&tx0, a[30].clone());
        settle(&mut lm, &mut out);
        // Radio 1 stalls past max_lag_us while radio 0 keeps delivering, and
        // is declared lagging.
        clock.advance(1_500_000);
        send(&tx0, a[31].clone());
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert_eq!(lm.source_status(1), SourceStatus::Lagging);
        // Radio 0 — the only live radio now, so nothing holds it back —
        // pulls 70 events (3.5 s of trace) ahead.
        send_all(&tx0, &a[32..102]);
        for _ in 0..15 {
            lm.step(&mut |jf| out.push(jf)).unwrap();
        }

        // From here on, BOTH radios deliver two events per step, but radio
        // 1 replays its backlog and stays ~70 events behind forever. The
        // horizon must keep tracking radio 0, not freeze at radio 1's
        // stale watermark.
        let mut k0 = 102usize;
        let mut k1 = 30usize;
        let mut last_horizon = lm.safe_horizon();
        let mut advanced = 0usize;
        while k0 < 200 {
            send(&tx0, a[k0].clone());
            send(&tx0, a[k0 + 1].clone());
            send(&tx1, b[k1].clone());
            send(&tx1, b[k1 + 1].clone());
            k0 += 2;
            k1 += 2;
            lm.step(&mut |jf| out.push(jf)).unwrap();
            assert_eq!(
                lm.source_status(1),
                SourceStatus::Lagging,
                "a permanently-behind radio must stay lagging"
            );
            if lm.safe_horizon() > last_horizon {
                advanced += 1;
            }
            last_horizon = lm.safe_horizon();
        }
        assert!(
            advanced >= 40,
            "horizon must keep advancing past a permanently-behind radio (advanced {advanced} times)"
        );
        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();
        assert!(report.sources[1].lagged);
        assert!(report.sources[1].late_dropped > 0);
        for w in out.windows(2) {
            assert!(w[0].ts <= w[1].ts, "emission must stay time-ordered");
        }
    }

    /// Runs two radios where radio 1's clock skews 1500 ppm fast, with
    /// continuous resync on or off, under the given re-anchor settings.
    fn run_skewed(
        reanchor_interval_us: Micros,
        reanchor_drift_us: Micros,
        resync_enabled: bool,
    ) -> LiveReport {
        let mut cfg = LiveConfig {
            reanchor_interval_us,
            reanchor_drift_us,
            ..LiveConfig::default()
        };
        cfg.merge.resync_enabled = resync_enabled;
        // A re-anchor corrects the offset at its bridging frame, up to one
        // bootstrap window behind the live edge, so ~1.5 ms of skew residual
        // remains at 1500 ppm; widen the dispersion guard so corrected
        // instances unify while uncorrected drift (up to 30 ms) cannot.
        cfg.merge.merge_gap_us = 4_000;
        let (mut lm, tx0, tx1) = two_radios(cfg, &ManualClock::new());
        let mut out = Vec::new();
        for k in 0..400u64 {
            let ts = 10_000 + k * 50_000;
            let f = frame_bytes(k as u16);
            send(&tx0, ev(0, ts, f.clone()));
            send(&tx1, ev(1, ts + (ts * 15) / 10_000, f));
            if k % 4 == 3 {
                lm.step(&mut |jf| out.push(jf)).unwrap();
            }
        }
        drop(tx0);
        drop(tx1);
        lm.run(|jf| out.push(jf)).unwrap()
    }

    /// A fast-skewing radio with continuous resync disabled: periodic
    /// re-anchoring must fire (drift above threshold, shift within the
    /// clamp) and recover unification that unchecked drift destroys.
    #[test]
    fn reanchor_corrects_unresynced_drift() {
        // By t=10 s radio 1's stamps lead true time by 15 ms — far past
        // the 2 ms drift threshold, inside the 20 ms shift clamp at each
        // 3 s checkpoint.
        let with = run_skewed(3_000_000, 2_000, false);
        assert!(
            with.reanchors >= 1,
            "drift must trigger a re-anchor (got {} applied, {} skipped)",
            with.reanchors,
            with.reanchors_skipped
        );
        let without = run_skewed(Micros::MAX, 2_000, false);
        assert_eq!(without.reanchors, 0);
        assert!(
            with.merge.instances_unified > without.merge.instances_unified,
            "re-anchoring must recover unification lost to drift ({} vs {})",
            with.merge.instances_unified,
            without.merge.instances_unified
        );
    }

    /// The same skew with continuous resync running: every shared frame
    /// corrects radio 1's clock, so each 3 s check finds its correction
    /// count advanced and leaves it alone — even though the ring bootstrap,
    /// up to a window staler than the tracked clock, disagrees with it by
    /// more than the (here deliberately tight) drift threshold. Re-anchoring
    /// a clock resync is tracking would fork the stream from the batch merge.
    #[test]
    fn reanchor_leaves_resynced_clocks_alone() {
        let report = run_skewed(3_000_000, 300, true);
        assert!(report.merge.resyncs > 0, "resync must be tracking the skew");
        assert_eq!(
            (report.reanchors, report.reanchors_skipped),
            (0, 0),
            "a clock continuous resync is correcting must not be re-anchored"
        );
    }

    /// A source whose head is waiting in the merge is not being read, so
    /// it is not stalled: that silence is the merger's doing and must not
    /// count toward `max_lag_us`. The stalled radio holding everyone back
    /// is the one that gets evicted.
    #[test]
    fn held_source_is_not_stalled() {
        let (a, b) = shared_events(80, 3);
        let clock = ManualClock::new();
        // Radio 0 is one event ahead of radio 1 when radio 1 goes silent:
        // that event is past radio 1's watermark, so it waits in the merge
        // with an empty channel behind it.
        let (mut lm, tx0, tx1, mut out) = streaming_after(&a[..41], &b[..40], &clock);
        let held_at = lm.safe_horizon();

        // Wall time passes max_lag_us. The first round evicts the stalled
        // floor while radio 0's head still waits, then merges it and finds
        // radio 0's channel empty; the second must measure that silence from
        // the moment radio 0 was last read, not from before its head waited.
        clock.advance(1_500_000);
        for _ in 0..2 {
            lm.step(&mut |jf| out.push(jf)).unwrap();
            assert_eq!(lm.source_status(0), SourceStatus::Live);
            assert_eq!(lm.source_status(1), SourceStatus::Lagging);
        }
        assert!(
            lm.safe_horizon() > held_at,
            "the horizon moves on without the stalled radio"
        );

        send_all(&tx0, &a[41..]);
        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();
        assert!(!report.sources[0].lagged);
        assert_eq!(report.sources[0].late_dropped, 0);
        assert_eq!(report.sources[0].events, 80);
        assert!(report.sources[1].lagged);
    }

    /// A source that keeps what has not been polled out of memory — the
    /// shape of a file tail, whose unread bytes stay on disk.
    /// Without a header, it pends forever.
    struct Replay {
        meta: Option<RadioMeta>,
        events: std::vec::IntoIter<PhyEvent>,
    }

    impl LiveSource for Replay {
        fn meta(&self) -> Option<RadioMeta> {
            self.meta
        }
        fn poll(&mut self) -> Result<SourcePoll, FormatError> {
            if self.meta.is_none() {
                return Ok(SourcePoll::Pending);
            }
            Ok(self
                .events
                .next()
                .map_or(SourcePoll::End, SourcePoll::Event))
        }
    }

    /// Peak merger residency for a busy radio (an event per ms) beside a
    /// sparse one hearing every 50th frame, over `ms` of trace.
    fn skewed_rate_peak(ms: u64) -> u64 {
        let busy: Vec<PhyEvent> = (0..ms)
            .map(|k| ev(0, 10_000 + k * 1_000, frame_bytes(k as u16)))
            .collect();
        let sparse: Vec<PhyEvent> = (0..ms)
            .step_by(50)
            .map(|k| ev(1, 10_003 + k * 1_000, frame_bytes(k as u16)))
            .collect();
        let mut cfg = LiveConfig::default();
        // Keep the bootstrap accumulation (one window of the busy radio)
        // below the steady-state residency this test is about.
        cfg.bootstrap.window_us = 20_000;
        let mut lm = LiveMerger::new(cfg, ManualClock::new());
        for (r, events) in [busy, sparse].into_iter().enumerate() {
            lm.add_source(Replay {
                meta: Some(meta(r as u16)),
                events: events.into_iter(),
            });
        }
        let report = lm.run(|_| {}).unwrap();
        assert_eq!(report.merge.events_in, ms + ms.div_ceil(50));
        assert!(report.sources.iter().all(|s| !s.lagged));
        report.merge.peak_buffered
    }

    /// The live mirror of unify's `peak_buffered_tracks_window_not_trace_length`:
    /// count-paced polling let the sparse radio race seconds of trace ahead
    /// of the busy one each round, and all of it sat in the merger waiting
    /// on the slow watermark, so residency grew with the trace. The merger
    /// pulls a source only when its last event is consumed, so the rest
    /// stays in the source.
    #[test]
    fn live_residency_tracks_window_not_length() {
        let short = skewed_rate_peak(20_000);
        let long = skewed_rate_peak(40_000);
        assert_eq!(short, long, "doubling the trace must not move the peak");
        // One head per radio, a search window (10 ms) in flight and the
        // 2×window reorder slack awaiting emission behind it, at ~1
        // event/ms: ~34 events.
        assert!(short <= 50, "peak residency {short} is not window-bounded");
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
        let p50 = st.quantile(0.5);
        assert!(p50 > 0 && p50 < st.max());
    }

    #[test]
    fn short_corpus_ends_during_bootstrap() {
        // Every event inside the bootstrap window; sources end before the
        // merge ever transitions — stepped there or finished without a
        // single step, everything must still be merged.
        let (a, b) = shared_events(10, 2); // last ts ≈ 460 ms < 1 s window
        let cfg = LiveConfig::default();
        let (want, _) = batch_merge(&[&a, &b], &cfg);
        for stepped in [true, false] {
            let (mut lm, tx0, tx1) = two_radios(cfg.clone(), &ManualClock::new());
            send_all(&tx0, &a);
            send_all(&tx1, &b);
            drop((tx0, tx1));
            let mut out = Vec::new();
            while stepped && lm.step(&mut |jf| out.push(jf)).unwrap() {}
            let report = lm.finish(|jf| out.push(jf)).unwrap();
            assert_eq!(
                out.iter().map(key).collect::<Vec<_>>(),
                want,
                "stepped: {stepped}"
            );
            assert_eq!(report.merge.events_in, 20);
        }
    }

    /// The bootstrap split resumes across rounds: radio 0 ends inside the
    /// window, radio 1 delivers its window over several rounds and, after a
    /// round with nothing new, the carry that completes it on its own. The
    /// merge starts only then, and emits and buffers what the batch
    /// pipeline does.
    #[test]
    fn bootstrap_split_resumes_across_rounds() {
        let (a, b) = shared_events(40, 4);
        let a = &a[..10]; // last ts 460 ms, inside the 1 s window
        let carry = 20; // b[20] is radio 1's first event past the window
        assert!(b[carry - 1].ts_local <= 1_000_000 && b[carry].ts_local > 1_000_000);
        let cfg = LiveConfig::default();
        let (want, batch) = batch_merge(&[a, &b], &cfg);

        let (mut lm, tx0, tx1) = two_radios(cfg, &ManualClock::new());
        send_all(&tx0, a);
        drop(tx0);
        let mut out = Vec::new();
        // The window over four rounds, then a round with nothing new.
        for window in b[..carry].chunks(6).chain([&b[..0]]) {
            send_all(&tx1, window);
            lm.step(&mut |jf| out.push(jf)).unwrap();
            assert!(!lm.is_streaming(), "the window is not complete yet");
        }
        send(&tx1, b[carry].clone());
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert!(lm.is_streaming(), "the carry completes the window");
        send_all(&tx1, &b[carry + 1..]);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();

        assert_eq!(out.iter().map(key).collect::<Vec<_>>(), want);
        assert_eq!(report.merge.events_in, batch.events_in);
        assert_eq!(report.merge.peak_buffered, batch.peak_buffered);
        let r0 = &report.sources[0];
        assert_eq!(
            (r0.status, r0.events, r0.lagged),
            (SourceStatus::Ended, 10, false)
        );
        assert_eq!(report.sources[1].events, 40);
    }

    /// An idle radio's trace is a header and nothing else. Tailed beside
    /// two busy radios, it ends cleanly — `Ended`, no events, no error, not
    /// lagged — and the run emits exactly the batch stream of the others.
    #[test]
    fn header_only_tail_ends_beside_busy_radios() {
        use crate::source::ChunkedFileTail;
        use jigsaw_trace::format::TraceWriter;
        let (a, b) = shared_events(80, 5);
        let cfg = LiveConfig::default();
        let (want, _) = batch_merge(&[&a, &b], &cfg);
        let dir = std::env::temp_dir().join(format!("jigsaw_live_idle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut lm = LiveMerger::new(cfg, ManualClock::new());
        for (r, events) in [a, b, Vec::new()].into_iter().enumerate() {
            let path = dir.join(format!("r{r:03}.jigt"));
            let f = std::fs::File::create(&path).unwrap();
            let mut w = TraceWriter::with_block_target(f, meta(r as u16), 200, 256).unwrap();
            for e in &events {
                w.append(e).unwrap();
            }
            w.finish().unwrap();
            lm.add_source(ChunkedFileTail::open(&path, 11).unwrap());
        }
        let mut out = Vec::new();
        let report = lm.run(|jf| out.push(jf)).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let idle = &report.sources[2];
        assert_eq!(idle.radio, Some(RadioId(2)));
        assert_eq!(
            (idle.events, idle.status, idle.lagged),
            (0, SourceStatus::Ended, false)
        );
        assert_eq!(out.iter().map(key).collect::<Vec<_>>(), want);
        assert_eq!(report.merge.events_in, 160);
    }

    #[test]
    fn dead_source_is_excluded_and_flagged() {
        // A source whose header never arrives: declared dead after
        // max_lag_us, the rest of the mesh proceeds without it.
        let (a, b) = shared_events(60, 0);
        let cfg = LiveConfig {
            max_lag_us: 500_000,
            ..LiveConfig::default()
        };
        let clock = ManualClock::new();
        let mut lm = LiveMerger::new(cfg, clock.clone());
        for (meta, events) in [(Some(meta(0)), a), (None, Vec::new()), (Some(meta(1)), b)] {
            let events = events.into_iter();
            lm.add_source(Replay { meta, events });
        }
        let mut out = Vec::new();
        lm.step(&mut |jf| out.push(jf)).unwrap();
        clock.advance(600_000);
        let report = lm.run(|jf| out.push(jf)).unwrap();
        assert_eq!(report.sources[1].status, SourceStatus::Dead);
        assert!(report.sources[1].radio.is_none());
        assert_eq!(report.merge.events_in, 120);
        assert!(report.merge.jframes_out > 0);
    }
}
