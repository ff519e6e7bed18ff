//! Frame unification (paper §4.2): merging per-radio event streams into a
//! single stream of [`JFrame`]s on a universal timeline, while continuously
//! re-synchronizing every radio's clock.
//!
//! Mechanics, mirroring the paper:
//! * a single priority queue holds the earliest pending instance of each
//!   radio (cost per jframe is linear in the frame's reception range, not
//!   in the number of radios), and a radio is pulled only when that
//!   instance is consumed;
//! * a live stream may answer a pull with [`SourcePoll::Pending`]; until
//!   it delivers again, its *watermark* (the universal image of its last
//!   event) holds the merge back. A stored stream never pends, so a batch
//!   run ([`Merger::run`]) and a live one ([`Merger::advance`]) are one
//!   algorithm over the same cursors;
//! * instances within a **channel-local** *search window* of the channel's
//!   earliest pending instance are candidates (see [`Merger::run`]: window
//!   boundaries are a pure function of each channel's own event sequence);
//!   candidates are grouped by capture channel and frame content
//!   (length/rate short-circuit, then bytes), with corrupted instances
//!   attached by transmitter address on the same channel;
//! * identical-content frames transmitted at different times (think: ACKs
//!   to the same station) are split by a time-gap guard, and no jframe may
//!   contain two instances from the same radio **or span two channels** —
//!   radios tuned to different channels cannot hear the same transmission,
//!   so byte-identical captures on different channels are distinct
//!   transmissions by construction;
//! * the jframe timestamp is the median instance timestamp (lower-middle
//!   instance for even-sized groups — the one convention used everywhere,
//!   including corrupt-attach distances); *group dispersion* (max−min)
//!   above a threshold triggers resynchronization of the involved clocks,
//!   with skew/drift tracked by an EWMA predictor;
//! * groups too close to the window's trailing edge are pushed back so that
//!   instances still in flight can join them next round;
//! * jframes are emitted in `(ts, channel, emission order)` order — a
//!   deterministic total order that the channel-sharded parallel merge in
//!   [`crate::shard`] reproduces exactly, making serial and sharded output
//!   jframe-for-jframe identical.
//!
//! Because unification never crosses channels, the merge decomposes
//! perfectly by channel; [`crate::shard`] runs one `Merger` per channel
//! shard on its own thread and K-way-merges the results.

use crate::jframe::{Instance, Instances, JFrame};
use crate::sync::bootstrap::is_sync_reference;
use crate::sync::clock::ClockState;
use jigsaw_ieee80211::wire::FrameHeader;
use jigsaw_ieee80211::{Channel, MacAddr, Micros};
use jigsaw_trace::format::FormatError;
use jigsaw_trace::stream::{EventStream, SourcePoll};
use jigsaw_trace::{PhyEvent, PhyStatus};
use std::cmp::Reverse;
// tidy:allow-file(hash-order): frame/cursor maps are keyed lookup; emission order comes from the min-heap and explicit sorts on (univ, key)
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Unification parameters.
#[derive(Debug, Clone)]
pub struct MergeConfig {
    /// Search window (paper: 10 ms).
    pub search_window_us: Micros,
    /// Minimum group dispersion before resynchronizing (paper: 10 µs).
    pub resync_threshold_us: Micros,
    /// Maximum spread of instances within one jframe; also the split guard
    /// between identical-content transmissions.
    pub merge_gap_us: Micros,
    /// EWMA weight for skew measurements (0 disables skew learning —
    /// an ablation the benchmarks exercise).
    pub ewma_alpha: f64,
    /// Master switch for continuous resynchronization (false = bootstrap
    /// offsets only; the Yeo-style baseline).
    pub resync_enabled: bool,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            search_window_us: 10_000,
            resync_threshold_us: 10,
            merge_gap_us: 1_000,
            ewma_alpha: 0.1,
            resync_enabled: true,
        }
    }
}

/// Counters describing a merge run.
#[derive(Debug, Clone, Default)]
pub struct MergeStats {
    /// Events consumed across all radios.
    pub events_in: u64,
    /// jframes emitted.
    pub jframes_out: u64,
    /// Valid (FCS-ok) instances unified into multi-instance jframes.
    pub instances_unified: u64,
    /// Clock corrections applied.
    pub resyncs: u64,
    /// Corrupted instances attached to valid jframes, counted as built.
    pub corrupt_attached: u64,
    /// Error events that became singleton jframes.
    pub singleton_errors: u64,
    /// Deferrals of groups past the emit guard; deferred twice counts twice.
    pub pushbacks: u64,
    /// Peak number of events simultaneously buffered inside the merger:
    /// cursor queues (seeded prefixes + heads), the in-flight candidate
    /// batch, and instances parked in the output reorder buffer. Bounded by
    /// the search window × traffic rate (plus any seeded prefix), *not* by
    /// trace length — the number that makes larger-than-RAM corpora safe to
    /// merge.
    pub peak_buffered: u64,
}

impl MergeStats {
    /// Accumulates another run's counters (used by [`crate::shard`] to sum
    /// per-shard stats into one report).
    pub fn absorb(&mut self, o: &MergeStats) {
        self.events_in += o.events_in;
        self.jframes_out += o.jframes_out;
        self.instances_unified += o.instances_unified;
        self.resyncs += o.resyncs;
        self.corrupt_attached += o.corrupt_attached;
        self.singleton_errors += o.singleton_errors;
        self.pushbacks += o.pushbacks;
        // Shard peaks need not coincide in time, so the sum is an upper
        // bound on true simultaneous residency — the conservative direction
        // for a memory bound.
        self.peak_buffered += o.peak_buffered;
    }
}

/// Where a radio's stream stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStatus {
    /// More events may come; while the stream pends, its watermark holds
    /// the merge back.
    Live,
    /// Declared silent by the caller ([`Merger::lag`]): it holds nothing
    /// back, what it delivers below the emitted horizon less one search
    /// window is dropped, and an event at or above the horizon makes it
    /// live again.
    Lagging,
    /// The stream ended; once its queue drains, its channel may close.
    Ended,
}

struct Cursor<S> {
    stream: S,
    pending: VecDeque<PhyEvent>,
    head: Option<PhyEvent>,
    gen: u64,
    status: StreamStatus,
    /// Local time of the last event the stream delivered (seeded prefixes
    /// included): nothing earlier can still arrive from it.
    last_local: Option<Micros>,
    /// Events a lagging stream delivered below the emitted horizon.
    late_dropped: u64,
    /// Events the stream delivered, seeded prefix and late drops included.
    delivered: u64,
}

#[derive(Debug, Clone)]
struct Candidate {
    radio: usize,
    ev: PhyEvent,
    univ: Micros,
}

/// Per-flush working storage, held across window closes so the steady
/// state of the merge allocates nothing per batch: every `Vec`/map here
/// is drained (not dropped) when a window is processed and its capacity
/// reused by the next one. `spare` is a pool of emptied candidate
/// buffers recycled between the window batches, the content clusters,
/// and the content groups. Capacity is bounded by the busiest single
/// search window seen, not by trace length.
#[derive(Default)]
struct Scratch {
    valid: Vec<Candidate>,
    corrupt: Vec<Candidate>,
    errors: Vec<Candidate>,
    groups: Vec<Vec<Candidate>>,
    by_key: HashMap<(Channel, u64), Vec<Candidate>>,
    keyed: Vec<((Channel, u64), Vec<Candidate>)>,
    leftover_corrupt: Vec<Candidate>,
    pushback: Vec<Candidate>,
    ok_ts: Vec<Micros>,
    to_close: Vec<usize>,
    spare: Vec<Vec<Candidate>>,
}

/// The streaming merger.
pub struct Merger<S> {
    cursors: Vec<Cursor<S>>,
    clocks: Vec<ClockState>,
    channels: Vec<Channel>,
    cfg: MergeConfig,
    stats: MergeStats,
    heap: BinaryHeap<Reverse<(Micros, usize, u64)>>,
    // Output reordering: jframes within 2×window may emerge out of order.
    // Keyed (ts, channel, seq) so emission order is a deterministic total
    // order that the sharded merge can reproduce shard-by-shard. `seq` is
    // unique, so the trailing slab slot never participates in ordering —
    // it just makes the parked frame an O(1) indexed lookup instead of a
    // hash probe, and freed slots recycle so the steady-state reorder
    // buffer allocates nothing.
    out: BinaryHeap<Reverse<(Micros, u8, u64, u32)>>,
    out_frames: Vec<Option<JFrame>>,
    out_free: Vec<u32>,
    out_seq: u64,
    // Universal timestamp of the last emitted jframe — backs the
    // debug_assert that emission leaves in nondecreasing order (the PR 6
    // invariant, otherwise pinned only end-to-end by the sweep goldens).
    last_emitted: Micros,
    // Events currently resident in the merger (cursor queues + heads +
    // reorder-buffer instances); its running maximum is
    // `MergeStats::peak_buffered`.
    resident: usize,
    // Per-channel merge state shared by the batch driver ([`Merger::run`])
    // and the incremental one ([`Merger::advance`]): the distinct channels
    // (sorted, computed once at construction) and each channel's open
    // search window, if any.
    live_chans: Vec<Channel>,
    live_pend: Vec<Option<(Micros, Vec<Candidate>)>>,
    // Finishing: a stream that pends now has ended.
    finishing: bool,
    // The emitted horizon (`Merger::horizon`), as last seen at a flush.
    horizon: Micros,
    scratch: Scratch,
}

impl<S: EventStream> Merger<S> {
    /// Creates a merger from per-radio streams (indexed by position) and
    /// bootstrap offsets, with clocks referenced at local time 0.
    pub fn new(streams: Vec<S>, offsets: &[i64], cfg: MergeConfig) -> Self {
        Self::new_at(streams, offsets, &[], cfg)
    }

    /// [`Merger::new`] with each clock's skew-extrapolation reference seeded
    /// at the local time its bootstrap offset was estimated (`clock_refs`,
    /// one per stream; empty means local time 0 everywhere). Windowed
    /// replays pass the per-radio window start so the EWMA's first skew
    /// sample measures time since the mid-trace bootstrap, not since the
    /// radio's arbitrary local epoch.
    pub fn new_at(
        streams: Vec<S>,
        offsets: &[i64],
        clock_refs: &[Micros],
        cfg: MergeConfig,
    ) -> Self {
        assert_eq!(streams.len(), offsets.len(), "one offset per stream");
        assert!(
            clock_refs.is_empty() || clock_refs.len() == streams.len(),
            "one clock reference per stream (or none)"
        );
        let clocks = offsets
            .iter()
            .enumerate()
            .map(|(r, &o)| {
                ClockState::new_at(o, cfg.ewma_alpha, clock_refs.get(r).copied().unwrap_or(0))
            })
            .collect();
        // Channel identity comes from the radio's *tuned* channel
        // (RadioMeta), never from per-event tags: it is what the capture
        // hardware physically listened on, and it is the key the sharded
        // merge partitions streams by — using the same source everywhere
        // makes serial and sharded output identical by construction.
        let channels: Vec<Channel> = streams.iter().map(|s| s.meta().channel).collect();
        // The distinct-channel window table is a pure function of the
        // stream set, so it is computed exactly once here rather than
        // cloned out of `channels` on every (re-)initialization.
        let mut live_chans = channels.clone();
        live_chans.sort_unstable();
        live_chans.dedup();
        let live_pend = vec![None; live_chans.len()];
        let cursors = streams
            .into_iter()
            .map(|s| Cursor {
                stream: s,
                pending: VecDeque::new(),
                head: None,
                gen: 0,
                status: StreamStatus::Live,
                last_local: None,
                late_dropped: 0,
                delivered: 0,
            })
            .collect();
        Merger {
            cursors,
            clocks,
            channels,
            cfg,
            stats: MergeStats::default(),
            heap: BinaryHeap::new(),
            out: BinaryHeap::new(),
            out_frames: Vec::new(),
            out_free: Vec::new(),
            out_seq: 0,
            last_emitted: 0,
            resident: 0,
            live_chans,
            live_pend,
            finishing: false,
            horizon: 0,
            scratch: Scratch::default(),
        }
    }

    /// The tuned channel of a radio (by position).
    fn channel_of(&self, radio: usize) -> Channel {
        self.channels[radio]
    }

    /// Pre-seeds a radio's cursor with already-read events (the bootstrap
    /// prefix). Must be called before the merge starts.
    pub fn seed_pending(&mut self, radio: usize, events: Vec<PhyEvent>) {
        self.resident += events.len();
        let cur = &mut self.cursors[radio];
        cur.delivered += events.len() as u64;
        if let Some(last) = events.last() {
            cur.last_local = Some(last.ts_local);
        }
        cur.pending.extend(events);
    }

    /// How many radios the merger holds.
    pub fn radios(&self) -> usize {
        self.cursors.len()
    }

    /// Where a radio's stream stands.
    pub fn status(&self, radio: usize) -> StreamStatus {
        self.cursors[radio].status
    }

    /// True while a radio waits on its producer: its last pull pended. One
    /// whose head waits in the merge is not being pulled.
    pub fn is_pending(&self, radio: usize) -> bool {
        let cur = &self.cursors[radio];
        cur.head.is_none() && cur.status != StreamStatus::Ended
    }

    /// Events a lagging radio delivered below the emitted horizon, dropped.
    pub fn late_dropped(&self, radio: usize) -> u64 {
        self.cursors[radio].late_dropped
    }

    /// Events a radio delivered so far, seeded prefix and late drops in.
    pub fn delivered(&self, radio: usize) -> u64 {
        self.cursors[radio].delivered
    }

    /// The emitted horizon (universal µs): nothing new can arrive below it,
    /// and every jframe older than `horizon − 2×search_window` has left.
    pub fn horizon(&self) -> Micros {
        self.horizon
    }

    /// Declares a live radio silent (the caller's wall-clock lag policy):
    /// see [`StreamStatus::Lagging`]. Other radios are left as they are.
    pub fn lag(&mut self, radio: usize) {
        let cur = &mut self.cursors[radio];
        if cur.status == StreamStatus::Live {
            cur.status = StreamStatus::Lagging;
        }
    }

    /// Pulls again every stream whose last pull pended — a live driver's
    /// "what has arrived?" each round; the first call seats every head.
    pub fn repoll(&mut self) -> Result<(), FormatError> {
        for r in 0..self.cursors.len() {
            if self.is_pending(r) {
                self.push_head(r)?;
            }
        }
        Ok(())
    }

    /// Merges everything that has arrived (call [`Merger::repoll`] first);
    /// a pending live stream holds the merge at its watermark. Jframes go
    /// to `sink` with the emitted horizon as each left ([`Merger::horizon`]).
    pub fn advance(&mut self, mut sink: impl FnMut(JFrame, Micros)) -> Result<(), FormatError> {
        self.drain(&mut sink)?;
        let safe = self.safe();
        if safe < Micros::MAX {
            // Release what the pending watermarks make final.
            self.flush_below(safe, &mut sink);
        }
        Ok(())
    }

    fn univ_of(&self, radio: usize, local: Micros) -> Micros {
        self.clocks[radio].to_universal(local)
    }

    /// The bound nothing new can arrive below: the watermark of every
    /// pending live stream. Lagging streams hold nothing back — unless no
    /// live stream is left; then the merge holds at the emitted horizon.
    fn safe(&self) -> Micros {
        let (mut bound, mut live, mut lagging) = (Micros::MAX, false, false);
        for (r, cur) in self.cursors.iter().enumerate() {
            match cur.status {
                StreamStatus::Live => {
                    live = true;
                    if cur.head.is_none() {
                        let wm = cur.last_local.map_or(0, |t| self.univ_of(r, t));
                        bound = bound.min(wm);
                    }
                }
                StreamStatus::Lagging => lagging = true,
                StreamStatus::Ended => {}
            }
        }
        if lagging && !live {
            bound.min(self.horizon)
        } else {
            bound
        }
    }

    /// The earliest universal time anything new can still pop at: the heap
    /// minimum, bounded by `safe`.
    fn frontier(&self, safe: Micros) -> Micros {
        self.heap
            .peek()
            .map_or(Micros::MAX, |&Reverse((t, _, _))| t)
            .min(safe)
    }

    /// Seats a radio's next head and keys it into the heap: from its queue
    /// first, else pulled off its stream (a newly resident event) through
    /// the lagging filter ([`StreamStatus::Lagging`]).
    fn push_head(&mut self, r: usize) -> Result<(), FormatError> {
        let cutoff = self.horizon.saturating_sub(self.cfg.search_window_us);
        let cur = &mut self.cursors[r];
        if cur.head.is_none() {
            cur.head = cur.pending.pop_front();
            while cur.head.is_none() && cur.status != StreamStatus::Ended {
                match cur.stream.poll_event()? {
                    SourcePoll::Event(ev) => {
                        cur.delivered += 1;
                        // Even a dropped event advances the watermark.
                        cur.last_local = Some(ev.ts_local);
                        if cur.status == StreamStatus::Lagging {
                            let univ = self.clocks[r].to_universal(ev.ts_local);
                            if univ < cutoff {
                                cur.late_dropped += 1;
                                continue;
                            }
                            if univ >= self.horizon {
                                cur.status = StreamStatus::Live;
                            }
                        }
                        cur.head = Some(ev);
                        self.resident += 1;
                    }
                    SourcePoll::Pending if !self.finishing => break,
                    SourcePoll::Pending | SourcePoll::End => cur.status = StreamStatus::Ended,
                }
            }
            cur.gen += 1;
        }
        if let Some(ev) = &cur.head {
            let ts = self.clocks[r].to_universal(ev.ts_local);
            self.heap.push(Reverse((ts, r, cur.gen)));
        }
        Ok(())
    }

    fn take_head(&mut self, radio: usize) -> Candidate {
        let ev = self.cursors[radio].head.take().expect("head present");
        let univ = self.univ_of(radio, ev.ts_local);
        self.stats.events_in += 1;
        self.resident -= 1;
        Candidate { radio, ev, univ }
    }

    /// Pops the earliest valid heap entry, re-pushing stale ones.
    fn pop_valid(&mut self) -> Option<(Micros, usize)> {
        while let Some(Reverse((ts, radio, gen))) = self.heap.pop() {
            let cur = &self.cursors[radio];
            match &cur.head {
                Some(ev) if cur.gen == gen => {
                    let fresh = self.univ_of(radio, ev.ts_local);
                    if fresh == ts {
                        return Some((ts, radio));
                    }
                    // Clock moved under us: reinsert with the fresh key.
                    self.heap.push(Reverse((fresh, radio, gen)));
                }
                _ => {} // stale entry, drop
            }
        }
        None
    }

    /// No more events can ever arrive for this channel: every one of its
    /// radios has an empty cursor and an ended stream.
    fn channel_exhausted(&self, ch: Channel) -> bool {
        self.cursors.iter().enumerate().all(|(r, c)| {
            self.channels[r] != ch
                || (c.head.is_none() && c.pending.is_empty() && c.status == StreamStatus::Ended)
        })
    }

    /// Re-keys the heap entries of every radio on `ch` with the *current*
    /// clock translation. Called right after a channel's window is
    /// processed: corrections may have moved its clocks, and decisions
    /// (window membership, close triggers) must see fresh keys — lazy
    /// re-keying would let another channel's event close a window while a
    /// stale-keyed event that belongs in it still sits deep in the heap,
    /// making the outcome depend on which channels share this merger.
    fn refresh_channel_keys(&mut self, ch: Channel) {
        for r in 0..self.cursors.len() {
            if self.channels[r] != ch {
                continue;
            }
            let ts_local = match &self.cursors[r].head {
                Some(ev) => ev.ts_local,
                None => continue,
            };
            self.cursors[r].gen += 1;
            let gen = self.cursors[r].gen;
            let ts = self.univ_of(r, ts_local);
            self.heap.push(Reverse((ts, r, gen)));
        }
    }

    /// Runs the merge to completion, streaming jframes to `sink`.
    ///
    /// Batching is **channel-local**: each channel accumulates candidates
    /// into its own search window `[t0, t0 + search_window_us]`, and a
    /// window is processed only once an event beyond its end has been
    /// popped (events pop in universal-time order, so by then the window
    /// can gain no instance) or the channel's streams are exhausted.
    /// Unification never crosses channels, so channel-local windows make
    /// the merge a pure function of each channel's own event sequence —
    /// the per-channel batch boundaries, group order, and clock-correction
    /// interleaving come out identical no matter which other channels
    /// share this merger. That invariance is what lets the channel-sharded
    /// driver ([`crate::shard`]) reproduce the serial output exactly.
    pub fn run(mut self, mut sink: impl FnMut(JFrame)) -> Result<MergeStats, FormatError> {
        self.finish(|jf, _| sink(jf))
    }

    /// [`Merger::run`] after [`Merger::advance`] steps: a pull that pends
    /// from here on ends its stream, and everything that has arrived drains
    /// as if stored. Jframes reach `sink` as in `advance`.
    pub fn finish(
        &mut self,
        mut sink: impl FnMut(JFrame, Micros),
    ) -> Result<MergeStats, FormatError> {
        self.finishing = true;
        self.repoll()?;
        self.drain(&mut sink)?;
        self.flush_out(Micros::MAX, &mut sink);
        Ok(self.stats.clone())
    }

    /// Closes channel window `ci` (if open): processes its candidate batch
    /// and re-keys the channel's heap entries against the possibly-moved
    /// clocks.
    fn close_window(&mut self, ci: usize) -> bool {
        let Some((t0, mut batch)) = self.live_pend[ci].take() else {
            return false;
        };
        let ch = self.live_chans[ci];
        let drained = self.channel_exhausted(ch);
        self.process_candidates(&mut batch, t0, drained);
        self.scratch.spare.push(batch);
        self.refresh_channel_keys(ch);
        true
    }

    /// Flushes the reordered output that is final: future jframes can only
    /// come from open windows, from events in the heap (pushbacks
    /// included), or from pending streams, which land at or above `safe`.
    /// Anything 2×window below all three is final. Advances the horizon.
    fn flush_below(&mut self, safe: Micros, sink: &mut impl FnMut(JFrame, Micros)) {
        let frontier = self.frontier(safe);
        if frontier < Micros::MAX {
            self.horizon = self.horizon.max(frontier);
        }
        let open_min = self
            .live_pend
            .iter()
            .flatten()
            .map(|(t0, _)| *t0)
            .min()
            .unwrap_or(Micros::MAX);
        let final_below = frontier
            .min(open_min)
            .saturating_sub(2 * self.cfg.search_window_us);
        self.flush_out(final_below, sink);
    }

    /// Pops events in universal-time order up to the safe bound
    /// ([`Merger::safe`]), accumulating them into channel windows and
    /// closing every window a popped trigger event proves complete. Returns
    /// the safe bound once the heap is dry or its minimum is past it.
    fn pump(&mut self, sink: &mut impl FnMut(JFrame, Micros)) -> Result<Micros, FormatError> {
        let window = self.cfg.search_window_us;
        let mut safe = self.safe();
        loop {
            let Some((ts, r)) = self.pop_valid() else {
                return Ok(safe);
            };
            if ts > safe {
                // Not provably complete yet: restore the key and stop.
                let gen = self.cursors[r].gen;
                self.heap.push(Reverse((ts, r, gen)));
                return Ok(safe);
            }
            // Close every window that ended before this event.
            let mut to_close = std::mem::take(&mut self.scratch.to_close);
            to_close.extend((0..self.live_chans.len()).filter(|&ci| {
                matches!(&self.live_pend[ci], Some((t0, _))
                        if t0.saturating_add(window) < ts)
            }));
            if !to_close.is_empty() {
                // Restore this event's key first: processing may move
                // clocks (or push events back) under it, and the refresh
                // inside `close_window` re-keys it if needed.
                let gen = self.cursors[r].gen;
                self.heap.push(Reverse((ts, r, gen)));
                for ci in to_close.drain(..) {
                    self.close_window(ci);
                }
                self.scratch.to_close = to_close;
                if safe < Micros::MAX {
                    // Corrections may have moved a pending stream's
                    // watermark.
                    safe = self.safe();
                }
                self.flush_below(safe, sink);
                continue;
            }
            self.scratch.to_close = to_close;
            let c = self.take_head(r);
            self.push_head(r)?;
            if self.cursors[r].head.is_none() {
                // Pended or ended: either can lower the bound.
                safe = self.safe();
            }
            let ci = self
                .live_chans
                .binary_search(&self.channel_of(c.radio))
                .expect("known channel");
            if self.live_pend[ci].is_none() {
                // Recycle an emptied batch buffer rather than growing a
                // fresh one for every window.
                let batch = self.scratch.spare.pop().unwrap_or_default();
                self.live_pend[ci] = Some((c.univ, batch));
            }
            let slot = self.live_pend[ci].as_mut().expect("window just seated");
            slot.1.push(c);
            // Residency peaks here: every in-flight candidate on
            // top of whatever the cursors and reorder buffer hold.
            let in_flight: usize = self.live_pend.iter().flatten().map(|(_, b)| b.len()).sum();
            let buffered = (self.resident + in_flight) as u64;
            self.stats.peak_buffered = self.stats.peak_buffered.max(buffered);
        }
    }

    /// Pumps, then sweeps windows that can provably gain no more
    /// instances: those ending before the frontier (exactly the windows
    /// popping the heap minimum would close) and those on fully exhausted
    /// channels. Sweeps and pumps alternate until a fixpoint because
    /// closing a window may push candidates back into the cursors.
    fn drain(&mut self, sink: &mut impl FnMut(JFrame, Micros)) -> Result<(), FormatError> {
        let window = self.cfg.search_window_us;
        loop {
            let safe = self.pump(sink)?;
            let frontier = self.frontier(safe);
            let mut any = false;
            for ci in 0..self.live_chans.len() {
                let closeable = match &self.live_pend[ci] {
                    Some((t0, _)) => {
                        t0.saturating_add(window) < frontier
                            || self.channel_exhausted(self.live_chans[ci])
                    }
                    None => false,
                };
                if closeable && self.close_window(ci) {
                    any = true;
                }
            }
            if !any {
                return Ok(());
            }
            self.flush_below(self.safe(), sink);
        }
    }

    fn emit(&mut self, jf: JFrame) {
        let seq = self.out_seq;
        self.out_seq += 1;
        self.resident += jf.instances.len();
        let key = (jf.ts, jf.channel.number(), seq);
        let slot = match self.out_free.pop() {
            Some(s) => {
                self.out_frames[s as usize] = Some(jf);
                s
            }
            None => {
                self.out_frames.push(Some(jf));
                (self.out_frames.len() - 1) as u32
            }
        };
        self.out.push(Reverse((key.0, key.1, key.2, slot)));
        self.stats.jframes_out += 1;
    }

    fn flush_out(&mut self, horizon: Micros, sink: &mut impl FnMut(JFrame, Micros)) {
        while let Some(&Reverse((ts, _, _, slot))) = self.out.peek() {
            if ts >= horizon {
                break;
            }
            self.out.pop();
            let jf = self.out_frames[slot as usize].take().expect("frame stored");
            self.out_free.push(slot);
            debug_assert!(
                jf.ts >= self.last_emitted,
                "jframe emission went backwards: {} after {}",
                jf.ts,
                self.last_emitted
            );
            self.last_emitted = jf.ts;
            self.resident -= jf.instances.len();
            sink(jf, self.horizon);
        }
    }

    /// Processes one closed search window. `candidates` is drained, not
    /// consumed, so the caller can recycle its buffer; all intermediate
    /// storage comes from [`Scratch`] and is returned there emptied —
    /// the steady state of the merge allocates nothing here.
    fn process_candidates(&mut self, candidates: &mut Vec<Candidate>, t0: Micros, drained: bool) {
        // Ties on translated time are broken by the capture's (radio,
        // ts_local) — driver-invariant keys — never by arrival order,
        // which differs between the serial merge (all channels
        // interleaved) and the channel-sharded merge (per-shard order).
        // The median-instance resync reference below reads a positional
        // element, so an order-dependent tie would fork the clock state.
        candidates.sort_by_key(|c| (c.univ, c.ev.radio, c.ev.ts_local));
        // Emit guard: a group whose earliest instance is in the first half
        // of the window cannot gain new instances (they would have been
        // within the window); later groups wait for the next round unless
        // the streams are fully drained.
        let emit_before = if drained {
            Micros::MAX
        } else {
            t0.saturating_add(self.cfg.search_window_us / 2)
        };

        // --- partition: valid / corrupt / phy-error ---
        let mut valid = std::mem::take(&mut self.scratch.valid);
        let mut corrupt = std::mem::take(&mut self.scratch.corrupt);
        let mut errors = std::mem::take(&mut self.scratch.errors);
        for c in candidates.drain(..) {
            match c.ev.status {
                PhyStatus::Ok => valid.push(c),
                PhyStatus::FcsError => corrupt.push(c),
                PhyStatus::PhyError => errors.push(c),
            }
        }

        // --- group valid instances by channel + content, split on
        //     gaps/duplicates (byte-identical captures on different
        //     channels are distinct transmissions: no radio pair on
        //     disjoint channels can hear the same frame) ---
        let mut groups = std::mem::take(&mut self.scratch.groups);
        {
            let mut by_key = std::mem::take(&mut self.scratch.by_key);
            let mut spare = std::mem::take(&mut self.scratch.spare);
            for c in valid.drain(..) {
                by_key
                    .entry((
                        self.channel_of(c.radio),
                        crate::sync::bootstrap::content_key(&c.ev),
                    ))
                    .or_insert_with(|| spare.pop().unwrap_or_default())
                    .push(c);
            }
            let mut keyed = std::mem::take(&mut self.scratch.keyed);
            keyed.extend(by_key.drain());
            // Order clusters by their *earliest* instance, not the first to
            // arrive: arrival order is driver-dependent, and cluster order
            // decides resync order (clock corrections from one group reach
            // the next group's re-translation).
            keyed.sort_by_key(|(k, v)| (v.iter().map(|c| c.univ).min().unwrap_or(0), *k));
            for (_, cluster) in keyed.iter_mut() {
                cluster.sort_by_key(|c| (c.univ, c.ev.radio, c.ev.ts_local));
                let mut cur = spare.pop().unwrap_or_default();
                for c in cluster.drain(..) {
                    let gap_split = cur
                        .last()
                        .map(|p| c.univ.saturating_sub(p.univ) > self.cfg.merge_gap_us)
                        .unwrap_or(false);
                    let dup_radio = cur.iter().any(|p| p.radio == c.radio);
                    if gap_split || dup_radio {
                        let next = spare.pop().unwrap_or_default();
                        groups.push(std::mem::replace(&mut cur, next));
                    }
                    cur.push(c);
                }
                if cur.is_empty() {
                    spare.push(cur);
                } else {
                    groups.push(cur);
                }
            }
            // Every cluster buffer is drained now — back to the pool.
            spare.extend(keyed.drain(..).map(|(_, v)| v));
            self.scratch.valid = valid;
            self.scratch.by_key = by_key;
            self.scratch.keyed = keyed;
            self.scratch.spare = spare;
        }
        // Finish groups in universal-time order, not cluster order: the
        // clock corrections applied while finishing one group reach the
        // next group's re-translation, so the finish sequence must not
        // depend on how this batch's candidates clustered (which varies
        // with batch composition between the serial and sharded drivers).
        // A group's lead candidate is a canonical key: each candidate
        // belongs to exactly one group.
        groups.sort_by_key(|g| (g[0].univ, g[0].ev.radio, g[0].ev.ts_local));

        // --- attach corrupted instances by transmitter address ---
        let mut leftover_corrupt = std::mem::take(&mut self.scratch.leftover_corrupt);
        'corrupt: for c in corrupt.drain(..) {
            if let Some(ta) = FrameHeader::decode(&c.ev.bytes).and_then(|h| h.addr2) {
                // Best candidate: same rate, transmitter matches, closest in
                // time within the merge gap.
                let mut best: Option<(usize, Micros)> = None;
                for (gi, g) in groups.iter().enumerate() {
                    if g[0].ev.rate != c.ev.rate {
                        continue; // short-circuit: rate first
                    }
                    if self.channel_of(g[0].radio) != self.channel_of(c.radio) {
                        continue; // a corrupt capture cannot cross channels
                    }
                    if g.iter().any(|p| p.radio == c.radio) {
                        continue; // one instance per radio
                    }
                    let gta = group_transmitter(g);
                    if gta != Some(ta) {
                        continue;
                    }
                    // Lower-middle median — the same convention jframe
                    // placement uses, so attach distance is measured from
                    // where the jframe will actually sit.
                    let med = g[(g.len() - 1) / 2].univ;
                    let dist = med.abs_diff(c.univ);
                    if dist <= self.cfg.merge_gap_us && best.map(|(_, d)| dist < d).unwrap_or(true)
                    {
                        best = Some((gi, dist));
                    }
                }
                if let Some((gi, _)) = best {
                    // Counted in `finish_group`: a deferred group re-attaches.
                    groups[gi].push(c);
                    continue 'corrupt;
                }
            }
            leftover_corrupt.push(c);
        }

        // --- build jframes, respecting the emit guard ---
        let mut pushback = std::mem::take(&mut self.scratch.pushback);
        for mut g in groups.drain(..) {
            g.sort_by_key(|c| (c.univ, c.ev.radio, c.ev.ts_local));
            let min_ts = g.iter().map(|c| c.univ).min().unwrap_or(0);
            if min_ts >= emit_before {
                self.stats.pushbacks += 1;
                pushback.append(&mut g);
            } else {
                self.finish_group(&mut g);
            }
            self.scratch.spare.push(g);
        }
        for c in leftover_corrupt.drain(..).chain(errors.drain(..)) {
            if c.univ >= emit_before {
                pushback.push(c);
                continue;
            }
            self.stats.singleton_errors += 1;
            let jf = singleton_jframe(&c, self.channel_of(c.radio));
            self.emit(jf);
        }
        self.scratch.groups = groups;
        self.scratch.corrupt = corrupt;
        self.scratch.errors = errors;
        self.scratch.leftover_corrupt = leftover_corrupt;

        // --- return pushed-back events to their cursors, in ts order ---
        if !pushback.is_empty() {
            // Stable-sorted by (radio, ts): each radio's events form one
            // run, globally ts-ordered within the run exactly as the old
            // ts-only sort + per-radio map produced — but with no per-flush
            // map allocation. Runs are peeled off the tail so the drains
            // never shift elements.
            pushback.sort_by_key(|c| (c.radio, c.ev.ts_local));
            while let Some(last) = pushback.last() {
                let r = last.radio;
                let mut i = pushback.len();
                while i > 0 && pushback[i - 1].radio == r {
                    i -= 1;
                }
                // The current head (if any) came *after* these events.
                if let Some(h) = self.cursors[r].head.take() {
                    self.cursors[r].pending.push_front(h);
                }
                for c in pushback.drain(i..).rev() {
                    self.stats.events_in -= 1; // they will be counted again
                    self.resident += 1; // back into a cursor queue
                    self.cursors[r].pending.push_front(c.ev);
                }
                let _ = self.push_head(r);
            }
        }
        self.scratch.pushback = pushback;
    }

    fn finish_group(&mut self, group: &mut Vec<Candidate>) {
        debug_assert!(!group.is_empty());
        // Re-translate instance timestamps with the *current* clock state:
        // corrections applied while finishing earlier groups of the same
        // search-window batch must reach later groups (the paper's Figure 3
        // adjusts frames still sitting in the radio queues).
        for c in group.iter_mut() {
            c.univ = self.clocks[c.radio].to_universal(c.ev.ts_local);
        }
        group.sort_by_key(|c| (c.univ, c.ev.radio, c.ev.ts_local));
        let n = group.len();
        // Median and dispersion are computed over the FCS-valid instances:
        // corrupt attachments come from radios whose clocks nothing ever
        // corrects (only unique frames drive sync), so their timestamps
        // must not pollute the jframe's placement (lower middle for even
        // sizes).
        let mut ok_ts = std::mem::take(&mut self.scratch.ok_ts);
        ok_ts.extend(
            group
                .iter()
                .filter(|c| c.ev.status == PhyStatus::Ok)
                .map(|c| c.univ),
        );
        let (median, dispersion) = if ok_ts.is_empty() {
            (group[(n - 1) / 2].univ, group[n - 1].univ - group[0].univ)
        } else {
            (
                ok_ts[(ok_ts.len() - 1) / 2],
                ok_ts[ok_ts.len() - 1] - ok_ts[0],
            )
        };
        ok_ts.clear();
        self.scratch.ok_ts = ok_ts;

        // Representative: FCS-valid instance with the most bytes.
        let rep = group
            .iter()
            .filter(|c| c.ev.status == PhyStatus::Ok)
            .max_by_key(|c| c.ev.bytes.len())
            .unwrap_or(&group[0]);
        let valid = rep.ev.status == PhyStatus::Ok;
        let unique = is_sync_reference(&rep.ev);
        // O(1) handle clone, never a byte copy (tidy: payload-no-clone).
        let bytes = rep.ev.bytes.handle();
        let wire_len = rep.ev.wire_len;
        let rate = rep.ev.rate;
        let channel = self.channel_of(rep.radio);

        // Resynchronize using this jframe if it qualifies (paper: only
        // unique frames drive synchronization; only when the group
        // dispersion exceeds the threshold, to bound overhead).
        let ok_count = group
            .iter()
            .filter(|c| c.ev.status == PhyStatus::Ok)
            .count();
        if self.cfg.resync_enabled
            && unique
            && ok_count >= 2
            && dispersion >= self.cfg.resync_threshold_us
        {
            for c in group.iter() {
                if c.ev.status != PhyStatus::Ok {
                    continue;
                }
                let err = c.univ as f64 - median as f64;
                self.clocks[c.radio].correct(err, c.ev.ts_local);
                self.stats.resyncs += 1;
            }
        }

        if n >= 2 {
            self.stats.instances_unified += ok_count as u64;
        }
        // Groups hold FCS-valid instances and the corrupt ones attached.
        self.stats.corrupt_attached += (n - ok_count) as u64;
        let instances = group
            .drain(..)
            .map(|c| Instance {
                radio: c.ev.radio,
                ts_local: c.ev.ts_local,
                ts_universal: c.univ,
                rssi_dbm: c.ev.rssi_dbm,
                status: c.ev.status,
            })
            .collect();
        let jf = JFrame {
            ts: median,
            bytes,
            wire_len,
            rate,
            channel,
            instances,
            dispersion,
            valid,
            unique,
        };
        self.emit(jf);
    }
}

fn group_transmitter(g: &[Candidate]) -> Option<MacAddr> {
    g.iter()
        .find_map(|c| FrameHeader::decode(&c.ev.bytes).and_then(|h| h.addr2))
}

fn singleton_jframe(c: &Candidate, channel: Channel) -> JFrame {
    JFrame {
        ts: c.univ,
        // O(1) handle clone, never a byte copy (tidy: payload-no-clone).
        bytes: c.ev.bytes.handle(),
        wire_len: c.ev.wire_len,
        rate: c.ev.rate,
        channel,
        instances: Instances::one(Instance {
            radio: c.ev.radio,
            ts_local: c.ev.ts_local,
            ts_universal: c.univ,
            rssi_dbm: c.ev.rssi_dbm,
            status: c.ev.status,
        }),
        dispersion: 0,
        valid: false,
        unique: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::fc::FcFlags;
    use jigsaw_ieee80211::frame::{DataFrame, Frame};
    use jigsaw_ieee80211::wire::serialize_frame;
    use jigsaw_ieee80211::{Channel, PhyRate, SeqNum};
    use jigsaw_trace::stream::MemoryStream;
    use jigsaw_trace::{MonitorId, RadioId, RadioMeta};

    fn meta(radio: u16) -> RadioMeta {
        RadioMeta {
            radio: RadioId(radio),
            monitor: MonitorId(radio / 2),
            channel: Channel::of(1),
            anchor_wall_us: 0,
            anchor_local_us: 0,
        }
    }

    fn frame_bytes(seq: u16, body_len: usize) -> Vec<u8> {
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
            body: vec![seq as u8; body_len],
        }))
    }

    fn ev(radio: u16, ts: u64, bytes: Vec<u8>, status: PhyStatus) -> PhyEvent {
        ev_on(radio, ts, 1, bytes, status)
    }

    fn ev_on(radio: u16, ts: u64, chan: u8, bytes: Vec<u8>, status: PhyStatus) -> PhyEvent {
        let len = bytes.len() as u32;
        PhyEvent {
            radio: RadioId(radio),
            ts_local: ts,
            channel: Channel::of(chan),
            rate: PhyRate::R11,
            rssi_dbm: -50,
            status,
            wire_len: len,
            bytes: bytes.into(),
        }
    }

    fn meta_on(radio: u16, chan: u8) -> RadioMeta {
        RadioMeta {
            channel: Channel::of(chan),
            ..meta(radio)
        }
    }

    fn run_merge(
        streams: Vec<MemoryStream>,
        offsets: &[i64],
        cfg: MergeConfig,
    ) -> (Vec<JFrame>, MergeStats) {
        let merger = Merger::new(streams, offsets, cfg);
        let mut out = Vec::new();
        let stats = merger.run(|jf| out.push(jf)).unwrap();
        (out, stats)
    }

    #[test]
    fn duplicates_unify_into_one_jframe() {
        let f = frame_bytes(1, 50);
        let s0 = MemoryStream::new(meta(0), vec![ev(0, 1000, f.clone(), PhyStatus::Ok)]);
        let s1 = MemoryStream::new(meta(1), vec![ev(1, 1003, f.clone(), PhyStatus::Ok)]);
        let s2 = MemoryStream::new(meta(2), vec![ev(2, 998, f, PhyStatus::Ok)]);
        let (out, stats) = run_merge(vec![s0, s1, s2], &[0, 0, 0], MergeConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instance_count(), 3);
        assert_eq!(out[0].ts, 1000); // median of {998, 1000, 1003}
        assert_eq!(out[0].dispersion, 5);
        assert!(out[0].valid);
        assert_eq!(stats.jframes_out, 1);
    }

    #[test]
    fn distinct_content_stays_separate() {
        let fa = frame_bytes(1, 50);
        let fb = frame_bytes(2, 50);
        let s0 = MemoryStream::new(
            meta(0),
            vec![
                ev(0, 1000, fa.clone(), PhyStatus::Ok),
                ev(0, 1500, fb.clone(), PhyStatus::Ok),
            ],
        );
        let s1 = MemoryStream::new(
            meta(1),
            vec![
                ev(1, 1001, fa, PhyStatus::Ok),
                ev(1, 1501, fb, PhyStatus::Ok),
            ],
        );
        let (out, _) = run_merge(vec![s0, s1], &[0, 0], MergeConfig::default());
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|j| j.instance_count() == 2));
        // Output is time-ordered.
        assert!(out[0].ts < out[1].ts);
    }

    #[test]
    fn identical_acks_apart_in_time_do_not_merge() {
        // Two ACK transmissions with byte-identical content 5 ms apart,
        // within the 10 ms search window.
        let ack = serialize_frame(&Frame::Ack {
            duration: 0,
            ra: MacAddr::local(7, 7),
        });
        let s0 = MemoryStream::new(
            meta(0),
            vec![
                ev(0, 1_000, ack.clone(), PhyStatus::Ok),
                ev(0, 6_000, ack.clone(), PhyStatus::Ok),
            ],
        );
        let s1 = MemoryStream::new(
            meta(1),
            vec![
                ev(1, 1_002, ack.clone(), PhyStatus::Ok),
                ev(1, 6_001, ack, PhyStatus::Ok),
            ],
        );
        let (out, _) = run_merge(vec![s0, s1], &[0, 0], MergeConfig::default());
        assert_eq!(out.len(), 2, "got {out:#?}");
        assert!(out.iter().all(|j| j.instance_count() == 2));
    }

    #[test]
    fn offsets_applied_before_matching() {
        // Radio 1's clock is 1 s ahead; bootstrap offset compensates.
        let f = frame_bytes(3, 60);
        let s0 = MemoryStream::new(meta(0), vec![ev(0, 5_000, f.clone(), PhyStatus::Ok)]);
        let s1 = MemoryStream::new(meta(1), vec![ev(1, 1_005_004, f, PhyStatus::Ok)]);
        let (out, _) = run_merge(vec![s0, s1], &[0, 1_000_000], MergeConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instance_count(), 2);
        assert_eq!(out[0].dispersion, 4);
    }

    #[test]
    fn corrupt_instance_attached_by_transmitter() {
        let f = frame_bytes(4, 80);
        // Corrupted copy: flip a body byte (transmitter address intact).
        let mut corrupted = f.clone();
        let n = corrupted.len();
        corrupted[n - 6] ^= 0xff;
        let s0 = MemoryStream::new(meta(0), vec![ev(0, 2_000, f, PhyStatus::Ok)]);
        let s1 = MemoryStream::new(meta(1), vec![ev(1, 2_003, corrupted, PhyStatus::FcsError)]);
        let (out, stats) = run_merge(vec![s0, s1], &[0, 0], MergeConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instance_count(), 2);
        assert!(out[0].valid);
        assert_eq!(stats.corrupt_attached, 1);
        // Contents come from the valid instance.
        assert!(jigsaw_ieee80211::wire::parse_frame(&out[0].bytes).is_ok());
    }

    #[test]
    fn orphan_corrupt_becomes_singleton_error() {
        let mut garbled = frame_bytes(5, 40);
        garbled[0] ^= 0x0f;
        let s0 = MemoryStream::new(meta(0), vec![ev(0, 3_000, garbled, PhyStatus::FcsError)]);
        let (out, stats) = run_merge(vec![s0], &[0], MergeConfig::default());
        assert_eq!(out.len(), 1);
        assert!(!out[0].valid);
        assert_eq!(stats.singleton_errors, 1);
    }

    #[test]
    fn phy_errors_pass_through() {
        let mut e = ev(0, 4_000, vec![], PhyStatus::PhyError);
        e.wire_len = 0;
        let s0 = MemoryStream::new(meta(0), vec![e]);
        let (out, _) = run_merge(vec![s0], &[0], MergeConfig::default());
        assert_eq!(out.len(), 1);
        assert!(!out[0].valid);
        assert_eq!(out[0].instance_count(), 1);
    }

    #[test]
    fn resync_corrects_drifting_clock() {
        // Radio 1 drifts +40 µs over the run; shared unique frames let the
        // merger pull it back so late frames still unify.
        let mut ev0 = Vec::new();
        let mut ev1 = Vec::new();
        for k in 0..200u64 {
            let t = 10_000 + k * 20_000; // every 20 ms
            let f = frame_bytes((k % 4000) as u16, 64);
            ev0.push(ev(0, t, f.clone(), PhyStatus::Ok));
            // Radio 1 runs fast: +10 ppm → +0.2 µs per 20 ms, cumulative.
            let drifted = t + (k * 20_000) / 50_000;
            ev1.push(ev(1, drifted, f, PhyStatus::Ok));
        }
        let s0 = MemoryStream::new(meta(0), ev0);
        let s1 = MemoryStream::new(meta(1), ev1);
        let cfg = MergeConfig {
            resync_threshold_us: 5,
            ..MergeConfig::default()
        };
        let (out, stats) = run_merge(vec![s0, s1], &[0, 0], cfg);
        assert_eq!(out.len(), 200);
        assert!(out.iter().all(|j| j.instance_count() == 2), "lost sync");
        assert!(stats.resyncs > 0);
        // Dispersion stays bounded despite 80 µs of accumulated drift.
        let max_disp = out.iter().map(|j| j.dispersion).max().unwrap();
        assert!(max_disp <= 40, "max dispersion {max_disp}");
    }

    #[test]
    fn resync_disabled_lets_drift_accumulate() {
        let mut ev0 = Vec::new();
        let mut ev1 = Vec::new();
        for k in 0..200u64 {
            let t = 10_000 + k * 20_000;
            let f = frame_bytes((k % 4000) as u16, 64);
            ev0.push(ev(0, t, f.clone(), PhyStatus::Ok));
            let drifted = t + (k * 20_000) / 50_000;
            ev1.push(ev(1, drifted, f, PhyStatus::Ok));
        }
        let s0 = MemoryStream::new(meta(0), ev0);
        let s1 = MemoryStream::new(meta(1), ev1);
        let cfg = MergeConfig {
            resync_enabled: false,
            ..MergeConfig::default()
        };
        let (out, stats) = run_merge(vec![s0, s1], &[0, 0], cfg);
        assert_eq!(stats.resyncs, 0);
        let max_disp = out.iter().map(|j| j.dispersion).max().unwrap();
        assert!(max_disp >= 70, "drift should accumulate: {max_disp}");
    }

    #[test]
    fn same_radio_never_twice_in_one_jframe() {
        // The same radio reports identical content twice in quick
        // succession (pathological); they must become two jframes.
        let f = frame_bytes(6, 30);
        let s0 = MemoryStream::new(
            meta(0),
            vec![
                ev(0, 1_000, f.clone(), PhyStatus::Ok),
                ev(0, 1_050, f.clone(), PhyStatus::Ok),
            ],
        );
        let s1 = MemoryStream::new(meta(1), vec![ev(1, 1_001, f, PhyStatus::Ok)]);
        let (out, _) = run_merge(vec![s0, s1], &[0, 0], MergeConfig::default());
        assert_eq!(out.len(), 2);
        for j in &out {
            let radios: std::collections::HashSet<_> =
                j.instances.iter().map(|i| i.radio).collect();
            assert_eq!(radios.len(), j.instance_count());
        }
    }

    #[test]
    fn identical_content_on_different_channels_stays_separate() {
        // Byte-identical captures on channels 1 and 6 at nearly the same
        // time: physically two transmissions (a radio on channel 6 cannot
        // hear a channel-1 frame), so they must become two jframes.
        let f = frame_bytes(9, 44);
        let s0 = MemoryStream::new(
            meta_on(0, 1),
            vec![ev_on(0, 1_000, 1, f.clone(), PhyStatus::Ok)],
        );
        let s1 = MemoryStream::new(meta_on(1, 6), vec![ev_on(1, 1_002, 6, f, PhyStatus::Ok)]);
        let (out, stats) = run_merge(vec![s0, s1], &[0, 0], MergeConfig::default());
        assert_eq!(out.len(), 2, "cross-channel merge: {out:#?}");
        assert!(out.iter().all(|j| j.instance_count() == 1));
        assert_eq!(out[0].channel, Channel::of(1));
        assert_eq!(out[1].channel, Channel::of(6));
        assert_eq!(stats.instances_unified, 0);
    }

    #[test]
    fn corrupt_instance_on_other_channel_not_attached() {
        let f = frame_bytes(4, 80);
        let mut corrupted = f.clone();
        let n = corrupted.len();
        corrupted[n - 6] ^= 0xff;
        let s0 = MemoryStream::new(meta_on(0, 1), vec![ev_on(0, 2_000, 1, f, PhyStatus::Ok)]);
        let s1 = MemoryStream::new(
            meta_on(1, 6),
            vec![ev_on(1, 2_003, 6, corrupted, PhyStatus::FcsError)],
        );
        let (out, stats) = run_merge(vec![s0, s1], &[0, 0], MergeConfig::default());
        assert_eq!(out.len(), 2);
        assert_eq!(stats.corrupt_attached, 0);
        assert_eq!(stats.singleton_errors, 1);
    }

    #[test]
    fn even_group_median_uses_lower_middle() {
        // Four instances at 1000/1002/1004/1010: the jframe must sit at the
        // lower-middle instance (1002), never the upper-middle (1004).
        let f = frame_bytes(7, 50);
        let streams: Vec<MemoryStream> = [1000u64, 1002, 1004, 1010]
            .iter()
            .enumerate()
            .map(|(r, &t)| {
                MemoryStream::new(
                    meta(r as u16),
                    vec![ev(r as u16, t, f.clone(), PhyStatus::Ok)],
                )
            })
            .collect();
        let cfg = MergeConfig {
            resync_enabled: false,
            ..MergeConfig::default()
        };
        let (out, _) = run_merge(streams, &[0, 0, 0, 0], cfg);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instance_count(), 4);
        assert_eq!(out[0].ts, 1002);
        assert_eq!(out[0].dispersion, 10);
    }

    #[test]
    fn corrupt_attach_distance_measured_from_lower_middle_median() {
        // Even-sized valid group at {1000, 1900}: lower-middle median is
        // 1000. A corrupt copy at 2050 is 1050 µs away — outside the 1000 µs
        // merge gap — and must NOT attach. (The old upper-middle convention
        // measured 150 µs from 1900 and attached it, disagreeing with where
        // the jframe is actually placed.)
        let f = frame_bytes(8, 80);
        let mut corrupted = f.clone();
        let n = corrupted.len();
        corrupted[n - 6] ^= 0xff;
        let cfg = MergeConfig {
            resync_enabled: false,
            ..MergeConfig::default()
        };
        let s0 = MemoryStream::new(meta(0), vec![ev(0, 1_000, f.clone(), PhyStatus::Ok)]);
        let s1 = MemoryStream::new(meta(1), vec![ev(1, 1_900, f.clone(), PhyStatus::Ok)]);
        let s2 = MemoryStream::new(
            meta(2),
            vec![ev(2, 2_050, corrupted.clone(), PhyStatus::FcsError)],
        );
        let (out, stats) = run_merge(vec![s0, s1, s2], &[0, 0, 0], cfg.clone());
        assert_eq!(stats.corrupt_attached, 0, "attached past the merge gap");
        assert_eq!(stats.singleton_errors, 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, 1_000, "jframe placed at lower-middle median");

        // Same shape, corrupt copy at 1850: 850 µs from the lower-middle
        // median — inside the gap, attaches.
        let s0 = MemoryStream::new(meta(0), vec![ev(0, 1_000, f.clone(), PhyStatus::Ok)]);
        let s1 = MemoryStream::new(meta(1), vec![ev(1, 1_900, f, PhyStatus::Ok)]);
        let s2 = MemoryStream::new(meta(2), vec![ev(2, 1_850, corrupted, PhyStatus::FcsError)]);
        let (out, stats) = run_merge(vec![s0, s1, s2], &[0, 0, 0], cfg);
        assert_eq!(stats.corrupt_attached, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instance_count(), 3);
    }

    /// A group with a corrupt attachment that straddles the emit guard goes
    /// back to its cursors and is re-attached next round: the attachment is
    /// counted once, as the jframe holding it is built, not once per round.
    #[test]
    fn corrupt_attachment_deferred_past_the_guard_counts_once() {
        let (a, b, c) = (frame_bytes(1, 40), frame_bytes(2, 40), frame_bytes(3, 40));
        let mut corrupted = b.clone();
        let n = corrupted.len();
        corrupted[n - 6] ^= 0xff;
        // The window opens at 1 000; `b` at 7 000 is past its guard
        // (1 000 + 10 000 / 2), and `c` keeps the streams from draining.
        let s0 = MemoryStream::new(
            meta(0),
            vec![
                ev(0, 1_000, a, PhyStatus::Ok),
                ev(0, 7_000, b, PhyStatus::Ok),
                ev(0, 50_000, c, PhyStatus::Ok),
            ],
        );
        let s1 = MemoryStream::new(meta(1), vec![ev(1, 7_003, corrupted, PhyStatus::FcsError)]);
        let (out, stats) = run_merge(vec![s0, s1], &[0, 0], MergeConfig::default());
        assert!(stats.pushbacks >= 1, "the group must straddle the guard");
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].instance_count(), 2);
        assert_eq!(stats.corrupt_attached, 1);
        let held: usize = out
            .iter()
            .filter(|jf| jf.valid)
            .flat_map(|jf| jf.instances.iter())
            .filter(|i| i.status == PhyStatus::FcsError)
            .count();
        assert_eq!(stats.corrupt_attached, held as u64);
        let instances: usize = out.iter().map(JFrame::instance_count).sum();
        assert_eq!(stats.events_in, instances as u64);
    }

    #[test]
    fn peak_buffered_tracks_window_not_trace_length() {
        // 100 well-separated rounds across 3 radios: residency must stay a
        // small window's worth of events no matter how long the trace runs.
        let mut streams = Vec::new();
        for r in 0..3u16 {
            let mut evs = Vec::new();
            for k in 0..100u64 {
                let f = frame_bytes((k as u16) % 4000, 32);
                evs.push(ev(r, 1_000 + k * 20_000 + u64::from(r), f, PhyStatus::Ok));
            }
            streams.push(MemoryStream::new(meta(r), evs));
        }
        let (out, stats) = run_merge(streams, &[0, 0, 0], MergeConfig::default());
        assert_eq!(out.len(), 100);
        assert_eq!(stats.events_in, 300);
        assert!(stats.peak_buffered > 0);
        assert!(
            stats.peak_buffered <= 30,
            "peak residency {} should be window-bounded, not trace-bounded",
            stats.peak_buffered
        );
    }

    #[test]
    fn peak_buffered_counts_seeded_prefixes() {
        // A seeded prefix is resident until consumed: the peak must see it.
        let f = frame_bytes(1, 40);
        let seed: Vec<PhyEvent> = (0..50u64)
            .map(|k| ev(0, 1_000 + k, f.clone(), PhyStatus::Ok))
            .collect();
        let s0 = MemoryStream::new(meta(0), vec![ev(0, 500_000, f, PhyStatus::Ok)]);
        let mut merger = Merger::new(vec![s0], &[0], MergeConfig::default());
        merger.seed_pending(0, seed);
        let stats = merger.run(|_| {}).unwrap();
        assert_eq!(stats.events_in, 51);
        assert!(
            stats.peak_buffered >= 50,
            "peak {} must cover the seeded prefix",
            stats.peak_buffered
        );
    }

    #[test]
    fn output_time_ordered() {
        // Interleaved traffic from three radios with small offsets.
        let mut streams = Vec::new();
        for r in 0..3u16 {
            let mut evs = Vec::new();
            for k in 0..50u64 {
                let f = frame_bytes((k as u16) % 4000, 32);
                evs.push(ev(r, 1_000 + k * 3_000 + u64::from(r), f, PhyStatus::Ok));
            }
            streams.push(MemoryStream::new(meta(r), evs));
        }
        let (out, _) = run_merge(streams, &[0, 0, 0], MergeConfig::default());
        assert_eq!(out.len(), 50);
        for w in out.windows(2) {
            assert!(w[0].ts <= w[1].ts, "out of order");
        }
        assert!(out.iter().all(|j| j.instance_count() == 3));
    }

    /// A multi-channel scenario rich enough to exercise unification,
    /// corrupt attach, error singletons, and window rollover: per-radio
    /// sorted event lists plus matching metas.
    fn live_scenario() -> Vec<(RadioMeta, Vec<PhyEvent>)> {
        let metas = [
            meta_on(0, 1),
            meta_on(1, 1),
            meta_on(2, 1),
            meta_on(3, 6),
            meta_on(4, 6),
        ];
        let mut per: Vec<(RadioMeta, Vec<PhyEvent>)> =
            metas.iter().map(|m| (*m, Vec::new())).collect();
        for i in 0..120u64 {
            let t = 1_000 + i * 700;
            let f = frame_bytes((i % 50) as u16, 40 + (i % 13) as usize);
            per[0].1.push(ev_on(0, t, 1, f.clone(), PhyStatus::Ok));
            if i % 2 == 0 {
                per[1]
                    .1
                    .push(ev_on(1, t + 3 + (i % 5), 1, f.clone(), PhyStatus::Ok));
            }
            if i % 3 == 0 {
                per[2].1.push(ev_on(2, t + 7, 1, f, PhyStatus::FcsError));
            }
            if i % 7 == 0 {
                per[2]
                    .1
                    .push(ev_on(2, t + 120, 1, vec![], PhyStatus::PhyError));
            }
            let g = frame_bytes(200 + (i % 31) as u16, 60);
            per[3].1.push(ev_on(3, t + 11, 6, g.clone(), PhyStatus::Ok));
            if i % 2 == 1 {
                per[4].1.push(ev_on(4, t + 13, 6, g, PhyStatus::Ok));
            }
        }
        per
    }

    fn frame_key(jf: &JFrame) -> (Micros, u8, u64, usize) {
        (
            jf.ts,
            jf.channel.number(),
            jf.stable_digest(),
            jf.instance_count(),
        )
    }

    /// A stream fed by a live producer: `release` lets the next events
    /// through, a pull past what has been released pends, and after
    /// `close` the rest flows and the stream ends.
    struct Trickle {
        meta: RadioMeta,
        events: VecDeque<PhyEvent>,
        released: usize,
        closed: bool,
    }

    impl EventStream for Trickle {
        fn meta(&self) -> RadioMeta {
            self.meta
        }

        fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError> {
            Ok(self.events.pop_front())
        }

        fn poll_event(&mut self) -> Result<SourcePoll, FormatError> {
            if self.released > 0 || self.closed {
                if let Some(ev) = self.events.pop_front() {
                    self.released = self.released.saturating_sub(1);
                    return Ok(SourcePoll::Event(ev));
                }
            }
            Ok(if self.closed {
                SourcePoll::End
            } else {
                SourcePoll::Pending
            })
        }
    }

    fn trickled(meta: RadioMeta, events: Vec<PhyEvent>) -> Trickle {
        let events = events.into();
        Trickle {
            meta,
            events,
            released: 0,
            closed: false,
        }
    }

    fn trickle(merger: &mut Merger<Trickle>, radio: usize) -> &mut Trickle {
        &mut merger.cursors[radio].stream
    }

    /// One live round: pull what pended, merge what arrived.
    fn step(merger: &mut Merger<Trickle>, out: &mut Vec<JFrame>) {
        merger.repoll().unwrap();
        merger.advance(|jf, _| out.push(jf)).unwrap();
    }

    #[test]
    fn live_feed_advance_matches_batch_run() {
        let scenario = live_scenario();
        let offsets: Vec<i64> = vec![0, 5, -3, 2, 0];

        // Batch reference: ordinary pull-mode run.
        let streams: Vec<MemoryStream> = scenario
            .iter()
            .map(|(m, evs)| MemoryStream::new(*m, evs.clone()))
            .collect();
        let (batch, batch_stats) = run_merge(streams, &offsets, MergeConfig::default());

        // Live: every stream pends between uneven increments.
        let streams: Vec<Trickle> = scenario
            .iter()
            .map(|(m, evs)| trickled(*m, evs.clone()))
            .collect();
        let mut merger = Merger::new(streams, &offsets, MergeConfig::default());
        let n = scenario.len();
        let mut next = vec![0usize; n];
        let mut out = Vec::new();
        let mut round = 0usize;
        while (0..n).any(|r| next[r] < scenario[r].1.len()) {
            for (r, (_, evs)) in scenario.iter().enumerate() {
                // Uneven increments so arrival boundaries never line up
                // with window boundaries.
                let take = (1 + (round + r) % 3).min(evs.len() - next[r]);
                next[r] += take;
                let s = trickle(&mut merger, r);
                s.released += take;
                s.closed = next[r] == evs.len();
            }
            step(&mut merger, &mut out);
            round += 1;
        }
        let live_stats = merger.run(|jf| out.push(jf)).unwrap();

        assert_eq!(out.len(), batch.len(), "jframe count diverged");
        for (a, b) in out.iter().zip(batch.iter()) {
            assert_eq!(frame_key(a), frame_key(b));
        }
        assert_eq!(live_stats.events_in, batch_stats.events_in);
        assert_eq!(live_stats.jframes_out, batch_stats.jframes_out);
        assert_eq!(live_stats.instances_unified, batch_stats.instances_unified);
        assert_eq!(live_stats.corrupt_attached, batch_stats.corrupt_attached);
        assert_eq!(live_stats.singleton_errors, batch_stats.singleton_errors);
        assert_eq!(live_stats.resyncs, batch_stats.resyncs);
    }

    #[test]
    fn advance_holds_window_open_for_live_radio() {
        // One live radio: a window must not close (and nothing may emit)
        // while the radio pends inside it — later events could still join.
        let f = frame_bytes(1, 40);
        let g = frame_bytes(2, 40);
        let s = trickled(
            meta(0),
            vec![
                ev(0, 1_000, f, PhyStatus::Ok),
                ev(0, 60_000, g, PhyStatus::Ok),
            ],
        );
        let mut merger = Merger::new(vec![s], &[0], MergeConfig::default());
        let mut out = Vec::new();
        trickle(&mut merger, 0).released = 1;
        step(&mut merger, &mut out);
        assert!(out.is_empty(), "emitted inside an open window");

        // An event far beyond the window closes it; the horizon (2×window
        // behind the watermark) then releases the old jframe.
        trickle(&mut merger, 0).released = 1;
        step(&mut merger, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts, 1_000);
        trickle(&mut merger, 0).closed = true;
        let stats = merger.run(|jf| out.push(jf)).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(stats.jframes_out, 2);
    }

    #[test]
    fn closed_radio_lets_channel_finish() {
        // Radio 1 dies mid-run — silent, never ending — and the caller's
        // lag policy declares it: radio 0's channel must keep emitting, and
        // the dead radio's absence must not wedge the final run.
        let evs0: Vec<PhyEvent> = (0..40u64)
            .map(|k| {
                ev(
                    0,
                    1_000 + k * 2_000,
                    frame_bytes(k as u16, 40),
                    PhyStatus::Ok,
                )
            })
            .collect();
        let s0 = trickled(meta(0), evs0);
        let s1 = trickled(meta(1), Vec::new());
        let mut merger = Merger::new(vec![s0, s1], &[0, 0], MergeConfig::default());
        let mut out = Vec::new();
        trickle(&mut merger, 0).released = 40;
        merger.repoll().unwrap();
        // Radio 1 contributed nothing and is declared dead by the caller's
        // lag policy.
        assert!(merger.is_pending(1));
        merger.lag(1);
        merger.advance(|jf, _| out.push(jf)).unwrap();
        // The horizon releases everything 2×window behind the watermark
        // (modulo emit-guard pushbacks near the edge); a stalled merge
        // would have emitted nothing.
        assert!(
            out.len() >= 20,
            "unification stalled behind a dead radio: {} emitted",
            out.len()
        );
        trickle(&mut merger, 0).closed = true;
        let stats = merger.run(|jf| out.push(jf)).unwrap();
        assert_eq!(out.len(), 40);
        assert_eq!(stats.jframes_out, 40);
    }
}
