//! # jigsaw-live
//!
//! Online ingest for the Jigsaw unification pipeline: per-radio event
//! streams that **arrive incrementally** — growing trace files, in-process
//! channels — merged into a continuous jframe stream by an always-on
//! service with bounded lag. The batch pipeline (`jigsaw_core`) answers
//! "what happened in this recorded corpus?"; this crate answers the same
//! question *while the corpus is still being written*.
//!
//! ## The watermark / lag contract
//!
//! Per-radio delivery is time-ordered, so once a radio has delivered an
//! event at local time `t`, nothing earlier can ever arrive from it. Its
//! **watermark** is the universal image of its last delivered timestamp;
//! the **safe horizon** is where the merge stands — nothing new can arrive
//! below the watermark of any *live* radio that is waiting on its producer,
//! nor below the earliest event already waiting in the merge. The live
//! merger guarantees:
//!
//! 1. **Bounded lag** — every jframe whose timestamp is older than
//!    `safe − 2×search_window` has been emitted; nothing older stays
//!    buffered. The `2×` covers a full search window of grouping slack plus
//!    a window of reorder slack between channels.
//! 2. **Pulled, never read ahead** — each source first fills the batch
//!    pipeline's own bootstrap split ([`jigsaw_core::pipeline::OpenedRadio`]),
//!    then is one of a [`jigsaw_core::unify::Merger`]'s streams, pulled
//!    exactly as a batch merge pulls a stored trace: a radio is read only
//!    when its last event has been consumed, and a pull that finds nothing
//!    pends, its watermark holding the merge back. What is not read stays
//!    in the source: on disk for a file tail, in a bounded channel for a
//!    [`ChannelSource`], whose [`LiveSender::send`] then returns
//!    [`SendOutcome::Full`] — back-pressure, never silent growth. Residency
//!    is the batch merge's (the bootstrap window, seeded exactly as batch
//!    seeds it, or the search window × traffic rate), never stream length
//!    or rate skew: over a finished corpus, live and batch `peak_buffered`
//!    are equal. There is no knob.
//! 3. **Stall eviction** — a live radio that stays pending for
//!    [`LiveConfig::max_lag_us`] of wall-clock time is declared *lagging*:
//!    it stops holding the merge back, but its channel stays open. A radio
//!    whose event is waiting in the merge is not being read, so it is never
//!    silent: the stalled radio everyone waits on is the one evicted, not
//!    the radios waiting behind it.
//!    This is the only decision in the crate that consults real time, and
//!    it does so through the [`LiveClock`] trait ([`SystemClock`] in
//!    production, [`ManualClock`] in tests) — everything *emitted* remains
//!    a pure function of the trace bytes.
//! 4. **Re-admission** — a lagging radio rejoins the horizon only once it
//!    delivers an event at or above the current safe horizon. Until then it
//!    stays lagging: catch-up events below what has already been emitted
//!    (the horizon less one search window) are counted (`late_dropped`) and
//!    discarded, and its stale watermark holds nothing back — a deep
//!    backlog drains under the filter, a permanently-behind radio cannot
//!    freeze the horizon, and emission order is never violated.
//! 5. **Re-anchoring** — each time the safe horizon crosses a multiple of
//!    [`LiveConfig::reanchor_interval_us`] past the bootstrap anchor (a
//!    trace-time grid, independent of when sources pended), every radio
//!    whose clock took **no** resync correction since the previous
//!    crossing is checked: the offset bootstrap re-runs over the radios'
//!    recent events and re-anchors those that drifted past
//!    [`LiveConfig::reanchor_drift_us`] (shifts of `2×search_window` or
//!    more are rejected as glitches). A clock continuous resynchronization
//!    is still correcting is never touched — it is already tracked more
//!    tightly than a fresh bootstrap can estimate — so on a healthy mesh
//!    re-anchoring never fires.
//! 6. **Chunking invariance** — when nothing lags and no re-anchor fires,
//!    the emitted jframe sequence (count, order,
//!    [`jigsaw_core::JFrame::stable_digest`]) is identical to a batch merge
//!    of the same events, for *every* chunking of the input bytes. This is
//!    the equivalence `repro tail --verify` and the chunk-invariance
//!    proptests pin in CI; `--verify` names any re-anchors applied and
//!    lagged sources when it fails, so the two documented exceptions are
//!    distinguishable from a bug.
//!
//! ## Layout
//!
//! * [`source`] — the [`LiveSource`] trait and its implementations:
//!   [`ChunkedFileTail`] (tail a growing trace file in arbitrary-size
//!   chunks, decoding each block as it completes) and [`ChannelSource`]
//!   (bounded in-process channel);
//! * [`merger`] — [`LiveMerger`], the bootstrap → stream → lag → re-anchor
//!   driver and the only one that tails sources (a finished corpus is
//!   `Pipeline::run`'s job), and its [`LiveReport`]; it fails with the
//!   batch pipeline's own [`jigsaw_core::pipeline::PipelineError`];
//! * [`clock`] — [`LiveClock`] and friends: the wall-clock boundary.
//!
//! ## Quickstart
//!
//! ```no_run
//! use jigsaw_live::{ChunkedFileTail, LiveConfig, LiveMerger, SystemClock};
//! use std::path::Path;
//!
//! let mut lm = LiveMerger::new(LiveConfig::default(), SystemClock::new());
//! for name in ["r000.jigt", "r001.jigt"] {
//!     // `open` replays a finished recording (EOF = end); for files still
//!     // being written, use `ChunkedFileTail::follow` (EOF = live edge),
//!     // drive with `LiveMerger::step`, and `stop()` the tails via
//!     // `LiveMerger::sources_mut` once the writers exit.
//!     lm.add_source(ChunkedFileTail::open(Path::new(name), 64 * 1024)?);
//! }
//! let report = lm.run(|jframe| {
//!     // Each unified jframe arrives here, in timestamp order, no later
//!     // than 2×search_window behind the slowest live radio.
//!     let _ = jframe.ts;
//! })?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod clock;
pub mod merger;
pub mod source;

pub use clock::{LiveClock, ManualClock, SystemClock};
pub use jigsaw_trace::stream::SourcePoll;
pub use merger::{LagStats, LiveConfig, LiveMerger, LiveReport, SourceReport, SourceStatus};
pub use source::{
    ChannelSource, ChunkedFileTail, LiveSender, LiveSource, SendOutcome, CHANNEL_CAPACITY,
};
