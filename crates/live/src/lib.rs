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
//! the **safe horizon** is the minimum watermark over all radios that are
//! *live and not lagging*. The live merger guarantees:
//!
//! 1. **Bounded lag** — every jframe whose timestamp is older than
//!    `safe − 2×search_window` has been emitted; nothing older stays
//!    buffered. The `2×` covers a full search window of grouping slack plus
//!    a window of reorder slack between channels.
//! 2. **Paced polling** — the merger reads a live radio only up to that
//!    same `2×search_window` hold-back past the slowest *other* live
//!    radio's watermark, and stops a read mid-batch at the first event
//!    beyond it. Nothing past the slowest watermark can be emitted, so
//!    reading further only moves events from the source into memory. What
//!    is not read stays in the source: on disk for a file tail, in a
//!    bounded channel for a [`ChannelSource`], whose [`LiveSender::send`]
//!    then returns [`SendOutcome::Full`] — explicit back-pressure on the
//!    producer, never silent growth. Merger residency therefore tracks the
//!    search window × traffic rate, not stream length or rate skew between
//!    radios (its floor is the bootstrap window, which every radio must
//!    accumulate once before offsets exist). The bound is derived, not a
//!    knob;
//!    [`LiveConfig::poll_budget`] only caps the work of one round. Lagging
//!    radios are exempt (they must drain to catch up), as is a lone live
//!    radio.
//! 3. **Stall eviction** — a radio that delivers nothing for
//!    [`LiveConfig::max_lag_us`] of wall-clock time is declared *lagging*:
//!    it stops holding the safe horizon back, but its channel stays open.
//!    A radio the merger is *holding* under clause 2 is not silent: its
//!    timer restarts when it is released, so the stalled radio everyone
//!    waits on is the one evicted, not the radios held behind it.
//!    This is the only decision in the crate that consults real time, and
//!    it does so through the [`LiveClock`] trait ([`SystemClock`] in
//!    production, [`ManualClock`] in tests) — everything *emitted* remains
//!    a pure function of the trace bytes.
//! 4. **Re-admission** — a lagging radio rejoins the horizon only once a
//!    poll round delivers events that survive the horizon filter *and*
//!    reach the current safe horizon. Until then it stays lagging: catch-up
//!    events below what has already been emitted are counted
//!    (`late_dropped`) and discarded, and its stale watermark stays out of
//!    the horizon minimum — a deep backlog drains under the filter round by
//!    round, a permanently-behind radio cannot freeze the horizon, and
//!    emission order is never violated.
//! 5. **Re-anchoring** — each time the safe horizon crosses a multiple of
//!    [`LiveConfig::reanchor_interval_us`] past the bootstrap anchor (a
//!    trace-time grid, independent of how polling was paced), every radio
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
pub use merger::{LagStats, LiveConfig, LiveMerger, LiveReport, SourceReport, SourceStatus};
pub use source::{
    ChannelSource, ChunkedFileTail, LiveSender, LiveSource, SendOutcome, SourcePoll,
    CHANNEL_CAPACITY,
};
