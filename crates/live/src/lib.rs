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
//! 2. **Pulled, never read ahead** — each source is a stream of the
//!    pipeline's one steppable driver ([`jigsaw_core::PipelineRun`]),
//!    pulled into its bootstrap split, then by the serial merger, exactly
//!    as a batch run pulls a stored trace: a radio is read only when its
//!    last event has been consumed, and a pull that finds nothing pends,
//!    its watermark holding the merge back. What is not read stays in the
//!    source — on disk, or in a bounded channel whose
//!    [`LiveSender::send`] returns [`SendOutcome::Full`] — so residency is
//!    the batch merge's: over a finished corpus, live and batch
//!    `peak_buffered` are equal.
//! 3. **Stall eviction** — a live radio that stays pending for
//!    [`LiveConfig::max_lag_us`] of wall-clock time is declared *lagging*:
//!    it stops holding the merge back, but its channel stays open. A radio
//!    whose event is waiting in the merge is not being read, so it is never
//!    silent: the stalled radio everyone waits on is the one evicted.
//!    With the bootstrap rules (no header within `max_lag_us`: dead; a
//!    stall inside the bootstrap window: joins lagging) this is all the
//!    crate decides on real time, asked through [`LiveClock`]
//!    ([`SystemClock`] in production, [`ManualClock`] in tests) once per
//!    step — everything *emitted* remains a function of the trace bytes.
//! 4. **Re-admission** — a lagging radio rejoins the horizon only once it
//!    delivers an event at or above the current safe horizon. Until then it
//!    stays lagging: catch-up events below what has already been emitted
//!    (the horizon less one search window) are counted (`late_dropped`) and
//!    discarded, and its stale watermark holds nothing back — a deep
//!    backlog drains under the filter, a permanently-behind radio cannot
//!    freeze the horizon, and emission order is never violated.
//! 5. **Chunking invariance** — clocks have the batch run's two owners,
//!    and no other: the offset bootstrap starts them and the merger's
//!    continuous resynchronization corrects them. So when nothing lags,
//!    the emitted jframe sequence (count, order,
//!    [`jigsaw_core::JFrame::stable_digest`]) is identical to a batch merge
//!    of the same events, for *every* chunking of the input bytes. A lagged
//!    source is the contract's one exception. This is the equivalence
//!    `repro tail --verify` (the same driver stepped over replayed tails,
//!    which never stall) and the chunk-invariance proptests pin in CI.
//!
//! ## Layout
//!
//! * [`source`] — the [`LiveSource`] trait and its implementations:
//!   [`ChunkedFileTail`] (tail a growing trace file in arbitrary-size
//!   chunks, decoding each block as it completes; once its header is
//!   readable it is also a pipeline source, which is how `repro tail`
//!   steps the driver over a recorded corpus) and [`ChannelSource`]
//!   (bounded in-process channel);
//! * [`merger`] — [`LiveMerger`], the wall-clock pend policy over a
//!   merge-only [`jigsaw_core::PipelineRun`], and its [`LiveReport`],
//!   which derefs to the run's [`jigsaw_core::PipelineReport`]; it fails
//!   with the pipeline's own [`jigsaw_core::pipeline::PipelineError`];
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
//!     // drive with `LiveMerger::step`, and `finish` once the writers
//!     // exit: it reads what they left, then ends.
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
pub use merger::{LiveConfig, LiveMerger, LiveReport, SourceReport, SourceStatus};
pub use source::{
    ChannelSource, ChunkedFileTail, LiveSender, LiveSource, SendOutcome, CHANNEL_CAPACITY,
};
