//! # jigsaw-core
//!
//! The Jigsaw system itself (SIGCOMM 2006): merging hundreds of passive
//! per-radio traces into one globally synchronized view, then reconstructing
//! link-layer and transport-layer conversations from it.
//!
//! The crate mirrors the paper's architecture:
//!
//! * [`mod@sync::bootstrap`] — **bootstrap synchronization** (§4.1): find
//!   content-unique reference frames heard by multiple radios in the first
//!   (NTP-delimited) second of each trace, build overlapping synchronization
//!   sets, and BFS a consistent per-radio clock offset, bridging channels
//!   through monitors whose two radios share a single clock;
//! * [`sync::clock`] — per-radio clock state during merging: offset, skew,
//!   and an EWMA drift predictor, continuously corrected by unification
//!   (§4.2 "clock adjustment" / "managing skew and drift");
//! * [`unify`] — **frame unification** (§4.2): a single priority queue over
//!   all radio cursors, a search window, content comparison with
//!   short-circuit, transmitter-address matching for corrupted instances,
//!   median timestamps, group dispersion, and opportunistic
//!   resynchronization on every unique frame;
//! * [`link`] — **link-layer reconstruction** (§5.1): jframes → transmission
//!   attempts (CTS-to-self + DATA + ACK, paired via the Duration field) →
//!   frame exchanges (retry coalescing by sequence-number delta, the
//!   R1–R4 rules, inference for missing frames);
//! * [`transport`] — **transport reconstruction** (§5.2): TCP flow
//!   reassembly, covering-ACK delivery oracle, monitor-omission inference,
//!   and wireless/wired loss attribution;
//! * [`shard`] — **channel-sharded unification**: radios tuned to
//!   different channels never share a jframe, so the merge partitions by
//!   channel, runs one `Merger` per shard (inline for one shard, else one
//!   thread each), and K-way merges the results back into the serial
//!   emission order;
//! * [`pipeline`] — the single-pass streaming driver tying it together
//!   (requirement 3 of §4: faster than real time, one pass): one entry
//!   point, [`pipeline::Pipeline::run`], whose shard layout is
//!   configuration ([`ShardConfig`], serial by default); its
//!   [`pipeline::EventSource`] abstraction feeds it from in-memory
//!   streams or from an on-disk trace corpus ([`pipeline::CorpusSource`],
//!   whole or time-windowed) with window-bounded memory;
//! * [`observer`] — the pipeline→analysis boundary: a run takes
//!   one [`observer::PipelineObserver`] with default-no-op hooks for
//!   jframes, attempts, exchanges, and flows; closures lift in via the
//!   `On*` adapters and tuples fan one pass out to several analyses;
//! * [`baseline`] — the comparison mergers the benchmarks run against:
//!   a `mergecap`-style local-timestamp merge and a Yeo-style
//!   beacon-reference synchronizer without skew management.

pub mod baseline;
pub mod jframe;
pub mod link;
pub mod observer;
pub mod pipeline;
pub mod shard;
pub mod sync;
pub mod transport;
pub mod unify;

pub use jframe::{Instance, Instances, JFrame};
pub use observer::{OnAttempt, OnExchange, OnFlows, OnJFrame, PipelineObserver};
pub use pipeline::{
    CorpusSource, EventSource, LagStats, Pipeline, PipelineConfig, PipelineReport, PipelineRun,
    RadioReport,
};
pub use shard::ShardConfig;
pub use unify::{MergeConfig, Merger};
