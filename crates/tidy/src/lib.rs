//! `jigsaw-tidy`: the project-invariant static-analysis pass.
//!
//! The repo's load-bearing guarantees — serial ≡ sharded determinism,
//! golden-record reproducibility, decode-never-panics — were previously
//! enforced only dynamically (proptests, sweep goldens), so a regression
//! surfaced one CI matrix job and one blessed golden too late. This crate
//! enforces them *statically*, at the source level, the way
//! rust-lang/rust's `tidy` pass enforces repo invariants: a token-level
//! lexer (no compiler dependency, fully offline), a rule registry, and
//! per-rule inline waivers that must carry a written reason.
//!
//! # Rule catalogue
//!
//! **Source rules** (token patterns over `#[cfg(test)]`-stripped files):
//!
//! * `decode-no-panic` — no `unwrap`/`expect`, no panicking macros
//!   (`panic!`, `assert!`, `todo!`, …; `debug_assert*` permitted), and no
//!   slice/array indexing in the untrusted decode path
//!   (`crates/trace/src/{varint,format,compress,corpus,index,tail}.rs`
//!   and the 802.11 frame reader `crates/ieee80211/src/wire.rs`).
//!   *Rationale:* decoding must surface truncated or corrupt input as
//!   `Err`, never as a panic — the precondition for the ROADMAP's pcap
//!   import of arbitrary real-world bytes.
//! * `hash-order` — no `HashMap`/`HashSet` in code feeding jframe
//!   ordering, figure `records()`, or digests (`crates/core/src/`,
//!   `crates/analysis/src/`, `crates/sim/src/wired.rs`) without a waiver
//!   documenting why iteration order never escapes (keyed lookup only, or
//!   an explicit sort before emission). *Rationale:* the PR 6 determinism
//!   rework made serial ≡ sharded a construction, not an accident; this
//!   rule keeps every future `HashMap` an explicit, justified decision.
//! * `wall-clock` — no `SystemTime::now`/`Instant::now`/`thread_rng`
//!   outside `crates/bench` and `crates/live/src/clock.rs`. *Rationale:*
//!   replay output must be a pure function of the trace bytes; only the
//!   bench harness may consult the host clock or entropy, and the live
//!   crate's *liveness policy* (stall eviction after `max_lag_us`) may do
//!   so solely through the `LiveClock` trait defined in that one file —
//!   what the live merger *emits* stays deterministic.
//! * `no-unsafe` — no `unsafe` outside [`rules::UNSAFE_ALLOWLIST`],
//!   whose one audited entry is the bench harness's counting global
//!   allocator (`GlobalAlloc` is an `unsafe` trait; every method there
//!   delegates verbatim to `System`). *Rationale:* everything this tree
//!   proves is provable in safe Rust; the workspace lint table already
//!   denies `unsafe_code`, and the rule keeps the guarantee visible in
//!   the census.
//! * `no-refcell` — no `RefCell` in `examples/` or the repro bins.
//!   *Rationale:* the PR 4 `PipelineObserver` trait takes `&mut self`
//!   precisely so driver code needs no interior-mutability shims.
//! * `payload-no-clone` — no `.bytes.clone()` / `bytes.to_vec()` in
//!   `crates/core/src/` or the decode-path files. *Rationale:* the
//!   PR 10 zero-copy payload path decompresses each block once and moves
//!   only `Payload` *handles* afterwards (`Payload::handle()` is the
//!   O(1) spelling); a textual byte-copy on the hot path is either a
//!   performance regression or a misleading name for a refcount bump.
//!   The rare owned-bytes need (export boundaries) carries a waiver.
//!
//! **Cross-artifact rules** (see [`consistency`]):
//!
//! * `sweep-coverage` — `ScenarioSpec::sweep_matrix()` names,
//!   `.github/golden/sweep/*.golden` stems, and the CI sweep matrix list
//!   agree exactly, in all directions.
//! * `figure-golden` — every figure name defined in `crates/analysis`
//!   appears as `record <name>.…` lines in every sweep golden;
//!   conditionally-registered figures carry a waiver at their
//!   `fn name()`.
//! * `detector-golden` — every detector name defined in
//!   `crates/diagnose` appears as a `detector <name> …` outcome line in
//!   the blessed diagnosis golden, and every outcome line names a
//!   detector that still exists — both directions, so growing the
//!   catalogue and retiring a detector each force a re-bless.
//! * `manifest-version` — the `MANIFEST_MAGIC` constant and the
//!   `` `JIGC N` `` mentions in `corpus.rs` module docs agree.
//!
//! **Meta rule:**
//!
//! * `waiver-hygiene` — a waiver must be well-formed
//!   (`tidy:allow(rule): reason`), must name a registered rule, and must
//!   suppress at least one violation. Stale waivers are violations, so
//!   the waiver ledger cannot rot. This rule cannot itself be waived.
//!
//! # Waiver policy
//!
//! `// tidy:allow(rule-name): reason` covers its own line and the next;
//! `// tidy:allow-file(rule-name): reason` covers the file. The reason is
//! mandatory and should state the *invariant* that makes the exception
//! safe ("sorted before emission", "input is in-memory and trusted"), not
//! merely restate the code. CI counts waivers per rule in the step
//! summary, so the ledger is visible on every push.

pub mod consistency;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod waiver;

pub use engine::{check_source, check_tree, Report};
pub use rules::Violation;

/// One registered rule: its census name and a one-line summary.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The name used in waivers, violations, and the census.
    pub name: &'static str,
    /// One-line summary for `--list-rules`.
    pub summary: &'static str,
}

/// The rule registry, in census order. A waiver naming a rule not listed
/// here is a `waiver-hygiene` violation.
pub const RULES: &[Rule] = &[
    Rule {
        name: "decode-no-panic",
        summary: "no unwrap/expect/panicking macros/indexing in the decode path",
    },
    Rule {
        name: "hash-order",
        summary: "no HashMap/HashSet in determinism-critical code without a justified waiver",
    },
    Rule {
        name: "wall-clock",
        summary:
            "no SystemTime::now/Instant::now/thread_rng outside crates/bench and live's LiveClock",
    },
    Rule {
        name: "no-unsafe",
        summary: "no unsafe outside the allowlist (sole entry: the counting allocator)",
    },
    Rule {
        name: "no-refcell",
        summary: "no RefCell in examples or repro bins (PipelineObserver takes &mut self)",
    },
    Rule {
        name: "payload-no-clone",
        summary: "no bytes.clone()/bytes.to_vec() on the zero-copy payload path",
    },
    Rule {
        name: "sweep-coverage",
        summary: "sweep_matrix() names, sweep goldens, and the CI matrix agree exactly",
    },
    Rule {
        name: "figure-golden",
        summary: "every figure name appears in every sweep golden's record lines",
    },
    Rule {
        name: "detector-golden",
        summary: "detector names and the diagnosis golden's outcome lines agree both ways",
    },
    Rule {
        name: "manifest-version",
        summary: "MANIFEST_MAGIC agrees with the `JIGC N` mentions in corpus.rs docs",
    },
    Rule {
        name: "waiver-hygiene",
        summary: "waivers are well-formed, name a real rule, and suppress something",
    },
];
