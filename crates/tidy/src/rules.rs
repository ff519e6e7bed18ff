//! The source-rule family: per-file token-pattern rules.
//!
//! Each rule is a pure function from a (path, token stream) pair to a list
//! of violations. Unit-test modules (`#[cfg(test)]`) are stripped before
//! rules run — `unwrap()` in a test is the idiom, not a hazard. See the
//! crate docs for the full rule catalogue and rationale.

use crate::lexer::{Tok, TokKind};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path relative to the tree root (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (see [`crate::RULES`]).
    pub rule: &'static str,
    /// What fired and why it matters.
    pub message: String,
}

/// The decode-path files rule 1 guards: every byte they parse may come
/// from a truncated, corrupted, or hostile file — the trace decoders, and
/// the 802.11 header reader that runs on every captured event.
pub const DECODE_PATH_FILES: &[&str] = &[
    "crates/ieee80211/src/wire.rs",
    "crates/trace/src/varint.rs",
    "crates/trace/src/format.rs",
    "crates/trace/src/compress.rs",
    "crates/trace/src/corpus.rs",
    "crates/trace/src/index.rs",
    "crates/trace/src/tail.rs",
];

/// Files whose iteration order feeds jframe ordering, figure `records()`,
/// or corpus digests — the determinism surface rule 2 guards.
pub fn hash_order_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/analysis/src/")
        || rel == "crates/sim/src/wired.rs"
}

/// Allowlist for `unsafe` blocks (rule 4). One audited entry: the bench
/// harness's counting global allocator — `GlobalAlloc` cannot be
/// implemented without `unsafe impl`, and every method there delegates
/// verbatim to `System` (the safety comment in the file carries the full
/// argument). The workspace also denies `unsafe_code` via lints, so an
/// allowlisted file additionally needs a scoped `#[allow(unsafe_code)]`;
/// any future exception must justify itself the same way.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/bench/src/alloc.rs"];

/// Identifiers that legitimately precede `[` without forming an index
/// expression (patterns, array types after keywords).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "return", "break", "continue", "match", "if", "while", "loop", "for", "else",
    "move", "mut", "ref", "static", "const", "dyn", "impl", "where", "as", "pub", "fn", "type",
    "struct", "enum", "union", "use", "mod", "crate", "box", "yield",
];

/// Rule `decode-no-panic`: no `unwrap`/`expect`, no panicking macros, no
/// slice/array indexing in the untrusted decode-path files. Decoding must
/// surface corruption as `Err`, never as a panic — the contract that makes
/// pcap import of arbitrary real-world bytes (ROADMAP) safe to build.
pub fn decode_no_panic(rel: &str, tokens: &[Tok]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            // Index expression: `[` directly after an identifier, `)`, or
            // `]`. Array *types* and *patterns* follow `:`/`=`/keywords and
            // never match; macro calls insert a `!` in between.
            if t.text == "[" && i > 0 {
                let prev = &tokens[i - 1];
                let indexes = match prev.kind {
                    TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if indexes {
                    out.push(Violation {
                        file: rel.into(),
                        line: t.line,
                        rule: "decode-no-panic",
                        message: format!(
                            "slice/array indexing after `{}` can panic on corrupt input; \
                             use `.get(..)` and return a decode error",
                            prev.text
                        ),
                    });
                }
            }
            continue;
        }
        let next_is = |s: &str| tokens.get(i + 1).is_some_and(|n| n.text == s);
        match t.text.as_str() {
            "unwrap" | "expect" if next_is("(") => out.push(Violation {
                file: rel.into(),
                line: t.line,
                rule: "decode-no-panic",
                message: format!(
                    "`{}()` on the decode path panics on corrupt input; return a decode error",
                    t.text
                ),
            }),
            "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
            | "assert_ne"
                if next_is("!") =>
            {
                out.push(Violation {
                    file: rel.into(),
                    line: t.line,
                    rule: "decode-no-panic",
                    message: format!(
                        "`{}!` on the decode path aborts on corrupt input; return a decode \
                         error (debug_assert* is permitted)",
                        t.text
                    ),
                });
            }
            _ => {}
        }
    }
    out
}

/// Rule `hash-order`: no `HashMap`/`HashSet` in determinism-critical files
/// without a waiver documenting why iteration order never escapes (keyed
/// lookup only, or an explicit sort before emission). `BTreeMap`/`BTreeSet`
/// need no waiver — their order is the type's contract.
pub fn hash_order(rel: &str, tokens: &[Tok]) -> Vec<Violation> {
    tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet"))
        .map(|t| Violation {
            file: rel.into(),
            line: t.line,
            rule: "hash-order",
            message: format!(
                "`{}` iteration order is nondeterministic and this file feeds jframe \
                 ordering, figure records, or digests; use BTreeMap/BTreeSet or sort \
                 before emission and waive with the justification",
                t.text
            ),
        })
        .collect()
}

/// Scope of the `wall-clock` rule: everything except `crates/bench` (the
/// harness measures wall time by design) and the live crate's clock module
/// — the one place the live merger's *liveness policy* (`max_lag_us` stall
/// eviction) is allowed to consult real time, behind the `LiveClock`
/// trait. Everything the live merger *emits* remains a pure function of
/// the trace bytes.
pub fn wall_clock_scope(rel: &str) -> bool {
    !rel.starts_with("crates/bench/") && rel != "crates/live/src/clock.rs"
}

/// Rule `wall-clock`: no `SystemTime::now`/`Instant::now`/`thread_rng`
/// outside `crates/bench` and `crates/live/src/clock.rs` (see
/// [`wall_clock_scope`]) — replay determinism means the pipeline's output
/// is a pure function of its inputs; only the harness may look at the
/// clock (for measurements) or at entropy, and only the `LiveClock`
/// boundary may consult it for liveness policy.
pub fn wall_clock(rel: &str, tokens: &[Tok]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "thread_rng" {
            out.push(Violation {
                file: rel.into(),
                line: t.line,
                rule: "wall-clock",
                message: "`thread_rng` outside crates/bench breaks replay determinism; \
                          derive randomness from the scenario seed"
                    .into(),
            });
        }
        if t.text == "now"
            && i >= 3
            && tokens[i - 1].text == ":"
            && tokens[i - 2].text == ":"
            && matches!(tokens[i - 3].text.as_str(), "SystemTime" | "Instant")
        {
            out.push(Violation {
                file: rel.into(),
                line: t.line,
                rule: "wall-clock",
                message: format!(
                    "`{}::now` outside crates/bench breaks replay determinism; \
                     timestamps come from traces, never from the host clock",
                    tokens[i - 3].text
                ),
            });
        }
    }
    out
}

/// Rule `no-unsafe`: no `unsafe` outside [`UNSAFE_ALLOWLIST`]. The
/// workspace lint table already denies `unsafe_code`; this rule keeps the
/// guarantee visible in the tidy census and survives someone deleting the
/// lint table line.
pub fn no_unsafe(rel: &str, tokens: &[Tok]) -> Vec<Violation> {
    if UNSAFE_ALLOWLIST.contains(&rel) {
        return Vec::new();
    }
    tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text == "unsafe")
        .map(|t| Violation {
            file: rel.into(),
            line: t.line,
            rule: "no-unsafe",
            message: "`unsafe` is banned workspace-wide (allowlist is empty); \
                      every invariant in this tree is enforceable in safe Rust"
                .into(),
        })
        .collect()
}

/// Scope of the `payload-no-clone` rule: the merge hot path
/// (`crates/core/src/`) plus the decode-path files — everywhere a
/// `Payload` flows between block decode and jframe emission.
pub fn payload_no_clone_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/") || DECODE_PATH_FILES.contains(&rel)
}

/// Rule `payload-no-clone`: no `.bytes.clone()` / `bytes.to_vec()` on the
/// merge hot path or the decode path. The PR 10 zero-copy contract says
/// payload bytes are decompressed once per block and only *handles* move
/// after that — `Payload::handle()` is the O(1) spelling; a textual
/// `.clone()`/`.to_vec()` on a `bytes` binding is either a byte copy (a
/// regression) or an O(1) clone wearing a byte-copy's name (a trap for
/// the next editor). Export paths that truly need owned bytes waive with
/// the justification.
pub fn payload_no_clone(rel: &str, tokens: &[Tok]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "bytes" {
            continue;
        }
        let (Some(dot), Some(method), Some(paren)) =
            (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3))
        else {
            continue;
        };
        if dot.text == "."
            && method.kind == TokKind::Ident
            && matches!(method.text.as_str(), "clone" | "to_vec")
            && paren.text == "("
        {
            out.push(Violation {
                file: rel.into(),
                line: method.line,
                rule: "payload-no-clone",
                message: format!(
                    "`bytes.{}()` copies payload bytes on the zero-copy path; clone the \
                     O(1) handle with `.handle()`, or waive with the reason the copy \
                     must exist",
                    method.text
                ),
            });
        }
    }
    out
}

/// Rule `no-refcell`: no `RefCell` in the repro binary or the examples —
/// the PR 4 observer contract. `PipelineObserver` takes `&mut self`, so
/// shared-mutability shims in driver code signal an API misuse that the
/// trait was specifically redesigned to remove.
pub fn no_refcell_scope(rel: &str) -> bool {
    rel.starts_with("examples/") || rel.starts_with("crates/bench/src/bin/")
}

/// See [`no_refcell_scope`].
pub fn no_refcell(rel: &str, tokens: &[Tok]) -> Vec<Violation> {
    tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text == "RefCell")
        .map(|t| Violation {
            file: rel.into(),
            line: t.line,
            rule: "no-refcell",
            message: "`RefCell` in repro/examples: the PipelineObserver trait takes \
                      `&mut self` precisely so driver code needs no interior mutability"
                .into(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_cfg_test};

    fn run(rule: fn(&str, &[Tok]) -> Vec<Violation>, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        rule("crates/trace/src/varint.rs", &strip_cfg_test(&lexed.tokens))
    }

    #[test]
    fn index_heuristic_spares_patterns_and_types() {
        let clean = "let [a, b, rest @ ..] = hdr; let x: [u8; 4] = [0; 4]; let v = vec![1, 2];";
        assert!(run(decode_no_panic, clean).is_empty());
        let dirty = "let y = buf[i];";
        assert_eq!(run(decode_no_panic, dirty).len(), 1);
        let chained = "f()[0]";
        assert_eq!(run(decode_no_panic, chained).len(), 1);
    }

    #[test]
    fn unwrap_in_word_or_string_does_not_fire() {
        assert!(run(decode_no_panic, "let s = \"unwrap()\"; x.unwrap_or(0);").is_empty());
        assert_eq!(run(decode_no_panic, "x.unwrap();").len(), 1);
    }

    #[test]
    fn debug_assert_is_permitted() {
        assert!(run(decode_no_panic, "debug_assert_eq!(a, b); debug_assert!(x);").is_empty());
        assert_eq!(run(decode_no_panic, "assert_eq!(a, b);").len(), 1);
    }

    #[test]
    fn wall_clock_matches_paths_only() {
        assert_eq!(run(wall_clock, "let t = Instant::now();").len(), 1);
        assert!(run(wall_clock, "let t = clock.now();").is_empty());
        assert_eq!(run(wall_clock, "let r = thread_rng();").len(), 1);
    }

    #[test]
    fn payload_no_clone_matches_bytes_bindings_only() {
        let run = |src: &str| {
            let lexed = lex(src);
            payload_no_clone("crates/core/src/unify.rs", &strip_cfg_test(&lexed.tokens))
        };
        assert_eq!(run("let b = ev.bytes.clone();").len(), 1);
        assert_eq!(run("let b = bytes.to_vec();").len(), 1);
        // The O(1) handle spelling and non-bytes receivers never fire.
        assert!(run("let b = ev.bytes.handle();").is_empty());
        assert!(run("let m = ev.meta.clone(); let v = buf.to_vec();").is_empty());
        // Words and strings do not fire; a comment mention does not either.
        assert!(run("// about bytes.clone() in docs\nlet s = \"bytes.to_vec()\";").is_empty());
    }

    #[test]
    fn payload_no_clone_scope_is_core_plus_decode_path() {
        assert!(payload_no_clone_scope("crates/core/src/unify.rs"));
        assert!(payload_no_clone_scope("crates/trace/src/format.rs"));
        assert!(!payload_no_clone_scope("crates/sim/src/world/rx.rs"));
        assert!(!payload_no_clone_scope("crates/trace/src/pcap.rs"));
    }

    #[test]
    fn wall_clock_scope_exempts_harness_and_live_clock_only() {
        assert!(wall_clock_scope("crates/core/src/unify.rs"));
        assert!(wall_clock_scope("crates/live/src/merger.rs"));
        assert!(!wall_clock_scope("crates/live/src/clock.rs"));
        assert!(!wall_clock_scope("crates/bench/src/bin/repro.rs"));
    }
}
