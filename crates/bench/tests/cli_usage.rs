//! Pins the `repro` binary's exit-code contract: every malformed
//! invocation — no subcommand, an unknown flag or subcommand, a flag value
//! that does not parse, a missing flag value or required flag, a second
//! subcommand, a flag the subcommand would silently ignore, a corpus that
//! cannot be opened — exits 2 with a one-line stderr message,
//! before any simulation starts. Correctness failures — a corpus that
//! fails its digest check among them — exit 1, equally in one line; that
//! split is what CI keys off.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// The invocation must exit `code` with exactly one line on stderr, which
/// is returned.
fn assert_exit(args: &[&str], code: i32) -> String {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(code),
        "{args:?}: expected exit {code}, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?}: expected a one-line message, got:\n{stderr}"
    );
    stderr.into_owned()
}

fn assert_usage_error(args: &[&str]) -> String {
    assert_exit(args, 2)
}

#[test]
fn unparseable_flag_values_exit_2() {
    assert_usage_error(&["--seed", "notanumber", "smoke"]);
    assert_usage_error(&["--scale", "fast", "smoke"]);
    assert_usage_error(&["--threads", "-3", "smoke"]);
    assert_usage_error(&["--block-bytes", "4k", "record"]);
    assert_usage_error(&["--snaplen", "full", "record"]);
    assert_usage_error(&["--from", "late", "merge"]);
    assert_usage_error(&["--to", "never", "merge"]);
    assert_usage_error(&["--max-buffered", "many", "merge"]);
}

#[test]
fn missing_flag_values_exit_2() {
    assert_usage_error(&["--threads"]);
    assert_usage_error(&["--corpus"]);
    assert_usage_error(&["--scenario"]);
    assert_usage_error(&["--golden"]);
}

#[test]
fn unknown_flags_and_subcommands_exit_2() {
    assert_usage_error(&["--bogus-flag"]);
    assert_usage_error(&["definitely-not-a-subcommand"]);
    assert_usage_error(&["smoke", "extra-subcommand"]);
    // The in-tree bench trio is gone (benchmark/ measures from outside):
    // its subcommands and its flag are unknown like any other.
    assert_usage_error(&["bench-merge"]);
    assert_usage_error(&["bench-stream"]);
    assert_usage_error(&["bench-live"]);
    assert_usage_error(&["--out", "BENCH.json", "smoke"]);
    // The re-simulating figure subcommands are gone too: the paper's
    // single-trace figures are `record` then `analyze`.
    for cmd in [
        "all",
        "table1",
        "fig4",
        "fig6",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "link-stats",
    ] {
        let stderr = assert_usage_error(&[cmd]);
        assert!(
            stderr.contains(&format!("unknown subcommand `{cmd}`")),
            "{stderr}"
        );
    }
}

/// `baselines` folded into `ablations` (its Jigsaw and Yeo-style rows were
/// ablation rows; the naive merge is one more): the name is unknown now,
/// and a bare `repro` no longer offers it.
#[test]
fn baselines_is_an_unknown_subcommand() {
    let stderr = assert_usage_error(&["baselines"]);
    assert!(
        stderr.contains("unknown subcommand `baselines`"),
        "{stderr}"
    );
    let stderr = assert_usage_error(&[]);
    assert!(!stderr.contains("baselines"), "{stderr}");
    assert!(stderr.contains("ablations"), "{stderr}");
}

/// A bare `repro` names the subcommands and exits 2 instead of starting a
/// long run nobody asked for.
#[test]
fn no_subcommand_exits_2() {
    for args in [&[][..], &["--seed", "7", "--scale", "0.02"]] {
        let stderr = assert_usage_error(args);
        assert!(stderr.contains("no subcommand"), "{stderr}");
        assert!(stderr.contains("analyze"), "{stderr}");
    }
}

#[test]
fn missing_required_corpus_exits_2() {
    assert_usage_error(&["merge"]);
    assert_usage_error(&["analyze"]);
    assert_usage_error(&["record"]);
    assert_usage_error(&["diagnose"]);
    assert_usage_error(&["tail"]);
}

#[test]
fn tail_shares_the_usage_contract() {
    // The live subcommands ride the same declarative flag table: values
    // validate eagerly, missing values and unknown flags die identically,
    // and the one-subcommand rule holds.
    assert_usage_error(&["--chunk-bytes", "big", "tail"]);
    assert_usage_error(&["--chunk-bytes", "-1", "tail"]);
    assert_usage_error(&["--chunk-bytes"]);
    assert_usage_error(&["tail", "extra-subcommand"]);
}

/// `--threads` only caps the shards of `--parallel`: without it the flag
/// would be silently dropped, so it is a usage error — raised before the
/// corpus is even looked for, so no corpus is needed.
#[test]
fn threads_without_parallel_exits_2() {
    for cmd in ["merge", "analyze", "diagnose"] {
        let stderr = assert_usage_error(&["--threads", "2", cmd, "--corpus", "no-such-dir"]);
        assert!(
            stderr.contains("--threads caps the shards of --parallel"),
            "{cmd}: {stderr}"
        );
    }
}

/// `--verify` and `--max-buffered` gate `merge` and `tail` only: anywhere
/// else they would be accepted and check nothing, so a CI gate written with
/// them would pass vacuously. They are usage errors, raised before the
/// corpus is looked for or a simulation starts.
#[test]
fn gate_flags_outside_merge_and_tail_exit_2() {
    for cmd in ["analyze", "diagnose", "smoke"] {
        for flag in [&["--verify"][..], &["--max-buffered", "600"]] {
            let args = [&[cmd, "--corpus", "no-such-dir"][..], flag].concat();
            let stderr = assert_usage_error(&args);
            assert!(
                stderr.contains(&format!("{cmd}: --verify and --max-buffered check")),
                "{args:?}: {stderr}"
            );
        }
    }
}

/// `--chunk-bytes` sizes `tail`'s chunks only: elsewhere it would be
/// silently ignored, and a chunk of 0 bytes could never deliver anything.
/// Both are usage errors, raised before the corpus is looked for.
#[test]
fn chunk_bytes_outside_tail_or_zero_exits_2() {
    for cmd in ["merge", "analyze", "diagnose"] {
        let stderr = assert_usage_error(&["--chunk-bytes", "4096", cmd, "--corpus", "no-such-dir"]);
        assert!(
            stderr.contains(&format!("{cmd}: --chunk-bytes sizes tail's chunks only")),
            "{cmd}: {stderr}"
        );
    }
    let stderr = assert_usage_error(&["tail", "--chunk-bytes", "0", "--corpus", "no-such-dir"]);
    assert!(
        stderr.contains("--chunk-bytes must be at least 1"),
        "{stderr}"
    );
}

/// `tail` has one driver and replays the whole corpus: the sharded-tail
/// flag, a replay window and the retired lag flag are usage errors — the
/// first two before the corpus is even looked for, so no corpus is needed.
#[test]
fn tail_rejects_what_its_one_driver_does_not_do() {
    let stderr = assert_usage_error(&["tail", "--parallel"]);
    assert!(
        stderr.contains("analyze --corpus DIR --parallel"),
        "{stderr}"
    );
    let stderr = assert_usage_error(&["tail", "--from", "1", "--to", "2"]);
    assert!(stderr.contains("--from/--to"), "{stderr}");
    let stderr = assert_usage_error(&["--max-lag-us", "5", "tail"]);
    assert!(stderr.contains("unknown flag `--max-lag-us`"), "{stderr}");
}

/// A corpus that cannot be opened is a usage error (exit 2); one that is
/// there but fails its digest check is a correctness failure (exit 1).
/// Either way one line, no panic backtrace, on every corpus-reading
/// subcommand.
#[test]
fn corpus_errors_honour_the_exit_code_contract() {
    let dir = std::env::temp_dir().join(format!("jigsaw-cli-usage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = dir.to_str().expect("utf-8 temp path");
    let recorded = repro(&[
        "record",
        "--corpus",
        corpus,
        "--scenario",
        "tiny",
        "--block-bytes",
        "4096",
    ]);
    assert!(recorded.status.success(), "record failed: {recorded:?}");
    // Flip one byte in the middle of a radio trace.
    let victim = dir.join("r000.jigt");
    let mut bytes = std::fs::read(&victim).expect("read trace member");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, bytes).expect("rewrite trace member");

    for cmd in ["merge", "analyze", "tail", "diagnose"] {
        assert_exit(&[cmd, "--corpus", "/nonexistent/jigsaw-corpus"], 2);
        assert_exit(&[cmd, "--corpus", corpus], 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full replay that consumes fewer events than the manifest records is
/// a failed run on every full-replay subcommand — `diagnose`'s one pass
/// included. The manifest is forged (one radio claims an event more) and
/// the digest recomputed, so only the event check can catch it.
#[test]
fn a_replay_short_of_the_manifest_event_count_exits_1() {
    let dir = std::env::temp_dir().join(format!("jigsaw-cli-short-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = dir.to_str().expect("utf-8 temp path");
    let recorded = repro(&["record", "--corpus", corpus, "--scenario", "tiny"]);
    assert!(recorded.status.success(), "record failed: {recorded:?}");
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("read manifest");
    assert!(
        manifest.contains(" events 400 "),
        "tiny radios record 400 events"
    );
    let forged = manifest.replacen(" events 400 ", " events 401 ", 1);
    std::fs::write(dir.join("MANIFEST"), forged).expect("rewrite manifest");
    let digest = jigsaw_trace::corpus::Corpus::open(&dir)
        .and_then(|c| c.compute_digest())
        .expect("recompute digest");
    std::fs::write(dir.join("corpus.digest"), digest).expect("rewrite digest");

    for cmd in ["merge", "analyze", "tail", "diagnose"] {
        assert_exit(&[cmd, "--corpus", corpus], 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A golden that cannot be written is a failed run (exit 1, one `FAIL:`
/// line), not a panic: `--bless` into a path whose parent is a regular
/// file can neither create the directory nor the file.
#[test]
fn unwritable_diagnose_golden_exits_1() {
    let dir = std::env::temp_dir().join(format!("jigsaw-cli-bless-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = dir.join("corpus");
    let corpus = corpus.to_str().expect("utf-8 temp path");
    let recorded = repro(&["record", "--corpus", corpus, "--scenario", "tiny"]);
    assert!(recorded.status.success(), "record failed: {recorded:?}");
    let blocker = dir.join("not-a-directory");
    std::fs::write(&blocker, "a regular file").expect("write blocker");
    let golden = blocker.join("diagnose.golden");
    let golden = golden.to_str().expect("utf-8 temp path");

    let args = [
        "diagnose", "--corpus", corpus, "--golden", golden, "--bless",
    ];
    assert_exit(&args, 1);
    let stderr = repro(&args).stderr;
    assert!(String::from_utf8_lossy(&stderr).starts_with("FAIL: cannot write golden"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corpus that cannot be written is a failed run, not a panic: `record`
/// into a path whose parent is a regular file can create nothing.
#[test]
fn unwritable_record_directory_exits_1() {
    let dir = std::env::temp_dir().join(format!("jigsaw-cli-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let blocker = dir.join("not-a-directory");
    std::fs::write(&blocker, "a regular file").expect("write blocker");
    let corpus = blocker.join("corpus");
    let corpus = corpus.to_str().expect("utf-8 temp path");

    let args = ["record", "--corpus", corpus, "--scenario", "tiny"];
    assert_exit(&args, 1);
    let stderr = repro(&args).stderr;
    assert!(String::from_utf8_lossy(&stderr).starts_with("FAIL: cannot record corpus"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tail` opens the radio members itself, after the digest check: a
/// member cut short of its header (digest recomputed, so only the tail
/// open can notice) or gone altogether fails the run in one `FAIL:` line.
#[test]
fn tail_over_a_truncated_or_missing_member_exits_1() {
    let dir = std::env::temp_dir().join(format!("jigsaw-cli-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = dir.to_str().expect("utf-8 temp path");
    let recorded = repro(&["record", "--corpus", corpus, "--scenario", "tiny"]);
    assert!(recorded.status.success(), "record failed: {recorded:?}");
    let victim = dir.join("r000.jigt");
    let bytes = std::fs::read(&victim).expect("read trace member");
    std::fs::write(&victim, &bytes[..10]).expect("truncate trace member");
    let digest = jigsaw_trace::corpus::Corpus::open(&dir)
        .and_then(|c| c.compute_digest())
        .expect("recompute digest");
    std::fs::write(dir.join("corpus.digest"), digest).expect("rewrite digest");
    let args = ["tail", "--corpus", corpus];
    assert!(assert_exit(&args, 1).starts_with("FAIL: "));
    std::fs::remove_file(&victim).expect("remove trace member");
    assert_exit(&args, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diagnose_shares_the_usage_contract() {
    // The same flag table drives every subcommand: window timestamps
    // validate eagerly even though diagnose would fail later anyway,
    // and the one-subcommand rule holds.
    assert_usage_error(&["--from", "late", "diagnose"]);
    assert_usage_error(&["--to", "never", "diagnose"]);
    assert_usage_error(&["diagnose", "extra-subcommand"]);
}

#[test]
fn unknown_scenario_names_exit_2() {
    assert_usage_error(&[
        "record",
        "--corpus",
        "target/never-created",
        "--scenario",
        "nope",
    ]);
    assert_usage_error(&["sweep", "--scenario", "not-a-matrix-entry"]);
}
