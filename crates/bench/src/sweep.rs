//! The `repro sweep` harness: a standing golden-record correctness sweep
//! over adversarial traffic shapes.
//!
//! Each scenario of [`ScenarioSpec::sweep_matrix`] runs end-to-end —
//! simulate, record to a disk corpus, merge back at **both** shard layouts
//! (serial and one shard per channel, from memory and from disk), stream
//! the full figure suite, and replay a `[from, to)` window — and every leg
//! is cross-checked:
//!
//! * the four full merges (mem-serial, mem-sharded, disk-serial,
//!   disk-sharded) must emit the identical jframe stream
//!   ([`crate::StreamDigest::ordered`]: count + order + content);
//! * the figure suite's machine `record` lines must be byte-identical
//!   between the serial and sharded layouts;
//! * the windowed replay (seek-bounded, mid-trace clock bootstrap) must be
//!   identical between the two layouts
//!   ([`crate::StreamDigest::invariant`]), and its digest is pinned by the
//!   golden file. Windowed-vs-clipped-full equality is *not* asserted
//!   here — adversarial scenarios starve radios of sync corrections long
//!   enough that the replays' extrapolated clocks legitimately part ways;
//!   that tame-scenario contract lives in
//!   `crates/bench/tests/windowed_replay.rs`.
//!
//! The surviving facts — corpus digest, stream digest, window digest, and
//! every `record` line — form a small text **golden file** per scenario
//! under `.github/golden/sweep/`. CI regenerates each scenario from
//! scratch and diffs against the checked-in golden line by line; any
//! behavioral drift in the simulator, the trace format, the merger, or an
//! analysis shows up as a named line in a named scenario. Intentional
//! changes re-bless with `repro sweep --bless`.
//!
//! Every leg comparison goes through [`crate::agree`], and
//! [`check_golden`] is the one golden compare-or-bless — `repro diagnose
//! --golden` uses it too.

use crate::{agree, record_corpus, sharded_config, CorpusSession, StreamDigest};
use jigsaw_analysis::suite::record_lines;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_sim::spec::ScenarioSpec;
use jigsaw_trace::TimeWindow;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The seed every golden file is blessed at (the paper's trace date).
pub const SWEEP_SEED: u64 = 20060124;

/// Default golden directory, relative to the repo root.
pub const GOLDEN_DIR: &str = ".github/golden/sweep";

/// Everything one sweep scenario proved and produced — the numbers the
/// summary line prints plus the golden-file body to compare or bless.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Scenario name (also the golden file stem).
    pub name: String,
    /// Seed the run used.
    pub seed: u64,
    /// Capture events recorded and re-merged.
    pub events: u64,
    /// Jframes out of the (agreeing) full merges.
    pub jframes: u64,
    /// Full-stream digest (count + order + content).
    pub stream_digest: String,
    /// Digest of the corpus files on disk.
    pub corpus_digest: String,
    /// The replay window exercised (middle third of the corpus span).
    pub window: TimeWindow,
    /// In-window jframes of the (agreeing) windowed replays.
    pub window_jframes: u64,
    /// Clock-invariant per-channel window digest.
    pub window_digest: String,
    /// The figure suite's machine `record` lines (serial ≡ sharded).
    pub record_lines: String,
    /// The golden-file body all of the above serializes to.
    pub golden_body: String,
}

/// How a scenario's output relates to its golden file.
#[derive(Debug, Clone)]
pub enum GoldenStatus {
    /// Byte-identical to the checked-in golden.
    Matched,
    /// `--bless` (re)wrote the golden from this run.
    Blessed,
    /// Differs from the golden; the payload is a readable line diff.
    Mismatch(String),
    /// No golden exists at this path (and `--bless` was not given).
    Missing(PathBuf),
}

impl GoldenStatus {
    /// One-word label for summary lines.
    pub fn label(&self) -> &'static str {
        match self {
            GoldenStatus::Matched => "MATCHED",
            GoldenStatus::Blessed => "BLESSED",
            GoldenStatus::Mismatch(_) => "MISMATCH",
            GoldenStatus::Missing(_) => "MISSING",
        }
    }

    /// True for the outcomes that should fail a CI run.
    pub fn is_failure(&self) -> bool {
        matches!(self, GoldenStatus::Mismatch(_) | GoldenStatus::Missing(_))
    }
}

/// Runs one sweep scenario end-to-end with every cross-check, leaving its
/// corpus under `corpus_root/<name>`. `Err` carries a human-readable
/// account of the first invariant that broke.
pub fn run_scenario(
    spec: &ScenarioSpec,
    seed: u64,
    corpus_root: &Path,
) -> Result<ScenarioRun, String> {
    let name = spec.name.clone();
    let out = spec.run(seed);
    if out.total_events() == 0 {
        return Err(format!("{name}: simulation produced no capture events"));
    }
    let dir = corpus_root.join(&name);
    let summary = record_corpus(&out, &dir, &name, seed, 1.0, 65_535, 4096)
        .map_err(|e| format!("{name}: record corpus: {e}"))?;

    let serial = PipelineConfig::default();
    let (sharded, shards) = sharded_config(&out.radio_meta);
    if shards < 2 {
        return Err(format!(
            "{name}: the radio set plans one shard — the serial ≡ sharded legs would be vacuous"
        ));
    }
    let layouts = [("serial", &serial), ("sharded", &sharded)];

    // Leg 1 — the four full merges must agree byte-for-byte.
    let mut merges = Vec::new();
    for (layout, cfg) in layouts {
        let mut digest = StreamDigest::new();
        Pipeline::merge_only(out.memory_streams(), cfg, &mut digest)
            .map_err(|e| format!("{name}: in-memory {layout} merge: {e}"))?;
        merges.push((format!("mem-{layout}"), digest.ordered()));
    }
    drop(out);

    let session = CorpusSession::open(&dir).map_err(|e| format!("{name}: {e}"))?;
    for (layout, cfg) in layouts {
        let mut digest = StreamDigest::new();
        session
            .merge(None, cfg, |jf| digest.observe(jf))
            .map_err(|e| format!("{name}: disk {layout} {e}"))?;
        merges.push((format!("disk-{layout}"), digest.ordered()));
    }
    let mem_serial = agree(&merges).map_err(|e| format!("{name}: full merges diverged: {e}"))?;
    if mem_serial.count == 0 {
        return Err(format!("{name}: merges produced no jframes"));
    }

    // Leg 2 — the figure suite's machine records, serial vs sharded.
    let records = |layout: &str, cfg: &PipelineConfig| {
        let (_, figures) = session
            .analyze(cfg)
            .map_err(|e| format!("{name}: {layout} analyze: {e}"))?;
        Ok::<_, String>(record_lines(&figures))
    };
    let lines_serial = records("serial", &serial)?;
    let lines_sharded = records("sharded", &sharded)?;
    if lines_serial != lines_sharded {
        let diff = diff_lines(&lines_serial, &lines_sharded)
            .unwrap_or_else(|| "  (diff unavailable)\n".into());
        return Err(format!(
            "{name}: analyze record lines differ between serial and sharded layouts:\n{diff}"
        ));
    }

    // Leg 3 — the windowed replay over the middle third of the span.
    let (lo, hi) = session.span().map_err(|e| format!("{name}: {e}"))?;
    let third = (hi - lo) / 3;
    let window = TimeWindow::new(lo + third, lo + 2 * third)
        .ok_or_else(|| format!("{name}: corpus span [{lo}, {hi}] too short to window"))?;
    let windowed = |layout: &str, cfg: &PipelineConfig| {
        let cfg = PipelineConfig {
            window: Some(window),
            ..cfg.clone()
        };
        let mut digest = StreamDigest::new();
        session
            .merge(Some(window), &cfg, |jf| digest.observe(jf))
            .map_err(|e| format!("{name}: windowed {layout} {e}"))?;
        Ok::<_, String>((format!("windowed {layout}"), digest.invariant()))
    };
    let legs = [windowed("serial", &serial)?, windowed("sharded", &sharded)?];
    // Both layouts must agree on the windowed replay exactly; the digest
    // itself is then pinned by the golden file. (Equality with a
    // clipped-full replay is deliberately NOT asserted here: it holds only
    // while every radio keeps receiving sync-quality frames, and the
    // adversarial scenarios — co-channel re-allocation in particular —
    // starve radios of corrections for whole seconds, after which the two
    // replays' extrapolated clocks legitimately disagree. The tame-scenario
    // windowed-vs-clipped contract stays pinned in
    // `crates/bench/tests/windowed_replay.rs`.)
    let win = agree(&legs)
        .map_err(|e| format!("{name}: windowed replay diverged between layouts: {e}"))?;

    let mut run = ScenarioRun {
        name,
        seed,
        events: summary.events,
        jframes: mem_serial.count,
        stream_digest: mem_serial.hex,
        corpus_digest: summary.digest,
        window,
        window_jframes: win.count,
        window_digest: win.hex,
        record_lines: lines_serial,
        golden_body: String::new(),
    };
    run.golden_body = golden_body(&run);
    Ok(run)
}

/// Serializes a run to its golden-file body: a short header of pinned
/// digests, then every figure `record` line verbatim.
pub fn golden_body(run: &ScenarioRun) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "# jigsaw sweep golden — scenario {} seed {}\n",
        run.name, run.seed
    ));
    s.push_str(&format!("corpus_digest {}\n", run.corpus_digest));
    s.push_str(&format!("events {}\n", run.events));
    s.push_str(&format!("jframes {}\n", run.jframes));
    s.push_str(&format!("stream_digest {}\n", run.stream_digest));
    s.push_str(&format!("window {} {}\n", run.window.from, run.window.to));
    s.push_str(&format!("window_jframes {}\n", run.window_jframes));
    s.push_str(&format!("window_digest {}\n", run.window_digest));
    s.push_str(&run.record_lines);
    s
}

/// The golden-file path for a scenario name.
pub fn golden_path(golden_dir: &Path, name: &str) -> PathBuf {
    golden_dir.join(format!("{name}.golden"))
}

/// The one golden compare-or-bless: compares `body` against the golden
/// file at `path`, or with `bless` (re)writes it, creating its directory.
/// Only [`GoldenStatus::Blessed`] writes anything; a golden that cannot be
/// written is an `Err` naming the path. The sweep and `repro diagnose
/// --golden` both go through here and word their own `FAIL:` lines.
pub fn check_golden(path: &Path, body: &str, bless: bool) -> Result<GoldenStatus, String> {
    if bless {
        path.parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, body))
            .map_err(|e| format!("cannot write golden {}: {e}", path.display()))?;
        return Ok(GoldenStatus::Blessed);
    }
    let Ok(golden) = std::fs::read_to_string(path) else {
        return Ok(GoldenStatus::Missing(path.to_path_buf()));
    };
    Ok(match diff_lines(&golden, body) {
        None => GoldenStatus::Matched,
        Some(diff) => GoldenStatus::Mismatch(diff),
    })
}

/// A readable line-by-line diff, or `None` when the texts are identical.
/// The left side is labeled `golden`, the right `actual`; at most 20
/// differing lines print before eliding.
pub fn diff_lines(golden: &str, actual: &str) -> Option<String> {
    if golden == actual {
        return None;
    }
    let g: Vec<&str> = golden.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0;
    for i in 0..g.len().max(a.len()) {
        let gl = g.get(i).copied();
        let al = a.get(i).copied();
        if gl != al {
            if shown == 20 {
                out.push_str("  ... (further differences elided)\n");
                break;
            }
            out.push_str(&format!(
                "  line {}:\n    golden: {}\n    actual: {}\n",
                i + 1,
                gl.unwrap_or("<absent>"),
                al.unwrap_or("<absent>")
            ));
            shown += 1;
        }
    }
    if g.len() != a.len() {
        out.push_str(&format!(
            "  line counts differ: golden {} vs actual {}\n",
            g.len(),
            a.len()
        ));
    }
    Some(out)
}

/// Fails fast when the checked-in golden set and the sweep matrix drift
/// apart — a scenario with no golden, or a stale golden for a scenario the
/// matrix no longer names — in **either** direction.
pub fn check_matrix_coverage(golden_dir: &Path) -> Result<(), String> {
    let matrix: BTreeSet<String> = ScenarioSpec::sweep_matrix()
        .into_iter()
        .map(|s| s.name)
        .collect();
    let entries = std::fs::read_dir(golden_dir).map_err(|e| {
        format!(
            "golden dir {}: {e} (bless with `repro sweep --bless`)",
            golden_dir.display()
        )
    })?;
    let mut golden: BTreeSet<String> = BTreeSet::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let fname = entry.file_name();
        let fname = fname.to_string_lossy();
        if let Some(stem) = fname.strip_suffix(".golden") {
            golden.insert(stem.to_string());
        }
    }
    let missing: Vec<&String> = matrix.difference(&golden).collect();
    let stale: Vec<&String> = golden.difference(&matrix).collect();
    if missing.is_empty() && stale.is_empty() {
        return Ok(());
    }
    let mut msg = String::new();
    if !missing.is_empty() {
        msg.push_str(&format!(
            "matrix scenarios with no golden file: {missing:?} (bless with `repro sweep --bless`)\n"
        ));
    }
    if !stale.is_empty() {
        msg.push_str(&format!(
            "golden files for scenarios the matrix no longer names: {stale:?} (delete them)\n"
        ));
    }
    Err(msg.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_is_none_on_identical_and_readable_on_drift() {
        assert!(diff_lines("a\nb\n", "a\nb\n").is_none());
        let d = diff_lines("a\nb\nc\n", "a\nX\n").unwrap();
        assert!(d.contains("line 2"));
        assert!(d.contains("golden: b"));
        assert!(d.contains("actual: X"));
        assert!(d.contains("line counts differ: golden 3 vs actual 2"));
    }

    fn sample_run() -> ScenarioRun {
        ScenarioRun {
            name: "roaming".into(),
            seed: 1,
            events: 10,
            jframes: 5,
            stream_digest: "aa".into(),
            corpus_digest: "bb".into(),
            window: TimeWindow::new(100, 200).unwrap(),
            window_jframes: 2,
            window_digest: "cc".into(),
            record_lines: "record fig4.p50 1.5\n".into(),
            golden_body: String::new(),
        }
    }

    #[test]
    fn golden_body_round_trips_through_diff() {
        let run = sample_run();
        let body = golden_body(&run);
        assert!(body.starts_with("# jigsaw sweep golden — scenario roaming seed 1\n"));
        assert!(body.contains("window 100 200\n"));
        assert!(body.ends_with("record fig4.p50 1.5\n"));
        assert!(diff_lines(&body, &body).is_none());
    }

    /// `--bless` into a golden dir that cannot exist (its parent is a
    /// regular file) hands the failure back instead of panicking.
    #[test]
    fn unwritable_golden_dir_is_an_error() {
        let dir = std::env::temp_dir().join(format!("sweep_bless_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not-a-directory");
        std::fs::write(&blocker, "a regular file").unwrap();
        let run = sample_run();
        let path = golden_path(&blocker.join("golden"), &run.name);
        let err = check_golden(&path, &golden_body(&run), true).unwrap_err();
        assert!(err.starts_with("cannot write golden"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matrix_coverage_flags_both_directions() {
        let dir = std::env::temp_dir().join(format!("sweep_cov_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Missing dir fails fast.
        assert!(check_matrix_coverage(&dir).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        // Empty dir: every matrix scenario is missing.
        let err = check_matrix_coverage(&dir).unwrap_err();
        assert!(err.contains("no golden file"));
        assert!(err.contains("roaming"));
        // Full set passes.
        for s in ScenarioSpec::sweep_matrix() {
            std::fs::write(golden_path(&dir, &s.name), "x\n").unwrap();
        }
        check_matrix_coverage(&dir).expect("full set is consistent");
        // A stale extra fails the other direction.
        std::fs::write(golden_path(&dir, "retired_scenario"), "x\n").unwrap();
        let err = check_matrix_coverage(&dir).unwrap_err();
        assert!(err.contains("no longer names"));
        assert!(err.contains("retired_scenario"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
