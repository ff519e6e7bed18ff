//! The four workloads and the closed-loop runner that drives them through
//! the release `repro` binary — one child process at a time, measured
//! from outside: wall time from spawn to exit, the child's `VmHWM` polled
//! from `/proc`, its CPU time from this process's reaped-children
//! counters, and its machine lines compared against a reference.

use crate::clock::Stopwatch;
use crate::corpora::{self, Built, CorpusSpec, Size, Which};
use crate::lines::{drift, machine_lines, LineKind};
use crate::procfs;
use crate::stats::median;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// What one pass of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `repro diagnose --corpus DAY`.
    Triage,
    /// `repro --parallel --threads T analyze --corpus FLOWS`.
    Sharded,
    /// One `repro analyze --corpus DAY --from A --to B` per window.
    Dives,
    /// `repro tail --corpus DAY --chunk-bytes 4096`.
    Tail,
}

/// One benchmark workload: one pass is the `repro` calls of its kind.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it and `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// What a pass runs.
    pub kind: Kind,
}

impl Workload {
    /// The corpus the workload runs over.
    pub fn corpus(&self) -> Which {
        match self.kind {
            Kind::Sharded => Which::Flows,
            Kind::Triage | Kind::Dives | Kind::Tail => Which::Day,
        }
    }

    /// Which machine lines its calls print.
    pub fn lines(&self) -> LineKind {
        match self.kind {
            Kind::Triage => LineKind::Diagnosis,
            Kind::Sharded | Kind::Dives | Kind::Tail => LineKind::Record,
        }
    }

    /// True when correctness is judged against a serial `repro analyze`
    /// of the same corpus (run in set-up): the sharded and the live
    /// driver must print what the serial batch driver prints. The other
    /// two are judged against their own first pass.
    pub fn analyze_reference(&self) -> bool {
        matches!(self.kind, Kind::Sharded | Kind::Tail)
    }
}

/// The workloads, in reporting order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "day_triage",
        why: "repro diagnose over DAY: the whole product path (coarse pass, deep-dive replays, detectors); trace decode and core.unify dominate",
        kind: Kind::Triage,
    },
    Workload {
        name: "flows_sharded",
        why: "repro --parallel analyze over FLOWS: exercises core.shard; link, transport and the Suite run on the calling thread and are the critical path",
        kind: Kind::Sharded,
    },
    Workload {
        name: "window_dives",
        why: "1 s repro analyze --from/--to replays spaced over DAY: per-run fixed costs (open, digest, seek, bootstrap, warm-up) dominate and core.unify does little",
        kind: Kind::Dives,
    },
    Workload {
        name: "live_tail",
        why: "repro tail --chunk-bytes 4096 over DAY: the same Merger core push-driven under LiveMerger with chunked decode, so a batch-only gain that costs the live path shows",
        kind: Kind::Tail,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Shard threads `flows_sharded` asks for: the cores available, at most
/// three (FLOWS has three channels, the most shards that can run).
pub fn shard_threads() -> usize {
    nproc().min(3)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Chunk size `live_tail` feeds each trace tail in, bytes.
pub const TAIL_CHUNK_BYTES: usize = 4096;

/// A workload bound to a recorded corpus: everything a pass needs.
#[derive(Debug)]
pub struct Bench {
    /// The corpus the workload runs over.
    pub corpus: Built,
    workload: &'static Workload,
    /// The release `repro` binary.
    repro: PathBuf,
    /// `window_dives` only: the replay windows.
    windows: Vec<(u64, u64)>,
    /// Machine lines every pass must reproduce (`None` until the first
    /// pass of a self-referenced workload has run).
    reference: Option<Vec<String>>,
    /// Per-call time limits, s: 10x what each call took in the first pass.
    limits: Vec<f64>,
    /// The set-up's directory: the corpus and the calls' captured stdout.
    dir: PathBuf,
}

/// Time limit for calls that have no first-pass time yet, s. A pass stops
/// at its first failed call and a measurement at its first failed pass, so
/// a hung `repro` costs a run at most two of these (the reference call and
/// one more) — inside the 180 s the contract allows a run.
const FIRST_CALL_LIMIT_S: f64 = 60.0;

/// One `repro` call, measured from outside.
#[derive(Debug)]
struct Call {
    wall_s: f64,
    cpu_s: f64,
    rss_kb: u64,
    /// Its machine lines; empty when the call failed.
    lines: Vec<String>,
    failed: bool,
}

/// One pass of a workload: its calls run back to back.
#[derive(Debug)]
struct Pass {
    /// Sum of the calls' wall times, s.
    wall_s: f64,
    /// Sum of the calls' CPU times, s.
    cpu_s: f64,
    /// Largest `VmHWM` among the calls, MB.
    peak_rss_mb: f64,
    /// Calls made.
    attempted: u64,
    /// Calls that exited non-zero, printed no machine line, or timed out.
    failed: u64,
    /// Machine lines differing from the reference.
    drift_lines: u64,
}

/// Spawns `repro` with `args`, stdout to `out_file`, and waits for it,
/// polling its `VmHWM` every 50 ms and killing it after `limit_s`.
fn call(repro: &Path, args: &[String], kind: LineKind, out_file: &Path, limit_s: f64) -> Call {
    let never_ran = Call {
        wall_s: 0.0,
        cpu_s: 0.0,
        rss_kb: 0,
        lines: Vec::new(),
        failed: true,
    };
    let Ok(stdout) = std::fs::File::create(out_file) else {
        return never_ran;
    };
    let cpu_before = procfs::children_cpu_s();
    let t = Stopwatch::start();
    let Ok(mut child) = Command::new(repro)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::null())
        .spawn()
    else {
        return never_ran;
    };
    let mut rss_kb = 0;
    let mut polls = 0u32;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) => {}
            Err(_) => break None,
        }
        // Exit is noticed within 5 ms; the (costlier) /proc read runs
        // every tenth poll.
        if polls.is_multiple_of(10) {
            rss_kb = rss_kb.max(procfs::peak_rss_kb(child.id()).unwrap_or(0));
        }
        polls += 1;
        if t.secs() > limit_s {
            // Kill and reap; a failure of either leaves nothing to do.
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let wall_s = t.secs();
    let cpu_s = procfs::children_cpu_s() - cpu_before;
    let lines = match status {
        Some(s) if s.success() => std::fs::read_to_string(out_file)
            .map(|text| machine_lines(&text, kind))
            .unwrap_or_default(),
        _ => Vec::new(),
    };
    Call {
        wall_s,
        cpu_s,
        rss_kb,
        failed: lines.is_empty(),
        lines,
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// Machine lines tagged with the index of the call that printed them, so
/// the same record from two windows stays two lines.
fn tagged(call: usize, lines: Vec<String>) -> Vec<String> {
    lines.into_iter().map(|l| format!("{call}: {l}")).collect()
}

impl Bench {
    /// Builds the workload's corpus under `dir` from `seed` and, for a
    /// workload judged against batch `analyze`, runs that reference pass:
    /// the whole of one set-up.
    fn set_up(
        workload: &'static Workload,
        size: Size,
        seed: u64,
        repro: &Path,
        dir: &Path,
    ) -> Result<Bench, String> {
        let spec = CorpusSpec::new(workload.corpus(), size);
        let corpus = corpora::build(&spec, seed, &dir.join("corpus"))
            .map_err(|e| format!("record corpus: {e}"))?;
        let windows = if workload.kind == Kind::Dives {
            corpora::corpus_windows(&corpus.dir, size.windows())
                .map_err(|e| format!("place windows: {e}"))?
        } else {
            Vec::new()
        };
        let mut bench = Bench {
            workload,
            repro: repro.to_path_buf(),
            corpus,
            windows,
            reference: None,
            limits: Vec::new(),
            dir: dir.to_path_buf(),
        };
        if workload.analyze_reference() {
            let args = strings(&["analyze", "--corpus", &bench.corpus.dir.to_string_lossy()]);
            let reference = call(
                repro,
                &args,
                LineKind::Record,
                &bench.stdout_file(),
                FIRST_CALL_LIMIT_S,
            );
            if reference.failed {
                return Err("reference `repro analyze` failed".into());
            }
            bench.reference = Some(tagged(0, reference.lines));
        }
        Ok(bench)
    }

    fn stdout_file(&self) -> PathBuf {
        self.dir.join("stdout.txt")
    }

    /// The `repro` argument lists of one pass.
    fn calls(&self) -> Vec<Vec<String>> {
        let corpus = self.corpus.dir.to_string_lossy();
        match self.workload.kind {
            Kind::Triage => vec![strings(&["diagnose", "--corpus", &corpus])],
            Kind::Sharded => {
                let threads = shard_threads().to_string();
                vec![strings(&[
                    "--parallel",
                    "--threads",
                    &threads,
                    "analyze",
                    "--corpus",
                    &corpus,
                ])]
            }
            Kind::Dives => self
                .windows
                .iter()
                .map(|(from, to)| {
                    let (from, to) = (from.to_string(), to.to_string());
                    strings(&["analyze", "--corpus", &corpus, "--from", &from, "--to", &to])
                })
                .collect(),
            Kind::Tail => vec![strings(&[
                "tail",
                "--corpus",
                &corpus,
                "--chunk-bytes",
                &TAIL_CHUNK_BYTES.to_string(),
            ])],
        }
    }

    /// Runs one pass, up to its first failed call. The first pass of a
    /// self-referenced workload becomes its reference.
    fn pass(&mut self) -> Pass {
        let calls = self.calls();
        let mut pass = Pass {
            wall_s: 0.0,
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
            attempted: 0,
            failed: 0,
            drift_lines: 0,
        };
        let mut lines = Vec::new();
        let mut walls = Vec::with_capacity(calls.len());
        for (i, args) in calls.iter().enumerate() {
            let limit = self.limits.get(i).copied().unwrap_or(FIRST_CALL_LIMIT_S);
            let c = call(
                &self.repro,
                args,
                self.workload.lines(),
                &self.stdout_file(),
                limit,
            );
            pass.attempted += 1;
            pass.failed += u64::from(c.failed);
            pass.wall_s += c.wall_s;
            pass.cpu_s += c.cpu_s;
            pass.peak_rss_mb = pass.peak_rss_mb.max(c.rss_kb as f64 / 1e3);
            walls.push(c.wall_s);
            let failed = c.failed;
            lines.extend(tagged(i, c.lines));
            if failed {
                break;
            }
        }
        if self.limits.is_empty() && pass.failed == 0 {
            self.limits = walls.iter().map(|w| (w * 10.0).max(1.0)).collect();
        }
        match &self.reference {
            Some(reference) => pass.drift_lines = drift(reference, &lines) as u64,
            None if pass.failed == 0 => self.reference = Some(lines),
            None => {}
        }
        pass
    }

    /// Runs passes until `stop` and returns every sample.
    pub fn measure(&mut self, stop: Stop, setup_s: Vec<f64>) -> Measured {
        let mut m = Measured {
            workload: self.workload,
            wall_s: Vec::new(),
            peak_rss_mb: Vec::new(),
            cpu_s: Vec::new(),
            setup_s,
            attempted: 0,
            failed: 0,
            drift_lines: 0,
            corpus: self.corpus.clone(),
        };
        let t = Stopwatch::start();
        let mut passes = 0;
        let mut last_s = 0.0;
        loop {
            let go = match stop {
                Stop::Reps(n) => passes < n.max(1),
                Stop::Seconds(s) => passes < 2 || t.secs() + last_s <= s,
            };
            if !go {
                return m;
            }
            let before = t.secs();
            let pass = self.pass();
            last_s = t.secs() - before;
            passes += 1;
            m.attempted += pass.attempted;
            m.failed += pass.failed;
            m.drift_lines = m.drift_lines.max(pass.drift_lines);
            m.peak_rss_mb.push(pass.peak_rss_mb);
            m.cpu_s.push(pass.cpu_s);
            if pass.failed > 0 {
                return m;
            }
            m.wall_s.push(pass.wall_s);
        }
    }

    /// Removes everything the set-up wrote.
    pub fn clean_up(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// When a measurement stops making passes.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many passes.
    Reps(usize),
    /// Once another pass would run past this many seconds (and at least
    /// two have run, so every workload is checked against a reference).
    Seconds(f64),
}

/// Every end-to-end sample of one workload's measurement.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The workload.
    pub workload: &'static Workload,
    /// One wall-time sample per pass with no failed call, s.
    pub wall_s: Vec<f64>,
    /// One peak-RSS sample per pass, MB.
    pub peak_rss_mb: Vec<f64>,
    /// One CPU-time sample per pass, s.
    pub cpu_s: Vec<f64>,
    /// One sample per set-up, s.
    pub setup_s: Vec<f64>,
    /// Calls made across all passes.
    pub attempted: u64,
    /// Calls failed across all passes.
    pub failed: u64,
    /// Largest per-pass count of machine lines differing from the reference.
    pub drift_lines: u64,
    /// The corpus the passes ran over.
    pub corpus: Built,
}

impl Measured {
    /// The run's outputs were right: no call failed, no line drifted,
    /// and at least one pass produced a sample.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.drift_lines == 0 && !self.wall_s.is_empty()
    }

    /// Operations failed / attempted.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The median of an end-to-end metric's samples, by metric name.
    pub fn median_of(&self, metric: &str) -> f64 {
        median(self.samples(metric))
    }

    /// An end-to-end metric's raw samples, by metric name.
    pub fn samples(&self, metric: &str) -> &[f64] {
        match metric {
            "wall_s" => &self.wall_s,
            "peak_rss_mb" => &self.peak_rss_mb,
            "setup_s" => &self.setup_s,
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    }
}

/// Sets a workload up `setups` times under `work/<workload>` (one corpus
/// on disk at a time; the last one is kept), timing each set-up.
pub fn set_up_timed(
    workload: &'static Workload,
    size: Size,
    seed: u64,
    repro: &Path,
    work: &Path,
    setups: usize,
) -> Result<(Bench, Vec<f64>), String> {
    let dir = work.join(workload.name);
    let mut setup_s = Vec::with_capacity(setups);
    let mut bench = None;
    for _ in 0..setups.max(1) {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let t = Stopwatch::start();
        bench = Some(Bench::set_up(workload, size, seed, repro, &dir)?);
        setup_s.push(t.secs());
    }
    Ok((bench.expect("at least one set-up ran"), setup_s))
}

/// Set-up, measurement and clean-up of one workload: the whole of an
/// end-to-end run.
pub fn measure(
    workload: &'static Workload,
    size: Size,
    seed: u64,
    repro: &Path,
    work: &Path,
    setups: usize,
    stop: Stop,
) -> Result<Measured, String> {
    let (mut bench, setup_s) = set_up_timed(workload, size, seed, repro, work, setups)?;
    let measured = bench.measure(stop, setup_s);
    bench.clean_up();
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(name: &str, windows: Vec<(u64, u64)>) -> Bench {
        Bench {
            workload: by_name(name).unwrap(),
            repro: PathBuf::from("repro"),
            corpus: Built {
                dir: PathBuf::from("/c"),
                radios: 1,
                events: 1,
                bytes: 1,
                digest: String::new(),
                sim_s: 0.0,
                write_s: 0.0,
            },
            windows,
            reference: None,
            limits: Vec::new(),
            dir: PathBuf::new(),
        }
    }

    #[test]
    fn every_workload_builds_its_cli_calls() {
        assert_eq!(
            bench("day_triage", vec![]).calls(),
            vec![strings(&["diagnose", "--corpus", "/c"])]
        );
        let sharded = bench("flows_sharded", vec![]).calls();
        assert_eq!(sharded.len(), 1);
        assert_eq!(sharded[0][..2], strings(&["--parallel", "--threads"]));
        assert!((1..=3).contains(&sharded[0][2].parse::<usize>().unwrap()));
        assert_eq!(sharded[0][3..], strings(&["analyze", "--corpus", "/c"]));
        assert_eq!(
            bench("window_dives", vec![(5, 9), (20, 30)]).calls(),
            vec![
                strings(&["analyze", "--corpus", "/c", "--from", "5", "--to", "9"]),
                strings(&["analyze", "--corpus", "/c", "--from", "20", "--to", "30"]),
            ]
        );
        assert_eq!(
            bench("live_tail", vec![]).calls(),
            vec![strings(&[
                "tail",
                "--corpus",
                "/c",
                "--chunk-bytes",
                "4096"
            ])]
        );
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn a_call_that_cannot_run_or_prints_nothing_fails() {
        let work = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
        std::fs::create_dir_all(&work).unwrap();
        let out = work.join(format!("test-call-{}.txt", std::process::id()));
        let c = call(
            Path::new("/nonexistent/repro"),
            &[],
            LineKind::Record,
            &out,
            1.0,
        );
        assert!(c.failed);
        // Exits 0 but prints no machine line.
        let c = call(Path::new("true"), &[], LineKind::Record, &out, 5.0);
        assert!(c.failed && c.lines.is_empty());
        // Exits non-zero.
        let c = call(Path::new("false"), &[], LineKind::Record, &out, 5.0);
        assert!(c.failed);
        // Runs past its limit: killed, and the kill is prompt.
        let c = call(
            Path::new("sleep"),
            &strings(&["30"]),
            LineKind::Record,
            &out,
            0.2,
        );
        assert!(c.failed && c.wall_s < 5.0);
        // Prints a machine line and exits 0.
        let c = call(
            Path::new("sh"),
            &strings(&["-c", "echo banner; echo 'record a.b 1'"]),
            LineKind::Record,
            &out,
            5.0,
        );
        assert!(!c.failed);
        assert_eq!(c.lines, strings(&["record a.b 1"]));
        let _ = std::fs::remove_file(&out);
    }
}
