//! The command line both binaries share, and where they find things.
//!
//! ```text
//! jigbench --workload W --seed N --seconds S --trace 0|1     (the benchmark contract)
//! jigbench run       [--workload W] [--seed N] [--seconds S | --reps N] [--work-dir D]
//! jigbench trace     [--workload W] [--seed N] [--work-dir D]
//! jigbench selfcheck [--workload W] [--seed N] [--seconds S | --reps N]
//!          --quick | --full   pick the corpus size (default: the contract's)
//! ```
//!
//! Usage errors exit 2 with one line on stderr, as `repro` does.

use crate::corpora::Size;
use crate::report::Json;
use crate::workload::{self, Stop, Workload, WORKLOADS};
use jigsaw_bench::cli::{assign, assign_some, usage_error, ArgSpec, Parser};
use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `run` | `trace` | `selfcheck`; `None` is the contract's one-shot form.
    pub cmd: Option<String>,
    /// Restricts the run to one workload (required in the one-shot form).
    pub workload: Option<String>,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measure each workload for this long (the default stop rule).
    pub seconds: f64,
    /// Measure exactly this many passes instead.
    pub reps: Option<usize>,
    /// One-shot form: 1 reports the per-layer metrics of a traced run.
    pub trace: u8,
    /// Corpus size.
    pub size: Size,
    /// Where corpora and `trace.json` are written.
    pub work_dir: Option<PathBuf>,
}

const FLAGS: &[ArgSpec<Opts>] = &[
    ArgSpec::text("--workload", |o, v| o.workload = Some(v)),
    ArgSpec::parsed("--seed", "an integer seed", |o, v| assign(&mut o.seed, v)),
    ArgSpec::parsed("--seconds", "a number of seconds", |o, v| {
        assign(&mut o.seconds, v) && o.seconds.is_finite() && o.seconds >= 0.0
    }),
    ArgSpec::parsed("--reps", "a pass count", |o, v| assign_some(&mut o.reps, v)),
    ArgSpec::parsed("--trace", "0 or 1", |o, v| {
        assign(&mut o.trace, v) && o.trace <= 1
    }),
    ArgSpec::switch("--quick", |o| o.size = Size::Quick),
    ArgSpec::switch("--full", |o| o.size = Size::Full),
    ArgSpec::text("--work-dir", |o, v| o.work_dir = Some(PathBuf::from(v))),
];

impl Opts {
    /// Parses the process's arguments; never returns on a usage error.
    pub fn parse(program: &'static str) -> Opts {
        let mut opts = Opts {
            cmd: None,
            workload: None,
            seed: 20_060_124, // the paper's trace date, as `repro` defaults
            seconds: 15.0,    // BENCHMARK.json's run_seconds
            reps: None,
            trace: 0,
            size: Size::Contract,
            work_dir: None,
        };
        let parser = Parser {
            program,
            flags: FLAGS,
        };
        opts.cmd = parser.parse(std::env::args().skip(1), &mut opts);
        if let Some(name) = &opts.workload {
            if workload::by_name(name).is_none() {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                usage_error(
                    program,
                    &format!("unknown workload `{name}` (expected {})", names.join(" | ")),
                );
            }
        }
        opts
    }

    /// The workloads this run covers, in reporting order.
    pub fn workloads(&self) -> Vec<&'static Workload> {
        WORKLOADS
            .iter()
            .filter(|w| self.workload.as_deref().is_none_or(|n| n == w.name))
            .collect()
    }

    /// The stop rule: `--reps` when given, else `--seconds`. `--quick`
    /// alone means one pass.
    pub fn stop(&self) -> Stop {
        match (self.reps, self.size) {
            (Some(n), _) => Stop::Reps(n),
            (None, Size::Quick) => Stop::Reps(1),
            (None, _) => Stop::Seconds(self.seconds),
        }
    }

    /// Set-ups per measurement: three, so `setup_s` is a median (one under
    /// `--quick`).
    pub fn setups(&self) -> usize {
        if self.size == Size::Quick {
            1
        } else {
            3
        }
    }

    /// This process's private directory for corpora, under `--work-dir`
    /// (default `work/` beside the benchmark's sources, which is inside
    /// the checkout and git-ignored).
    pub fn scratch_dir(&self) -> PathBuf {
        self.work_root().join(format!("run-{}", std::process::id()))
    }

    /// Where `trace.json` goes (kept after the run).
    pub fn work_root(&self) -> PathBuf {
        self.work_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work"))
    }
}

/// A binary built beside the running one (`repro`, `jigtrace`): the run
/// script builds all three into one target directory.
pub fn sibling(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running binary");
    exe.with_file_name(name)
}

/// Where the numbers came from: what a reader needs to compare two result
/// files (or decline to).
pub fn provenance(opts: &Opts) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Json::obj([
        ("seed", Json::Int(opts.seed)),
        ("size", Json::str(opts.size.name())),
        ("git_sha", Json::Str(jigsaw_bench::git_sha())),
        ("nproc", Json::Int(workload::nproc() as u64)),
        ("threads", Json::Int(workload::shard_threads() as u64)),
        ("rustc", Json::Str(rustc)),
        ("claim", Json::Null),
    ])
}
