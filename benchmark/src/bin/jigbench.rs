//! `jigbench` — the end-to-end half of the benchmark: drives the four
//! workloads through the release `repro` binary, one child at a time, and
//! reports what an operator would see (wall time, peak memory, set-up
//! time, failures, output drift). Tracing is off here; `--trace 1` and the
//! `trace` subcommand hand over to the separate `jigtrace` binary.

// The result lines *are* stdout.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use jigbench::cli::{provenance, sibling, Opts};
use jigbench::report::{contract_line, Json, Values, END_TO_END};
use jigbench::stats::{quartiles, spread};
use jigbench::workload::{measure, Measured};
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("jigbench: {msg}");
    ExitCode::from(1)
}

/// Runs the traced binary with this process's arguments and exit code.
fn hand_over_to_jigtrace() -> ExitCode {
    match std::process::Command::new(sibling("jigtrace"))
        .args(std::env::args().skip(1))
        .status()
    {
        Ok(status) => ExitCode::from(status.code().unwrap_or(1) as u8),
        Err(e) => fail(&format!("cannot run jigtrace: {e}")),
    }
}

fn measure_all(opts: &Opts, reverse: bool) -> Result<Vec<Measured>, String> {
    let scratch = opts.scratch_dir();
    let mut workloads = opts.workloads();
    if reverse {
        workloads.reverse();
    }
    let result = workloads
        .into_iter()
        .map(|w| {
            eprintln!(
                "jigbench: measuring {} (seed {}, {} corpora)",
                w.name,
                opts.seed,
                opts.size.name()
            );
            measure(
                w,
                opts.size,
                opts.seed,
                &sibling("repro"),
                &scratch,
                opts.setups(),
                opts.stop(),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Every end-to-end metric of one workload with all its raw samples.
fn workload_json(m: &Measured) -> Json {
    let mut metrics: Vec<(String, Json)> = END_TO_END
        .iter()
        .map(|def| {
            let samples = m.samples(def.name);
            let q = quartiles(samples);
            let entry = Json::obj([
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better)),
                ("bound", def.bound.map_or(Json::Null, Json::Num)),
                ("n", Json::Int(samples.len() as u64)),
                ("median", Json::Num(m.median_of(def.name))),
                ("q1", q.map_or(Json::Null, |q| Json::Num(q.0))),
                ("q3", q.map_or(Json::Null, |q| Json::Num(q.2))),
                ("spread", spread(samples).map_or(Json::Null, Json::Num)),
                ("samples", Json::nums(samples)),
            ]);
            (def.name.to_string(), entry)
        })
        .collect();
    // Bound 0: any drift or failure makes the run incorrect.
    let exact = |unit: &str, value: Json| {
        Json::obj([
            ("unit", Json::str(unit)),
            ("better", Json::str("lower")),
            ("bound", Json::Int(0)),
            ("value", value),
        ])
    };
    metrics.push((
        "record_drift_lines".into(),
        exact("count", Json::Int(m.drift_lines)),
    ));
    metrics.push((
        "fail_share".into(),
        exact("share", Json::Num(m.fail_share())),
    ));
    metrics.push((
        "proc.cpu_s".into(),
        Json::obj([("unit", Json::str("s")), ("samples", Json::nums(&m.cpu_s))]),
    ));
    Json::obj([
        ("workload", Json::str(m.workload.name)),
        ("why", Json::str(m.workload.why)),
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::Int(m.attempted)),
        ("failed", Json::Int(m.failed)),
        ("corpus_digest", Json::str(&m.corpus.digest)),
        ("corpus_events", Json::Int(m.corpus.events)),
        ("corpus_radios", Json::Int(m.corpus.radios as u64)),
        ("corpus_mb", Json::Num(m.corpus.bytes as f64 / 1e6)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn run(opts: &Opts) -> ExitCode {
    match measure_all(opts, false) {
        Ok(measured) => {
            let doc = Json::obj([
                ("provenance", provenance(opts)),
                (
                    "workloads",
                    Json::Arr(measured.iter().map(workload_json).collect()),
                ),
            ]);
            println!("{}", doc.pretty());
            if measured.iter().all(Measured::correct) {
                ExitCode::SUCCESS
            } else {
                fail("a workload failed or drifted (see `correct` above)")
            }
        }
        Err(e) => fail(&e),
    }
}

/// The contract's one-shot form: one workload, one result line.
fn one_shot(opts: &Opts) -> ExitCode {
    if opts.workload.is_none() {
        jigsaw_bench::cli::usage_error(
            "jigbench",
            "expected --workload NAME, or a subcommand: run | trace | selfcheck",
        );
    }
    match measure_all(opts, false) {
        Ok(measured) => {
            let m = &measured[0];
            let mut values = Values::default();
            for def in END_TO_END {
                values.set(def.name, m.median_of(def.name));
            }
            println!(
                "{}",
                contract_line(
                    m.attempted,
                    m.failed,
                    m.correct(),
                    values.to_json(END_TO_END)
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

/// Two full sets of runs of this same binary, the second in reverse
/// workload order; every (metric, workload) median must agree within the
/// metric's bound, whichever set is taken as the baseline.
fn selfcheck(opts: &Opts) -> ExitCode {
    let sets = match (measure_all(opts, false), measure_all(opts, true)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let mut offending = Vec::new();
    println!(
        "{:<14} {:<12} {:>10} {:>10} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "differ", "bound"
    );
    for a in &sets.0 {
        let b = sets
            .1
            .iter()
            .find(|b| b.workload.name == a.workload.name)
            .expect("same workloads");
        if !(a.correct() && b.correct()) {
            offending.push(format!("{}: a set failed or drifted", a.workload.name));
        }
        for def in END_TO_END {
            let (x, y) = (a.median_of(def.name), b.median_of(def.name));
            let differ = (x - y).abs() / x.min(y);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            println!(
                "{:<14} {:<12} {x:>10.4} {y:>10.4} {:>7.1}% {:>5.0}%",
                a.workload.name,
                def.name,
                differ * 100.0,
                bound * 100.0
            );
            if differ.is_nan() || differ > bound {
                offending.push(format!(
                    "{} {}: {x} vs {y} differ by {:.1}% > {:.0}%",
                    a.workload.name,
                    def.name,
                    differ * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    if offending.is_empty() {
        println!("selfcheck OK: two sets of runs agree within every bound");
        ExitCode::SUCCESS
    } else {
        for o in &offending {
            println!("selfcheck FAIL: {o}");
        }
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let opts = Opts::parse("jigbench");
    match opts.cmd.as_deref() {
        None if opts.trace == 1 => hand_over_to_jigtrace(),
        None => one_shot(&opts),
        Some("run") => run(&opts),
        Some("trace") => hand_over_to_jigtrace(),
        Some("selfcheck") => selfcheck(&opts),
        Some(other) => jigsaw_bench::cli::usage_error(
            "jigbench",
            &format!("unknown subcommand `{other}` (expected run | trace | selfcheck)"),
        ),
    }
}
