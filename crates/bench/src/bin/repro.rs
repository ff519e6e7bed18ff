//! `repro` — regenerates the tables and figures of the paper's evaluation,
//! and records/re-merges on-disk trace corpora.
//!
//! ```text
//! repro [--seed N] [--scale F] [--parallel] [--threads N]
//!       smoke|fig7|coverage-oracle|ablations|baselines|
//!       record --corpus DIR [--scenario NAME] [--block-bytes N] [--snaplen N]|
//!       merge --corpus DIR [--from US --to US] [--verify] [--max-buffered N]|
//!       analyze --corpus DIR [--from US --to US]|
//!       tail --corpus DIR [--chunk-bytes N] [--verify] [--max-buffered N]|
//!       diagnose --corpus DIR [--from US --to US] [--golden FILE] [--bless]|
//!       sweep [--scenario NAME] [--golden DIR] [--corpus DIR] [--bless]
//! ```
//!
//! Usage errors — no subcommand, an unknown flag or subcommand, a flag
//! value that does not parse, a missing required flag, a second
//! subcommand, a flag the subcommand would silently ignore (`--verify` and
//! `--max-buffered` outside `merge`/`tail`, `--chunk-bytes` outside `tail`,
//! `--threads` without `--parallel`), a `--chunk-bytes` of 0, or a
//! `--corpus` that cannot be opened — exit 2 with a one-line message.
//! Correctness failures (a corpus that fails its digest check or cannot be
//! read, verify divergence, `--max-buffered` exceeded, golden mismatch)
//! exit 1 with a one-line `FAIL:`.
//!
//! `smoke` is the CI entry point: a seconds-long `ScenarioConfig::tiny`
//! run through the full pipeline — once serial and once with the merge
//! channel-sharded (`--threads` caps the shards), asserting both produce
//! the same jframe stream — failing loudly if anything degenerates.
//!
//! The corpus subcommands reproduce the paper's actual deployment shape, where
//! day-long jigdump traces lived on disk and the merger streamed them:
//! * `record` simulates a scenario and writes it as a corpus (one
//!   compressed, indexed trace per radio + manifest + digest);
//! * `merge` streams a corpus back through the pipeline with
//!   window-bounded memory, printing the jframe count and stream digest;
//!   `--verify` re-simulates from the manifest seed and asserts the
//!   disk-backed stream is identical to the in-memory serial AND sharded
//!   runs, and `--max-buffered N` fails the run if peak merger residency
//!   — the `peak buffered` it prints: the bootstrap window every source
//!   seeds the merger with, disk and memory alike, or the search window's
//!   worth held later, whichever is larger — ever exceeds N events (the CI
//!   memory-bound check);
//! * `analyze` streams the **entire figure suite** off a recorded corpus
//!   through the full pipeline (serial or, with `--parallel`, the
//!   channel-sharded merge) in one bounded-memory pass — no `Vec<JFrame>`
//!   is ever materialized. The §5.1 inference rates print off the run's
//!   report, every figure renders with the paper's numbers beside it, then
//!   stable machine-readable `record <figure>.<key> <value>` lines. The
//!   wired distribution-network trace Figure 6 compares against is stored
//!   in the corpus (`wired.jigw`), so nothing is re-simulated — the whole
//!   suite runs from disk alone;
//! * `tail` is `analyze` over the traces tailed in `--chunk-bytes` chunks
//!   (the byte stream a still-growing file delivers), the one driver
//!   stepped as a live service steps it — CI diffs its `record` lines
//!   against `analyze`'s byte for byte. `--parallel` and `--from/--to` are
//!   usage errors; `--verify` asserts the tailed jframe stream is the
//!   batch merge's (count + digest) at any chunking, and `--max-buffered N`
//!   gates residency as for `merge`, whose `peak buffered` it equals.
//!
//! Timing and allocation measurement is not this binary's job: `benchmark/`
//! (jigbench + jigtrace, `bash benchmark/run.sh`) measures these
//! subcommands from outside the process and each layer in isolation.
//!
//! `sweep` is the standing golden-record harness: every scenario of the
//! adversarial sweep matrix (`jigsaw_sim::spec::ScenarioSpec::sweep_matrix`
//! — roaming, hidden terminals, co-channel re-allocation, protection-mode
//! coexistence, QoS mixes, error stress) runs end-to-end — record to a
//! disk corpus, full merges serial and sharded from memory and disk, the
//! figure suite's machine records serial vs sharded, and a windowed
//! replay — and the surviving digests + `record` lines are diffed line by
//! line against per-scenario golden files under `.github/golden/sweep/`.
//! `--bless` rewrites the goldens from the current run; `--scenario`
//! restricts to one matrix entry.
//!
//! `merge`, `analyze`, and `diagnose` accept a **replay window**:
//! `--from US --to US` (anchor-universal µs, half-open `[from, to)`)
//! restricts the run to that interval of the corpus — reads index-seek to
//! the window, the clock bootstrap re-anchors at its warm-up start, and
//! disk bytes scale with the window, not the corpus (the paper's "start at
//! 11 am without decompressing the morning"). `repro` rejects `--from ≥
//! --to` and windows that miss the corpus's recorded span outright. A
//! windowed `merge --verify` replays the *full* corpus clipped to the same
//! window and asserts both runs unified identically (per-channel
//! count + clock-invariant digest — merged timestamps agree only to the
//! documented re-anchor tolerance, so the byte-exact comparison is on
//! capture-side fields).
//!
//! There is one pipeline driver; `--parallel` is the only thing that
//! changes its shard layout, from the serial default to one merge thread
//! per channel shard (`--threads` caps them, 0 = up to the core count).
//!
//! The paper's single-trace figures (Table 1, Figures 4, 6, 8–11, the §5.1
//! inference rates) are `record` then `analyze`: the corpus is the unified
//! trace every figure reads. `fig7`, `coverage-oracle`, `ablations` and
//! `baselines` each simulate the building and print their rows with the
//! paper's numbers quoted alongside. Absolute numbers differ (the substrate
//! is a simulator, not the UCSD testbed); the shapes are the claim.

// The repro CLI's output *is* stdout; the workspace denial targets library code.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use jigsaw_analysis::coverage::{pods_subset, radios_of_pods, CoverageAnalysis, OracleCoverage};
use jigsaw_analysis::dispersion::DispersionAnalysis;
use jigsaw_analysis::suite::{record_lines, Figure};
use jigsaw_bench::cli::{self, ArgSpec};
use jigsaw_bench::{
    paper_scenario, subset_streams, CorpusSession, JframeStreamDigest, SessionError,
    WindowedStreamDigest,
};
use jigsaw_core::baseline::naive_merge;
use jigsaw_core::observer::{OnExchange, OnJFrame};
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::unify::{MergeConfig, MergeStats};
use jigsaw_core::JFrame;
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::TruthConfig;
use jigsaw_trace::corpus::Corpus;
use jigsaw_trace::TimeWindow;
use std::time::{Duration, Instant};

struct Args {
    seed: u64,
    scale: f64,
    /// Shard the merge by channel across threads (serial otherwise).
    parallel: bool,
    /// Shard-thread cap under `--parallel` (0 or unset = one per channel,
    /// up to the core count).
    threads: Option<usize>,
    /// Corpus directory (every corpus subcommand; `sweep`'s output root).
    corpus: Option<String>,
    /// Scenario name: a preset (tiny | small | paper_day) or a sweep-matrix
    /// entry for `record`; a matrix filter for `sweep`.
    scenario: Option<String>,
    /// Golden override: a directory for `sweep` (default
    /// `.github/golden/sweep`), a golden *file* for `diagnose` (no
    /// default — without it, diagnose prints but never compares).
    golden: Option<String>,
    /// `sweep`/`diagnose`: rewrite the golden from this run.
    bless: bool,
    /// Trace block size in bytes for `record` (0 = format default).
    block_bytes: usize,
    /// Snap length for `record` (sim traces are already capture-snapped).
    snaplen: u32,
    /// `merge`/`tail`: assert disk ≡ memory / live ≡ batch.
    verify: bool,
    /// `merge`/`tail`: fail if peak merger residency (seeded bootstrap
    /// window included) exceeds this many events.
    max_buffered: Option<u64>,
    /// Replay window start, anchor-universal µs (`merge`/`analyze`/
    /// `diagnose`).
    from: Option<u64>,
    /// Replay window end (exclusive), anchor-universal µs.
    to: Option<u64>,
    /// `tail`: chunk size each trace tail is fed in, bytes (64 KiB when
    /// not given).
    chunk_bytes: Option<usize>,
    cmd: String,
}

/// Exits 2 with a one-line message — the usage-error contract every
/// subcommand shares (correctness failures exit 1 instead).
fn usage_error(msg: &str) -> ! {
    cli::usage_error("repro", msg)
}

/// Exits 1 with a one-line `FAIL:` — the correctness-failure contract.
fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// Unwraps an in-memory run onto the exit-code contract: an error is a
/// failed run, one `FAIL:` line.
fn or_fail<T>(what: &str, r: Result<T, impl std::fmt::Display>) -> T {
    r.unwrap_or_else(|e| fail(&format!("{what}: {e}")))
}

/// Fails the run with `msg` unless `ok` — `smoke`'s hard checks.
fn ensure(ok: bool, msg: &str) {
    if !ok {
        fail(msg);
    }
}

/// Unwraps a corpus-session result onto the exit-code contract: what
/// cannot be served as asked is a usage error, a wrong corpus a failure.
fn or_exit<T>(r: Result<T, SessionError>) -> T {
    match r {
        Ok(v) => v,
        Err(SessionError::Usage(msg)) => usage_error(&msg),
        Err(SessionError::Fail(msg)) => fail(&msg),
    }
}

/// `--max-buffered N` (`merge` / `tail`): exits 1 if peak merger residency
/// exceeded `N` events — the CI gate that streaming memory stays bounded by
/// the bootstrap window (seeded into the merger on every run) and the
/// search window, never by the corpus.
fn check_max_buffered(args: &Args, peak: u64) {
    if let Some(max) = args.max_buffered.filter(|&max| peak > max) {
        fail(&format!(
            "peak buffered {peak} events exceeds --max-buffered {max} — \
             streaming memory is no longer bounded by the bootstrap and search windows"
        ));
    }
}

/// Every flag `repro` accepts, as one declarative table (see
/// [`jigsaw_bench::cli`]). Valued flags validate eagerly — a value that
/// doesn't parse must never silently fall back to the default, even for
/// subcommands that ignore the flag, because CI passes these flags as
/// pass/fail gates.
static FLAGS: &[ArgSpec<Args>] = &[
    ArgSpec::parsed("--seed", "an integer seed", |a, v| {
        cli::assign(&mut a.seed, v)
    }),
    ArgSpec::parsed("--scale", "a scale factor", |a, v| {
        cli::assign(&mut a.scale, v)
    }),
    ArgSpec::switch("--parallel", |a| a.parallel = true),
    ArgSpec::parsed("--threads", "a thread count", |a, v| {
        cli::assign_some(&mut a.threads, v)
    }),
    ArgSpec::text("--corpus", |a, v| a.corpus = Some(v)),
    ArgSpec::text("--scenario", |a, v| a.scenario = Some(v)),
    ArgSpec::text("--golden", |a, v| a.golden = Some(v)),
    ArgSpec::switch("--bless", |a| a.bless = true),
    ArgSpec::parsed("--block-bytes", "a block size in bytes", |a, v| {
        cli::assign(&mut a.block_bytes, v)
    }),
    ArgSpec::parsed("--snaplen", "a snap length", |a, v| {
        cli::assign(&mut a.snaplen, v)
    }),
    ArgSpec::switch("--verify", |a| a.verify = true),
    ArgSpec::parsed("--from", "a timestamp in universal µs", |a, v| {
        cli::assign_some(&mut a.from, v)
    }),
    ArgSpec::parsed("--to", "a timestamp in universal µs", |a, v| {
        cli::assign_some(&mut a.to, v)
    }),
    ArgSpec::parsed("--max-buffered", "an event count", |a, v| {
        cli::assign_some(&mut a.max_buffered, v)
    }),
    ArgSpec::parsed("--chunk-bytes", "a chunk size in bytes", |a, v| {
        cli::assign_some(&mut a.chunk_bytes, v)
    }),
];

fn parse_args() -> Args {
    let mut args = Args {
        seed: 20060124, // the paper's trace date
        scale: 0.25,
        parallel: false,
        threads: None,
        corpus: None,
        scenario: None,
        golden: None,
        bless: false,
        block_bytes: 0,
        snaplen: 65_535,
        verify: false,
        max_buffered: None,
        from: None,
        to: None,
        chunk_bytes: None,
        cmd: String::new(),
    };
    let parser = cli::Parser {
        program: "repro",
        flags: FLAGS,
    };
    let Some(cmd) = parser.parse(std::env::args().skip(1), &mut args) else {
        usage_error(
            "no subcommand (expected smoke | fig7 | coverage-oracle | ablations | baselines | \
             record | merge | analyze | tail | diagnose | sweep)",
        );
    };
    args.cmd = cmd;
    args
}

/// The run's pipeline configuration: serial unless `--parallel` asks for
/// the channel-sharded merge layout. `--threads` only caps that layout's
/// shards, so without `--parallel` it is a usage error, never a flag
/// silently dropped.
fn pipeline_config(args: &Args) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    if args.parallel {
        cfg.shard.max_threads = args.threads.unwrap_or(0);
    } else if args.threads.is_some() {
        let cmd = &args.cmd;
        usage_error(&format!(
            "{cmd}: --threads caps the shards of --parallel; pass both or neither"
        ));
    }
    cfg
}

fn driver_label(args: &Args) -> &'static str {
    if args.parallel {
        "sharded"
    } else {
        "serial"
    }
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("== {title}");
    println!("================================================================");
}

fn simulate(seed: u64, scale: f64) -> SimOutput {
    let cfg = paper_scenario(seed, scale);
    let t0 = Instant::now();
    eprintln!(
        "[sim] building day: {} pods / {} radios, {} APs, {} clients, {:.0}s sim-time…",
        cfg.n_pods,
        cfg.n_pods * 4,
        cfg.n_aps + cfg.n_external_aps,
        cfg.n_clients,
        cfg.day_us as f64 / 1e6
    );
    let out = cfg.run();
    eprintln!(
        "[sim] done in {:.1?}: {} capture events, {} wired packets, {}/{} flows",
        t0.elapsed(),
        out.total_events(),
        out.wired.len(),
        out.stats.flows_completed,
        out.stats.flows_opened
    );
    eprintln!(
        "[sim] queue_drops {} retry_failures {} wired_losses {} frames {} tcp_rto {} tcp_fast {}",
        out.stats.queue_drops,
        out.stats.retry_failures,
        out.stats.wired_losses,
        out.stats.frames_transmitted,
        out.stats.tcp_rto_retx,
        out.stats.tcp_fast_retx
    );
    out
}

fn main() {
    let args = parse_args();
    // Anywhere else the gate flags would check nothing: a CI gate would pass.
    let gated = args.verify || args.max_buffered.is_some();
    if gated && !matches!(args.cmd.as_str(), "merge" | "tail") {
        let cmd = &args.cmd;
        usage_error(&format!(
            "{cmd}: --verify and --max-buffered check merge and tail only"
        ));
    }
    match args.chunk_bytes {
        Some(_) if args.cmd != "tail" => {
            let cmd = &args.cmd;
            usage_error(&format!("{cmd}: --chunk-bytes sizes tail's chunks only"));
        }
        Some(0) => usage_error("tail: --chunk-bytes must be at least 1"),
        _ => {}
    }
    match args.cmd.as_str() {
        "smoke" => run_smoke(&args),
        "fig7" => run_fig7(args.seed, args.scale),
        "coverage-oracle" => run_oracle(args.seed, args.scale),
        "ablations" => run_ablations(args.seed, args.scale),
        "baselines" => run_baselines(args.seed, args.scale),
        "record" => run_record(&args),
        "merge" => run_corpus_merge(&args),
        "analyze" => run_analyze(&args),
        "tail" => run_tail(&args),
        "diagnose" => run_diagnose(&args),
        "sweep" => run_sweep(&args),
        other => usage_error(&format!("unknown subcommand `{other}`")),
    }
}

/// Figure 7: coverage under pod reduction (39 → 30 → 20 → 10 pods).
fn run_fig7(seed: u64, scale: f64) {
    banner("FIGURE 7 — coverage vs number of sensor pods (paper §6)");
    let out = simulate(seed, scale);
    let ap_addrs: Vec<jigsaw_ieee80211::MacAddr> = out.stations.iter().map(|s| s.addr).collect();
    println!("pods  radios  bootstrap_components  ap_coverage  client_coverage");
    for keep in [39usize, 30, 20, 10] {
        let pods = pods_subset(39, keep);
        let radios = radios_of_pods(&pods);
        let streams = subset_streams(&out, &radios);
        let ap_addrs = ap_addrs.clone();
        let ap_lookup = move |sid: u16| ap_addrs[usize::from(sid)];
        let mut coverage = CoverageAnalysis::new(&out.wired, &ap_lookup, 10_000_000);
        let report = or_fail(
            "pipeline",
            Pipeline::run(streams, &PipelineConfig::default(), &mut coverage),
        );
        let fig = coverage.finish();
        println!(
            "{keep:>4} {:>7} {:>20} {:>12.3} {:>16.3}",
            radios.len(),
            report.bootstrap.components,
            fig.ap_coverage,
            fig.client_coverage
        );
    }
    println!("(paper: AP coverage stays ~0.94 down to 20 pods; client coverage 0.92 → 0.71 → 0.68; 10 pods partitions the bootstrap)");
}

/// §6 oracle experiment: one instrumented client vs the merged trace.
fn run_oracle(seed: u64, scale: f64) {
    banner("§6 ORACLE — instrumented-client coverage (paper: 95%)");
    let mut cfg = paper_scenario(seed, (scale * 0.5).max(0.05));
    cfg.truth = TruthConfig::OracleClient(0);
    let out = cfg.run();
    let Some(oracle_client) = out.stations.iter().find(|s| !s.is_ap) else {
        fail("the oracle scenario simulated no client");
    };
    let oracle_addr = oracle_client.addr;
    let mut oracle = OracleCoverage::new(&out.truth.transmissions, oracle_addr, 5_000);
    or_fail(
        "pipeline",
        Pipeline::run(
            out.memory_streams(),
            &PipelineConfig::default(),
            &mut oracle,
        ),
    );
    let fig = oracle.finish();
    println!(
        "oracle client {oracle_addr}: {}/{} link events captured = {:.3} (paper: 0.95; prior work 0.80-0.97)",
        fig.observed, fig.expected, fig.coverage
    );
}

/// Design-choice ablations called out in DESIGN.md.
fn run_ablations(seed: u64, scale: f64) {
    banner("ABLATIONS — sync design choices (quality metrics)");
    let out = simulate(seed, (scale * 0.5).max(0.05));
    let configs: Vec<(&str, MergeConfig)> = vec![
        ("jigsaw (full)", MergeConfig::default()),
        (
            "no skew EWMA",
            MergeConfig {
                ewma_alpha: 0.0,
                ..MergeConfig::default()
            },
        ),
        (
            "no resync (Yeo-style)",
            MergeConfig {
                resync_enabled: false,
                ..MergeConfig::default()
            },
        ),
        (
            "window 1ms",
            MergeConfig {
                search_window_us: 1_000,
                ..MergeConfig::default()
            },
        ),
        (
            "window 100ms",
            MergeConfig {
                search_window_us: 100_000,
                ..MergeConfig::default()
            },
        ),
        (
            "resync threshold 100us",
            MergeConfig {
                resync_threshold_us: 100,
                ..MergeConfig::default()
            },
        ),
    ];
    println!("config                  jframes   avg_inst  p50_disp  p99_disp  resyncs");
    for (name, merge) in configs {
        let cfg = PipelineConfig {
            merge,
            ..PipelineConfig::default()
        };
        let mut disp = DispersionAnalysis::new();
        let report = or_fail(
            "pipeline",
            Pipeline::run(out.memory_streams(), &cfg, &mut disp),
        );
        let fig = disp.finish();
        println!(
            "{name:<22} {:>9} {:>9.2} {:>8.0} {:>9.0} {:>8}",
            report.merge.jframes_out,
            report.merge.events_in as f64 / report.merge.jframes_out.max(1) as f64,
            fig.cdf.quantile(0.5).unwrap_or(0.0),
            fig.cdf.quantile(0.99).unwrap_or(0.0),
            report.merge.resyncs,
        );
    }
}

/// CI smoke: the tiny scenario through the whole sim → merge → analysis
/// path in a few seconds, with hard failures on degenerate output — run
/// once serial and once with the merge channel-sharded, asserting both
/// layouts produce the identical jframe stream.
fn run_smoke(args: &Args) {
    banner("SMOKE — ScenarioConfig::tiny, serial vs channel-sharded");
    let t0 = Instant::now();
    let out = jigsaw_sim::scenario::ScenarioConfig::tiny(args.seed).run();
    let events = out.total_events();

    // One pass of the one driver at a given shard layout.
    let pass = |max_threads: usize| {
        let mut cfg = PipelineConfig::default();
        cfg.shard.max_threads = max_threads;
        let mut exchanges = 0u64;
        let mut keys: Vec<(u64, u8, u32)> = Vec::new();
        let t = Instant::now();
        let report = or_fail(
            "pipeline",
            Pipeline::run(
                out.memory_streams(),
                &cfg,
                (
                    OnJFrame(|jf: &JFrame| keys.push((jf.ts, jf.channel.number(), jf.wire_len))),
                    OnExchange(|_: &jigsaw_core::link::exchange::Exchange| exchanges += 1),
                ),
            ),
        );
        (report, keys, exchanges, t.elapsed())
    };
    let (report, serial_keys, exchanges, serial_t) = pass(1);

    // Sharded pass: by default force one shard thread per channel even on
    // small machines — CI must exercise the threaded path, not the
    // single-shard inline one. `--threads N` overrides, so the CI thread
    // matrix (1/2/4) can pin the serial ≡ sharded assertion at every shard
    // layout, including channels split across fewer shards.
    let channels = jigsaw_trace::stream::distinct_channels(&out.radio_meta).len();
    let threads = match args.threads {
        None | Some(0) => channels.max(1),
        Some(t) => t,
    };
    let (par_report, par_keys, par_exchanges, par_t) = pass(threads);

    println!(
        "events {events}  jframes {}  exchanges {exchanges}  flows {}  serial {serial_t:.1?}  sharded({channels} ch, {threads} thr) {par_t:.1?}  total {:.1?}",
        report.merge.jframes_out,
        report.flows.len(),
        t0.elapsed()
    );
    ensure(events > 0, "simulation produced no capture events");
    ensure(report.merge.jframes_out > 0, "merger produced no jframes");
    ensure(exchanges > 0, "link layer reconstructed no exchanges");
    ensure(
        report.merge.events_in == events,
        &format!(
            "merger dropped events on the floor: {} of {events} merged",
            report.merge.events_in
        ),
    );
    // Sharded ≡ serial: same events, same jframe count, same stream.
    ensure(
        par_report.merge.events_in == report.merge.events_in,
        &format!(
            "sharded merge dropped events: {} vs serial {}",
            par_report.merge.events_in, report.merge.events_in
        ),
    );
    ensure(
        par_report.merge.jframes_out == report.merge.jframes_out,
        &format!(
            "sharded merge jframe count diverged from serial: {} vs {}",
            par_report.merge.jframes_out, report.merge.jframes_out
        ),
    );
    ensure(
        par_keys == serial_keys,
        "sharded merge jframe stream diverged from serial",
    );
    ensure(
        par_exchanges == exchanges,
        &format!("downstream reconstruction diverged: {par_exchanges} vs {exchanges} exchanges"),
    );
    println!(
        "smoke OK (serial == sharded, {} jframes)",
        serial_keys.len()
    );
}

/// The corpus directory or a usage error (the corpus subcommands are
/// useless without one).
fn corpus_dir(args: &Args) -> std::path::PathBuf {
    match &args.corpus {
        Some(dir) => std::path::PathBuf::from(dir),
        None => usage_error(&format!("{}: --corpus <dir> is required", args.cmd)),
    }
}

/// Opens the session every corpus-reading subcommand runs in — open,
/// digest check, and the exit-code contract for both — and prints the
/// corpus line.
fn open_session(args: &Args) -> CorpusSession {
    let dir = corpus_dir(args);
    let session = or_exit(CorpusSession::open(&dir));
    let corpus = session.corpus();
    let m = corpus.manifest();
    println!(
        "corpus {}: scenario {} seed {} scale {} — {} radios, {} events, {:.2} MB",
        dir.display(),
        m.scenario,
        m.seed,
        m.scale,
        m.radios.len(),
        corpus.total_events(),
        corpus.data_bytes().unwrap_or(0) as f64 / 1e6
    );
    session
}

/// A full replay must consume exactly the events the manifest records.
fn check_all_events(what: &str, events_in: u64, corpus: &Corpus) {
    if events_in != corpus.total_events() {
        fail(&format!(
            "{what} consumed {events_in} events, the manifest records {}",
            corpus.total_events()
        ));
    }
}

/// Renders every figure, then the stable machine-readable record lines.
fn print_figures(figures: &[Box<dyn Figure>]) {
    for fig in figures {
        banner(fig.title());
        print!("{}", fig.render());
    }
    banner("MACHINE RECORDS — figure key/value summary");
    print!("{}", record_lines(figures));
}

/// `record`: simulate a scenario and persist it as an on-disk corpus.
fn run_record(args: &Args) {
    banner("RECORD — simulate and persist a trace corpus");
    let dir = corpus_dir(args);
    let scenario = args.scenario.as_deref().unwrap_or("paper_day");
    let Some(cfg) = jigsaw_bench::scenario_by_name(scenario, args.seed, args.scale) else {
        usage_error(&format!(
            "unknown scenario `{scenario}` (expected tiny | small | paper_day, or a sweep-matrix name)"
        ));
    };
    let t0 = Instant::now();
    let out = cfg.run();
    let sim_t = t0.elapsed();
    let t0 = Instant::now();
    let summary = jigsaw_bench::record_corpus(
        &out,
        &dir,
        scenario,
        args.seed,
        args.scale,
        args.snaplen,
        args.block_bytes,
    )
    .unwrap_or_else(|e| fail(&format!("cannot record corpus {}: {e}", dir.display())));
    println!(
        "recorded {} radios / {} events to {} in {:.1?} (sim {sim_t:.1?}): {:.2} MB on disk, digest {}",
        summary.radios,
        summary.events,
        dir.display(),
        t0.elapsed(),
        summary.data_bytes as f64 / 1e6,
        summary.digest
    );
}

/// What one merge-only pass over a corpus cost.
struct MergeRun {
    stats: MergeStats,
    disk_bytes: u64,
    elapsed: Duration,
}

/// Streams the session's corpus through the merge — sources reading
/// `read`, emission clipped to `cfg.window` (see `CorpusSession::merge`) —
/// feeding every emitted jframe to the caller's digest.
fn stream_merge_corpus(
    session: &CorpusSession,
    read: Option<TimeWindow>,
    cfg: &PipelineConfig,
    on_jframe: impl FnMut(&JFrame),
) -> MergeRun {
    let before = session.disk_bytes();
    let t0 = Instant::now();
    let stats = or_exit(session.merge(read, cfg, on_jframe));
    MergeRun {
        stats,
        disk_bytes: session.disk_bytes() - before,
        elapsed: t0.elapsed(),
    }
}

/// `merge --corpus`: stream a recorded corpus through the pipeline with
/// window-bounded memory; `--verify` asserts the disk-backed jframe stream
/// is identical to in-memory serial AND sharded runs at the manifest seed.
/// With `--from/--to` the merge is a windowed replay, and `--verify`
/// instead asserts it unified exactly what the full replay clipped to the
/// same window unifies (per-channel count + clock-invariant digest).
fn run_corpus_merge(args: &Args) {
    let cfg = pipeline_config(args);
    banner("MERGE — stream an on-disk corpus through unification");
    let session = open_session(args);
    if let Some(window) = or_exit(session.window(args.from, args.to)) {
        return run_windowed_merge(args, &session, window);
    }
    let corpus = session.corpus();

    let mut digest = JframeStreamDigest::new();
    let run = stream_merge_corpus(&session, None, &cfg, |jf| digest.observe(jf));
    let events = run.stats.events_in;
    println!(
        "merged {events} events -> {} jframes in {:.1?} ({}, {:.0} events/s)",
        digest.count(),
        run.elapsed,
        driver_label(args),
        events as f64 / run.elapsed.as_secs_f64().max(1e-12)
    );
    println!(
        "stream digest {}  peak buffered {} events  disk bytes in {}",
        digest.hex(),
        run.stats.peak_buffered,
        run.disk_bytes
    );
    check_all_events("merge", events, corpus);
    check_max_buffered(args, run.stats.peak_buffered);

    if args.verify {
        let m = corpus.manifest();
        let Some(cfg_sim) = jigsaw_bench::scenario_by_name(&m.scenario, m.seed, m.scale) else {
            fail(&format!(
                "manifest scenario `{}` unknown to this binary",
                m.scenario
            ));
        };
        eprintln!("[verify] re-simulating {} at seed {}…", m.scenario, m.seed);
        let out = cfg_sim.run();
        let layouts = [
            ("serial", PipelineConfig::default()),
            ("sharded", jigsaw_bench::sharded_config(&out.radio_meta).0),
        ];

        let mut ok = true;
        for (name, mem_cfg) in layouts {
            let mut mem = JframeStreamDigest::new();
            or_fail(
                "in-memory merge",
                Pipeline::merge_only(
                    out.memory_streams(),
                    &mem_cfg,
                    OnJFrame(|jf: &JFrame| mem.observe(jf)),
                ),
            );
            if mem.count() != digest.count() || mem.hex() != digest.hex() {
                eprintln!(
                    "FAIL: disk stream ({} jframes, {}) != in-memory {name} ({} jframes, {})",
                    digest.count(),
                    digest.hex(),
                    mem.count(),
                    mem.hex()
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "verify OK: disk == in-memory serial == in-memory sharded ({} jframes, digest {})",
            digest.count(),
            digest.hex()
        );
    }
}

/// The windowed leg of `merge --corpus --from --to`: seek-bounded replay of
/// `[from, to)`, with `--verify` comparing against the full corpus replay
/// clipped to the same window.
fn run_windowed_merge(args: &Args, session: &CorpusSession, window: TimeWindow) {
    let corpus = session.corpus();
    let mut cfg = pipeline_config(args);
    cfg.window = Some(window);
    let mut digest = WindowedStreamDigest::new();
    let run = stream_merge_corpus(session, Some(window), &cfg, |jf| digest.observe(jf));
    let events = run.stats.events_in;
    println!(
        "window {window}: merged {events} events -> {} in-window jframes in {:.1?} ({}, {:.0} events/s)",
        digest.count(),
        run.elapsed,
        driver_label(args),
        events as f64 / run.elapsed.as_secs_f64().max(1e-12)
    );
    println!(
        "window digest {}  peak buffered {} events  disk bytes in {} (corpus holds {})",
        digest.hex(),
        run.stats.peak_buffered,
        run.disk_bytes,
        corpus.data_bytes().unwrap_or(0)
    );
    if events > corpus.total_events() {
        fail("windowed merge read more events than the corpus holds");
    }
    check_max_buffered(args, run.stats.peak_buffered);

    if args.verify {
        // The reference: the FULL corpus replayed from t = 0, serially,
        // with only emission clipped to the window. Equality is on the
        // per-channel clock-invariant digest — the windowed-replay
        // contract (merged timestamps agree only to the re-anchor
        // tolerance; unification must agree exactly).
        eprintln!("[verify] full replay clipped to {window}…");
        let full_cfg = PipelineConfig {
            window: Some(window),
            ..PipelineConfig::default()
        };
        let mut full = WindowedStreamDigest::new();
        let full_run = stream_merge_corpus(session, None, &full_cfg, |jf| full.observe(jf));
        if full.count() != digest.count() || full.hex() != digest.hex() {
            fail(&format!(
                "windowed replay ({} jframes, {}) != clipped-full replay ({} jframes, {})",
                digest.count(),
                digest.hex(),
                full.count(),
                full.hex()
            ));
        }
        if run.disk_bytes >= full_run.disk_bytes {
            // Not fatal (a window covering the whole span legitimately
            // reads everything), but worth shouting about in CI logs.
            eprintln!(
                "WARNING: windowed replay read {} disk bytes, the full scan {} — \
                 the index seek saved nothing",
                run.disk_bytes, full_run.disk_bytes
            );
        }
        println!(
            "verify OK: windowed == clipped-full ({} jframes, digest {}); disk bytes {} vs full scan {}",
            digest.count(),
            digest.hex(),
            run.disk_bytes,
            full_run.disk_bytes
        );
    }
}

/// `analyze --corpus`: stream the entire figure suite off a recorded
/// corpus through the full pipeline — merge (serial or, with
/// `--parallel`, channel-sharded), link and transport reconstruction, and
/// every registered analysis — in one bounded-memory pass. No
/// `Vec<JFrame>` (nor attempt/exchange vector) is ever materialized: the
/// `Suite` observes the streams as the merge emits them.
///
/// Everything comes from the corpus: the radio traces stream from disk,
/// and the wired distribution-network trace Figure 6 compares against is
/// the corpus's `wired.jigw` member — nothing is re-simulated. With
/// `--from/--to` the whole suite runs over a windowed replay (the wired
/// trace clips to the same `[from, to)`).
fn run_analyze(args: &Args) {
    let mut cfg = pipeline_config(args);
    banner("ANALYZE — stream the figure suite off a recorded corpus");
    let session = open_session(args);
    cfg.window = or_exit(session.window(args.from, args.to));
    let t0 = Instant::now();
    let (report, figures) = or_exit(session.analyze(&cfg));
    let elapsed = t0.elapsed();
    match cfg.window {
        Some(w) => println!("window {w}: replay restricted to the requested interval"),
        None => check_all_events("analyze", report.merge.events_in, session.corpus()),
    }
    println!(
        "analyzed {} events -> {} jframes, {} exchanges, {} flows in {elapsed:.1?} ({}, peak buffered {} events, disk bytes in {})",
        report.merge.events_in,
        report.merge.jframes_out,
        report.link.exchanges,
        report.transport.flows,
        driver_label(args),
        report.merge.peak_buffered,
        session.disk_bytes()
    );
    // What the report knows beyond the figures: the §5.1 inference rates
    // against the paper's, and Figure 11's loss provenance.
    banner("§5.1 — link-layer inference rates");
    let (link, transport, boot) = (&report.link, &report.transport, &report.bootstrap);
    for (what, n, inferred, paper) in [
        ("attempts", link.attempts, link.attempts_inferred, "0.58"),
        ("exchanges", link.exchanges, link.exchanges_inferred, "0.14"),
    ] {
        let pct = 100.0 * inferred as f64 / n.max(1) as f64;
        println!("{what}: {n} ({pct:.2}% inferred; paper {paper}%)");
    }
    println!(
        "delivered {} / ambiguous {}; transport resolved {} ambiguous via covering ACKs; {} covered holes",
        link.delivered, link.ambiguous, transport.ambiguous_resolved, transport.covered_holes
    );
    println!(
        "bootstrap: {} components, {} sets, {} coarse radios",
        boot.components,
        boot.sets_used,
        boot.coarse.iter().filter(|&&c| c).count()
    );
    println!(
        "loss provenance: original-delivered {} / original-ambiguous {} / unobserved {}",
        transport.losses_original_delivered,
        transport.losses_original_ambiguous,
        transport.losses_no_original
    );
    print_figures(&figures);
}

/// `tail --corpus`: `analyze` over the corpus's traces tailed in
/// `--chunk-bytes` chunks (64 KiB unless given) as if still being written
/// (`CorpusSession::tail`): the one driver stepped as a live service steps
/// it. A replayed file never starves, so nothing lags. Its `record` lines
/// must match `analyze`'s byte for byte (CI's live and sweep jobs `cmp`
/// them). Stepping needs the serial merge, so `--parallel` and
/// `--from/--to` (a window needs seeking tails) are usage errors.
/// `--verify` asserts the tailed jframe stream is the batch merge's (count
/// and digest) — the chunking-invariance contract — and `--max-buffered N`
/// exits 1 if the merger ever held more than N events.
fn run_tail(args: &Args) {
    if args.parallel {
        usage_error(
            "tail steps the serial merge; for a sharded run use `analyze --corpus DIR --parallel`",
        );
    }
    if args.from.is_some() || args.to.is_some() {
        usage_error(
            "tail replays the whole corpus; --from/--to window merge, analyze and diagnose",
        );
    }
    banner("TAIL — live streaming ingest from a recorded corpus");
    let session = open_session(args);
    let corpus = session.corpus();
    let chunk = args.chunk_bytes.unwrap_or(64 * 1024);

    let mut digest = JframeStreamDigest::new();
    let t0 = Instant::now();
    let (report, figures) =
        or_exit(session.tail(chunk, OnJFrame(|jf: &JFrame| digest.observe(jf))));
    let elapsed = t0.elapsed();
    let (events_in, peak) = (report.merge.events_in, report.merge.peak_buffered);
    check_all_events("tail", events_in, corpus);
    println!(
        "tailed {events_in} events -> {} jframes, {} exchanges, {} flows in {elapsed:.1?} (live, chunk {chunk} B, peak buffered {peak} events)",
        report.merge.jframes_out, report.link.exchanges, report.transport.flows
    );
    let lag_q = report.lag.quantiles(&[0.5, 0.99]);
    println!(
        "emission lag p50 {} µs  p99 {} µs  max {} µs (trace time behind the safe horizon)",
        lag_q[0],
        lag_q[1],
        report.lag.max(),
    );
    // Nothing lags: a replayed tail never pends, so every radio ends.
    for (k, r) in report.radios.iter().enumerate() {
        println!(
            "source {k}: {:?}  events {}  late_dropped {}  status Ended",
            r.radio, r.events, r.late_dropped
        );
    }
    check_max_buffered(args, peak);

    if args.verify {
        let mut batch = JframeStreamDigest::new();
        let run = stream_merge_corpus(&session, None, &PipelineConfig::default(), |jf| {
            batch.observe(jf)
        });
        if run.stats.events_in != events_in
            || batch.count() != digest.count()
            || batch.hex() != digest.hex()
        {
            fail(&format!(
                "tailed stream diverges from the batch merge: tail {} jframes digest {}, batch {} jframes digest {} — a replayed tail never lags, so this is a bug",
                digest.count(),
                digest.hex(),
                batch.count(),
                batch.hex(),
            ));
        }
        println!(
            "verify OK: live ≡ batch — {} jframes, digest {}",
            digest.count(),
            digest.hex()
        );
    }
    print_figures(&figures);
}

/// `diagnose`: evidence-grounded triage off a recorded corpus, in **one
/// pass** over it (`CorpusSession::diagnose`). The coarse figure suite
/// feeds the detector catalogue (`jigsaw_diagnosis::standard_detectors`),
/// and the deep-dive tiles of the diagnosed span ride the same pass
/// through a tile fan-out (`jigsaw_core::pipeline::TileFanout`), so each
/// triggered detector re-checks its gate against tile records that are
/// byte-identical to `analyze` of the same sources clipped to that tile —
/// the clipped-full side of the windowed ≡ clipped-full contract, on the
/// clocks of the run being diagnosed — with `disk bytes in` equal to a
/// single `analyze`'s. Confirmed incidents print with their severity,
/// reliability, and quoted record evidence. A jframe keyed into a tile
/// the stream had already closed (anchor time a second behind merged time)
/// fails the run, as does a full replay that did not consume every
/// recorded event (`FAIL:`, exit 1). `--from/--to` restrict the pass — and
/// with it the diagnosed span and its tiles — to a windowed replay;
/// `--golden FILE` compares the machine records against a blessed golden
/// (exit 1 on drift), `--bless` rewrites it.
///
/// A tile is deliberately *not* a fresh windowed replay: a re-anchored
/// mid-trace bootstrap agrees with the full run on grouping but only to
/// the re-anchor tolerance on time, so clock-sensitive evidence can read
/// differently from the run whose gate fired. On clean captures the two
/// agree (the tiny golden is the same under both); on the capture-lossy
/// DAY corpus (jigbench seed 7) the first tile's `fig4.p99_us` is 740 on
/// the coarse clocks and 780 after a fresh bootstrap, and the µs-scale
/// fig9 overlap tests confirm one retry-storm tile where replays, reading
/// `fig9.frac_with_interference` at 0.60 and 0.50 against the 0.5 gate in
/// two more, confirmed three — 12 incidents against 14.
fn run_diagnose(args: &Args) {
    let mut cfg = pipeline_config(args);
    banner("DIAGNOSE — evidence-grounded triage over the figure suite");
    let session = open_session(args);
    cfg.window = or_exit(session.window(args.from, args.to));

    let t0 = Instant::now();
    let (pass, report) = or_exit(session.diagnose(&cfg, &jigsaw_diagnosis::Thresholds::default()));
    if cfg.window.is_none() {
        check_all_events("diagnose", pass.merge.events_in, session.corpus());
    }
    let triggered = report.detectors.iter().filter(|d| d.triggered).count();
    let (m, dir) = (session.corpus().manifest(), session.corpus().dir());
    // One stable stdout line — what CI greps into the step summary.
    println!(
        "diagnose {}: span {} {} detectors {} triggered {} windows_analyzed {} incidents {} disk bytes in {} ({:.1?})",
        m.scenario,
        report.span.0,
        report.span.1,
        report.detectors.len(),
        triggered,
        report.windows_analyzed,
        report.incidents.len(),
        session.disk_bytes(),
        t0.elapsed()
    );
    for inc in &report.incidents {
        println!(
            "  {} in {}: severity {:.2} reliability {:.2}",
            inc.detector, inc.window, inc.severity, inc.reliability
        );
    }
    banner("MACHINE RECORDS — diagnosis");
    let lines = report.record_lines();
    print!("{lines}");

    // Golden comparison is opt-in: the golden pins one specific corpus
    // (CI's tiny golden corpus), so arbitrary-corpus runs only print.
    if let Some(golden) = &args.golden {
        let path = std::path::Path::new(golden);
        let body = format!(
            "# jigsaw diagnose golden — scenario {} seed {}\n{lines}",
            m.scenario, m.seed
        );
        if args.bless {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, &body));
            if let Err(e) = written {
                fail(&format!("cannot write golden {golden}: {e}"));
            }
            println!("diagnose golden BLESSED: {golden}");
        } else {
            match std::fs::read_to_string(path) {
                Ok(expected) => match jigsaw_bench::sweep::diff_lines(&expected, &body) {
                    None => println!("diagnose golden MATCHED: {golden}"),
                    Some(diff) => fail(&format!(
                        "diagnosis drifted from {golden}:\n{diff}(intentional change? re-bless with `repro diagnose --corpus {} --golden {golden} --bless`)",
                        dir.display()
                    )),
                },
                Err(_) => fail(&format!(
                    "no diagnosis golden at {golden} (bless with `repro diagnose --corpus {} --golden {golden} --bless`)",
                    dir.display()
                )),
            }
        }
    }
}

/// `sweep`: the standing golden-record matrix over adversarial traffic
/// shapes. Every scenario runs end-to-end (record → both merge drivers
/// from memory and disk → figure-suite records serial vs sharded → a
/// windowed replay), and the surviving digests + record lines diff
/// line-by-line against `.github/golden/sweep/<name>.golden`. Any
/// cross-check divergence or golden drift exits 1; `--bless` rewrites the
/// goldens instead of comparing.
fn run_sweep(args: &Args) {
    use jigsaw_bench::sweep::{self, GoldenStatus};
    banner("SWEEP — golden-record scenario matrix");
    let golden_dir = std::path::PathBuf::from(args.golden.as_deref().unwrap_or(sweep::GOLDEN_DIR));
    let out_root = std::path::PathBuf::from(args.corpus.as_deref().unwrap_or("target/sweep"));
    let matrix = jigsaw_sim::spec::ScenarioSpec::sweep_matrix();
    let specs = match &args.scenario {
        None => matrix,
        Some(name) => match jigsaw_sim::spec::ScenarioSpec::by_name(name) {
            Some(s) => vec![s],
            None => {
                let names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
                usage_error(&format!(
                    "unknown sweep scenario `{name}` (the matrix: {names:?})"
                ));
            }
        },
    };
    // Fail fast on matrix ↔ golden drift before burning CPU on simulations.
    // Skipped when blessing (which creates the files) or filtering to one
    // scenario (a partial run cannot judge the whole set).
    if !args.bless && args.scenario.is_none() {
        if let Err(e) = sweep::check_matrix_coverage(&golden_dir) {
            eprintln!("FAIL: golden set and sweep matrix drifted apart:\n{e}");
            std::process::exit(1);
        }
    }
    let mut failures = 0usize;
    for spec in &specs {
        let t0 = Instant::now();
        let run = match sweep::run_scenario(spec, args.seed, &out_root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FAIL: {e}");
                println!("sweep {}: FAIL ({:.1?})", spec.name, t0.elapsed());
                failures += 1;
                continue;
            }
        };
        let status =
            sweep::check_golden(&run, &golden_dir, args.bless).unwrap_or_else(|e| fail(&e));
        // One stable stdout line per scenario — what CI greps into the
        // step summary.
        println!(
            "sweep {}: events {} jframes {} digest {} window_jframes {} golden {} ({:.1?})",
            run.name,
            run.events,
            run.jframes,
            run.stream_digest,
            run.window_jframes,
            status.label(),
            t0.elapsed()
        );
        match &status {
            GoldenStatus::Mismatch(diff) => eprintln!(
                "FAIL: `{}` drifted from {}:\n{diff}(intentional change? re-bless with `repro sweep --bless`)",
                run.name,
                sweep::golden_path(&golden_dir, &run.name).display()
            ),
            GoldenStatus::Missing(path) => eprintln!(
                "FAIL: `{}` has no golden at {} (bless with `repro sweep --bless`)",
                run.name,
                path.display()
            ),
            _ => {}
        }
        if status.is_failure() {
            failures += 1;
        }
    }
    // A full bless must leave a self-consistent set behind (stale goldens
    // for retired scenarios still fail).
    if args.bless && args.scenario.is_none() {
        if let Err(e) = sweep::check_matrix_coverage(&golden_dir) {
            eprintln!("FAIL: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("sweep: {failures} scenario(s) failed");
        std::process::exit(1);
    }
    println!("sweep OK: {} scenario(s)", specs.len());
}

/// Baseline mergers vs Jigsaw.
fn run_baselines(seed: u64, scale: f64) {
    banner("BASELINES — naive (mergecap-style) and Yeo-style merging");
    let out = simulate(seed, (scale * 0.5).max(0.05));
    let events = out.total_events();

    // Jigsaw.
    let mut disp = DispersionAnalysis::new();
    let t0 = Instant::now();
    let report = or_fail(
        "pipeline",
        Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut disp),
    );
    let jig_t = t0.elapsed();
    let jig_fig = disp.finish();

    // Yeo-style: bootstrap once, never resync.
    let yeo = PipelineConfig {
        merge: MergeConfig {
            resync_enabled: false,
            ..MergeConfig::default()
        },
        ..PipelineConfig::default()
    };
    let mut yeo_disp = DispersionAnalysis::new();
    let t0 = Instant::now();
    let (_, yeo_stats) = or_fail(
        "yeo merge",
        Pipeline::merge_only(out.memory_streams(), &yeo, &mut yeo_disp),
    );
    let yeo_t = t0.elapsed();
    let yeo_fig = yeo_disp.finish();

    // Naive: no synchronization at all.
    let t0 = Instant::now();
    let naive_stats = or_fail(
        "naive merge",
        naive_merge(out.memory_streams(), 10_000, |_| {}),
    );
    let naive_t = t0.elapsed();

    println!("merger   events  jframes  unified_evts  p99_disp_us  time");
    println!(
        "jigsaw  {events:>8} {:>8} {:>12} {:>12.0} {jig_t:>9.1?}",
        report.merge.jframes_out,
        report.merge.instances_unified,
        jig_fig.cdf.quantile(0.99).unwrap_or(0.0),
    );
    println!(
        "yeo     {events:>8} {:>8} {:>12} {:>12.0} {yeo_t:>9.1?}",
        yeo_stats.jframes_out,
        yeo_stats.instances_unified,
        yeo_fig.cdf.quantile(0.99).unwrap_or(0.0),
    );
    println!(
        "naive   {events:>8} {:>8} {:>12} {:>12} {naive_t:>9.1?}",
        naive_stats.jframes_out, naive_stats.instances_unified, "n/a",
    );
    println!(
        "(naive merging cannot unify duplicates across unsynchronized clocks: jframes ≈ events)"
    );
}
