//! `jigtrace` — the traced half of the benchmark: links the crates and
//! times calls into each layer's public functions, one layer at a time
//! over materialised inputs, recording a span at every layer boundary.
//! Spans stay in memory and are written to `trace.json` at exit. End-to-end
//! numbers are never taken here (the allocator below counts, the inputs are
//! held in memory); end-to-end passes run beside the tracer only to report
//! the child's CPU time and to check its output.

// The result lines *are* stdout.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use jigbench::cli::{provenance, sibling, Opts};
use jigbench::clock::Trace;
use jigbench::corpora::{self, Built};
use jigbench::report::{contract_line, Json, Values, PER_LAYER};
use jigbench::stats::median;
use jigbench::workload::{self, Measured, Stop, Workload, TAIL_CHUNK_BYTES};
use jigsaw_analysis::suite::record_lines;
use jigsaw_bench::alloc::{AllocRegion, CountingAlloc};
use jigsaw_bench::{corpus_sources, corpus_sources_windowed, corpus_wired, figure_suite_parts};
use jigsaw_core::link::attempt::AttemptAssembler;
use jigsaw_core::link::exchange::ExchangeAssembler;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig, WINDOW_READ_SLACK_US, WINDOW_WARMUP_US};
use jigsaw_core::shard::{run_sharded, ShardConfig};
use jigsaw_core::sync::bootstrap::{bootstrap_at, BootstrapConfig};
use jigsaw_core::transport::flow::TransportAnalyzer;
use jigsaw_core::unify::{MergeConfig, Merger};
use jigsaw_core::PipelineObserver;
use jigsaw_diagnosis::{run_diagnosis, standard_detectors, RecordSet, Thresholds};
use jigsaw_ieee80211::MacAddr;
use jigsaw_live::{ChunkedFileTail, LiveConfig, LiveMerger, LiveSource, ManualClock, SourcePoll};
use jigsaw_sim::wired::WiredTraceRecord;
use jigsaw_trace::corpus::Corpus;
use jigsaw_trace::stream::{EventStream, MemoryStream};
use jigsaw_trace::{PhyEvent, TimeWindow};
use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `*_allocs_per_event` come from this process's one allocator (see
/// `jigsaw_bench::alloc`; the `unsafe impl` lives there, not here).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn s(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One streamed figure-suite pass over a corpus, or over a window of it —
/// what `repro analyze` runs once and `repro diagnose` once per window.
struct Replay<'a> {
    corpus: &'a Corpus,
    wired: &'a [WiredTraceRecord],
    ap_table: &'a HashMap<u16, MacAddr>,
    disk_bytes: &'a Arc<AtomicU64>,
}

impl Replay<'_> {
    /// Runs the pass under a span named `span` and returns the record
    /// lines' count and the typed records.
    fn records(
        &self,
        t: &mut Trace,
        span: &'static str,
        window: Option<TimeWindow>,
    ) -> Result<(usize, RecordSet), String> {
        let id = t.enter(span);
        let wired: Vec<WiredTraceRecord> = self
            .wired
            .iter()
            .filter(|r| window.is_none_or(|w| w.contains(r.ts)))
            .cloned()
            .collect();
        let m = self.corpus.manifest();
        let ap_lookup = |sid: u16| self.ap_table[&sid];
        let mut suite = figure_suite_parts(m.radios.len(), m.duration_us, &wired, &ap_lookup);
        let cfg = PipelineConfig {
            window,
            ..PipelineConfig::default()
        };
        let counter = Arc::clone(self.disk_bytes);
        match window {
            Some(w) => {
                let sources = corpus_sources_windowed(self.corpus, counter, w).map_err(s)?;
                Pipeline::run(sources, &cfg, &mut suite)
            }
            None => {
                let sources = corpus_sources(self.corpus, counter).map_err(s)?;
                Pipeline::run(sources, &cfg, &mut suite)
            }
        }
        .map_err(s)?;
        let figures = suite.finish();
        let lines = record_lines(&figures).lines().count();
        t.exit(id);
        Ok((lines, RecordSet::from_figures(&figures)))
    }
}

/// Times every layer over the corpus at `built.dir`, filling `v`.
fn trace_layers(
    t: &mut Trace,
    v: &mut Values,
    built: &Built,
    windows: &[(u64, u64)],
    threads: usize,
) -> Result<(), String> {
    let disk_bytes = Arc::new(AtomicU64::new(0));
    let mb_since = |before: u64| (disk_bytes.load(Ordering::Relaxed) - before) as f64 / 1e6;

    // -- trace: open, digest, full decode, windowed decode, tail decode --
    let id = t.enter("trace.open");
    let corpus = Corpus::open(&built.dir).map_err(s)?;
    let sources = corpus.sources(Arc::clone(&disk_bytes)).map_err(s)?;
    v.set("trace.open_s", t.exit(id));

    let id = t.enter("trace.digest");
    let digest_ok = corpus.verify_digest().map_err(s)?;
    v.set("trace.digest_s", t.exit(id));
    if !digest_ok {
        return Err("corpus files do not match their recorded digest".into());
    }

    let before = disk_bytes.load(Ordering::Relaxed);
    let region = AllocRegion::begin();
    let id = t.enter("trace.decode");
    let mut events: Vec<Vec<PhyEvent>> = Vec::with_capacity(sources.len());
    for src in &sources {
        let mut stream = src.open_stream().map_err(s)?;
        let mut radio = Vec::new();
        while let Some(ev) = stream.next_event().map_err(s)? {
            radio.push(ev);
        }
        events.push(radio);
    }
    let decode_s = t.exit(id);
    let decode_allocs = region.end();
    let n_events: u64 = events.iter().map(|e| e.len() as u64).sum();
    if n_events != built.events {
        return Err(format!(
            "decoded {n_events} events, recorded {}",
            built.events
        ));
    }
    v.set("trace.decode_s", decode_s);
    v.set("trace.decode_events", n_events as f64);
    v.set("trace.decode_mb_in", mb_since(before));
    v.set(
        "trace.decode_allocs_per_event",
        decode_allocs.per_event(n_events),
    );

    let before = disk_bytes.load(Ordering::Relaxed);
    let id = t.enter("trace.seek");
    let (mut yielded, mut in_window) = (0u64, 0u64);
    for &(from, to) in windows {
        for src in &sources {
            // The range a `WindowedCorpusSource` reads for this window.
            let meta = src.meta();
            let lo = meta.coarse_local(from.saturating_sub(WINDOW_WARMUP_US));
            let hi = meta.coarse_local(to).saturating_add(WINDOW_READ_SLACK_US);
            let mut stream = src.open_stream_range(lo, hi).map_err(s)?;
            while let Some(ev) = stream.next_event().map_err(s)? {
                yielded += 1;
                let at = meta.anchor_universal(ev.ts_local);
                in_window += u64::from(at >= from && at < to);
            }
        }
    }
    v.set("trace.seek_s", t.exit(id));
    v.set("trace.seek_mb_in", mb_since(before));
    v.set(
        "trace.seek_useful_share",
        in_window as f64 / yielded.max(1) as f64,
    );

    let tails = || -> Result<Vec<ChunkedFileTail>, String> {
        let open =
            |file: &String| ChunkedFileTail::open(&corpus.dir().join(file), TAIL_CHUNK_BYTES);
        let radios = &corpus.manifest().radios;
        radios.iter().map(|r| open(&r.data).map_err(s)).collect()
    };
    let id = t.enter("trace.tail_decode");
    let mut tail_events = 0u64;
    for mut tail in tails()? {
        loop {
            match tail.poll().map_err(s)? {
                SourcePoll::Event(ev) => {
                    black_box(&ev);
                    tail_events += 1;
                }
                // A replay tail over a finished file never starves.
                SourcePoll::Pending => {}
                SourcePoll::End => break,
            }
        }
    }
    v.set("trace.tail_decode_s", t.exit(id));
    if tail_events != n_events {
        return Err(format!(
            "tails decoded {tail_events} events, batch {n_events}"
        ));
    }

    // -- core.sync: bootstrap at t = 0 and at one mid-trace window --
    let bcfg = BootstrapConfig::default();
    let metas = corpus.metas();
    let id = t.enter("trace.bootstrap_read");
    let window0 = sources
        .iter()
        .map(|src| src.read_bootstrap_window(bcfg.window_us))
        .collect::<Result<Vec<_>, _>>()
        .map_err(s)?;
    let bootstrap_read_s = t.exit(id);
    let los0: Vec<u64> = metas.iter().map(|m| m.anchor_local_us).collect();
    let id = t.enter("core.sync.bootstrap");
    let boot = bootstrap_at(&metas, &window0, &los0, &bcfg).map_err(s)?;
    let bootstrap0_s = t.exit(id);

    let mid = windows.get(windows.len() / 2).map_or(0, |w| w.0);
    let los_mid: Vec<u64> = metas
        .iter()
        .map(|m| m.coarse_local(mid.saturating_sub(WINDOW_WARMUP_US)))
        .collect();
    let id = t.enter("trace.bootstrap_read");
    let window_mid = sources
        .iter()
        .zip(&los_mid)
        .map(|(src, &lo)| src.read_window(lo, lo.saturating_add(bcfg.window_us)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(s)?;
    t.exit(id);
    let id = t.enter("core.sync.bootstrap");
    bootstrap_at(&metas, &window_mid, &los_mid, &bcfg).map_err(s)?;
    v.set("core.sync.bootstrap_s", bootstrap0_s + t.exit(id));
    let window_events = |w: &[Vec<PhyEvent>]| w.iter().map(Vec::len).sum::<usize>();
    v.set(
        "core.sync.bootstrap_events",
        (window_events(&window0) + window_events(&window_mid)) as f64,
    );

    // -- core.unify and core.shard over the same pre-decoded events --
    let memory_streams = |events: &[Vec<PhyEvent>]| -> Vec<MemoryStream> {
        metas
            .iter()
            .zip(events)
            .map(|(m, e)| MemoryStream::new(*m, e.clone()))
            .collect()
    };
    let streams = memory_streams(&events);
    let region = AllocRegion::begin();
    let id = t.enter("core.unify");
    let mut jframes = Vec::new();
    let unify = Merger::new_at(streams, &boot.offsets, &los0, MergeConfig::default())
        .run(|jf| jframes.push(jf))
        .map_err(s)?;
    let unify_s = t.exit(id);
    let unify_allocs = region.end();
    v.set("core.unify_s", unify_s);
    v.set(
        "core.unify_ns_per_event",
        unify_s * 1e9 / n_events.max(1) as f64,
    );
    v.set("core.unify_jframes", unify.jframes_out as f64);
    v.set("core.unify_peak_buffered", unify.peak_buffered as f64);
    v.set(
        "core.unify_allocs_per_event",
        unify_allocs.per_event(n_events),
    );

    let streams = memory_streams(&events);
    drop(events);
    let shard_cfg = ShardConfig {
        max_threads: threads,
        ..ShardConfig::default()
    };
    let id = t.enter("core.shard");
    let mut sharded_jframes = 0u64;
    let shard = run_sharded(
        streams,
        &boot.offsets,
        Vec::new(),
        &los0,
        &MergeConfig::default(),
        &shard_cfg,
        |jf| {
            black_box(&jf);
            sharded_jframes += 1;
        },
    )
    .map_err(s)?;
    let shard_s = t.exit(id);
    if sharded_jframes != unify.jframes_out {
        return Err(format!(
            "sharded merge emitted {sharded_jframes} jframes, serial {}",
            unify.jframes_out
        ));
    }
    v.set("core.shard_s", shard_s);
    v.set("core.shard_speedup", unify_s / shard_s);
    v.set("core.shard_peak_buffered", shard.peak_buffered as f64);

    // -- core.link and core.transport over the collected streams --
    let id = t.enter("core.link.attempt");
    let mut assembler = AttemptAssembler::new();
    let (mut attempts, mut buf) = (Vec::new(), Vec::new());
    for jf in &jframes {
        assembler.push(jf, &mut buf);
        attempts.append(&mut buf);
    }
    assembler.finish(&mut buf);
    attempts.append(&mut buf);
    let attempt_s = t.exit(id);
    v.set("core.link.attempt_s", attempt_s);
    v.set("core.link.attempts", attempts.len() as f64);

    let to_assemble = attempts.clone();
    let id = t.enter("core.link.exchange");
    let mut assembler = ExchangeAssembler::new();
    let (mut exchanges, mut buf) = (Vec::new(), Vec::new());
    for a in to_assemble {
        assembler.push(a, &mut buf);
        exchanges.append(&mut buf);
    }
    assembler.finish(&mut buf);
    exchanges.append(&mut buf);
    let exchange_s = t.exit(id);
    v.set("core.link.exchange_s", exchange_s);
    v.set("core.link.exchanges", exchanges.len() as f64);

    // Transport wants transmission-time order (the pipeline's reorder heap
    // delivers it); exchanges close out of order.
    exchanges.sort_by_key(|x| x.first_ts);
    let id = t.enter("core.transport");
    let mut transport = TransportAnalyzer::new();
    for x in &exchanges {
        transport.push(x);
    }
    let (flows, _) = transport.finish();
    let transport_s = t.exit(id);
    v.set("core.transport_s", transport_s);
    v.set("core.transport_flows", flows.len() as f64);

    // -- analysis: the figure suite's hooks, one stream at a time --
    let (wired, ap_table) = corpus_wired(&corpus)?;
    let m = corpus.manifest();
    let ap_lookup = |sid: u16| ap_table[&sid];
    let suite_id = t.enter("analysis.suite");
    let mut suite = figure_suite_parts(m.radios.len(), m.duration_us, &wired, &ap_lookup);
    let id = t.enter("analysis.on_jframe");
    jframes.iter().for_each(|jf| suite.on_jframe(jf));
    v.set("analysis.on_jframe_s", t.exit(id));
    let id = t.enter("analysis.on_attempt");
    attempts.iter().for_each(|a| suite.on_attempt(a));
    v.set("analysis.on_attempt_s", t.exit(id));
    let id = t.enter("analysis.on_exchange");
    exchanges.iter().for_each(|x| suite.on_exchange(x));
    v.set("analysis.on_exchange_s", t.exit(id));
    let id = t.enter("analysis.finish");
    suite.on_flows(&flows);
    let records = record_lines(&suite.finish()).lines().count();
    v.set("analysis.finish_s", t.exit(id));
    let suite_s = t.exit(suite_id);
    v.set("analysis.suite_s", suite_s);
    v.set("analysis.records", records as f64);
    drop((jframes, attempts, exchanges, flows));

    // -- the streamed pipeline, and diagnosis on top of it --
    let replay = Replay {
        corpus: &corpus,
        wired: &wired,
        ap_table: &ap_table,
        disk_bytes: &disk_bytes,
    };
    let scan_id = t.enter("diagnose.scan");
    let (streamed_records, coarse) = replay.records(t, "core.pipeline_streamed", None)?;
    v.set("diagnose.scan_s", t.exit(scan_id));
    if streamed_records != records {
        return Err(format!(
            "streamed pipeline printed {streamed_records} records, staged {records}"
        ));
    }
    let streamed_s = t.total_s("core.pipeline_streamed");
    let stage_sum_s = decode_s
        + bootstrap_read_s
        + bootstrap0_s
        + unify_s
        + attempt_s
        + exchange_s
        + transport_s
        + suite_s;
    v.set("core.pipeline_streamed_s", streamed_s);
    v.set("core.pipeline_stage_sum_s", stage_sum_s);
    v.set("core.pipeline_coverage", stage_sum_s / streamed_s);

    let span = corpus
        .universal_span()
        .map_err(s)?
        .ok_or("corpus records no events")?;
    let id = t.enter("diagnose.confirm");
    let mut dive = |w: TimeWindow| replay.records(t, "diagnose.dive", Some(w)).map(|(_, r)| r);
    let report = run_diagnosis(
        &standard_detectors(),
        &coarse,
        span,
        &Thresholds::default(),
        &mut dive,
    )?;
    t.exit(id);
    v.set("diagnose.dive_s", t.total_s("diagnose.dive"));
    v.set("diagnose.windows", report.windows_analyzed as f64);
    v.set("diagnose.incidents", report.incidents.len() as f64);

    // -- live: the push-driven merger over chunked tails, no-op sink --
    let mut live = LiveMerger::new(LiveConfig::default(), ManualClock::new());
    for tail in tails()? {
        live.add_source(tail);
    }
    let id = t.enter("live.merge");
    let report = live.run(|jf| drop(black_box(jf))).map_err(s)?;
    v.set("live.merge_s", t.exit(id));
    let lag = report.lag.quantiles(&[0.5, 0.99]);
    v.set("live.peak_buffered", report.merge.peak_buffered as f64);
    v.set("live.lag_p50_us", lag[0] as f64);
    v.set("live.lag_p99_us", lag[1] as f64);
    let late: u64 = report.sources.iter().map(|src| src.late_dropped).sum();
    v.set("live.late_dropped", late as f64);
    v.set("live.reanchors", report.reanchors as f64);
    Ok(())
}

/// One workload's traced run: set the corpus up once, time every layer
/// over it, then run end-to-end passes beside the tracer for the child's
/// CPU time and the output check.
fn traced_run(
    opts: &Opts,
    workload: &'static Workload,
    scratch: &std::path::Path,
) -> Result<(Values, Measured, Trace), String> {
    eprintln!(
        "jigtrace: tracing {} (seed {}, {} corpora)",
        workload.name,
        opts.seed,
        opts.size.name()
    );
    let repro = sibling("repro");
    let (mut bench, setup_s) =
        workload::set_up_timed(workload, opts.size, opts.seed, &repro, scratch, 1)?;
    let mut trace = Trace::new(workload.name);
    let mut v = Values::default();
    let built = bench.corpus.clone();
    v.set("sim.run_s", built.sim_s);
    v.set("trace.write_s", built.write_s);
    v.set("trace.write_mb_s", built.bytes as f64 / 1e6 / built.write_s);
    let windows = corpora::corpus_windows(&built.dir, opts.size.windows()).map_err(s)?;
    let layers = trace_layers(
        &mut trace,
        &mut v,
        &built,
        &windows,
        workload::shard_threads(),
    );
    // Two passes, so a self-referenced workload has something to drift from.
    let measured = layers.map(|()| bench.measure(Stop::Reps(2), setup_s));
    bench.clean_up();
    let measured = measured?;
    v.set("proc.cpu_s", median(&measured.cpu_s));
    v.set("proc.wall_s", measured.median_of("wall_s"));
    v.set("record_drift_lines", measured.drift_lines as f64);
    v.set("fail_share", measured.fail_share());
    Ok((v, measured, trace))
}

fn main() -> ExitCode {
    let opts = Opts::parse("jigtrace");
    let one_shot = match opts.cmd.as_deref() {
        None => true,
        Some("trace") => false,
        Some(other) => jigsaw_bench::cli::usage_error(
            "jigtrace",
            &format!("unknown subcommand `{other}` (run it through `jigbench trace`)"),
        ),
    };
    if one_shot && opts.workload.is_none() {
        jigsaw_bench::cli::usage_error("jigtrace", "expected --workload NAME");
    }
    let scratch = opts.scratch_dir();
    let mut spans = Vec::new();
    let mut docs = Vec::new();
    let mut all_correct = true;
    for workload in opts.workloads() {
        let (v, measured, trace) = match traced_run(&opts, workload, &scratch) {
            Ok(run) => run,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&scratch);
                eprintln!("jigtrace: {}: {e}", workload.name);
                return ExitCode::from(1);
            }
        };
        all_correct &= measured.correct();
        spans.push((workload.name, trace.to_json()));
        if one_shot {
            println!(
                "{}",
                contract_line(
                    measured.attempted,
                    measured.failed,
                    measured.correct(),
                    v.to_json(PER_LAYER)
                )
            );
        } else {
            let metrics = PER_LAYER.iter().map(|def| {
                let entry = Json::obj([
                    (
                        "value",
                        Json::Num(v.get(def.name).expect("every layer was traced")),
                    ),
                    ("unit", Json::str(def.unit)),
                    ("better", Json::str(def.better)),
                    ("measures_and_moves", Json::str(def.note)),
                ]);
                (def.name, entry)
            });
            docs.push(Json::obj([
                ("workload", Json::str(workload.name)),
                ("correct", Json::Bool(measured.correct())),
                ("corpus_digest", Json::str(&measured.corpus.digest)),
                ("corpus_events", Json::Int(measured.corpus.events)),
                ("metrics", Json::obj(metrics)),
            ]));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let trace_file = opts.work_root().join("trace.json");
    if let Err(e) = std::fs::write(&trace_file, Json::obj(spans).pretty()) {
        eprintln!("jigtrace: cannot write {}: {e}", trace_file.display());
        return ExitCode::from(1);
    }
    if !one_shot {
        let doc = Json::obj([
            ("provenance", provenance(&opts)),
            (
                "trace_json",
                Json::Str(trace_file.to_string_lossy().into_owned()),
            ),
            ("workloads", Json::Arr(docs)),
        ]);
        println!("{}", doc.pretty());
        if !all_correct {
            eprintln!("jigtrace: a workload failed or drifted (see `correct` above)");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
