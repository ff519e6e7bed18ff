//! Criterion benchmark: pipeline cost as a function of the number of radios
//! (the paper's scalability claim: jframe creation cost is linear in a
//! frame's reception range, not in the total radio count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jigsaw_analysis::coverage::{pods_subset, radios_of_pods};
use jigsaw_bench::subset_streams;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::shard::ShardConfig;
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::{ScenarioConfig, TruthConfig};

fn world() -> SimOutput {
    let mut cfg = ScenarioConfig::paper_day(7);
    cfg.day_us = 20_000_000; // 20 s slice of the building
    cfg.truth = TruthConfig::Off;
    cfg.run()
}

fn bench_radio_scaling(c: &mut Criterion) {
    let out = world();
    let mut g = c.benchmark_group("pipeline_radios");
    g.sample_size(10);
    for pods in [10usize, 20, 30, 39] {
        let radios = radios_of_pods(&pods_subset(39, pods));
        let events: u64 = radios.iter().map(|&r| out.traces[r].len() as u64).sum();
        g.throughput(Throughput::Elements(events.max(1)));
        g.bench_function(BenchmarkId::new("pods", pods), |b| {
            b.iter(|| {
                Pipeline::run(
                    subset_streams(&out, &radios),
                    &PipelineConfig::default(),
                    (),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

/// Full paper-day pipeline, serial vs channel-sharded merge: the end-to-end
/// win includes merge/reconstruction overlap, not just merge parallelism.
fn bench_parallel_pipeline(c: &mut Criterion) {
    let out = world();
    let events = out.total_events();
    let mut g = c.benchmark_group("pipeline_paper_day");
    g.throughput(Throughput::Elements(events.max(1)));
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("serial", events), |b| {
        b.iter(|| Pipeline::run(out.memory_streams(), &PipelineConfig::default(), ()).unwrap())
    });
    let cfg = PipelineConfig {
        shard: ShardConfig { max_threads: 3 },
        ..PipelineConfig::default()
    };
    g.bench_function(BenchmarkId::new("sharded3", events), |b| {
        b.iter(|| Pipeline::run(out.memory_streams(), &cfg, ()).unwrap())
    });
    g.finish();
}

fn bench_trace_io(c: &mut Criterion) {
    // Trace encode/decode throughput (jigdump-format storage path).
    let out = world();
    let radio = out
        .traces
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.len())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let events = &out.traces[radio];
    let meta = out.radio_meta[radio];
    let mut g = c.benchmark_group("trace_io");
    g.throughput(Throughput::Elements(events.len() as u64));
    g.sample_size(10);
    g.bench_function("encode", |b| {
        b.iter(|| {
            let mut w = jigsaw_trace::format::TraceWriter::create(Vec::new(), meta, 260).unwrap();
            for e in events {
                w.append(e).unwrap();
            }
            w.finish().unwrap().0.len()
        })
    });
    let mut w = jigsaw_trace::format::TraceWriter::create(Vec::new(), meta, 260).unwrap();
    for e in events {
        w.append(e).unwrap();
    }
    let (encoded, _, _) = w.finish().unwrap();
    g.bench_function("decode", |b| {
        b.iter(|| {
            let r = jigsaw_trace::format::TraceReader::open(&encoded[..]).unwrap();
            r.count()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_radio_scaling,
    bench_parallel_pipeline,
    bench_trace_io
);
criterion_main!(benches);
