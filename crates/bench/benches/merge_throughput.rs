//! Criterion benchmark: merge throughput (the paper's §4 efficiency
//! requirement — "trace merging should execute faster than real-time").
//!
//! Compares the Jigsaw merger against the Yeo-style and naive baselines on
//! the same synthetic trace set, and reports events/second — plus the
//! merge stage alone at 1..=3 shard threads (`jigsaw_core::shard`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jigsaw_core::baseline::naive_merge;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::shard::ShardConfig;
use jigsaw_core::unify::MergeConfig;
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::{ScenarioConfig, TruthConfig};

fn small_world() -> SimOutput {
    let mut cfg = ScenarioConfig::small(42);
    cfg.day_us = 10_000_000; // 10 s of air
    cfg.truth = TruthConfig::Off;
    cfg.run()
}

fn bench_mergers(c: &mut Criterion) {
    let out = small_world();
    let events = out.total_events();
    let mut g = c.benchmark_group("merge");
    g.throughput(Throughput::Elements(events));
    g.sample_size(10);

    g.bench_function(BenchmarkId::new("jigsaw_full_pipeline", events), |b| {
        b.iter(|| Pipeline::run(out.memory_streams(), &PipelineConfig::default(), ()).unwrap())
    });
    let yeo = PipelineConfig {
        merge: MergeConfig {
            resync_enabled: false,
            ..MergeConfig::default()
        },
        ..PipelineConfig::default()
    };
    g.bench_function(BenchmarkId::new("yeo_no_resync", events), |b| {
        b.iter(|| Pipeline::merge_only(out.memory_streams(), &yeo, ()).unwrap())
    });
    g.bench_function(BenchmarkId::new("naive_mergecap", events), |b| {
        b.iter(|| naive_merge(out.memory_streams(), 10_000, |_| {}).unwrap())
    });
    g.finish();
}

/// The merge stage alone (bootstrap + unification, no reconstruction) at
/// 1..=3 shard threads. One thread is the serial merger, run inline.
fn bench_sharded_merge(c: &mut Criterion) {
    let out = small_world();
    let events = out.total_events();
    let mut g = c.benchmark_group("merge_stage");
    g.throughput(Throughput::Elements(events));
    g.sample_size(10);

    for threads in [1usize, 2, 3] {
        let cfg = PipelineConfig {
            shard: ShardConfig {
                max_threads: threads,
            },
            ..PipelineConfig::default()
        };
        g.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| Pipeline::merge_only(out.memory_streams(), &cfg, ()).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mergers, bench_sharded_merge);
criterion_main!(benches);
