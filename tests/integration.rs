//! Workspace-level integration tests: the public facade API exercised the
//! way a downstream user would, spanning simulator → storage → pipeline →
//! analyses.

use jigsaw::analysis::coverage::{pods_subset, radios_of_pods, CoverageAnalysis, CoverageFigure};
use jigsaw::analysis::dispersion::{DispersionAnalysis, DispersionFigure};
use jigsaw::analysis::summary::{SummaryBuilder, TraceSummary};
use jigsaw::analysis::tcploss::{TcpLossAnalysis, TcpLossFigure};
use jigsaw::analysis::{Figure, Suite};
use jigsaw::core::observer::Collect;
use jigsaw::core::pipeline::{Pipeline, PipelineConfig};
use jigsaw::sim::scenario::ScenarioConfig;
use jigsaw::trace::format::{TraceReader, TraceWriter};
use std::any::Any;

/// A finished figure as its concrete type.
fn downcast<F: Figure>(figure: Box<dyn Figure>) -> F {
    let figure: Box<dyn Any> = figure;
    *figure.downcast().expect("the analyzer's own figure type")
}

#[test]
fn facade_quickstart_path() {
    let out = ScenarioConfig::tiny(1).run();
    let mut collect = Collect::default();
    let report = Pipeline::run(
        out.memory_streams(),
        &PipelineConfig::default(),
        &mut collect,
    )
    .unwrap();
    assert!(!collect.jframes.is_empty());
    assert!(!collect.exchanges.is_empty());
    assert!(report.transport.flows > 0);
}

#[test]
fn disk_roundtrip_preserves_pipeline_results() {
    // The pipeline must produce identical results whether traces come from
    // memory or from jigdump-format bytes.
    let out = ScenarioConfig::tiny(5).run();

    let mem_report = Pipeline::run(out.memory_streams(), &PipelineConfig::default(), ()).unwrap();

    let mut disk_streams = Vec::new();
    for (r, events) in out.traces.iter().enumerate() {
        let mut w = TraceWriter::create(Vec::new(), out.radio_meta[r], 260).unwrap();
        for e in events {
            w.append(e).unwrap();
        }
        let (bytes, _, _) = w.finish().unwrap();
        disk_streams.push(TraceReader::open(std::io::Cursor::new(bytes)).unwrap());
    }
    let disk_report = Pipeline::run(disk_streams, &PipelineConfig::default(), ()).unwrap();

    assert_eq!(mem_report.merge.events_in, disk_report.merge.events_in);
    assert_eq!(mem_report.merge.jframes_out, disk_report.merge.jframes_out);
    assert_eq!(mem_report.link.exchanges, disk_report.link.exchanges);
    assert_eq!(
        mem_report.transport.segments,
        disk_report.transport.segments
    );
}

#[test]
fn analyses_compose_over_one_pass() {
    let out = ScenarioConfig::small(9).run();
    let ap_addrs: Vec<_> = out.stations.iter().map(|s| s.addr).collect();
    let lookup = move |sid: u16| ap_addrs[usize::from(sid)];

    // One suite, one streaming pass, four analyses.
    let mut suite = Suite::new()
        .register(SummaryBuilder::new(out.radio_meta.len()))
        .register(DispersionAnalysis::new())
        .register(CoverageAnalysis::new(&out.wired, &lookup, 10_000_000))
        .register(TcpLossAnalysis::new());
    Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut suite).unwrap();
    let mut figures = suite.finish().into_iter();
    let mut next = || figures.next().expect("one figure per analyzer");
    let (table, fig4, fig6, fig11): (
        TraceSummary,
        DispersionFigure,
        CoverageFigure,
        TcpLossFigure,
    ) = (
        downcast(next()),
        downcast(next()),
        downcast(next()),
        downcast(next()),
    );

    assert_eq!(table.events_total, out.total_events());
    assert!(table.events_per_jframe > 1.0);

    assert!(
        fig4.frac_below_20us > 0.8,
        "p<20us {}",
        fig4.frac_below_20us
    );
    assert!(fig4.cdf.len() > 100);

    assert!(fig6.packets > 100);
    assert!(fig6.overall > 0.8, "coverage {}", fig6.overall);

    assert!(fig11.flows > 0);
    assert!(fig11.loss_cdf.quantile(0.5).unwrap_or(1.0) < 0.2);
}

#[test]
fn pod_reduction_degrades_client_coverage_monotonically() {
    let mut cfg = ScenarioConfig::paper_day(77);
    cfg.day_us = 20_000_000; // 20 s slice keeps this test quick
    let out = cfg.run();
    let ap_addrs: Vec<_> = out.stations.iter().map(|s| s.addr).collect();

    let mut coverages = Vec::new();
    for keep in [39usize, 20, 10] {
        let radios = radios_of_pods(&pods_subset(39, keep));
        let streams: Vec<_> = radios
            .iter()
            .map(|&r| {
                jigsaw::trace::stream::MemoryStream::new(out.radio_meta[r], out.traces[r].clone())
            })
            .collect();
        let ap_addrs = ap_addrs.clone();
        let lookup = move |sid: u16| ap_addrs[usize::from(sid)];
        let mut suite =
            Suite::new().register(CoverageAnalysis::new(&out.wired, &lookup, 10_000_000));
        Pipeline::run(streams, &PipelineConfig::default(), &mut suite).unwrap();
        let fig: CoverageFigure = downcast(suite.finish().pop().unwrap());
        coverages.push(fig.client_coverage);
    }
    // The paper's Figure 7: fewer pods, less client coverage.
    assert!(
        coverages[0] >= coverages[1] && coverages[1] >= coverages[2],
        "coverage not monotone: {coverages:?}"
    );
    assert!(
        coverages[0] - coverages[2] > 0.01,
        "reduction had no effect: {coverages:?}"
    );
}

#[test]
fn merge_runs_faster_than_real_time() {
    // Paper §4 requirement 3: online operation demands faster-than-realtime
    // merging. Even in a debug-unoptimized test build we expect headroom on
    // a quiet trace; release builds are ~20x.
    let mut cfg = ScenarioConfig::small(31);
    cfg.day_us = 20_000_000;
    let out = cfg.run();
    // tidy:allow(wall-clock): measuring wall-clock merge throughput is this test's point
    let t0 = std::time::Instant::now();
    let report = Pipeline::run(out.memory_streams(), &PipelineConfig::default(), ()).unwrap();
    let elapsed = t0.elapsed().as_secs_f64();
    let simulated = out.duration_us as f64 / 1e6;
    assert!(report.merge.jframes_out > 0);
    assert!(
        elapsed < simulated,
        "merge slower than real time: {elapsed:.1}s for {simulated:.1}s of trace"
    );
}
