//! Compile-time smoke test for the facade's re-export surface.
//!
//! Every `jigsaw::…` path used by `examples/` (plus the core types of each
//! subsystem) is imported here, so removing or renaming a re-export breaks
//! `cargo test` rather than only `cargo build --examples`. The single
//! runtime assertion exercises nothing new — the point is that this file
//! *links*.

// The exact import surface of examples/*.rs and tests/integration.rs.
use jigsaw::analysis::coverage::{pods_subset, radios_of_pods, CoverageAnalysis};
use jigsaw::analysis::dispersion::DispersionAnalysis;
use jigsaw::analysis::interference::InterferenceAnalysis;
use jigsaw::analysis::protection::{throughput_headroom, ProtectionAnalysis};
use jigsaw::analysis::summary::SummaryBuilder;
use jigsaw::analysis::tcploss::tcp_loss_figure;
use jigsaw::core::pipeline::{Pipeline, PipelineConfig};
use jigsaw::ieee80211::PhyRate;
use jigsaw::sim::scenario::ScenarioConfig;
use jigsaw::trace::format::{TraceReader, TraceWriter};
use jigsaw::trace::index::write_index;
use jigsaw::trace::pcap::PcapWriter;
use jigsaw::trace::stream::MemoryStream;

// Each subsystem's load-bearing types, beyond what the examples happen to
// touch today.
use jigsaw::core::baseline::naive_merge;
use jigsaw::core::jframe::JFrame;
use jigsaw::core::link::exchange::Exchange;
use jigsaw::core::sync::bootstrap::bootstrap_at;
use jigsaw::core::unify::{MergeConfig, Merger};
use jigsaw::ieee80211::{Channel, MacAddr, SeqNum};
use jigsaw::packet::{Msdu, TcpSegment};
use jigsaw::sim::output::SimOutput;
use jigsaw::trace::{MonitorId, PhyEvent, PhyStatus, RadioId, RadioMeta};

/// Reference the imported items as values/types so nothing is "unused" and
/// every path above must actually resolve.
#[test]
fn facade_surface_resolves() {
    // Function items: taking their address forces resolution + type check.
    let _: fn(usize, usize) -> Vec<usize> = pods_subset;
    let _: fn(&[usize]) -> Vec<usize> = radios_of_pods;
    let _ = tcp_loss_figure as *const ();
    let _ = throughput_headroom as *const ();
    let _ = write_index::<Vec<u8>> as *const ();
    let _ = bootstrap_at::<Vec<PhyEvent>> as *const ();
    // `impl Trait` parameters prevent naming these as fn pointers; a dead
    // closure still forces full resolution and type-checking.
    let _ = || {
        let _ = naive_merge(Vec::<MemoryStream>::new(), 0, |_: &JFrame| {});
    };

    // Types: mention each so the import is load-bearing.
    fn touch<T>() {}
    touch::<CoverageAnalysis>();
    touch::<DispersionAnalysis>();
    touch::<InterferenceAnalysis>();
    touch::<ProtectionAnalysis>();
    touch::<SummaryBuilder>();
    touch::<(Pipeline, PipelineConfig)>();
    touch::<(PhyRate, Channel, MacAddr, SeqNum)>();
    touch::<ScenarioConfig>();
    touch::<(TraceReader<std::io::Empty>, TraceWriter<Vec<u8>>)>();
    touch::<PcapWriter<Vec<u8>>>();
    touch::<(Exchange, MergeConfig, Merger<MemoryStream>)>();
    touch::<(Msdu, TcpSegment)>();
    touch::<SimOutput>();
    touch::<(MonitorId, RadioId, RadioMeta, PhyEvent, PhyStatus)>();
}
