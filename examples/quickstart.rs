//! Quickstart: simulate a small 802.11 building, merge its monitor traces
//! with Jigsaw, and look at what came out.
//!
//! ```sh
//! cargo run --release --example quickstart [-- <seed>]
//! ```

// An example's output *is* stdout; the workspace denial targets library code.
#![allow(clippy::print_stdout, clippy::print_stderr)]
use jigsaw::core::observer::Collect;
use jigsaw::core::pipeline::{Pipeline, PipelineConfig};
use jigsaw::sim::scenario::ScenarioConfig;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // 1. Simulate a small production WLAN: APs, clients, TCP traffic, and a
    //    handful of passive monitor pods with drifting clocks.
    let out = ScenarioConfig::small(seed).run();
    println!(
        "simulated {:.0}s: {} capture events across {} radios, {} wired packets, {} TCP flows",
        out.duration_us as f64 / 1e6,
        out.total_events(),
        out.radio_meta.len(),
        out.wired.len(),
        out.stats.flows_opened,
    );

    // 2. Run the Jigsaw pipeline: bootstrap sync → unification →
    //    link-layer → transport reconstruction, in one streaming pass.
    let mut collect = Collect::default();
    let report = Pipeline::run(
        out.memory_streams(),
        &PipelineConfig::default(),
        &mut collect,
    )
    .expect("pipeline");
    let Collect { jframes, exchanges } = collect;

    println!("\n-- synchronization --");
    println!(
        "bootstrap: {} graph components from {} reference sets ({} coarse radios)",
        report.bootstrap.components,
        report.bootstrap.sets_used,
        report.bootstrap.coarse.iter().filter(|&&c| c).count()
    );
    println!(
        "merge: {} events -> {} jframes ({} clock corrections applied)",
        report.merge.events_in, report.merge.jframes_out, report.merge.resyncs
    );
    let mut disp: Vec<u64> = jframes
        .iter()
        .filter(|j| j.valid && j.instance_count() >= 2)
        .map(|j| j.dispersion)
        .collect();
    disp.sort_unstable();
    if !disp.is_empty() {
        println!(
            "group dispersion: p50={}us p99={}us over {} multi-instance jframes",
            disp[disp.len() / 2],
            disp[disp.len() * 99 / 100],
            disp.len()
        );
    }

    println!("\n-- link layer --");
    println!(
        "{} transmission attempts -> {} frame exchanges ({} delivered, {} ambiguous, {:.2}% inferred)",
        report.link.attempts,
        report.link.exchanges,
        report.link.delivered,
        report.link.ambiguous,
        100.0 * report.link.attempts_inferred as f64 / report.link.attempts.max(1) as f64
    );
    let retried = exchanges.iter().filter(|x| x.retries() > 0).count();
    println!("{retried} exchanges needed link-layer retransmissions");

    println!("\n-- transport layer --");
    println!(
        "{} TCP flows ({} handshake-complete); {} segments",
        report.transport.flows, report.transport.established, report.transport.segments
    );
    println!(
        "losses: {} wireless / {} wired; {} ambiguous deliveries proven by covering ACKs; {} packets delivered unobserved",
        report.transport.wireless_losses,
        report.transport.wired_losses,
        report.transport.ambiguous_resolved,
        report.transport.covered_holes
    );
    for f in report.flows.iter().take(5) {
        println!(
            "  flow {:?} -> {:?}: {} segs, loss rate {:.3}, rtt {:?}us",
            f.key.a,
            f.key.b,
            f.segments,
            f.loss_rate,
            f.rtt_mean_us.map(|r| r as u64)
        );
    }
}
