//! Interference study: the paper's §7.2 workflow on a hidden-terminal-rich
//! scenario — detect simultaneous transmissions from the global viewpoint,
//! normalize out background loss, and estimate per-pair interference.
//!
//! ```sh
//! cargo run --release --example interference_study [-- <seed>]
//! ```

// An example's output *is* stdout; the workspace denial targets library code.
#![allow(clippy::print_stdout, clippy::print_stderr)]
use jigsaw::analysis::interference::{InterferenceAnalysis, InterferenceFigure};
use jigsaw::analysis::suite::{Figure, Suite};
use jigsaw::core::pipeline::{Pipeline, PipelineConfig};
use jigsaw::sim::scenario::ScenarioConfig;
use std::any::Any;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    // A denser-than-default small building: more clients per AP means more
    // hidden-terminal pairs and a busier channel.
    let mut cfg = ScenarioConfig::small(seed);
    cfg.n_clients = 16;
    cfg.day_us = 60_000_000;
    cfg.microwaves = 2;
    cfg.microwave_gap_us = 10_000_000;
    let out = cfg.run();
    println!(
        "simulated {} events, {} noise bursts from microwave interferers",
        out.total_events(),
        out.stats.noise_bursts
    );

    // The analysis subscribes to both the jframe and the attempt stream
    // through its Analyzer hooks; a one-analyzer Suite is the pipeline
    // observer driving it.
    let mut analysis = InterferenceAnalysis::new();
    analysis.min_packets = 50; // smaller trace, smaller bar
    let mut suite = Suite::new().register(analysis);
    Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut suite).expect("pipeline");

    let fig: Box<dyn Any> = suite.finish().pop().expect("one figure");
    let fig = fig.downcast::<InterferenceFigure>().expect("fig9");
    println!("\n{}", fig.render());
    println!("top interfered pairs:");
    for p in fig.pairs.iter().rev().take(8) {
        println!(
            "  {} -> {}: X={:.4} Pi={:.3} background={:.3} over {} transmissions",
            p.sender, p.receiver, p.x, p.pi_raw, p.background_loss, p.n
        );
    }
}
