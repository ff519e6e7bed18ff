//! Protection-mode study: the paper's §7.3 overprotective-AP analysis on a
//! mixed 802.11b/g population, including the footnote-7 throughput headroom
//! arithmetic.
//!
//! ```sh
//! cargo run --release --example protection_mode [-- <seed>]
//! ```

// An example's output *is* stdout; the workspace denial targets library code.
#![allow(clippy::print_stdout, clippy::print_stderr)]
use jigsaw::analysis::protection::{throughput_headroom, ProtectionAnalysis, ProtectionFigure};
use jigsaw::analysis::suite::{Figure, Suite};
use jigsaw::core::pipeline::{Pipeline, PipelineConfig};
use jigsaw::ieee80211::PhyRate;
use jigsaw::sim::scenario::ScenarioConfig;
use std::any::Any;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    // A small building with a meaningful 802.11b population so APs enable
    // protection, plus a conservative (paper-like) switch-off timeout.
    let mut cfg = ScenarioConfig::small(seed);
    cfg.n_clients = 12;
    cfg.b_only_fraction = 0.25;
    cfg.day_us = 60_000_000;
    cfg.protection_timeout_us = 30_000_000; // "one hour", compressed
    let day = cfg.day_us;
    let out = cfg.run();

    let bin = day / 12;
    let practical = 2_000_000; // the paper's "one minute", compressed
    let mut suite = Suite::new().register(ProtectionAnalysis::new(0, bin, practical));
    Pipeline::run(out.memory_streams(), &PipelineConfig::default(), &mut suite).expect("pipeline");
    let fig: Box<dyn Any> = suite.finish().pop().expect("one figure");
    let fig = fig.downcast::<ProtectionFigure>().expect("fig10");
    println!("{}", fig.render());

    println!("footnote-7 arithmetic (protected vs bare exchange airtime):");
    for rate in [PhyRate::R12, PhyRate::R24, PhyRate::R54] {
        println!(
            "  {rate}: headroom {:.2}x for 1500-byte frames",
            throughput_headroom(rate, 1500)
        );
    }
    let overprotective_bins = fig.bins.iter().filter(|b| b.overprotective_aps > 0).count();
    println!(
        "\n{}/{} bins saw overprotective APs; peak g-clients behind them: {}",
        overprotective_bins,
        fig.bins.len(),
        fig.bins
            .iter()
            .map(|b| b.g_clients_on_overprotective)
            .max()
            .unwrap_or(0)
    );
}
