//! Trace storage round trip: write simulated captures to jigdump-format
//! files on disk (one per radio, with metadata indexes), read them back as
//! streams, run the pipeline from disk, and export one radio's view to
//! pcap for wireshark.
//!
//! ```sh
//! cargo run --release --example trace_files [-- <output-dir>]
//! ```

// An example's output *is* stdout; the workspace denial targets library code.
#![allow(clippy::print_stdout, clippy::print_stderr)]
use jigsaw::core::pipeline::{Pipeline, PipelineConfig};
use jigsaw::sim::scenario::ScenarioConfig;
use jigsaw::trace::format::{TraceReader, TraceWriter};
use jigsaw::trace::index::write_index;
use jigsaw::trace::pcap::PcapWriter;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let dir = PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "target/jigsaw-traces".into()),
    );
    std::fs::create_dir_all(&dir)?;

    // 1. Simulate and persist per-radio traces, exactly as jigdump would:
    //    a data file plus a metadata index per radio.
    let out = ScenarioConfig::small(11).run();
    let mut raw_bytes = 0u64;
    let mut file_bytes = 0u64;
    for (r, events) in out.traces.iter().enumerate() {
        let meta = out.radio_meta[r];
        let path = dir.join(format!("radio{r:03}.jigt"));
        let mut w =
            TraceWriter::create(BufWriter::new(File::create(&path)?), meta, 260).expect("create");
        for ev in events {
            raw_bytes += 32 + ev.bytes.len() as u64;
            w.append(ev).expect("append");
        }
        let (sink, index, _total) = w.finish().expect("finish");
        drop(sink);
        let idx_path = dir.join(format!("radio{r:03}.jigx"));
        write_index(BufWriter::new(File::create(&idx_path)?), &index)?;
        file_bytes += std::fs::metadata(&path)?.len();
    }
    println!(
        "wrote {} radio traces to {} ({} events, {:.1} MB raw -> {:.1} MB compressed)",
        out.traces.len(),
        dir.display(),
        out.total_events(),
        raw_bytes as f64 / 1e6,
        file_bytes as f64 / 1e6
    );

    // 2. Re-open the traces from disk and run the pipeline on them.
    let mut streams = Vec::new();
    for r in 0..out.traces.len() {
        let path = dir.join(format!("radio{r:03}.jigt"));
        streams.push(TraceReader::open(BufReader::new(File::open(&path)?)).expect("open"));
    }
    let report = Pipeline::run(streams, &PipelineConfig::default(), ()).expect("pipeline");
    println!(
        "pipeline from disk: {} events -> {} jframes, {} exchanges, {} TCP flows",
        report.merge.events_in,
        report.merge.jframes_out,
        report.link.exchanges,
        report.transport.flows
    );

    // 3. Export the busiest radio's raw view as pcap for wireshark/tcpdump.
    let busiest = out
        .traces
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.len())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let pcap_path = dir.join(format!("radio{busiest:03}.pcap"));
    let mut pw = PcapWriter::create(BufWriter::new(File::create(&pcap_path)?))?;
    for ev in &out.traces[busiest] {
        pw.write_event(ev)?;
    }
    let frames = pw.frames();
    pw.finish()?;
    println!(
        "exported radio {busiest} to {} ({frames} frames) — open it in wireshark",
        pcap_path.display()
    );
    Ok(())
}
