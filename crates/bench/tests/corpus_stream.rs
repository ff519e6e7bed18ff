//! The disk-corpus acceptance test, in-process: record a simulated scenario
//! to an on-disk corpus, stream it back at both merge layouts, and
//! require the jframe stream to be identical — count, order, and digest —
//! to the in-memory runs at the same seed, with merger residency bounded
//! by the window rather than the corpus size and every trace block read
//! from disk exactly once.

use jigsaw_bench::{record_corpus, sharded_config, CorpusSession, JframeStreamDigest};
use jigsaw_core::observer::OnJFrame;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::JFrame;
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::TimeWindow;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("jigsaw-corpus-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn disk_corpus_merge_matches_memory_serial_and_sharded() {
    let seed = 20060124;
    let out = ScenarioConfig::tiny(seed).run();
    let events = out.total_events();
    assert!(events > 0);

    // Record with a small block size so the corpus spans many blocks per
    // radio (the index-guided bootstrap read must cross block seams).
    let dir = tmpdir("equiv");
    let summary = record_corpus(&out, &dir, "tiny", seed, 1.0, 65_535, 4096).unwrap();
    assert_eq!(summary.events, events);

    let cfg = PipelineConfig::default();
    let (par_cfg, shards) = sharded_config(&out.radio_meta);
    assert!(shards >= 2, "the sharded legs would be vacuous");

    // In-memory references: serial and channel-sharded.
    let run_mem = |cfg: &PipelineConfig| {
        let mut digest = JframeStreamDigest::new();
        let (_, stats) = Pipeline::merge_only(
            out.memory_streams(),
            cfg,
            OnJFrame(|jf: &JFrame| digest.observe(jf)),
        )
        .unwrap();
        (digest, stats)
    };
    let (mem_serial, mem_stats) = run_mem(&cfg);
    let (mem_sharded, _) = run_mem(&par_cfg);

    // Disk-backed: serial and sharded, from the recorded corpus (opening
    // the session checks the corpus digest).
    let session = CorpusSession::open(&dir).unwrap();
    let run_disk = |cfg: &PipelineConfig| {
        let before = session.disk_bytes();
        let mut digest = JframeStreamDigest::new();
        let stats = session.merge(None, cfg, |jf| digest.observe(jf)).unwrap();
        (digest, stats, session.disk_bytes() - before)
    };
    let (disk_serial, serial_stats, bytes_serial) = run_disk(&cfg);
    let (disk_sharded, sharded_stats, _) = run_disk(&par_cfg);
    drop(out);

    // Identical streams: count + order + content, across all four runs.
    assert_eq!(mem_serial.count(), disk_serial.count());
    assert_eq!(mem_serial.hex(), disk_serial.hex(), "disk serial diverged");
    assert_eq!(
        mem_serial.hex(),
        mem_sharded.hex(),
        "memory sharded diverged"
    );
    assert_eq!(
        mem_serial.hex(),
        disk_sharded.hex(),
        "disk sharded diverged"
    );
    assert_eq!(serial_stats.events_in, events);
    assert_eq!(sharded_stats.events_in, events);

    // The disk merge streamed the radio traces and decoded each block
    // once: the bytes read are at most the trace files' (a second read of
    // the bootstrap-window blocks would push past them), and most of them.
    let trace_bytes: u64 = session
        .corpus()
        .manifest()
        .radios
        .iter()
        .map(|r| std::fs::metadata(dir.join(&r.data)).unwrap().len())
        .sum();
    assert!(
        bytes_serial <= trace_bytes,
        "a full replay read {bytes_serial} bytes of {trace_bytes}: some block was decoded twice"
    );
    assert!(
        bytes_serial >= trace_bytes / 2,
        "merge did not stream the corpus"
    );
    // A windowed replay reads strictly less than the full one.
    let (lo, hi) = session.span().unwrap();
    let third = (hi - lo) / 3;
    let window = TimeWindow::new(lo + third, lo + 2 * third).unwrap();
    let before = session.disk_bytes();
    let win_cfg = PipelineConfig {
        window: Some(window),
        ..PipelineConfig::default()
    };
    let win_stats = session.merge(Some(window), &win_cfg, |_| {}).unwrap();
    let bytes_window = session.disk_bytes() - before;
    assert!(win_stats.jframes_out > 0, "the window is not empty");
    assert!(
        bytes_window < bytes_serial,
        "the windowed replay read {bytes_window} bytes, the full one {bytes_serial}"
    );

    // Never materialized: peak residency must be well under the event
    // count even on this small trace. Disk and memory sources reach the
    // merger the same way — bootstrap window seeded ahead of the stream —
    // so they buffer exactly the same.
    assert!(
        serial_stats.peak_buffered < events / 2,
        "peak residency {} vs {events} events: not window-bounded",
        serial_stats.peak_buffered
    );
    assert_eq!(serial_stats.peak_buffered, mem_stats.peak_buffered);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recording_is_deterministic_across_runs() {
    let seed = 7;
    let d1 = tmpdir("det1");
    let d2 = tmpdir("det2");
    let s1 = record_corpus(
        &ScenarioConfig::tiny(seed).run(),
        &d1,
        "tiny",
        seed,
        1.0,
        65_535,
        4096,
    )
    .unwrap();
    let s2 = record_corpus(
        &ScenarioConfig::tiny(seed).run(),
        &d2,
        "tiny",
        seed,
        1.0,
        65_535,
        4096,
    )
    .unwrap();
    assert_eq!(s1.digest, s2.digest, "same seed must record identically");
    let other = record_corpus(
        &ScenarioConfig::tiny(seed + 1).run(),
        &d1,
        "tiny",
        seed + 1,
        1.0,
        65_535,
        4096,
    )
    .unwrap();
    assert_ne!(s1.digest, other.digest, "different seed, different corpus");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}
