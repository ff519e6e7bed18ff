//! The figure-suite acceptance test: the `Suite` streamed off a recorded
//! disk corpus must produce figure-for-figure identical output — rendered
//! text AND machine records — to the in-memory, hand-wired serial run, at
//! both the serial and the channel-sharded merge layouts. This is what
//! lets `repro analyze --corpus` be the paper's single-trace evaluation.

mod common;

use jigsaw_analysis::activity::ActivityAnalysis;
use jigsaw_analysis::coverage::CoverageAnalysis;
use jigsaw_analysis::dispersion::DispersionAnalysis;
use jigsaw_analysis::interference::InterferenceAnalysis;
use jigsaw_analysis::protection::ProtectionAnalysis;
use jigsaw_analysis::stations::StationsAnalysis;
use jigsaw_analysis::suite::{record_lines, Figure};
use jigsaw_analysis::summary::SummaryBuilder;
use jigsaw_analysis::tcploss::TcpLossAnalysis;
use jigsaw_bench::{
    corpus_wired, minute_bin_us, practical_minute_us, record_corpus, sharded_config, CorpusSession,
};
use jigsaw_core::observer::OnJFrame;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_core::JFrame;
use jigsaw_diagnosis::{deep_dive_windows, Thresholds};
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::TimeWindow;
use std::path::PathBuf;

const SEED: u64 = 20060124;

/// A `--from/--to` restriction of the tiny corpus that still holds the TCP
/// loss its diagnosis confirms, so a restricted diagnosis runs its dives.
fn restricted() -> Option<TimeWindow> {
    TimeWindow::new(200_000, 4_000_000)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jigsaw-suite-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A figure reduced to its comparable identity.
type FigureOutput = (String, String, Vec<jigsaw_analysis::Record>);

fn output_of(f: &dyn Figure) -> FigureOutput {
    (f.name().to_string(), f.render(), f.records())
}

#[test]
fn suite_over_corpus_matches_hand_wired_memory_run() {
    let out = ScenarioConfig::tiny(SEED).run();
    let events = out.total_events();
    let (dir, session, par_cfg) = recorded("figs", &out, 4096);

    // --- Reference: hand-wired analyses over the in-memory serial run,
    // with exactly the parameters `figure_suite_parts` uses. ---
    let day = out.duration_us;
    let bin = minute_bin_us(day) * 60;
    let mut summary = SummaryBuilder::new(out.radio_meta.len());
    let mut dispersion = DispersionAnalysis::new();
    let mut activity = ActivityAnalysis::new(0, bin);
    let mut interference = InterferenceAnalysis::new();
    let mut protection = ProtectionAnalysis::new(0, bin, practical_minute_us(day));
    let mut stations = StationsAnalysis::new();
    let mut tcploss = TcpLossAnalysis::new();
    let ap_addrs: Vec<_> = out.stations.iter().map(|s| s.addr).collect();
    let ap_lookup = move |sid: u16| ap_addrs[usize::from(sid)];
    let mut coverage = CoverageAnalysis::new(&out.wired, &ap_lookup, 10_000_000);
    Pipeline::run(
        out.memory_streams(),
        &PipelineConfig::default(),
        (
            &mut summary,
            &mut dispersion,
            &mut activity,
            &mut interference,
            &mut protection,
            &mut stations,
            &mut tcploss,
            &mut coverage,
        ),
    )
    .unwrap();
    // In `figure_suite_parts` registration order: paper suite, then coverage.
    let reference: Vec<FigureOutput> = vec![
        output_of(&summary.finish()),
        output_of(&dispersion.finish()),
        output_of(&activity.finish()),
        output_of(&interference.finish()),
        output_of(&protection.finish()),
        output_of(&stations.finish()),
        output_of(&tcploss.finish()),
        output_of(&coverage.finish()),
    ];

    // --- Suite runs streaming off the disk corpus, both layouts. The
    // suite itself is built from the corpus alone (duration from the
    // manifest, wired trace + AP table decoded from `wired.jigw`), exactly
    // as `repro analyze` builds it — so this also pins the wired member's
    // roundtrip fidelity: Figure 6 must come out identical whether the
    // wired trace was held in memory or read back from the corpus. ---
    assert_eq!(session.corpus().manifest().duration_us, out.duration_us);
    let (disk_wired, _) = corpus_wired(session.corpus()).unwrap();
    assert_eq!(disk_wired.len(), out.wired.len());
    let run_disk = |cfg: &PipelineConfig| -> Vec<FigureOutput> {
        let (report, figures) = session.analyze(cfg).unwrap();
        // The figures streamed: nothing was materialized — residency stays
        // window-bounded, far below the corpus event count.
        assert_eq!(report.merge.events_in, events);
        assert!(
            report.merge.peak_buffered < events / 2,
            "peak residency {} vs {events} events: not streaming",
            report.merge.peak_buffered
        );
        figures.iter().map(|f| output_of(f.as_ref())).collect()
    };
    let disk_serial = run_disk(&PipelineConfig::default());
    let disk_sharded = run_disk(&par_cfg);

    assert_eq!(reference.len(), disk_serial.len());
    for ((r, s), p) in reference.iter().zip(&disk_serial).zip(&disk_sharded) {
        assert_eq!(r.0, s.0, "figure order diverged");
        assert_eq!(r.1, s.1, "{}: disk-serial render diverged", r.0);
        assert_eq!(r.2, s.2, "{}: disk-serial records diverged", r.0);
        assert_eq!(s.1, p.1, "{}: sharded render diverged from serial", s.0);
        assert_eq!(s.2, p.2, "{}: sharded records diverged from serial", s.0);
    }
    // The comparison had substance: real frames, real figures.
    let table1 = &reference[0];
    assert!(
        table1
            .2
            .iter()
            .any(|r| r.key.as_str() == "jframes" && r.value.as_u64().unwrap() > 100),
        "table1 saw no jframes: {:?}",
        table1.2
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// What CI's live job checks with `cmp`, in-process: the corpus tailed in
/// 1-byte and block-straddling chunks — the one driver stepped over
/// streams that pend — yields `analyze`'s record lines byte for byte and
/// its merge, conserving every event.
#[test]
fn tail_records_equal_analyze_at_every_chunking() {
    let out = ScenarioConfig::tiny(SEED).run();
    let (dir, session, _) = recorded("tail", &out, 4096);
    let (want, figures) = session.analyze(&PipelineConfig::default()).unwrap();
    let want_records = record_lines(&figures);
    assert!(want_records.lines().count() > 50);
    for chunk in [1, 4095] {
        let mut conservation = common::Conservation::default();
        let (report, figures) = session
            .tail(chunk, OnJFrame(|jf: &JFrame| conservation.observe(jf)))
            .unwrap();
        assert_eq!(record_lines(&figures), want_records, "chunk {chunk}");
        assert_eq!(
            format!("{:?}", report.merge),
            format!("{:?}", want.merge),
            "chunk {chunk}"
        );
        conservation.check(&report.merge).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records `out` under a fresh temp dir and opens a session on it, with
/// the sharded layout for its radio set.
fn recorded(
    tag: &str,
    out: &jigsaw_sim::output::SimOutput,
    block_bytes: usize,
) -> (PathBuf, CorpusSession, PipelineConfig) {
    let dir = tmpdir(tag);
    record_corpus(out, &dir, tag, SEED, 1.0, 65_535, block_bytes).unwrap();
    let (par_cfg, shards) = sharded_config(&out.radio_meta);
    assert!(shards >= 2, "the sharded leg would be vacuous");
    let session = CorpusSession::open(&dir).unwrap();
    (dir, session, par_cfg)
}

/// The value of `record <path> …` among a run's record lines.
fn record_u64(lines: &str, path: &str) -> u64 {
    let prefix = format!("record {path} ");
    let line = lines.lines().find_map(|l| l.strip_prefix(&prefix));
    line.unwrap_or_else(|| panic!("no `{prefix}` line"))
        .parse()
        .unwrap()
}

/// The tiles-ride-the-coarse-pass contract, on one corpus at one layout
/// and one restriction: every tile's record lines equal `analyze` of the
/// same sources clipped to that tile byte for byte, the tiles partition
/// the coarse pass's jframes, and the coarse figures are those of a run
/// with no tiles riding it.
fn assert_tiles_equal_clipped_runs(session: &CorpusSession, cfg: &PipelineConfig) {
    let what = format!("window {:?} threads {}", cfg.window, cfg.shard.max_threads);
    let span = match cfg.window {
        Some(w) => (w.from, w.to - 1),
        None => session.span().unwrap(),
    };
    let tiles = deep_dive_windows(span, 4);
    assert_eq!(tiles.len(), 4);
    let run = session
        .analyze_tiled(cfg, &tiles, |figures| record_lines(&figures))
        .unwrap();

    let coarse = record_lines(&run.figures);
    assert_eq!(
        coarse,
        record_lines(&session.analyze(cfg).unwrap().1),
        "{what}"
    );
    let routed: u64 = run.tiles.iter().map(|t| t.jframes).sum();
    assert_eq!(routed, record_u64(&coarse, "table1.jframes"), "{what}");
    let busy = run.tiles.iter().filter(|t| t.jframes > 0).count();
    assert!(busy >= 3, "{what}: only {busy} tiles saw jframes");

    for (tile, window) in run.tiles.iter().zip(&tiles) {
        assert_eq!(tile.window, *window);
        let clipped = PipelineConfig {
            window: Some(*window),
            ..cfg.clone()
        };
        // Sources read `cfg.window` (the coarse pass's range), emission is
        // clipped to the tile: the clipped-full reference.
        let mut suite = session.suite(clipped.window).unwrap();
        Pipeline::run(session.sources(cfg.window).unwrap(), &clipped, &mut suite).unwrap();
        let reference = record_lines(&suite.finish());
        assert_eq!(tile.output, reference, "{what}: tile {window} diverged");
        assert_eq!(tile.jframes, record_u64(&reference, "table1.jframes"));
    }
}

/// Tiles ≡ clipped-full `analyze`: on the tiny corpus and the skewed-rate
/// cut, serial and sharded, unrestricted and under a `--from/--to` window.
#[test]
fn tiles_riding_the_coarse_pass_equal_clipped_analyze_runs() {
    let tiny = ScenarioConfig::tiny(SEED).run();
    let skewed = common::skewed_tiny(SEED);
    for (tag, out, block_bytes, restrict) in [
        ("tiles-tiny", &tiny, 4096, (3_000_000, 6_000_000)),
        ("tiles-skewed", &skewed, 512, (9_000_000, 31_000_000)),
    ] {
        let (dir, session, par_cfg) = recorded(tag, out, block_bytes);
        let restrict = session.window(Some(restrict.0), Some(restrict.1)).unwrap();
        assert!(restrict.is_some());
        for layout in [PipelineConfig::default(), par_cfg] {
            for window in [None, restrict] {
                let cfg = PipelineConfig {
                    window,
                    ..layout.clone()
                };
                assert_tiles_equal_clipped_runs(&session, &cfg);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The diagnosis layer inherits the suite's determinism: what `repro
/// diagnose` runs (`CorpusSession::diagnose` — the coarse pass with the
/// deep-dive tiles riding it) must produce byte-identical machine records
/// whether the merge under it ran serial or channel-sharded, with and
/// without a `--from/--to` restriction.
#[test]
fn diagnosis_over_corpus_identical_serial_vs_sharded() {
    let out = ScenarioConfig::tiny(SEED).run();
    let (dir, session, par_cfg) = recorded("diag", &out, 4096);
    drop(out);

    let thresholds = Thresholds::default();
    for window in [None, restricted()] {
        let diagnose = |layout: &PipelineConfig| {
            let cfg = PipelineConfig {
                window,
                ..layout.clone()
            };
            session.diagnose(&cfg, &thresholds).unwrap().1
        };
        let serial = diagnose(&PipelineConfig::default());
        let sharded = diagnose(&par_cfg);
        assert_eq!(serial, sharded, "diagnosis reports diverged across layouts");
        assert_eq!(
            serial.record_lines(),
            sharded.record_lines(),
            "diagnosis record lines diverged across layouts"
        );
        // The comparison had substance: a gate fired, every tile was
        // looked at, and the tiny corpus confirms at least one incident,
        // with quoted evidence.
        assert_eq!(serial.windows_analyzed, thresholds.windows as usize);
        assert!(
            !serial.incidents.is_empty(),
            "tiny corpus produced no incidents: {}",
            serial.record_lines()
        );
        assert!(serial.incidents.iter().all(|i| !i.evidence.is_empty()));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A diagnosis is one pass over disk: after it — gates fired, all four
/// tiles consulted — the session has read exactly the bytes a single
/// `analyze` reads, unrestricted and windowed.
#[test]
fn diagnosis_reads_the_corpus_once() {
    let out = ScenarioConfig::tiny(SEED).run();
    let (dir, _, _) = recorded("diag-bytes", &out, 4096);
    for window in [None, restricted()] {
        let cfg = PipelineConfig {
            window,
            ..PipelineConfig::default()
        };
        let analyze = CorpusSession::open(&dir).unwrap();
        analyze.analyze(&cfg).unwrap();
        let diagnose = CorpusSession::open(&dir).unwrap();
        let (_, report) = diagnose.diagnose(&cfg, &Thresholds::default()).unwrap();
        assert_eq!(report.windows_analyzed, 4, "the deep dives must have run");
        assert!(analyze.disk_bytes() > 0);
        assert_eq!(
            diagnose.disk_bytes(),
            analyze.disk_bytes(),
            "window {window:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro analyze` is the one command that prints the paper's single-trace
/// figures: over the recorded tiny corpus its stdout carries every figure
/// title, each figure's quote of the paper, and the §5.1 inference-rate
/// block read off the run's pipeline report.
#[test]
fn analyze_prints_every_figure_with_the_papers_numbers() {
    let dir = tmpdir("cli");
    let corpus = dir.to_str().expect("utf-8 temp path");
    let repro = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    repro(&["record", "--corpus", corpus, "--scenario", "tiny"]);
    let stdout = repro(&["analyze", "--corpus", corpus]);
    for expected in [
        "== TABLE 1 — trace summary (paper §7.1)",
        "== FIGURE 4 — CDF of group dispersion (paper §4.2)",
        "== FIGURE 6 — coverage vs wired trace (paper §6)",
        "== FIGURE 8 — diurnal activity time series (paper §7.1)",
        "== FIGURE 9 — interference loss rate CDF (paper §7.2)",
        "== FIGURE 10 — overprotective APs (paper §7.3)",
        "== FIGURE 11 — TCP loss rate, wireless vs wired (paper §7.4)",
        "== §5.1 — link-layer inference rates",
        "\nattempts: ",
        "% inferred; paper 0.58%)\n",
        "\nexchanges: ",
        "% inferred; paper 0.14%)\n",
        " ambiguous via covering ACKs; ",
        "\nbootstrap: ",
        "(paper, full scale: 2.7B events",
        "\nbroadcast airtime share: ",
        "\npaper: 88% of (s,r) pairs interfered",
        "\nmeasured: median X = ",
        "\nloss provenance: original-delivered ",
    ] {
        assert!(stdout.contains(expected), "no `{expected}` in:\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
