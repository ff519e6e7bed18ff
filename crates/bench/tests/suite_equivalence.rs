//! The figure-suite acceptance test: the `Suite` streamed off a recorded
//! disk corpus must produce figure-for-figure identical output — rendered
//! text AND machine records — to the in-memory, hand-wired serial run, at
//! both the serial and the channel-sharded merge layouts. This is what
//! lets `repro analyze --corpus` stand in for the hand-wired evaluation.

use jigsaw_analysis::activity::ActivityAnalysis;
use jigsaw_analysis::coverage::CoverageAnalysis;
use jigsaw_analysis::dispersion::DispersionAnalysis;
use jigsaw_analysis::interference::InterferenceAnalysis;
use jigsaw_analysis::protection::ProtectionAnalysis;
use jigsaw_analysis::stations::StationsAnalysis;
use jigsaw_analysis::suite::Figure;
use jigsaw_analysis::summary::SummaryBuilder;
use jigsaw_analysis::tcploss::TcpLossAnalysis;
use jigsaw_bench::{
    corpus_wired, minute_bin_us, practical_minute_us, record_corpus, sharded_config, CorpusSession,
};
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_sim::scenario::ScenarioConfig;
use std::path::PathBuf;

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
    let seed = 20060124;
    let out = ScenarioConfig::tiny(seed).run();
    let events = out.total_events();
    let dir = tmpdir("figs");
    record_corpus(&out, &dir, "tiny", seed, 1.0, 65_535, 4096).unwrap();

    // --- Reference: hand-wired analyses over the in-memory serial run,
    // with exactly the parameters `figure_suite` uses. ---
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
    // In `figure_suite` registration order: paper suite, then coverage.
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
    let session = CorpusSession::open(&dir).unwrap();
    assert_eq!(session.corpus().manifest().duration_us, out.duration_us);
    let (disk_wired, _) = corpus_wired(session.corpus()).unwrap();
    assert_eq!(disk_wired.len(), out.wired.len());
    let (par_cfg, shards) = sharded_config(&out.radio_meta);
    assert!(shards >= 2, "the sharded leg would be vacuous");
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

/// The diagnosis layer inherits the suite's determinism: `repro
/// diagnose` — coarse pass plus every windowed deep dive — must produce
/// byte-identical machine records whether the merges under it ran
/// serial or channel-sharded.
#[test]
fn diagnosis_over_corpus_identical_serial_vs_sharded() {
    use jigsaw_diagnosis::{run_diagnosis, standard_detectors, RecordSet, Thresholds};
    use jigsaw_trace::TimeWindow;

    let seed = 20060124;
    let out = ScenarioConfig::tiny(seed).run();
    let dir = tmpdir("diag");
    record_corpus(&out, &dir, "tiny", seed, 1.0, 65_535, 4096).unwrap();
    let (par_cfg, shards) = sharded_config(&out.radio_meta);
    assert!(shards >= 2, "the sharded leg would be vacuous");
    drop(out);
    let session = CorpusSession::open(&dir).unwrap();
    let span = session.span().expect("tiny corpus has events");

    // The same per-window analysis `repro diagnose` wires up, at either
    // layout.
    let diagnose = |layout: &PipelineConfig| {
        let analyze = |w: Option<TimeWindow>| {
            let cfg = PipelineConfig {
                window: w,
                ..layout.clone()
            };
            RecordSet::from_figures(&session.analyze(&cfg).unwrap().1)
        };
        let coarse = analyze(None);
        let mut deep = |w: TimeWindow| Ok(analyze(Some(w)));
        run_diagnosis(
            &standard_detectors(),
            &coarse,
            span,
            &Thresholds::default(),
            &mut deep,
        )
        .unwrap()
    };

    let serial = diagnose(&PipelineConfig::default());
    let sharded = diagnose(&par_cfg);
    assert_eq!(serial, sharded, "diagnosis reports diverged across layouts");
    assert_eq!(
        serial.record_lines(),
        sharded.record_lines(),
        "diagnosis record lines diverged across layouts"
    );
    // The comparison had substance: the tiny corpus confirms at least
    // one incident, with quoted evidence.
    assert!(
        !serial.incidents.is_empty(),
        "tiny corpus produced no incidents: {}",
        serial.record_lines()
    );
    assert!(serial.incidents.iter().all(|i| !i.evidence.is_empty()));

    let _ = std::fs::remove_dir_all(&dir);
}
