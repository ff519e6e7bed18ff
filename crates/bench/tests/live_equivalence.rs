//! Chunk-boundary invariance: the live ingest service (`LiveMerger`, the
//! pend policy over the one pipeline driver) must emit a jframe stream
//! **byte-identical to the batch merge** of the same corpus — same count, same order, same stream digest
//! — for *every* chunking of the input bytes. One-byte chunks and chunks
//! straddling trace-block seams are the adversarial cases: they force the
//! tail reader to stage a partial block and resume it on nearly every poll.
//!
//! Three corpora: the tiny scenario as simulated (at a second seed too,
//! whose FCS-error captures attach to jframes), and a longer cut of it
//! with most radios thinned to a capture in 25 — sparse radios beside a
//! busy one, the rate skew under which count-paced polling let the sparse
//! sources race ahead and the merger buffer the difference. On both, the
//! live merger must also buffer exactly what the batch merge buffers —
//! the same merger, pulling the same streams from the same seeds —
//! whatever the chunking — and both must conserve every event
//! (`common::Conservation`).

mod common;

use common::Conservation;
use jigsaw_bench::{agree, record_corpus, CorpusSession, Reading, StreamDigest};
use jigsaw_core::pipeline::PipelineConfig;
use jigsaw_live::{ChunkedFileTail, LiveConfig, LiveMerger, ManualClock};
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::corpus::Corpus;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const SEED: u64 = 20060124;
/// Small trace blocks so even modest chunk sizes straddle block seams.
const BLOCK_BYTES: usize = 512;

struct Fixture {
    dir: PathBuf,
    events: u64,
    /// The batch merge's ordered stream reading.
    batch: Reading,
    /// The batch merge's peak residency (`MergeStats::peak_buffered`).
    batch_peak: u64,
}

/// Records `out` as a corpus and computes the batch reference digest and
/// residency every chunking of it must reproduce.
fn record_fixture(tag: &str, out: &SimOutput, seed: u64, block_bytes: usize) -> Fixture {
    let dir = std::env::temp_dir().join(format!("jigsaw-live-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    record_corpus(out, &dir, tag, seed, 1.0, 65_535, block_bytes).unwrap();
    let session = CorpusSession::open(&dir).unwrap();
    let mut digest = StreamDigest::new();
    let mut conservation = Conservation::default();
    let stats = session
        .merge(None, &PipelineConfig::default(), |jf| {
            digest.observe(jf);
            conservation.observe(jf);
        })
        .unwrap();
    assert!(digest.count() > 0, "batch reference produced no jframes");
    conservation.check(&stats).unwrap();
    Fixture {
        dir,
        events: stats.events_in,
        batch: digest.ordered(),
        batch_peak: stats.peak_buffered,
    }
}

/// The tiny corpus, recorded once per test process.
fn tiny() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    let out = || ScenarioConfig::tiny(SEED).run();
    FIX.get_or_init(|| record_fixture("tiny", &out(), SEED, BLOCK_BYTES))
}

/// The skewed-rate cut (`common::skewed_tiny`): per-event polling would
/// run the sparse radios seconds ahead of the busy one.
fn skewed() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    let out = || common::skewed_tiny(SEED);
    FIX.get_or_init(|| record_fixture("skewed", &out(), SEED, BLOCK_BYTES))
}

/// The tiny day of seed 7: FCS-error captures attach to its jframes, so
/// the corrupt-attach half of the conservation law has something to count.
fn tiny7() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    let out = || ScenarioConfig::tiny(7).run();
    FIX.get_or_init(|| record_fixture("tiny7", &out(), 7, BLOCK_BYTES))
}

fn fixtures() -> [(&'static str, &'static Fixture); 3] {
    [("tiny", tiny()), ("skewed", skewed()), ("tiny7", tiny7())]
}

fn tails(dir: &Path, chunk: usize) -> Vec<ChunkedFileTail> {
    let corpus = Corpus::open(dir).unwrap();
    corpus
        .manifest()
        .radios
        .iter()
        .map(|r| ChunkedFileTail::open(&corpus.dir().join(&r.data), chunk).unwrap())
        .collect()
}

/// What the live merger made of a corpus at one chunking.
#[derive(Debug)]
struct Run {
    stream: Reading,
    events_in: u64,
    peak_buffered: u64,
    conserved: Result<(), String>,
}

fn live_run(f: &Fixture, chunk: usize) -> Run {
    let mut lm = LiveMerger::new(LiveConfig::default(), ManualClock::new());
    for t in tails(&f.dir, chunk) {
        lm.add_source(t);
    }
    let mut digest = StreamDigest::new();
    let mut conservation = Conservation::default();
    let report = lm
        .run(|jf| {
            digest.observe(&jf);
            conservation.observe(&jf);
        })
        .unwrap();
    Run {
        stream: digest.ordered(),
        events_in: report.merge.events_in,
        peak_buffered: report.merge.peak_buffered,
        conserved: conservation.check(&report.merge),
    }
}

/// One chunking: the batch stream exactly, buffering exactly what the
/// batch merge buffers, every event conserved. `Err` carries the first
/// mismatch.
fn check_chunking(name: &str, f: &Fixture, chunk: usize) -> Result<(), String> {
    let live = live_run(f, chunk);
    if let Err(e) = &live.conserved {
        return Err(format!("{name} live chunk={chunk}: {e}"));
    }
    agree(&[("batch", f.batch.clone()), ("live", live.stream.clone())])
        .map_err(|e| format!("{name} chunk={chunk}: {e}"))?;
    if (live.events_in, live.peak_buffered) != (f.events, f.batch_peak) {
        return Err(format!(
            "{name} live chunk={chunk}: {live:?} != batch ({} events, peak buffered {})",
            f.events, f.batch_peak
        ));
    }
    Ok(())
}

#[test]
fn one_byte_and_block_straddling_chunks_match_batch() {
    for (name, f) in fixtures() {
        for chunk in [
            1usize,
            BLOCK_BYTES - 1,
            BLOCK_BYTES,
            BLOCK_BYTES + 1,
            64 * 1024,
        ] {
            check_chunking(name, f, chunk).unwrap();
        }
    }
}

/// `paper_day` at scale 0.2 with diurnal sessions on — 4,028,213 events
/// over 156 radios, the largest corpus any test tails. It pins live ≡
/// batch, and that the live merger buffers exactly what the batch merge
/// buffers, at 4 M events as at 1,200.
#[test]
#[ignore = "simulates a 4 M-event day and merges it twice, ~20 s in release on a 2-core Xeon: \
            cargo test --release -p jigsaw_bench --test live_equivalence -- --ignored"]
fn diurnal_day_matches_batch_and_its_residency() {
    let out = jigsaw_bench::paper_scenario(SEED, 0.2).run();
    let f = record_fixture("diurnal", &out, SEED, 0);
    drop(out);
    let outcome = check_chunking("diurnal", &f, 4096);
    std::fs::remove_dir_all(&f.dir).ok();
    outcome.unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary chunk sizes — the emitted stream never depends on where
    /// the byte boundaries fall, and neither does the residency.
    #[test]
    fn any_chunking_yields_the_batch_stream(chunk in 1usize..4096) {
        for (name, f) in fixtures() {
            prop_assert_eq!(check_chunking(name, f, chunk), Ok(()));
        }
    }
}
