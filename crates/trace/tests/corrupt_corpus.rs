//! Corruption sweep over a recorded corpus: the decode path's contract is
//! that arbitrary byte damage — a flipped bit, a truncated file, a mangled
//! manifest — surfaces as a clean `Err` (or a clean end-of-stream), never
//! as a panic. This is the dynamic twin of tidy's `decode-no-panic` rule:
//! the rule bans the panicking *constructs*; this test feeds the survivors
//! hostile bytes. The trace sweeps run through both readers: the batch
//! [`TraceReader`] and the chunk-fed [`TailReader`] at several chunk sizes,
//! which must also never pend forever once the stream is finished.

use jigsaw_ieee80211::{Channel, PhyRate};
use jigsaw_trace::corpus::{Corpus, CorpusWriter, Manifest};
use jigsaw_trace::format::TraceReader;
use jigsaw_trace::index::read_index;
use jigsaw_trace::stream::SourcePoll;
use jigsaw_trace::tail::TailReader;
use jigsaw_trace::{MonitorId, PhyEvent, PhyStatus, RadioId, RadioMeta};
use std::io::Cursor;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "jigsaw-corrupt-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ev(ts: u64, fill: u8) -> PhyEvent {
    PhyEvent {
        radio: RadioId(0),
        ts_local: ts,
        channel: Channel::of(1),
        rate: PhyRate::R11,
        rssi_dbm: -55,
        status: PhyStatus::Ok,
        wire_len: 60,
        bytes: vec![fill; 60].into(),
    }
}

fn meta() -> RadioMeta {
    RadioMeta {
        radio: RadioId(0),
        monitor: MonitorId(0),
        channel: Channel::of(1),
        anchor_wall_us: 42,
        anchor_local_us: 1_000,
    }
}

/// Records a tiny multi-block corpus and returns its directory.
fn record(tag: &str) -> PathBuf {
    let dir = tmpdir(tag);
    let events: Vec<PhyEvent> = (0..80).map(|k| ev(1_000 + k * 500, k as u8)).collect();
    let mut w = CorpusWriter::create(&dir, "corrupt", 7, 1.0, 200, 50_000, 512).unwrap();
    w.record_radio(meta(), events.iter()).unwrap();
    w.finish().unwrap();
    dir
}

/// Tail chunk sizes the sweeps feed: single bytes, an odd size that
/// straddles every header and block seam, and a page.
const TAIL_CHUNKS: [usize; 3] = [1, 7, 4096];

/// Drains a reader built over `bytes` until end-of-stream or the first
/// decode error, returning the events decoded before it. Any panic
/// escapes and fails the test.
fn drain(bytes: &[u8]) -> Vec<PhyEvent> {
    let mut got = Vec::new();
    if let Ok(mut r) = TraceReader::open(Cursor::new(bytes)) {
        while let Ok(Some(ev)) = r.next_event() {
            got.push(ev);
        }
    }
    got
}

/// Feeds `bytes` to a [`TailReader`] in `chunk`-byte pieces, polling after
/// each, then finishes it and polls until `End` or the first error,
/// returning the events decoded on the way. `Pending` after `finish` would
/// leave a live merger waiting forever, so it fails the test.
fn tail_drain(bytes: &[u8], chunk: usize) -> Vec<PhyEvent> {
    let mut tail = TailReader::new();
    let mut got = Vec::new();
    for piece in bytes.chunks(chunk) {
        tail.extend(piece);
        loop {
            match tail.poll_event() {
                Ok(SourcePoll::Event(ev)) => got.push(ev),
                Ok(SourcePoll::Pending) => break,
                Ok(SourcePoll::End) => panic!("End before finish"),
                Err(_) => return got,
            }
        }
    }
    tail.finish();
    loop {
        match tail.poll_event() {
            Ok(SourcePoll::Event(ev)) => got.push(ev),
            Ok(SourcePoll::Pending) => panic!("Pending after finish (chunk {chunk})"),
            Ok(SourcePoll::End) | Err(_) => return got,
        }
    }
}

/// Runs `bytes` through the batch reader and the tail at every chunk size:
/// none may panic or hang, and every tail decodes exactly the events the
/// batch reader does before the damage stops it.
fn sweep_both(bytes: &[u8]) {
    let batch = drain(bytes);
    for chunk in TAIL_CHUNKS {
        assert!(tail_drain(bytes, chunk) == batch, "chunk {chunk}");
    }
}

#[test]
fn flipped_trace_bytes_never_panic() {
    let dir = record("flip");
    let good = std::fs::read(dir.join("r000.jigt")).unwrap();
    // The sane copy decodes fully; then every byte position gets each of
    // three damage patterns. This covers the header, block framing,
    // compressed payloads, and record varints.
    assert_eq!(drain(&good).len(), 80);
    sweep_both(&good);
    for pos in 0..good.len() {
        for flip in [0xff, 0x80, 0x01] {
            let mut bad = good.clone();
            bad[pos] ^= flip;
            sweep_both(&bad);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_trace_bytes_never_panic() {
    let dir = record("trunc");
    let good = std::fs::read(dir.join("r000.jigt")).unwrap();
    for cut in 0..good.len() {
        sweep_both(&good[..cut]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_index_bytes_never_panic() {
    let dir = record("index");
    let good = std::fs::read(dir.join("r000.jigx")).unwrap();
    for cut in 0..good.len() {
        let _ = read_index(Cursor::new(&good[..cut]));
    }
    for pos in 0..good.len() {
        let mut bad = good.clone();
        bad[pos] ^= 0xff;
        let _ = read_index(Cursor::new(&bad[..]));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mangled_manifest_never_panics() {
    let dir = record("manifest");
    let good = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    assert!(Manifest::parse(&good).is_ok());
    // Truncate at every char boundary.
    for (cut, _) in good.char_indices() {
        let _ = Manifest::parse(&good[..cut]);
    }
    // Drop each line.
    let lines: Vec<&str> = good.lines().collect();
    for skip in 0..lines.len() {
        let mangled: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let _ = Manifest::parse(&mangled);
    }
    // Flip each byte (keeping it valid UTF-8 by staying in ASCII space).
    let bytes = good.as_bytes();
    for pos in 0..bytes.len() {
        let mut bad = bytes.to_vec();
        bad[pos] = bad[pos].wrapping_add(1) & 0x7f;
        if let Ok(s) = std::str::from_utf8(&bad) {
            let _ = Manifest::parse(s);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_corpus_streams_error_cleanly() {
    // End to end: flip a byte mid-file on disk and stream through the
    // corpus API. The digest check must flag it and the stream must either
    // error or end — not panic.
    let dir = record("stream");
    let path = dir.join("r000.jigt");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let c = Corpus::open(&dir).unwrap();
    assert!(
        !c.verify_digest().unwrap(),
        "digest must catch the flipped byte"
    );
    for radio in 0..c.manifest().radios.len() {
        let src = c
            .source(radio, std::sync::Arc::new(Default::default()))
            .unwrap();
        let Ok(mut s) = src.open_stream() else {
            continue;
        };
        while let Ok(Some(_)) = s.next_event() {}
    }
    let _ = std::fs::remove_dir_all(&dir);
}
