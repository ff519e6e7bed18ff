//! A live tail's heap is bounded by a block, not by the trace: tailing a
//! multi-megabyte trace file through `ChunkedFileTail` in page-sized chunks
//! must raise the process's live heap by less than 1 MB, however large the
//! file. The tail stages the bytes of one block, decodes it as soon as it
//! is complete and drops those bytes, so its residency is one partially
//! staged block plus one decompressed block (64 KB each at the writer's
//! default block size).
//!
//! One test per binary: the counting allocator's high-water mark is
//! process-wide, so a concurrent test would pollute the measurement.

use jigsaw_bench::alloc::{counting_installed, AllocRegion, CountingAlloc};
use jigsaw_ieee80211::{Channel, PhyRate};
use jigsaw_live::{ChunkedFileTail, LiveSource, SourcePoll};
use jigsaw_trace::format::TraceWriter;
use jigsaw_trace::{MonitorId, PhyEvent, PhyStatus, RadioId, RadioMeta};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Events in the trace; with 200-byte incompressible payloads the file is
/// about 5 MB.
const EVENTS: u64 = 24_000;
/// Bytes per `ChunkedFileTail` read — `repro tail`'s default chunk.
const CHUNK_BYTES: usize = 4096;
/// The heap growth the whole tail may cause.
const BUDGET_BYTES: u64 = 1 << 20;

/// Writes a one-radio trace of `EVENTS` events whose payloads are
/// xorshift noise, so the compressed file is as large as the raw records.
fn write_trace(path: &std::path::Path) {
    let meta = RadioMeta {
        radio: RadioId(0),
        monitor: MonitorId(0),
        channel: Channel::of(6),
        anchor_wall_us: 0,
        anchor_local_us: 0,
    };
    let file = std::fs::File::create(path).expect("create trace");
    let mut w = TraceWriter::create(std::io::BufWriter::new(file), meta, 256).expect("header");
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..EVENTS {
        let body: Vec<u8> = (0..200)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let ev = PhyEvent {
            radio: RadioId(0),
            ts_local: i * 250,
            channel: Channel::of(6),
            rate: PhyRate::R54,
            rssi_dbm: -50,
            status: PhyStatus::Ok,
            wire_len: 200,
            bytes: body.into(),
        };
        w.append(&ev).expect("append");
    }
    w.finish().expect("finish");
}

#[test]
fn tail_heap_is_bounded_by_a_block_not_the_trace() {
    assert!(
        counting_installed(),
        "the counting allocator must be global"
    );
    let dir = std::env::temp_dir().join(format!("jigsaw-tail-residency-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("r000.jigt");
    write_trace(&path);
    let file_bytes = std::fs::metadata(&path).expect("stat trace").len();
    assert!(file_bytes >= 4 << 20, "trace is only {file_bytes} bytes");

    let before = AllocRegion::begin().end().peak_bytes;
    let region = AllocRegion::begin();
    let mut tail = ChunkedFileTail::open(&path, CHUNK_BYTES).expect("open tail");
    let mut events = 0u64;
    loop {
        match tail.poll().expect("decode") {
            SourcePoll::Event(ev) => {
                drop(ev);
                events += 1;
            }
            SourcePoll::End => break,
            SourcePoll::Pending => unreachable!("a replay tail never pends"),
        }
    }
    drop(tail);
    let growth = region.end().peak_bytes.saturating_sub(before);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(events, EVENTS);
    assert!(
        growth < BUDGET_BYTES,
        "tailing a {file_bytes}-byte trace grew the heap by {growth} bytes (budget {BUDGET_BYTES})"
    );
}
