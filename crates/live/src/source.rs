//! Live event sources: where per-radio events trickle in from.
//!
//! A [`LiveSource`] is a per-radio event stream whose producer may still
//! be writing: polling it yields the next decoded event, *or*
//! [`SourcePoll::Pending`] when the producer simply has not delivered more
//! bytes yet. Its radio metadata may also arrive late (a file tail learns
//! it from the trace header, in the poll that may deliver its first event).
//! Once the header is known, [`crate::LiveMerger`] pulls the source through
//! [`EventStream::poll_event`](jigsaw_trace::stream::EventStream::poll_event)
//! as the batch pipeline pulls a stored trace: into its bootstrap split,
//! then as one of the merger's streams.
//!
//! Two implementations:
//!
//! * [`ChunkedFileTail`] — tails a jigdump-format trace file in
//!   fixed-size chunks through [`jigsaw_trace::tail::TailReader`], which
//!   decodes each block as soon as its last byte lands. Two modes: **replay**
//!   ([`ChunkedFileTail::open`]) treats EOF as the end of a finished
//!   recording — feeding a recorded corpus file through it simulates
//!   liveness, since the byte stream is identical to what a growing file
//!   would deliver, for any chunk size; **follow**
//!   ([`ChunkedFileTail::follow`]) treats EOF as the live edge of a file
//!   *still being written* — it reports [`SourcePoll::Pending`] and picks
//!   up appended bytes on later polls, ending only after
//!   [`ChunkedFileTail::stop`] declares the writer done.
//! * [`ChannelSource`] — a bounded in-process channel, for radios whose
//!   capture process lives in the same address space (and for tests that
//!   need to stall, kill, or revive a radio at will). Its [`LiveSender`]
//!   reports every send as a [`SendOutcome`], so a full channel is explicit
//!   back-pressure on the producer, never silent growth.
//!
//! The one consumer of both is [`crate::LiveMerger`].

use jigsaw_trace::format::FormatError;
use jigsaw_trace::stream::SourcePoll;
use jigsaw_trace::tail::TailReader;
use jigsaw_trace::{PhyEvent, RadioMeta};
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::mpsc;

/// An incrementally arriving per-radio event stream.
pub trait LiveSource {
    /// The radio's metadata, once known (a file tail learns it from the
    /// trace header; an in-process channel knows it upfront).
    fn meta(&self) -> Option<RadioMeta>;

    /// Polls for the next event. Decode errors are terminal; once a source
    /// answers [`SourcePoll::End`], it keeps answering it.
    fn poll(&mut self) -> Result<SourcePoll, FormatError>;
}

/// Tails a trace file in `chunk_bytes`-sized reads.
///
/// Each poll decodes from bytes already committed; when starved it reads
/// further chunks until an event decodes or the read hits the end of the
/// file. What EOF *means* depends on the mode:
///
/// * **replay** ([`ChunkedFileTail::open`]) — the file is a finished
///   recording; EOF ends the stream (a partial trailing block is the
///   truncation error it would be for the batch reader). Over a finished
///   file a replay tail never reports [`SourcePoll::Pending`], yet every
///   chunk boundary still exercises the tail reader's partial-block
///   staging — which is what makes the chunking-invariance contract
///   meaningful.
/// * **follow** ([`ChunkedFileTail::follow`]) — the file is still being
///   written; EOF is the live edge, reported as [`SourcePoll::Pending`],
///   and later polls read whatever the writer appended since (a writer
///   caught mid-block just leaves the tail pending, never a truncation
///   error). The stream can only end after [`ChunkedFileTail::stop`]
///   declares the writer done.
pub struct ChunkedFileTail {
    file: File,
    tail: TailReader,
    buf: Vec<u8>,
    /// Follow mode: EOF is the live edge, not the end of the stream.
    follow: bool,
    file_done: bool,
}

impl ChunkedFileTail {
    /// Opens `path` in replay mode — a finished recording, EOF is the end —
    /// with the given chunk size (clamped to ≥ 1).
    pub fn open(path: &Path, chunk_bytes: usize) -> Result<Self, FormatError> {
        Ok(ChunkedFileTail {
            file: File::open(path)?,
            tail: TailReader::new(),
            buf: vec![0u8; chunk_bytes.max(1)],
            follow: false,
            file_done: false,
        })
    }

    /// Opens `path` in follow mode — the file is still being written, EOF
    /// is the live edge ([`SourcePoll::Pending`]) — with the given chunk
    /// size (clamped to ≥ 1). Call [`ChunkedFileTail::stop`] once the
    /// writer is done, or the tail pends at the live edge forever.
    pub fn follow(path: &Path, chunk_bytes: usize) -> Result<Self, FormatError> {
        Ok(ChunkedFileTail {
            file: File::open(path)?,
            tail: TailReader::new(),
            buf: vec![0u8; chunk_bytes.max(1)],
            follow: true,
            file_done: false,
        })
    }

    /// Declares the writer done: the tail drops back to replay mode, drains
    /// the remaining bytes, and the next EOF ends the stream (surfacing a
    /// partial trailing block as a truncation error). No-op in replay mode.
    pub fn stop(&mut self) {
        self.follow = false;
    }
}

impl LiveSource for ChunkedFileTail {
    fn meta(&self) -> Option<RadioMeta> {
        self.tail.meta()
    }

    fn poll(&mut self) -> Result<SourcePoll, FormatError> {
        loop {
            match self.tail.poll_event()? {
                SourcePoll::Pending => {}
                decoded => return Ok(decoded),
            }
            debug_assert!(!self.file_done, "Pending after finish");
            let n = self.file.read(&mut self.buf)?;
            if n == 0 {
                if self.follow {
                    // The live edge: the writer may append more, so this is
                    // starvation, not the end — the next poll re-reads past
                    // the current EOF.
                    return Ok(SourcePoll::Pending);
                }
                self.file_done = true;
                self.tail.finish();
            } else {
                self.tail.extend(&self.buf[..n]);
            }
        }
    }
}

/// Events a [`ChannelSource`] queues between its producer and the merger. A
/// fixed bound, not a knob: the merger pulls a source only when its last
/// event has been consumed (see the pull clause of the crate docs), so a
/// radio running ahead of the others must push back on its producer, not
/// move the pile into the channel.
pub const CHANNEL_CAPACITY: usize = 1024;

/// What became of one [`LiveSender::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a Full outcome hands the event back; dropping it loses the event"]
pub enum SendOutcome {
    /// The event is queued for the merger.
    Inserted,
    /// The channel already holds [`CHANNEL_CAPACITY`] events — this radio
    /// is ahead of what the merger can emit yet, or the merger has not
    /// stepped. The event is returned unsent: retry it (in order) after the
    /// merger's next step.
    Full(PhyEvent),
    /// The receiving [`ChannelSource`] is gone; nothing will ever be read.
    Closed,
}

/// The sending half of an in-process live radio; drop it to end the stream.
#[derive(Debug, Clone)]
pub struct LiveSender(mpsc::SyncSender<PhyEvent>);

impl LiveSender {
    /// Offers one event (nondecreasing `ts_local`) without blocking.
    pub fn send(&self, ev: PhyEvent) -> SendOutcome {
        match self.0.try_send(ev) {
            Ok(()) => SendOutcome::Inserted,
            Err(mpsc::TrySendError::Full(ev)) => SendOutcome::Full(ev),
            Err(mpsc::TrySendError::Disconnected(_)) => SendOutcome::Closed,
        }
    }
}

/// An in-process channel-backed live radio, bounded at
/// [`CHANNEL_CAPACITY`] queued events.
pub struct ChannelSource {
    meta: RadioMeta,
    rx: mpsc::Receiver<PhyEvent>,
}

impl ChannelSource {
    /// Creates a live radio fed through a bounded in-process channel.
    pub fn new(meta: RadioMeta) -> (LiveSender, ChannelSource) {
        let (tx, rx) = mpsc::sync_channel(CHANNEL_CAPACITY);
        (LiveSender(tx), ChannelSource { meta, rx })
    }
}

impl LiveSource for ChannelSource {
    fn meta(&self) -> Option<RadioMeta> {
        Some(self.meta)
    }

    fn poll(&mut self) -> Result<SourcePoll, FormatError> {
        match self.rx.try_recv() {
            Ok(ev) => Ok(SourcePoll::Event(ev)),
            Err(mpsc::TryRecvError::Empty) => Ok(SourcePoll::Pending),
            Err(mpsc::TryRecvError::Disconnected) => Ok(SourcePoll::End),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::{Channel, PhyRate};
    use jigsaw_trace::format::TraceWriter;
    use jigsaw_trace::{MonitorId, PhyStatus, RadioId};

    fn meta() -> RadioMeta {
        RadioMeta {
            radio: RadioId(3),
            monitor: MonitorId(1),
            channel: Channel::of(6),
            anchor_wall_us: 100,
            anchor_local_us: 9_000,
        }
    }

    fn ev(ts: u64, tag: u8) -> PhyEvent {
        PhyEvent {
            radio: RadioId(3),
            ts_local: ts,
            channel: Channel::of(6),
            rate: PhyRate::R11,
            rssi_dbm: -55,
            status: PhyStatus::Ok,
            wire_len: 24,
            bytes: vec![tag; 24].into(),
        }
    }

    fn write_trace(dir: &Path, events: &[PhyEvent]) -> std::path::PathBuf {
        let path = dir.join("r003.jigt");
        let f = File::create(&path).unwrap();
        let mut w = TraceWriter::with_block_target(f, meta(), 200, 256).unwrap();
        for e in events {
            w.append(e).unwrap();
        }
        w.finish().unwrap();
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("jigsaw_live_src_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn chunked_tail_decodes_whole_file() {
        let dir = tmpdir("whole");
        let events: Vec<PhyEvent> = (0..300u64).map(|i| ev(1_000 + i * 40, i as u8)).collect();
        let path = write_trace(&dir, &events);
        for chunk in [1usize, 13, 4096] {
            let mut t = ChunkedFileTail::open(&path, chunk).unwrap();
            let mut got = Vec::new();
            loop {
                match t.poll().unwrap() {
                    SourcePoll::Event(e) => got.push(e),
                    SourcePoll::End => break,
                    SourcePoll::Pending => unreachable!("file tails never pend"),
                }
            }
            assert_eq!(got, events, "chunk={chunk}");
            assert_eq!(t.meta(), Some(meta()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A follow-mode tail over a file that is still being written: EOF is
    /// the live edge (Pending, even mid-block), later appends are picked
    /// up, and only `stop()` lets the stream end.
    #[test]
    fn follow_mode_sees_later_appends() {
        use std::io::Write;
        let events: Vec<PhyEvent> = (0..300u64).map(|i| ev(1_000 + i * 40, i as u8)).collect();
        let mut w = TraceWriter::with_block_target(Vec::new(), meta(), 200, 256).unwrap();
        for e in &events {
            w.append(e).unwrap();
        }
        let (buf, _, _) = w.finish().unwrap();
        let dir = tmpdir("follow");
        let path = dir.join("r003.jigt");
        // The writer has landed the first third — cut at an arbitrary byte
        // offset, so the tail likely catches it mid-block.
        let (cut1, cut2) = (buf.len() / 3, 2 * buf.len() / 3);
        std::fs::write(&path, &buf[..cut1]).unwrap();

        let mut t = ChunkedFileTail::follow(&path, 37).unwrap();
        let mut got = Vec::new();
        let drain = |t: &mut ChunkedFileTail, got: &mut Vec<PhyEvent>| loop {
            match t.poll().unwrap() {
                SourcePoll::Event(e) => got.push(e),
                SourcePoll::Pending => break false,
                SourcePoll::End => break true,
            }
        };
        assert!(!drain(&mut t, &mut got), "live edge must pend, not end");
        assert!(!got.is_empty() && got.len() < events.len());
        // Still pending on re-poll; no truncation error for the partial
        // block the writer was caught in the middle of.
        assert_eq!(t.poll().unwrap(), SourcePoll::Pending);

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&buf[cut1..cut2]).unwrap();
        drop(f);
        assert!(!drain(&mut t, &mut got), "still growing: pend again");
        assert!(got.len() < events.len());

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&buf[cut2..]).unwrap();
        drop(f);
        t.stop();
        assert!(drain(&mut t, &mut got), "stopped writer: stream ends");
        assert_eq!(got, events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn channel_source_pends_then_ends() {
        let (tx, mut src) = ChannelSource::new(meta());
        assert_eq!(src.poll().unwrap(), SourcePoll::Pending);
        assert_eq!(tx.send(ev(5, 1)), SendOutcome::Inserted);
        assert!(matches!(src.poll().unwrap(), SourcePoll::Event(_)));
        assert_eq!(src.poll().unwrap(), SourcePoll::Pending);
        drop(tx);
        assert_eq!(src.poll().unwrap(), SourcePoll::End);
    }

    /// Back-pressure is explicit: a full channel hands the event back, a
    /// poll frees a slot so the retry lands (in order), and a dropped
    /// receiver reports `Closed`.
    #[test]
    fn channel_source_full_then_retry_then_closed() {
        let (tx, mut src) = ChannelSource::new(meta());
        for i in 0..CHANNEL_CAPACITY as u64 {
            assert_eq!(tx.send(ev(i, 0)), SendOutcome::Inserted);
        }
        let overflow = ev(CHANNEL_CAPACITY as u64, 9);
        let SendOutcome::Full(returned) = tx.send(overflow.clone()) else {
            panic!("a full channel must hand the event back");
        };
        assert_eq!(returned, overflow);
        assert_eq!(src.poll().unwrap(), SourcePoll::Event(ev(0, 0)));
        assert_eq!(tx.send(returned), SendOutcome::Inserted);
        let mut last = None;
        while let SourcePoll::Event(e) = src.poll().unwrap() {
            last = Some(e);
        }
        assert_eq!(last, Some(overflow), "the retried event keeps its place");
        drop(src);
        assert_eq!(tx.send(ev(9_999, 1)), SendOutcome::Closed);
    }
}
