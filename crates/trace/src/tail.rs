//! Tailing decode of a growing trace file.
//!
//! The batch [`TraceReader`](crate::format::TraceReader) treats a clean EOF
//! between blocks as *the end of the trace* — correct for a finished corpus,
//! wrong for a live capture where jigdump is still appending. [`TailReader`]
//! decodes an **unbounded byte stream fed in arbitrary chunks** with the
//! same block decoder: bytes arrive via [`TailReader::extend`] into a
//! staging buffer, and each block is decoded as soon as it is complete and
//! its bytes dropped from the buffer.
//!
//! The contract that makes live merge equivalence provable:
//!
//! * **Chunking-invariant:** for any partition of a trace file's bytes into
//!   chunks, the event sequence polled out of a `TailReader` is identical to
//!   the batch reader's — chunk boundaries are invisible because only
//!   complete units (the file header, then whole blocks) are ever decoded.
//! * **Never a false end:** [`TailReader::poll_event`] returns
//!   [`SourcePoll::Pending`] — not end-of-stream — when it runs out of
//!   complete blocks before [`TailReader::finish`] is called.
//! * **Truncation still surfaces:** after `finish`, leftover bytes that never
//!   completed a block are a [`FormatError`], exactly as a truncated file is
//!   for the batch reader.
//! * **Bounded memory:** a tail holds the one block it is decoding plus the
//!   bytes of the next one staged so far (and whatever of the last chunk
//!   lies past it) — never the trace. A block length past
//!   [`crate::format::BLOCK_MAX`] is an error before any of its payload is
//!   waited for.

use crate::format::{frame_block, parse_header, BlockCursor, FormatError, HEADER_LEN};
use crate::stream::SourcePoll;
use crate::RadioMeta;

/// Incremental decoder for one radio's trace arriving as a byte stream.
///
/// Feed chunks with [`TailReader::extend`], then drain decoded events with
/// [`TailReader::poll_event`] until it reports [`SourcePoll::Pending`]. Call
/// [`TailReader::finish`] once the producer is done; the final polls drain
/// the remaining events and then report [`SourcePoll::End`] (or a truncation
/// error if a partial block was left behind).
pub struct TailReader {
    /// Bytes fed but not yet decoded: the header until it parses, then the
    /// next block so far.
    staged: Vec<u8>,
    /// Radio metadata and snap length, once the header has been decoded.
    header: Option<(RadioMeta, u32)>,
    /// The block being decoded.
    cursor: BlockCursor,
    /// True once `finish` was called — no more bytes will arrive.
    finished: bool,
}

impl TailReader {
    /// Creates an empty tail reader; no bytes seen yet.
    pub fn new() -> Self {
        TailReader {
            staged: Vec::new(),
            header: None,
            cursor: BlockCursor::default(),
            finished: false,
        }
    }

    /// Appends a chunk of trace bytes. Chunks may split the header, block
    /// headers, and block payloads at any byte position.
    pub fn extend(&mut self, bytes: &[u8]) {
        debug_assert!(!self.finished, "extend after finish");
        self.staged.extend_from_slice(bytes);
    }

    /// Declares the byte stream complete. Subsequent polls drain whatever
    /// remains; leftover bytes that never completed a block surface as a
    /// truncation error.
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// The radio metadata, once the header has been decoded.
    pub fn meta(&self) -> Option<RadioMeta> {
        self.header.map(|(meta, _)| meta)
    }

    /// The snap length, once the header has been decoded.
    pub fn snaplen(&self) -> Option<u32> {
        self.header.map(|(_, snaplen)| snaplen)
    }

    /// Decodes the next event, moving on to the next staged block once the
    /// current one is exhausted.
    pub fn poll_event(&mut self) -> Result<SourcePoll, FormatError> {
        let meta = match self.header {
            Some((meta, _)) => meta,
            None => {
                let Some(&hdr) = self.staged.first_chunk::<HEADER_LEN>() else {
                    if self.finished {
                        return Err(FormatError::BadRecord("truncated header"));
                    }
                    return Ok(SourcePoll::Pending);
                };
                let (meta, snaplen) = parse_header(hdr)?;
                self.staged.drain(..HEADER_LEN);
                self.header = Some((meta, snaplen));
                meta
            }
        };
        loop {
            if let Some(ev) = self.cursor.next_record(&meta)? {
                return Ok(SourcePoll::Event(ev));
            }
            let Some((hdr, comp)) = frame_block(&self.staged)? else {
                return self.at_end();
            };
            self.cursor.load(&hdr, comp)?;
            self.staged.drain(..hdr.frame_len());
        }
    }

    /// The non-event outcome once every complete block is decoded:
    /// `Pending` while the stream is open, `End` after a clean finish,
    /// truncation error after a finish with a partial block staged.
    fn at_end(&self) -> Result<SourcePoll, FormatError> {
        if !self.finished {
            return Ok(SourcePoll::Pending);
        }
        if self.staged.is_empty() {
            Ok(SourcePoll::End)
        } else {
            Err(FormatError::BadRecord("truncated block at end of stream"))
        }
    }
}

impl Default for TailReader {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceWriter;
    use crate::{MonitorId, PhyEvent, PhyStatus, RadioId};
    use jigsaw_ieee80211::{Channel, PhyRate};

    fn meta() -> RadioMeta {
        RadioMeta {
            radio: RadioId(9),
            monitor: MonitorId(4),
            channel: Channel::of(11),
            anchor_wall_us: 500_000,
            anchor_local_us: 42_000_000,
        }
    }

    fn ev(ts: u64, body: &[u8]) -> PhyEvent {
        PhyEvent {
            radio: RadioId(9),
            ts_local: ts,
            channel: Channel::of(11),
            rate: PhyRate::R54,
            rssi_dbm: -48,
            status: PhyStatus::Ok,
            wire_len: body.len() as u32,
            bytes: body.into(),
        }
    }

    /// A multi-block trace: small block target so chunk boundaries straddle
    /// many block boundaries.
    fn trace_bytes(n: u64, block_target: usize) -> (Vec<u8>, Vec<PhyEvent>) {
        let events: Vec<PhyEvent> = (0..n).map(|i| ev(i * 17, &[i as u8; 60])).collect();
        let mut w = TraceWriter::with_block_target(Vec::new(), meta(), 200, block_target).unwrap();
        for e in &events {
            w.append(e).unwrap();
        }
        let (buf, index, _) = w.finish().unwrap();
        assert!(index.len() > 2, "want several blocks, got {}", index.len());
        (buf, events)
    }

    /// Feeds `buf` in `chunk`-sized pieces, draining after every chunk, and
    /// returns every decoded event plus how many `Pending` polls were seen.
    fn tail_chunked(buf: &[u8], chunk: usize) -> (Vec<PhyEvent>, usize) {
        let mut tail = TailReader::new();
        let mut got = Vec::new();
        let mut pendings = 0;
        for piece in buf.chunks(chunk) {
            tail.extend(piece);
            loop {
                match tail.poll_event().unwrap() {
                    SourcePoll::Event(e) => got.push(e),
                    SourcePoll::Pending => {
                        pendings += 1;
                        break;
                    }
                    SourcePoll::End => unreachable!("End before finish"),
                }
            }
        }
        tail.finish();
        loop {
            match tail.poll_event().unwrap() {
                SourcePoll::Event(e) => got.push(e),
                SourcePoll::Pending => unreachable!("Pending after finish"),
                SourcePoll::End => break,
            }
        }
        (got, pendings)
    }

    #[test]
    fn whole_file_single_chunk() {
        let (buf, events) = trace_bytes(800, 1024);
        let (got, _) = tail_chunked(&buf, buf.len());
        assert_eq!(got, events);
    }

    #[test]
    fn one_byte_chunks() {
        let (buf, events) = trace_bytes(200, 512);
        let (got, pendings) = tail_chunked(&buf, 1);
        assert_eq!(got, events);
        // Nearly every 1-byte chunk leaves the decoder pending.
        assert!(pendings > buf.len() / 2);
    }

    #[test]
    fn block_straddling_chunks() {
        let (buf, events) = trace_bytes(800, 1024);
        // A spread of chunk sizes guaranteed to straddle 20-byte block
        // headers and block payloads at odd offsets.
        for chunk in [7, 29, 64, 1000, 4096] {
            let (got, _) = tail_chunked(&buf, chunk);
            assert_eq!(got, events, "chunk={chunk}");
        }
    }

    #[test]
    fn meta_available_after_header_commits() {
        let (buf, _) = trace_bytes(50, 512);
        let mut tail = TailReader::new();
        tail.extend(&buf[..29]);
        assert_eq!(tail.poll_event().unwrap(), SourcePoll::Pending);
        assert_eq!(tail.meta(), None);
        tail.extend(&buf[29..30]);
        assert_eq!(tail.poll_event().unwrap(), SourcePoll::Pending);
        assert_eq!(tail.meta(), Some(meta()));
        assert_eq!(tail.snaplen(), Some(200));
    }

    #[test]
    fn resumes_after_drain() {
        // Drain to Pending mid-file, then feed the rest: decoding must
        // continue with the block that was left partially staged.
        let (buf, events) = trace_bytes(400, 512);
        let cut = buf.len() / 2;
        let mut tail = TailReader::new();
        let mut got = Vec::new();
        tail.extend(&buf[..cut]);
        loop {
            match tail.poll_event().unwrap() {
                SourcePoll::Event(e) => got.push(e),
                SourcePoll::Pending => break,
                SourcePoll::End => unreachable!(),
            }
        }
        assert!(!got.is_empty() && got.len() < events.len());
        // Polling again while starved stays Pending (no false end).
        assert_eq!(tail.poll_event().unwrap(), SourcePoll::Pending);
        tail.extend(&buf[cut..]);
        tail.finish();
        loop {
            match tail.poll_event().unwrap() {
                SourcePoll::Event(e) => got.push(e),
                SourcePoll::Pending => unreachable!(),
                SourcePoll::End => break,
            }
        }
        assert_eq!(got, events);
    }

    #[test]
    fn truncated_tail_is_error() {
        let (buf, _) = trace_bytes(400, 512);
        let mut tail = TailReader::new();
        tail.extend(&buf[..buf.len() - 3]);
        let mut polls = 0;
        loop {
            match tail.poll_event().unwrap() {
                SourcePoll::Event(_) => polls += 1,
                SourcePoll::Pending => break,
                SourcePoll::End => unreachable!(),
            }
        }
        assert!(polls > 0);
        tail.finish();
        // Drain the committed remainder, then hit the truncation error.
        let err = loop {
            match tail.poll_event() {
                Ok(SourcePoll::Event(_)) => {}
                Ok(other) => panic!("expected truncation error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, FormatError::BadRecord(_)), "{err:?}");
    }

    #[test]
    fn truncated_header_is_error() {
        let (buf, _) = trace_bytes(200, 512);
        let mut tail = TailReader::new();
        tail.extend(&buf[..12]);
        assert_eq!(tail.poll_event().unwrap(), SourcePoll::Pending);
        tail.finish();
        assert!(matches!(
            tail.poll_event(),
            Err(FormatError::BadRecord("truncated header"))
        ));
    }

    #[test]
    fn bad_magic_surfaces_at_commit() {
        let (mut buf, _) = trace_bytes(200, 512);
        buf[0] = b'X';
        let mut tail = TailReader::new();
        tail.extend(&buf);
        assert!(matches!(tail.poll_event(), Err(FormatError::BadHeader)));
    }

    #[test]
    fn oversized_block_length_errors_before_buffering() {
        let (buf, _) = trace_bytes(200, 512);
        let mut tail = TailReader::new();
        tail.extend(&buf[..30]);
        // A block header claiming a multi-gigabyte payload must fail now,
        // not wait for bytes that will never come.
        let mut bad = [0u8; 20];
        bad[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        tail.extend(&bad);
        assert!(matches!(
            tail.poll_event(),
            Err(FormatError::BadRecord("block too large"))
        ));
    }

    #[test]
    fn empty_trace_round_trips() {
        // Header only, zero blocks: a valid (if dull) live stream.
        let w = TraceWriter::create(Vec::new(), meta(), 200).unwrap();
        let (buf, _, total) = w.finish().unwrap();
        assert_eq!(total, 0);
        let (got, _) = tail_chunked(&buf, 5);
        assert!(got.is_empty());
    }
}
