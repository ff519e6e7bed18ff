//! The jigdump-style binary trace format.
//!
//! One trace file holds the events of **one radio**, in local-time order,
//! grouped into independently decodable compressed blocks (the analogue of
//! jigdump's 64 KB LZO reads):
//!
//! ```text
//! file   := header block*
//! header := "JIGT" ver:u8 radio:u16 monitor:u16 channel:u8 snaplen:u32
//! block  := comp_len:u32 raw_len:u32 count:u32 first_ts:u64 payload
//! record := dts:uvarint status:u8 rate:uvarint rssi:ivarint
//!           wire_len:uvarint cap_len:uvarint bytes[cap_len]
//! ```
//!
//! Timestamps are delta-encoded within a block against `first_ts`, so a
//! block can be skipped (via [`crate::index`]) or decoded in isolation.
//!
//! This module is the one owner of that layout on the read side: the
//! header and block-header parsers and the record cursor below serve both
//! [`TraceReader`], which pulls each block from a [`Read`], and
//! [`crate::tail::TailReader`], which stages chunk-fed bytes until a block
//! is complete.

use crate::compress::{compress, decompress, DecompressError};
use crate::index::IndexEntry;
use crate::payload::{empty_block, Payload};
use crate::varint::{get_ivarint, get_uvarint, put_ivarint, put_uvarint};
use crate::{MonitorId, PhyEvent, PhyStatus, RadioId, RadioMeta};
use jigsaw_ieee80211::{Channel, PhyRate};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::Arc;

/// File magic.
pub const MAGIC: [u8; 4] = *b"JIGT";
/// Current format version.
pub const VERSION: u8 = 1;
/// Target uncompressed block size (bytes) before a flush: jigdump's 64 KB
/// read unit. A block is the granule of everything downstream — the index
/// seeks to one, a windowed replay decodes whole ones at both edges of its
/// range, and every [`Payload`] handle a reader hands out pins its block —
/// so at the paper's per-radio rates (a radio of the 156-radio day holds
/// well under 1 MB) a larger block makes a 1 s window decode most of each
/// trace. 64 KB costs about 2 % in compressed size against 256 KB.
pub const BLOCK_TARGET: usize = 64 * 1024;
/// Hard cap on a block's uncompressed size (decompression bomb guard).
pub const BLOCK_MAX: usize = 8 * 1024 * 1024;
/// Length of the file header, bytes.
pub(crate) const HEADER_LEN: usize = 30;
/// Length of a block header (comp_len, raw_len, count, first_ts), bytes.
pub(crate) const BLOCK_HEADER_LEN: usize = 20;

/// Errors from reading a trace.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Magic or version mismatch.
    BadHeader,
    /// Record fields failed to decode.
    BadRecord(&'static str),
    /// Block failed to decompress.
    Compression(DecompressError),
    /// Events out of time order within a block (writer bug or corruption).
    OutOfOrder,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadHeader => write!(f, "bad trace header"),
            FormatError::BadRecord(what) => write!(f, "bad record field: {what}"),
            FormatError::Compression(e) => write!(f, "block decompression failed: {e}"),
            FormatError::OutOfOrder => write!(f, "events out of order in block"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

impl From<DecompressError> for FormatError {
    fn from(e: DecompressError) -> Self {
        FormatError::Compression(e)
    }
}

/// Streaming writer for one radio's trace.
pub struct TraceWriter<W: Write> {
    sink: W,
    meta: RadioMeta,
    snaplen: u32,
    block_target: usize,
    raw: Vec<u8>,
    count: u32,
    first_ts: u64,
    last_ts: u64,
    bytes_written: u64,
    index: Vec<IndexEntry>,
    events_total: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer with the default [`BLOCK_TARGET`] block size.
    pub fn create(sink: W, meta: RadioMeta, snaplen: u32) -> io::Result<Self> {
        Self::with_block_target(sink, meta, snaplen, BLOCK_TARGET)
    }

    /// Creates a writer flushing blocks at `block_target` uncompressed
    /// bytes. Smaller blocks mean a finer-grained index (cheaper seeks,
    /// smaller per-radio decode buffers at read time) at the cost of
    /// compression ratio; the value is clamped to `64..=BLOCK_MAX / 2`.
    pub fn with_block_target(
        mut sink: W,
        meta: RadioMeta,
        snaplen: u32,
        block_target: usize,
    ) -> io::Result<Self> {
        sink.write_all(&MAGIC)?;
        sink.write_all(&[VERSION])?;
        sink.write_all(&meta.radio.0.to_le_bytes())?;
        sink.write_all(&meta.monitor.0.to_le_bytes())?;
        sink.write_all(&[meta.channel.number()])?;
        sink.write_all(&snaplen.to_le_bytes())?;
        sink.write_all(&meta.anchor_wall_us.to_le_bytes())?;
        sink.write_all(&meta.anchor_local_us.to_le_bytes())?;
        let block_target = block_target.clamp(64, BLOCK_MAX / 2);
        Ok(TraceWriter {
            sink,
            meta,
            snaplen,
            block_target,
            raw: Vec::with_capacity(block_target + 4096),
            count: 0,
            first_ts: 0,
            last_ts: 0,
            bytes_written: HEADER_LEN as u64,
            index: Vec::new(),
            events_total: 0,
        })
    }

    /// Appends one event. Events must arrive in non-decreasing `ts_local`
    /// order and belong to this writer's radio.
    pub fn append(&mut self, ev: &PhyEvent) -> Result<(), FormatError> {
        debug_assert_eq!(ev.radio, self.meta.radio);
        if self.count == 0 {
            self.first_ts = ev.ts_local;
            self.last_ts = ev.ts_local;
        }
        if ev.ts_local < self.last_ts {
            return Err(FormatError::OutOfOrder);
        }
        put_uvarint(&mut self.raw, ev.ts_local - self.last_ts);
        self.last_ts = ev.ts_local;
        self.raw.push(ev.status.code());
        put_uvarint(&mut self.raw, u64::from(ev.rate.centi_mbps()));
        put_ivarint(&mut self.raw, i64::from(ev.rssi_dbm));
        put_uvarint(&mut self.raw, u64::from(ev.wire_len));
        let cap = ev.bytes.len().min(self.snaplen as usize);
        put_uvarint(&mut self.raw, cap as u64);
        // tidy:allow(decode-no-panic): writer side — cap is min'ed against bytes.len() above
        self.raw.extend_from_slice(&ev.bytes[..cap]);
        self.count += 1;
        self.events_total += 1;
        if self.raw.len() >= self.block_target {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), FormatError> {
        if self.count == 0 {
            return Ok(());
        }
        let comp = compress(&self.raw);
        self.index.push(IndexEntry {
            offset: self.bytes_written,
            first_ts: self.first_ts,
            last_ts: self.last_ts,
            count: self.count,
        });
        self.sink.write_all(&(comp.len() as u32).to_le_bytes())?;
        self.sink
            .write_all(&(self.raw.len() as u32).to_le_bytes())?;
        self.sink.write_all(&self.count.to_le_bytes())?;
        self.sink.write_all(&self.first_ts.to_le_bytes())?;
        self.sink.write_all(&comp)?;
        self.bytes_written += (BLOCK_HEADER_LEN + comp.len()) as u64;
        self.raw.clear();
        self.count = 0;
        Ok(())
    }

    /// Flushes the final block and returns `(sink, index, total_events)`.
    pub fn finish(mut self) -> Result<(W, Vec<IndexEntry>, u64), FormatError> {
        self.flush_block()?;
        self.sink.flush()?;
        Ok((self.sink, self.index, self.events_total))
    }

    /// Events appended so far.
    pub fn events_total(&self) -> u64 {
        self.events_total
    }
}

/// Parses the file header into the radio metadata and the snap length.
/// Corrupt input surfaces as `Err` — the decode path must never panic
/// (tidy: `decode-no-panic`), so the fixed-size header is taken apart with
/// an infallible array pattern instead of slice indexing.
pub(crate) fn parse_header(hdr: [u8; HEADER_LEN]) -> Result<(RadioMeta, u32), FormatError> {
    let [m0, m1, m2, m3, ver, r0, r1, n0, n1, ch, s0, s1, s2, s3, w0, w1, w2, w3, w4, w5, w6, w7, l0, l1, l2, l3, l4, l5, l6, l7] =
        hdr;
    if [m0, m1, m2, m3] != MAGIC || ver != VERSION {
        return Err(FormatError::BadHeader);
    }
    let meta = RadioMeta {
        radio: RadioId(u16::from_le_bytes([r0, r1])),
        monitor: MonitorId(u16::from_le_bytes([n0, n1])),
        channel: Channel::new(ch).map_err(|_| FormatError::BadHeader)?,
        anchor_wall_us: u64::from_le_bytes([w0, w1, w2, w3, w4, w5, w6, w7]),
        anchor_local_us: u64::from_le_bytes([l0, l1, l2, l3, l4, l5, l6, l7]),
    };
    Ok((meta, u32::from_le_bytes([s0, s1, s2, s3])))
}

/// The 20-byte header framing one compressed block.
pub(crate) struct BlockHeader {
    comp_len: usize,
    raw_len: usize,
    count: u32,
    first_ts: u64,
}

impl BlockHeader {
    /// Parses a block header, checking both lengths against [`BLOCK_MAX`]
    /// before anyone waits for or allocates the payload: a corrupt length
    /// is an error now, not a tail stalled on bytes that never arrive.
    fn parse(hdr: [u8; BLOCK_HEADER_LEN]) -> Result<Self, FormatError> {
        let [c0, c1, c2, c3, r0, r1, r2, r3, k0, k1, k2, k3, f0, f1, f2, f3, f4, f5, f6, f7] = hdr;
        let comp_len = u32::from_le_bytes([c0, c1, c2, c3]) as usize;
        let raw_len = u32::from_le_bytes([r0, r1, r2, r3]) as usize;
        if raw_len > BLOCK_MAX || comp_len > BLOCK_MAX {
            return Err(FormatError::BadRecord("block too large"));
        }
        Ok(BlockHeader {
            comp_len,
            raw_len,
            count: u32::from_le_bytes([k0, k1, k2, k3]),
            first_ts: u64::from_le_bytes([f0, f1, f2, f3, f4, f5, f6, f7]),
        })
    }

    /// Header plus compressed payload: the bytes the block occupies.
    pub(crate) fn frame_len(&self) -> usize {
        BLOCK_HEADER_LEN + self.comp_len
    }
}

/// Frames the block at the front of `bytes`: its header and compressed
/// payload, or `None` while either is still incomplete. The lengths are
/// checked as soon as the header is present (see [`BlockHeader::parse`]).
pub(crate) fn frame_block(bytes: &[u8]) -> Result<Option<(BlockHeader, &[u8])>, FormatError> {
    let Some(&hdr) = bytes.first_chunk::<BLOCK_HEADER_LEN>() else {
        return Ok(None);
    };
    let hdr = BlockHeader::parse(hdr)?;
    Ok(bytes
        .get(BLOCK_HEADER_LEN..hdr.frame_len())
        .map(|comp| (hdr, comp)))
}

/// The record cursor every reader decodes through: one decompressed
/// block, the position in it, the records left, and the running
/// timestamp. Each block is decompressed once into a shared `Arc<[u8]>`;
/// every event decoded from it carries a [`Payload`] range handle into
/// that buffer — zero per-event payload allocation on the decode path.
pub(crate) struct BlockCursor {
    block: Arc<[u8]>,
    pos: usize,
    remaining: u32,
    ts: u64,
}

impl Default for BlockCursor {
    fn default() -> Self {
        BlockCursor {
            block: empty_block(),
            pos: 0,
            remaining: 0,
            ts: 0,
        }
    }
}

impl BlockCursor {
    /// Decompresses the payload `hdr` frames and positions the cursor at
    /// the block's first record.
    pub(crate) fn load(&mut self, hdr: &BlockHeader, comp: &[u8]) -> Result<(), FormatError> {
        let block: Arc<[u8]> = decompress(comp, hdr.raw_len)?.into();
        if block.len() != hdr.raw_len {
            return Err(FormatError::BadRecord("raw length mismatch"));
        }
        *self = BlockCursor {
            block,
            pos: 0,
            remaining: hdr.count,
            ts: hdr.first_ts,
        };
        Ok(())
    }

    /// Decodes the next record of `meta`'s radio, `None` once the block is
    /// exhausted.
    pub(crate) fn next_record(
        &mut self,
        meta: &RadioMeta,
    ) -> Result<Option<PhyEvent>, FormatError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // Every offset below derives from untrusted varint fields, so each
        // access goes through `get` and each advance through `checked_add`:
        // a corrupt block decodes to `Err`, never a panic or a wraparound.
        let buf = self
            .block
            .get(self.pos..)
            .ok_or(FormatError::BadRecord("block cursor"))?;
        let mut used = 0usize;
        let at = |used: usize| -> Result<&[u8], FormatError> {
            buf.get(used..).ok_or(FormatError::BadRecord("truncated"))
        };
        let (dts, n) = get_uvarint(at(used)?).ok_or(FormatError::BadRecord("dts"))?;
        used += n;
        let status = *buf.get(used).ok_or(FormatError::BadRecord("status"))?;
        used += 1;
        let status = PhyStatus::from_code(status).ok_or(FormatError::BadRecord("status code"))?;
        let (rate, n) = get_uvarint(at(used)?).ok_or(FormatError::BadRecord("rate"))?;
        used += n;
        let rate =
            PhyRate::from_centi_mbps(rate as u16).ok_or(FormatError::BadRecord("rate code"))?;
        let (rssi, n) = get_ivarint(at(used)?).ok_or(FormatError::BadRecord("rssi"))?;
        used += n;
        let (wire_len, n) = get_uvarint(at(used)?).ok_or(FormatError::BadRecord("wire_len"))?;
        used += n;
        let (cap_len, n) = get_uvarint(at(used)?).ok_or(FormatError::BadRecord("cap_len"))?;
        used += n;
        let cap = usize::try_from(cap_len).map_err(|_| FormatError::BadRecord("bytes"))?;
        let end = used
            .checked_add(cap)
            .ok_or(FormatError::BadRecord("bytes"))?;
        // The payload is a range handle into the shared block, not a copy;
        // `Payload::shared` validates `start + cap` against the block, which
        // subsumes the old `buf.get(used..end)` bounds check.
        let start = self
            .pos
            .checked_add(used)
            .ok_or(FormatError::BadRecord("bytes"))?;
        let bytes = Payload::shared(Arc::clone(&self.block), start, cap)
            .ok_or(FormatError::BadRecord("bytes"))?;
        used = end;

        // The first record of a block carries dts = 0 relative to first_ts;
        // every later record is a delta from its predecessor.
        let ts = self
            .ts
            .checked_add(dts)
            .ok_or(FormatError::BadRecord("timestamp overflow"))?;
        self.ts = ts;
        self.pos += used;
        self.remaining -= 1;
        Ok(Some(PhyEvent {
            radio: meta.radio,
            ts_local: ts,
            channel: meta.channel,
            rate,
            rssi_dbm: rssi as i16,
            status,
            wire_len: wire_len as u32,
            bytes,
        }))
    }
}

/// Streaming reader for one radio's trace: reads one block at a time from
/// its source and decodes it with the record cursor it shares with
/// [`TailReader`](crate::tail::TailReader). Each block is decompressed
/// once; every event decoded from it carries a [`Payload`] range handle
/// into that buffer.
pub struct TraceReader<R: Read> {
    source: R,
    meta: RadioMeta,
    snaplen: u32,
    cursor: BlockCursor,
    eof: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, validating the header. Corrupt or truncated input
    /// surfaces as `Err`, never a panic.
    pub fn open(mut source: R) -> Result<Self, FormatError> {
        let mut hdr = [0u8; HEADER_LEN];
        source.read_exact(&mut hdr)?;
        let (meta, snaplen) = parse_header(hdr)?;
        Ok(TraceReader {
            source,
            meta,
            snaplen,
            cursor: BlockCursor::default(),
            eof: false,
        })
    }

    /// The radio metadata from the header.
    pub fn meta(&self) -> RadioMeta {
        self.meta
    }

    /// The snap length the trace was captured with.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    fn load_block(&mut self) -> Result<bool, FormatError> {
        // A clean EOF exactly between blocks ends the trace; EOF anywhere
        // inside the block header is truncation, hence an error.
        let mut hdr = [0u8; BLOCK_HEADER_LEN];
        let (first, rest) = hdr.split_at_mut(1);
        match self.source.read_exact(first) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
            r => r?,
        }
        self.source.read_exact(rest)?;
        let hdr = BlockHeader::parse(hdr)?;
        let mut comp = vec![0u8; hdr.comp_len];
        self.source.read_exact(&mut comp)?;
        self.cursor.load(&hdr, &comp)?;
        Ok(true)
    }

    /// Reads the next event, or `None` at end of trace.
    pub fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError> {
        while !self.eof {
            if let Some(ev) = self.cursor.next_record(&self.meta)? {
                return Ok(Some(ev));
            }
            self.eof = !self.load_block()?;
        }
        Ok(None)
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Repositions the reader at a block boundary — `offset` must be the
    /// [`IndexEntry::offset`] of a block (the paper's "start reading a
    /// day-long trace at 11 am without decompressing the morning"). Any
    /// partially decoded block state is discarded; the next
    /// [`TraceReader::next_event`] decodes the target block from scratch.
    pub fn seek_to_block(&mut self, offset: u64) -> Result<(), FormatError> {
        self.source.seek(SeekFrom::Start(offset))?;
        self.cursor = BlockCursor::default();
        self.eof = false;
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<PhyEvent, FormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::Channel;
    use proptest::prelude::*;

    fn meta() -> RadioMeta {
        RadioMeta {
            radio: RadioId(5),
            monitor: MonitorId(2),
            channel: Channel::of(6),
            anchor_wall_us: 1_000_000,
            anchor_local_us: 777_123_456,
        }
    }

    fn ev(ts: u64, body: &[u8]) -> PhyEvent {
        PhyEvent {
            radio: RadioId(5),
            ts_local: ts,
            channel: Channel::of(6),
            rate: PhyRate::R11,
            rssi_dbm: -62,
            status: PhyStatus::Ok,
            wire_len: body.len() as u32,
            bytes: body.into(),
        }
    }

    fn write_all(events: &[PhyEvent], snaplen: u32) -> Vec<u8> {
        let mut w = TraceWriter::create(Vec::new(), meta(), snaplen).unwrap();
        for e in events {
            w.append(e).unwrap();
        }
        let (buf, index, total) = w.finish().unwrap();
        assert_eq!(total, events.len() as u64);
        if !events.is_empty() {
            assert!(!index.is_empty());
            assert_eq!(index[0].first_ts, events[0].ts_local);
        }
        buf
    }

    fn read_all(buf: &[u8]) -> Vec<PhyEvent> {
        let r = TraceReader::open(buf).unwrap();
        r.map(|e| e.unwrap()).collect()
    }

    #[test]
    fn empty_trace() {
        let buf = write_all(&[], 200);
        assert!(read_all(&buf).is_empty());
    }

    #[test]
    fn roundtrip_small() {
        let events = vec![ev(100, b"hello"), ev(100, b"same-ts"), ev(250, b"later")];
        let buf = write_all(&events, 200);
        assert_eq!(read_all(&buf), events);
    }

    #[test]
    fn roundtrip_multi_block() {
        // Enough data to force several blocks.
        let body = vec![0xCDu8; 180];
        let events: Vec<PhyEvent> = (0..10_000u64).map(|i| ev(i * 37, &body)).collect();
        let buf = write_all(&events, 200);
        assert_eq!(read_all(&buf), events);
    }

    #[test]
    fn snaplen_truncates() {
        let events = vec![ev(1, &[0xAA; 500])];
        let buf = write_all(&events, 64);
        let got = read_all(&buf);
        assert_eq!(got[0].bytes.len(), 64);
        assert_eq!(got[0].wire_len, 500);
        assert!(!got[0].is_complete());
    }

    #[test]
    fn out_of_order_rejected() {
        let mut w = TraceWriter::create(Vec::new(), meta(), 200).unwrap();
        w.append(&ev(100, b"a")).unwrap();
        assert!(matches!(
            w.append(&ev(99, b"b")),
            Err(FormatError::OutOfOrder)
        ));
    }

    #[test]
    fn header_validation() {
        let buf = write_all(&[ev(1, b"x")], 200);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            TraceReader::open(&bad[..]),
            Err(FormatError::BadHeader)
        ));
        let mut badver = buf.clone();
        badver[4] = 99;
        assert!(matches!(
            TraceReader::open(&badver[..]),
            Err(FormatError::BadHeader)
        ));
    }

    #[test]
    fn meta_preserved() {
        let buf = write_all(&[ev(1, b"x")], 123);
        let r = TraceReader::open(&buf[..]).unwrap();
        assert_eq!(r.meta(), meta());
        assert_eq!(r.snaplen(), 123);
    }

    #[test]
    fn truncated_file_is_io_error_not_panic() {
        let buf = write_all(&[ev(1, b"hello world")], 200);
        for cut in 31..buf.len() {
            if let Ok(reader) = TraceReader::open(&buf[..cut]) {
                for item in reader {
                    if item.is_err() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn index_entries_cover_all_blocks() {
        let body = vec![1u8; 100];
        let events: Vec<PhyEvent> = (0..20_000u64).map(|i| ev(i * 10, &body)).collect();
        let mut w = TraceWriter::create(Vec::new(), meta(), 200).unwrap();
        for e in &events {
            w.append(e).unwrap();
        }
        let (_, index, _) = w.finish().unwrap();
        assert!(index.len() > 1, "expected multiple blocks");
        let total: u64 = index.iter().map(|e| u64::from(e.count)).sum();
        assert_eq!(total, events.len() as u64);
        for w in index.windows(2) {
            assert!(w[0].last_ts <= w[1].first_ts);
            assert!(w[0].offset < w[1].offset);
        }
    }

    #[test]
    fn custom_block_target_forces_small_blocks() {
        // A tiny block target splits even a small trace into many blocks;
        // the roundtrip must be unaffected.
        let events: Vec<PhyEvent> = (0..500u64).map(|i| ev(i * 11, &[i as u8; 40])).collect();
        let mut w = TraceWriter::with_block_target(Vec::new(), meta(), 200, 256).unwrap();
        for e in &events {
            w.append(e).unwrap();
        }
        let (buf, index, total) = w.finish().unwrap();
        assert_eq!(total, events.len() as u64);
        assert!(
            index.len() > 10,
            "expected many blocks, got {}",
            index.len()
        );
        assert_eq!(read_all(&buf), events);
    }

    #[test]
    fn seek_to_block_resumes_mid_trace() {
        let body = vec![0x5Au8; 120];
        let events: Vec<PhyEvent> = (0..2_000u64).map(|i| ev(i * 13, &body)).collect();
        let mut w = TraceWriter::with_block_target(Vec::new(), meta(), 200, 4096).unwrap();
        for e in &events {
            w.append(e).unwrap();
        }
        let (buf, index, _) = w.finish().unwrap();
        assert!(index.len() > 3, "need several blocks");

        // Seek to every block in turn: decoding from there must yield
        // exactly the events the index attributes to that block onward.
        for (bi, entry) in index.iter().enumerate() {
            let mut r = TraceReader::open(std::io::Cursor::new(&buf[..])).unwrap();
            r.seek_to_block(entry.offset).unwrap();
            let got: Vec<PhyEvent> = r.map(|e| e.unwrap()).collect();
            let skipped: u64 = index[..bi].iter().map(|e| u64::from(e.count)).sum();
            assert_eq!(got, events[skipped as usize..]);
            assert_eq!(got.first().map(|e| e.ts_local), Some(entry.first_ts));
        }
    }

    proptest! {
        #[test]
        fn proptest_roundtrip(
            deltas in proptest::collection::vec(0u64..100_000, 0..200),
            sizes in proptest::collection::vec(1usize..256, 0..200),
        ) {
            let mut ts = 0u64;
            let events: Vec<PhyEvent> = deltas.iter().zip(sizes.iter().cycle()).map(|(d, &s)| {
                ts += d;
                ev(ts, &vec![(s % 251) as u8; s])
            }).collect();
            let buf = write_all(&events, 1024);
            prop_assert_eq!(read_all(&buf), events);
        }

        /// Compression-focused roundtrip: highly repetitive bodies (which
        /// the LZ codec actually compresses, exercising match tokens on the
        /// decode path, not just literal runs), arbitrary block targets
        /// (block-boundary corners included), and mixed decode statuses.
        #[test]
        fn proptest_roundtrip_compressed_blocks(
            deltas in proptest::collection::vec(0u64..5_000, 50..300),
            statuses in proptest::collection::vec(0u8..3, 1..300),
            pattern in 0u8..255,
            body_len in 32usize..200,
            block_target in 64usize..8_192,
        ) {
            let mut ts = 0u64;
            let events: Vec<PhyEvent> = deltas
                .iter()
                .zip(statuses.iter().cycle())
                .map(|(d, &s)| {
                    ts += d;
                    let mut e = ev(ts, &vec![pattern; body_len]);
                    e.status = PhyStatus::from_code(s).unwrap();
                    e
                })
                .collect();
            let mut w =
                TraceWriter::with_block_target(Vec::new(), meta(), 1024, block_target).unwrap();
            for e in &events {
                w.append(e).unwrap();
            }
            let (buf, index, total) = w.finish().unwrap();
            prop_assert_eq!(total, events.len() as u64);
            // Repetitive bodies must actually compress (ratio < 1), proving
            // the match path ran — not only literal passthrough.
            let raw: usize = events.iter().map(|e| 16 + e.bytes.len()).sum();
            prop_assert!(buf.len() < raw, "no compression: {} vs {}", buf.len(), raw);
            // Index covers every event, in order.
            let indexed: u64 = index.iter().map(|e| u64::from(e.count)).sum();
            prop_assert_eq!(indexed, total);
            prop_assert_eq!(read_all(&buf), events);
        }
    }
}
