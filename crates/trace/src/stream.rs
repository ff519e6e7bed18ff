//! Time-sorted event streams — the interface between trace storage and the
//! merger. The bootstrap/unification pipeline consumes one stream per radio
//! and relies on local-time ordering within each stream (the merger itself
//! establishes *global* order).

use crate::format::{FormatError, TraceReader};
use crate::{PhyEvent, RadioMeta};
use jigsaw_ieee80211::Channel;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One pull of a stream that may be ahead of its producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourcePoll {
    /// The next event, in nondecreasing `ts_local` order.
    Event(PhyEvent),
    /// No event available *yet* — the producer is alive but quiet.
    Pending,
    /// The producer is done; no further events will ever arrive.
    End,
}

/// A stream of [`PhyEvent`]s in non-decreasing `ts_local` order.
pub trait EventStream {
    /// The radio this stream belongs to.
    fn meta(&self) -> RadioMeta;

    /// Pulls the next event, `Ok(None)` at end of stream.
    fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError>;

    /// The merger's pull: like `next_event`, but a stream fed by a live
    /// producer may answer [`SourcePoll::Pending`]. Stored streams never do.
    fn poll_event(&mut self) -> Result<SourcePoll, FormatError> {
        Ok(self
            .next_event()?
            .map_or(SourcePoll::End, SourcePoll::Event))
    }
}

/// An in-memory stream (tests, synthetic scenarios).
pub struct MemoryStream {
    meta: RadioMeta,
    events: VecDeque<PhyEvent>,
}

impl MemoryStream {
    /// Builds a stream from a vector, verifying time order.
    ///
    /// # Panics
    /// Panics if events are out of `ts_local` order or belong to a different
    /// radio — these are programmer errors in test/scenario construction.
    pub fn new(meta: RadioMeta, events: Vec<PhyEvent>) -> Self {
        for w in events.windows(2) {
            assert!(
                w[0].ts_local <= w[1].ts_local,
                "MemoryStream events must be time-sorted"
            );
        }
        for e in &events {
            assert_eq!(e.radio, meta.radio, "event radio mismatch");
        }
        MemoryStream {
            meta,
            events: events.into(),
        }
    }

    /// Remaining event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when drained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl EventStream for MemoryStream {
    fn meta(&self) -> RadioMeta {
        self.meta
    }

    fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError> {
        Ok(self.events.pop_front())
    }
}

/// A jigdump-format trace decoded from any reader.
impl<R: Read> EventStream for TraceReader<R> {
    fn meta(&self) -> RadioMeta {
        TraceReader::meta(self)
    }

    fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError> {
        TraceReader::next_event(self)
    }
}

/// A [`Read`] adapter counting the bytes flowing through it into a shared
/// counter — how the corpus merge path reports disk bytes actually read
/// (which, with index-guided seeks, can be far less than the file size).
pub struct CountingReader<R> {
    inner: R,
    count: Arc<AtomicU64>,
}

impl<R> CountingReader<R> {
    /// Wraps a reader; reads accumulate into `count`.
    pub fn new(inner: R, count: Arc<AtomicU64>) -> Self {
        CountingReader { inner, count }
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl<R: Seek> Seek for CountingReader<R> {
    // Seeks reposition without reading; they do not touch the counter.
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// A stream restricted to events with `ts_local` in `[lo, hi]`: events
/// before `lo` are skipped, and the first event past `hi` ends the stream
/// (the underlying reader is dropped, so nothing past the window is ever
/// decoded — with an index-seeked inner stream this is what makes a
/// windowed replay's I/O proportional to the window, not the trace).
pub struct WindowedStream<S> {
    meta: RadioMeta,
    inner: Option<S>,
    lo: u64,
    hi: u64,
}

impl<S: EventStream> WindowedStream<S> {
    /// Wraps `inner` (or nothing, for a window past the end of the trace —
    /// the stream is then immediately exhausted).
    pub fn new(meta: RadioMeta, inner: Option<S>, lo: u64, hi: u64) -> Self {
        WindowedStream {
            meta,
            inner,
            lo,
            hi,
        }
    }
}

impl<S: EventStream> EventStream for WindowedStream<S> {
    fn meta(&self) -> RadioMeta {
        self.meta
    }

    fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError> {
        let Some(inner) = self.inner.as_mut() else {
            return Ok(None);
        };
        loop {
            match inner.next_event()? {
                None => {
                    self.inner = None;
                    return Ok(None);
                }
                Some(ev) if ev.ts_local < self.lo => continue,
                Some(ev) if ev.ts_local > self.hi => {
                    self.inner = None; // stop decoding: the tail never loads
                    return Ok(None);
                }
                Some(ev) => return Ok(Some(ev)),
            }
        }
    }
}

/// One channel's slice of a stream set: the tuned channel plus its member
/// streams, each tagged with its index in the original stream table (so
/// per-radio side tables — bootstrap offsets, seed prefixes — can follow
/// the stream into a shard).
pub struct ChannelGroup<S> {
    /// The channel every member is tuned to.
    pub channel: Channel,
    /// `(original index, stream)` pairs, in original relative order.
    pub members: Vec<(usize, S)>,
}

/// Partitions streams by tuned channel ([`RadioMeta::channel`]).
///
/// Radios tuned to different channels can never capture the same
/// transmission, so a merge may process each group independently — the
/// decomposition behind `jigsaw_core`'s channel-sharded parallel merge.
/// Groups come back sorted by channel number; within a group, members keep
/// their relative order from the input (merge output ordering depends on
/// stream order for equal-timestamp ties, so stability matters).
pub fn partition_by_channel<S: EventStream>(streams: Vec<S>) -> Vec<ChannelGroup<S>> {
    let mut by_channel: BTreeMap<Channel, Vec<(usize, S)>> = BTreeMap::new();
    for (i, s) in streams.into_iter().enumerate() {
        by_channel.entry(s.meta().channel).or_default().push((i, s));
    }
    by_channel
        .into_iter()
        .map(|(channel, members)| ChannelGroup { channel, members })
        .collect()
}

/// The distinct channels a stream set covers, sorted by channel number.
pub fn distinct_channels(metas: &[RadioMeta]) -> Vec<Channel> {
    let set: std::collections::BTreeSet<Channel> = metas.iter().map(|m| m.channel).collect();
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceWriter;
    use crate::{MonitorId, PhyStatus, RadioId};
    use jigsaw_ieee80211::{Channel, PhyRate};

    fn meta() -> RadioMeta {
        RadioMeta {
            radio: RadioId(0),
            monitor: MonitorId(0),
            channel: Channel::of(1),
            anchor_wall_us: 0,
            anchor_local_us: 0,
        }
    }

    fn ev(ts: u64) -> PhyEvent {
        PhyEvent {
            radio: RadioId(0),
            ts_local: ts,
            channel: Channel::of(1),
            rate: PhyRate::R2,
            rssi_dbm: -70,
            status: PhyStatus::Ok,
            wire_len: 3,
            bytes: vec![1, 2, 3].into(),
        }
    }

    #[test]
    fn memory_stream_drains_in_order() {
        let mut s = MemoryStream::new(meta(), vec![ev(1), ev(5), ev(5), ev(9)]);
        assert_eq!(s.len(), 4);
        let mut last = 0;
        while let Some(e) = s.next_event().unwrap() {
            assert!(e.ts_local >= last);
            last = e.ts_local;
        }
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn memory_stream_rejects_unsorted() {
        MemoryStream::new(meta(), vec![ev(5), ev(1)]);
    }

    #[test]
    fn reader_stream_matches_memory() {
        let events = vec![ev(10), ev(20), ev(30)];
        let mut w = TraceWriter::create(Vec::new(), meta(), 256).unwrap();
        for e in &events {
            w.append(e).unwrap();
        }
        let (buf, _, _) = w.finish().unwrap();
        let mut reader = TraceReader::open(&buf[..]).unwrap();
        let rs: &mut dyn EventStream = &mut reader;
        assert_eq!(rs.meta(), meta());
        let mut got = Vec::new();
        while let Some(e) = rs.next_event().unwrap() {
            got.push(e);
        }
        assert_eq!(got, events);
    }

    #[test]
    fn partition_groups_by_channel_preserving_order() {
        let mk = |radio: u16, chan: u8| {
            let m = RadioMeta {
                radio: RadioId(radio),
                monitor: MonitorId(radio / 2),
                channel: Channel::of(chan),
                anchor_wall_us: 0,
                anchor_local_us: 0,
            };
            MemoryStream::new(m, Vec::new())
        };
        // Radios interleaved across channels 11 / 1 / 6.
        let streams = vec![mk(0, 11), mk(1, 1), mk(2, 6), mk(3, 1), mk(4, 11)];
        let metas: Vec<RadioMeta> = streams.iter().map(|s| s.meta()).collect();
        assert_eq!(
            distinct_channels(&metas),
            vec![Channel::of(1), Channel::of(6), Channel::of(11)]
        );
        let groups = partition_by_channel(streams);
        assert_eq!(groups.len(), 3);
        // Sorted by channel number.
        let chans: Vec<u8> = groups.iter().map(|g| g.channel.number()).collect();
        assert_eq!(chans, vec![1, 6, 11]);
        // Original indices preserved, relative order kept.
        assert_eq!(
            groups[0]
                .members
                .iter()
                .map(|(i, _)| *i)
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(
            groups[2]
                .members
                .iter()
                .map(|(i, _)| *i)
                .collect::<Vec<_>>(),
            vec![0, 4]
        );
        for g in &groups {
            for (_, s) in &g.members {
                assert_eq!(s.meta().channel, g.channel);
            }
        }
    }

    #[test]
    fn counting_reader_counts_reads_not_seeks() {
        let data = vec![7u8; 1000];
        let count = Arc::new(AtomicU64::new(0));
        let mut r = CountingReader::new(std::io::Cursor::new(&data), Arc::clone(&count));
        let mut buf = [0u8; 300];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 300);
        r.seek(SeekFrom::Start(900)).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 300);
        let n = std::io::Read::read(&mut r, &mut buf).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 300 + n as u64);
    }

    #[test]
    fn windowed_stream_clips_and_stops() {
        let events: Vec<PhyEvent> = [10u64, 20, 30, 40, 50].iter().map(|&t| ev(t)).collect();
        let inner = MemoryStream::new(meta(), events);
        let mut w = WindowedStream::new(meta(), Some(inner), 20, 40);
        let mut got = Vec::new();
        while let Some(e) = w.next_event().unwrap() {
            got.push(e.ts_local);
        }
        // Inclusive on both local bounds; 10 skipped, 50 never surfaced.
        assert_eq!(got, vec![20, 30, 40]);
        // Exhausted stays exhausted.
        assert!(w.next_event().unwrap().is_none());

        // A window past the trace: no inner stream, immediately empty.
        let mut empty = WindowedStream::<MemoryStream>::new(meta(), None, 0, 100);
        assert_eq!(empty.meta().radio, RadioId(0));
        assert!(empty.next_event().unwrap().is_none());
    }
}
