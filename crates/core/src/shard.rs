//! Channel-sharded unification: the merge stage of the one pipeline
//! driver ([`crate::pipeline::Pipeline`]), whose shard layout is
//! configuration ([`ShardConfig`]) rather than a second code path.
//!
//! A single [`Merger`] is the pipeline's bottleneck
//! by construction: one priority queue serializes every radio, even though
//! radios tuned to different channels can never capture the same
//! transmission and therefore never contribute instances to the same
//! jframe. Enterprise deployments pair radios on the orthogonal channels
//! 1/6/11 (the paper's pods do exactly this), so the merge decomposes
//! perfectly by channel:
//!
//! 1. **Partition** the per-radio streams by [`jigsaw_trace::RadioMeta::channel`]
//!    (`jigsaw_trace::stream::partition_by_channel`), carrying each radio's
//!    bootstrap offset and seed prefix along with its stream.
//! 2. **Merge per shard**: each shard — one or more whole channels — runs
//!    an ordinary `Merger` on its own `std::thread`, streaming jframes out
//!    through a *bounded* mpsc channel in small batches. The bound gives
//!    backpressure: a fast shard blocks rather than buffering unbounded
//!    output while a slow shard catches up.
//! 3. **K-way merge** the per-shard jframe streams back into one stream
//!    ordered by `(ts, channel, emission order)` — exactly the order the
//!    serial merger emits, so downstream stages (attempt/exchange/transport
//!    reconstruction) are byte-for-byte oblivious to the parallelism.
//!
//! # Equivalence with the serial merger
//!
//! Unification never crosses channels (grouping is keyed by the radio's
//! tuned [`jigsaw_trace::RadioMeta::channel`] — the very key `partition_by_channel`
//! shards by, so the two layers can never disagree; see [`crate::unify`]),
//! clock corrections only ever touch radios inside the
//! group that triggered them, and each shard keeps its radios in the same
//! relative order they had in the full stream table — so every shard forms
//! exactly the groups the serial merger would form, applies the same
//! corrections in the same per-channel order, and emits the same jframes.
//! The K-way merge restores the serial total order. A property test
//! (`crates/core/tests/merge_properties.rs`) and the `repro smoke`
//! serial-vs-parallel equivalence check in CI pin this down.
//!
//! # Degenerate cases
//!
//! * **Single channel** (or `max_threads = 1`, the default): everything
//!   lands in one shard, which runs the serial `Merger` inline on the
//!   caller's thread — no threads, no channels, no behavioral difference
//!   from [`Merger::run`]. This *is* the serial driver.
//! * **More channels than threads**: channels are assigned round-robin to
//!   shards; a multi-channel shard is still correct because the `Merger`
//!   itself is channel-aware.
//!
//! Per-shard NUMA/affinity placement is an open experiment (see
//! `ROADMAP.md`): shards share nothing but the output channel, so pinning
//! them to cores/nodes is straightforward.

use crate::jframe::JFrame;
use crate::unify::{MergeConfig, MergeStats, Merger};
use jigsaw_trace::format::FormatError;
use jigsaw_trace::stream::{partition_by_channel, EventStream};
use jigsaw_trace::PhyEvent;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

/// Jframes per mpsc message: amortizes channel synchronization without
/// adding meaningful latency (jframes are merged, not displayed).
const BATCH: usize = 64;

/// Bounded queue depth per shard, in batches — the backpressure window.
/// With [`BATCH`] it bounds cross-thread buffering: at most
/// `BATCH × (QUEUE_BATCHES + 2)` jframes per shard are in flight (queue +
/// one being filled + one being drained), independent of how long the
/// input traces are. Per-shard *merger* residency is tracked separately in
/// [`MergeStats::peak_buffered`](crate::unify::MergeStats).
const QUEUE_BATCHES: usize = 8;

/// How the channel-sharded merge is laid out.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Maximum merge threads (= shards). `1` (the default) is the serial
    /// inline path; `0` means one shard per distinct channel, capped at the
    /// machine's available parallelism. The default never consults the
    /// machine, so a `PipelineConfig::default()` run is the same everywhere.
    pub max_threads: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { max_threads: 1 }
    }
}

impl ShardConfig {
    /// Number of shards to run for `distinct_channels` channels.
    pub fn shards_for(&self, distinct_channels: usize) -> usize {
        let cap = if self.max_threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.max_threads
        };
        distinct_channels.min(cap).max(1)
    }
}

/// Runs the channel-sharded merge to completion, streaming the globally
/// ordered jframes to `sink` on the calling thread.
///
/// `offsets[i]`, `seeds[i]` and `clock_refs[i]` belong to `streams[i]`
/// (the same contract as [`Merger::new_at`] + [`Merger::seed_pending`]);
/// pass an empty `seeds` when no bootstrap prefix needs re-injecting and
/// an empty `clock_refs` for clocks referenced at local time 0. Returns
/// the summed [`MergeStats`] of every shard.
pub fn run_sharded<S>(
    streams: Vec<S>,
    offsets: &[i64],
    mut seeds: Vec<Vec<PhyEvent>>,
    clock_refs: &[u64],
    merge_cfg: &MergeConfig,
    cfg: &ShardConfig,
    mut sink: impl FnMut(JFrame),
) -> Result<MergeStats, FormatError>
where
    S: EventStream + Send + 'static,
{
    assert_eq!(streams.len(), offsets.len(), "one offset per stream");
    if seeds.is_empty() {
        seeds = streams.iter().map(|_| Vec::new()).collect();
    }
    assert_eq!(streams.len(), seeds.len(), "one seed prefix per stream");
    assert!(
        clock_refs.is_empty() || clock_refs.len() == streams.len(),
        "one clock reference per stream (or none)"
    );
    if streams.is_empty() {
        return Ok(MergeStats::default());
    }

    let groups = partition_by_channel(streams);
    let n_shards = cfg.shards_for(groups.len());

    // Channels round-robin onto shards; members keep their original
    // relative order (equal-timestamp tie-breaking depends on it).
    let mut shards: Vec<Vec<(usize, S)>> = (0..n_shards).map(|_| Vec::new()).collect();
    for (gi, g) in groups.into_iter().enumerate() {
        shards[gi % n_shards].extend(g.members);
    }

    // One shard's merger over its members, with their offsets and seeds.
    let mut shard_merger = |members: Vec<(usize, S)>| {
        let (idx, shard_streams): (Vec<usize>, Vec<S>) = members.into_iter().unzip();
        let shard_offsets: Vec<i64> = idx.iter().map(|&i| offsets[i]).collect();
        let shard_refs: Vec<u64> = idx
            .iter()
            .map(|&i| clock_refs.get(i).copied().unwrap_or(0))
            .collect();
        let mut merger = Merger::new_at(
            shard_streams,
            &shard_offsets,
            &shard_refs,
            merge_cfg.clone(),
        );
        for (r, &i) in idx.iter().enumerate() {
            merger.seed_pending(r, std::mem::take(&mut seeds[i]));
        }
        merger
    };

    if n_shards == 1 {
        // Degenerate path: one shard ≡ the serial merger, run inline.
        return shard_merger(shards.pop().expect("one shard")).run(sink);
    }

    // Raised by a shard that fails, checked by everyone: the consumer
    // stops sinking (mirroring the serial merger, which stops at the
    // error) and the healthy shards stop sending.
    let poison = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::with_capacity(n_shards);
    let mut cursors = Vec::with_capacity(n_shards);
    for members in shards {
        let merger = shard_merger(members);
        let (tx, rx) = mpsc::sync_channel::<Vec<JFrame>>(QUEUE_BATCHES);
        let poison = Arc::clone(&poison);
        let handle = std::thread::spawn(move || -> Result<MergeStats, FormatError> {
            let mut batch = Vec::with_capacity(BATCH);
            // If the receiver hangs up or another shard fails, stop
            // sending and let the merge run dry instead of panicking.
            let mut hung_up = false;
            let result = merger.run(|jf| {
                if hung_up {
                    return;
                }
                if poison.load(Ordering::Relaxed) {
                    hung_up = true;
                    return;
                }
                batch.push(jf);
                if batch.len() >= BATCH && tx.send(std::mem::take(&mut batch)).is_err() {
                    hung_up = true;
                }
            });
            match result {
                Ok(stats) => {
                    if !hung_up && !batch.is_empty() {
                        let _ = tx.send(batch);
                    }
                    Ok(stats)
                }
                Err(e) => {
                    poison.store(true, Ordering::Relaxed);
                    Err(e)
                }
            }
        });
        handles.push(handle);
        cursors.push(ShardCursor {
            rx,
            buf: VecDeque::new(),
            done: false,
        });
    }

    // K-way merge: one head per shard, keyed (ts, channel, shard). Channels
    // never span shards, so equal-(ts, channel) ties cannot occur across
    // shards; within a shard the stream already carries the serial order.
    let mut heap: BinaryHeap<Reverse<(u64, u8, usize)>> = BinaryHeap::new();
    for (i, c) in cursors.iter_mut().enumerate() {
        c.refill();
        if let Some(jf) = c.buf.front() {
            heap.push(Reverse((jf.ts, jf.channel.number(), i)));
        }
    }
    while let Some(Reverse((_, _, i))) = heap.pop() {
        if poison.load(Ordering::Relaxed) {
            break; // a shard failed: stop sinking, surface the error below
        }
        let jf = cursors[i].buf.pop_front().expect("head present");
        sink(jf);
        cursors[i].refill();
        if let Some(next) = cursors[i].buf.front() {
            heap.push(Reverse((next.ts, next.channel.number(), i)));
        }
    }

    // Disconnect the receivers before joining so producers blocked on a
    // full queue wake up and wind down (only possible on the poison path).
    drop(cursors);
    let mut stats = MergeStats::default();
    let mut first_err = None;
    for h in handles {
        match h.join().expect("shard thread panicked") {
            Ok(s) => stats.absorb(&s),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

struct ShardCursor {
    rx: mpsc::Receiver<Vec<JFrame>>,
    buf: VecDeque<JFrame>,
    done: bool,
}

impl ShardCursor {
    /// Blocks for the next batch when the buffer runs dry; marks the shard
    /// done when its sender disconnects (merge finished or failed).
    fn refill(&mut self) {
        while self.buf.is_empty() && !self.done {
            match self.rx.recv() {
                Ok(batch) => self.buf = batch.into(),
                Err(_) => self.done = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::fc::FcFlags;
    use jigsaw_ieee80211::frame::{DataFrame, Frame};
    use jigsaw_ieee80211::wire::serialize_frame;
    use jigsaw_ieee80211::{Channel, MacAddr, PhyRate, SeqNum};
    use jigsaw_trace::stream::MemoryStream;
    use jigsaw_trace::{MonitorId, PhyStatus, RadioId, RadioMeta};

    fn meta(radio: u16, chan: u8) -> RadioMeta {
        RadioMeta {
            radio: RadioId(radio),
            monitor: MonitorId(radio / 2),
            channel: Channel::of(chan),
            anchor_wall_us: 0,
            anchor_local_us: 0,
        }
    }

    fn frame_bytes(seq: u16, body: u8) -> Vec<u8> {
        serialize_frame(&Frame::Data(DataFrame {
            duration: 44,
            addr1: MacAddr::local(1, 1),
            addr2: MacAddr::local(2, 2),
            addr3: MacAddr::local(3, 3),
            seq: SeqNum::new(seq),
            frag: 0,
            flags: FcFlags {
                to_ds: true,
                ..Default::default()
            },
            null: false,
            body: vec![body; 48],
        }))
    }

    fn ev(radio: u16, ts: u64, chan: u8, bytes: Vec<u8>) -> PhyEvent {
        let wire_len = bytes.len() as u32;
        PhyEvent {
            radio: RadioId(radio),
            ts_local: ts,
            channel: Channel::of(chan),
            rate: PhyRate::R11,
            rssi_dbm: -55,
            status: PhyStatus::Ok,
            wire_len,
            bytes: bytes.into(),
        }
    }

    /// Two radios per channel on 1/6/11; every channel carries its own
    /// traffic. Streams built twice (MemoryStream is not Clone).
    fn three_channel_streams() -> Vec<MemoryStream> {
        let chans = [1u8, 6, 1, 6, 11, 11];
        let mut per_radio: Vec<Vec<PhyEvent>> = vec![Vec::new(); chans.len()];
        // 200 jframes per channel: several batches per shard, so the
        // consumer refills from its queue mid-stream.
        for k in 0..200u64 {
            for (ci, &c) in [1u8, 6, 11].iter().enumerate() {
                let t = 2_000 + k * 2_500 + ci as u64 * 13;
                let bytes = frame_bytes((k % 4000) as u16, c);
                for (r, &rc) in chans.iter().enumerate() {
                    if rc == c {
                        per_radio[r].push(ev(r as u16, t + r as u64 % 3, c, bytes.clone()));
                    }
                }
            }
        }
        per_radio
            .into_iter()
            .enumerate()
            .map(|(r, evs)| MemoryStream::new(meta(r as u16, chans[r]), evs))
            .collect()
    }

    fn keys(out: &[JFrame]) -> Vec<(u64, u8, Vec<u8>, Vec<u16>)> {
        out.iter()
            .map(|j| {
                (
                    j.ts,
                    j.channel.number(),
                    j.bytes.to_vec(),
                    j.instances.iter().map(|i| i.radio.0).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_equals_serial_across_thread_counts() {
        let serial = {
            let merger = Merger::new(three_channel_streams(), &[0; 6], MergeConfig::default());
            let mut out = Vec::new();
            merger.run(|jf| out.push(jf)).unwrap();
            out
        };
        assert_eq!(serial.len(), 600);
        for threads in [1usize, 2, 3, 5] {
            let cfg = ShardConfig {
                max_threads: threads,
            };
            let mut out = Vec::new();
            let stats = run_sharded(
                three_channel_streams(),
                &[0; 6],
                Vec::new(),
                &[],
                &MergeConfig::default(),
                &cfg,
                |jf| out.push(jf),
            )
            .unwrap();
            assert_eq!(stats.jframes_out, serial.len() as u64, "threads={threads}");
            assert_eq!(keys(&out), keys(&serial), "threads={threads}");
            assert!(stats.peak_buffered > 0, "shard peaks must be absorbed");
        }
    }

    #[test]
    fn sharded_respects_seed_prefixes() {
        // Events already pulled for bootstrap are re-injected per radio.
        let f = frame_bytes(1, 1);
        let s0 = MemoryStream::new(meta(0, 1), vec![ev(0, 9_000, 1, f.clone())]);
        let s1 = MemoryStream::new(meta(1, 6), Vec::new());
        let seeds = vec![vec![ev(0, 1_000, 1, f.clone())], vec![ev(1, 1_003, 6, f)]];
        let mut out = Vec::new();
        let stats = run_sharded(
            vec![s0, s1],
            &[0, 0],
            seeds,
            &[],
            &MergeConfig::default(),
            &ShardConfig { max_threads: 2 },
            |jf| out.push(jf),
        )
        .unwrap();
        assert_eq!(stats.events_in, 3);
        assert_eq!(out.len(), 3); // ch1@1000, ch6@1003 (distinct channels!), ch1@9000
        assert_eq!(out[0].ts, 1_000);
        assert_eq!(out[1].ts, 1_003);
        assert_eq!(out[2].ts, 9_000);
    }

    /// Channel identity is the radio's *tuned* channel, never the
    /// per-event tag: an event mistagged with another channel (a malformed
    /// trace, say) must not make serial and sharded output diverge —
    /// sharding partitions whole streams, so the merge must key on the
    /// same per-radio channel.
    #[test]
    fn mistagged_event_channel_cannot_break_equivalence() {
        let f = frame_bytes(3, 9);
        let build = || {
            // Radio 0 is tuned to channel 1 but its event is tagged ch6;
            // radio 1 (ch6) hears identical bytes at the same instant.
            let mut e0 = ev(0, 1_000, 6, f.clone());
            e0.radio = RadioId(0);
            vec![
                MemoryStream::new(meta(0, 1), vec![e0.clone()]),
                MemoryStream::new(meta(1, 6), vec![ev(1, 1_002, 6, f.clone())]),
            ]
        };
        let mut serial = Vec::new();
        Merger::new(build(), &[0, 0], MergeConfig::default())
            .run(|jf| serial.push(jf))
            .unwrap();
        let mut sharded = Vec::new();
        run_sharded(
            build(),
            &[0, 0],
            Vec::new(),
            &[],
            &MergeConfig::default(),
            &ShardConfig { max_threads: 2 },
            |jf| sharded.push(jf),
        )
        .unwrap();
        // Tuned channels differ → two jframes, at both layouts.
        assert_eq!(serial.len(), 2);
        assert_eq!(keys(&sharded), keys(&serial));
        assert_eq!(serial[0].channel, Channel::of(1));
        assert_eq!(serial[1].channel, Channel::of(6));
    }

    /// A stream that yields a few events, then a decode error — the shape
    /// of a truncated/corrupt on-disk trace.
    struct FailingStream {
        inner: MemoryStream,
    }

    impl jigsaw_trace::stream::EventStream for FailingStream {
        fn meta(&self) -> RadioMeta {
            self.inner.meta()
        }
        fn next_event(&mut self) -> Result<Option<PhyEvent>, FormatError> {
            match self.inner.next_event()? {
                Some(ev) => Ok(Some(ev)),
                None => Err(FormatError::BadRecord("truncated trace")),
            }
        }
    }

    /// One shard failing mid-merge must surface the error (and terminate)
    /// rather than silently completing on the healthy channels.
    #[test]
    fn shard_error_propagates_and_terminates() {
        let f = frame_bytes(2, 5);
        let mut bad_events = Vec::new();
        let mut good_events = Vec::new();
        // One jframe per event, 2,000 per shard: three times the
        // `BATCH × (QUEUE_BATCHES + 2)` a shard can have in flight, so a
        // producer still blocks on a full queue before the failure.
        for k in 0..2_000u64 {
            bad_events.push(ev(
                0,
                1_000 + k * 2_000,
                1,
                frame_bytes((k % 4000) as u16, 1),
            ));
            good_events.push(ev(1, 1_000 + k * 2_000, 6, f.clone()));
        }
        let bad = FailingStream {
            inner: MemoryStream::new(meta(0, 1), bad_events),
        };
        let good = FailingStream {
            // The "good" stream also errors at the end — both shards fail,
            // proving termination does not rely on one staying healthy.
            inner: MemoryStream::new(meta(1, 6), good_events),
        };
        let err = run_sharded(
            vec![bad, good],
            &[0, 0],
            Vec::new(),
            &[],
            &MergeConfig::default(),
            &ShardConfig { max_threads: 2 },
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, FormatError::BadRecord(_)), "{err:?}");
    }

    #[test]
    fn empty_input_is_fine() {
        let stats = run_sharded(
            Vec::<MemoryStream>::new(),
            &[],
            Vec::new(),
            &[],
            &MergeConfig::default(),
            &ShardConfig::default(),
            |_| {},
        )
        .unwrap();
        assert_eq!(stats.jframes_out, 0);
    }

    #[test]
    fn shard_count_planning() {
        let cfg = ShardConfig { max_threads: 4 };
        assert_eq!(cfg.shards_for(3), 3);
        assert_eq!(cfg.shards_for(9), 4);
        assert_eq!(cfg.shards_for(1), 1);
        // The default is serial — it never consults the machine.
        assert_eq!(ShardConfig::default().shards_for(3), 1);
    }
}
