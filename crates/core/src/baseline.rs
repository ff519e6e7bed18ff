//! Baseline mergers the benchmarks compare Jigsaw against.
//!
//! * [`naive_merge`] — a `mergecap`-style merge: interleave all traces by
//!   their **raw local timestamps** and group identical frames that land
//!   within a window. With free-running radio clocks (offsets of hours),
//!   duplicates never line up: the output is bloated, misordered, and
//!   useless for timing analysis. This is the tool the paper's introduction
//!   implicitly argues against.
//!
//! The other baseline, a Yeo-et-al.-style merge — synchronize once from
//! reference frames (beacons) at the start, then trust the clocks, with no
//! continuous resynchronization and no skew/drift management — is not a
//! separate merger: it is [`Pipeline::merge_only`](crate::pipeline::Pipeline::merge_only)
//! with [`MergeConfig::resync_enabled`](crate::unify::MergeConfig::resync_enabled)
//! off. Fine for three radios and short traces; the paper's §4.2 explains
//! why it degrades at building scale.

use crate::jframe::JFrame;
use jigsaw_trace::format::FormatError;
use jigsaw_trace::stream::EventStream;
use jigsaw_trace::PhyEvent;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of a baseline merge.
#[derive(Debug, Default)]
pub struct BaselineStats {
    /// Events consumed.
    pub events_in: u64,
    /// "jframes" produced.
    pub jframes_out: u64,
    /// Events that actually unified with a duplicate.
    pub instances_unified: u64,
}

/// mergecap-style merge: k-way interleave on raw local timestamps, grouping
/// byte-identical events within `window_us` of each other.
pub fn naive_merge<S: EventStream>(
    mut streams: Vec<S>,
    window_us: u64,
    mut sink: impl FnMut(&JFrame),
) -> Result<BaselineStats, FormatError> {
    let mut stats = BaselineStats::default();
    // K-way merge by raw ts_local.
    let mut heads: Vec<Option<PhyEvent>> = Vec::with_capacity(streams.len());
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, s) in streams.iter_mut().enumerate() {
        let ev = s.next_event()?;
        if let Some(e) = &ev {
            heap.push(Reverse((e.ts_local, i)));
        }
        heads.push(ev);
    }
    // Sliding group of recent events (within window of the newest).
    let mut group: Vec<PhyEvent> = Vec::new();

    let flush_group =
        |group: &mut Vec<PhyEvent>, stats: &mut BaselineStats, sink: &mut dyn FnMut(&JFrame)| {
            // Group identical contents.
            let mut used = vec![false; group.len()];
            for i in 0..group.len() {
                if used[i] {
                    continue;
                }
                let mut members = vec![i];
                for j in (i + 1)..group.len() {
                    if !used[j]
                        && group[j].bytes == group[i].bytes
                        && group[j].wire_len == group[i].wire_len
                        && group[j].rate == group[i].rate
                    {
                        used[j] = true;
                        members.push(j);
                    }
                }
                used[i] = true;
                if members.len() > 1 {
                    stats.instances_unified += members.len() as u64;
                }
                let rep = &group[members[0]];
                let instances = members
                    .iter()
                    .map(|&k| {
                        let e = &group[k];
                        crate::jframe::Instance {
                            radio: e.radio,
                            ts_local: e.ts_local,
                            ts_universal: e.ts_local, // no sync: local IS "universal"
                            rssi_dbm: e.rssi_dbm,
                            status: e.status,
                        }
                    })
                    .collect::<crate::jframe::Instances>();
                let min = instances.iter().map(|i| i.ts_universal).min().unwrap_or(0);
                let max = instances.iter().map(|i| i.ts_universal).max().unwrap_or(0);
                stats.jframes_out += 1;
                sink(&JFrame {
                    ts: rep.ts_local,
                    bytes: rep.bytes.handle(),
                    wire_len: rep.wire_len,
                    rate: rep.rate,
                    channel: rep.channel,
                    instances,
                    dispersion: max - min,
                    valid: rep.status == jigsaw_trace::PhyStatus::Ok,
                    unique: false,
                });
            }
            group.clear();
        };

    while let Some(Reverse((ts, i))) = heap.pop() {
        let ev = heads[i].take().expect("head present");
        debug_assert_eq!(ev.ts_local, ts);
        heads[i] = streams[i].next_event()?;
        if let Some(e) = &heads[i] {
            heap.push(Reverse((e.ts_local, i)));
        }
        stats.events_in += 1;
        if let Some(first) = group.first() {
            if ts.saturating_sub(first.ts_local) > window_us {
                flush_group(&mut group, &mut stats, &mut sink);
            }
        }
        group.push(ev);
    }
    flush_group(&mut group, &mut stats, &mut sink);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crate::unify::MergeConfig;
    use jigsaw_ieee80211::fc::FcFlags;
    use jigsaw_ieee80211::frame::{DataFrame, Frame};
    use jigsaw_ieee80211::wire::serialize_frame;
    use jigsaw_ieee80211::{Channel, MacAddr, PhyRate, SeqNum};
    use jigsaw_trace::stream::MemoryStream;
    use jigsaw_trace::{MonitorId, PhyStatus, RadioId, RadioMeta};

    fn meta(radio: u16, anchor_local: u64) -> RadioMeta {
        RadioMeta {
            radio: RadioId(radio),
            monitor: MonitorId(radio),
            channel: Channel::of(1),
            anchor_wall_us: 0,
            anchor_local_us: anchor_local,
        }
    }

    fn frame_bytes(seq: u16) -> Vec<u8> {
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
            body: vec![seq as u8; 40],
        }))
    }

    fn ev(radio: u16, ts: u64, bytes: Vec<u8>) -> PhyEvent {
        let wire_len = bytes.len() as u32;
        PhyEvent {
            radio: RadioId(radio),
            ts_local: ts,
            channel: Channel::of(1),
            rate: PhyRate::R11,
            rssi_dbm: -50,
            status: PhyStatus::Ok,
            wire_len,
            bytes: bytes.into(),
        }
    }

    #[test]
    fn naive_merge_unifies_only_aligned_clocks() {
        let f = frame_bytes(1);
        // Aligned clocks: naive merge works.
        let s0 = MemoryStream::new(meta(0, 0), vec![ev(0, 1000, f.clone())]);
        let s1 = MemoryStream::new(meta(1, 0), vec![ev(1, 1004, f.clone())]);
        let mut n = 0;
        let stats = naive_merge(vec![s0, s1], 10_000, |_| n += 1).unwrap();
        assert_eq!(stats.jframes_out, 1);
        assert_eq!(stats.instances_unified, 2);

        // Offset clocks (the real world): duplicates never meet.
        let s0 = MemoryStream::new(meta(0, 0), vec![ev(0, 1000, f.clone())]);
        let s1 = MemoryStream::new(meta(1, 0), vec![ev(1, 3_601_004, f)]);
        let stats = naive_merge(vec![s0, s1], 10_000, |_| {}).unwrap();
        assert_eq!(stats.jframes_out, 2, "naive merge must fail to unify");
        assert_eq!(stats.instances_unified, 0);
    }

    #[test]
    fn yeo_merge_syncs_but_never_resyncs() {
        // Both radios share a reference frame in the first second, then
        // radio 1 drifts. Yeo-style is the ordinary merge with resync off.
        let fa = frame_bytes(1);
        let mut ev0 = vec![ev(0, 100, fa.clone())];
        let mut ev1 = vec![ev(1, 700_100, fa)];
        for k in 1..100u64 {
            let f = frame_bytes((k % 4000) as u16);
            let t = 100 + k * 50_000;
            ev0.push(ev(0, t, f.clone()));
            // +100 ppm drift on radio 1.
            ev1.push(ev(1, t + 700_000 + k * 5, f));
        }
        let s0 = MemoryStream::new(meta(0, 0), ev0);
        let s1 = MemoryStream::new(meta(1, 700_000), ev1);
        let cfg = PipelineConfig {
            merge: MergeConfig {
                resync_enabled: false,
                ..MergeConfig::default()
            },
            ..PipelineConfig::default()
        };
        let (boot, stats) = Pipeline::merge_only(vec![s0, s1], &cfg, ()).unwrap();
        assert_eq!(boot.components, 1);
        assert_eq!(stats.resyncs, 0);
        // Everything still unifies (drift < merge gap over this short run),
        // but dispersion grows unboundedly — measured by the bench harness.
        assert!(stats.jframes_out <= 100 + 1);
    }
}
