//! Property-based tests on the merger's invariants: whatever the clock
//! pathology and traffic pattern, unification must neither lose nor
//! duplicate events, never put one radio twice into a jframe, and keep the
//! output ordered.

use jigsaw_core::shard::{run_sharded, ShardConfig};
use jigsaw_core::unify::{MergeConfig, Merger};
use jigsaw_ieee80211::fc::FcFlags;
use jigsaw_ieee80211::frame::{DataFrame, Frame};
use jigsaw_ieee80211::wire::serialize_frame;
use jigsaw_ieee80211::{Channel, MacAddr, PhyRate, SeqNum};
use jigsaw_trace::stream::MemoryStream;
use jigsaw_trace::{MonitorId, PhyEvent, PhyStatus, RadioId, RadioMeta};
use proptest::prelude::*;
use std::collections::HashSet;

fn meta(radio: u16) -> RadioMeta {
    RadioMeta {
        radio: RadioId(radio),
        monitor: MonitorId(radio / 2),
        channel: Channel::of(1),
        anchor_wall_us: 0,
        anchor_local_us: 0,
    }
}

fn meta_on(radio: u16, chan: u8) -> RadioMeta {
    RadioMeta {
        channel: Channel::of(chan),
        ..meta(radio)
    }
}

fn frame_bytes(seq: u16, body: u8, len: usize) -> Vec<u8> {
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
        body: vec![body; len],
    }))
}

fn ev(radio: u16, ts: u64, bytes: Vec<u8>) -> PhyEvent {
    let wire_len = bytes.len() as u32;
    PhyEvent {
        radio: RadioId(radio),
        ts_local: ts,
        channel: Channel::of(1),
        rate: PhyRate::R11,
        rssi_dbm: -55,
        status: PhyStatus::Ok,
        wire_len,
        bytes: bytes.into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// N radios hear a shared transmission schedule through clocks with
    /// arbitrary offsets and jitter; events are conserved, jframes are
    /// radio-unique, and output is time-ordered.
    #[test]
    fn merge_invariants(
        n_radios in 2usize..6,
        n_frames in 1usize..60,
        offsets in proptest::collection::vec(0u64..1_000_000, 6),
        jitters in proptest::collection::vec(0u64..6, 256),
        gap in 2_000u64..50_000,
    ) {
        let mut streams = Vec::new();
        let mut total_events = 0u64;
        for r in 0..n_radios {
            let mut evs = Vec::new();
            for k in 0..n_frames {
                // Every radio hears every frame (full coverage), shifted by
                // its clock offset plus reception jitter.
                let t = 10_000 + k as u64 * gap;
                let j = jitters[(r * n_frames + k) % jitters.len()];
                let bytes = frame_bytes((k % 4000) as u16, (k % 251) as u8, 40 + k % 32);
                evs.push(ev(r as u16, t + offsets[r] + j, bytes));
            }
            evs.sort_by_key(|e| e.ts_local);
            total_events += evs.len() as u64;
            streams.push(MemoryStream::new(meta(r as u16), evs));
        }
        let offs: Vec<i64> = offsets.iter().take(n_radios).map(|&o| o as i64).collect();
        let merger = Merger::new(streams, &offs, MergeConfig::default());
        let mut out = Vec::new();
        let stats = merger.run(|jf| out.push(jf)).unwrap();

        // Conservation: every event ends up in exactly one jframe.
        let out_events: u64 = out.iter().map(|j| j.instance_count() as u64).sum();
        prop_assert_eq!(out_events, total_events);
        prop_assert_eq!(stats.events_in, total_events);

        // Exact unification: with full coverage and sub-window jitter,
        // every frame becomes one jframe with all radios present.
        prop_assert_eq!(out.len(), n_frames);

        for j in &out {
            // No radio appears twice in a jframe.
            let radios: HashSet<_> = j.instances.iter().map(|i| i.radio).collect();
            prop_assert_eq!(radios.len(), j.instance_count());
            // Dispersion bounded by the jitter we injected.
            prop_assert!(j.dispersion <= 16, "dispersion {}", j.dispersion);
            prop_assert!(j.valid);
        }

        // Output ordered by universal timestamp.
        for w in out.windows(2) {
            prop_assert!(w[0].ts <= w[1].ts);
        }
    }

    /// Partial coverage: radios hear random subsets; events are still
    /// conserved and per-jframe radios unique.
    #[test]
    fn merge_partial_coverage(
        n_frames in 1usize..80,
        hear_mask in proptest::collection::vec(0u8..8, 80),
        offset in 0u64..10_000_000,
    ) {
        let n_radios = 3usize;
        let mut per_radio: Vec<Vec<PhyEvent>> = vec![Vec::new(); n_radios];
        let mut total = 0u64;
        for k in 0..n_frames {
            let t = 5_000 + k as u64 * 3_000;
            let mask = hear_mask[k % hear_mask.len()] | 1; // radio 0 hears all
            let bytes = frame_bytes((k % 4000) as u16, k as u8, 48);
            for (r, evs) in per_radio.iter_mut().enumerate() {
                if mask & (1 << r) != 0 {
                    let off = if r == 1 { offset } else { 0 };
                    evs.push(ev(r as u16, t + off + r as u64, bytes.clone()));
                    total += 1;
                }
            }
        }
        let mut streams = Vec::new();
        for (r, evs) in per_radio.into_iter().enumerate() {
            streams.push(MemoryStream::new(meta(r as u16), evs));
        }
        let offs = vec![0i64, offset as i64, 0i64];
        let merger = Merger::new(streams, &offs, MergeConfig::default());
        let mut out = Vec::new();
        merger.run(|jf| out.push(jf)).unwrap();

        let out_events: u64 = out.iter().map(|j| j.instance_count() as u64).sum();
        prop_assert_eq!(out_events, total);
        prop_assert_eq!(out.len(), n_frames);
        for j in &out {
            let radios: HashSet<_> = j.instances.iter().map(|i| i.radio).collect();
            prop_assert_eq!(radios.len(), j.instance_count());
        }
    }

    /// The channel-sharded parallel merge is jframe-for-jframe identical to
    /// the serial merger — same timestamps, bytes, channels, and instance
    /// sets, in the same order — across randomized multi-channel streams
    /// with per-radio clock offsets, reception jitter, partial coverage,
    /// and occasional byte-identical content on different channels.
    #[test]
    fn sharded_merge_equals_serial(
        radios_per_chan in 1usize..3,
        n_frames in 1usize..50,
        offsets in proptest::collection::vec(0u64..50_000_000, 9),
        jitters in proptest::collection::vec(0u64..8, 512),
        hear_mask in proptest::collection::vec(0u8..8, 64),
        gap in 2_000u64..30_000,
        collide_content in proptest::collection::vec(any::<bool>(), 64),
        threads in 1usize..5,
    ) {
        let chans = [1u8, 6, 11];
        let n_radios = radios_per_chan * chans.len();
        // Build the same event schedule twice (MemoryStream is not Clone).
        let build = || {
            let mut per_radio: Vec<Vec<PhyEvent>> = vec![Vec::new(); n_radios];
            for k in 0..n_frames {
                let t = 10_000 + k as u64 * gap;
                // Sometimes the SAME bytes appear on every channel at the
                // same instant (content collision); otherwise content is
                // channel-distinct. Either way channels must not merge.
                let collide = collide_content[k % collide_content.len()];
                for (ci, &c) in chans.iter().enumerate() {
                    let body = if collide { 7u8 } else { c };
                    let bytes = frame_bytes((k % 4000) as u16, body, 40 + k % 24);
                    let mask = hear_mask[(k + ci) % hear_mask.len()] | 1;
                    for rc in 0..radios_per_chan {
                        if mask & (1 << rc) == 0 {
                            continue;
                        }
                        let r = ci * radios_per_chan + rc;
                        let j = jitters[(r * n_frames + k) % jitters.len()];
                        let mut e = ev(r as u16, t + offsets[r] + j, bytes.clone());
                        e.channel = Channel::of(c);
                        per_radio[r].push(e);
                    }
                }
            }
            per_radio
                .into_iter()
                .enumerate()
                .map(|(r, mut evs)| {
                    evs.sort_by_key(|e| e.ts_local);
                    let chan = chans[r / radios_per_chan];
                    MemoryStream::new(meta_on(r as u16, chan), evs)
                })
                .collect::<Vec<MemoryStream>>()
        };
        let offs: Vec<i64> = offsets.iter().take(n_radios).map(|&o| o as i64).collect();

        let mut serial = Vec::new();
        let serial_stats = Merger::new(build(), &offs, MergeConfig::default())
            .run(|jf| serial.push(jf))
            .unwrap();

        let cfg = ShardConfig {
            max_threads: threads,
        };
        let mut sharded = Vec::new();
        let sharded_stats = run_sharded(
            build(),
            &offs,
            Vec::new(),
            &[],
            &MergeConfig::default(),
            &cfg,
            |jf| sharded.push(jf),
        )
        .unwrap();

        prop_assert_eq!(serial_stats.events_in, sharded_stats.events_in);
        prop_assert_eq!(serial_stats.jframes_out, sharded_stats.jframes_out);
        prop_assert_eq!(serial.len(), sharded.len());
        for (a, b) in serial.iter().zip(&sharded) {
            prop_assert_eq!(a.ts, b.ts);
            prop_assert_eq!(&a.bytes, &b.bytes);
            prop_assert_eq!(a.wire_len, b.wire_len);
            prop_assert_eq!(a.channel, b.channel);
            prop_assert_eq!(a.dispersion, b.dispersion);
            let ia: Vec<(u16, u64, u64)> = a
                .instances
                .iter()
                .map(|i| (i.radio.0, i.ts_local, i.ts_universal))
                .collect();
            let ib: Vec<(u16, u64, u64)> = b
                .instances
                .iter()
                .map(|i| (i.radio.0, i.ts_local, i.ts_universal))
                .collect();
            prop_assert_eq!(ia, ib);
        }
        // And no jframe ever mixes channels.
        for j in &serial {
            prop_assert!(j.instance_count() >= 1);
        }
    }
}
