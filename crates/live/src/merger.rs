//! [`LiveMerger`]: the wall-clock pend policy over the pipeline's one
//! steppable driver ([`PipelineRun`]), checked once per step through
//! [`LiveClock`] (crate docs: the watermark/lag contract). No header within
//! [`LiveConfig::max_lag_us`]: the source is dead. A stall inside the
//! bootstrap window: it joins lagging. Pending past `max_lag_us` in the
//! merge: it is lagged ([`PipelineRun::lag`]).

use crate::clock::LiveClock;
use crate::source::{Joined, LiveSource};
use jigsaw_core::pipeline::{PipelineConfig, PipelineError, PipelineReport, PipelineRun};
use jigsaw_core::sync::bootstrap::BootstrapConfig;
use jigsaw_core::unify::{MergeConfig, StreamStatus};
use jigsaw_core::JFrame;
use jigsaw_trace::RadioId;

/// Live-merge configuration.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Offset bootstrap parameters (shared with the batch pipeline).
    pub bootstrap: BootstrapConfig,
    /// Unification parameters (shared with the batch pipeline).
    pub merge: MergeConfig,
    /// Wall-clock silence after which a radio is declared lagging (µs).
    pub max_lag_us: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            bootstrap: BootstrapConfig::default(),
            merge: MergeConfig::default(),
            max_lag_us: 2_000_000,
        }
    }
}

/// Where a source stands in the liveness state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// Delivering events; holds the safe horizon back.
    Live,
    /// Silent past `max_lag_us`; holds nothing back, re-admits on catch-up.
    Lagging,
    /// Producer finished cleanly.
    Ended,
    /// Never produced a decodable header; excluded from the merge.
    Dead,
}

/// Per-source outcome in the final report.
#[derive(Debug, Clone)]
pub struct SourceReport {
    /// The radio, once its header decoded.
    pub radio: Option<RadioId>,
    /// Events delivered (including any later dropped as late).
    pub events: u64,
    /// Catch-up events discarded below the already-emitted horizon.
    pub late_dropped: u64,
    /// Whether the radio was ever declared lagging.
    pub lagged: bool,
    /// Final status.
    pub status: SourceStatus,
}

/// A completed live merge: the run's report (merge, per-radio delivery,
/// emission lag), which it derefs to, plus per-source liveness.
#[derive(Debug)]
pub struct LiveReport {
    /// The run's report.
    pub pipeline: PipelineReport,
    /// Per-source liveness outcomes, in `add_source` order.
    pub sources: Vec<SourceReport>,
    /// Always 0: nothing re-anchors clocks. Kept only for the benchmark's
    /// `live.reanchors` metric (`benchmark/src/bin/jigtrace.rs`).
    pub reanchors: u64,
}

impl std::ops::Deref for LiveReport {
    type Target = PipelineReport;

    fn deref(&self) -> &PipelineReport {
        &self.pipeline
    }
}

/// Where a source is on its way into the run.
enum Slot<S> {
    /// No header yet, waiting since this clock reading.
    Unjoined(S, u64),
    /// Header known: joins the run once every source has one.
    Joined(Joined<S>),
    /// The run's radio at this index.
    Radio(usize),
    /// Ended, or dead, without a header.
    Headerless(SourceStatus),
}

/// The always-on unification service: its [`LiveSource`]s are the streams,
/// which can pend, of a merge-only [`PipelineRun`] that starts once every
/// source has a header or is dead. Drive it with [`LiveMerger::step`], then
/// [`LiveMerger::finish`]; or [`LiveMerger::run`] it to the sources' end.
pub struct LiveMerger<S, C> {
    cfg: LiveConfig,
    clock: C,
    slots: Vec<Slot<S>>,
    run: Option<PipelineRun<Joined<S>, ()>>,
    /// Per radio: the clock reading and delivery count at its last progress.
    progress: Vec<(u64, u64)>,
}

impl<S: LiveSource + Send + 'static, C: LiveClock> LiveMerger<S, C> {
    /// A live merger with no sources yet.
    pub fn new(cfg: LiveConfig, clock: C) -> Self {
        LiveMerger {
            cfg,
            clock,
            slots: Vec::new(),
            run: None,
            progress: Vec::new(),
        }
    }

    /// Registers a radio; panics once the run has started.
    pub fn add_source(&mut self, src: S) {
        assert!(self.run.is_none(), "add_source after the run started");
        self.slots.push(Slot::Unjoined(src, self.clock.now_us()));
    }

    /// True once offsets are bootstrapped and the merge is streaming.
    pub fn is_streaming(&self) -> bool {
        self.run.as_ref().is_some_and(PipelineRun::is_streaming)
    }

    /// The safe horizon (µs): all older than `safe − 2×search_window` left.
    pub fn safe_horizon(&self) -> u64 {
        self.run.as_ref().map_or(0, PipelineRun::horizon)
    }

    /// Where source `k` (in `add_source` order) stands; panics past the last.
    pub fn source_status(&self, k: usize) -> SourceStatus {
        match (&self.slots[k], &self.run) {
            (&Slot::Radio(r), Some(run)) => match run.status(r) {
                StreamStatus::Live => SourceStatus::Live,
                StreamStatus::Lagging => SourceStatus::Lagging,
                StreamStatus::Ended => SourceStatus::Ended,
            },
            (Slot::Headerless(status), _) => *status,
            _ => SourceStatus::Live,
        }
    }

    /// One round: join what has a header, step the run, apply the stall
    /// rule. `true` while any source is open (live or lagging) — then finish.
    pub fn step(&mut self, sink: &mut impl FnMut(JFrame)) -> Result<bool, PipelineError> {
        let now = self.clock.now_us();
        if !self.join(now, false)? {
            return Ok(true);
        }
        let run = self.run.as_mut().expect("joined");
        let open = run.step(sink)?;
        // Silence counts only while a radio waits on its producer and has
        // delivered nothing since it was last seen.
        for (r, (last, seen)) in self.progress.iter_mut().enumerate() {
            if run.delivered(r) > *seen || !run.is_pending(r) {
                (*last, *seen) = (now, run.delivered(r));
            } else if now.saturating_sub(*last) > self.cfg.max_lag_us {
                run.lag(r);
            }
        }
        Ok(open)
    }

    /// Steps until every source has ended, then finishes.
    pub fn run(mut self, mut sink: impl FnMut(JFrame)) -> Result<LiveReport, PipelineError> {
        while self.step(&mut sink)? {}
        self.finish(sink)
    }

    /// Ends every source (one still without a header ends headerless) —
    /// what has not arrived by now never will — drains the merge, reports.
    pub fn finish(mut self, sink: impl FnMut(JFrame)) -> Result<LiveReport, PipelineError> {
        self.join(self.clock.now_us(), true)?;
        let pipeline = self.run.take().expect("started").finish(sink)?;
        let sources = self.slots.iter().map(|slot| {
            let (radio, status) = match *slot {
                Slot::Radio(r) => (Some(pipeline.radios[r]), SourceStatus::Ended),
                Slot::Headerless(status) => (None, status),
                _ => unreachable!("the run started"),
            };
            SourceReport {
                radio: radio.map(|r| r.radio),
                events: radio.map_or(0, |r| r.events),
                late_dropped: radio.map_or(0, |r| r.late_dropped),
                lagged: radio.is_some_and(|r| r.lagged),
                status,
            }
        });
        Ok(LiveReport {
            sources: sources.collect(),
            pipeline,
            reanchors: 0,
        })
    }

    /// Joins every source whose header has arrived, and marks one still
    /// without a header past `max_lag_us` dead — or, `ending`, ended. Once
    /// none waits, starts the run over the joined ones; returns whether the
    /// run has started.
    fn join(&mut self, now: u64, ending: bool) -> Result<bool, PipelineError> {
        if self.run.is_some() {
            return Ok(true);
        }
        let max_lag = self.cfg.max_lag_us;
        for slot in std::mem::take(&mut self.slots) {
            let slot = match slot {
                Slot::Unjoined(src, since) => match Joined::join(src)? {
                    Ok(joined) => Slot::Joined(joined),
                    Err((_, true)) => Slot::Headerless(SourceStatus::Ended),
                    Err(_) if now.saturating_sub(since) > max_lag => {
                        Slot::Headerless(SourceStatus::Dead)
                    }
                    Err(_) if ending => Slot::Headerless(SourceStatus::Ended),
                    Err((src, false)) => Slot::Unjoined(src, since),
                },
                other => other,
            };
            self.slots.push(slot);
        }
        if self.slots.iter().any(|s| matches!(s, Slot::Unjoined(..))) {
            return Ok(false);
        }
        let mut joined = Vec::new();
        for slot in &mut self.slots {
            if let Slot::Joined(_) = slot {
                if let Slot::Joined(j) = std::mem::replace(slot, Slot::Radio(joined.len())) {
                    joined.push(j);
                }
            }
        }
        self.progress = vec![(now, 0); joined.len()];
        let cfg = PipelineConfig {
            bootstrap: self.cfg.bootstrap.clone(),
            merge: self.cfg.merge.clone(),
            ..PipelineConfig::default()
        };
        self.run = Some(PipelineRun::open(joined, &cfg, None)?);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::source::{ChannelSource, LiveSender, SendOutcome};
    use jigsaw_core::pipeline::Pipeline;
    use jigsaw_core::unify::MergeStats;
    use jigsaw_core::OnJFrame;
    use jigsaw_ieee80211::Micros;
    use jigsaw_ieee80211::{Channel, PhyRate};
    use jigsaw_trace::format::FormatError;
    use jigsaw_trace::stream::{MemoryStream, SourcePoll};
    use jigsaw_trace::{MonitorId, PhyEvent, PhyStatus, RadioMeta};

    fn meta(r: u16) -> RadioMeta {
        RadioMeta {
            radio: RadioId(r),
            monitor: MonitorId(r),
            channel: Channel::of(1),
            anchor_wall_us: 1_000_000,
            anchor_local_us: 0,
        }
    }

    /// A content-unique data frame both radios hear at (roughly) `ts`.
    fn frame_bytes(seq: u16) -> Vec<u8> {
        let mut b = vec![0u8; 34];
        b[0] = 0x08; // data
        b[4..10].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
        b[10..16].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
        b[16..22].copy_from_slice(&[2, 0, 0, 0, 0, 3]);
        b[22] = (seq & 0xff) as u8;
        b[23] = (seq >> 8) as u8;
        b
    }

    fn ev(r: u16, ts: u64, bytes: Vec<u8>) -> PhyEvent {
        PhyEvent {
            radio: RadioId(r),
            ts_local: ts,
            channel: Channel::of(1),
            rate: PhyRate::R11,
            rssi_dbm: -50,
            status: PhyStatus::Ok,
            wire_len: bytes.len() as u32,
            bytes: bytes.into(),
        }
    }

    /// Shared scenario: two radios on one channel hearing the same frames.
    /// Returns per-radio event lists (radio 1's clock offset by `off`).
    fn shared_events(n: u64, off: i64) -> (Vec<PhyEvent>, Vec<PhyEvent>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for k in 0..n {
            let ts = 10_000 + k * 50_000;
            let f = frame_bytes(k as u16);
            a.push(ev(0, ts, f.clone()));
            b.push(ev(1, (ts as i64 + off + (k % 3) as i64) as u64, f));
        }
        (a, b)
    }

    /// The batch pipeline over the same per-radio events (radio `r` is
    /// `radios[r]`): the keys of the jframes it emits, and its merge stats.
    fn batch_merge(radios: &[&[PhyEvent]], cfg: &LiveConfig) -> (Vec<Key>, MergeStats) {
        let streams = (0..)
            .zip(radios)
            .map(|(r, evs)| MemoryStream::new(meta(r), evs.to_vec()))
            .collect();
        let cfg = PipelineConfig {
            bootstrap: cfg.bootstrap.clone(),
            merge: cfg.merge.clone(),
            ..Default::default()
        };
        let mut keys = Vec::new();
        let (_, stats) =
            Pipeline::merge_only(streams, &cfg, OnJFrame(|jf: &JFrame| keys.push(key(jf))))
                .unwrap();
        (keys, stats)
    }

    type Live = LiveMerger<ChannelSource, ManualClock>;

    /// A live merger over channel-fed radios 0 and 1, and their senders.
    fn two_radios(cfg: LiveConfig, clock: &ManualClock) -> (Live, LiveSender, LiveSender) {
        let mut lm = LiveMerger::new(cfg, clock.clone());
        let (tx0, s0) = ChannelSource::new(meta(0));
        let (tx1, s1) = ChannelSource::new(meta(1));
        lm.add_source(s0);
        lm.add_source(s1);
        (lm, tx0, tx1)
    }

    /// Sends one event; the scenarios that use this never fill the channel.
    fn send(tx: &LiveSender, ev: PhyEvent) {
        assert_eq!(tx.send(ev), SendOutcome::Inserted);
    }

    fn send_all(tx: &LiveSender, evs: &[PhyEvent]) {
        for e in evs {
            send(tx, e.clone());
        }
    }

    /// A jframe's comparable identity.
    type Key = (Micros, u8, u64, usize);

    fn key(jf: &JFrame) -> Key {
        (
            jf.ts,
            jf.channel.number(),
            jf.stable_digest(),
            jf.instance_count(),
        )
    }

    /// The lag-policy scenarios' start: two radios, lagging after 1 s of
    /// wall-time silence, that delivered `a` and `b` and were merged as far
    /// as those go. Returns the merger, both senders and what it emitted.
    fn streaming_after(
        a: &[PhyEvent],
        b: &[PhyEvent],
        clock: &ManualClock,
    ) -> (Live, LiveSender, LiveSender, Vec<JFrame>) {
        let cfg = LiveConfig {
            max_lag_us: 1_000_000,
            ..LiveConfig::default()
        };
        let (mut lm, tx0, tx1) = two_radios(cfg, clock);
        send_all(&tx0, a);
        send_all(&tx1, b);
        let mut out = Vec::new();
        for _ in 0..1_000 {
            if lm.is_streaming() {
                break;
            }
            lm.step(&mut |jf| out.push(jf)).unwrap();
        }
        assert!(lm.is_streaming(), "never reached streaming");
        settle(&mut lm, &mut out);
        (lm, tx0, tx1, out)
    }

    /// Steps until a round leaves the safe horizon where it was: everything
    /// that has arrived has been merged.
    fn settle(lm: &mut Live, out: &mut Vec<JFrame>) {
        loop {
            let before = lm.safe_horizon();
            lm.step(&mut |jf| out.push(jf)).unwrap();
            if lm.safe_horizon() == before {
                return;
            }
        }
    }

    #[test]
    fn channel_fed_live_matches_batch() {
        let (a, b) = shared_events(80, 7);
        let cfg = LiveConfig::default();
        let (want, _) = batch_merge(&[&a, &b], &cfg);

        let (mut lm, tx0, tx1) = two_radios(cfg, &ManualClock::new());
        let mut out = Vec::new();
        // Feed in uneven slices, stepping between them.
        let (mut i, mut j) = (0usize, 0usize);
        let mut round = 0usize;
        while i < a.len() || j < b.len() {
            for _ in 0..1 + round % 3 {
                if i < a.len() {
                    send(&tx0, a[i].clone());
                    i += 1;
                }
            }
            for _ in 0..1 + (round + 1) % 2 {
                if j < b.len() {
                    send(&tx1, b[j].clone());
                    j += 1;
                }
            }
            lm.step(&mut |jf| out.push(jf)).unwrap();
            round += 1;
        }
        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();

        let got: Vec<_> = out.iter().map(key).collect();
        assert_eq!(got, want, "live emission must equal the batch merge");
        assert_eq!(report.merge.events_in, 160);
        assert_eq!(report.sources.len(), 2);
        assert!(report
            .sources
            .iter()
            .all(|s| s.status == SourceStatus::Ended && !s.lagged));
    }

    /// The acceptance scenario: one radio goes silent mid-run. Unification
    /// must stall no longer than `max_lag_us`, then continue without it,
    /// re-admit it on catch-up (dropping only below-horizon events), and
    /// flag it in the report.
    #[test]
    fn killed_radio_lags_then_readmits() {
        let (a, b) = shared_events(120, 3);
        let clock = ManualClock::new();
        // Both radios deliver the first half; radio 1 then goes silent.
        let half = 60usize;
        let (mut lm, tx0, tx1, mut out) = streaming_after(&a[..half], &b[..half], &clock);
        // Radio 0 keeps going alone — but the merger reads it no further
        // than its first event past radio 1's watermark; the rest waits in
        // its channel.
        send_all(&tx0, &a[half..90]);
        settle(&mut lm, &mut out);
        let stalled_at = out.len();
        let horizon_before = lm.safe_horizon();
        // Within max_lag_us: the silent radio still holds the horizon.
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert_eq!(out.len(), stalled_at, "horizon must hold before max_lag");
        // Past max_lag_us — with radio 0 still delivering, so only radio 1
        // is silent: radio 1 is declared lagging and emission resumes.
        clock.advance(1_500_000);
        send_all(&tx0, &a[90..]);
        lm.step(&mut |jf| out.push(jf)).unwrap();
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert!(
            lm.safe_horizon() > horizon_before,
            "horizon must advance past a lagging radio"
        );
        assert!(
            out.len() > stalled_at,
            "unification must continue without the lagging radio"
        );
        // Radio 1 catches up: its stale half-way events fall below the
        // emitted horizon and are dropped; it rejoins live.
        send_all(&tx1, &b[half..]);
        lm.step(&mut |jf| out.push(jf)).unwrap();
        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();

        let r1 = &report.sources[1];
        assert!(r1.lagged, "report must flag the stalled radio");
        assert_eq!(r1.status, SourceStatus::Ended);
        assert_eq!(r1.events, 120);
        assert!(
            r1.late_dropped > 0,
            "catch-up events below the horizon are dropped"
        );
        assert!(!report.sources[0].lagged);
        // Emission order never violated despite the stall/catch-up cycle.
        for w in out.windows(2) {
            assert!(w[0].ts <= w[1].ts, "emission must stay time-ordered");
        }
    }

    /// The failure mode the one-batch catch-up test cannot see: a backlog
    /// arrives over many rounds, and the first rounds fall *entirely* below
    /// the emitted horizon. The radio must stay `Lagging` through those
    /// rounds (filter applied, watermark excluded) and flip back to live
    /// only once it delivers an event that reaches the safe horizon —
    /// flipping early fed later stale events unfiltered (out-of-order
    /// emission) with a stale watermark holding the merge back again.
    #[test]
    fn deep_backlog_drains_under_filter_before_readmission() {
        let (a, b) = shared_events(120, 3);
        let clock = ManualClock::new();
        let half = 60usize;
        let (mut lm, tx0, tx1, mut out) = streaming_after(&a[..half], &b[..half], &clock);
        // Radio 1 goes silent; radio 0's producer runs far ahead (the
        // merger leaves those events in the channel while radio 1 is live).
        send_all(&tx0, &a[half..110]);
        settle(&mut lm, &mut out);
        // Past max_lag_us, with radio 0 still delivering: radio 1 lags, and
        // the horizon follows radio 0 through its backlog.
        clock.advance(1_500_000);
        send_all(&tx0, &a[110..]);
        for _ in 0..10 {
            lm.step(&mut |jf| out.push(jf)).unwrap();
        }
        assert_eq!(lm.source_status(1), SourceStatus::Lagging);
        let horizon_hi = lm.safe_horizon();
        assert!(horizon_hi > 0);

        // The backlog arrives eight events a round, so the first catch-up
        // round is b[60..68] — seconds below the horizon in trace time. It
        // must be fully dropped WITHOUT flipping the radio live, and the
        // horizon must not move backwards.
        let mut backlog = b[half..].chunks(8);
        send_all(&tx1, backlog.next().unwrap());
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert_eq!(
            lm.source_status(1),
            SourceStatus::Lagging,
            "a fully dropped catch-up round must not re-admit the radio"
        );
        assert!(lm.safe_horizon() >= horizon_hi);
        // Drain the rest of the backlog; the radio stays lagging as long
        // as its rounds trail the horizon.
        for chunk in backlog {
            send_all(&tx1, chunk);
            lm.step(&mut |jf| out.push(jf)).unwrap();
        }
        // Fresh events past the horizon: now a retained round reaches the
        // safe horizon and the radio rejoins live.
        for k in 0..4u64 {
            send(
                &tx1,
                ev(1, 6_200_000 + k * 10_000, frame_bytes(200 + k as u16)),
            );
        }
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert_eq!(
            lm.source_status(1),
            SourceStatus::Live,
            "a caught-up radio must be re-admitted"
        );

        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();
        assert!(report.sources[1].lagged);
        assert!(report.sources[1].late_dropped > 0);
        // The documented guarantee the premature flip used to violate.
        for w in out.windows(2) {
            assert!(w[0].ts <= w[1].ts, "emission must stay time-ordered");
        }
    }

    /// A radio that keeps delivering but permanently trails the horizon
    /// must stay `Lagging` — were it re-admitted, its stale watermark would
    /// rejoin the safe-horizon minimum and freeze the horizon forever
    /// (unbounded lag) while its steady progress kept it from ever being
    /// re-declared lagging.
    #[test]
    fn permanently_behind_radio_does_not_freeze_horizon() {
        let (a, b) = shared_events(200, 3);
        let clock = ManualClock::new();
        let (mut lm, tx0, tx1, mut out) = streaming_after(&a[..30], &b[..30], &clock);
        // One more event from radio 0 consumes radio 1's last one, so
        // radio 1 now waits on its producer.
        send(&tx0, a[30].clone());
        settle(&mut lm, &mut out);
        // Radio 1 stalls past max_lag_us while radio 0 keeps delivering, and
        // is declared lagging.
        clock.advance(1_500_000);
        send(&tx0, a[31].clone());
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert_eq!(lm.source_status(1), SourceStatus::Lagging);
        // Radio 0 — the only live radio now, so nothing holds it back —
        // pulls 70 events (3.5 s of trace) ahead.
        send_all(&tx0, &a[32..102]);
        for _ in 0..15 {
            lm.step(&mut |jf| out.push(jf)).unwrap();
        }

        // From here on, BOTH radios deliver two events per step, but radio
        // 1 replays its backlog and stays ~70 events behind forever. The
        // horizon must keep tracking radio 0, not freeze at radio 1's
        // stale watermark.
        let mut k0 = 102usize;
        let mut k1 = 30usize;
        let mut last_horizon = lm.safe_horizon();
        let mut advanced = 0usize;
        while k0 < 200 {
            send(&tx0, a[k0].clone());
            send(&tx0, a[k0 + 1].clone());
            send(&tx1, b[k1].clone());
            send(&tx1, b[k1 + 1].clone());
            k0 += 2;
            k1 += 2;
            lm.step(&mut |jf| out.push(jf)).unwrap();
            assert_eq!(
                lm.source_status(1),
                SourceStatus::Lagging,
                "a permanently-behind radio must stay lagging"
            );
            if lm.safe_horizon() > last_horizon {
                advanced += 1;
            }
            last_horizon = lm.safe_horizon();
        }
        assert!(
            advanced >= 40,
            "horizon must keep advancing past a permanently-behind radio (advanced {advanced} times)"
        );
        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();
        assert!(report.sources[1].lagged);
        assert!(report.sources[1].late_dropped > 0);
        for w in out.windows(2) {
            assert!(w[0].ts <= w[1].ts, "emission must stay time-ordered");
        }
    }

    /// Live ≡ batch under heavy skew: radio 1's clock runs 1500 ppm fast,
    /// so every shared frame takes a resync correction, and the live run —
    /// stepped every four frames — must emit and buffer exactly what the
    /// batch merge does over the same events.
    #[test]
    fn skewed_live_matches_batch() {
        let cfg = LiveConfig::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for k in 0..400u64 {
            let ts = 10_000 + k * 50_000;
            let f = frame_bytes(k as u16);
            a.push(ev(0, ts, f.clone()));
            b.push(ev(1, ts + (ts * 15) / 10_000, f));
        }
        let (want, batch) = batch_merge(&[&a, &b], &cfg);

        let (mut lm, tx0, tx1) = two_radios(cfg, &ManualClock::new());
        let mut out = Vec::new();
        for (k, (e0, e1)) in a.into_iter().zip(b).enumerate() {
            send(&tx0, e0);
            send(&tx1, e1);
            if k % 4 == 3 {
                lm.step(&mut |jf| out.push(jf)).unwrap();
            }
        }
        drop((tx0, tx1));
        let report = lm.run(|jf| out.push(jf)).unwrap();

        assert_eq!(out.iter().map(key).collect::<Vec<_>>(), want);
        assert_eq!(report.merge.peak_buffered, batch.peak_buffered);
        assert!(report.merge.resyncs > 0, "resync must be tracking the skew");
    }

    /// A source whose head is waiting in the merge is not being read, so
    /// it is not stalled: that silence is the merger's doing and must not
    /// count toward `max_lag_us`. The stalled radio holding everyone back
    /// is the one that gets evicted.
    #[test]
    fn held_source_is_not_stalled() {
        let (a, b) = shared_events(80, 3);
        let clock = ManualClock::new();
        // Radio 0 is one event ahead of radio 1 when radio 1 goes silent:
        // that event is past radio 1's watermark, so it waits in the merge
        // with an empty channel behind it.
        let (mut lm, tx0, tx1, mut out) = streaming_after(&a[..41], &b[..40], &clock);
        let held_at = lm.safe_horizon();

        // Wall time passes max_lag_us. The first round evicts the stalled
        // floor while radio 0's head still waits, then merges it and finds
        // radio 0's channel empty; the second must measure that silence from
        // the moment radio 0 was last read, not from before its head waited.
        clock.advance(1_500_000);
        for _ in 0..2 {
            lm.step(&mut |jf| out.push(jf)).unwrap();
            assert_eq!(lm.source_status(0), SourceStatus::Live);
            assert_eq!(lm.source_status(1), SourceStatus::Lagging);
        }
        assert!(
            lm.safe_horizon() > held_at,
            "the horizon moves on without the stalled radio"
        );

        send_all(&tx0, &a[41..]);
        drop(tx0);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();
        assert!(!report.sources[0].lagged);
        assert_eq!(report.sources[0].late_dropped, 0);
        assert_eq!(report.sources[0].events, 80);
        assert!(report.sources[1].lagged);
    }

    /// A source that keeps what has not been polled out of memory — the
    /// shape of a file tail, whose unread bytes stay on disk.
    /// Without a header, it pends forever.
    struct Replay {
        meta: Option<RadioMeta>,
        events: std::vec::IntoIter<PhyEvent>,
    }

    impl LiveSource for Replay {
        fn meta(&self) -> Option<RadioMeta> {
            self.meta
        }
        fn poll(&mut self) -> Result<SourcePoll, FormatError> {
            if self.meta.is_none() {
                return Ok(SourcePoll::Pending);
            }
            Ok(self
                .events
                .next()
                .map_or(SourcePoll::End, SourcePoll::Event))
        }
    }

    /// Peak merger residency for a busy radio (an event per ms) beside a
    /// sparse one hearing every 50th frame, over `ms` of trace.
    fn skewed_rate_peak(ms: u64) -> u64 {
        let busy: Vec<PhyEvent> = (0..ms)
            .map(|k| ev(0, 10_000 + k * 1_000, frame_bytes(k as u16)))
            .collect();
        let sparse: Vec<PhyEvent> = (0..ms)
            .step_by(50)
            .map(|k| ev(1, 10_003 + k * 1_000, frame_bytes(k as u16)))
            .collect();
        let mut cfg = LiveConfig::default();
        // Keep the bootstrap accumulation (one window of the busy radio)
        // below the steady-state residency this test is about.
        cfg.bootstrap.window_us = 20_000;
        let mut lm = LiveMerger::new(cfg, ManualClock::new());
        for (r, events) in [busy, sparse].into_iter().enumerate() {
            lm.add_source(Replay {
                meta: Some(meta(r as u16)),
                events: events.into_iter(),
            });
        }
        let report = lm.run(|_| {}).unwrap();
        assert_eq!(report.merge.events_in, ms + ms.div_ceil(50));
        assert!(report.sources.iter().all(|s| !s.lagged));
        report.merge.peak_buffered
    }

    /// The live mirror of unify's `peak_buffered_tracks_window_not_trace_length`:
    /// count-paced polling let the sparse radio race seconds of trace ahead
    /// of the busy one each round, and all of it sat in the merger waiting
    /// on the slow watermark, so residency grew with the trace. The merger
    /// pulls a source only when its last event is consumed, so the rest
    /// stays in the source.
    #[test]
    fn live_residency_tracks_window_not_length() {
        let short = skewed_rate_peak(20_000);
        let long = skewed_rate_peak(40_000);
        assert_eq!(short, long, "doubling the trace must not move the peak");
        // One head per radio, a search window (10 ms) in flight and the
        // 2×window reorder slack awaiting emission behind it, at ~1
        // event/ms: ~34 events.
        assert!(short <= 50, "peak residency {short} is not window-bounded");
    }

    #[test]
    fn short_corpus_ends_during_bootstrap() {
        // Every event inside the bootstrap window; sources end before the
        // merge ever transitions — stepped there or finished without a
        // single step, everything must still be merged.
        let (a, b) = shared_events(10, 2); // last ts ≈ 460 ms < 1 s window
        let cfg = LiveConfig::default();
        let (want, _) = batch_merge(&[&a, &b], &cfg);
        for stepped in [true, false] {
            let (mut lm, tx0, tx1) = two_radios(cfg.clone(), &ManualClock::new());
            send_all(&tx0, &a);
            send_all(&tx1, &b);
            drop((tx0, tx1));
            let mut out = Vec::new();
            while stepped && lm.step(&mut |jf| out.push(jf)).unwrap() {}
            let report = lm.finish(|jf| out.push(jf)).unwrap();
            assert_eq!(
                out.iter().map(key).collect::<Vec<_>>(),
                want,
                "stepped: {stepped}"
            );
            assert_eq!(report.merge.events_in, 20);
        }
    }

    /// The bootstrap split resumes across rounds: radio 0 ends inside the
    /// window, radio 1 delivers its window over several rounds and, after a
    /// round with nothing new, the carry that completes it on its own. The
    /// merge starts only then, and emits and buffers what the batch
    /// pipeline does.
    #[test]
    fn bootstrap_split_resumes_across_rounds() {
        let (a, b) = shared_events(40, 4);
        let a = &a[..10]; // last ts 460 ms, inside the 1 s window
        let carry = 20; // b[20] is radio 1's first event past the window
        assert!(b[carry - 1].ts_local <= 1_000_000 && b[carry].ts_local > 1_000_000);
        let cfg = LiveConfig::default();
        let (want, batch) = batch_merge(&[a, &b], &cfg);

        let (mut lm, tx0, tx1) = two_radios(cfg, &ManualClock::new());
        send_all(&tx0, a);
        drop(tx0);
        let mut out = Vec::new();
        // The window over four rounds, then a round with nothing new.
        for window in b[..carry].chunks(6).chain([&b[..0]]) {
            send_all(&tx1, window);
            lm.step(&mut |jf| out.push(jf)).unwrap();
            assert!(!lm.is_streaming(), "the window is not complete yet");
        }
        send(&tx1, b[carry].clone());
        lm.step(&mut |jf| out.push(jf)).unwrap();
        assert!(lm.is_streaming(), "the carry completes the window");
        send_all(&tx1, &b[carry + 1..]);
        drop(tx1);
        let report = lm.run(|jf| out.push(jf)).unwrap();

        assert_eq!(out.iter().map(key).collect::<Vec<_>>(), want);
        assert_eq!(report.merge.events_in, batch.events_in);
        assert_eq!(report.merge.peak_buffered, batch.peak_buffered);
        let r0 = &report.sources[0];
        assert_eq!(
            (r0.status, r0.events, r0.lagged),
            (SourceStatus::Ended, 10, false)
        );
        assert_eq!(report.sources[1].events, 40);
    }

    /// An idle radio's trace is a header and nothing else. Tailed beside
    /// two busy radios, it ends cleanly — `Ended`, no events, no error, not
    /// lagged — and the run emits exactly the batch stream of the others.
    #[test]
    fn header_only_tail_ends_beside_busy_radios() {
        use crate::source::ChunkedFileTail;
        use jigsaw_trace::format::TraceWriter;
        let (a, b) = shared_events(80, 5);
        let cfg = LiveConfig::default();
        let (want, _) = batch_merge(&[&a, &b], &cfg);
        let dir = std::env::temp_dir().join(format!("jigsaw_live_idle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut lm = LiveMerger::new(cfg, ManualClock::new());
        for (r, events) in [a, b, Vec::new()].into_iter().enumerate() {
            let path = dir.join(format!("r{r:03}.jigt"));
            let f = std::fs::File::create(&path).unwrap();
            let mut w = TraceWriter::with_block_target(f, meta(r as u16), 200, 256).unwrap();
            for e in &events {
                w.append(e).unwrap();
            }
            w.finish().unwrap();
            lm.add_source(ChunkedFileTail::open(&path, 11).unwrap());
        }
        let mut out = Vec::new();
        let report = lm.run(|jf| out.push(jf)).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let idle = &report.sources[2];
        assert_eq!(idle.radio, Some(RadioId(2)));
        assert_eq!(
            (idle.events, idle.status, idle.lagged),
            (0, SourceStatus::Ended, false)
        );
        assert_eq!(out.iter().map(key).collect::<Vec<_>>(), want);
        assert_eq!(report.merge.events_in, 160);
    }

    #[test]
    fn dead_source_is_excluded_and_flagged() {
        // A source whose header never arrives: declared dead after
        // max_lag_us, the rest of the mesh proceeds without it.
        let (a, b) = shared_events(60, 0);
        let cfg = LiveConfig {
            max_lag_us: 500_000,
            ..LiveConfig::default()
        };
        let clock = ManualClock::new();
        let mut lm = LiveMerger::new(cfg, clock.clone());
        for (meta, events) in [(Some(meta(0)), a), (None, Vec::new()), (Some(meta(1)), b)] {
            let events = events.into_iter();
            lm.add_source(Replay { meta, events });
        }
        let mut out = Vec::new();
        lm.step(&mut |jf| out.push(jf)).unwrap();
        clock.advance(600_000);
        let report = lm.run(|jf| out.push(jf)).unwrap();
        assert_eq!(report.sources[1].status, SourceStatus::Dead);
        assert!(report.sources[1].radio.is_none());
        assert_eq!(report.merge.events_in, 120);
        assert!(report.merge.jframes_out > 0);
    }
}
