//! The jframe: one physical transmission, unified from every radio that
//! heard it (paper §4.2).

use jigsaw_ieee80211::frame::Frame;
use jigsaw_ieee80211::wire::{parse_frame, FrameHeader};
use jigsaw_ieee80211::{Channel, Micros, PhyRate};
use jigsaw_trace::{Payload, PhyStatus, RadioId};

/// One radio's reception of the transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance {
    /// The radio that heard it.
    pub radio: RadioId,
    /// Raw local timestamp from the trace.
    pub ts_local: Micros,
    /// The instance's timestamp translated to universal time at the moment
    /// of unification.
    pub ts_universal: Micros,
    /// Reported signal strength.
    pub rssi_dbm: i16,
    /// Decode quality at this radio.
    pub status: PhyStatus,
}

/// How many instances fit inline before [`Instances`] spills to the heap.
/// The paper's trace averages 2.97 receptions per transmission, so four
/// inline slots cover the common case without a per-jframe allocation.
const INLINE_INSTANCES: usize = 4;

const INSTANCE_FILL: Instance = Instance {
    radio: RadioId(0),
    ts_local: 0,
    ts_universal: 0,
    rssi_dbm: 0,
    status: PhyStatus::Ok,
};

#[derive(Clone)]
enum InstancesRepr {
    Inline {
        len: u8,
        buf: [Instance; INLINE_INSTANCES],
    },
    Heap(Vec<Instance>),
}

/// The instance list of a jframe: a small vector that stores up to four
/// receptions inline (`INLINE_INSTANCES`) and spills to the heap beyond
/// that. Derefs to `[Instance]`, so iteration, indexing, `len()`, `swap()`
/// and friends all read through; collect with `FromIterator` or build
/// incrementally with [`Instances::push`]. Equality and `Debug` are
/// slice-based — inline and spilled lists with the same contents compare
/// equal, so no byte-identity contract can observe the representation.
#[derive(Clone)]
pub struct Instances(InstancesRepr);

impl Instances {
    /// An empty list (inline, no allocation).
    pub const fn new() -> Self {
        Instances(InstancesRepr::Inline {
            len: 0,
            buf: [INSTANCE_FILL; INLINE_INSTANCES],
        })
    }

    /// A single-reception list (inline, no allocation) — the singleton
    /// jframe's hot path.
    pub fn one(inst: Instance) -> Self {
        let mut s = Self::new();
        s.push(inst);
        s
    }

    /// Appends a reception, spilling to the heap past the inline capacity.
    pub fn push(&mut self, inst: Instance) {
        match &mut self.0 {
            InstancesRepr::Inline { len, buf } => {
                let n = *len as usize;
                if n < INLINE_INSTANCES {
                    buf[n] = inst;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_INSTANCES * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(inst);
                    self.0 = InstancesRepr::Heap(v);
                }
            }
            InstancesRepr::Heap(v) => v.push(inst),
        }
    }

    /// True when the list lives in the heap-spilled representation.
    #[cfg(test)]
    fn is_spilled(&self) -> bool {
        matches!(self.0, InstancesRepr::Heap(_))
    }
}

impl Default for Instances {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Instances {
    type Target = [Instance];
    fn deref(&self) -> &[Instance] {
        match &self.0 {
            InstancesRepr::Inline { len, buf } => &buf[..*len as usize],
            InstancesRepr::Heap(v) => v,
        }
    }
}

impl std::ops::DerefMut for Instances {
    fn deref_mut(&mut self) -> &mut [Instance] {
        match &mut self.0 {
            InstancesRepr::Inline { len, buf } => &mut buf[..*len as usize],
            InstancesRepr::Heap(v) => v,
        }
    }
}

impl std::fmt::Debug for Instances {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Instances {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Instances {}

impl FromIterator<Instance> for Instances {
    fn from_iter<I: IntoIterator<Item = Instance>>(iter: I) -> Self {
        let mut s = Self::new();
        for inst in iter {
            s.push(inst);
        }
        s
    }
}

impl From<Vec<Instance>> for Instances {
    fn from(v: Vec<Instance>) -> Self {
        if v.len() <= INLINE_INSTANCES {
            v.into_iter().collect()
        } else {
            Instances(InstancesRepr::Heap(v))
        }
    }
}

impl<'a> IntoIterator for &'a Instances {
    type Item = &'a Instance;
    type IntoIter = std::slice::Iter<'a, Instance>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A unified frame: the synchronized record of one on-air transmission.
#[derive(Debug, Clone)]
pub struct JFrame {
    /// Universal timestamp: the median of the instances' adjusted
    /// timestamps (µs). Refers to the end of the PLCP header, which is when
    /// monitor hardware timestamps receptions.
    pub ts: Micros,
    /// Frame contents from the best (FCS-valid, longest) instance,
    /// possibly snap-truncated. Empty for pure PHY-error events. A
    /// [`Payload`] handle — cloned from the winning instance's event
    /// without copying the bytes (digests and parsing read through deref,
    /// so every byte-identity contract is unchanged).
    pub bytes: Payload,
    /// True on-air length in bytes.
    pub wire_len: u32,
    /// PLCP rate.
    pub rate: PhyRate,
    /// The channel the transmission was captured on. Every instance comes
    /// from a radio tuned to this channel: radios on other channels cannot
    /// hear the same transmission, so unification never crosses channels
    /// (and the channel-sharded merge exploits exactly that).
    pub channel: Channel,
    /// Every reception that was unified into this jframe. Stored inline
    /// (no allocation) up to four receptions; see [`Instances`].
    pub instances: Instances,
    /// Worst-case time offset between any two instances (µs) — the paper's
    /// *group dispersion* (Figure 4 plots its CDF).
    pub dispersion: Micros,
    /// True if at least one instance decoded with a valid FCS.
    pub valid: bool,
    /// True if this frame was usable as a synchronization reference
    /// (content-unique, non-retry).
    pub unique: bool,
}

impl JFrame {
    /// Number of instances (the paper's trace averages 2.97).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Parses the frame contents (FCS-valid instances only).
    ///
    /// Returns `None` for error-only jframes or undecodable contents.
    /// Snap-truncated frames fail the FCS check by construction, so complete
    /// capture is required — analyses that only need headers use
    /// [`JFrame::header`] instead.
    pub fn parse(&self) -> Option<Frame> {
        if !self.valid || self.bytes.is_empty() {
            return None;
        }
        parse_frame(&self.bytes).ok()
    }

    /// The MAC header of the captured bytes, corrupt or snapped frames
    /// included (no FCS check).
    pub fn header(&self) -> Option<FrameHeader> {
        FrameHeader::decode(&self.bytes)
    }

    /// True when the full frame body was captured (no snap truncation).
    pub fn is_complete(&self) -> bool {
        self.bytes.len() as u32 == self.wire_len
    }

    /// The airtime of the MAC payload portion (everything after the PLCP),
    /// used to place the end of the transmission on the universal timeline.
    pub fn payload_airtime_us(&self) -> Micros {
        use jigsaw_ieee80211::timing::{airtime_us, Preamble};
        let full = airtime_us(self.rate, self.wire_len as usize, Preamble::Long);
        let plcp = match self.rate.modulation() {
            jigsaw_ieee80211::Modulation::Ofdm => jigsaw_ieee80211::timing::OFDM_PLCP_US,
            _ => jigsaw_ieee80211::timing::DSSS_LONG_PLCP_US,
        };
        full.saturating_sub(plcp)
    }

    /// Universal time at which the transmission left the air.
    pub fn end_ts(&self) -> Micros {
        self.ts + self.payload_airtime_us()
    }

    /// Folds every observable field of the jframe (and its instances) into
    /// a running digest, field-framed so no two distinct streams collide by
    /// concatenation. Folding a whole jframe stream yields the stream
    /// digest `repro merge --verify` compares across disk-backed and
    /// in-memory runs (count + order + content).
    pub fn digest_into(&self, h: &mut jigsaw_trace::digest::Fnv64) {
        h.update_u64(self.ts);
        h.update(&[self.channel.number(), self.valid as u8, self.unique as u8]);
        h.update_u64(u64::from(self.wire_len));
        h.update_u64(u64::from(self.rate.centi_mbps()));
        h.update_u64(self.dispersion);
        h.update_u64(self.bytes.len() as u64);
        h.update(&self.bytes);
        h.update_u64(self.instances.len() as u64);
        for i in &self.instances {
            h.update_u64(u64::from(i.radio.0));
            h.update_u64(i.ts_local);
            h.update_u64(i.ts_universal);
            h.update_u64(i.rssi_dbm as u64);
            h.update(&[i.status.code()]);
        }
    }

    /// The jframe's *clock-invariant* identity: a digest over everything
    /// the capture hardware recorded — channel, contents, wire length,
    /// rate, validity, and each instance's (radio, local timestamp, RSSI,
    /// status) — and nothing derived from merge-time clock state (`ts`,
    /// `ts_universal`, `dispersion` are all excluded).
    ///
    /// This is the identity the windowed-replay contract compares on: a
    /// replay re-anchored mid-trace reconstructs the same *groupings* as a
    /// full replay, but its universal timeline is re-derived from the NTP
    /// anchors at the window and so agrees with the full run's only to the
    /// re-anchor tolerance (NTP error + drift). Equal `stable_digest`
    /// multisets mean the two replays unified identically.
    ///
    /// Instances fold in canonical `(radio, ts_local)` order, not vector
    /// order: within a jframe, instances sit in merged-universal-time
    /// order, and two instances a microsecond apart can legitimately swap
    /// when the timeline is re-derived.
    pub fn stable_digest(&self) -> u64 {
        let mut h = jigsaw_trace::digest::Fnv64::new();
        h.update(&[self.channel.number(), self.valid as u8, self.unique as u8]);
        h.update_u64(u64::from(self.wire_len));
        h.update_u64(u64::from(self.rate.centi_mbps()));
        h.update_u64(self.bytes.len() as u64);
        h.update(&self.bytes);
        let n = self.instances.len();
        h.update_u64(n as u64);
        // The canonical order lives on the stack up to the inline capacity;
        // only a spilled instance list pays for a heap index. The index
        // tie-break keeps equal keys in vector order, as a stable sort would.
        let mut inline = [0; INLINE_INSTANCES];
        let mut spilled = Vec::new();
        let order = if n <= INLINE_INSTANCES {
            &mut inline[..n]
        } else {
            spilled.resize(n, 0);
            &mut spilled[..]
        };
        order.iter_mut().enumerate().for_each(|(k, slot)| *slot = k);
        order.sort_unstable_by_key(|&k| (self.instances[k].radio, self.instances[k].ts_local, k));
        for &k in order.iter() {
            let i = &self.instances[k];
            h.update_u64(u64::from(i.radio.0));
            h.update_u64(i.ts_local);
            h.update_u64(i.rssi_dbm as u64);
            h.update(&[i.status.code()]);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_ieee80211::frame::Frame;
    use jigsaw_ieee80211::wire::serialize_frame;
    use jigsaw_ieee80211::MacAddr;

    fn jf(bytes: Vec<u8>, wire_len: u32, valid: bool) -> JFrame {
        JFrame {
            ts: 1000,
            bytes: bytes.into(),
            wire_len,
            rate: PhyRate::R11,
            channel: Channel::of(1),
            instances: Instances::new(),
            dispersion: 0,
            valid,
            unique: false,
        }
    }

    #[test]
    fn parse_roundtrip() {
        let ack = Frame::Ack {
            duration: 0,
            ra: MacAddr::local(1, 1),
        };
        let bytes = serialize_frame(&ack);
        let len = bytes.len() as u32;
        let j = jf(bytes, len, true);
        assert!(j.is_complete());
        assert_eq!(j.parse(), Some(ack));
    }

    #[test]
    fn invalid_jframe_does_not_parse() {
        let j = jf(vec![1, 2, 3], 3, false);
        assert_eq!(j.parse(), None);
        let j2 = jf(vec![], 0, true);
        assert_eq!(j2.parse(), None);
    }

    #[test]
    fn end_ts_accounts_for_airtime() {
        // 14-byte ACK at 11 Mbps: payload is ceil(112*10/110)=11 µs.
        let j = jf(vec![0; 14], 14, true);
        assert_eq!(j.end_ts(), 1000 + 11);
    }

    #[test]
    fn digest_is_field_sensitive() {
        use jigsaw_trace::digest::Fnv64;
        let base = jf(vec![1, 2, 3], 3, true);
        let hash = |j: &JFrame| {
            let mut h = Fnv64::new();
            j.digest_into(&mut h);
            h.finish()
        };
        assert_eq!(hash(&base), hash(&base.clone()), "digest must be stable");
        let mut ts = base.clone();
        ts.ts += 1;
        assert_ne!(hash(&base), hash(&ts));
        let mut inst = base.clone();
        inst.instances.push(Instance {
            radio: RadioId(4),
            ts_local: 9,
            ts_universal: 1001,
            rssi_dbm: -40,
            status: PhyStatus::Ok,
        });
        assert_ne!(hash(&base), hash(&inst));
        // Order matters: folding A then B differs from B then A.
        let mut ab = Fnv64::new();
        base.digest_into(&mut ab);
        ts.digest_into(&mut ab);
        let mut ba = Fnv64::new();
        ts.digest_into(&mut ba);
        base.digest_into(&mut ba);
        assert_ne!(ab.finish(), ba.finish());
    }

    #[test]
    fn stable_digest_ignores_clock_state_only() {
        let mut base = jf(vec![1, 2, 3], 3, true);
        base.instances.push(Instance {
            radio: RadioId(4),
            ts_local: 9,
            ts_universal: 1001,
            rssi_dbm: -40,
            status: PhyStatus::Ok,
        });
        let d = base.stable_digest();
        // Clock-derived fields do not move the stable digest...
        let mut clocky = base.clone();
        clocky.ts += 5;
        clocky.dispersion += 2;
        clocky.instances[0].ts_universal += 5;
        assert_eq!(d, clocky.stable_digest());
        // ...nor does in-frame instance order (it is universal-time order,
        // which a re-derived timeline may legitimately permute).
        let mut second = base.clone();
        second.instances.push(Instance {
            radio: RadioId(2),
            ts_local: 8,
            ts_universal: 1000,
            rssi_dbm: -45,
            status: PhyStatus::Ok,
        });
        let mut swapped = second.clone();
        swapped.instances.swap(0, 1);
        assert_eq!(second.stable_digest(), swapped.stable_digest());
        // ...but every capture-side field does.
        let mut content = base.clone();
        let mut flipped = content.bytes.to_vec();
        flipped[0] ^= 1;
        content.bytes = flipped.into();
        assert_ne!(d, content.stable_digest());
        let mut local = base.clone();
        local.instances[0].ts_local += 1;
        assert_ne!(d, local.stable_digest());
        let mut chan = base.clone();
        chan.channel = Channel::of(6);
        assert_ne!(d, chan.stable_digest());
    }

    /// The stack-ordered fold hashes exactly what a stable sort of an
    /// index vector did — inline and spilled lists, tied keys included.
    #[test]
    fn stable_digest_order_matches_a_stable_index_sort() {
        let reference = |f: &JFrame| {
            let mut h = jigsaw_trace::digest::Fnv64::new();
            h.update(&[f.channel.number(), f.valid as u8, f.unique as u8]);
            h.update_u64(u64::from(f.wire_len));
            h.update_u64(u64::from(f.rate.centi_mbps()));
            h.update_u64(f.bytes.len() as u64);
            h.update(&f.bytes);
            h.update_u64(f.instances.len() as u64);
            let mut order: Vec<usize> = (0..f.instances.len()).collect();
            order.sort_by_key(|&k| (f.instances[k].radio, f.instances[k].ts_local));
            for k in order {
                let i = &f.instances[k];
                h.update_u64(u64::from(i.radio.0));
                h.update_u64(i.ts_local);
                h.update_u64(i.rssi_dbm as u64);
                h.update(&[i.status.code()]);
            }
            h.finish()
        };
        let mut f = jf(vec![7, 8], 2, true);
        assert_eq!(f.stable_digest(), reference(&f));
        // Radios 3, 1, 3 (a tie on (radio, ts_local) told apart by RSSI),
        // 0, 2, 1: checked at every length, inline through spilled.
        for (k, r) in [3u16, 1, 3, 0, 2, 1].into_iter().enumerate() {
            f.instances.push(Instance {
                radio: RadioId(r),
                ts_local: 100 - u64::from(r),
                ts_universal: 0,
                rssi_dbm: -40 - k as i16,
                status: PhyStatus::Ok,
            });
            assert_eq!(f.stable_digest(), reference(&f), "{} instances", k + 1);
        }
    }

    #[test]
    fn instances_inline_until_spill() {
        let inst = |r: u16| Instance {
            radio: RadioId(r),
            ts_local: u64::from(r),
            ts_universal: u64::from(r),
            rssi_dbm: -50,
            status: PhyStatus::Ok,
        };
        let mut v = Instances::new();
        assert!(v.is_empty());
        for r in 0..4 {
            v.push(inst(r));
            assert!(!v.is_spilled(), "≤{INLINE_INSTANCES} stays inline");
        }
        assert_eq!(v.len(), 4);
        v.push(inst(4));
        assert!(v.is_spilled(), "fifth reception spills to the heap");
        assert_eq!(v.len(), 5);
        // Order survives the spill, and slice ops read through.
        assert_eq!(
            v.iter().map(|i| i.radio.0).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        v.swap(0, 4);
        assert_eq!(v[0].radio, RadioId(4));
    }

    #[test]
    fn instances_construction_paths_agree() {
        let inst = |r: u16| Instance {
            radio: RadioId(r),
            ts_local: 1,
            ts_universal: 1,
            rssi_dbm: -50,
            status: PhyStatus::Ok,
        };
        // Short lists normalize to the inline representation no matter how
        // they were built, so equality/Debug can't observe construction.
        let collected: Instances = (0..3).map(inst).collect();
        let converted: Instances = (0..3).map(inst).collect::<Vec<_>>().into();
        assert!(!collected.is_spilled() && !converted.is_spilled());
        assert_eq!(collected, converted);
        assert_eq!(format!("{collected:?}"), format!("{converted:?}"));
        assert_eq!(Instances::one(inst(0)).len(), 1);
        // Long lists agree too, whichever path spilled them.
        let pushed: Instances = (0..6).map(inst).collect();
        let long: Instances = (0..6).map(inst).collect::<Vec<_>>().into();
        assert!(pushed.is_spilled() && long.is_spilled());
        assert_eq!(pushed, long);
    }

    #[test]
    fn header_works_on_truncated() {
        let data = Frame::Data(jigsaw_ieee80211::frame::DataFrame {
            duration: 44,
            addr1: MacAddr::local(1, 1),
            addr2: MacAddr::local(2, 2),
            addr3: MacAddr::local(3, 3),
            seq: jigsaw_ieee80211::SeqNum::new(5),
            frag: 0,
            flags: Default::default(),
            null: false,
            body: vec![0; 500],
        });
        let bytes = serialize_frame(&data);
        let mut j = jf(bytes[..40].to_vec(), bytes.len() as u32, false);
        j.rate = PhyRate::R54;
        assert!(!j.is_complete());
        let h = j.header().unwrap();
        assert_eq!(h.subtype, jigsaw_ieee80211::Subtype::Data);
        assert_eq!(h.addr2, Some(MacAddr::local(2, 2)));
    }
}
