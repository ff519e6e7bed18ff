//! Figure 9 — interference loss rate across (sender, receiver) pairs.
//!
//! The paper's conditional-probability model (§7.2): for each (s, r) pair,
//! split transmissions into those with (`nx`, losses `nlx`) and without
//! (`n0`, losses `nl0`) a simultaneous transmission from a third party;
//! then
//!
//! ```text
//! Pi = P[I|S] = ((nlx/nx) − (nl0/n0)) / (1 − nl0/n0)
//! X  = Pi · nx / n          (the interference loss rate)
//! ```
//!
//! with negative Pi truncated to zero (the paper observes 11% such pairs).
//! Losses are inferred exactly as the paper does: a unicast transmission
//! with no observed ACK.

use crate::stations::StationLearner;
use crate::stats::{Cdf, SealedCdf};
use crate::suite::{Analyzer, Figure, Record};
use jigsaw_core::jframe::JFrame;
use jigsaw_core::link::attempt::{Attempt, AttemptOutcome};
use jigsaw_ieee80211::frame::Frame;
use jigsaw_ieee80211::{MacAddr, Micros, Subtype};
// tidy:allow-file(hash-order): the pair map is drained into a Vec and sorted before emission; in-map access is keyed lookup
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Default, Clone)]
struct PairCounts {
    n: u64,
    n0: u64,
    nl0: u64,
    nx: u64,
    nlx: u64,
}

/// Per-pair result.
#[derive(Debug, Clone)]
pub struct PairInterference {
    /// Sender.
    pub sender: MacAddr,
    /// Receiver.
    pub receiver: MacAddr,
    /// Total transmissions.
    pub n: u64,
    /// Conditional interference probability Pi (possibly negative before
    /// truncation).
    pub pi_raw: f64,
    /// Interference loss rate X = max(Pi, 0) · nx/n.
    pub x: f64,
    /// Background loss rate nl0/n0.
    pub background_loss: f64,
}

/// The finished Figure 9.
#[derive(Debug)]
pub struct InterferenceFigure {
    /// Per-pair results (pairs with ≥ `min_packets` transmissions).
    pub pairs: Vec<PairInterference>,
    /// CDF of X across pairs.
    pub x_cdf: SealedCdf,
    /// Fraction of qualifying pairs with positive interference loss
    /// (paper: 88%).
    pub frac_with_interference: f64,
    /// Fraction of pairs with negative Pi truncated to 0 (paper: 11%).
    pub frac_truncated: f64,
    /// Average background loss rate across pairs (paper: 0.12).
    pub avg_background_loss: f64,
    /// Share of interfered pairs whose sender is an AP (paper: 56%).
    pub ap_sender_fraction: f64,
    /// Pairs below the packet-count threshold (excluded).
    pub pairs_excluded: usize,
}

/// Streaming Figure-9 builder.
pub struct InterferenceAnalysis {
    /// Minimum transmissions for a pair to qualify (paper: 100).
    pub min_packets: u64,
    counts: HashMap<(MacAddr, MacAddr), PairCounts>,
    /// Recent transmissions on the air: (start, end, transmitter).
    recent: VecDeque<(Micros, Micros, Option<MacAddr>)>,
}

impl InterferenceAnalysis {
    /// Creates a builder with the paper's ≥100-packet threshold.
    pub fn new() -> Self {
        InterferenceAnalysis {
            min_packets: 100,
            counts: HashMap::new(),
            recent: VecDeque::new(),
        }
    }
}

impl Default for InterferenceAnalysis {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer for InterferenceAnalysis {
    /// Tracks what is on the air.
    fn on_jframe(&mut self, jf: &JFrame, _: Option<&Frame>, _: &StationLearner) {
        if jf.wire_len == 0 {
            return;
        }
        let tx = jf.header().and_then(|h| h.addr2);
        self.recent.push_back((jf.ts, jf.end_ts(), tx));
        // Retain a 100 ms horizon — far beyond any frame airtime.
        while let Some(&(start, _, _)) = self.recent.front() {
            if start + 100_000 < jf.ts {
                self.recent.pop_front();
            } else {
                break;
            }
        }
    }

    /// Counts each unicast DATA transmission attempt.
    fn on_attempt(&mut self, a: &Attempt) {
        if a.subtype != Subtype::Data || a.inferred_data {
            return;
        }
        let (Some(s), Some(r)) = (a.transmitter, a.receiver) else {
            return;
        };
        if r.is_multicast() {
            return;
        }
        // Simultaneous transmission: any other transmission overlapping
        // [ts, end_ts] from a different transmitter.
        let simultaneous = self
            .recent
            .iter()
            .any(|&(start, end, tx)| start < a.end_ts && end > a.ts && tx != Some(s));
        let lost = a.outcome != AttemptOutcome::Acked;
        let c = self.counts.entry((s, r)).or_default();
        c.n += 1;
        if simultaneous {
            c.nx += 1;
            if lost {
                c.nlx += 1;
            }
        } else {
            c.n0 += 1;
            if lost {
                c.nl0 += 1;
            }
        }
    }

    fn into_figure(self: Box<Self>, stations: &StationLearner) -> Box<dyn Figure> {
        let mut pairs = Vec::new();
        let mut excluded = 0usize;
        for ((s, r), c) in &self.counts {
            if c.n < self.min_packets {
                excluded += 1;
                continue;
            }
            if c.n0 == 0 || c.nx == 0 {
                excluded += 1;
                continue;
            }
            let p_loss_sim = c.nlx as f64 / c.nx as f64;
            let p_loss_bg = c.nl0 as f64 / c.n0 as f64;
            if p_loss_bg >= 1.0 {
                excluded += 1;
                continue;
            }
            let pi_raw = (p_loss_sim - p_loss_bg) / (1.0 - p_loss_bg);
            let x = pi_raw.max(0.0) * c.nx as f64 / c.n as f64;
            pairs.push(PairInterference {
                sender: *s,
                receiver: *r,
                n: c.n,
                pi_raw,
                x,
                background_loss: p_loss_bg,
            });
        }
        pairs.sort_by(|a, b| {
            a.x.partial_cmp(&b.x)
                .expect("finite")
                .then(a.sender.to_u64().cmp(&b.sender.to_u64()))
                .then(a.receiver.to_u64().cmp(&b.receiver.to_u64()))
        });
        let mut x_cdf = Cdf::new();
        for p in &pairs {
            x_cdf.add(p.x);
        }
        let total = pairs.len().max(1) as f64;
        let interfered: Vec<&PairInterference> = pairs.iter().filter(|p| p.pi_raw > 0.0).collect();
        let frac_with_interference = interfered.len() as f64 / total;
        let frac_truncated = pairs.iter().filter(|p| p.pi_raw < 0.0).count() as f64 / total;
        let avg_background_loss = pairs.iter().map(|p| p.background_loss).sum::<f64>() / total;
        let ap_senders = interfered
            .iter()
            .filter(|p| stations.is_ap(p.sender))
            .count();
        let ap_sender_fraction = if interfered.is_empty() {
            0.0
        } else {
            ap_senders as f64 / interfered.len() as f64
        };
        Box::new(InterferenceFigure {
            pairs,
            x_cdf: x_cdf.seal(),
            frac_with_interference,
            frac_truncated,
            avg_background_loss,
            ap_sender_fraction,
            pairs_excluded: excluded,
        })
    }
}

impl Figure for InterferenceFigure {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn title(&self) -> &'static str {
        "FIGURE 9 — interference loss rate CDF (paper §7.2)"
    }

    /// Renders the CDF plus the paper's headline statistics.
    fn render(&self) -> String {
        let mut s = String::from("interference_loss_rate_X  cumulative_fraction\n");
        for (v, f) in self.x_cdf.points(25) {
            s.push_str(&format!("{v:>12.4}    {f:.3}\n"));
        }
        s.push_str(&format!(
            "pairs={}  with-interference={:.2}  truncated-negative={:.2}  \
             avg-background-loss={:.3}  ap-sender-share={:.2}\n",
            self.pairs.len(),
            self.frac_with_interference,
            self.frac_truncated,
            self.avg_background_loss,
            self.ap_sender_fraction,
        ));
        s.push_str(
            "paper: 88% of (s,r) pairs interfered; median X ≤ 0.025; 10% ≥ 0.1; 5% ≥ 0.2; 11% truncated; background loss 0.12; AP senders 56%\n",
        );
        s.push_str(&format!(
            "measured: median X = {:.4}; P[X ≥ 0.1] = {:.2}; P[X ≥ 0.2] = {:.2}\n",
            self.x_cdf.quantile(0.5).unwrap_or(0.0),
            self.x_cdf.fraction_at_least(0.1),
            self.x_cdf.fraction_at_least(0.2),
        ));
        s
    }

    fn records(&self) -> Vec<Record> {
        vec![
            Record::u64("pairs", self.pairs.len() as u64),
            Record::u64("pairs_excluded", self.pairs_excluded as u64),
            Record::f64("frac_with_interference", self.frac_with_interference),
            Record::f64("frac_truncated", self.frac_truncated),
            Record::f64("avg_background_loss", self.avg_background_loss),
            Record::f64("ap_sender_fraction", self.ap_sender_fraction),
            Record::f64("median_x", self.x_cdf.quantile(0.5).unwrap_or(0.0)),
            Record::f64("frac_x_ge_0_1", self.x_cdf.fraction_at_least(0.1)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::downcast;

    fn attempt(s: u32, r: u32, ts: Micros, acked: bool) -> Attempt {
        Attempt {
            transmitter: Some(MacAddr::local(3, s)),
            receiver: Some(MacAddr::local(0, r)),
            ts,
            end_ts: ts + 500,
            rate: jigsaw_ieee80211::PhyRate::R11,
            seq: Some(jigsaw_ieee80211::SeqNum::new(0)),
            retry: false,
            subtype: Subtype::Data,
            protected: false,
            outcome: if acked {
                AttemptOutcome::Acked
            } else {
                AttemptOutcome::NoAckSeen
            },
            inferred_data: false,
            wire_len: 500,
            bytes: Default::default(),
            data_valid: false,
            instance_count: 1,
        }
    }

    fn finish(a: InterferenceAnalysis) -> InterferenceFigure {
        downcast(Box::new(a).into_figure(&StationLearner::new()))
    }

    fn on_air(a: &mut InterferenceAnalysis, ts: Micros, end: Micros, tx: u32) {
        a.recent.push_back((ts, end, Some(MacAddr::local(7, tx))));
    }

    #[test]
    fn pure_interference_detected() {
        let mut a = InterferenceAnalysis::new();
        a.min_packets = 100;
        // 100 clean transmissions, no losses; 100 with overlap, 40 lost.
        let mut t = 0;
        for k in 0..200 {
            let sim = k % 2 == 1;
            t += 10_000;
            if sim {
                on_air(&mut a, t - 100, t + 700, 99);
            }
            let lost = sim && k % 5 < 4 && k % 10 < 8 && (k / 2) % 5 < 2; // 40%ish of sim
            a.on_attempt(&attempt(1, 1, t, !lost));
        }
        let fig = finish(a);
        assert_eq!(fig.pairs.len(), 1);
        let p = &fig.pairs[0];
        assert!(p.pi_raw > 0.1, "pi {}", p.pi_raw);
        assert!(p.x > 0.0);
        assert_eq!(p.background_loss, 0.0);
    }

    #[test]
    fn background_loss_normalized_out() {
        let mut a = InterferenceAnalysis::new();
        // Same 20% loss with and without simultaneous transmissions →
        // Pi ≈ 0 (all loss is background).
        let mut t = 0;
        for k in 0..400u32 {
            let sim = k % 2 == 1;
            t += 10_000;
            if sim {
                on_air(&mut a, t - 100, t + 700, 99);
            }
            let lost = k % 5 == 0;
            a.on_attempt(&attempt(1, 1, t, !lost));
        }
        let fig = finish(a);
        assert_eq!(fig.pairs.len(), 1);
        assert!(
            fig.pairs[0].pi_raw.abs() < 0.1,
            "pi {}",
            fig.pairs[0].pi_raw
        );
        assert!((fig.pairs[0].background_loss - 0.2).abs() < 0.05);
    }

    #[test]
    fn negative_pi_truncated() {
        let mut a = InterferenceAnalysis::new();
        // Losses only WITHOUT simultaneous tx → Pi < 0 → X = 0.
        let mut t = 0;
        for k in 0..300u32 {
            let sim = k % 3 == 0;
            t += 10_000;
            if sim {
                on_air(&mut a, t - 100, t + 700, 99);
            }
            let lost = !sim && k % 4 == 0;
            a.on_attempt(&attempt(1, 1, t, !lost));
        }
        let fig = finish(a);
        assert_eq!(fig.pairs.len(), 1);
        assert!(fig.pairs[0].pi_raw < 0.0);
        assert_eq!(fig.pairs[0].x, 0.0);
        assert_eq!(fig.frac_truncated, 1.0);
    }

    #[test]
    fn small_pairs_excluded() {
        let mut a = InterferenceAnalysis::new();
        for k in 0..50 {
            a.on_attempt(&attempt(2, 2, k * 1_000, true));
        }
        let fig = finish(a);
        assert!(fig.pairs.is_empty());
        assert_eq!(fig.pairs_excluded, 1);
    }

    #[test]
    fn own_transmission_not_simultaneous() {
        let mut a = InterferenceAnalysis::new();
        let s = MacAddr::local(3, 1);
        // The sender's own frame on the air must not count as interference.
        a.recent.push_back((0, 1_000_000, Some(s)));
        let mut t = 0;
        for _ in 0..150 {
            t += 5_000;
            a.on_attempt(&attempt(1, 1, t, true));
        }
        let fig = finish(a);
        // All transmissions counted as clean (n0), none simultaneous → the
        // pair is excluded for nx == 0.
        assert!(fig.pairs.is_empty());
    }
}
