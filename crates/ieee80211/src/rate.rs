//! PHY rates and modulations for 802.11b (DSSS/CCK) and 802.11g (ERP-OFDM).

use std::fmt;

/// Modulation family of a transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Differential BPSK/QPSK barker (1 and 2 Mbps).
    Dsss,
    /// Complementary code keying (5.5 and 11 Mbps).
    Cck,
    /// ERP-OFDM (6..54 Mbps) — undecodable by legacy 802.11b radios.
    Ofdm,
}

/// A coded PHY rate. The discriminant is the rate in units of 100 kbps,
/// which is also the MadWifi/radiotap convention divided by five.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum PhyRate {
    R1 = 10,
    R2 = 20,
    R5_5 = 55,
    R11 = 110,
    R6 = 60,
    R9 = 90,
    R12 = 120,
    R18 = 180,
    R24 = 240,
    R36 = 360,
    R48 = 480,
    R54 = 540,
}

impl PhyRate {
    /// All 802.11b rates, slowest first.
    pub const B_RATES: [PhyRate; 4] = [PhyRate::R1, PhyRate::R2, PhyRate::R5_5, PhyRate::R11];

    /// All ERP-OFDM (802.11g-only) rates, slowest first.
    pub const G_RATES: [PhyRate; 8] = [
        PhyRate::R6,
        PhyRate::R9,
        PhyRate::R12,
        PhyRate::R18,
        PhyRate::R24,
        PhyRate::R36,
        PhyRate::R48,
        PhyRate::R54,
    ];

    /// Every rate an 802.11b/g radio may choose, in rate-adaptation order
    /// (slowest → fastest). This is the ladder the simulator's ARF walks.
    pub const BG_LADDER: [PhyRate; 12] = [
        PhyRate::R1,
        PhyRate::R2,
        PhyRate::R5_5,
        PhyRate::R6,
        PhyRate::R9,
        PhyRate::R11,
        PhyRate::R12,
        PhyRate::R18,
        PhyRate::R24,
        PhyRate::R36,
        PhyRate::R48,
        PhyRate::R54,
    ];

    /// The rate in units of 100 kbps (e.g. 5.5 Mbps → 55).
    pub fn centi_mbps(self) -> u16 {
        self as u16
    }

    /// The rate in kilobits per second.
    pub fn kbps(self) -> u32 {
        u32::from(self.centi_mbps()) * 100
    }

    /// Decodes from units of 100 kbps.
    pub fn from_centi_mbps(v: u16) -> Option<Self> {
        Some(match v {
            10 => PhyRate::R1,
            20 => PhyRate::R2,
            55 => PhyRate::R5_5,
            110 => PhyRate::R11,
            60 => PhyRate::R6,
            90 => PhyRate::R9,
            120 => PhyRate::R12,
            180 => PhyRate::R18,
            240 => PhyRate::R24,
            360 => PhyRate::R36,
            480 => PhyRate::R48,
            540 => PhyRate::R54,
            _ => return None,
        })
    }

    /// The modulation family of this rate.
    pub fn modulation(self) -> Modulation {
        match self {
            PhyRate::R1 | PhyRate::R2 => Modulation::Dsss,
            PhyRate::R5_5 | PhyRate::R11 => Modulation::Cck,
            _ => Modulation::Ofdm,
        }
    }

    /// True if a legacy 802.11b radio can decode this rate.
    pub fn is_b_compatible(self) -> bool {
        self.modulation() != Modulation::Ofdm
    }

    /// OFDM data bits per 4 µs symbol (only meaningful for OFDM rates).
    pub fn ofdm_bits_per_symbol(self) -> Option<u32> {
        if self.modulation() == Modulation::Ofdm {
            // rate_mbps * 4 µs per symbol
            Some(self.kbps() / 1000 * 4)
        } else {
            None
        }
    }

    /// Minimum SINR (in dB, scaled ×10 for integer math) required for a
    /// roughly 10% frame error rate at 1500 bytes. These thresholds follow
    /// the usual receiver-sensitivity ladder used in 802.11 simulators.
    pub fn snr_threshold_decidb(self) -> i32 {
        match self {
            PhyRate::R1 => 20,   // 2 dB
            PhyRate::R2 => 40,   // 4 dB
            PhyRate::R5_5 => 60, // 6 dB
            PhyRate::R11 => 80,  // 8 dB
            PhyRate::R6 => 70,   // 7 dB
            PhyRate::R9 => 80,   // 8 dB
            PhyRate::R12 => 90,  // 9 dB
            PhyRate::R18 => 110, // 11 dB
            PhyRate::R24 => 140, // 14 dB
            PhyRate::R36 => 180, // 18 dB
            PhyRate::R48 => 220, // 22 dB
            PhyRate::R54 => 240, // 24 dB
        }
    }

    /// The next slower rate on the b/g ladder, if any.
    pub fn step_down(self) -> Option<PhyRate> {
        let ladder = Self::BG_LADDER;
        let idx = ladder.iter().position(|&r| r == self)?;
        if idx == 0 {
            None
        } else {
            Some(ladder[idx - 1])
        }
    }

    /// The next faster rate on the b/g ladder, if any.
    pub fn step_up(self) -> Option<PhyRate> {
        let ladder = Self::BG_LADDER;
        let idx = ladder.iter().position(|&r| r == self)?;
        ladder.get(idx + 1).copied()
    }
}

impl fmt::Display for PhyRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.centi_mbps();
        if c.is_multiple_of(10) {
            write!(f, "{} Mbps", c / 10)
        } else {
            write!(f, "{}.{} Mbps", c / 10, c % 10)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centi_roundtrip() {
        for r in PhyRate::BG_LADDER {
            assert_eq!(PhyRate::from_centi_mbps(r.centi_mbps()), Some(r));
        }
        assert_eq!(PhyRate::from_centi_mbps(0), None);
        assert_eq!(PhyRate::from_centi_mbps(111), None);
    }

    #[test]
    fn modulation_classes() {
        assert_eq!(PhyRate::R1.modulation(), Modulation::Dsss);
        assert_eq!(PhyRate::R11.modulation(), Modulation::Cck);
        assert_eq!(PhyRate::R54.modulation(), Modulation::Ofdm);
        assert!(PhyRate::R11.is_b_compatible());
        assert!(!PhyRate::R6.is_b_compatible());
    }

    #[test]
    fn ladder_is_sorted_and_complete() {
        let l = PhyRate::BG_LADDER;
        for w in l.windows(2) {
            assert!(w[0].kbps() < w[1].kbps());
        }
        assert_eq!(l.len(), PhyRate::B_RATES.len() + PhyRate::G_RATES.len());
    }

    #[test]
    fn step_up_down_are_inverse() {
        for r in PhyRate::BG_LADDER {
            if let Some(up) = r.step_up() {
                assert_eq!(up.step_down(), Some(r));
            }
            if let Some(down) = r.step_down() {
                assert_eq!(down.step_up(), Some(r));
            }
        }
        assert_eq!(PhyRate::R1.step_down(), None);
        assert_eq!(PhyRate::R54.step_up(), None);
    }

    #[test]
    fn snr_thresholds_monotone_within_family() {
        for fam in [&PhyRate::B_RATES[..], &PhyRate::G_RATES[..]] {
            for w in fam.windows(2) {
                assert!(
                    w[0].snr_threshold_decidb() < w[1].snr_threshold_decidb(),
                    "{:?} vs {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn ofdm_symbol_bits() {
        assert_eq!(PhyRate::R54.ofdm_bits_per_symbol(), Some(216));
        assert_eq!(PhyRate::R6.ofdm_bits_per_symbol(), Some(24));
        assert_eq!(PhyRate::R11.ofdm_bits_per_symbol(), None);
    }

    #[test]
    fn display_fractional() {
        assert_eq!(PhyRate::R5_5.to_string(), "5.5 Mbps");
        assert_eq!(PhyRate::R54.to_string(), "54 Mbps");
    }
}
