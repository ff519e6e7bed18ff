//! Per-radio clock state during merging (paper §4.2, "clock adjustment" and
//! "managing skew and drift").
//!
//! Universal time is defined as `local - offset(local)` where the offset
//! evolves: every time unification identifies this radio's instance of a
//! unique frame, the difference between the instance's adjusted timestamp
//! and the jframe's median timestamp is applied as a correction. Between
//! corrections, the radio's measured skew — smoothed with an exponentially
//! weighted moving average to absorb drift — proactively extrapolates the
//! offset, which is what keeps radios synchronized across the quiet gaps
//! (rarely over ~100 ms, the beacon period) in which they share no frames.

use jigsaw_ieee80211::Micros;

/// Clock translation state for one radio.
#[derive(Debug, Clone)]
pub struct ClockState {
    /// Offset at the reference point: `universal = local - offset`.
    offset: f64,
    /// Local time of the last correction (skew extrapolation reference).
    ref_local: f64,
    /// EWMA-smoothed skew estimate, ppm (local runs fast when positive).
    skew_ppm: f64,
    /// EWMA weight for new skew measurements.
    alpha: f64,
    /// Total absolute correction applied, µs (stat).
    pub total_abs_correction_us: f64,
}

impl ClockState {
    /// Creates clock state from the bootstrap offset (µs), referenced at
    /// local time 0.
    pub fn new(offset_us: i64, alpha: f64) -> Self {
        Self::new_at(offset_us, alpha, 0)
    }

    /// Creates clock state from a bootstrap offset estimated at local time
    /// `ref_local` — the seed a windowed replay uses, so that the first
    /// correction's skew measurement spans "time since the window's
    /// bootstrap", not "time since an arbitrary local epoch".
    pub fn new_at(offset_us: i64, alpha: f64, ref_local: Micros) -> Self {
        ClockState {
            offset: offset_us as f64,
            ref_local: ref_local as f64,
            skew_ppm: 0.0,
            alpha,
            total_abs_correction_us: 0.0,
        }
    }

    /// The current skew estimate (ppm).
    pub fn skew_ppm(&self) -> f64 {
        self.skew_ppm
    }

    /// The offset that would apply at `local` (µs).
    pub fn offset_at(&self, local: Micros) -> f64 {
        self.offset + (local as f64 - self.ref_local) * self.skew_ppm * 1e-6
    }

    /// Translates a local timestamp to universal time, extrapolating the
    /// offset with the skew prediction.
    pub fn to_universal(&self, local: Micros) -> Micros {
        let u = local as f64 - self.offset_at(local);
        u.round().max(0.0) as Micros
    }

    /// Applies a correction derived from unification: the instance's
    /// adjusted timestamp exceeded the jframe median by `error_us`
    /// (signed). Also feeds the skew EWMA with the implied rate.
    pub fn correct(&mut self, error_us: f64, local: Micros) {
        let local_f = local as f64;
        let elapsed = local_f - self.ref_local;
        // Move the offset so this instance would have landed on the median,
        // and re-reference at the current local time.
        let new_offset = self.offset_at(local) + error_us;
        if elapsed > 1_000.0 {
            // The error accumulated over `elapsed` measures residual skew
            // beyond the current prediction.
            let resid_ppm = error_us / elapsed * 1e6;
            let measured = self.skew_ppm + resid_ppm;
            self.skew_ppm = (1.0 - self.alpha) * self.skew_ppm + self.alpha * measured;
            // Clamp to the plausible oscillator range (±200 ppm).
            self.skew_ppm = self.skew_ppm.clamp(-200.0, 200.0);
        }
        self.offset = new_offset;
        self.ref_local = local_f;
        self.total_abs_correction_us += error_us.abs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_without_offset() {
        let c = ClockState::new(0, 0.1);
        assert_eq!(c.to_universal(12345), 12345);
    }

    #[test]
    fn constant_offset() {
        let c = ClockState::new(1_000_000, 0.1);
        assert_eq!(c.to_universal(1_500_000), 500_000);
    }

    #[test]
    fn correction_moves_translation() {
        let mut c = ClockState::new(0, 0.1);
        // Our instance was 8 µs later than the median → we run 8 µs fast.
        c.correct(8.0, 1_000_000);
        assert_eq!(c.to_universal(1_000_000), 1_000_000 - 8);
    }

    #[test]
    fn skew_learned_from_repeated_corrections() {
        // A clock gaining 50 ppm: after enough corrections the EWMA should
        // track it and the prediction error should shrink.
        let mut c = ClockState::new(0, 0.2);
        let skew = 50e-6;
        let mut last_err: f64 = f64::MAX;
        for k in 1..=50u64 {
            let local = k * 100_000; // every 100 ms
            let true_universal = (local as f64) / (1.0 + skew);
            let predicted = c.to_universal(local) as f64;
            let err = predicted - true_universal;
            if k > 40 {
                assert!(
                    err.abs() < 3.0,
                    "prediction error {err} µs at step {k} (skew not learned)"
                );
            }
            c.correct(err, local);
            last_err = err;
        }
        assert!(last_err.abs() < 3.0);
        assert!((c.skew_ppm() - 50.0).abs() < 15.0, "skew {}", c.skew_ppm());
    }

    #[test]
    fn drift_tracked_by_ewma() {
        // Skew slowly changes from 20 to 40 ppm; EWMA should follow.
        let mut c = ClockState::new(0, 0.2);
        let mut local = 0u64;
        for k in 0..200u64 {
            local += 100_000;
            let skew_now = 20.0 + 20.0 * (k as f64 / 200.0);
            // Error per interval at the *current* true skew minus prediction.
            let err = (skew_now - c.skew_ppm()) * 1e-6 * 100_000.0;
            c.correct(err, local);
        }
        assert!((c.skew_ppm() - 40.0).abs() < 5.0, "skew {}", c.skew_ppm());
    }

    #[test]
    fn skew_clamped() {
        let mut c = ClockState::new(0, 1.0);
        c.correct(1_000_000.0, 1_000_000); // absurd 1 s error over 1 s
        assert!(c.skew_ppm() <= 200.0);
    }
}
