//! Fixtures more than one integration test builds.

use jigsaw_core::unify::MergeStats;
use jigsaw_core::JFrame;
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_trace::PhyStatus;

/// Length of the skewed-rate day: several bootstrap windows, so steady-state
/// residency — not the bootstrap accumulation — is what a bound sees.
const SKEWED_DAY_US: u64 = 40_000_000;

/// A longer tiny day where one radio keeps every capture and the rest keep
/// one in 25: sparse radios beside a busy one.
pub fn skewed_tiny(seed: u64) -> SimOutput {
    let mut out = ScenarioConfig {
        day_us: SKEWED_DAY_US,
        ..ScenarioConfig::tiny(seed)
    }
    .run();
    for trace in out.traces.iter_mut().skip(1) {
        let mut k = 0u32;
        trace.retain(|_| {
            k += 1;
            k % 25 == 1
        });
    }
    out
}

/// The merge's conservation law over a full (unwindowed) run's emitted
/// stream: every event merged is one instance of one jframe, and every
/// corrupt attachment is one FCS-error instance of a valid jframe.
#[derive(Debug, Default)]
pub struct Conservation {
    instances: u64,
    corrupt_held: u64,
}

impl Conservation {
    /// Folds the next emitted jframe.
    pub fn observe(&mut self, jf: &JFrame) {
        self.instances += jf.instance_count() as u64;
        if jf.valid {
            let corrupt = jf
                .instances
                .iter()
                .filter(|i| i.status == PhyStatus::FcsError);
            self.corrupt_held += corrupt.count() as u64;
        }
    }

    /// Both equalities against the run's counters; `Err` names the first
    /// that fails.
    pub fn check(&self, stats: &MergeStats) -> Result<(), String> {
        if stats.events_in != self.instances {
            return Err(format!(
                "events_in {} != {} instances emitted",
                stats.events_in, self.instances
            ));
        }
        if stats.corrupt_attached != self.corrupt_held {
            return Err(format!(
                "corrupt_attached {} != {} FCS-error instances in valid jframes",
                stats.corrupt_attached, self.corrupt_held
            ));
        }
        Ok(())
    }
}
