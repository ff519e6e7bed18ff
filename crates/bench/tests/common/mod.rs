//! Fixtures more than one integration test builds.

use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::ScenarioConfig;

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
