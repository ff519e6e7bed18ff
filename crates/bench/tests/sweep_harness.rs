//! Property tests for the sweep harness:
//!
//! * **Seed determinism** — any composition of scenario perturbations
//!   (roaming, hidden terminals, co-channel re-allocation, churn, QoS mix)
//!   simulated twice under the same seed records byte-identical corpora
//!   (same corpus digest). This is the precondition for golden files: a
//!   scenario that is not a pure function of (spec, seed) cannot be pinned.
//! * **Dual-layout survival** — every scenario of the shipped sweep matrix
//!   survives record → merge verification at both layouts: the disk-backed
//!   serial and channel-sharded merges reproduce the in-memory serial
//!   jframe stream exactly.

use jigsaw_bench::sweep::SWEEP_SEED;
use jigsaw_bench::{agree, record_corpus, sharded_config, CorpusSession, StreamDigest};
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_sim::scenario::{ScenarioConfig, TruthConfig};
use jigsaw_sim::spec::{CoChannel, HiddenTerminals, QosMix, Roaming, ScenarioSpec, SessionChurn};
use proptest::prelude::*;
use std::path::PathBuf;

/// A spec with an arbitrary subset of the five perturbations enabled, on
/// a deliberately small base (3 s, 2 pods) so property cases stay cheap.
fn spec_from_mask(mask: u8) -> ScenarioSpec {
    let base = ScenarioConfig {
        day_us: 3_000_000,
        n_pods: 2,
        n_aps: 2,
        n_clients: 4,
        truth: TruthConfig::Off,
        ..ScenarioConfig::tiny(0)
    };
    let mut spec = ScenarioSpec::plain(&format!("prop_{mask:02x}"), base);
    if mask & 1 != 0 {
        spec.roaming = Some(Roaming {
            roamers: 2,
            dwell_us: 900_000,
        });
    }
    if mask & 2 != 0 {
        spec.hidden = Some(HiddenTerminals { pairs: 1 });
    }
    if mask & 4 != 0 {
        spec.cochannel = Some(CoChannel {
            channel: 6,
            realloc_at_us: Some(1_500_000),
        });
    }
    if mask & 8 != 0 {
        spec.churn = Some(SessionChurn {
            off_at_us: 1_200_000,
            on_at_us: 2_000_000,
        });
    }
    if mask & 16 != 0 {
        spec.qos = Some(QosMix {
            bulk: 2,
            interactive: 1,
        });
    }
    spec
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jigsaw_sweep_prop_{}_{tag}", std::process::id()))
}

/// Simulates the spec and records it, returning the corpus digest.
fn corpus_digest_of(spec: &ScenarioSpec, seed: u64, tag: &str) -> String {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let out = spec.run(seed);
    let summary =
        record_corpus(&out, &dir, &spec.name, seed, 1.0, 65_535, 4096).expect("record corpus");
    let _ = std::fs::remove_dir_all(&dir);
    summary.digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn any_spec_is_seed_deterministic(mask in 0u8..32, seed in 1u64..10_000) {
        let spec = spec_from_mask(mask);
        let a = corpus_digest_of(&spec, seed, &format!("{mask}_{seed}_a"));
        let b = corpus_digest_of(&spec, seed, &format!("{mask}_{seed}_b"));
        prop_assert_eq!(a, b, "spec {} not deterministic under seed {}", spec.name, seed);
    }
}

#[test]
fn matrix_scenarios_survive_record_and_dual_driver_merge() {
    let root = scratch_dir("matrix");
    let _ = std::fs::remove_dir_all(&root);
    for spec in ScenarioSpec::sweep_matrix() {
        let out = spec.run(SWEEP_SEED);
        let dir = root.join(&spec.name);
        let summary = record_corpus(&out, &dir, &spec.name, SWEEP_SEED, 1.0, 65_535, 4096)
            .expect("record corpus");
        assert!(summary.events > 0, "{}: empty corpus", spec.name);

        // The reference stream: in-memory serial merge.
        let mut mem = StreamDigest::new();
        Pipeline::merge_only(out.memory_streams(), &PipelineConfig::default(), &mut mem)
            .expect("in-memory merge");
        let mem = mem.ordered();
        assert!(mem.count > 0, "{}: no jframes", spec.name);
        let (sharded_cfg, shards) = sharded_config(&out.radio_meta);
        assert!(
            shards >= 2,
            "{}: the sharded leg would be vacuous",
            spec.name
        );
        drop(out);

        // Opening the session checks the corpus digest.
        let session = CorpusSession::open(&dir).expect("open corpus");
        for (layout, cfg) in [
            ("serial", &PipelineConfig::default()),
            ("sharded", &sharded_cfg),
        ] {
            let mut disk = StreamDigest::new();
            session
                .merge(None, cfg, |jf| disk.observe(jf))
                .expect("merge");
            let legs = [("in-memory serial", mem.clone()), ("disk", disk.ordered())];
            if let Err(e) = agree(&legs) {
                panic!("{} {layout}: {e}", spec.name);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
