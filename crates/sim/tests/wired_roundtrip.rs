//! The `wired.jigw` encoding stores each MSDU's headers only. That is
//! lossless only while the packet parsers recover every field of every
//! record the simulator can produce from the snapped bytes, so the property
//! is checked over whole simulated worlds: `decode(encode(w)) == w` for the
//! tiny scenario and every sweep-matrix scenario, at a size per record that
//! shows the zero-fill is really gone.

use jigsaw_ieee80211::MacAddr;
use jigsaw_sim::output::SimOutput;
use jigsaw_sim::scenario::ScenarioConfig;
use jigsaw_sim::spec::ScenarioSpec;
use jigsaw_sim::wired::{decode_wired_trace, encode_wired_trace};

const SEED: u64 = 20060124;

fn assert_roundtrip(name: &str, out: &SimOutput) {
    assert!(!out.wired.is_empty(), "{name}: no wired traffic to check");
    let ap_addr = |sid: u16| -> MacAddr { out.stations[usize::from(sid)].addr };
    let bytes = encode_wired_trace(&out.wired, &ap_addr);
    let (records, aps) = decode_wired_trace(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(records == out.wired, "{name}: records changed in roundtrip");
    for (&sid, &addr) in &aps {
        assert_eq!(addr, ap_addr(sid), "{name}: AP {sid}");
    }
    let per_record = bytes.len() / out.wired.len();
    assert!(
        per_record < 200,
        "{name}: {per_record} B/record — payload zero-fill is being stored"
    );
}

#[test]
fn tiny_world_wired_trace_roundtrips_headers_only() {
    for seed in [SEED, 7, 11] {
        assert_roundtrip("tiny", &ScenarioConfig::tiny(seed).run());
    }
}

#[test]
fn every_sweep_world_wired_trace_roundtrips_headers_only() {
    let matrix = ScenarioSpec::sweep_matrix();
    assert_eq!(matrix.len(), 6);
    for spec in matrix {
        assert_roundtrip(&spec.name, &spec.run(SEED));
    }
}
