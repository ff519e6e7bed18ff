//! End-to-end validation: the full Jigsaw pipeline run over synthetic
//! building traces, with the simulator's ground truth as the oracle the
//! real system never had.

use jigsaw_core::link::exchange::DeliveryStatus;
use jigsaw_core::observer::Collect;
use jigsaw_core::pipeline::{Pipeline, PipelineConfig};
use jigsaw_ieee80211::Subtype;
use jigsaw_sim::scenario::ScenarioConfig;
use std::collections::HashMap;

#[test]
fn pipeline_reconstructs_tiny_world() {
    let out = ScenarioConfig::tiny(7).run();
    let events_total = out.total_events();
    let streams = out.memory_streams();
    let cfg = PipelineConfig::default();
    let mut collect = Collect::default();
    let report = Pipeline::run(streams, &cfg, &mut collect).unwrap();
    let Collect { jframes, exchanges } = collect;

    // --- merge sanity ---
    assert_eq!(report.merge.events_in, events_total);
    assert!(report.merge.jframes_out > 0);
    assert_eq!(report.merge.jframes_out as usize, jframes.len());
    // Unification actually unified: fewer jframes than events.
    assert!(
        (report.merge.jframes_out as f64) < 0.8 * events_total as f64,
        "jframes {} vs events {}",
        report.merge.jframes_out,
        events_total
    );

    // --- unification correctness vs ground truth ---
    // Every truth transmission captured OK by ≥1 radio should appear as
    // exactly one valid jframe (± a small tolerance for unlucky splits).
    let valid_jframes = jframes.iter().filter(|j| j.valid).count();
    let truth_captured = out
        .truth
        .transmissions
        .iter()
        .filter(|t| !t.is_noise && t.captures > 0)
        .count();
    // Some captures are FCS-damaged everywhere, so valid_jframes may be a
    // bit below; duplicates would push it above.
    assert!(
        valid_jframes as f64 >= 0.7 * truth_captured as f64
            && (valid_jframes as f64) <= 1.1 * truth_captured as f64,
        "valid jframes {valid_jframes} vs captured transmissions {truth_captured}"
    );

    // --- synchronization quality (Figure 4 territory) ---
    let mut dispersions: Vec<u64> = jframes
        .iter()
        .filter(|j| j.instance_count() >= 2 && j.valid)
        .map(|j| j.dispersion)
        .collect();
    assert!(!dispersions.is_empty(), "no multi-instance jframes");
    dispersions.sort_unstable();
    let p90 = dispersions[dispersions.len() * 9 / 10];
    assert!(p90 <= 20, "90th percentile dispersion {p90} µs (want ≤ 20)");

    // --- link layer vs ground truth ---
    // Compare reconstructed exchanges against truth exchanges by
    // (transmitter, seq is not stored in truth exchanges — use counts).
    let truth_acked = out
        .truth
        .exchanges
        .iter()
        .filter(|x| x.acked && x.attempts > 0)
        .count();
    let rec_delivered = exchanges
        .iter()
        .filter(|x| x.delivery == DeliveryStatus::Delivered)
        .count();
    assert!(
        rec_delivered as f64 >= 0.8 * truth_acked as f64,
        "reconstructed delivered {rec_delivered} vs truth acked {truth_acked}"
    );

    // --- transport ---
    assert!(report.transport.flows > 0, "no TCP flows reconstructed");
    assert!(
        report.transport.established > 0,
        "no flows with complete handshakes"
    );
    let est = report.flows.iter().filter(|f| f.established).count();
    assert!(
        est as u64 >= out.stats.flows_opened / 2,
        "established {est} vs sim {}",
        out.stats.flows_opened
    );
}

#[test]
fn retry_exchanges_reconstructed() {
    // The small world has enough contention/interference for link retries.
    let out = ScenarioConfig::small(13).run();
    let streams = out.memory_streams();
    let mut collect = Collect::default();
    let report = Pipeline::run(streams, &PipelineConfig::default(), &mut collect).unwrap();
    let exchanges = collect.exchanges;

    let with_retries = exchanges.iter().filter(|x| x.retries() > 0).count();
    assert!(with_retries > 0, "no multi-attempt exchanges reconstructed");

    // The paper's §5.1 inference rates are sub-1%: ours should be low too.
    let attempts = report.link.attempts.max(1);
    let inf_rate = report.link.attempts_inferred as f64 / attempts as f64;
    assert!(inf_rate < 0.10, "attempt inference rate {inf_rate}");

    // Delivered + ambiguous should cover the unicast exchanges.
    assert!(report.link.delivered > 0);
}

#[test]
fn per_station_seq_continuity_in_exchanges() {
    // For each transmitter, reconstructed data exchanges should mostly have
    // consecutive sequence numbers (gaps mean the monitors missed MSDUs).
    let out = ScenarioConfig::tiny(29).run();
    let streams = out.memory_streams();
    let mut collect = Collect::default();
    Pipeline::run(streams, &PipelineConfig::default(), &mut collect).unwrap();
    let exchanges = collect.exchanges;

    let mut per_tx: HashMap<_, Vec<(u64, u16)>> = HashMap::new();
    for x in &exchanges {
        if x.subtype == Subtype::Data {
            if let Some(s) = x.seq {
                per_tx
                    .entry(x.transmitter)
                    .or_default()
                    .push((x.first_ts, s.value()));
            }
        }
    }
    let mut total = 0usize;
    let mut consecutive = 0usize;
    for (_, mut recs) in per_tx {
        // Exchanges close out of order (delivered ones close immediately);
        // judge continuity in transmission-time order.
        recs.sort_unstable();
        let seqs: Vec<u16> = recs.into_iter().map(|(_, s)| s).collect();
        for w in seqs.windows(2) {
            total += 1;
            let delta = (w[1] + 4096 - w[0]) % 4096;
            if delta <= 4 {
                consecutive += 1;
            }
        }
    }
    assert!(total > 10, "not enough data exchanges: {total}");
    assert!(
        consecutive as f64 / total as f64 > 0.8,
        "sequence continuity {consecutive}/{total}"
    );
}

#[test]
fn pipeline_deterministic() {
    let out = ScenarioConfig::tiny(55).run();
    let run = || {
        let mut collect = Collect::default();
        let report = Pipeline::run(
            out.memory_streams(),
            &PipelineConfig::default(),
            &mut collect,
        )
        .unwrap();
        (collect.jframes, collect.exchanges, report)
    };
    let (j1, x1, r1) = run();
    let (j2, x2, r2) = run();
    assert_eq!(j1.len(), j2.len());
    assert_eq!(x1.len(), x2.len());
    assert_eq!(r1.merge.resyncs, r2.merge.resyncs);
    assert_eq!(r1.transport.segments, r2.transport.segments);
    for (a, b) in j1.iter().zip(j2.iter()) {
        assert_eq!(a.ts, b.ts);
        assert_eq!(a.bytes, b.bytes);
    }
}

#[test]
fn jframe_stream_is_time_ordered() {
    let out = ScenarioConfig::tiny(31).run();
    let mut last = 0u64;
    let mut count = 0u64;
    Pipeline::run(
        out.memory_streams(),
        &PipelineConfig::default(),
        jigsaw_core::observer::OnJFrame(|jf: &jigsaw_core::JFrame| {
            assert!(jf.ts >= last, "jframe stream out of order");
            last = jf.ts;
            count += 1;
        }),
    )
    .unwrap();
    assert!(count > 100);
}
