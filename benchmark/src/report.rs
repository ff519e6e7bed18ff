//! What the benchmark reports: the metric catalogue (the same names,
//! units, directions and bounds `BENCHMARK.json` declares — a unit test
//! holds the two together) and a small JSON writer for the result lines.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value; `Display` writes it on one line, [`Json::pretty`]
/// indented. (No serde in the offline dependency set.)
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A measured number, written with all its digits (non-finite → `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of measured numbers.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    fn write(&self, f: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        // `indent = None` is the one-line form; `Some(depth)` breaks
        // objects and arrays of objects across lines.
        let newline = |f: &mut dyn fmt::Write, depth: usize| -> fmt::Result {
            f.write_char('\n')?;
            (0..depth).try_for_each(|_| f.write_str("  "))
        };
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                let nested = indent.filter(|_| items.iter().any(|i| matches!(i, Json::Obj(_))));
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(if nested.is_some() { "," } else { ", " })?;
                    }
                    if let Some(d) = nested {
                        newline(f, d + 1)?;
                    }
                    item.write(f, nested.map(|d| d + 1))?;
                }
                if let Some(d) = nested {
                    newline(f, d)?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(if indent.is_some() { "," } else { ", " })?;
                    }
                    if let Some(d) = indent {
                        newline(f, d + 1)?;
                    }
                    Json::str(k).write(f, None)?;
                    f.write_str(": ")?;
                    v.write(f, indent.map(|d| d + 1))?;
                }
                if let Some(d) = indent.filter(|_| !pairs.is_empty()) {
                    newline(f, d)?;
                }
                f.write_char('}')
            }
        }
    }

    /// The value indented across lines, for people.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(0)).expect("writing to a String");
        s
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, exactly as reported and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the baseline median the metric may
    /// worsen by before it counts as a regression.
    pub bound: Option<f64>,
    /// End-to-end: what it is. Per-layer: which calls are timed, and
    /// which end-to-end metric on which workload it should move.
    pub note: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, note: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

/// The end-to-end metrics, measured from outside the `repro` process
/// with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "wall_s",
        "s",
        0.12,
        "median over passes of one pass's wall time, child spawn to exit",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        0.10,
        "median over passes of the largest child VmHWM in the pass",
    ),
    e2e(
        "setup_s",
        "s",
        0.25,
        "median over set-ups of simulate + record the corpus + the reference pass",
    ),
];

const DAY_TRIAGE: &str = "wall_s on day_triage";
const FLOWS: &str = "wall_s on flows_sharded";
const DIVES: &str = "wall_s on window_dives";
const TAIL: &str = "wall_s on live_tail";

/// The per-layer metrics of the traced run, each layer timed in isolation
/// over materialised inputs, with the end-to-end metric it should move.
pub const PER_LAYER: &[Metric] = &[
    layer("sim.run_s", "s", "lower", "ScenarioSpec::run for the workload's corpus -> setup_s"),
    layer("trace.write_s", "s", "lower", "record_corpus (compress + index + digest) -> setup_s"),
    layer("trace.write_mb_s", "MB/s", "higher", "corpus bytes on disk / trace.write_s -> setup_s"),
    layer("trace.open_s", "s", "lower", "Corpus::open + sources (156 index reads on DAY) -> wall_s on window_dives (x windows), ~nil elsewhere"),
    layer("trace.digest_s", "s", "lower", "Corpus::verify_digest over the whole corpus -> wall_s on window_dives (x windows)"),
    layer("trace.decode_s", "s", "lower", DAY_TRIAGE),
    layer("trace.decode_events", "count", "higher", "events drained from every RadioTraceSource::open_stream (= corpus events)"),
    layer("trace.decode_mb_in", "MB", "lower", "disk bytes read by the full decode"),
    layer("trace.decode_allocs_per_event", "1/event", "lower", "allocator calls per decoded event"),
    layer("trace.seek_s", "s", "lower", DIVES),
    layer("trace.seek_mb_in", "MB", "lower", "disk bytes read by open_stream_range over every window"),
    layer("trace.seek_useful_share", "share", "higher", "in-window events / events the windowed streams yield (warm-up and slack are the rest)"),
    layer("trace.tail_decode_s", "s", "lower", TAIL),
    layer("core.sync.bootstrap_s", "s", "lower", DIVES),
    layer("core.sync.bootstrap_events", "count", "higher", "events in the t=0 and mid-trace bootstrap windows"),
    layer("core.unify_s", "s", "lower", "wall_s on day_triage and live_tail; little on flows_sharded"),
    layer("core.unify_ns_per_event", "ns/event", "lower", "core.unify_s / trace.decode_events"),
    layer("core.unify_jframes", "count", "higher", "jframes out of the serial merge"),
    layer("core.unify_peak_buffered", "count", "lower", "MergeStats::peak_buffered of the serial merge -> peak_rss_mb"),
    layer("core.unify_allocs_per_event", "1/event", "lower", "allocator calls per merged event"),
    layer("core.shard_s", "s", "lower", FLOWS),
    layer("core.shard_speedup", "x", "higher", "core.unify_s / core.shard_s at the workload's thread count (base: serial merge, same inputs)"),
    layer("core.shard_peak_buffered", "count", "lower", "summed per-shard peak_buffered -> peak_rss_mb on flows_sharded"),
    layer("core.link.attempt_s", "s", "lower", FLOWS),
    layer("core.link.attempts", "count", "higher", "attempts assembled from the jframes"),
    layer("core.link.exchange_s", "s", "lower", FLOWS),
    layer("core.link.exchanges", "count", "higher", "exchanges assembled from the attempts"),
    layer("core.transport_s", "s", "lower", FLOWS),
    layer("core.transport_flows", "count", "higher", "flows reconstructed from the exchanges"),
    layer("analysis.suite_s", "s", "lower", "sum of the four rows below -> wall_s on flows_sharded, then day_triage"),
    layer("analysis.on_jframe_s", "s", "lower", FLOWS),
    layer("analysis.on_attempt_s", "s", "lower", FLOWS),
    layer("analysis.on_exchange_s", "s", "lower", FLOWS),
    layer("analysis.finish_s", "s", "lower", "on_flows + Suite::finish + records -> wall_s on flows_sharded"),
    layer("analysis.records", "count", "higher", "machine records the suite produced"),
    layer("diagnose.scan_s", "s", "lower", "coarse whole-corpus figure pass -> wall_s on day_triage"),
    layer("diagnose.dive_s", "s", "lower", "time inside the WindowAnalyzer (windowed re-analyses) -> wall_s on day_triage"),
    layer("diagnose.windows", "count", "lower", "distinct deep-dive windows re-analyzed"),
    layer("diagnose.incidents", "count", "higher", "confirmed incidents"),
    layer("live.merge_s", "s", "lower", "LiveMerger over 4096 B ChunkedFileTails, no-op sink -> wall_s and peak_rss_mb on live_tail"),
    layer("live.peak_buffered", "count", "lower", "peak events buffered in the live merger -> peak_rss_mb on live_tail"),
    layer("live.lag_p50_us", "us", "lower", "median emission lag behind the safe horizon (trace time)"),
    layer("live.lag_p99_us", "us", "lower", "p99 emission lag behind the safe horizon (trace time)"),
    layer("live.late_dropped", "count", "lower", "events dropped as late across sources"),
    layer("live.reanchors", "count", "lower", "re-anchors applied"),
    layer("core.pipeline_streamed_s", "s", "lower", "in-process Pipeline::run(corpus sources, suite) + Suite::finish"),
    layer("core.pipeline_stage_sum_s", "s", "lower", "decode + t=0 bootstrap + unify + link + transport + suite rows"),
    layer("core.pipeline_coverage", "share", "higher", "stage_sum / streamed; sanity, expected in [0.85, 1.15]"),
    layer("proc.cpu_s", "s", "lower", "child user+system CPU of one end-to-end pass; context for wall_s on flows_sharded"),
    layer("proc.wall_s", "s", "lower", "wall time of that same pass, run beside the tracer"),
    layer("record_drift_lines", "count", "lower", "machine lines of that pass differing from the reference; 0 or the run is not correct"),
    layer("fail_share", "share", "lower", "operations failed / attempted in that pass; 0 or the run is not correct"),
];

/// Measured values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records a value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{name: {"value": v, "unit": u}}` for every metric of `catalogue`,
    /// in catalogue order. Panics if one was never measured — a hole in
    /// the benchmark, not in the program under test.
    pub fn to_json(&self, catalogue: &[Metric]) -> Json {
        Json::obj(catalogue.iter().map(|m| {
            let v = self
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was never measured", m.name));
            (
                m.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
            )
        }))
    }
}

/// The one-line result object the benchmark contract asks for.
pub fn contract_line(attempted: u64, failed: u64, correct: bool, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", metrics),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_one_line_and_escaping() {
        let j = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::Num(1.25)),
            ("c", Json::str("q\"\\\n")),
            ("d", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("e", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": 1, "b": 1.25, "c": "q\"\\\u000a", "d": [null, true], "e": null}"#
        );
        assert!(!j.to_string().contains('\n'));
        assert!(j.pretty().contains("\n  \"a\": 1,"));
        assert_eq!(Json::obj::<&str>([]).pretty(), "{}");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).to_string(), "3");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut v = Values::default();
        for m in END_TO_END {
            v.set(m.name, 1.5);
        }
        let line = contract_line(0, 0, true, v.to_json(END_TO_END));
        assert!(line.starts_with(r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}"#));
        assert!(!line.contains('\n'));
    }

    /// `BENCHMARK.json` and the catalogue name the same metrics with the
    /// same units, directions and bounds, and the same four workloads.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let mut declared = 0;
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            declared += 1;
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            declared,
            "extra metric in BENCHMARK.json"
        );
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for w in crate::workload::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"why\":").count(),
            crate::workload::WORKLOADS.len()
        );
    }
}
