//! The benchmark's only view of the host clock: a stopwatch for
//! end-to-end timings and an in-memory span recorder for the traced run.
// tidy:allow-file(wall-clock): the benchmark harness measures wall time by design, exactly as crates/bench does; nothing timed here feeds pipeline output

use crate::report::Json;
use std::time::Instant;

/// Elapsed wall time since [`Stopwatch::start`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-boundary name (`core.unify`, `trace.decode`, …).
    name: &'static str,
    /// Start, µs since the trace began.
    start_us: u64,
    /// End, µs since the trace began (0 while still open).
    end_us: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

/// An open span's handle; pass it back to [`Trace::exit`].
#[derive(Debug)]
pub struct SpanId(usize);

/// Spans of one traced run, kept in memory and written out at the end.
/// Every span of a run carries the run's workload name as its shared
/// identifier.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace for one workload's traced run.
    pub fn new(workload: &str) -> Self {
        Trace {
            t0: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span (it must be the innermost open one) and returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost-first");
        let end = self.now_us();
        let span = &mut self.spans[id.0];
        span.end_us = end;
        (end - span.start_us) as f64 / 1e6
    }

    /// Total seconds spent in closed spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e6)
            .sum()
    }

    /// A span's self time: its duration minus what its child spans cover.
    fn self_s(&self, index: usize) -> f64 {
        let s = &self.spans[index];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(index))
            .map(|c| c.end_us - c.start_us)
            .sum();
        (s.end_us - s.start_us).saturating_sub(children) as f64 / 1e6
    }

    /// The spans as a JSON array (one workload's entry in `trace.json`):
    /// name, start and end in µs, parent (an index into this array) or
    /// null, self time, and the workload identifier.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::Int(i as u64)),
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Int(s.start_us)),
                        ("end_us", Json::Int(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("self_s", Json::Num(self.self_s(i))),
                        ("workload", Json::str(&self.workload)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Trace::new("w");
        let outer = t.enter("outer");
        let a = t.enter("inner");
        t.exit(a);
        let b = t.enter("inner");
        t.exit(b);
        t.exit(outer);
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_us >= spans[2].end_us);
        let inner = t.total_s("inner");
        assert!((t.self_s(0) + inner - t.total_s("outer")).abs() < 1e-9);
        let json = t.to_json().to_string();
        assert!(json.contains("\"workload\": \"w\""));
        assert!(json.contains("\"parent\": null"));
    }
}
