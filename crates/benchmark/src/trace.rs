//! Benchmark-side spans around the calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only (no clock is
//! added to any other crate), kept in memory, and written once at exit as
//! Chrome trace-event JSON. A layer's seconds are its spans' *self* time:
//! duration minus the part its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The metric this span feeds (or a phase name).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
#[must_use = "an open span must be ended"]
pub struct Open(usize);

/// An in-memory span log for one workload run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Shared by every span of the run: workload and seed.
    run_id: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: String) -> Tracer {
        Tracer {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `span` and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not the innermost open span (a benchmark bug).
    pub fn end(&mut self, span: Open) -> f64 {
        assert_eq!(self.stack.pop(), Some(span.0), "spans must nest");
        let end_ns = self.now_ns();
        let s = &mut self.spans[span.0];
        s.end_ns = end_ns;
        (end_ns - s.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let span = self.begin(name);
        let out = f(self);
        self.end(span);
        out
    }

    /// All closed spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds per span name: each span's duration minus its direct
    /// children's, summed over spans sharing a name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Self seconds of `name` (0 when no such span was recorded).
    pub fn self_seconds_of(&self, name: &str) -> f64 {
        self.self_seconds().get(name).copied().unwrap_or(0.0)
    }

    /// The log as Chrome trace-event JSON (complete `X` events on one
    /// track, microsecond timestamps), loadable in Perfetto.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("gxbench")),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("run", Json::str(self.run_id.clone())),
                            ("span", Json::Num(i as f64)),
                            ("parent", parent),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: root [0, 100], a [10, 40] holding
    /// a1 [15, 25], and a second a [50, 70].
    fn fixture() -> Tracer {
        let mut t = Tracer::new("w#1".into());
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
        };
        t.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("a", 50, 70, Some(0)),
        ];
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let own = fixture().self_seconds();
        assert_eq!(own["root"], 50e-9); // 100 - 30 - 20
        assert_eq!(own["a"], 40e-9); // (30 - 10) + 20
        assert_eq!(own["a1"], 10e-9);
        assert_eq!(fixture().self_seconds_of("absent"), 0.0);
    }

    #[test]
    fn live_spans_nest_and_export() {
        let mut t = Tracer::new("clean_sw#7".into());
        t.scope("outer", |t| {
            t.scope("inner", |_| std::hint::black_box(0));
        });
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let doc = Json::parse(&t.chrome_trace().to_string()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("run").unwrap().as_str(), Some("clean_sw#7"));
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn ending_an_outer_span_first_panics() {
        let mut t = Tracer::new("x".into());
        let outer = t.begin("outer");
        let _inner = t.begin("inner");
        t.end(outer);
    }
}
