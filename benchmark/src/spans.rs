//! The benchmark's span recorder.
//!
//! Spans are recorded in benchmark code around each call into a layer's
//! public functions (no tracing is added inside `crates/`). They live in a
//! pre-allocated vector, nest by call order on one thread, and are written
//! out as Chrome trace JSON when the run ends. A layer's self time is its
//! span's duration minus the part covered by its child spans.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a span that has none.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`engine.ingest`, `ilp.solve`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: u32,
    /// Identifier shared by the spans of one request: the input tuple's
    /// index for per-tuple spans, 0 for structural ones.
    pub root: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Recorder::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// In-memory span recorder. A disabled recorder reduces `begin`/`end` to
/// one branch, so the untraced pass runs the same code.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl Recorder {
    /// A recorder with room for `capacity` spans (pre-allocated, so
    /// recording does not allocate while allocations are being counted).
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::with_capacity(16),
            enabled,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, root: u64) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            root,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Closes a span; spans close in the reverse order they were opened.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.begin(name, 0);
        let out = f(self);
        self.end(id);
        out
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the duration of its direct
    /// children (children of one span never overlap: one thread, strict
    /// nesting).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Count, total, self time and maximum per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
            t.max_ns = t.max_ns.max(span.duration_ns());
        }
        out
    }

    /// Sum of all self times divided by the summed duration of the
    /// parentless spans: 1.0 when the span tree is consistent.
    pub fn coverage(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::duration_ns)
            .sum();
        if roots == 0 {
            return 0.0;
        }
        self.self_times().iter().sum::<u64>() as f64 / roots as f64
    }

    /// Renders the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). Every structural span is written; per-tuple spans
    /// (`root != 0`) are thinned to at most `max_per_tuple` evenly spaced
    /// ones so the file stays loadable.
    pub fn chrome_trace_json(&self, max_per_tuple: usize) -> String {
        let per_tuple = self.spans.iter().filter(|s| s.root != 0).count();
        let stride = per_tuple.div_ceil(max_per_tuple.max(1)).max(1);
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut seen_per_tuple = 0usize;
        for span in &self.spans {
            if span.root != 0 {
                seen_per_tuple += 1;
                if !(seen_per_tuple - 1).is_multiple_of(stride) {
                    continue;
                }
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"root\":{}}}}}",
                json::string(span.name),
                json::number(span.start_ns as f64 / 1e3),
                json::number(span.duration_ns() as f64 / 1e3),
                span.root
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_plus_self_equal_the_parent() {
        let mut rec = Recorder::new(true, 16);
        let root = rec.begin("workload", 0);
        busy(200_000);
        rec.scope("setup", |rec| {
            busy(100_000);
            rec.scope("ilp.solve", |_| busy(300_000));
        });
        let t = rec.begin("engine.ingest", 7);
        busy(50_000);
        rec.end(t);
        rec.end(root);

        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, 1, "ilp.solve is a child of setup");
        assert_eq!(spans[3].root, 7);
        let own = rec.self_times();
        // Parent duration = own self time + direct children, exactly.
        assert_eq!(
            spans[0].duration_ns(),
            own[0] + spans[1].duration_ns() + spans[3].duration_ns()
        );
        assert_eq!(spans[1].duration_ns(), own[1] + spans[2].duration_ns());
        assert!(own[0] >= 200_000 && own[1] >= 100_000 && own[2] >= 300_000);
        assert!((rec.coverage() - 1.0).abs() < 1e-9);

        let totals = rec.totals();
        assert_eq!(totals["ilp.solve"].count, 1);
        assert_eq!(totals["setup"].self_ns, own[1]);
        assert_eq!(totals["workload"].total_ns, spans[0].duration_ns());
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, 1_000);
        let id = rec.begin("x", 1);
        rec.end(id);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.coverage(), 0.0);
    }

    #[test]
    fn chrome_trace_parses_and_thins_per_tuple_spans() {
        let mut rec = Recorder::new(true, 64);
        let root = rec.begin("measure", 0);
        for i in 1..=40 {
            let id = rec.begin("engine.ingest", i);
            rec.end(id);
        }
        rec.end(root);
        let doc = parse(&rec.chrome_trace_json(10)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 1 + 10);
        for event in events {
            assert_eq!(event.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(event.get("dur").and_then(|d| d.as_f64()).is_some());
        }
    }
}
