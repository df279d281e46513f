//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer, into a preallocated vector that is written out once at exit. A
//! span is `(name, start, end, parent)`; spans of one chunk share the
//! chunk id. A layer's self time is its spans' busy time minus what their
//! direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;
/// The parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer stage, e.g. `layout.ingress_flatten`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Time the stage was actually running inside `start..end`. Equal to
    /// `end - start` except for the queue's push and pop, which interleave
    /// within one queue loop and are recorded as one span per chunk whose
    /// busy time is the sum over the chunk's individual operations.
    pub busy_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The chunk this span belongs to (the identifier its siblings share).
    pub chunk: u32,
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// traced and untraced replica are the same code.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans.
    pub fn on(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, chunk: u32) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            parent,
            chunk,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Records an aggregated child of `parent`: `busy_ns` of work spread
    /// over the parent's interval (see [`Span::busy_ns`]).
    pub fn aggregate(&mut self, name: &'static str, parent: SpanId, chunk: u32, busy_ns: u64) {
        if !self.enabled {
            return;
        }
        let p = &self.spans[parent as usize];
        let (start_ns, end_ns) = (p.start_ns, p.end_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            busy_ns,
            parent,
            chunk,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each span's busy time
    /// minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.busy_ns as i64).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.busy_ns as i64;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0u64) += own.max(0) as u64;
        }
        by_name
    }

    /// The trace as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"busy\":{},\"chunk\":{},\"parent\":",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.chunk
            );
            let _ = match s.parent {
                NO_PARENT => write!(out, "null}}"),
                parent => write!(out, "{parent}}}"),
            };
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::on(8);
        let run = t.begin("run", NO_PARENT, 0);
        let chunk = t.begin("chunk", run, 0);
        let stage = t.begin("stage", chunk, 0);
        t.end(stage);
        t.aggregate("op", stage, 0, 0);
        t.end(chunk);
        t.end(run);
        // Pin the durations so the arithmetic is exact.
        for (i, busy) in [(0, 100u64), (1, 80), (2, 50), (3, 20)] {
            t.spans[i].busy_ns = busy;
        }
        let own = t.self_times();
        assert_eq!(own["run"], 20);
        assert_eq!(own["chunk"], 30);
        assert_eq!(own["stage"], 30);
        assert_eq!(own["op"], 20);
        let total: u64 = own.values().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("x", NO_PARENT, 0);
        t.end(s);
        t.aggregate("y", s, 0, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn emitted_trace_parses() {
        let mut t = Tracer::on(4);
        let run = t.begin("run", NO_PARENT, 0);
        let c = t.begin("chunk", run, 1);
        t.end(c);
        t.end(run);
        let doc = crate::json::parse(&t.to_json("w")).expect("trace JSON parses");
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Json::Null));
    }
}
