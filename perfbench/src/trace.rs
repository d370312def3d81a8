//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start and end (µs since the recorder's origin),
//! its parent span and the request it belongs to. Spans stay in memory
//! and are written out as JSON lines when the run ends. Where a layer's
//! boundary lies inside a single public call (the planner and executor
//! inside `evaluate_prepared`, the queue inside `wait`), the child span
//! is placed from the phase durations of the call's `QueryProfile`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `automata.compile`.
    pub name: &'static str,
    /// Start, µs since the recorder's origin.
    pub start_us: f64,
    /// End, µs since the recorder's origin.
    pub end_us: f64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

/// An in-memory span recorder; disabled recorders drop every span.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant, on: bool) -> Self {
        Self {
            origin,
            on,
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span timed by two clock reads; returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let (s, e) = (self.us(start), self.us(end));
        self.span_us(name, s, e, parent, request)
    }

    /// Records a span placed in µs; returns its index.
    pub fn span_us(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_us,
            end_us: end_us.max(start_us),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Start of span `i` in µs.
    pub fn start_of(&self, i: usize) -> f64 {
        self.spans[i].start_us
    }

    /// Moves another recorder's spans into this one (same origin).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name, ms: each span's duration minus the
    /// durations of its children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            *out.entry(s.name).or_insert(0.0) += (s.end_us - s.start_us - c).max(0.0) / 1e3;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_us, s.end_us, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.span_us("request", 0.0, 1000.0, None, 1);
        t.span_us("automata.compile", 0.0, 200.0, root, 1);
        t.span_us("core.engine", 200.0, 900.0, root, 1);
        let st = t.self_ms();
        assert!((st["request"] - 0.1).abs() < 1e-9);
        assert!((st["core.engine"] - 0.7).abs() < 1e-9);
        let mut off = Tracer::new(Instant::now(), false);
        assert_eq!(off.span_us("x", 0.0, 1.0, None, 0), None);
    }
}
