//! In-memory spans, written out once when the benchmark ends.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! counts taken at that boundary. All spans here are recorded by the
//! benchmark around its calls into the program; spans inside the program
//! are a later change. A layer's self time is its span's duration minus
//! the part its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Counts taken at the span's end.
    pub counts: Vec<(&'static str, f64)>,
}

/// Span recorder. Disabled, every call is a branch and nothing else, so
/// the untraced pass carries no recording cost.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Ns since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`]. Returns `None`
    /// when disabled.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Ends span `id` now and attaches `counts`.
    pub fn close(&mut self, id: Option<SpanId>, counts: &[(&'static str, f64)]) {
        let now = self.now_ns();
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = now;
            span.counts.extend_from_slice(counts);
        }
    }

    /// Records a span whose bounds are already known.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        counts: &[(&'static str, f64)],
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
            counts: counts.to_vec(),
        });
        Some(self.spans.len() - 1)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"id\":");
            let _ = write!(out, "{i},\"name\":{}", crate::report::json_str(&s.name));
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.start_ns, s.end_ns
            );
            for (k, (name, v)) in s.counts.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{}", crate::report::json_num(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_serialise_with_their_parent_and_counts() {
        let mut t = Tracer::new(true);
        let root = t.add("root", None, 0, 100, &[]).unwrap();
        t.add("a", Some(root), 10, 30, &[("n", 2.0)]);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"a\",\"parent\":0"));
        assert!(json.contains("\"n\":2"));
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None);
        t.close(id, &[("n", 1.0)]);
        assert!(id.is_none() && t.spans().is_empty());
    }
}
