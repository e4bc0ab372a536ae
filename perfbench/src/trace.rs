//! In-memory spans for the traced run, and their self times.
//!
//! Each client thread owns a [`Tracer`]; spans are only appended to a
//! vector while the run is timed and are written out once, at exit.

use serde::Value;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique over the whole run.
    pub id: u64,
    /// Shared by every span of one request.
    pub request: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer boundary name (`request`, `server.handle`, `proto.parse`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Counters recorded at the same boundary (bytes, launches, …).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one JSON object, for the span dump.
    pub fn to_value(&self, self_ns: u64) -> Value {
        let mut fields = vec![
            ("id".to_string(), Value::U64(self.id)),
            ("request".to_string(), Value::U64(self.request)),
            ("parent".to_string(), self.parent.map_or(Value::Null, Value::U64)),
            ("name".to_string(), Value::Str(self.name.to_string())),
            ("start_ns".to_string(), Value::U64(self.start_ns)),
            ("end_ns".to_string(), Value::U64(self.end_ns)),
            ("self_ns".to_string(), Value::U64(self_ns)),
        ];
        fields.extend(self.attrs.iter().map(|&(k, v)| (k.to_string(), Value::F64(v))));
        Value::Map(fields)
    }
}

/// A per-thread span recorder.  Span ids carry the owner's index in their
/// high bits, so spans from several tracers merge without clashes.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    owner: u64,
    next: u64,
    /// Spans recorded so far, in completion order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` (shared by all tracers of a
    /// run so their spans line up).
    pub fn new(epoch: Instant, owner: usize) -> Self {
        Tracer { epoch, owner: owner as u64, next: 0, spans: Vec::new() }
    }

    /// A fresh id, unique across tracers.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        (self.owner << 40) | self.next
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name` of `request`, parented to `parent`.
    /// Returns the call's result and the span's index in [`Tracer::spans`],
    /// so the caller can attach counters.
    pub fn span<T>(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        self.spans.push(Span { id, request, parent, name, start_ns, end_ns, attrs: Vec::new() });
        (out, self.spans.len() - 1)
    }
}

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its children's intervals cover (overlapping children
/// are counted once; the parts of a child outside the parent are ignored).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else { return s.duration_ns() };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, request: 1, parent, name: "t", start_ns, end_ns, attrs: Vec::new() }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Two overlapping children cover 10..50 once: 40 ns.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A grandchild is charged to its parent, not to span 1.
            span(4, Some(3), 35, 45),
            // A child sticking out of its parent only counts inside it.
            span(5, Some(1), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 30, 10, 10, 30]);
    }

    #[test]
    fn leaves_and_disjoint_children() {
        let spans = [span(7, None, 5, 25), span(8, Some(7), 5, 10), span(9, Some(7), 20, 25)];
        assert_eq!(self_times_ns(&spans), vec![10, 5, 5]);
        assert_eq!(self_times_ns(&[span(1, None, 3, 3)]), vec![0]);
    }

    #[test]
    fn tracer_ids_are_unique_across_owners_and_spans_record_in_order() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        let mut b = Tracer::new(epoch, 1);
        assert_ne!(a.next_id(), b.next_id());
        let (v, i) = a.span(1, None, "x", || 41 + 1);
        assert_eq!((v, i), (42, 0));
        assert!(a.spans[0].end_ns >= a.spans[0].start_ns);
        let json = serde_json::to_string(&a.spans[0].to_value(0)).unwrap();
        assert!(json.contains("\"name\":\"x\""), "{json}");
    }
}
