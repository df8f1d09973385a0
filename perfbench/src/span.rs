//! In-memory spans around calls into the repository's crates.
//!
//! A [`Tracer`] records one [`Span`] (name, start, end, parent) per
//! wrapped call while tracing is on and nothing while it is off, so the
//! untraced runs that produce the end-to-end numbers pay one branch per
//! call. A layer's self time is its spans' durations minus the part of
//! each interval that its direct children cover ([`self_times`]).

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `vm.capture`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A single-threaded span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled` and is inert otherwise.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Hands over the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the union of its direct children's intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut totals = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(span.start_ns, span.end_ns, kids);
        let own = span.end_ns.saturating_sub(span.start_ns) - covered;
        *totals.entry(span.name).or_insert(0) += own;
    }
    totals
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Renders spans as one JSON object per line.
#[must_use]
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
            span.name, span.start_ns, span.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("prepare", 0, 100, None),
            span("replay", 10, 30, Some(0)),
            span("replay", 50, 60, Some(0)),
            // A grandchild is charged to its parent, not to `prepare`.
            span("decode", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["prepare"], 70);
        assert_eq!(t["replay"], 30 - 8);
        assert_eq!(t["decode"], 8);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("outer", 10, 50, None),
            span("a", 0, 20, Some(0)),
            span("b", 15, 30, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Covered: [10,30) and [45,50) = 25 of 40.
        assert_eq!(self_times(&spans)["outer"], 15);
    }

    #[test]
    fn self_times_sum_to_root_duration() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("x", 100, 400, Some(0)),
            span("y", 150, 200, Some(1)),
            span("x", 500, 900, Some(0)),
        ];
        let total: u64 = self_times(&spans).values().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn tracer_records_nesting_and_is_inert_when_off() {
        let mut on = Tracer::new(true);
        let v = on.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        off.span("outer", |t| t.span("inner", |_| ()));
        assert!(off.take().is_empty());
    }
}
