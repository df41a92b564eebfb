//! The benchmark's own tracing: spans around each call into a layer.
//!
//! A span has a name, a start and an end on the process CPU clock, the
//! span that caused it, and the id of the top-level operation it belongs
//! to. Spans are held in memory and written out when the run ends. Per
//! span name the context also keeps the total time, whether or not spans
//! are recorded, because the end-to-end metrics need some of those totals
//! (the simulation time behind `sim_events_per_s`, for one).

use crate::host::{cpu_now, Reference};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `layer.function`.
    pub name: &'static str,
    /// Process CPU seconds at entry and exit.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same iteration.
    pub parent: Option<usize>,
    /// Top-level operation this span belongs to.
    pub op: u64,
    /// Run after the timed part of the iteration, to measure one layer.
    pub probe: bool,
}

/// The state one iteration of a workload runs against.
pub struct Ctx {
    reference: Reference,
    /// CPU seconds of each reference slice this iteration.
    pub slices: Vec<f64>,
    record: bool,
    probing: bool,
    /// Spans of this iteration, in order of entry.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
    /// Total CPU seconds per span name this iteration.
    pub totals: BTreeMap<&'static str, f64>,
}

impl Ctx {
    /// A context that records spans when `record` is set.
    #[must_use]
    pub fn new(reference: Reference, record: bool) -> Ctx {
        Ctx {
            reference,
            slices: Vec::new(),
            record,
            probing: false,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Resets the per-iteration state; the reference kernel is kept.
    pub fn start_iteration(&mut self, record: bool) {
        self.slices.clear();
        self.spans.clear();
        self.stack.clear();
        self.totals.clear();
        self.record = record;
        self.probing = false;
    }

    /// Marks every later span of this iteration as a probe.
    pub fn start_probes(&mut self) {
        self.probing = true;
    }

    /// Runs one reference slice between two operations.
    pub fn gap(&mut self) {
        let s = self.reference.slice();
        self.slices.push(s);
    }

    /// Runs `f` inside a span named `name` and returns its result and CPU
    /// seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> (T, f64) {
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let t0 = cpu_now();
        let idx = self.record.then(|| {
            self.spans.push(Span {
                name,
                start: t0,
                end: t0,
                parent,
                op,
                probe: self.probing,
            });
            self.spans.len() - 1
        });
        if let Some(i) = idx {
            self.stack.push(i);
        }
        let out = f(self);
        let t1 = cpu_now();
        if let Some(i) = idx {
            self.stack.pop();
            self.spans[i].end = t1;
        }
        *self.totals.entry(name).or_default() += t1 - t0;
        (out, t1 - t0)
    }

    /// [`Ctx::timed`] without the seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> T {
        self.timed(name, f).0
    }
}

/// Self time per span name: each span's duration minus the part its
/// children cover. Only the timed part of the iteration (no probes).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        if !s.probe {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - c;
        }
    }
    out
}

/// Renders spans as JSON lines, times in nanoseconds since `origin`.
#[must_use]
pub fn to_jsonl(iteration: usize, spans: &[Span], origin: f64) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let ns = |t: f64| ((t - origin) * 1e9).round() as i64;
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"iteration\":{iteration},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"probe\":{}}}",
            s.name,
            ns(s.start),
            ns(s.end),
            s.op,
            s.probe
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("outer", 0.0, 10.0, None),
            span("inner", 1.0, 4.0, Some(0)),
            span("inner", 5.0, 7.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert!((st["outer"] - 5.0).abs() < 1e-12);
        assert!((st["inner"] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_share_the_operation_id() {
        let mut ctx = Ctx::new(Reference::new(), true);
        ctx.span("a", |c| c.span("b", |_| ()));
        ctx.span("c", |_| ());
        assert_eq!(ctx.spans.len(), 3);
        assert_eq!(ctx.spans[1].parent, Some(0));
        assert_eq!(ctx.spans[0].op, ctx.spans[1].op);
        assert_ne!(ctx.spans[0].op, ctx.spans[2].op);
    }

    #[test]
    fn totals_are_kept_without_recording() {
        let mut ctx = Ctx::new(Reference::new(), false);
        ctx.span("a", |c| c.gap());
        assert!(ctx.spans.is_empty());
        assert!(ctx.totals["a"] > 0.0);
    }
}
