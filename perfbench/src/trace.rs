//! In-memory span recorder for the traced run.
//!
//! Every public library call the benchmark makes, and every phase of a
//! repetition, is wrapped in a span (name, start, end, parent). Spans stay in
//! memory until the run ends; the ledger is built from their self times. When
//! tracing is off a span costs one flag check.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>` for library calls, or a phase name for roots.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on the calling thread.
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: Cell::new(false),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Turn recording on or off; spans already open are closed normally.
    pub fn set_enabled(&self, on: bool) {
        self.on.set(on);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.get()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start_ns = self.now_ns();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Remove and return every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover. Children of one parent run one after another on one thread, so
/// the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Self time per span name counting only spans nested (at any depth) under
/// a root span named `root`, plus the roots' total duration.
pub fn ledger_under(spans: &[Span], root: &str) -> (BTreeMap<&'static str, u64>, u64) {
    let mut inside = vec![false; spans.len()];
    let mut total = 0;
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        inside[i] = match s.parent {
            Some(p) => inside[p],
            None => s.name == root,
        };
        if s.parent.is_none() && s.name == root {
            total += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for ((s, own), keep) in spans.iter().zip(self_times(spans)).zip(inside) {
        if keep {
            *out.entry(s.name).or_insert(0) += own;
        }
    }
    (out, total)
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
        // root [0, 100) holds a [10, 50) which holds b [20, 30), and c [60, 90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 60, 90, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 30, 10, 30]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn ledger_keeps_only_spans_under_the_named_root() {
        let spans = vec![
            span("setup", 0, 40, None),
            span("data.generate", 0, 35, Some(0)),
            span("timed", 40, 140, None),
            span("pipeline.exec", 45, 125, Some(2)),
            span("ml.knn_eval", 50, 70, Some(3)),
        ];
        let (ledger, total) = ledger_under(&spans, "timed");
        assert_eq!(total, 100);
        assert_eq!(ledger["timed"], 20);
        assert_eq!(ledger["pipeline.exec"], 60);
        assert_eq!(ledger["ml.knn_eval"], 20);
        assert!(!ledger.contains_key("data.generate"));
    }

    #[test]
    fn tracer_nests_and_is_silent_when_off() {
        let t = Tracer::default();
        t.span("ignored", || ());
        assert!(t.take().is_empty());
        t.set_enabled(true);
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(&spans);
        assert_eq!(own[0] + own[1], spans[0].duration_ns());
    }
}
