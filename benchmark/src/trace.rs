//! In-memory spans around the calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, batch_id}`; spans opened
//! while another is open on the same [`Trace`] become its children. A
//! layer's *self time* is its span's duration minus the part of that
//! interval its children cover. Spans are kept in memory and written to
//! `out/trace_<workload>.jsonl` when the run ends, one JSON object per
//! line, so tracing never touches the disk while the clock runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `models.forward`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The batch or request this span belongs to; spans of one batch
    /// share the identifier.
    pub batch_id: Option<u64>,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, batch_id: Option<u64>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            batch_id,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = end_ns;
    }
}

/// A shared handle on a [`SpanLog`]: the traced driver and the source
/// adapter it owns record into the same log from one thread.
#[derive(Clone, Debug)]
pub struct Trace(Rc<RefCell<SpanLog>>);

impl Trace {
    /// Starts an empty trace; span times count from now.
    pub fn new() -> Self {
        Trace(Rc::new(RefCell::new(SpanLog::new())))
    }

    /// Runs `f` inside a span. The log is not borrowed while `f` runs,
    /// so `f` may open child spans through a clone of this handle.
    pub fn span<R>(&self, name: &'static str, batch_id: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.0.borrow_mut().enter(name, batch_id);
        let out = f();
        self.0.borrow_mut().exit(id);
        out
    }

    /// Nanoseconds since the trace began (for spans timed elsewhere,
    /// e.g. on a load-generator thread, and added with [`Trace::add`]).
    pub fn now_ns(&self) -> u64 {
        self.0.borrow().now_ns()
    }

    /// Records a root span that was timed outside the log.
    pub fn add(&self, name: &'static str, start_ns: u64, end_ns: u64, batch_id: Option<u64>) {
        self.0.borrow_mut().spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            batch_id,
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.0.borrow().spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch_id\":{}}}",
                id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.batch_id),
            )?;
        }
        out.flush()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

/// Runs `f` inside a span of `trace` when there is one, bare otherwise.
pub fn spanned<R>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => t.span(name, None, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids.iter() {
                let lo = (*lo).max(reach);
                if *hi > lo {
                    covered += hi - lo;
                    reach = *hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    by_name
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
            batch_id: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),       // sibling 1
            span("b", 50, 70, Some(0)),       // sibling 2
            span("a.inner", 15, 25, Some(1)), // nested under a
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![100 - 30 - 20, 30 - 10, 20, 10]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 90, 150, Some(0)),  // starts before the parent
            span("y", 140, 160, Some(0)), // overlaps x
            span("z", 190, 250, Some(0)), // ends after the parent
        ];
        // Covered: [100,160) and [190,200) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Trace::new();
        let inner = t.clone();
        t.span("outer", Some(3), || {
            inner.span("inner", Some(3), || std::hint::black_box(1 + 1));
        });
        t.add("request", 5, 9, Some(7));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[2].duration_ns(), 4);
        let by_name = self_seconds_by_name(&spans);
        assert!(by_name["outer"] >= 0.0 && by_name.contains_key("inner"));
    }
}
