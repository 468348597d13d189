//! In-memory spans for the traced replay, written out as JSON lines at
//! exit.
//!
//! Each span records its name, start and end (nanoseconds since the
//! tracer started), the span that caused it, and the request it belongs
//! to. A span's self time is its duration minus the part of its interval
//! that its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use kor::json::JsonValue;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `core.search`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or mutation batch) the span serves; `None` for
    /// set-up work.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; a disabled tracer only runs the closures.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    req: Option<u64>,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            req: None,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Attributes the spans that follow to request `req`.
    pub fn set_request(&mut self, req: Option<u64>) {
        self.req = req;
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Writes spans as JSON lines: `workload`, `id`, `name`, `req`,
/// `parent`, `start_ns`, `end_ns`, `self_ns`.
pub fn write_jsonl(path: &Path, traces: &[(&str, Vec<Span>)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (workload, spans) in traces {
        for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
            let line = JsonValue::obj([
                ("workload", JsonValue::from(*workload)),
                ("id", id.into()),
                ("name", s.name.into()),
                ("req", s.req.map_or(JsonValue::Null, JsonValue::from)),
                ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("self_ns", self_ns.into()),
            ]);
            writeln!(out, "{}", line.render())?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps its sibling: union is 10..50
            span(60, 70, Some(0)),
            span(65, 68, Some(3)), // a grandchild counts only against its parent
            span(90, 120, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 10, 20, 30, 7, 3, 30]
        );
    }

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let mut t = Tracer::new(true);
        t.set_request(Some(4));
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[1].req, Some(4));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let off = {
            let mut t = Tracer::new(false);
            t.span("x", |_| ());
            t.spans().len()
        };
        assert_eq!(off, 0);
    }
}
