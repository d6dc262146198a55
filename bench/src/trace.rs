//! In-memory spans recorded by the harness around its calls into each
//! layer (`--trace 1`). Nothing here touches the program under test:
//! spans open and close in the benchmark's own files, at the public
//! boundary of each module.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One timed interval: a call (or a run of calls) into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.tracer.poll`.
    pub name: &'static str,
    /// The refresh step that caused it — spans of one step share it.
    pub step: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one traced run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// Starts an empty trace; span times count from now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays zero-length until [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, step: u64, parent: Option<SpanId>) -> SpanId {
        let at = self.now_ns();
        self.spans.push(Span {
            name,
            step,
            parent,
            start_ns: at,
            end_ns: at,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let at = self.now_ns();
        self.spans[id].end_ns = at;
        self.spans[id].dur_ns()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its direct children cover (children never overlap: the driver is
    /// single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(covered) {
            *out.entry(span.name).or_insert(0) += span.dur_ns().saturating_sub(child_ns);
        }
        out
    }

    /// Writes the spans as a JSON array of
    /// `{name, step, parent, start_ns, end_ns}` objects (`id` is the
    /// array index a `parent` refers to).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"step\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
                s.name, s.step, parent, s.start_ns, s.end_ns, comma
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
