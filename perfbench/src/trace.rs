//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, start and end, the span that caused it, and the
//! identifier of the request (here: the AL round) it belongs to. Spans
//! stay in memory while the workload runs and are written out once at
//! the end, so recording costs one clock read and one `getrusage` per
//! boundary.

use crate::sys;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by every span of one round.
    pub trace: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU seconds (all threads) spent inside the span.
    pub cpu_s: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&mut self, trace: u32, name: &'static str) {
        let parent = self.open.last().map(|&(ix, _)| ix);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, trace, parent, start_ns, end_ns: start_ns, cpu_s: 0.0 });
        self.open.push((self.spans.len() - 1, sys::usage().cpu_s));
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let (ix, cpu0) = self.open.pop().expect("end() without an open span");
        let span = &mut self.spans[ix];
        span.end_ns = self.t0.elapsed().as_nanos() as u64;
        span.cpu_s = sys::usage().cpu_s - cpu0;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, trace: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(trace, name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed seconds and CPU seconds of every span called `name`.
    pub fn total(&self, name: &str) -> (f64, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(w, c), s| (w + s.secs(), c + s.cpu_s))
    }

    /// Seconds of span `ix` covered by its direct children (children of
    /// one parent run one after another, so their durations add).
    pub fn child_secs(&self, ix: usize) -> f64 {
        self.spans.iter().filter(|s| s.parent == Some(ix)).map(Span::secs).sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"cpu_s\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns, s.cpu_s
            )?;
        }
        out.flush()
    }
}
