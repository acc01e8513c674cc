//! In-memory spans for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public
//! functions in named spans; nothing inside the program is
//! instrumented. Spans nest (the enclosing span is the parent), are
//! kept in memory, and are written out once at exit together with each
//! name's total and self time — a span's self time is its duration
//! minus the part its child spans cover. Each span also records the
//! process CPU time spent while it was open (every thread's), which is
//! what the stage metrics report.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::sys;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
    /// Process CPU time while the span was open, ns.
    cpu_ns: u64,
}

/// Per-name aggregate over every closed span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Sum of the process CPU time spent while they were open, ns.
    pub cpu_ns: u64,
}

/// A span recorder. Single-threaded: spans are opened and closed on the
/// benchmark's driving thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns, child_ns: 0, cpu_ns: 0 });
        self.open.push(id);
        let cpu0 = sys::process_cpu();
        let out = f(self);
        let cpu_ns = (sys::process_cpu() - cpu0).as_nanos() as u64;
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        self.spans[id].cpu_ns = cpu_ns;
        if let Some(p) = parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
        out
    }

    /// Totals per span name, over spans that started at or after
    /// `since` (an index from [`Tracer::mark`]).
    pub fn totals_since(&self, since: usize) -> BTreeMap<&'static str, SpanTotal> {
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for s in &self.spans[since..] {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(s.child_ns);
            t.cpu_ns += s.cpu_ns;
        }
        out
    }

    /// Durations of every span named `name`, in ns.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// A position in the span log; spans recorded later start after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span (one JSON object per line: name, parent,
    /// start/end/self wall and process CPU in µs) followed by one
    /// summary line per name.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.3}, \
                 \"end_us\": {:.3}, \"self_us\": {:.3}, \"cpu_us\": {:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                (s.end_ns - s.start_ns).saturating_sub(s.child_ns) as f64 / 1e3,
                s.cpu_ns as f64 / 1e3
            )?;
        }
        for (name, t) in self.totals_since(0) {
            writeln!(
                out,
                "{{\"summary\": \"{name}\", \"count\": {}, \"total_ms\": {:.3}, \
                 \"self_ms\": {:.3}, \"cpu_ms\": {:.3}}}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.cpu_ns as f64 / 1e6
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::default();
        tr.span("outer", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let totals = tr.totals_since(0);
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 2_000_000 && inner.total_ns >= 5_000_000);
    }
}
