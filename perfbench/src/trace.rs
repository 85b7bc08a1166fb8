//! In-memory spans around calls into each layer's public functions.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! stay in memory while the run measures and are written out once, when
//! it ends. A layer's self time is its span's duration minus the time its
//! child spans cover (children of one parent never overlap: every traced
//! call is made from one thread, in order).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a finished root span measured elsewhere (another thread
    /// timed it; the tracer itself is single-threaded).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let at = |i: Instant| i.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            req,
        });
    }

    /// Self time in ns of every span, summed per `(request, name)`.
    pub fn self_ns_by_request(&self) -> BTreeMap<(&'static str, u64), u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry((s.name, s.req)).or_insert(0) += own;
        }
        out
    }

    /// Per-request self times of one span name, in µs.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.self_ns_by_request()
            .into_iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
