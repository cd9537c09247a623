//! The benchmark's own spans: recorded around calls into each layer,
//! kept in memory, written out as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use sempe_core::json::Json;

/// One finished span. `parent` indexes the same tracer's span list.
#[derive(Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Request (or cell run) the span belongs to.
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Disabled tracers record nothing, so untraced code
/// paths pay one branch per span.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer { epoch, on, spans: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec { name, req, parent, start_ns, end_ns: start_ns });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Time `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Move this tracer's spans onto `all`, re-basing parent indexes.
    pub fn drain_into(&mut self, all: &mut Vec<SpanRec>) {
        let base = all.len();
        all.extend(self.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per span name: (span count, total self time in ns), where a span's
/// self time is its duration minus the time its children cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns().saturating_sub(*children);
    }
    out
}

/// Mean self time of the spans named `name`, µs (0 when none ran).
pub fn mean_self_us(times: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |(n, ns)| *ns as f64 / (*n).max(1) as f64 / 1e3)
}

/// Total self time of the spans named `name`, µs.
pub fn total_self_us(times: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |(_, ns)| *ns as f64 / 1e3)
}

pub fn write_spans(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(Json::Null, Json::from);
        let line = Json::obj()
            .with("id", id)
            .with("name", s.name)
            .with("req", s.req)
            .with("parent", parent)
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns)
            .encode();
        writeln!(out, "{line}")?;
    }
    out.flush()
}
