//! In-memory span recording around the benchmark's calls into each layer.
//!
//! Spans nest on one thread: `begin` pushes, `end` pops, and a span's
//! parent is the span open when it began. Nothing is written until the
//! benchmark ends ([`Tracer::write_jsonl`]). A disabled tracer records
//! nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The job, request or state this span belongs to.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("span end without a begin");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// Per span name: (count, total duration s, total self time s). Self
    /// time is a span's duration minus the part its children cover
    /// (children of one span never overlap: they nest on one thread).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 * 1e-9;
            e.2 += s.dur_ns().saturating_sub(*c) as f64 * 1e-9;
        }
        out
    }

    /// Sum of every span's self time: the part of the traced wall time the
    /// spans account for.
    pub fn self_total_s(&self) -> f64 {
        self.summary().values().map(|v| v.2).sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"span":{i},"name":"{}","id":{},"start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_roots() {
        let mut t2 = Tracer::new(true);
        t2.begin("root", 0);
        t2.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        std::thread::sleep(std::time::Duration::from_millis(1));
        t2.end();
        let s = t2.summary();
        let (rn, rdur, rself) = s["root"];
        let (cn, cdur, cself) = s["child"];
        assert_eq!((rn, cn), (1, 1));
        assert!((rself - (rdur - cdur)).abs() < 1e-9);
        assert!(
            (cself - cdur).abs() < 1e-12,
            "a leaf's self time is its duration"
        );
        assert!((t2.self_total_s() - rdur).abs() < 1e-9);
        assert_eq!(t2.spans[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("outer", 0);
        t.span("inner", 0, || ());
        t.end();
        assert!(t.summary().is_empty());
        assert_eq!(t.self_total_s(), 0.0);
    }
}
