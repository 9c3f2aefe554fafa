//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end offset from the recorder's origin,
//! the index of the span that was open when it started (its parent),
//! the benchmark's arrival id when it serves one arrival, and how many
//! items the call handled (so a batched call can be reported per item).
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines once it has finished. A disabled recorder records nothing
//! and only runs the closure it is given.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub arrival: Option<u64>,
    pub items: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; every span opened before [`Tracer::exit`] closes it
    /// is its child.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            arrival: None,
            items: 1,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span covering `items` items of `arrival`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        arrival: Option<u64>,
        items: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            arrival,
            items: items as u32,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (spans, items, total self time in ns). Self time is
    /// a span's duration minus the part its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.items as u64;
            e.2 += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Mean self time per item of the spans named `name`, in µs (0 when
    /// no such span was recorded).
    pub fn per_item_us(&self, name: &str) -> f64 {
        self.summary()
            .get(name)
            .filter(|(_, items, _)| *items > 0)
            .map(|(_, items, ns)| *ns as f64 / 1e3 / *items as f64)
            .unwrap_or(0.0)
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let arrival = s.arrival.map_or("null".to_string(), |a| a.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"arrival\":{arrival},\"items\":{}}}",
                s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.span("inner", Some(7), 4, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let s = t.summary();
        let outer = s["outer"];
        let inner = s["inner"];
        assert_eq!((inner.0, inner.1), (1, 4));
        assert!(inner.2 >= 2_000_000);
        assert!(outer.2 < inner.2, "outer self time excludes the child");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].arrival, Some(7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("outer");
        assert_eq!(t.span("inner", None, 1, || 5), 5);
        t.exit();
        assert!(t.spans().is_empty());
        assert_eq!(t.per_item_us("inner"), 0.0);
    }
}
