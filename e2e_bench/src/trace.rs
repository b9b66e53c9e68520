//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; the program itself carries no tracing.
//! Every span has a name, a start and an end (nanoseconds since the
//! recorder was made), an optional parent, and the id of the chunk or
//! solve it belongs to. Spans stay in memory and are written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.table.build`.
    pub name: &'static str,
    /// Chunk or solve id shared by the spans of one operation.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e6
    }
}

/// Handle to an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder. A disabled recorder keeps nothing, so the same code
/// path can run once traced and once untraced to measure the overhead.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for operation `op` under `parent`.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<Open>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: parent.and_then(|p| p.0),
            start,
            end: start,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Close a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            let now = self.now();
            if let Some(s) = self.spans.get_mut(i) {
                s.end = now;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<Open>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, op, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per-operation total (ms) of the spans named `name`, keyed by op id.
    pub fn per_op_totals(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += s.ms();
        }
        out
    }

    /// Self time (ms) summed per span name: each span's duration minus
    /// the part of its interval its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| children.get_mut(p)) {
                slot.push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            *out.entry(s.name).or_insert(0.0) += self_time(s.start, s.end, kids) as f64 / 1e6;
        }
        out
    }

    /// Write every span as tab-separated `op name start_ns end_ns parent`
    /// lines (parent `-` for a root).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(w, "{}\t{}\t{}\t{}\t{parent}", s.op, s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

/// Self time of the interval `[start, end)` whose children cover the
/// given intervals: its length minus the length of the union of the
/// children clipped to it. Children may overlap each other (parallel
/// work) or stick out of the parent; neither is counted twice.
pub fn self_time(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in children {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_duration() {
        assert_eq!(self_time(10, 110, vec![]), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10,40] and [30,60] overlap: together they cover [10,60]
        assert_eq!(self_time(0, 100, vec![(30, 60), (10, 40)]), 50);
        // a child nested inside another adds nothing
        assert_eq!(self_time(0, 100, vec![(10, 60), (20, 30)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time(0, 100, vec![(90, 150), (0, 5)]), 85);
        assert_eq!(self_time(50, 100, vec![(0, 60)]), 40);
        assert_eq!(self_time(0, 100, vec![(0, 100), (10, 20)]), 0);
    }

    #[test]
    fn recorder_links_parents_and_computes_self_times() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 7, None);
        t.span("child", 7, Some(root), || std::hint::black_box(1 + 1));
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let st = t.self_times();
        let total = spans[0].ms();
        assert!((st["root"] + st["child"] - total).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin("root", 1, None);
        t.span("child", 1, Some(root), || ());
        t.end(root);
        assert!(t.spans().is_empty());
    }
}
