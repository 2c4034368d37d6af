//! In-memory span tracer for the traced run.
//!
//! A span records a layer call made from the benchmark's own code: its
//! name, start, end, the span that caused it, and one work count (PHVs,
//! ddmin checks, enumerated cases, ... — what the count means is fixed per
//! layer name). Spans stay in memory until the run ends; then
//! [`layer_stats`] folds them into per-layer self time, calls and counts.
//!
//! The traced run is single-threaded, so a span's children are sequential
//! and nested inside it: self time is the span's duration minus the sum
//! of its children's durations.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`dsim.minimize`, `dgen.exec.fused`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
    /// Work count attributed to this call.
    pub count: u64,
}

/// Records spans around layer calls.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(self.spans.len() - 1);
        let out = f(self);
        self.close_top();
        out
    }

    /// Add `n` to the work count of the innermost open span.
    pub fn count(&mut self, n: u64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].count += n;
        }
    }

    /// Number of open spans; pass it to [`Tracer::unwind`] after catching
    /// a panic that may have escaped open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// End every span opened above `depth` (a panic unwound through them).
    pub fn unwind(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close_top();
        }
    }

    fn close_top(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Summed self time, in seconds.
    pub self_s: f64,
    /// Summed duration including child spans, in seconds.
    pub total_s: f64,
    /// Number of spans.
    pub calls: u64,
    /// Summed work count.
    pub count: u64,
}

/// Fold spans into per-name self time, calls and counts.
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.self_s += own as f64 / 1e9;
        e.total_s += (s.end_ns - s.start_ns) as f64 / 1e9;
        e.calls += 1;
        e.count += s.count;
    }
    out
}

/// Summed duration of the top-level spans, in seconds.
pub fn top_level_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

/// Durations of every span named `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
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
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // task [0,100] > a [10,40] > b [20,30]; task > a [50,60]
        let spans = vec![
            span("task", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("a", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        let stats = layer_stats(&spans);
        assert_eq!(stats["a"].calls, 2);
        assert!((stats["a"].self_s - 30e-9).abs() < 1e-15);
        assert!((top_level_s(&spans) - 100e-9).abs() < 1e-15);
        assert_eq!(durations_ms(&spans, "a"), vec![30e-6, 10e-6]);
    }

    #[test]
    fn tracer_nests_counts_and_unwinds() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.count(3);
            t.span("inner", |t| t.count(5));
        });
        let depth = t.depth();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("boom", |_| panic!("expected"))
        }));
        assert!(caught.is_err());
        t.unwind(depth);
        assert_eq!(t.depth(), 0);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].count, s[1].count, s[1].parent), (3, 5, Some(0)));
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
