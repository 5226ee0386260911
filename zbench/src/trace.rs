//! In-memory spans recorded from the benchmark's own side of each layer
//! boundary.
//!
//! A span is a name, a key (session, op sequence — or image, pass), a
//! parent and its start/end instants. Spans are kept in memory and folded
//! at the end: a span's self time is its duration minus the durations of
//! its children, so the self times of every stage of a unit of work add up
//! to that unit's traced duration exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of an open or closed span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    key: (u64, u64),
    parent: Option<SpanId>,
    start: Instant,
    end: Option<Instant>,
}

/// A span recorder. A disabled recorder takes no timestamps, so the same
/// code path runs untraced for the overhead comparison.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Open a span; returns `None` when tracing is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        key: (u64, u64),
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            key,
            parent,
            start: Instant::now(),
            end: None,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = Some(Instant::now());
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        key: (u64, u64),
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, key, parent);
        let out = f();
        self.end(id);
        out
    }

    fn dur_ns(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        s.end
            .map_or(0.0, |e| e.duration_since(s.start).as_nanos() as f64)
    }

    /// Duration of every root span (a unit of work), keyed by its key.
    pub fn roots(&self) -> BTreeMap<(u64, u64), f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                *out.entry(s.key).or_insert(0.0) += self.dur_ns(i);
            }
        }
        out
    }

    /// Self time per span name, in total nanoseconds, plus the summed
    /// duration of all root spans.
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_ns = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.dur_ns(i);
            }
        }
        let mut by_name = BTreeMap::new();
        let mut root_ns = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            *by_name.entry(s.name).or_insert(0.0) += self.dur_ns(i) - child_ns[i];
            if s.parent.is_none() {
                root_ns += self.dur_ns(i);
            }
        }
        (by_name, root_ns)
    }

    /// Total duration and count of spans with this name.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let mut ns = 0.0;
        let mut n = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                ns += self.dur_ns(i);
                n += 1;
            }
        }
        (ns, n)
    }
}

/// Render a self-time breakdown per unit of work, name the largest stage,
/// and confirm the stages add up to the traced unit time.
pub fn breakdown(tracer: &Tracer, units: usize, unit: &str) -> Vec<String> {
    let (by_name, root_ns) = tracer.self_times();
    let units = units.max(1) as f64;
    let sum: f64 = by_name.values().sum();
    let mut lines = vec![format!(
        "traced time per {unit} {:.3} us (n = {}); stage self times sum to {:.3} us ({:+.4}%)",
        root_ns / units / 1e3,
        units,
        sum / units / 1e3,
        if root_ns > 0.0 {
            100.0 * (sum - root_ns) / root_ns
        } else {
            0.0
        }
    )];
    let mut rows: Vec<(&str, f64)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ns) in &rows {
        lines.push(format!(
            "  {name:<24} {:>12.3} us/{unit}  {:>6.2}%",
            ns / units / 1e3,
            if root_ns > 0.0 {
                100.0 * ns / root_ns
            } else {
                0.0
            }
        ));
    }
    if let Some((name, _)) = rows.first() {
        lines.push(format!("largest layer per {unit}: {name}"));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_root_time() {
        let mut t = Tracer::new(true);
        for op in 0..3 {
            let root = t.begin("op", (1, op), None);
            t.span("a", (1, op), root, || std::hint::black_box(vec![0u8; 1000]));
            let b = t.begin("b", (1, op), root);
            t.span("c", (1, op), b, || std::hint::black_box(vec![0u8; 1000]));
            t.end(b);
            t.end(root);
        }
        let (by_name, root_ns) = t.self_times();
        let sum: f64 = by_name.values().sum();
        assert!((sum - root_ns).abs() < 1.0, "{sum} vs {root_ns}");
        assert_eq!(t.roots().len(), 3);
        assert_eq!(t.total("c").1, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", (0, 0), None);
        assert!(id.is_none());
        t.end(id);
        assert!(t.roots().is_empty());
    }
}
