//! In-memory host-time spans recorded around the benchmark's calls into
//! each crate, and the per-layer table derived from them.
//!
//! A span is named `<crate>.<call>` after the layer it times. Spans stay in
//! memory while the run measures and are written out once it ends. A span's
//! self time is its duration minus the time its child spans cover. When the
//! recorder is off, [`Spans::span`] only runs the closure: no clock read,
//! no allocation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::host::{secs, HostClock};

/// Name prefix of spans that time the benchmark's own work rather than a
/// layer of the program.
pub const BENCH_PREFIX: &str = "bench.";

/// Median, in per-mille for [`nearest_rank`].
pub const P50: usize = 500;
/// 99th percentile, in per-mille for [`nearest_rank`].
pub const P99: usize = 990;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call this span times, `<crate>.<call>`.
    pub name: &'static str,
    /// Operation id shared by the spans of one call or cell.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host nanoseconds since the run's clock started.
    pub start_ns: u64,
    /// Host nanoseconds since the run's clock started.
    pub end_ns: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus what the child spans cover.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    clock: HostClock,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(clock: HostClock, on: bool) -> Spans {
        Spans {
            clock,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True if spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (between spans only).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span named `name` belonging to operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            child_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        let end = self.clock.now_ns();
        self.open.pop();
        let mut duration = 0;
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end;
            duration = span.duration_ns();
        }
        if let Some(parent) = self.spans.get_mut(index).and_then(|s| s.parent) {
            if let Some(p) = self.spans.get_mut(parent) {
                p.child_ns = p.child_ns.saturating_add(duration);
            }
        }
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Total duration (s) of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        secs(self.durations(name).iter().sum())
    }

    /// Host nanoseconds covered by top-level spans of program layers (not
    /// the benchmark's own `bench.*` spans).
    pub fn layer_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && !s.name.starts_with(BENCH_PREFIX))
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            );
        }
        std::fs::write(path, out)
    }

    /// The breakdown as aligned text tables: per span name (count, total
    /// and self time, p50/p99, share of `traced_ns`), then per layer (the
    /// crate prefix of the name: self time and its share).
    pub fn table(&self, traced_ns: u64) -> String {
        let share = |ns: u64| 100.0 * ns as f64 / traced_ns.max(1) as f64;
        let mut by_name: BTreeMap<&str, (Vec<u64>, u64)> = BTreeMap::new();
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.duration_ns());
            entry.1 = entry.1.saturating_add(s.self_ns());
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_default() += s.self_ns();
        }
        let mut out = format!(
            "{:<40} {:>7} {:>11} {:>11} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_s", "self_s", "p50_us", "p99_us", "self%"
        );
        for (name, (mut durations, self_ns)) in by_name {
            durations.sort_unstable();
            let total: u64 = durations.iter().sum();
            let _ = writeln!(
                out,
                "{:<40} {:>7} {:>11.6} {:>11.6} {:>12.3} {:>12.3} {:>6.2}%",
                name,
                durations.len(),
                secs(total),
                secs(self_ns),
                nearest_rank(&durations, P50) as f64 / 1e3,
                nearest_rank(&durations, P99) as f64 / 1e3,
                share(self_ns)
            );
        }
        let _ = writeln!(out, "\n{:<40} {:>11} {:>7}", "layer", "self_s", "self%");
        for (layer, self_ns) in by_layer {
            let _ = writeln!(
                out,
                "{:<40} {:>11.6} {:>6.2}%",
                layer,
                secs(self_ns),
                share(self_ns)
            );
        }
        let _ = writeln!(out, "{:<40} {:>11.6}", "traced", secs(traced_ns));
        out
    }
}

/// Nearest-rank quantile of an ascending slice at `permille`/1000 (0 when
/// empty): the smallest sample with at least that share at or below it.
pub fn nearest_rank(sorted: &[u64], permille: usize) -> u64 {
    let rank = permille.saturating_mul(sorted.len()).div_ceil(1000).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// Nearest-rank quantile of unsorted nanosecond samples, in microseconds.
pub fn quantile_us(samples: &[u64], permille: usize) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, permille) as f64 / 1e3
}

/// Median of `values` (mean of the middle pair when even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, P50), 50);
        assert_eq!(nearest_rank(&v, P99), 99);
        assert_eq!(nearest_rank(&[7], P99), 7);
        assert_eq!(nearest_rank(&[], P50), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(HostClock::start(), true);
        spans.span("a.outer", 1, |s| {
            s.span("b.inner", 1, |_| std::hint::black_box(0));
        });
        let outer = &spans.spans()[0];
        let inner = &spans.spans()[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(outer.child_ns, inner.duration_ns());
        assert_eq!(outer.self_ns(), outer.duration_ns() - inner.duration_ns());
        assert_eq!(spans.layer_ns(), outer.duration_ns());
    }
}
