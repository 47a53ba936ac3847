//! Spans of the traced run, recorded by the benchmark around its own calls
//! into each layer, kept in memory and written out when the run ends.
//!
//! A span has a name, a start, an end and the span that caused it. A
//! layer's self time is its spans' duration minus the part of each interval
//! that child spans cover. Spans named [`UNIT`] mark one end-to-end unit
//! (the benchmark's own loop); every other span wraps a call into a layer,
//! and the union of those is the trace's coverage of the timed wall time.

use harvester_bench::report::{write_bench_json, BenchRecord};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// Name of the span that wraps one end-to-end unit.
pub const UNIT: &str = "unit";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: f64,
    end: f64,
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed self time in seconds.
    pub self_s: f64,
}

impl SpanTotals {
    /// Mean duration in milliseconds (0 without spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            1e3 * self.total_s / self.count as f64
        }
    }
}

/// The span recorder. When disabled, every call is a no-op that reads no
/// clock, so the untraced run pays nothing for the hooks.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds from the recorder's origin to `at`.
    pub fn offset(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span now; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start,
            end: f64::NAN,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`] now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.offset(Instant::now());
            self.spans[id].end = end;
        }
    }

    /// Per-name totals with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children) {
            let duration = span.end - span.start;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_s += duration;
            entry.self_s += duration - covered(kids, &[(span.start, span.end)]);
        }
        totals
    }

    /// Totals of one span name (zero when none was recorded).
    pub fn total(&self, name: &str) -> SpanTotals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Share of the timed `windows` covered by layer spans (every span
    /// except [`UNIT`] spans).
    pub fn coverage(&self, windows: &[(Instant, Instant)]) -> f64 {
        let windows: Vec<(f64, f64)> = windows
            .iter()
            .map(|&(a, b)| (self.offset(a), self.offset(b)))
            .collect();
        let wall: f64 = windows.iter().map(|(a, b)| b - a).sum();
        if wall <= 0.0 {
            return 0.0;
        }
        let layer: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.name != UNIT)
            .map(|s| (s.start, s.end))
            .collect();
        covered(layer, &windows) / wall
    }

    /// Writes every span, the per-name totals and the per-layer metrics to
    /// `path` in the repository's benchmark-artefact format.
    pub fn write(&self, path: &str, bench: &str, per_layer: &[(&'static str, f64, &'static str)]) {
        let mut records = Vec::with_capacity(self.spans.len() + 64);
        let mut layer = BenchRecord::new("per_layer");
        for &(name, value, _) in per_layer {
            layer = layer.metric(name, value);
        }
        records.push(layer);
        for (name, totals) in self.totals() {
            records.push(
                BenchRecord::new(format!("totals/{name}"))
                    .metric("count", totals.count as f64)
                    .metric("total_ms", 1e3 * totals.total_s)
                    .metric("self_ms", 1e3 * totals.self_s),
            );
        }
        for (id, span) in self.spans.iter().enumerate() {
            records.push(
                BenchRecord::new(span.name)
                    .metric("id", id as f64)
                    .metric("parent", span.parent.map_or(-1.0, |p| p as f64))
                    .metric("start_us", 1e6 * span.start)
                    .metric("end_us", 1e6 * span.end),
            );
        }
        write_bench_json(path, bench, &records);
    }
}

/// Length of the union of `intervals`, clipped to the union of `windows`
/// (the windows must not overlap each other).
fn covered(mut intervals: Vec<(f64, f64)>, windows: &[(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for (start, end) in intervals {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    let mut total = 0.0;
    for &(w0, w1) in windows {
        for &(a, b) in &merged {
            total += (b.min(w1) - a.max(w0)).max(0.0);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder holding spans at the given millisecond offsets.
    fn tracer(spans: &[(&'static str, Option<SpanId>, f64, f64)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, parent, start, end) in spans {
            t.spans.push(Span {
                name,
                parent,
                start: start / 1e3,
                end: end / 1e3,
            });
        }
        t
    }

    fn window(t: &Tracer, start: u64, end: u64) -> (Instant, Instant) {
        let at = |ms| t.origin + std::time::Duration::from_millis(ms);
        (at(start), at(end))
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer(&[
            ("p", None, 0.0, 10.0),
            ("c", Some(0), 2.0, 5.0),
            ("c", Some(0), 4.0, 6.0),
        ]);
        let totals = t.totals();
        assert!((totals["p"].total_s - 0.010).abs() < 1e-12);
        // Children cover [2, 6] ms: 4 ms of overlap-free coverage.
        assert!((totals["p"].self_s - 0.006).abs() < 1e-12);
        assert_eq!(totals["c"].count, 2);
        // Coverage of [0, 10] by the (non-unit) spans is complete.
        assert!((t.coverage(&[window(&t, 0, 10)]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unit_spans_do_not_count_as_coverage() {
        let t = tracer(&[(UNIT, None, 0.0, 10.0), ("layer", Some(0), 0.0, 4.0)]);
        assert!((t.coverage(&[window(&t, 0, 10)]) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None);
        t.close(id);
        assert!(id.is_none());
        assert!(t.totals().is_empty());
    }
}
