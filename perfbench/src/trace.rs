//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start, a duration, a parent, and the id of the
//! generation, evaluation or job it belongs to. Work inside a call the
//! benchmark cannot see into (likelihood time inside `Chain::step`,
//! kernel time inside an evaluation, plfd wait and service inside a
//! job) comes from the program's own counters; it is recorded as an
//! *anchored* child whose duration is measured but whose position
//! inside the parent is not known, so it starts at the parent's start.
//!
//! Self time of a span is its duration minus its children's durations.
//! Spans named `bench.*` are the roots that cover the measured window;
//! their self time is the part of the window no layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `layer.what`.
    pub name: &'static str,
    /// Generation, evaluation or job index this span belongs to.
    pub id: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Nanoseconds after the trace's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Duration from a program counter; position inside the parent
    /// unknown.
    pub anchored: bool,
}

/// A span recorder for one thread.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Trace {
    /// An empty trace timed from `epoch`.
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a measured span; returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            dur_ns: nanos(end.saturating_duration_since(start)),
            anchored: false,
        });
        self.spans.len() - 1
    }

    /// Record a child whose duration a program counter measured.
    pub fn anchored(&mut self, name: &'static str, parent: usize, dur: Duration) -> usize {
        let (id, start_ns) = (self.spans[parent].id, self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            id,
            parent: Some(parent),
            start_ns,
            dur_ns: nanos(dur),
            anchored: true,
        });
        self.spans.len() - 1
    }

    /// Set the end of span `idx` (a root opened before its children).
    pub fn close(&mut self, idx: usize, end: Instant) {
        let start = self.epoch + Duration::from_nanos(self.spans[idx].start_ns);
        self.spans[idx].dur_ns = nanos(end.saturating_duration_since(start));
    }

    /// Append another thread's spans (same epoch), keeping parent links.
    pub fn merge(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Seconds of self time per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0i128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += i128::from(s.dur_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (i128::from(s.dur_ns) - c) as f64 * 1e-9;
        }
        out
    }

    /// Seconds of self time of spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_seconds().get(name).copied().unwrap_or(0.0)
    }

    /// Share of the `bench.*` roots' time that no layer span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let roots = self.spans.iter().filter(|s| s.name.starts_with("bench."));
        let total: u64 = roots.map(|s| s.dur_ns).sum();
        let unattributed: f64 = self
            .self_seconds()
            .iter()
            .filter(|(n, _)| n.starts_with("bench."))
            .map(|(_, s)| s)
            .sum();
        crate::stats::ratio(unattributed, total as f64 * 1e-9)
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"dur_ns\": {}, \"anchored\": {}}}",
                s.name, s.id, s.start_ns, s.dur_ns, s.anchored
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut trace = Trace::new(t0);
        let root = trace.span("bench.window", 0, None, ms(0), ms(10));
        let step = trace.span("mcmc.step", 1, Some(root), ms(1), ms(9));
        let eval = trace.anchored("likelihood.eval", step, Duration::from_millis(5));
        trace.anchored("multicore.kernels", eval, Duration::from_millis(3));
        let s = trace.self_seconds();
        assert!((s["bench.window"] - 0.002).abs() < 1e-12);
        assert!((s["mcmc.step"] - 0.003).abs() < 1e-12);
        assert!((s["likelihood.eval"] - 0.002).abs() < 1e-12);
        assert!((s["multicore.kernels"] - 0.003).abs() < 1e-12);
        assert!((trace.unattributed_frac() - 0.2).abs() < 1e-12);
    }
}
