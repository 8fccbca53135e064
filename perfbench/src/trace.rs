//! In-memory span recording for the traced run.
//!
//! A [`Tracer`] records one [`Span`] per timed call into a layer: name,
//! start, end and the span that caused it. Work that fans out across
//! threads gets a tracer per job ([`Tracer::child`]); the parent folds
//! the job's spans back in under its open span ([`Tracer::absorb`]).
//! Counters sit beside the spans so ratios are measured where the work
//! happens. Nothing is written while the run executes.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified span name, e.g. `"protocols.batch_sample"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span and counter recorder for one thread of work.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// An empty tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// An empty tracer sharing this one's origin, for a parallel job.
    pub fn child(&self) -> Self {
        Self::new(self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_insert(0) += n as u64;
    }

    /// Folds a job's spans and counters into this tracer; the job's root
    /// spans become children of the currently open span.
    pub fn absorb(&mut self, job: Tracer) {
        let offset = self.spans.len();
        let anchor = self.open.last().copied();
        self.spans.extend(job.spans.into_iter().map(|span| Span {
            parent: span.parent.map(|p| p + offset).or(anchor),
            ..span
        }));
        for (name, n) in job.counts {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Every recorded span, in opening order per job.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Value of the counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_absorbed_jobs_hang_under_the_open_span() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", |t| {
            t.span("inner", |_| ());
            let mut job = t.child();
            job.span("job", |j| j.span("job.leaf", |_| ()));
            job.count("items", 3);
            t.absorb(job);
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("job", Some(0)),
                ("job.leaf", Some(2)),
            ]
        );
        assert_eq!(t.counter("items"), 3);
        assert_eq!(t.counter("missing"), 0);
        assert!(t.total_ms("outer") >= t.total_ms("inner"));
    }
}
