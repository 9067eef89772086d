//! The benchmark's own tracer: spans recorded around the calls it makes
//! into each layer, kept in memory and written out when the run ends.
//!
//! A layer's self time for one request is its span minus the spans of its
//! child layers that carry the same request id.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `serve.submit`.
    pub name: &'static str,
    /// The layer above it on the same request, if any.
    pub parent: Option<&'static str>,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty log timed from `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder { origin, spans: Vec::with_capacity(1 << 16) }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, parent, req, start_ns: at(start), end_ns: at(end) });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// Moves every span of `other` into this log.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans named `name`, optionally only those
    /// whose request id passes `keep`.
    pub fn durations_us(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.req))
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of the spans named `name` whose request passes
    /// `keep`: each span minus its child spans on the same request.
    pub fn self_us(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent == Some(name)) {
            *children.entry(s.req).or_default() += s.ns();
        }
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.req))
            .map(|s| {
                let child = children.get(&s.req).copied().unwrap_or(0);
                (s.ns() as f64 - child as f64) / 1e3
            })
            .collect()
    }

    /// Writes the log as CSV: `name,parent,req,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,parent,req,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name,
                s.parent.unwrap_or(""),
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_of_the_same_request() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut r = Recorder::new(t0);
        r.record("outer", None, 1, at(0), at(10));
        r.record("inner", Some("outer"), 1, at(2), at(6));
        r.record("outer", None, 2, at(10), at(13));
        r.record("inner", Some("outer"), 3, at(20), at(21));
        let mut own = r.self_us("outer", |_| true);
        own.sort_by(f64::total_cmp);
        assert_eq!(own, vec![3.0, 6.0]);
        assert_eq!(r.durations_us("inner", |req| req == 1), vec![4.0]);
    }
}
