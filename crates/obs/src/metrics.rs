//! A lock-cheap registry of named counters, gauges, and log-linear
//! histograms, with two exposition surfaces: Prometheus-style text and a
//! `serde_json` snapshot.
//!
//! Metric names follow `coda_<crate>_<name>` (DESIGN.md §9). Instruments
//! are `Arc`-shared: a registration returns a handle whose updates are
//! plain atomic operations; the registry lock (a `parking_lot::RwLock`
//! around a `BTreeMap`) is touched only on registration and snapshot.
//!
//! Every histogram shares one fixed bucket layout, defined in this module
//! alone, in the style of HdrHistogram and DDSketch: 16 sub-buckets per
//! power of two between the edges 2^-20 (about 1 ns, in milliseconds) and
//! 2^24 (about 4.7 h), so a bucket is at most 1/16 as wide as its lower
//! edge and a quantile read from it is within 1/16 of the sample it
//! estimates. A
//! value equal to an edge lands in the bucket that edge closes (the
//! Prometheus `le` meaning); `v ≤ 0` has a bucket of its own that reads
//! back as 0, and values past 2^24 or NaN land in an overflow bucket.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::impl_serde_struct;

/// Builds a flat registry name carrying one label dimension:
/// `base{label="value"}` (value escaped per the Prometheus text format).
///
/// The registry itself stays a flat name → instrument map; labeled series
/// are a *naming convention* on top of it. `BTreeMap` ordering keeps every
/// labeled variant after its unlabeled base (`{` sorts above `_` and all
/// alphanumerics), [`render_prometheus`](MetricsRegistry::render_prometheus)
/// groups them under one `# TYPE` head, and [`name_parts`]/[`label_value`]
/// recover the dimension for analysis. Keep values free of commas — the
/// parser splits label pairs on `,`.
pub fn labeled_name(base: &str, label: &str, value: &str) -> String {
    format!("{base}{{{label}=\"{}\"}}", escape_label(value))
}

/// Splits a flat registry name into `(base, labels)` when it follows the
/// [`labeled_name`] convention, `(name, None)` otherwise. The returned
/// label string is the raw `k="v"` pair list without the braces.
pub fn name_parts(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) if name.ends_with('}') => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Extracts the value of `label` from a [`labeled_name`]-style series
/// name, or `None` when the name is unlabeled or lacks that label.
pub fn label_value<'a>(name: &'a str, label: &str) -> Option<&'a str> {
    let (_, labels) = name_parts(name);
    for pair in labels?.split(',') {
        if let Some((k, v)) = pair.split_once('=') {
            if k == label {
                return v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
            }
        }
    }
    None
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64` (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` to the gauge (compare-and-swap loop).
    pub fn add(&self, v: f64) {
        add_f64(&self.bits, v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Adds `v` to the `f64` held as bits in `cell`.
fn add_f64(cell: &AtomicU64, v: f64) {
    // the closure always returns `Some`, so the update cannot fail
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
        Some((f64::from_bits(bits) + v).to_bits())
    });
}

/// Mantissa bits that pick the sub-bucket: 16 per power of two.
const SUB_BITS: u32 = 4;
/// Shifting an `f64`'s bits right by this keeps its biased exponent and
/// top [`SUB_BITS`] mantissa bits: the rank of the edge at or below it.
const KEY_SHIFT: u32 = 52 - SUB_BITS;
/// The rank of the lowest finite edge, 2^-20 (biased exponent 1023 - 20).
const FIRST_KEY: u64 = (1023 - 20) << SUB_BITS;
/// Log-linear buckets between 2^-20 and 2^24: 44 powers of two.
const LOG_BUCKETS: usize = 44 << SUB_BITS;
/// The zero bucket, the log-linear buckets and the overflow bucket.
const BUCKETS: usize = LOG_BUCKETS + 2;

/// The `k`-th finite edge: `2^-20 · 2^(k / 16) · (1 + (k % 16) / 16)`.
fn edge(k: usize) -> f64 {
    f64::from_bits((FIRST_KEY + k as u64) << KEY_SHIFT)
}

/// The bucket `v` lands in: 0 for `v ≤ 0`; bucket `k + 1` holds
/// `(edge(k), edge(k + 1)]`, with anything smaller than 2^-20 in the
/// first; the last bucket holds what lies past 2^24, and NaN.
fn bucket_of(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    // the float just below `v` shares the exponent and top mantissa bits
    // of the edge below `v`, so an edge closes its own bucket
    let key = (v.to_bits() - 1) >> KEY_SHIFT;
    1 + key.saturating_sub(FIRST_KEY).min(LOG_BUCKETS as u64) as usize
}

/// Bucket `i`'s lower and upper edges; the zero bucket reads as `(0, 0)`.
fn bucket_edges(i: usize) -> (f64, f64) {
    match i {
        0 => (0.0, 0.0),
        i if i > LOG_BUCKETS => (edge(LOG_BUCKETS), f64::INFINITY),
        i => (edge(i - 1), edge(i)),
    }
}

/// A histogram over the one log-linear layout (module docs): an atomic
/// count per bucket and the running sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        add_f64(&self.sum_bits, v);
    }

    /// Folds another histogram's snapshot into this one, bucket by bucket.
    pub fn merge(&self, snap: &HistogramSnapshot) {
        for (&i, &n) in snap.buckets.iter().zip(&snap.counts) {
            if let Some(bucket) = self.buckets.get(usize::from(i)) {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        add_f64(&self.sum_bits, snap.sum);
    }

    /// Point-in-time snapshot of the non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_dense(
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)),
            f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        )
    }
}

/// A frozen copy of one histogram: its non-empty buckets in ascending
/// order, as layout indices and counts in two parallel vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Layout indices of the non-empty buckets, ascending.
    pub buckets: Vec<u16>,
    /// Observations in each of those buckets.
    pub counts: Vec<u64>,
    /// Total observations: the sum of `counts`.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl_serde_struct!(HistogramSnapshot { buckets, counts, count, sum });

impl HistogramSnapshot {
    /// Keeps the non-empty entries of a per-bucket count sequence.
    fn from_dense(counts: impl Iterator<Item = u64>, sum: f64) -> Self {
        let mut snap = HistogramSnapshot { sum, ..Self::default() };
        for (i, n) in counts.enumerate().filter(|(_, n)| *n > 0) {
            snap.buckets.push(i as u16);
            snap.counts.push(n);
            snap.count += n;
        }
        snap
    }

    /// Every bucket's count, empty ones included.
    fn dense(&self) -> [u64; BUCKETS] {
        let mut out = [0; BUCKETS];
        for (&i, &n) in self.buckets.iter().zip(&self.counts) {
            if let Some(slot) = out.get_mut(usize::from(i)) {
                *slot += n;
            }
        }
        out
    }

    /// `(lower edge, upper edge, count)` of each non-empty bucket.
    fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.buckets.iter().zip(&self.counts).map(|(&i, &n)| {
            let (lower, upper) = bucket_edges(usize::from(i));
            (lower, upper, n)
        })
    }

    /// Mean observed value. Always finite: `0.0` with no observations, and
    /// a non-finite sum (a `NaN`/`inf` observation leaked in upstream)
    /// degrades to `0.0` rather than poisoning JSON expositions — the
    /// vendored `serde_json` renders non-finite floats as `null`, which
    /// would then fail the snapshot round-trip.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.sum / self.count as f64;
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`): the bucket holding
    /// the nearest-rank sample, interpolated linearly at rank `q * count`
    /// (the Prometheus `histogram_quantile` rule), so the estimate is
    /// within 1/16 of that sample. The zero bucket reads as 0 and the
    /// overflow bucket as its lower edge, 2^24; with no observations the
    /// result is `0.0`. Always finite.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (lower, upper, n) in self.iter() {
            let before = cumulative;
            cumulative += n;
            if n > 0 && cumulative as f64 >= rank {
                if upper.is_infinite() {
                    return lower;
                }
                let fraction = ((rank - before as f64) / n as f64).clamp(0.0, 1.0);
                return lower + fraction * (upper - lower);
            }
        }
        0.0
    }

    /// Observations in buckets whose lower edge is at or above
    /// `threshold_ms`: exactly those above it when it is an edge (25 and
    /// 50 ms are), else all but those in the bucket it splits.
    pub fn count_above(&self, threshold_ms: f64) -> u64 {
        self.iter().filter(|(lower, _, _)| *lower >= threshold_ms).map(|(_, _, n)| n).sum()
    }

    /// Bucket-wise delta `self - before` for two snapshots of the same
    /// histogram, saturating at zero so a reset cannot underflow.
    pub fn diff(&self, before: &HistogramSnapshot) -> HistogramSnapshot {
        let (a, b) = (self.dense(), before.dense());
        Self::from_dense(
            a.iter().zip(&b).map(|(x, y)| x.saturating_sub(*y)),
            (self.sum - before.sum).max(0.0),
        )
    }

    /// Bucket-wise sum of two snapshots, e.g. two adjacent windows' deltas.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let (a, b) = (self.dense(), other.dense());
        Self::from_dense(a.iter().zip(&b).map(|(x, y)| x + y), self.sum + other.sum)
    }
}

/// A frozen copy of every instrument in a [`MetricsRegistry`] — the JSON
/// exposition surface (`serde_json`-serializable, deterministic key order).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram buckets by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl_serde_struct!(MetricsSnapshot { counters, gauges, histograms });

impl MetricsSnapshot {
    /// A named counter's value, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serializes the snapshot to a JSON string.
    pub fn to_json(&self) -> String {
        // value-model rendering is infallible; an empty string would only
        // appear if the vendored serde_json grew a real error path
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parses a snapshot back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error message on malformed input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let value = serde_json::parse(s).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value)
    }

    /// What happened between `before` and `self`: per-name counter deltas,
    /// gauge differences, and histogram bucket deltas. Deltas saturate at
    /// zero for monotonic instruments; names only present in `before` are
    /// dropped (nothing new to attribute). This is the before/after
    /// attribution primitive — snapshot, run a phase, snapshot, diff.
    pub fn diff(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(before.counter(k))))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v - before.gauges.get(k).copied().unwrap_or(0.0)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| match before.histograms.get(k) {
                    Some(b) => (k.clone(), h.diff(b)),
                    None => (k.clone(), h.clone()),
                })
                .collect(),
        }
    }
}

/// The process-wide metric registry: named instruments, shared by `Arc`.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    help: RwLock<BTreeMap<String, String>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MetricsRegistry({} counters, {} gauges, {} histograms)",
            self.counters.read().len(),
            self.gauges.read().len(),
            self.histograms.read().len()
        )
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        instrument(&self.counters, name)
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        instrument(&self.gauges, name)
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        instrument(&self.histograms, name)
    }

    /// Attaches `# HELP` text to metric `name` for the Prometheus
    /// exposition (escaped per the text-format rules on render).
    pub fn set_help(&self, name: &str, text: &str) {
        self.help.write().insert(name.to_string(), text.to_string());
    }

    /// Shorthand: add `n` to the counter named `name`.
    pub fn count(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// A frozen copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.read().iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: self.gauges.read().iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Renders every instrument in Prometheus text exposition format,
    /// names sorted, deterministically: a `# HELP` line (when set, escaped
    /// per the text format: `\` → `\\`, newline → `\n`), a `# TYPE` line
    /// per metric *family*, and label values escaped (`\`, `"`, newline).
    ///
    /// [`labeled_name`]-style series share their base family's HELP/TYPE
    /// head (emitted once per family), and histogram suffixes splice the
    /// labels into the sample lines (`base_bucket{labels,le="..."}`,
    /// `base_sum{labels}`, `base_count{labels}`).
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let help = self.help.read().clone();
        let mut out = String::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut head = |out: &mut String, base: &str, kind: &str| {
            if !seen.insert(base.to_string()) {
                return;
            }
            if let Some(text) = help.get(base) {
                let _ = writeln!(out, "# HELP {base} {}", escape_help(text));
            }
            let _ = writeln!(out, "# TYPE {base} {kind}");
        };
        for (name, v) in &snap.counters {
            head(&mut out, name_parts(name).0, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &snap.gauges {
            head(&mut out, name_parts(name).0, "gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &snap.histograms {
            let (base, labels) = name_parts(name);
            head(&mut out, base, "histogram");
            // the non-empty finite buckets, then `+Inf` (which also covers
            // the overflow bucket)
            let mut cumulative = 0u64;
            let finite = h.iter().filter(|(_, upper, _)| upper.is_finite()).map(|(_, upper, n)| {
                cumulative += n;
                (upper.to_string(), cumulative)
            });
            for (le, c) in finite.chain(std::iter::once(("+Inf".to_string(), h.count))) {
                let _ = match labels {
                    Some(l) => writeln!(out, "{base}_bucket{{{l},le=\"{le}\"}} {c}"),
                    None => writeln!(out, "{base}_bucket{{le=\"{le}\"}} {c}"),
                };
            }
            let _ = match labels {
                Some(l) => {
                    writeln!(out, "{base}_sum{{{l}}} {}\n{base}_count{{{l}}} {}", h.sum, h.count)
                }
                None => writeln!(out, "{base}_sum {}\n{base}_count {}", h.sum, h.count),
            };
        }
        out
    }
}

/// Returns the instrument named `name` in `map`, registering a fresh one
/// on first use.
fn instrument<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    // the read guard is scoped out before the write acquisition: the fast
    // path and the slow path never hold both sides of the lock
    {
        let read = map.read();
        if let Some(found) = read.get(name) {
            return Arc::clone(found);
        }
    }
    Arc::clone(map.write().entry(name.to_string()).or_default())
}

/// Escapes `# HELP` text per the Prometheus text format: backslash and
/// newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double-quote, and newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let reg = MetricsRegistry::new();
        reg.counter("coda_test_ops").add(3);
        reg.counter("coda_test_ops").inc();
        reg.gauge("coda_test_level").set(2.5);
        reg.gauge("coda_test_level").add(0.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("coda_test_ops"), 4);
        assert_eq!(snap.gauges["coda_test_level"], 3.0);
        assert_eq!(snap.counter("absent"), 0);
    }

    /// The layout: each bucket is at most 1/16 as wide as its lower edge,
    /// an edge closes its own bucket, every old default bound up to
    /// 100 ms is an edge, `v ≤ 0` reads as 0, and NaN, `+inf` and values
    /// past 2^24 land in the overflow bucket.
    #[test]
    fn edges_close_their_buckets() {
        let above = |v: f64| f64::from_bits(v.to_bits() + 1);
        for i in 1..=LOG_BUCKETS {
            let (lower, upper) = bucket_edges(i);
            assert!(upper - lower <= lower / 16.0, "bucket {i} is too wide");
            assert_eq!(bucket_of(upper), i, "{upper} closes bucket {i}");
            assert_eq!(bucket_of(above(lower)), i, "just above {lower} opens bucket {i}");
        }
        assert_eq!(bucket_edges(1), (2f64.powi(-20), 2f64.powi(-20) * 17.0 / 16.0));
        assert_eq!(bucket_edges(LOG_BUCKETS).1, 2f64.powi(24));
        for v in [0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0] {
            assert_eq!(bucket_edges(bucket_of(v)).1, v, "{v} ms is an edge");
        }
        for v in [0.0, -0.0, -3.0, f64::NEG_INFINITY] {
            assert_eq!(bucket_of(v), 0, "{v} lands in the zero bucket");
        }
        assert_eq!(bucket_of(1e-12), 1, "values below 2^-20 share the first bucket");
        for v in [above(2f64.powi(24)), 1e300, f64::INFINITY, f64::NAN, -f64::NAN] {
            assert_eq!(bucket_of(v), BUCKETS - 1, "{v} overflows");
        }

        let h = Histogram::new();
        for v in [0.5, 1.0, 5.0, 100.0, 0.5] {
            h.observe(v);
        }
        let s = h.snapshot();
        let at = |v: f64| bucket_of(v) as u16;
        assert_eq!(s.buckets, vec![at(0.5), at(1.0), at(5.0), at(100.0)]);
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert!((s.sum - 107.0).abs() < 1e-12);
        assert!((s.mean() - 21.4).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0.5, 5.0, 50.0, 50.0] {
            both.observe(v);
        }
        a.observe(0.5);
        b.observe(5.0);
        b.observe(50.0);
        b.observe(50.0);
        a.merge(&b.snapshot());
        assert_eq!(a.snapshot(), both.snapshot());
        assert_eq!(a.snapshot().count, 4);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let h = Histogram::new();
        for _ in 0..4 {
            h.observe(1.0);
        }
        let s = h.snapshot();
        // four samples in (31/32, 1]: rank q * 4 interpolates across it
        assert_eq!(s.quantile(0.0), 0.96875, "q=0 reads the bucket's lower edge");
        assert_eq!(s.quantile(0.5), 0.984375);
        assert_eq!(s.quantile(1.0), 1.0, "q=1 reads its upper edge");
        assert_eq!(s.quantile(2.0), 1.0, "q clamps into [0, 1]");
        // a zero below them reads back as 0
        h.observe(0.0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(0.2), 0.0);
        assert_eq!(s.quantile(1.0), 1.0);
    }

    /// Seeded property: over samples log-uniform in 1 ns–1 h plus exact
    /// edges, zeros and duplicates, every quantile is within 1/16 of the
    /// exact nearest-rank sample, merging two snapshots equals the
    /// snapshot of the union, and diffing the union against one part
    /// leaves the other.
    #[test]
    fn quantiles_merges_and_diffs_hold_over_random_samples() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let edges = [0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];
        for case in 0..300 {
            let n = 1 + next() % 200;
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut last = 1.0;
            for _ in 0..n {
                let v = match next() % 8 {
                    0 => 0.0,
                    1 => edges[(next() % 8) as usize],
                    2 => edge((next() % (LOG_BUCKETS as u64 + 1)) as usize),
                    3 => last,
                    _ => 1e-6 * 3.6e12f64.powf((next() >> 11) as f64 / (1u64 << 53) as f64),
                };
                last = v;
                if next() % 3 == 0 { &mut b } else { &mut a }.push(v);
            }
            let (ha, hb, hab) = (Histogram::new(), Histogram::new(), Histogram::new());
            a.iter().for_each(|v| ha.observe(*v));
            b.iter().for_each(|v| hb.observe(*v));
            a.iter().chain(&b).for_each(|v| hab.observe(*v));
            let (sa, sb, sab) = (ha.snapshot(), hb.snapshot(), hab.snapshot());

            let mut sorted: Vec<f64> = a.iter().chain(&b).copied().collect();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1];
                let est = sab.quantile(q);
                assert!(
                    (est - exact).abs() <= exact / 16.0,
                    "case {case}: q={q} read {est} against the exact {exact}"
                );
            }

            let merged = sa.merge(&sb);
            assert_eq!((&merged.buckets, &merged.counts), (&sab.buckets, &sab.counts));
            assert_eq!(merged.count, sab.count);
            assert!((merged.sum - sab.sum).abs() <= 1e-9 * sab.sum, "case {case}: sums");
            let rest = sab.diff(&sa);
            assert_eq!((&rest.buckets, &rest.counts), (&sb.buckets, &sb.counts), "case {case}");
            assert_eq!(rest.count, b.len() as u64);
        }
    }

    #[test]
    fn snapshot_diff_attributes_a_phase() {
        let reg = MetricsRegistry::new();
        reg.count("coda_test_ops", 5);
        reg.gauge("coda_test_level").set(2.0);
        reg.histogram("coda_test_ms").observe(1.0);
        let before = reg.snapshot();
        reg.count("coda_test_ops", 3);
        reg.count("coda_test_new", 2);
        reg.gauge("coda_test_level").set(2.5);
        reg.histogram("coda_test_ms").observe(100.0);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counter("coda_test_ops"), 3);
        assert_eq!(delta.counter("coda_test_new"), 2, "names absent before count in full");
        assert_eq!(delta.gauges["coda_test_level"], 0.5);
        let h = &delta.histograms["coda_test_ms"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 100.0);
        assert_eq!(h.counts.iter().sum::<u64>(), 1, "exactly the phase's observation remains");
        // Diffing against a later snapshot saturates instead of wrapping.
        assert_eq!(before.diff(&reg.snapshot()).counter("coda_test_ops"), 0);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = MetricsRegistry::new();
        reg.count("coda_test_a", 7);
        reg.gauge("coda_test_g").set(1.25);
        reg.histogram("coda_test_ms").observe(3.0);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("snapshot JSON parses");
        assert_eq!(back, snap);
        assert!(MetricsSnapshot::from_json("not json").is_err());
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_typed() {
        let reg = MetricsRegistry::new();
        reg.count("coda_test_b", 2);
        reg.count("coda_test_a", 1);
        reg.histogram("coda_test_ms").observe(2.0);
        let text = reg.render_prometheus();
        assert_eq!(text, reg.render_prometheus());
        // names sorted, counters before the histogram of this snapshot
        let a = text.find("coda_test_a 1").unwrap();
        let b = text.find("coda_test_b 2").unwrap();
        assert!(a < b);
        assert!(text.contains("# TYPE coda_test_ms histogram"));
        assert!(text.contains("coda_test_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("coda_test_ms_count 1"));
    }

    /// Satellite: quantile/mean edge cases pinned — q=0, q=1, a
    /// single-bucket histogram, and the empty histogram all stay finite.
    #[test]
    fn quantile_and_mean_edges_are_finite() {
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.quantile(0.0), 0.0);
        assert_eq!(empty.quantile(1.0), 0.0);
        assert_eq!(Histogram::new().snapshot(), empty, "registered, never observed");

        // q=0 and q=1 on a multi-bucket histogram
        let multi = Histogram::new();
        for v in [1.5, 1.6, 3.0] {
            multi.observe(v);
        }
        let m = multi.snapshot();
        assert_eq!(m.quantile(0.0), 1.4375, "q=0 lands at the first occupied bucket's floor");
        assert_eq!(m.quantile(1.0), 3.0);
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0, f64::NAN] {
            assert!(m.quantile(q).is_finite(), "q={q} must be finite");
        }
    }

    /// Satellite: non-finite inputs cannot leak NaN into quantile/mean —
    /// the vendored serde_json would render them as `null` and break the
    /// JSON round-trip.
    #[test]
    fn non_finite_inputs_never_leak_nan() {
        // the overflow bucket has no upper edge: it reads as 2^24, never
        // interpolating 0 × inf
        for v in [f64::INFINITY, f64::NAN, 1e300] {
            let h = Histogram::new();
            h.observe(v);
            let s = h.snapshot();
            assert_eq!(s.quantile(0.5), 2f64.powi(24), "{v} reads as the overflow floor");
            assert!(s.quantile(1.0).is_finite());
            assert!(s.mean().is_finite(), "a non-finite sum degrades the mean to 0");
        }
    }

    /// Satellite: after-only names (a shard spun up mid-window) count in
    /// full across all three instrument kinds.
    #[test]
    fn diff_counts_after_only_names_in_full() {
        let reg = MetricsRegistry::new();
        reg.count("coda_test_old", 1);
        let before = reg.snapshot();
        reg.count("coda_test_new_counter", 7);
        reg.gauge("coda_test_new_gauge").set(3.5);
        reg.histogram("coda_test_new_ms").observe(2.0);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counter("coda_test_new_counter"), 7);
        assert_eq!(delta.gauges["coda_test_new_gauge"], 3.5, "gauge diffs against implicit 0");
        assert_eq!(delta.histograms["coda_test_new_ms"].count, 1, "whole histogram attributed");
        assert_eq!(delta.counter("coda_test_old"), 0, "unchanged names delta to zero");
    }

    /// Satellite: before-only names (a restarted shard whose instruments
    /// vanished) are dropped from the diff — nothing new to attribute —
    /// and a fresh same-name registration saturates at zero instead of
    /// underflowing.
    #[test]
    fn diff_drops_before_only_names_and_saturates_restarts() {
        let a = MetricsRegistry::new();
        a.count("coda_test_ops", 9);
        a.gauge("coda_test_depth").set(4.0);
        a.histogram("coda_test_ms").observe(1.0);
        let before = a.snapshot();
        // the "restarted shard": a fresh registry missing every old name
        let b = MetricsRegistry::new();
        b.count("coda_test_other", 1);
        let delta = b.snapshot().diff(&before);
        assert!(!delta.counters.contains_key("coda_test_ops"), "before-only counters drop");
        assert!(!delta.gauges.contains_key("coda_test_depth"), "before-only gauges drop");
        assert!(!delta.histograms.contains_key("coda_test_ms"), "before-only histograms drop");
        assert_eq!(delta.counter("coda_test_other"), 1);
        // restart with the same name at a lower value: saturate, not wrap
        let c = MetricsRegistry::new();
        c.count("coda_test_ops", 2);
        let delta = c.snapshot().diff(&before);
        assert_eq!(delta.counter("coda_test_ops"), 0, "9 → 2 saturates at zero");
    }

    /// Satellite: `# HELP` lines render with text-format escaping, label
    /// values escape, and the exposition parses back (round-trip).
    #[test]
    fn prometheus_exposition_conforms_and_roundtrips() {
        let reg = MetricsRegistry::new();
        reg.count("coda_test_ops", 4);
        reg.gauge("coda_test_depth").set(1.5);
        reg.histogram("coda_test_ms").observe(3.0);
        reg.set_help("coda_test_ops", "requests served\nsecond line with \\ backslash");
        reg.set_help("coda_test_ms", "latency");
        let text = reg.render_prometheus();

        // escaping: the newline and backslash are literal escapes, and the
        // HELP line directly precedes its TYPE line
        assert!(
            text.contains("# HELP coda_test_ops requests served\\nsecond line with \\\\ backslash")
        );
        assert!(text.contains("# HELP coda_test_ms latency\n# TYPE coda_test_ms histogram"));
        assert!(!text.contains("# HELP coda_test_depth"), "no help set, no HELP line");

        // every sample line's metric family has a TYPE line
        let mut typed = std::collections::BTreeSet::new();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let mut parts = line.split_whitespace().skip(2);
            let (name, kind) = (parts.next().unwrap(), parts.next().unwrap());
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            typed.insert(name.to_string());
        }
        assert_eq!(
            typed,
            ["coda_test_depth", "coda_test_ms", "coda_test_ops"]
                .iter()
                .map(ToString::to_string)
                .collect()
        );

        // round-trip: parse sample lines back and compare to the snapshot
        let mut parsed: BTreeMap<String, f64> = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (name, value) = line.rsplit_once(' ').unwrap();
            parsed.insert(name.to_string(), value.parse().unwrap());
        }
        assert_eq!(parsed["coda_test_ops"], 4.0);
        assert_eq!(parsed["coda_test_depth"], 1.5);
        assert_eq!(parsed["coda_test_ms_count"], 1.0);
        assert_eq!(parsed["coda_test_ms_sum"], 3.0);
        assert_eq!(parsed["coda_test_ms_bucket{le=\"+Inf\"}"], 1.0, "cumulative +Inf == count");
        assert_eq!(text, reg.render_prometheus(), "rendering is deterministic");
    }

    /// Labeled-series convention: `labeled_name` builds a parseable flat
    /// name, `name_parts`/`label_value` recover the pieces, and escaping
    /// survives the round trip.
    #[test]
    fn labeled_names_build_and_parse() {
        let n = labeled_name("coda_serve_queue_wait_ms", "shard", "shard-3");
        assert_eq!(n, "coda_serve_queue_wait_ms{shard=\"shard-3\"}");
        assert_eq!(name_parts(&n), ("coda_serve_queue_wait_ms", Some("shard=\"shard-3\"")));
        assert_eq!(label_value(&n, "shard"), Some("shard-3"));
        assert_eq!(label_value(&n, "spec"), None);
        assert_eq!(name_parts("coda_plain"), ("coda_plain", None));
        assert_eq!(label_value("coda_plain", "shard"), None);
        // spec keys carry '=' and '>' freely; quotes escape
        let s = labeled_name("coda_core_eval_path_ms", "spec", "scale>ridge;alpha=0.1");
        assert_eq!(label_value(&s, "spec"), Some("scale>ridge;alpha=0.1"));
        let q = labeled_name("coda_x", "k", "a\"b");
        assert_eq!(q, "coda_x{k=\"a\\\"b\"}");
        // labeled variants sort after their unlabeled base in a BTreeMap
        let mut m = BTreeMap::new();
        for k in [n.as_str(), "coda_serve_queue_wait_ms", "coda_serve_queue_wait_ms_extra"] {
            m.insert(k.to_string(), ());
        }
        let keys: Vec<_> = m.keys().cloned().collect();
        assert_eq!(keys[0], "coda_serve_queue_wait_ms");
        assert_eq!(keys[2], n, "labeled variant sorts last ('{{' > '_')");
    }

    /// Labeled series render under one Prometheus family head: a single
    /// `# TYPE` line per base, labels spliced into histogram suffixes.
    #[test]
    fn prometheus_renders_labeled_series_under_one_family() {
        let reg = MetricsRegistry::new();
        reg.set_help("coda_test_wait_ms", "queue wait");
        reg.histogram("coda_test_wait_ms").observe(5.0);
        let labeled = labeled_name("coda_test_wait_ms", "shard", "shard-0");
        reg.histogram(&labeled).observe(5.0);
        reg.count(&labeled_name("coda_test_ops", "shard", "shard-1"), 3);
        let text = reg.render_prometheus();

        assert_eq!(text.matches("# TYPE coda_test_wait_ms histogram").count(), 1);
        assert_eq!(text.matches("# HELP coda_test_wait_ms queue wait").count(), 1);
        // 5 ms closes its bucket; the empty buckets are not rendered
        assert!(text.contains("coda_test_wait_ms_bucket{le=\"5\"} 1\ncoda_test_wait_ms_bucket"));
        assert!(text.contains("coda_test_wait_ms_bucket{shard=\"shard-0\",le=\"5\"} 1"));
        assert!(text.contains("coda_test_wait_ms_bucket{shard=\"shard-0\",le=\"+Inf\"} 1"));
        assert_eq!(text.matches("_bucket{").count(), 4, "one finite bucket and +Inf per series");
        assert!(text.contains("coda_test_wait_ms_sum{shard=\"shard-0\"} 5"));
        assert!(text.contains("coda_test_wait_ms_count{shard=\"shard-0\"} 1"));
        assert!(text.contains("# TYPE coda_test_ops counter"));
        assert!(text.contains("coda_test_ops{shard=\"shard-1\"} 3"));
        // no malformed double-brace suffixes leak out
        assert!(!text.contains("}{"));
        assert_eq!(text, reg.render_prometheus(), "rendering stays deterministic");
    }

    #[test]
    fn registry_handles_are_shared_across_threads() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                scope.spawn(move || {
                    let c = reg.counter("coda_test_shared");
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("coda_test_shared"), 4000);
    }
}
