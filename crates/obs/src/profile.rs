//! Exemplars and per-operator cost profiles: the bridge from raw
//! telemetry to the cost-based TEG planner (ROADMAP item 2).
//!
//! An [`ExemplarStore`] keeps, per metric, the top-k most extreme
//! observations *with the span context that produced them* — so a fat
//! p99 in a histogram is one hop from the exact trace that caused it
//! (the Prometheus exemplar idea). Offering is a single atomic load on
//! the fast path while disabled, so production instrumentation can leave
//! the call sites in place unconditionally.
//!
//! A [`CostProfile`] rolls a [`TraceForest`]'s per-span self-times into
//! per-operator aggregates (`COST_PROFILE.json`): how many times each
//! operator ran and what it cost excluding its children — exactly the
//! training surface a KeystoneML-style per-operator cost model needs.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use serde::impl_serde_struct;

use crate::analyze::TraceForest;
use crate::trace::SpanContext;

/// One extreme observation and the span that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The observed value (e.g. milliseconds).
    pub value: f64,
    /// The producing span, when the observation happened inside one.
    pub ctx: Option<SpanContext>,
    /// Clock reading at the observation.
    pub at_ms: f64,
}

#[derive(Debug)]
struct ExemplarInner {
    per_metric: usize,
    by_metric: BTreeMap<String, Vec<Exemplar>>,
}

/// Top-k extreme observations per metric, with span attribution.
///
/// Starts disabled (threshold `+inf`): every [`ExemplarStore::offer`]
/// returns after one atomic comparison. [`ExemplarStore::enable`] arms it
/// with a threshold and a per-metric capacity.
#[derive(Debug)]
pub struct ExemplarStore {
    /// Observation threshold as `f64` bits — read lock-free on offer.
    threshold_bits: std::sync::atomic::AtomicU64,
    inner: Mutex<ExemplarInner>,
}

impl Default for ExemplarStore {
    fn default() -> Self {
        Self::disabled()
    }
}

impl ExemplarStore {
    /// A disarmed store: offers are near-free, nothing is retained.
    pub fn disabled() -> Self {
        ExemplarStore {
            threshold_bits: std::sync::atomic::AtomicU64::new(f64::INFINITY.to_bits()),
            inner: Mutex::new(ExemplarInner { per_metric: 0, by_metric: BTreeMap::new() }),
        }
    }

    /// Arms the store: observations `>= threshold` are retained, top-k
    /// (`per_metric`) by value per metric.
    pub fn enable(&self, threshold: f64, per_metric: usize) {
        let mut inner = self.inner.lock();
        inner.per_metric = per_metric.max(1);
        self.threshold_bits.store(threshold.to_bits(), std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether the store is armed.
    pub fn is_enabled(&self) -> bool {
        f64::from_bits(self.threshold_bits.load(std::sync::atomic::Ordering::Relaxed))
            < f64::INFINITY
    }

    /// Offers one observation. Below the threshold (or while disabled)
    /// this is one atomic load and a comparison.
    pub fn offer(&self, metric: &str, value: f64, ctx: Option<SpanContext>, at_ms: f64) {
        let threshold =
            f64::from_bits(self.threshold_bits.load(std::sync::atomic::Ordering::Relaxed));
        if value < threshold {
            return;
        }
        let mut inner = self.inner.lock();
        let cap = inner.per_metric.max(1);
        let list = inner.by_metric.entry(metric.to_string()).or_default();
        list.push(Exemplar { value, ctx, at_ms });
        // deterministic top-k: value descending, then earliest span id so
        // ties resolve identically across same-seed runs
        list.sort_by(|a, b| {
            b.value
                .total_cmp(&a.value)
                .then_with(|| span_key(a).cmp(&span_key(b)))
                .then(a.at_ms.total_cmp(&b.at_ms))
        });
        list.truncate(cap);
    }

    /// The retained exemplars for `metric`, best first.
    pub fn exemplars(&self, metric: &str) -> Vec<Exemplar> {
        self.inner.lock().by_metric.get(metric).cloned().unwrap_or_default()
    }

    /// Every retained exemplar, keyed by metric.
    pub fn snapshot(&self) -> BTreeMap<String, Vec<Exemplar>> {
        self.inner.lock().by_metric.clone()
    }

    /// Retained exemplars (across every metric) whose observation time
    /// falls in `(from_ms, to_ms]` — the slice diagnosis pulls when it
    /// reconstructs what ran inside a breach window. Metric-name order,
    /// best-first within a metric (the store's retention order).
    pub fn between(&self, from_ms: f64, to_ms: f64) -> Vec<(String, Exemplar)> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for (metric, list) in &inner.by_metric {
            for e in list.iter().filter(|e| e.at_ms > from_ms && e.at_ms <= to_ms) {
                out.push((metric.clone(), e.clone()));
            }
        }
        out
    }
}

/// Sort key for exemplar ties: span id when attributed, `u64::MAX` after
/// every attributed exemplar otherwise.
fn span_key(e: &Exemplar) -> u64 {
    e.ctx.map_or(u64::MAX, |c| c.span_id.0)
}

/// Aggregated cost of one operator (span name) across a forest.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEntry {
    /// Spans aggregated.
    pub spans: u64,
    /// Total self-time (duration minus children), milliseconds.
    pub total_self_ms: f64,
    /// Mean self-time per span.
    pub mean_self_ms: f64,
    /// Worst single span's self-time.
    pub max_self_ms: f64,
}

impl_serde_struct!(CostEntry { spans, total_self_ms, mean_self_ms, max_self_ms });

/// Per-operator cost aggregates — the `COST_PROFILE.json` schema.
#[derive(Debug, Clone, PartialEq)]
pub struct CostProfile {
    /// Schema tag (`coda-cost-profile-v1`).
    pub schema: String,
    /// Aggregates keyed by operator (span name, optionally refined).
    pub entries: BTreeMap<String, CostEntry>,
}

impl_serde_struct!(CostProfile { schema, entries });

impl CostProfile {
    /// Rolls a forest's self-times up by span name.
    pub fn from_forest(forest: &TraceForest) -> Self {
        Self::from_forest_refined(forest, None)
    }

    /// Like [`CostProfile::from_forest`], but keyed by each span's
    /// [`SpanNode::operator_label`](crate::SpanNode::operator_label) — so
    /// e.g. `eval.path` costs split per pipeline spec.
    pub fn from_forest_refined(forest: &TraceForest, refine_field: Option<&str>) -> Self {
        let mut entries: BTreeMap<String, CostEntry> = BTreeMap::new();
        for span in forest.spans() {
            let key = span.operator_label(refine_field);
            let self_ms = forest.self_time_ms(span.ctx.span_id);
            let entry = entries.entry(key).or_insert(CostEntry {
                spans: 0,
                total_self_ms: 0.0,
                mean_self_ms: 0.0,
                max_self_ms: 0.0,
            });
            entry.spans += 1;
            entry.total_self_ms += self_ms;
            entry.max_self_ms = entry.max_self_ms.max(self_ms);
        }
        for entry in entries.values_mut() {
            entry.mean_self_ms =
                if entry.spans == 0 { 0.0 } else { entry.total_self_ms / entry.spans as f64 };
        }
        CostProfile { schema: "coda-cost-profile-v1".to_string(), entries }
    }

    /// Operators by descending total self-time (the planner's hot list).
    pub fn ranked(&self) -> Vec<(&str, &CostEntry)> {
        let mut out: Vec<(&str, &CostEntry)> =
            self.entries.iter().map(|(k, v)| (k.as_str(), v)).collect();
        out.sort_by(|a, b| b.1.total_self_ms.total_cmp(&a.1.total_self_ms).then(a.0.cmp(b.0)));
        out
    }

    /// Serializes to deterministic JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parses a profile back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error message on malformed input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let value = serde_json::parse(s).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::trace::{SpanId, TraceId, Tracer};
    use std::sync::Arc;

    fn ctx(trace: u64, span: u64) -> SpanContext {
        SpanContext { trace_id: TraceId(trace), span_id: SpanId(span) }
    }

    #[test]
    fn disabled_store_retains_nothing() {
        let store = ExemplarStore::disabled();
        assert!(!store.is_enabled());
        store.offer("coda_test_ms", 1e9, Some(ctx(1, 1)), 0.0);
        assert!(store.exemplars("coda_test_ms").is_empty());
        assert!(store.snapshot().is_empty());
    }

    #[test]
    fn armed_store_keeps_top_k_over_threshold() {
        let store = ExemplarStore::disabled();
        store.enable(10.0, 2);
        assert!(store.is_enabled());
        store.offer("coda_test_ms", 5.0, Some(ctx(1, 1)), 0.0);
        store.offer("coda_test_ms", 12.0, Some(ctx(1, 2)), 1.0);
        store.offer("coda_test_ms", 50.0, Some(ctx(2, 3)), 2.0);
        store.offer("coda_test_ms", 20.0, Some(ctx(3, 4)), 3.0);
        let kept = store.exemplars("coda_test_ms");
        assert_eq!(kept.len(), 2, "capacity 2");
        assert_eq!(kept[0].value, 50.0, "best first");
        assert_eq!(kept[1].value, 20.0, "the 12.0 was evicted, the 5.0 never retained");
        assert_eq!(kept[0].ctx, Some(ctx(2, 3)), "span attribution survives");
    }

    #[test]
    fn exemplar_ties_resolve_deterministically() {
        let run = || {
            let store = ExemplarStore::disabled();
            store.enable(0.0, 3);
            store.offer("m", 7.0, Some(ctx(1, 9)), 0.0);
            store.offer("m", 7.0, Some(ctx(1, 2)), 1.0);
            store.offer("m", 7.0, None, 2.0);
            store.offer("m", 7.0, Some(ctx(1, 5)), 3.0);
            store.exemplars("m")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a[0].ctx, Some(ctx(1, 2)), "equal values order by span id");
        assert_eq!(a[2].ctx, Some(ctx(1, 9)));
    }

    #[test]
    fn cost_profile_rolls_self_times_by_operator() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(Arc::clone(&clock) as Arc<dyn Clock>);
        {
            let _graph = tracer.span("eval.graph", &[]);
            clock.advance_ms(2.0);
            {
                let _path = tracer.span("eval.path", &[("spec", "a")]);
                clock.advance_ms(10.0);
            }
            {
                let _path = tracer.span("eval.path", &[("spec", "b")]);
                clock.advance_ms(30.0);
            }
            clock.advance_ms(3.0);
        }
        let forest = TraceForest::from_events(&tracer.events());
        let profile = CostProfile::from_forest(&forest);
        let paths = &profile.entries["eval.path"];
        assert_eq!(paths.spans, 2);
        assert!((paths.total_self_ms - 40.0).abs() < 1e-9);
        assert!((paths.mean_self_ms - 20.0).abs() < 1e-9);
        assert!((paths.max_self_ms - 30.0).abs() < 1e-9);
        let graph = &profile.entries["eval.graph"];
        assert!((graph.total_self_ms - 5.0).abs() < 1e-9, "children excluded: {graph:?}");
        assert_eq!(profile.ranked()[0].0, "eval.path", "hot list orders by total self-time");

        let refined = CostProfile::from_forest_refined(&forest, Some("spec"));
        assert_eq!(refined.entries["eval.path[a]"].spans, 1);
        assert!((refined.entries["eval.path[b]"].max_self_ms - 30.0).abs() < 1e-9);
    }

    #[test]
    fn cost_profile_roundtrips_through_json() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(Arc::clone(&clock) as Arc<dyn Clock>);
        {
            let _s = tracer.span("op.x", &[]);
            clock.advance_ms(4.0);
        }
        let profile = CostProfile::from_forest(&TraceForest::from_events(&tracer.events()));
        let json = profile.to_json();
        assert!(json.contains("coda-cost-profile-v1"));
        let back = CostProfile::from_json(&json).expect("profile JSON parses");
        assert_eq!(back, profile);
        assert_eq!(profile.to_json(), back.to_json(), "byte-stable rendering");
    }
}
