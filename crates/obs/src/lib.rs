//! `coda-obs` — the unified observability layer for the coda workspace:
//! a lock-cheap [`MetricsRegistry`] of named counters/gauges/histograms, a
//! span/event [`Tracer`] over a pluggable [`Clock`], the [`Publish`] trait
//! unifying crate-local stats structs, and two exposition surfaces
//! (Prometheus text + `serde_json` snapshot). See DESIGN.md §9 for the
//! metric naming scheme (`coda_<crate>_<name>`), the span taxonomy, and
//! the determinism contract with the chaos clock.
//!
//! Spans and events parent under the calling thread's current span; a
//! caller holding a carried [`SpanContext`] makes it current with
//! [`Tracer::enter`] instead of passing it down. On top sits the ops
//! plane — [`FlightRecorder`], [`SloEngine`], [`ExemplarStore`] and
//! [`diagnose()`] — whose window ladder, burn windows and diagnosis
//! thresholds are constants (DESIGN.md §13–14).
//!
//! # Examples
//!
//! ```
//! use coda_obs::Obs;
//!
//! let obs = Obs::deterministic();
//! obs.count("coda_demo_ops", 3);
//! {
//!     let _span = obs.span("demo.step", &[("phase", "fit")]);
//! }
//! let snap = obs.registry().snapshot();
//! assert_eq!(snap.counter("coda_demo_ops"), 3);
//! let parsed = coda_obs::MetricsSnapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(parsed, snap);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analyze;
pub mod clock;
pub mod diagnose;
pub mod flight;
pub mod metrics;
pub mod profile;
pub mod publish;
pub mod slo;
pub mod trace;

use std::sync::Arc;

pub use analyze::{SpanNode, TraceForest};
pub use clock::{Clock, ManualClock, WallClock};
pub use diagnose::{diagnose, DiagReport, Incident, OperatorSuspect, SeriesSuspect, ShardSuspect};
pub use flight::{FlightRecorder, FlightWindow};
pub use metrics::{
    label_value, labeled_name, name_parts, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot,
};
pub use profile::{CostEntry, CostProfile, Exemplar, ExemplarStore};
pub use publish::Publish;
pub use slo::{
    BreachRun, BurnState, SloEngine, SloEvaluation, SloReport, SloSignal, SloSpec, SloStatus,
};
pub use trace::{
    EnterGuard, EventKind, SpanContext, SpanGuard, SpanId, TailPolicy, TailSampleReport,
    TraceEvent, TraceId, Tracer,
};

/// The handle instrumented components hold: a shared registry, a tracer,
/// and an exemplar store (disarmed by default), cheap to clone (`Arc`s).
#[derive(Clone, Debug)]
pub struct Obs {
    registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    exemplars: Arc<ExemplarStore>,
}

impl Obs {
    /// An `Obs` over an explicit clock.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Obs {
            registry: Arc::new(MetricsRegistry::new()),
            tracer: Arc::new(Tracer::new(clock)),
            exemplars: Arc::new(ExemplarStore::disabled()),
        }
    }

    /// An `Obs` timed by real elapsed time — the production default.
    pub fn wall() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// An `Obs` over a [`ManualClock`] pinned at zero: every timestamp is
    /// explicit, so traces replay byte-identically — use under test and in
    /// deterministic chaos runs.
    pub fn deterministic() -> Self {
        Self::with_clock(Arc::new(ManualClock::new()))
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The shared tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The shared exemplar store (disarmed unless
    /// [`ExemplarStore::enable`]d — offers are near-free while disarmed).
    pub fn exemplars(&self) -> &Arc<ExemplarStore> {
        &self.exemplars
    }

    /// The tracer clock's current reading, in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.tracer.now_ms()
    }

    /// Shorthand: add `n` to the counter named `name`.
    pub fn count(&self, name: &str, n: u64) {
        self.registry.count(name, n);
    }

    /// Shorthand: open a span on the tracer.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str, fields: &[(&str, &str)]) -> SpanGuard<'_> {
        self.tracer.span(name, fields)
    }

    /// Shorthand: record a point event on the tracer.
    pub fn event(&self, name: &str, fields: &[(&str, &str)]) {
        self.tracer.event(name, fields);
    }

    /// Syncs the tracer clock to `ms` when it is a [`ManualClock`] — lets a
    /// deterministic driver stamp every span from its own logical time.
    /// No-op (returns `false`) on real clocks.
    pub fn sync_manual_ms(&self, ms: f64) -> bool {
        match self.tracer.clock().as_manual() {
            Some(manual) => {
                manual.set_ms(ms);
                true
            }
            None => false,
        }
    }

    /// Reconstructs the causal span forest from everything the tracer has
    /// recorded so far.
    pub fn forest(&self) -> TraceForest {
        TraceForest::from_events(&self.tracer.events())
    }

    /// Shorthand: publish a stats snapshot into the registry.
    pub fn publish<P: Publish>(&self, stats: &P) {
        stats.publish(&self.registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundles_registry_and_tracer() {
        let obs = Obs::deterministic();
        obs.count("coda_obs_test", 2);
        obs.event("test.point", &[("k", "v")]);
        {
            let _span = obs.span("test.span", &[]);
        }
        let clone = obs.clone();
        clone.count("coda_obs_test", 1);
        assert_eq!(obs.registry().snapshot().counter("coda_obs_test"), 3);
        assert_eq!(obs.tracer().len(), 3, "event + span start/end, shared across clones");
        assert_eq!(obs.now_ms(), 0.0, "deterministic clock starts at zero");
    }

    #[test]
    fn publish_through_obs_lands_in_registry() {
        struct Demo(u64);
        impl Publish for Demo {
            fn publish(&self, registry: &MetricsRegistry) {
                registry.count("coda_obs_demo", self.0);
            }
        }
        let obs = Obs::deterministic();
        obs.publish(&Demo(5));
        obs.publish(&Some(Demo(2)));
        obs.publish(&None::<Demo>);
        assert_eq!(obs.registry().snapshot().counter("coda_obs_demo"), 7);
    }
}
