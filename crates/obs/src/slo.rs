//! Declared service-level objectives evaluated as multi-window burn rates
//! over a [`FlightRecorder`] timeline (the Google-SRE multi-window,
//! multi-burn-rate alerting rule).
//!
//! An [`SloSpec`] names a signal (a bad/good counter ratio, the fraction
//! of a latency histogram above a threshold, or a raw occurrence budget)
//! and an error-budget objective. The [`SloEngine`] re-evaluates every
//! declared SLO each time the flight recorder closes a window: the *burn
//! rate* is how fast the error budget is being consumed relative to the
//! objective (burn 1.0 = exactly on budget), computed over both a long
//! and a short window of recent flight history. An alert fires only when
//! **both** exceed the factor — the long window filters noise, the short
//! window proves the problem is still happening — emitting a
//! deterministic `slo.burn` trace event and flipping the SLO's shared
//! [`BurnState`], the hook an admission-control edge can consult.
//!
//! Everything is a pure function of the timeline, so same-seed runs
//! produce byte-identical [`SloReport`]s.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use serde::impl_serde_struct;

use crate::flight::{FlightRecorder, FlightWindow};
use crate::trace::Tracer;

/// What an SLO measures over each flight window.
#[derive(Debug, Clone)]
pub enum SloSignal {
    /// Bad-event fraction: `bad / (bad + good)` over two counters (e.g.
    /// shed requests vs completed requests).
    EventRatio {
        /// Counter of bad events.
        bad: String,
        /// Counter of good events.
        good: String,
    },
    /// Fraction of a histogram's observations above `threshold_ms`
    /// (bucket-resolution: an observation counts as bad when its whole
    /// bucket lies above the threshold).
    LatencyAbove {
        /// Histogram name.
        histogram: String,
        /// The latency objective's threshold.
        threshold_ms: f64,
    },
    /// A raw occurrence budget: `allowed_per_window` occurrences of a
    /// counter are tolerated per level-0 window; the burn rate is
    /// occurrences over allowance (fractional budgets like `0.5` make a
    /// single occurrence a breach at factor 1).
    Occurrence {
        /// Counter of occurrences (e.g. failovers).
        counter: String,
        /// Budgeted occurrences per level-0 window (must be > 0).
        allowed_per_window: f64,
    },
}

/// One declared objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Stable SLO name (lands in `slo.burn` events and the report).
    pub name: String,
    /// What to measure.
    pub signal: SloSignal,
    /// Allowed bad fraction (the error budget); ignored by
    /// [`SloSignal::Occurrence`], whose budget is `allowed_per_window`.
    pub objective: f64,
}

/// Long burn window, in flight-timeline windows (smooths noise).
const LONG_WINDOWS: usize = 12;
/// Short burn window, in flight-timeline windows (proves the burn is
/// current).
const SHORT_WINDOWS: usize = 3;
/// Burn-rate threshold both windows must exceed to alert.
const BURN_FACTOR: f64 = 2.0;

/// Lock-free burn state shared with consumers (e.g. a serving tier's
/// admission edge): the latest long-window burn rate and whether the SLO
/// is currently breaching.
#[derive(Debug, Default)]
pub struct BurnState {
    breached: AtomicBool,
    burn_bits: AtomicU64,
}

impl BurnState {
    /// Creates a quiescent state (burn 0, not breached).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the SLO breached at the latest evaluation.
    pub fn breached(&self) -> bool {
        self.breached.load(Ordering::Relaxed)
    }

    /// The latest long-window burn rate.
    pub fn burn(&self) -> f64 {
        f64::from_bits(self.burn_bits.load(Ordering::Relaxed))
    }

    /// Overwrites the published state. Normally called by
    /// [`SloEngine::step`] at window boundaries; public so drivers and
    /// tests can force a consumer-visible breach without a full timeline.
    pub fn update(&self, burn: f64, breached: bool) {
        self.burn_bits.store(burn.to_bits(), Ordering::Relaxed);
        self.breached.store(breached, Ordering::Relaxed);
    }
}

/// One evaluation of one SLO at one window boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SloEvaluation {
    /// The SLO evaluated.
    pub slo: String,
    /// The window boundary (end of the newest window), milliseconds.
    pub at_ms: f64,
    /// Burn rate over the long window.
    pub long_burn: f64,
    /// Burn rate over the short window.
    pub short_burn: f64,
    /// Whether both burns exceeded the factor.
    pub breached: bool,
}

impl_serde_struct!(SloEvaluation { slo, at_ms, long_burn, short_burn, breached });

/// Per-SLO rollup across all evaluations.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The SLO.
    pub slo: String,
    /// Evaluations performed.
    pub evaluations: u64,
    /// Evaluations that breached.
    pub breaches: u64,
    /// Worst long-window burn observed.
    pub max_long_burn: f64,
    /// Worst short-window burn observed.
    pub max_short_burn: f64,
}

impl_serde_struct!(SloStatus { slo, evaluations, breaches, max_long_burn, max_short_burn });

/// Everything the engine concluded — the deterministic JSON artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Per-SLO rollups, in declaration order.
    pub statuses: Vec<SloStatus>,
    /// Every evaluation, in time then declaration order.
    pub evaluations: Vec<SloEvaluation>,
}

impl_serde_struct!(SloReport { statuses, evaluations });

/// One contiguous run of breached evaluations for a single SLO — the unit
/// the diagnosis layer turns into an incident.
#[derive(Debug, Clone, PartialEq)]
pub struct BreachRun {
    /// The breaching SLO.
    pub slo: String,
    /// Boundary time of the first breached evaluation, milliseconds.
    pub first_ms: f64,
    /// Boundary time of the last breached evaluation in the run.
    pub last_ms: f64,
    /// Breached evaluations in the run.
    pub evaluations: u64,
    /// Worst long-window burn inside the run.
    pub max_long_burn: f64,
    /// Worst short-window burn inside the run.
    pub max_short_burn: f64,
}

impl SloReport {
    /// Total breaches across all SLOs.
    pub fn total_breaches(&self) -> u64 {
        self.statuses.iter().map(|s| s.breaches).sum()
    }

    /// Contiguous breach runs, grouped per SLO in declaration order and
    /// chronological within each SLO: consecutive breached evaluations
    /// collapse into one run; a clean evaluation in between splits runs.
    pub fn breach_runs(&self) -> Vec<BreachRun> {
        let mut runs = Vec::new();
        for status in &self.statuses {
            let mut current: Option<BreachRun> = None;
            for e in self.evaluations.iter().filter(|e| e.slo == status.slo) {
                if e.breached {
                    let run = current.get_or_insert(BreachRun {
                        slo: status.slo.clone(),
                        first_ms: e.at_ms,
                        last_ms: e.at_ms,
                        evaluations: 0,
                        max_long_burn: 0.0,
                        max_short_burn: 0.0,
                    });
                    run.last_ms = e.at_ms;
                    run.evaluations += 1;
                    run.max_long_burn = run.max_long_burn.max(e.long_burn);
                    run.max_short_burn = run.max_short_burn.max(e.short_burn);
                } else if let Some(run) = current.take() {
                    runs.push(run);
                }
            }
            if let Some(run) = current.take() {
                runs.push(run);
            }
        }
        runs
    }

    /// Serializes to deterministic JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error message on malformed input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let value = serde_json::parse(s).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value)
    }
}

/// The bad fraction of `signal` over a set of flight windows, plus the
/// divisor that turns it into a burn rate.
fn burn_over(signal: &SloSignal, objective: f64, windows: &[&FlightWindow]) -> f64 {
    match signal {
        SloSignal::EventRatio { bad, good } => {
            let bad_n: u64 = windows.iter().map(|w| w.delta.counter(bad)).sum();
            let good_n: u64 = windows.iter().map(|w| w.delta.counter(good)).sum();
            let total = bad_n + good_n;
            if total == 0 || objective <= 0.0 {
                return 0.0;
            }
            (bad_n as f64 / total as f64) / objective
        }
        SloSignal::LatencyAbove { histogram, threshold_ms } => {
            let mut above = 0u64;
            let mut total = 0u64;
            for w in windows {
                if let Some(h) = w.delta.histograms.get(histogram) {
                    total += h.count;
                    above += h.count_above(*threshold_ms);
                }
            }
            if total == 0 || objective <= 0.0 {
                return 0.0;
            }
            (above as f64 / total as f64) / objective
        }
        SloSignal::Occurrence { counter, allowed_per_window } => {
            let n: u64 = windows.iter().map(|w| w.delta.counter(counter)).sum();
            let spanned: u64 = windows.iter().map(|w| w.windows).sum();
            let allowance = allowed_per_window * spanned as f64;
            if allowance <= 0.0 {
                return if n > 0 { f64::INFINITY } else { 0.0 };
            }
            n as f64 / allowance
        }
    }
}

/// Evaluates declared SLOs against a flight timeline and maintains the
/// shared per-SLO [`BurnState`]s.
#[derive(Debug)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    states: Vec<Arc<BurnState>>,
    evaluations: Vec<SloEvaluation>,
    last_eval_ms: Option<f64>,
}

impl SloEngine {
    /// Creates an engine over `specs`.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let states = specs.iter().map(|_| Arc::new(BurnState::new())).collect();
        SloEngine { specs, states, evaluations: Vec::new(), last_eval_ms: None }
    }

    /// The shared burn state for SLO `name` — hand this to a consumer
    /// (e.g. `ServeConfig::burn_state`) to let it react to breaches.
    pub fn burn_state(&self, name: &str) -> Option<Arc<BurnState>> {
        self.specs.iter().position(|s| s.name == name).map(|i| Arc::clone(&self.states[i]))
    }

    /// Evaluates every SLO at the recorder's newest window boundary (a
    /// no-op when no new window has closed since the last step). On a
    /// breach, emits a deterministic `slo.burn` event stamped with the
    /// boundary time when a tracer is given. Returns breaches fired by
    /// this step.
    pub fn step(&mut self, recorder: &FlightRecorder, tracer: Option<&Tracer>) -> u64 {
        let timeline = recorder.timeline();
        let Some(newest) = timeline.last() else { return 0 };
        let at_ms = newest.end_ms;
        if self.last_eval_ms == Some(at_ms) {
            return 0;
        }
        self.last_eval_ms = Some(at_ms);
        let long_slice = tail(&timeline, LONG_WINDOWS);
        let short_slice = tail(&timeline, SHORT_WINDOWS);
        let mut fired = 0;
        for (spec, state) in self.specs.iter().zip(&self.states) {
            let long_burn = burn_over(&spec.signal, spec.objective, long_slice);
            let short_burn = burn_over(&spec.signal, spec.objective, short_slice);
            let breached = long_burn >= BURN_FACTOR && short_burn >= BURN_FACTOR;
            state.update(long_burn, breached);
            if breached {
                fired += 1;
                if let Some(t) = tracer {
                    t.event_at(
                        at_ms,
                        "slo.burn",
                        &[
                            ("slo", &spec.name),
                            ("long_burn", &format!("{long_burn:.3}")),
                            ("short_burn", &format!("{short_burn:.3}")),
                        ],
                    );
                }
            }
            self.evaluations.push(SloEvaluation {
                slo: spec.name.clone(),
                at_ms,
                long_burn,
                short_burn,
                breached,
            });
        }
        fired
    }

    /// The accumulated report.
    pub fn report(&self) -> SloReport {
        let statuses = self
            .specs
            .iter()
            .map(|spec| {
                let mine = self.evaluations.iter().filter(|e| e.slo == spec.name);
                let mut status = SloStatus {
                    slo: spec.name.clone(),
                    evaluations: 0,
                    breaches: 0,
                    max_long_burn: 0.0,
                    max_short_burn: 0.0,
                };
                for e in mine {
                    status.evaluations += 1;
                    if e.breached {
                        status.breaches += 1;
                    }
                    status.max_long_burn = status.max_long_burn.max(e.long_burn);
                    status.max_short_burn = status.max_short_burn.max(e.short_burn);
                }
                status
            })
            .collect();
        SloReport { statuses, evaluations: self.evaluations.clone() }
    }
}

/// The last `n` windows of a timeline (all of it when shorter).
fn tail<'a, 'w>(timeline: &'a [&'w FlightWindow], n: usize) -> &'a [&'w FlightWindow] {
    &timeline[timeline.len().saturating_sub(n)..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::flight::WINDOW_MS;
    use crate::metrics::MetricsRegistry;

    fn shed_slo() -> SloSpec {
        SloSpec {
            name: "serve-shed-rate".to_string(),
            signal: SloSignal::EventRatio {
                bad: "coda_serve_shed_total".to_string(),
                good: "coda_serve_ops_total".to_string(),
            },
            objective: 0.05,
        }
    }

    fn engine_and_recorder(specs: Vec<SloSpec>) -> (SloEngine, FlightRecorder, MetricsRegistry) {
        (SloEngine::new(specs), FlightRecorder::new(), MetricsRegistry::new())
    }

    #[test]
    fn healthy_traffic_never_burns() {
        let (mut engine, mut rec, reg) = engine_and_recorder(vec![shed_slo()]);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=6 {
            reg.count("coda_serve_ops_total", 100);
            rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
            assert_eq!(engine.step(&rec, None), 0);
        }
        let report = engine.report();
        assert_eq!(report.total_breaches(), 0);
        assert_eq!(report.statuses[0].evaluations, 6);
        assert_eq!(report.statuses[0].max_long_burn, 0.0);
    }

    #[test]
    fn sustained_sheds_breach_both_windows_and_emit_events() {
        let clock = std::sync::Arc::new(ManualClock::new());
        let tracer = Tracer::new(clock as std::sync::Arc<dyn Clock>);
        let (mut engine, mut rec, reg) = engine_and_recorder(vec![shed_slo()]);
        rec.tick(0.0, &reg.snapshot());
        let mut fired = 0;
        for i in 1..=4 {
            // 30% shed rate against a 5% objective: burn 6 > factor 2
            reg.count("coda_serve_ops_total", 70);
            reg.count("coda_serve_shed_total", 30);
            rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
            fired += engine.step(&rec, Some(&tracer));
        }
        assert!(fired >= 1, "sustained overload must alert");
        let report = engine.report();
        assert!(report.total_breaches() >= 1);
        assert!(report.statuses[0].max_long_burn > 2.0);
        let log = tracer.render_log();
        assert!(log.contains("slo.burn"), "breaches must land in the trace: {log}");
        assert!(log.contains("slo=serve-shed-rate"));
    }

    #[test]
    fn a_transient_spike_needs_the_short_window_too() {
        let (mut engine, mut rec, reg) = engine_and_recorder(vec![shed_slo()]);
        rec.tick(0.0, &reg.snapshot());
        // one bad window, then recovery: by the time the long window
        // accumulates the spike, the short window is clean again
        reg.count("coda_serve_ops_total", 50);
        reg.count("coda_serve_shed_total", 50);
        rec.tick(WINDOW_MS, &reg.snapshot());
        let mut fired = engine.step(&rec, None);
        for i in 2..=5 {
            reg.count("coda_serve_ops_total", 100);
            rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
            let step = engine.step(&rec, None);
            if i >= 4 {
                assert_eq!(step, 0, "window {i}: spike aged out of the short window");
            }
            fired += step;
        }
        // while the spike sits inside the 3-deep short window it may alert,
        // but once it ages out the long window's stale history alone never
        // re-alerts — that is the point of the second window
        let report = engine.report();
        assert_eq!(report.total_breaches(), fired);
        // at t=400 the 12-deep long window still covers the spike but the
        // 3-deep short window is clean: burning memory without an alert
        let at_400 = report.evaluations.iter().find(|e| e.at_ms == 400.0).expect("evaluated");
        assert!(at_400.long_burn > 0.0, "the long window still remembers the spike");
        assert!(!at_400.breached, "yet no alert fires without short-window corroboration");
    }

    #[test]
    fn latency_and_occurrence_signals_burn() {
        let latency = SloSpec {
            name: "serve-p99".to_string(),
            signal: SloSignal::LatencyAbove {
                histogram: "coda_serve_latency_ms".to_string(),
                threshold_ms: 10.0,
            },
            objective: 0.01,
        };
        let failover = SloSpec {
            name: "failovers".to_string(),
            signal: SloSignal::Occurrence {
                counter: "coda_cluster_failovers_total".to_string(),
                allowed_per_window: 0.25,
            },
            objective: 1.0,
        };
        let (mut engine, mut rec, reg) = engine_and_recorder(vec![latency, failover]);
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=3 {
            // every observation lands past 10ms, and a failover per window
            reg.histogram("coda_serve_latency_ms").observe(50.0);
            reg.count("coda_cluster_failovers_total", 1);
            rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
            engine.step(&rec, None);
        }
        let report = engine.report();
        for status in &report.statuses {
            assert!(status.breaches >= 1, "{} must breach: {status:?}", status.slo);
        }
    }

    #[test]
    fn burn_state_flips_for_consumers_and_report_roundtrips() {
        let (mut engine, mut rec, reg) = engine_and_recorder(vec![shed_slo()]);
        let state = engine.burn_state("serve-shed-rate").expect("declared");
        assert!(engine.burn_state("absent").is_none());
        assert!(!state.breached());
        rec.tick(0.0, &reg.snapshot());
        for i in 1..=3 {
            reg.count("coda_serve_shed_total", 100);
            rec.tick(i as f64 * WINDOW_MS, &reg.snapshot());
            engine.step(&rec, None);
        }
        assert!(state.breached(), "the shared hook must flip on breach");
        assert!(state.burn() > 2.0);
        let report = engine.report();
        let back = SloReport::from_json(&report.to_json()).expect("report JSON parses");
        assert_eq!(back, report);
    }

    #[test]
    fn empty_report_roundtrips_and_yields_no_breach_runs() {
        // an engine that never stepped: zero evaluations, zero breaches —
        // the report must still render and parse, and diagnosis must see
        // no breach runs in it
        let (engine, _rec, _reg) = engine_and_recorder(vec![shed_slo()]);
        let report = engine.report();
        assert!(report.evaluations.is_empty());
        assert_eq!(report.total_breaches(), 0);
        let back = SloReport::from_json(&report.to_json()).expect("empty report JSON parses");
        assert_eq!(back, report);
        assert!(report.breach_runs().is_empty());
    }
}
