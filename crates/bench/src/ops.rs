//! The D8 ops-plane driver: one deterministic "day in the life" of the
//! serving tier, observed end to end through the `coda-obs` telemetry
//! plane. A [`ManualClock`](coda_obs::ManualClock)-driven window loop
//! pushes real `ServeTier` traffic, real TEG evaluations, and a real
//! crash-recovery run through the [`FlightRecorder`], evaluates declared
//! SLOs as multi-window burn rates at every boundary, attaches exemplars
//! to hot `eval.path` observations, tail-samples the trace log down to
//! the interesting traces, and rolls span self-times into a per-operator
//! [`CostProfile`].
//!
//! Two scenarios share one seed: `clean` (closed-loop traffic, healthy
//! latencies, an uneventful recovery drill) must fire **zero** `slo.burn`
//! alerts; `fault` (admission-control bursts, a latency tail, a failing
//! OLS path, and an unrecovered home crash) must fire at least one on
//! every declared SLO family it stresses. Both render byte-identically
//! across same-seed runs — the `OPS_REPORT.json` artifact is diffable.

use bytes::Bytes;
use coda_chaos::CrashPlan;
use coda_cluster::{run_crash_recovery, CrashRecoveryConfig};
use coda_core::{Evaluator, TegBuilder};
use coda_data::{synth, CvStrategy, Metric};
use coda_ml::{LinearRegression, RidgeRegression, StandardScaler};
use coda_obs::flight::WINDOW_MS;
use coda_obs::{
    CostProfile, FlightRecorder, FlightWindow, Obs, SloEngine, SloReport, SloSignal, SloSpec,
    SpanId, TailPolicy, TraceForest,
};
use coda_serve::{ServeConfig, ServeRequest, ServeTier};
use serde::impl_serde_struct;

/// Windows driven per scenario.
pub(crate) const N_WINDOWS: u64 = 20;
/// Fault phase: windows `[FAULT_FROM, FAULT_TO)` inject the fault (here
/// sheds, tail latencies, and eval errors).
pub(crate) const FAULT_FROM: u64 = 8;
pub(crate) const FAULT_TO: u64 = 16;
/// Window at which the crash-recovery drill runs (both scenarios).
const DRILL_AT: u64 = 10;
/// Exemplars retained per metric.
pub(crate) const EXEMPLAR_CAP: usize = 8;

/// One exemplar-anchored critical path: the chain of spans from the trace
/// root down to the span that produced an extreme observation.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Metric the exemplar came from.
    pub metric: String,
    /// The observed value, milliseconds.
    pub value_ms: f64,
    /// Clock reading at the observation.
    pub at_ms: f64,
    /// Root-to-span chain, `name[spec]` segments joined by ` > `.
    pub path: String,
    /// Compact span context (`t<trace>.s<span>`).
    pub trace: String,
}

impl_serde_struct!(CriticalPath { metric, value_ms, at_ms, path, trace });

/// Everything one scenario of the D8 run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsScenario {
    /// Scenario name (`clean` / `fault`).
    pub name: String,
    /// Level-0 windows driven.
    pub windows: u64,
    /// `slo.burn` trace events emitted during the run.
    pub burn_events: u64,
    /// Breached evaluations across all SLOs.
    pub total_breaches: u64,
    /// Ops applied by the serving tier.
    pub serve_ops: u64,
    /// Requests shed by admission control.
    pub serve_shed: u64,
    /// The full burn-rate evaluation record.
    pub slo: SloReport,
    /// The downsampled flight timeline, oldest window first.
    pub timeline: Vec<FlightWindow>,
    /// Top exemplar critical paths, hottest first.
    pub critical_paths: Vec<CriticalPath>,
    /// Per-operator span self-time aggregates.
    pub cost: CostProfile,
    /// Distinct traces inspected by the tail sampler.
    pub traces_seen: u64,
    /// Traces retained (exemplar-pinned or carrying `slo.burn` context).
    pub traces_kept: u64,
    /// Trace events before the tail-sampling pass.
    pub events_before: u64,
    /// Trace events after the tail-sampling pass.
    pub events_after: u64,
}

impl_serde_struct!(OpsScenario {
    name,
    windows,
    burn_events,
    total_breaches,
    serve_ops,
    serve_shed,
    slo,
    timeline,
    critical_paths,
    cost,
    traces_seen,
    traces_kept,
    events_before,
    events_after,
});

/// The `OPS_REPORT.json` schema: both scenarios of one seeded D8 run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsReport {
    /// Schema tag (`coda-ops-report-v1`).
    pub schema: String,
    /// Workload seed.
    pub seed: u64,
    /// Level-0 window length, milliseconds.
    pub window_ms: f64,
    /// The healthy run (must fire zero alerts).
    pub clean: OpsScenario,
    /// The fault-injected run (must fire alerts).
    pub fault: OpsScenario,
}

impl_serde_struct!(OpsReport { schema, seed, window_ms, clean, fault });

impl OpsReport {
    /// Renders the stable JSON artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parses a rendered report back.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error message on malformed input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let value = serde_json::parse(s).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value)
    }
}

/// The declared serving-tier SLOs, shared by both scenarios (and extended
/// by the D9 diagnosis driver).
pub(crate) fn slo_specs() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "serve-shed-rate".to_string(),
            signal: SloSignal::EventRatio {
                bad: "coda_serve_shed_total".to_string(),
                good: "coda_serve_ops_total".to_string(),
            },
            objective: 0.05,
        },
        SloSpec {
            name: "serve-p99-latency".to_string(),
            signal: SloSignal::LatencyAbove {
                histogram: "coda_serve_latency_ms".to_string(),
                threshold_ms: 50.0,
            },
            objective: 0.01,
        },
        SloSpec {
            name: "eval-error-rate".to_string(),
            signal: SloSignal::EventRatio {
                bad: "coda_core_eval_path_errors".to_string(),
                good: "coda_core_eval_paths_ok".to_string(),
            },
            objective: 0.05,
        },
        SloSpec {
            name: "cluster-failovers".to_string(),
            signal: SloSignal::Occurrence {
                counter: "coda_cluster_failovers_total".to_string(),
                allowed_per_window: 0.02,
            },
            objective: 1.0,
        },
    ]
}

/// splitmix64 — the workspace's standard seedable mixer.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    *state = z ^ (z >> 31);
}

/// A splitmix64-backed uniform draw from `[lo, hi)`.
pub(crate) fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    splitmix64(state);
    lo + (hi - lo) * ((*state >> 11) as f64 / (1u64 << 53) as f64)
}

/// Root-to-span chain for one span id, ` > `-joined.
fn critical_path(forest: &TraceForest, id: SpanId) -> String {
    let mut segments = Vec::new();
    let mut cur = Some(id);
    while let Some(i) = cur {
        let Some(s) = forest.span(i) else { break };
        segments.push(s.operator_label(Some("spec")));
        cur = s.parent;
    }
    segments.reverse();
    segments.join(" > ")
}

/// The raw telemetry a scenario run leaves behind, beyond the rendered
/// [`OpsScenario`]: everything the D9 diagnosis engine consumes.
pub struct ScenarioArtifacts {
    /// The flight recorder, timeline intact.
    pub recorder: FlightRecorder,
    /// The burn-rate evaluation record.
    pub slo: SloReport,
    /// Retained exemplars, keyed by metric.
    pub exemplars: std::collections::BTreeMap<String, Vec<coda_obs::Exemplar>>,
    /// The full-run span forest (pre tail-sampling).
    pub forest: TraceForest,
}

/// Drives one scenario: `fault = false` is the healthy baseline, `fault =
/// true` injects shed bursts, a latency tail, failing eval paths, and an
/// unrecovered home crash. Single-threaded closed-loop submission plus the
/// manual clock make the returned scenario byte-stable for a given seed.
pub fn run_ops_scenario(seed: u64, fault: bool) -> OpsScenario {
    run_ops_scenario_full(seed, fault).0
}

/// As [`run_ops_scenario`], additionally returning the raw artifacts so a
/// diagnosis pass can attribute whatever breached.
pub fn run_ops_scenario_full(seed: u64, fault: bool) -> (OpsScenario, ScenarioArtifacts) {
    let obs = Obs::deterministic();
    obs.exemplars().enable(EXEMPLAR_CAP);
    let mut recorder = FlightRecorder::new();
    let mut engine = SloEngine::new(slo_specs());

    let serve_cfg = ServeConfig { n_shards: 2, queue_capacity: 4, ..ServeConfig::default() };
    let tier = ServeTier::start_obs(&serve_cfg, Some(&obs));

    // eval workloads: ridge-only always succeeds; adding plain OLS on a
    // 12x6 dataset under kfold(2) makes that branch fail every fold (6
    // training rows < 7 design columns), so fault windows split paths
    // 1 ok / 1 error
    let ds = synth::linear_regression(12, 6, 0.01, seed);
    let mut rng = seed ^ 0xd8;

    // window 0 baseline, before any traffic
    obs.sync_manual_ms(0.0);
    recorder.tick(0.0, &obs.registry().snapshot());

    for t in 0..N_WINDOWS {
        let now = t as f64 * WINDOW_MS;
        obs.sync_manual_ms(now);
        let in_fault = fault && (FAULT_FROM..FAULT_TO).contains(&t);

        // --- serving traffic ---
        if in_fault {
            // burst 12 requests at held shards: each 4-deep queue admits
            // its share, the rest shed at the admission edge
            let h0 = tier.hold_shard(0);
            let h1 = tier.hold_shard(1);
            let mut pendings = Vec::new();
            for i in 0..12 {
                if let Ok(p) = tier.submit_nowait(put(&format!("w{t}-k{i}"), t as u8)) {
                    pendings.push(p);
                }
            }
            h0.release();
            h1.release();
            for p in pendings {
                let _ = p.wait();
            }
        } else {
            for i in 0..6 {
                let _ = tier.submit(put(&format!("w{t}-k{i}"), t as u8));
            }
        }

        // --- request latencies (seeded closed-form draws) ---
        let latency = obs.registry().histogram("coda_serve_latency_ms");
        for i in 0..20 {
            let v = if in_fault && i < 8 {
                uniform(&mut rng, 60.0, 400.0) // the injected tail
            } else {
                uniform(&mut rng, 1.0, 30.0)
            };
            latency.observe(v);
        }

        // --- model evaluation ---
        let mut builder = TegBuilder::new();
        if in_fault {
            builder =
                builder.add_feature_scalers(vec![Box::new(StandardScaler::new())]).add_models(
                    vec![Box::new(LinearRegression::new()), Box::new(RidgeRegression::new(1.0))],
                );
        } else {
            builder = builder.add_models(vec![Box::new(RidgeRegression::new(1.0))]);
        }
        if let Ok(graph) = builder.create_graph() {
            let _ = Evaluator::new(CvStrategy::kfold(2), Metric::Rmse)
                .with_obs(obs.clone())
                .evaluate_graph(&graph, &ds);
        }

        // --- crash-recovery drill ---
        // the recovery driver owns its manual clock, so it runs against a
        // private Obs; its counters fold into the shared registry so the
        // failover lands in this window's flight delta
        if t == DRILL_AT {
            let plan = if fault {
                CrashPlan::new().with_crash_at("node-0", 9, None) // no restart: forces failover
            } else {
                CrashPlan::new()
            };
            let drill_obs = Obs::deterministic();
            let cfg = CrashRecoveryConfig { plan, ..CrashRecoveryConfig::default() };
            let _ = run_crash_recovery(&cfg, 1, Some(&drill_obs));
            for (name, v) in &drill_obs.registry().snapshot().counters {
                obs.count(name, *v);
            }
        }

        // --- window boundary: record + evaluate burn rates ---
        let end = (t + 1) as f64 * WINDOW_MS;
        obs.sync_manual_ms(end);
        recorder.tick(end, &obs.registry().snapshot());
        engine.step(&recorder, Some(obs.tracer().as_ref()));
    }

    let tier_report = tier.finish();
    let slo = engine.report();

    // the forest and cost profile cover the FULL run; sampling trims the
    // retained event log afterwards
    let forest = obs.forest();
    let cost = CostProfile::from_forest_refined(&forest, Some("spec"));
    let exemplars = obs.exemplars().exemplars("coda_core_eval_path_ms");
    let critical_paths: Vec<CriticalPath> = exemplars
        .iter()
        .filter_map(|e| {
            let ctx = e.ctx?;
            Some(CriticalPath {
                metric: "coda_core_eval_path_ms".to_string(),
                value_ms: e.value,
                at_ms: e.at_ms,
                path: critical_path(&forest, ctx.span_id),
                trace: ctx.encode(),
            })
        })
        .collect();

    // tail-based sampling: keep exemplar-pinned traces and anything that
    // carried a burn event; drop the bulk of healthy traces
    let mut policy = TailPolicy::new().keep_event("slo.burn");
    for e in &exemplars {
        if let Some(ctx) = e.ctx {
            policy = policy.keep_trace(ctx.trace_id);
        }
    }
    let tail = obs.tracer().sample_tail(&policy);
    let burn_events = obs.tracer().events().iter().filter(|e| e.name == "slo.burn").count() as u64;

    let scenario = OpsScenario {
        name: if fault { "fault" } else { "clean" }.to_string(),
        windows: N_WINDOWS,
        burn_events,
        total_breaches: slo.total_breaches(),
        serve_ops: tier_report.total_ops(),
        serve_shed: tier_report.shed_total,
        slo: slo.clone(),
        timeline: recorder.timeline().into_iter().cloned().collect(),
        critical_paths,
        cost,
        traces_seen: tail.traces_seen as u64,
        traces_kept: tail.traces_kept as u64,
        events_before: tail.events_before as u64,
        events_after: tail.events_after as u64,
    };
    let artifacts =
        ScenarioArtifacts { recorder, slo, exemplars: obs.exemplars().snapshot(), forest };
    (scenario, artifacts)
}

/// Runs both scenarios of the D8 ops drill for one seed.
pub fn run_ops_report(seed: u64) -> OpsReport {
    OpsReport {
        schema: "coda-ops-report-v1".to_string(),
        seed,
        window_ms: WINDOW_MS,
        clean: run_ops_scenario(seed, false),
        fault: run_ops_scenario(seed, true),
    }
}

/// A 64-byte put of `fill` bytes to object `id`.
pub(crate) fn put(id: &str, fill: u8) -> ServeRequest {
    ServeRequest::Put { id: id.to_string(), data: Bytes::from(vec![fill; 64]) }
}
