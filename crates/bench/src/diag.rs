//! The D9 incident-diagnosis driver: breach-triggered root-cause
//! attribution scored against injected ground truth. Four scenarios share
//! one seed:
//!
//! - `clean` / `fault` — the D8 ops pair, replayed through
//!   [`coda_obs::diagnose`]: clean must yield an empty incident list,
//!   fault's incidents must name the injected fault families among their
//!   suspects.
//! - `hot-shard` — every fault-window burst routes to shard 0 (keys picked
//!   so FNV-1a agrees under 1, 2 and 8 shards) and queues behind a held
//!   shard, so the per-shard queue-wait split — not the aggregate, not
//!   the shed counter — must come back as the top suspect.
//! - `slow-operator` — a [`ClockBurnScaler`] pipeline stage burns manual
//!   clock during fault windows, so the spec-labeled `eval.path` series
//!   spikes and diagnosis must blame that exact operator
//!   (`eval.path[slow_scale>ridge_regression]`).
//!
//! Everything runs on a [`ManualClock`] with closed-loop submission, so
//! `DIAG_REPORT.json` renders byte-identically across same-seed runs *and*
//! across shard counts: untouched shards contribute all-zero series that
//! never clear the z-threshold, and every SLO reads aggregate series.

use std::sync::Arc;

use coda_core::{Evaluator, TegBuilder};
use coda_data::{synth, ComponentError, CvStrategy, Dataset, Metric, Transformer};
use coda_ml::RidgeRegression;
use coda_obs::{
    diagnose, labeled_name, BurnWindows, DiagReport, DiagnoseConfig, FlightConfig, FlightRecorder,
    ManualClock, Obs, SloEngine, SloSignal, SloSpec,
};
use coda_serve::{ServeConfig, ServeTier};
use coda_store::shard_of;
use serde::impl_serde_struct;

// the targeted scenarios run on D8's window grid and fault phase, so the
// re-run D8 scenarios and the targeted ones diagnose alike
use crate::ops::{
    put, run_ops_scenario_full, slo_specs, uniform, ScenarioArtifacts, EXEMPLAR_CAP, FAULT_FROM,
    FAULT_TO, N_WINDOWS, WINDOW_MS,
};

/// Manual-clock milliseconds queued requests wait behind the held shard.
const HOT_WAIT_MS: f64 = 60.0;
/// Per-call clock burn of the slow-operator stage, healthy vs faulted.
const BURN_HEALTHY_MS: f64 = 0.5;
const BURN_FAULT_MS: f64 = 8.0;

/// A pass-through feature scaler that advances the shared [`ManualClock`]
/// on every `fit`/`transform` call — the deterministic stand-in for an
/// operator whose implementation got slower. The data is untouched, so
/// evaluation results stay bit-identical to a run without the stage.
pub struct ClockBurnScaler {
    clock: Arc<ManualClock>,
    burn_ms: f64,
}

impl ClockBurnScaler {
    /// A scaler burning `burn_ms` of manual-clock time per call.
    pub fn new(clock: Arc<ManualClock>, burn_ms: f64) -> Self {
        ClockBurnScaler { clock, burn_ms }
    }

    fn burn(&self) {
        self.clock.advance_ms(self.burn_ms);
    }
}

impl std::fmt::Debug for ClockBurnScaler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClockBurnScaler").field("burn_ms", &self.burn_ms).finish()
    }
}

impl Transformer for ClockBurnScaler {
    fn name(&self) -> &str {
        "slow_scale"
    }

    fn fit(&mut self, _data: &Dataset) -> Result<(), ComponentError> {
        self.burn();
        Ok(())
    }

    fn transform(&self, data: &Dataset) -> Result<Dataset, ComponentError> {
        self.burn();
        Ok(data.clone())
    }

    fn clone_box(&self) -> Box<dyn Transformer> {
        Box::new(ClockBurnScaler { clock: Arc::clone(&self.clock), burn_ms: self.burn_ms })
    }
}

/// How a scenario's incidents are scored against its injected labels.
enum Scoring {
    /// No fault injected: attribution holds iff no incident was raised.
    Clean,
    /// Every incident's top-ranked suspect must equal the injected label.
    TopMatches,
    /// Every injected label must appear among some incident's suspects.
    Membership,
}

/// One diagnosed scenario of the D9 run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagScenario {
    /// Scenario name.
    pub name: String,
    /// Ground-truth fault labels injected by the driver (empty = clean).
    pub injected: Vec<String>,
    /// Incidents the diagnosis engine raised.
    pub incidents: u64,
    /// Each incident's top-ranked suspect, incident order.
    pub top_suspects: Vec<String>,
    /// `1` when the report attributes the run to the injected ground
    /// truth under the scenario's scoring rule, else `0`.
    pub attributed: u64,
    /// The full diagnosis report.
    pub report: DiagReport,
}

impl_serde_struct!(DiagScenario { name, injected, incidents, top_suspects, attributed, report });

/// The `DIAG_REPORT.json` schema: all four scenarios of one seeded D9
/// run. Deliberately omits the shard count — the artifact must render
/// byte-identically under 1, 2 and 8 serving shards.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagBundle {
    /// Schema tag (`coda-diag-bundle-v1`).
    pub schema: String,
    /// Workload seed.
    pub seed: u64,
    /// Level-0 window length, milliseconds.
    pub window_ms: f64,
    /// The D8 clean run (must diagnose to zero incidents).
    pub clean: DiagScenario,
    /// The D8 fault run (suspects must cover the injected families).
    pub fault: DiagScenario,
    /// The single-hot-shard overload.
    pub hot_shard: DiagScenario,
    /// The single-slow-operator regression.
    pub slow_operator: DiagScenario,
}

impl_serde_struct!(DiagBundle { schema, seed, window_ms, clean, fault, hot_shard, slow_operator });

impl DiagBundle {
    /// Renders the stable JSON artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parses a rendered bundle back.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error message on malformed input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let value = serde_json::parse(s).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value)
    }

    /// True when every scenario attributed correctly.
    pub fn all_attributed(&self) -> bool {
        [&self.clean, &self.fault, &self.hot_shard, &self.slow_operator]
            .iter()
            .all(|s| s.attributed == 1)
    }
}

/// The D9 SLO set: the D8 four plus the two signals the new scenarios
/// stress — per-request queue wait and per-path evaluation latency.
fn diag_slo_specs() -> Vec<SloSpec> {
    let mut specs = slo_specs();
    specs.push(SloSpec {
        name: "serve-queue-wait".to_string(),
        signal: SloSignal::LatencyAbove {
            histogram: "coda_serve_queue_wait_ms".to_string(),
            threshold_ms: 50.0,
        },
        objective: 0.01,
    });
    specs.push(SloSpec {
        name: "eval-path-latency".to_string(),
        signal: SloSignal::LatencyAbove {
            histogram: "coda_core_eval_path_ms".to_string(),
            threshold_ms: 25.0,
        },
        objective: 0.05,
    });
    specs
}

/// Object ids that FNV-1a homes on shard 0 under **eight** shards — and
/// therefore (hash ≡ 0 mod 8 ⇒ hash ≡ 0 mod 2 and mod 1) on shard 0
/// under two and one as well, which is what keeps the hot-shard report
/// shard-count-invariant.
fn hot_shard_keys(n: usize) -> Vec<String> {
    let mut keys = Vec::with_capacity(n);
    let mut i = 0u64;
    while keys.len() < n {
        let k = format!("hot-{i}");
        if shard_of(&k, 8) == 0 {
            keys.push(k);
        }
        i += 1;
    }
    keys
}

/// Scores `report` against `injected` and assembles the scenario record.
fn score_scenario(
    name: &str,
    injected: Vec<String>,
    report: DiagReport,
    scoring: &Scoring,
) -> DiagScenario {
    let top_suspects: Vec<String> =
        report.incidents.iter().map(|i| i.top_suspect.clone()).collect();
    let attributed = match scoring {
        Scoring::Clean => report.incidents.is_empty(),
        Scoring::TopMatches => {
            !report.incidents.is_empty() && top_suspects.iter().all(|t| injected.contains(t))
        }
        Scoring::Membership => {
            !report.incidents.is_empty()
                && injected.iter().all(|label| {
                    report.incidents.iter().any(|inc| {
                        inc.series_suspects.iter().any(|s| s.series.starts_with(label.as_str()))
                            || inc.operator_suspects.iter().any(|o| o.operator == *label)
                    })
                })
        }
    };
    DiagScenario {
        name: name.to_string(),
        injected,
        incidents: report.incidents.len() as u64,
        top_suspects,
        attributed: u64::from(attributed),
        report,
    }
}

/// Runs [`diagnose`] over a scenario's raw artifacts.
fn diagnose_artifacts(artifacts: &ScenarioArtifacts) -> DiagReport {
    diagnose(
        &DiagnoseConfig::default(),
        &artifacts.recorder,
        &artifacts.slo,
        &artifacts.exemplars,
        &artifacts.forest,
    )
}

/// The shared window loop of the two targeted scenarios. `hot` injects
/// the shard-0 queue buildup, `slow` arms the clock-burning scaler;
/// exactly one is set per call.
fn run_targeted(seed: u64, n_shards: usize, hot: bool) -> ScenarioArtifacts {
    let clock = Arc::new(ManualClock::new());
    let obs = Obs::with_clock(clock.clone());
    obs.exemplars().enable(0.0, EXEMPLAR_CAP);
    let mut recorder =
        FlightRecorder::new(FlightConfig { window_ms: WINDOW_MS, ..FlightConfig::default() });
    let mut engine = SloEngine::new(diag_slo_specs(), BurnWindows::default());

    let serve_cfg = ServeConfig { n_shards, queue_capacity: 4, ..ServeConfig::default() };
    let tier = ServeTier::start_obs(&serve_cfg, Some(&obs));
    // every id homes on shard 0 under 1, 2 and 8 shards, so each shard
    // core sees an identical op stream (and hence identical store-side
    // counter cadence) at any shard count — the report stays byte-stable
    let keys = hot_shard_keys(18);
    let (hot_keys, bg_keys) = keys.split_at(12);

    let ds = synth::linear_regression(12, 6, 0.01, seed);
    let mut rng = seed ^ 0xd9;

    obs.sync_manual_ms(0.0);
    recorder.tick(0.0, &obs.registry().snapshot());

    for t in 0..N_WINDOWS {
        let now = t as f64 * WINDOW_MS;
        obs.sync_manual_ms(now);
        let in_fault = (FAULT_FROM..FAULT_TO).contains(&t);

        // --- serving traffic: steady closed loop, plus the hot burst ---
        for key in bg_keys {
            let _ = tier.submit(put(key, t as u8));
        }
        if hot && in_fault {
            // 12 requests pile onto held shard 0: its 4-deep queue
            // admits 4, sheds 8; the clock moves HOT_WAIT_MS before the
            // hold lifts, so every admitted request waited exactly that
            let hold = tier.hold_shard(0);
            let mut pendings = Vec::new();
            for key in hot_keys {
                if let Ok(p) = tier.submit_nowait(put(key, t as u8)) {
                    pendings.push(p);
                }
            }
            obs.sync_manual_ms(now + HOT_WAIT_MS);
            hold.release();
            for p in pendings {
                let _ = p.wait();
            }
        }

        // --- request latencies (seeded closed-form draws, always healthy) ---
        let latency = obs.registry().histogram("coda_serve_latency_ms");
        for _ in 0..20 {
            latency.observe(uniform(&mut rng, 1.0, 30.0));
        }

        // --- model evaluation: ridge alone, plus the burn-scaler path ---
        let burn = if !hot && in_fault { BURN_FAULT_MS } else { BURN_HEALTHY_MS };
        let builder = TegBuilder::new()
            .add_feature_scalers(vec![Box::new(ClockBurnScaler::new(clock.clone(), burn))])
            .add_models(vec![Box::new(RidgeRegression::new(1.0))]);
        if let Ok(graph) = builder.create_graph() {
            let _ = Evaluator::new(CvStrategy::kfold(2), Metric::Rmse)
                .with_obs(obs.clone())
                .evaluate_graph(&graph, &ds);
        }

        // --- window boundary: record + evaluate burn rates ---
        let end = (t + 1) as f64 * WINDOW_MS;
        obs.sync_manual_ms(end);
        recorder.tick(end, &obs.registry().snapshot());
        engine.step(&recorder, Some(obs.tracer().as_ref()));
    }

    let _ = tier.finish();
    let forest = obs.forest();
    ScenarioArtifacts {
        recorder,
        slo: engine.report(),
        exemplars: obs.exemplars().snapshot(),
        forest,
    }
}

/// Runs all four scenarios of the D9 diagnosis drill for one seed and
/// shard count, scoring each report against its injected ground truth.
pub fn run_diag_report(seed: u64, n_shards: usize) -> DiagBundle {
    let (_, clean_art) = run_ops_scenario_full(seed, false);
    let (_, fault_art) = run_ops_scenario_full(seed, true);
    let hot_art = run_targeted(seed, n_shards, true);
    let slow_art = run_targeted(seed, n_shards, false);

    let clean =
        score_scenario("clean", Vec::new(), diagnose_artifacts(&clean_art), &Scoring::Clean);
    let fault = score_scenario(
        "fault",
        vec![
            "coda_serve_shed_total".to_string(),
            "coda_serve_latency_ms".to_string(),
            "coda_core_eval_path_errors".to_string(),
            "coda_cluster_failovers_total".to_string(),
        ],
        diagnose_artifacts(&fault_art),
        &Scoring::Membership,
    );
    let hot_shard = score_scenario(
        "hot-shard",
        vec![labeled_name("coda_serve_queue_wait_ms", "shard", "shard-0")],
        diagnose_artifacts(&hot_art),
        &Scoring::TopMatches,
    );
    let slow_operator = score_scenario(
        "slow-operator",
        vec!["eval.path[slow_scale>ridge_regression]".to_string()],
        diagnose_artifacts(&slow_art),
        &Scoring::TopMatches,
    );

    DiagBundle {
        schema: "coda-diag-bundle-v1".to_string(),
        seed,
        window_ms: WINDOW_MS,
        clean,
        fault,
        hot_shard,
        slow_operator,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_obs::Clock;

    #[test]
    fn hot_keys_agree_across_shard_counts() {
        for k in hot_shard_keys(12) {
            assert_eq!(shard_of(&k, 8), 0);
            assert_eq!(shard_of(&k, 2), 0);
            assert_eq!(shard_of(&k, 1), 0);
        }
    }

    #[test]
    fn clock_burn_scaler_is_a_pure_clock_sink() {
        let clock = Arc::new(ManualClock::new());
        let mut s = ClockBurnScaler::new(clock.clone(), 5.0);
        let ds = synth::linear_regression(8, 2, 0.01, 1);
        s.fit(&ds).unwrap();
        let out = s.transform(&ds).unwrap();
        assert_eq!(out.n_samples(), ds.n_samples());
        assert_eq!(clock.now_ms(), 10.0, "fit + transform burn once each");
        let clone = s.clone_box();
        assert_eq!(clone.name(), "slow_scale");
    }
}
