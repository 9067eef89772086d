//! Structured calculations (paper §III): "Our system implements a
//! pre-defined set of methods for various steps in data analytics … Users
//! can specify the options that they want for each step, as well as the
//! input parameters … The system will then run the appropriate data
//! analytics calculations and optionally store the results in the data
//! analytics results repository (DARR)."
//!
//! A [`JobSpec`] is pure data (serializable): dataset identity, ordered
//! component names, qualified parameters, CV strategy and metric. The
//! [`ComponentRegistry`] maps the pre-defined component names to factories,
//! so any client — or the DARR itself — can turn a spec back into a
//! runnable pipeline. [`run_job`] executes a spec against a dataset and
//! publishes the result through the cooperative claim protocol.

use std::collections::BTreeMap;
use std::fmt;

use coda_chaos::{RetryPolicy, RetryStats};
use coda_core::{Evaluator, Node, Pipeline};
use coda_darr::{AnalyticsRecord, ComputationKey, CoopOutcome, CooperativeClient, Darr};
use coda_data::{
    BoxedEstimator, BoxedTransformer, CvStrategy, Dataset, Metric, NoOp, ParamValue, Params,
};
use coda_obs::Obs;
use serde::{Deserialize, Serialize, Value};

/// Error produced by spec resolution or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// A component name is not registered.
    UnknownComponent(String),
    /// The metric name is not recognized.
    UnknownMetric(String),
    /// Another client still held the claim on this computation when the
    /// job's retry policy gave up.
    ClaimHeld {
        /// The claim holder's client name.
        owner: String,
    },
    /// The job failed during evaluation.
    Execution(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::UnknownComponent(n) => write!(f, "unknown component {n}"),
            JobError::UnknownMetric(m) => write!(f, "unknown metric {m}"),
            JobError::ClaimHeld { owner } => write!(f, "claim held by {owner}; retry later"),
            JobError::Execution(e) => write!(f, "job execution failed: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A declarative analytics job: everything needed to (re)run one structured
/// calculation, serializable for interchange between clients.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Dataset identity in the data tier.
    pub dataset_id: String,
    /// Dataset version the job targets.
    pub dataset_version: u64,
    /// Ordered component names (registry keys); the last must be an
    /// estimator.
    pub steps: Vec<String>,
    /// Qualified `node__param` assignments, values rendered as JSON-friendly
    /// numbers/strings.
    pub params: BTreeMap<String, SpecValue>,
    /// K for K-fold cross-validation.
    pub cv_folds: usize,
    /// Metric name (`"rmse"`, `"f1-score"`, …).
    pub metric: String,
}

/// A JSON-friendly parameter value, serialized untagged (a bare JSON
/// number/bool/string).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecValue {
    /// Integer parameter.
    Int(i64),
    /// Floating point parameter.
    Float(f64),
    /// Boolean parameter.
    Bool(bool),
    /// String parameter.
    Str(String),
}

serde::impl_serde_struct!(JobSpec { dataset_id, dataset_version, steps, params, cv_folds, metric });

impl Serialize for SpecValue {
    fn to_value(&self) -> Value {
        match self {
            SpecValue::Int(i) => Value::Int(*i),
            SpecValue::Float(f) => Value::Float(*f),
            SpecValue::Bool(b) => Value::Bool(*b),
            SpecValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl Deserialize for SpecValue {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Int(i) => Ok(SpecValue::Int(*i)),
            Value::Float(f) => Ok(SpecValue::Float(*f)),
            Value::Bool(b) => Ok(SpecValue::Bool(*b)),
            Value::Str(s) => Ok(SpecValue::Str(s.clone())),
            other => Err(format!("expected number/bool/string parameter, got {other:?}")),
        }
    }
}

impl From<&SpecValue> for ParamValue {
    fn from(v: &SpecValue) -> ParamValue {
        match v {
            SpecValue::Int(i) => ParamValue::I64(*i),
            SpecValue::Float(f) => ParamValue::F64(*f),
            SpecValue::Bool(b) => ParamValue::Bool(*b),
            SpecValue::Str(s) => ParamValue::Str(s.clone()),
        }
    }
}

impl JobSpec {
    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        // value-model rendering is infallible; an empty string would only
        // appear if the vendored serde_json grew a real error path
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parses a spec from JSON.
    ///
    /// # Errors
    ///
    /// The underlying `serde_json` error for malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The DARR computation key identifying this job.
    pub fn computation_key(&self) -> ComputationKey {
        let params: Params =
            self.params.iter().map(|(k, v)| (k.clone(), ParamValue::from(v))).collect();
        let spec = coda_core::PipelineSpec::new(self.steps.iter().map(|s| s.as_str()).collect())
            .with_params(&params);
        ComputationKey {
            dataset_id: self.dataset_id.clone(),
            dataset_version: self.dataset_version,
            pipeline: spec.key(),
            cv: format!("kfold({})", self.cv_folds),
            metric: self.metric.clone(),
        }
    }
}

enum Factory {
    Transform(Box<dyn Fn() -> BoxedTransformer + Send + Sync>),
    Estimate(Box<dyn Fn() -> BoxedEstimator + Send + Sync>),
}

/// The pre-defined component catalog: name → factory.
pub struct ComponentRegistry {
    factories: BTreeMap<String, Factory>,
}

impl fmt::Debug for ComponentRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ComponentRegistry[{} components]", self.factories.len())
    }
}

impl ComponentRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ComponentRegistry { factories: BTreeMap::new() }
    }

    /// Registers a transformer factory under `name`.
    pub fn register_transformer<F>(&mut self, name: &str, factory: F)
    where
        F: Fn() -> BoxedTransformer + Send + Sync + 'static,
    {
        self.factories.insert(name.to_string(), Factory::Transform(Box::new(factory)));
    }

    /// Registers an estimator factory under `name`.
    pub fn register_estimator<F>(&mut self, name: &str, factory: F)
    where
        F: Fn() -> BoxedEstimator + Send + Sync + 'static,
    {
        self.factories.insert(name.to_string(), Factory::Estimate(Box::new(factory)));
    }

    /// The registered component names.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(|s| s.as_str()).collect()
    }

    /// The standard catalog: the §III/Table-I components under their stable
    /// names.
    pub fn standard() -> Self {
        use coda_ml as ml;
        let mut r = ComponentRegistry::new();
        r.register_transformer("noop", || Box::new(NoOp::new()));
        r.register_transformer("standard_scaler", || Box::new(ml::StandardScaler::new()));
        r.register_transformer("minmax_scaler", || Box::new(ml::MinMaxScaler::new()));
        r.register_transformer("robust_scaler", || Box::new(ml::RobustScaler::new()));
        r.register_transformer("pca", || Box::new(ml::Pca::new(2)));
        r.register_transformer("select_k_best", || {
            Box::new(ml::SelectKBest::new(2, ml::ScoreFunction::FRegression))
        });
        r.register_transformer("mean_imputer", || {
            Box::new(coda_data::impute::SimpleImputer::new(coda_data::impute::ImputeStrategy::Mean))
        });
        r.register_transformer("median_imputer", || {
            Box::new(coda_data::impute::SimpleImputer::new(
                coda_data::impute::ImputeStrategy::Median,
            ))
        });
        r.register_transformer("random_oversampler", || Box::new(ml::RandomOversampler::new()));
        r.register_estimator("linear_regression", || Box::new(ml::LinearRegression::new()));
        r.register_estimator("ridge_regression", || Box::new(ml::RidgeRegression::new(1.0)));
        r.register_estimator("logistic_regression", || Box::new(ml::LogisticRegression::new()));
        r.register_estimator("knn_regressor", || Box::new(ml::KnnRegressor::new(5)));
        r.register_estimator("knn_classifier", || Box::new(ml::KnnClassifier::new(5)));
        r.register_estimator("decision_tree_regressor", || {
            Box::new(ml::DecisionTreeRegressor::new())
        });
        r.register_estimator("decision_tree_classifier", || {
            Box::new(ml::DecisionTreeClassifier::new())
        });
        r.register_estimator("random_forest_regressor", || {
            Box::new(ml::RandomForestRegressor::new(20))
        });
        r.register_estimator("random_forest_classifier", || {
            Box::new(ml::RandomForestClassifier::new(20))
        });
        r.register_estimator("gradient_boosting_regressor", || {
            Box::new(ml::GradientBoostingRegressor::new(40, 0.1))
        });
        r.register_estimator("gaussian_nb", || Box::new(ml::GaussianNb::new()));
        r
    }

    /// Builds the runnable pipeline for a spec, applying its parameters.
    ///
    /// # Errors
    ///
    /// [`JobError::UnknownComponent`] for unregistered names;
    /// [`JobError::Execution`] for invalid parameters.
    pub fn build_pipeline(&self, spec: &JobSpec) -> Result<Pipeline, JobError> {
        let mut nodes = Vec::with_capacity(spec.steps.len());
        for name in &spec.steps {
            let factory =
                self.factories.get(name).ok_or_else(|| JobError::UnknownComponent(name.clone()))?;
            let node = match factory {
                Factory::Transform(f) => Node::new(name.clone(), f().into()),
                Factory::Estimate(f) => Node::new(name.clone(), f().into()),
            };
            nodes.push(node);
        }
        let mut pipeline = Pipeline::from_nodes(nodes);
        let params: Params =
            spec.params.iter().map(|(k, v)| (k.clone(), ParamValue::from(v))).collect();
        pipeline.apply_params(&params).map_err(|e| JobError::Execution(e.to_string()))?;
        Ok(pipeline)
    }
}

impl Default for ComponentRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

/// Executes a job spec against a dataset, cooperating through the DARR:
/// results already computed (by anyone) are reused; otherwise `client`
/// claims, computes with the spec's K-fold CV, and stores the result. A
/// claim another client holds is revisited under `policy` (see
/// [`CooperativeClient::run`]): the holder either finishes — its result is
/// then reused — or its lease expires and `client` takes over. Returns the
/// result plus the retry accounting.
///
/// With `obs` the job runs under a `cluster.job` span that parents the
/// cooperative protocol's spans, and its lifecycle counts into the
/// registry: `coda_cluster_jobs_submitted` → `_completed` / `_held` /
/// `_failed`, plus `coda_cluster_job_retries`.
///
/// # Errors
///
/// [`JobError`] for bad specs or failed evaluation; a claim still held when
/// the policy gives up surfaces as [`JobError::ClaimHeld`].
pub fn run_job(
    registry: &ComponentRegistry,
    spec: &JobSpec,
    data: &Dataset,
    darr: &Darr,
    client: &str,
    policy: &RetryPolicy,
    obs: Option<&Obs>,
) -> (Result<AnalyticsRecord, JobError>, RetryStats) {
    let _span =
        obs.map(|o| o.span("cluster.job", &[("client", client), ("dataset", &spec.dataset_id)]));
    let count = |name: &str, n: u64| {
        if let Some(o) = obs {
            o.count(name, n);
        }
    };
    count("coda_cluster_jobs_submitted", 1);
    let prepared = Metric::parse(&spec.metric)
        .ok_or_else(|| JobError::UnknownMetric(spec.metric.clone()))
        .and_then(|metric| Ok((metric, registry.build_pipeline(spec)?)));
    let (result, stats) = match prepared {
        Ok((metric, pipeline)) => {
            let mut coop = CooperativeClient::new(darr, client, 60_000);
            if let Some(o) = obs {
                coop = coop.with_obs(o.clone());
            }
            let evaluator = Evaluator::new(CvStrategy::kfold(spec.cv_folds), metric);
            let key = spec.computation_key();
            let (summary, mut outcomes) = coop.run(std::slice::from_ref(&key), policy, |_| {
                let scores =
                    evaluator.evaluate_pipeline(&pipeline, data).map_err(|e| e.to_string())?;
                let mean = scores.iter().sum::<f64>() / scores.len() as f64;
                Ok((mean, scores, format!("job spec: {}", spec.to_json())))
            });
            let result = match outcomes.pop() {
                Some(
                    CoopOutcome::Computed(r) | CoopOutcome::Reused(r) | CoopOutcome::Journaled(r),
                ) => Ok(r),
                Some(CoopOutcome::SkippedHeld(owner)) => Err(JobError::ClaimHeld { owner }),
                Some(CoopOutcome::Failed(e)) => Err(JobError::Execution(e)),
                None => Err(JobError::Execution("the cooperative run yielded no outcome".into())),
            };
            (result, summary.retry)
        }
        // a spec that never reaches the DARR makes exactly one attempt
        Err(e) => {
            let mut state = policy.state();
            state.begin_attempt();
            (Err(e), state.finish(false))
        }
    };
    if stats.retries > 0 {
        count("coda_cluster_job_retries", u64::from(stats.retries));
    }
    count(
        match &result {
            Ok(_) => "coda_cluster_jobs_completed",
            Err(JobError::ClaimHeld { .. }) => "coda_cluster_jobs_held",
            Err(_) => "coda_cluster_jobs_failed",
        },
        1,
    );
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_data::synth;

    /// One attempt: a held claim surfaces at once.
    fn once() -> RetryPolicy {
        RetryPolicy::fixed(0.0, 1)
    }

    fn spec() -> JobSpec {
        let mut params = BTreeMap::new();
        params.insert("pca__n_components".to_string(), SpecValue::Int(3));
        JobSpec {
            dataset_id: "sensors".to_string(),
            dataset_version: 1,
            steps: vec![
                "standard_scaler".to_string(),
                "pca".to_string(),
                "linear_regression".to_string(),
            ],
            params,
            cv_folds: 3,
            metric: "rmse".to_string(),
        }
    }

    #[test]
    fn json_roundtrip() {
        let s = spec();
        let back = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert!(JobSpec::from_json("nope").is_err());
    }

    #[test]
    fn registry_builds_and_runs_spec() {
        let registry = ComponentRegistry::standard();
        assert!(registry.names().contains(&"pca"));
        let obs = Obs::deterministic();
        let darr = Darr::new();
        darr.attach_obs(obs.clone());
        let ds = synth::linear_regression(90, 5, 0.2, 401);
        let record = run_job(&registry, &spec(), &ds, &darr, "client-a", &once(), None).0.unwrap();
        assert!(record.score.is_finite());
        assert_eq!(record.fold_scores.len(), 3);
        assert!(record.explanation.contains("job spec"));
        // a second client reuses instead of recomputing
        let again = run_job(&registry, &spec(), &ds, &darr, "client-b", &once(), None).0.unwrap();
        assert_eq!(again.producer, "client-a");
        assert_eq!(obs.registry().snapshot().counter("coda_darr_records_stored"), 1);
    }

    #[test]
    fn spec_identity_is_parameter_sensitive() {
        let a = spec();
        let mut b = spec();
        b.params.insert("pca__n_components".to_string(), SpecValue::Int(4));
        assert_ne!(a.computation_key(), b.computation_key());
        // same spec -> same key (redundancy detection)
        assert_eq!(a.computation_key(), spec().computation_key());
    }

    #[test]
    fn unknown_component_and_metric_rejected() {
        let registry = ComponentRegistry::standard();
        let mut bad = spec();
        bad.steps[1] = "quantum_annealer".to_string();
        assert!(matches!(registry.build_pipeline(&bad), Err(JobError::UnknownComponent(_))));
        let mut bad_metric = spec();
        bad_metric.metric = "vibes".to_string();
        let darr = Darr::new();
        let ds = synth::linear_regression(30, 3, 0.2, 402);
        assert!(matches!(
            run_job(&registry, &bad_metric, &ds, &darr, "c", &once(), None).0,
            Err(JobError::UnknownMetric(_))
        ));
    }

    #[test]
    fn bad_params_rejected_at_build() {
        let registry = ComponentRegistry::standard();
        let mut bad = spec();
        bad.params.insert("pca__n_components".to_string(), SpecValue::Int(0));
        assert!(matches!(registry.build_pipeline(&bad), Err(JobError::Execution(_))));
        let mut unknown = spec();
        unknown.params.insert("nonexistent__x".to_string(), SpecValue::Int(1));
        assert!(matches!(registry.build_pipeline(&unknown), Err(JobError::Execution(_))));
    }

    #[test]
    fn held_claim_surfaces_as_typed_error() {
        let registry = ComponentRegistry::standard();
        let darr = Darr::new();
        let ds = synth::linear_regression(60, 4, 0.2, 403);
        let s = spec();
        darr.try_claim(&s.computation_key(), "someone-else", 60_000);
        match run_job(&registry, &s, &ds, &darr, "client-a", &once(), None).0 {
            Err(JobError::ClaimHeld { owner }) => assert_eq!(owner, "someone-else"),
            other => panic!("expected ClaimHeld, got {other:?}"),
        }
    }

    #[test]
    fn retry_policy_takes_over_expired_claim() {
        let obs = Obs::deterministic();
        let registry = ComponentRegistry::standard();
        let darr = Darr::new();
        let ds = synth::linear_regression(60, 4, 0.2, 404);
        let s = spec();
        // a dead client holds the claim for 100 ticks
        darr.try_claim(&s.computation_key(), "dead", 100);
        let policy = RetryPolicy::fixed(60.0, 5);
        let (result, stats) = run_job(&registry, &s, &ds, &darr, "client-a", &policy, Some(&obs));
        let record = result.unwrap();
        assert_eq!(record.producer, "client-a");
        assert!(stats.retries >= 1);
        assert_eq!(stats.successes, 1);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_cluster_jobs_submitted"), 1);
        assert_eq!(snap.counter("coda_cluster_jobs_completed"), 1);
        assert_eq!(snap.counter("coda_cluster_job_retries"), u64::from(stats.retries));
        assert_eq!(snap.counter("coda_darr_takeovers"), 1);
        let forest = obs.forest();
        let job = forest.spans().find(|sp| sp.name == "cluster.job").unwrap();
        assert!(forest
            .spans()
            .filter(|sp| sp.name == "darr.process")
            .all(|sp| sp.parent == Some(job.ctx.span_id)));

        // non-transient errors do not retry
        let mut bad = spec();
        bad.metric = "vibes".to_string();
        let (result, stats) = run_job(&registry, &bad, &ds, &darr, "c", &policy, Some(&obs));
        assert!(matches!(result, Err(JobError::UnknownMetric(_))));
        assert_eq!(stats.attempts, 1);
        assert_eq!(obs.registry().snapshot().counter("coda_cluster_jobs_failed"), 1);
    }

    #[test]
    fn custom_registration() {
        let mut registry = ComponentRegistry::new();
        registry.register_transformer("noop", || Box::new(NoOp::new()));
        registry
            .register_estimator("linear_regression", || Box::new(coda_ml::LinearRegression::new()));
        let s = JobSpec {
            dataset_id: "d".to_string(),
            dataset_version: 1,
            steps: vec!["noop".to_string(), "linear_regression".to_string()],
            params: BTreeMap::new(),
            cv_folds: 3,
            metric: "r2".to_string(),
        };
        let pipeline = registry.build_pipeline(&s).unwrap();
        assert_eq!(pipeline.node_names(), vec!["noop", "linear_regression"]);
    }
}
