//! Model validation and selection (paper §IV-B, Fig. 4): evaluate every
//! pipeline of a graph under a cross-validation strategy and scoring metric,
//! pick the best path, optionally expanding a parameter grid, running paths
//! in parallel across threads, and reusing shared transformer prefixes
//! through a [`TransformCache`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use coda_data::cv::{CvError, Split};
use coda_data::metrics::MetricError;
use coda_data::{ComponentError, CvStrategy, Dataset, Metric, Params};
use coda_obs::{labeled_name, Histogram, HistogramSnapshot, Obs};

use crate::cache::{CacheStats, TransformCache};
use crate::graph::{GraphError, Teg};
use crate::grid::restrict_params;
use crate::node::Component;
use crate::pipeline::{Pipeline, PipelineSpec};

/// Error produced by pipeline/graph evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The cross-validation strategy cannot split this dataset.
    Cv(CvError),
    /// A component failed during fit/predict.
    Component(ComponentError),
    /// Metric computation failed.
    Metric(MetricError),
    /// Graph is malformed.
    Graph(GraphError),
    /// No pipeline could be evaluated successfully.
    NothingEvaluated,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Cv(e) => write!(f, "cross-validation error: {e}"),
            EvalError::Component(e) => write!(f, "component error: {e}"),
            EvalError::Metric(e) => write!(f, "metric error: {e}"),
            EvalError::Graph(e) => write!(f, "graph error: {e}"),
            EvalError::NothingEvaluated => write!(f, "no pipeline evaluated successfully"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<CvError> for EvalError {
    fn from(e: CvError) -> Self {
        EvalError::Cv(e)
    }
}

impl From<ComponentError> for EvalError {
    fn from(e: ComponentError) -> Self {
        EvalError::Component(e)
    }
}

impl From<MetricError> for EvalError {
    fn from(e: MetricError) -> Self {
        EvalError::Metric(e)
    }
}

impl From<GraphError> for EvalError {
    fn from(e: GraphError) -> Self {
        EvalError::Graph(e)
    }
}

/// One evaluated pipeline: its spec, per-fold scores, and their mean.
#[derive(Debug, Clone)]
pub struct PathResult {
    /// Canonical pipeline spec (steps + params).
    pub spec: PipelineSpec,
    /// Score per cross-validation split (the "K performance estimates").
    pub fold_scores: Vec<f64>,
    /// Mean of the fold scores — the final performance estimate.
    pub mean_score: f64,
    /// Error message if the pipeline failed on any fold (scores then empty).
    pub error: Option<String>,
}

impl PathResult {
    /// True if the pipeline evaluated on every fold.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Timing accounting for one graph evaluation, present when the evaluator
/// runs with [`Evaluator::with_obs`] (timestamps come from the obs clock,
/// so a [`ManualClock`](coda_obs::ManualClock) keeps it deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalTiming {
    /// Wall-clock milliseconds for the whole evaluation.
    pub wall_ms: f64,
    /// Histogram of per-path evaluation times (milliseconds).
    pub path_ms: HistogramSnapshot,
}

/// Report over all evaluated paths of a graph, ranked by the metric.
#[derive(Debug, Clone)]
pub struct GraphReport {
    /// The metric used for ranking.
    pub metric: Metric,
    /// All path results (successful and failed), in ranked order: finite
    /// scores best-first, then non-finite scores, then failures.
    pub results: Vec<PathResult>,
    /// Prefix-cache accounting when the evaluation ran with
    /// [`Evaluator::with_prefix_cache`]; `None` for uncached runs. The
    /// `results` themselves are bit-identical either way.
    pub cache: Option<CacheStats>,
    /// Timing histograms when the evaluation ran with
    /// [`Evaluator::with_obs`]; `None` otherwise. Purely observational —
    /// never feeds back into results or ranking.
    pub timing: Option<EvalTiming>,
}

impl GraphReport {
    /// The best successful path, if any.
    pub fn best(&self) -> Option<&PathResult> {
        self.results.iter().find(|r| r.is_ok())
    }

    /// Count of successfully evaluated paths.
    pub fn n_ok(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Count of failed paths.
    pub fn n_failed(&self) -> usize {
        self.results.len() - self.n_ok()
    }

    /// The mean score of the best-ranked successful path whose steps
    /// contain `needle`, if any.
    pub fn score_for(&self, needle: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.is_ok() && r.spec.steps.iter().any(|s| s.contains(needle)))
            .map(|r| r.mean_score)
    }
}

impl fmt::Display for GraphReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "GraphReport ({} paths, metric {}):", self.results.len(), self.metric)?;
        for r in &self.results {
            match &r.error {
                None => writeln!(f, "  {:>12.6}  {}", r.mean_score, r.spec.key())?,
                Some(e) => writeln!(f, "  {:>12}  {} [{e}]", "failed", r.spec.key())?,
            }
        }
        if let Some(stats) = &self.cache {
            writeln!(f, "  prefix cache: {stats}")?;
        }
        if let Some(t) = &self.timing {
            writeln!(
                f,
                "  timing: {:.1} ms total, {:.1} ms mean/path over {} paths",
                t.wall_ms,
                t.path_ms.mean(),
                t.path_ms.count
            )?;
        }
        Ok(())
    }
}

/// Evaluates pipelines/graphs under a CV strategy and metric (Listing 2's
/// `set_cross_validation` / `set_accuracy`).
#[derive(Debug, Clone)]
pub struct Evaluator {
    pub(crate) cv: CvStrategy,
    metric: Metric,
    n_threads: usize,
    use_cache: bool,
    obs: Option<Obs>,
}

impl Evaluator {
    /// Creates an evaluator. Defaults to single-threaded, uncached,
    /// uninstrumented evaluation.
    pub fn new(cv: CvStrategy, metric: Metric) -> Self {
        Evaluator { cv, metric, n_threads: 1, use_cache: false, obs: None }
    }

    /// Attaches an observability handle: per-pipeline (`eval.path`) and
    /// per-fold (`eval.fold`) spans, `coda_core_*` registry metrics, and
    /// timing histograms on [`GraphReport::timing`]. Observational only:
    /// results stay bit-identical to an uninstrumented run.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Enables parallel path evaluation over `n` worker threads — the
    /// paper's "different predictive models can be run in parallel" (§III).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "thread count must be positive");
        self.n_threads = n;
        self
    }

    /// Enables (or disables) the shared-prefix [`TransformCache`]: each
    /// distinct transformer prefix is fitted once per fold and reused by
    /// every path sharing it. Results are bit-identical to an uncached run
    /// (transformers are deterministic); the accounting lands on
    /// [`GraphReport::cache`].
    pub fn with_prefix_cache(mut self, enabled: bool) -> Self {
        self.use_cache = enabled;
        self
    }

    /// True when shared-prefix caching is enabled.
    pub fn prefix_cache_enabled(&self) -> bool {
        self.use_cache
    }

    /// The configured metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The configured CV strategy.
    pub fn cv(&self) -> &CvStrategy {
        &self.cv
    }

    /// Cross-validates one pipeline, returning per-fold scores.
    ///
    /// For a K-fold strategy this trains K models and produces K performance
    /// estimates whose mean is the final estimate (Fig. 4). Each validation
    /// fold is transformed once, and the predictions are scored against the
    /// target of the transformed fold — the per-window truth a windowing
    /// transformer derives, or the fold's own target for tabular ones.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] variant.
    pub fn evaluate_pipeline(
        &self,
        pipeline: &Pipeline,
        data: &Dataset,
    ) -> Result<Vec<f64>, EvalError> {
        let splits = self.cv.splits_for(data)?;
        let mut scores = Vec::with_capacity(splits.len());
        for (fold, split) in splits.iter().enumerate() {
            let _span = self
                .obs
                .as_ref()
                .map(|o| o.span("eval.fold", &[("fold", &fold.to_string() as &str)]));
            if let Some(obs) = &self.obs {
                obs.count("coda_core_eval_folds", 1);
            }
            let mut fold_pipeline = pipeline.fresh_clone();
            fold_pipeline.fit(&data.select(&split.train))?;
            let validation = fold_pipeline.transform_only(&data.select(&split.validation))?;
            let pred = fold_pipeline.predict_transformed(&validation)?;
            let truth = validation.target_required().map_err(ComponentError::from)?;
            scores.push(self.metric.compute(truth, &pred)?);
        }
        Ok(scores)
    }

    /// Evaluates one pipeline and returns its mean score.
    ///
    /// # Errors
    ///
    /// As for [`Evaluator::evaluate_pipeline`].
    pub fn score_pipeline(&self, pipeline: &Pipeline, data: &Dataset) -> Result<f64, EvalError> {
        let scores = self.evaluate_pipeline(pipeline, data)?;
        Ok(scores.iter().sum::<f64>() / scores.len() as f64)
    }

    /// Evaluates every root→leaf path of `graph` on `data`, returning the
    /// ranked [`GraphReport`]. Individual path failures are recorded, not
    /// fatal.
    ///
    /// # Errors
    ///
    /// [`EvalError::Graph`] if the graph itself is malformed;
    /// [`EvalError::NothingEvaluated`] if every path failed.
    pub fn evaluate_graph(&self, graph: &Teg, data: &Dataset) -> Result<GraphReport, EvalError> {
        let pipelines = graph.enumerate_pipelines()?;
        let jobs: Vec<(Pipeline, Params)> =
            pipelines.into_iter().map(|p| (p, Params::new())).collect();
        self.evaluate_jobs(jobs, data)
    }

    /// Evaluates every path of `graph` × every parameter assignment in
    /// `grid` (qualified `node__param` keys; assignments that reference
    /// nodes absent from a path apply vacuously and are deduplicated).
    ///
    /// # Errors
    ///
    /// As for [`Evaluator::evaluate_graph`].
    pub fn evaluate_graph_with_grid(
        &self,
        graph: &Teg,
        data: &Dataset,
        grid: &crate::grid::ParamGrid,
    ) -> Result<GraphReport, EvalError> {
        let pipelines = graph.enumerate_pipelines()?;
        let assignments = grid.expand();
        let mut jobs = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for pipeline in &pipelines {
            let names: BTreeSet<&str> = pipeline.node_names().into_iter().collect();
            for params in &assignments {
                // restrict to the params that touch this path; the spec key
                // includes the step names, so paths with disjoint param
                // namespaces can never collide in `seen`
                let relevant = restrict_params(params, &names);
                let spec = pipeline.spec().with_params(&relevant);
                if seen.insert(spec.key()) {
                    jobs.push((pipeline.fresh_clone(), relevant));
                }
            }
        }
        self.evaluate_jobs(jobs, data)
    }

    /// Opens the per-evaluation observation scope: a graph span, a local
    /// per-path timing histogram, and the evaluation's start time.
    fn obs_scope(&self, n_jobs: usize) -> Option<(coda_obs::SpanGuard<'_>, Histogram, f64)> {
        self.obs.as_ref().map(|o| {
            let span = o.span("eval.graph", &[("paths", &n_jobs.to_string() as &str)]);
            (span, Histogram::new(), o.now_ms())
        })
    }

    /// Closes the observation scope: folds the local path histogram into
    /// the registry, bumps graph/path counters, and returns the report's
    /// [`EvalTiming`].
    fn obs_finish(
        &self,
        scope: Option<(coda_obs::SpanGuard<'_>, Histogram, f64)>,
        n_jobs: usize,
    ) -> Option<EvalTiming> {
        let (span, hist, start) = scope?;
        drop(span);
        let obs = self.obs.as_ref()?;
        let path_ms = hist.snapshot();
        obs.registry().histogram("coda_core_eval_path_ms").merge(&path_ms);
        obs.count("coda_core_eval_graphs", 1);
        obs.count("coda_core_eval_paths", n_jobs as u64);
        Some(EvalTiming { wall_ms: obs.now_ms() - start, path_ms })
    }

    /// Runs one job through `run`. When the evaluator is observed, the run
    /// sits under an `eval.path` span keyed by the resolved spec, opened
    /// with the enclosing `eval.graph` context entered, so paths running on
    /// worker threads still land in the graph's trace tree. Its tail records
    /// outcome counters for the SLO plane (`coda_core_eval_paths_ok` /
    /// `coda_core_eval_path_errors`), the latency observation — into the
    /// local path histogram and into a per-spec labeled series so diagnosis
    /// can name the slow path — and, when the exemplar store is armed, an
    /// exemplar offer linking the observation back to its `eval.path` span
    /// so slow paths surface in cost profiles with a trace attached.
    fn run_traced(
        &self,
        pipeline: &Pipeline,
        params: &Params,
        hist: Option<&Histogram>,
        parent: Option<coda_obs::SpanContext>,
        run: impl FnOnce() -> PathResult,
    ) -> PathResult {
        let Some(obs) = &self.obs else {
            return run();
        };
        let key = pipeline.spec().with_params(params).key();
        let _graph = parent.map(|ctx| obs.tracer().enter(Some(ctx)));
        let span = obs.tracer().span("eval.path", &[("spec", &key as &str)]);
        let start = obs.now_ms();
        let result = run();
        let ok = result.is_ok();
        obs.count(if ok { "coda_core_eval_paths_ok" } else { "coda_core_eval_path_errors" }, 1);
        let elapsed = obs.now_ms() - start;
        if let Some(h) = hist {
            h.observe(elapsed);
        }
        obs.registry()
            .histogram(&labeled_name("coda_core_eval_path_ms", "spec", &key))
            .observe(elapsed);
        obs.exemplars().offer(
            "coda_core_eval_path_ms",
            elapsed,
            Some(span.context()),
            obs.now_ms(),
        );
        result
    }

    /// Evaluates (pipeline, params) jobs and ranks them into the report.
    pub(crate) fn evaluate_jobs(
        &self,
        jobs: Vec<(Pipeline, Params)>,
        data: &Dataset,
    ) -> Result<GraphReport, EvalError> {
        let (mut results, cache, timing) = self.run_jobs(&jobs, data);
        if let (Some(obs), Some(stats)) = (&self.obs, &cache) {
            obs.publish(stats);
        }
        if results.iter().all(|r| !r.is_ok()) {
            return Err(EvalError::NothingEvaluated);
        }
        results.sort_by(|a, b| rank_order(self.metric, a, b));
        Ok(GraphReport { metric: self.metric, results, cache, timing })
    }

    /// Runs every job on the worker pool and returns the results in
    /// enumeration order, with the prefix-cache accounting and the timing.
    ///
    /// With the prefix cache on, splits are computed once and jobs are
    /// dispatched grouped by shared transformer prefix (a stable order by
    /// the full prefix key, original index as tiebreak), so reuse lands
    /// early; restoring enumeration order keeps reports bit-identical to
    /// the uncached run, tie order included. The plan also counts each
    /// prefix's lookups, so the cache frees an output after its last reader.
    pub(crate) fn run_jobs(
        &self,
        jobs: &[(Pipeline, Params)],
        data: &Dataset,
    ) -> (Vec<PathResult>, Option<CacheStats>, Option<EvalTiming>) {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        let cached = self.use_cache.then(|| {
            let mut planned_reads: BTreeMap<String, usize> = BTreeMap::new();
            let plan_keys: Vec<String> = jobs
                .iter()
                .map(|(pipeline, params)| {
                    let steps: Vec<String> = pipeline
                        .nodes()
                        .iter()
                        .filter(|n| !n.component().is_estimator())
                        .map(|n| n.name().to_string())
                        .collect();
                    for depth in 1..=cached_prefixes(pipeline) {
                        let key = PipelineSpec::prefix_key(&steps[..depth], params);
                        *planned_reads.entry(key).or_default() += 1;
                    }
                    PipelineSpec::prefix_key(&steps, params)
                })
                .collect();
            order.sort_by(|&a, &b| plan_keys[a].cmp(&plan_keys[b]).then(a.cmp(&b)));
            (TransformCache::with_planned_reads(planned_reads), self.cv.splits_for(data))
        });
        let scope = self.obs_scope(jobs.len());
        let hist = scope.as_ref().map(|(_, h, _)| h);
        let graph_ctx = scope.as_ref().map(|(s, _, _)| s.context());
        let results = self.pool(&order, |i| {
            let (pipeline, params) = &jobs[i];
            let run = || match &cached {
                Some((cache, splits)) => {
                    self.run_job_cached(pipeline.fresh_clone(), params, data, splits, cache)
                }
                None => self.run_job(pipeline.fresh_clone(), params, data),
            };
            self.run_traced(pipeline, params, hist, graph_ctx, run)
        });
        let timing = self.obs_finish(scope, jobs.len());
        (results, cached.map(|(cache, _)| cache.stats()), timing)
    }

    /// The worker pool: runs `job(i)` for every index in `order`, in that
    /// dispatch order, on up to `n_threads` threads, and returns the results
    /// sorted by index.
    fn pool(&self, order: &[usize], job: impl Fn(usize) -> PathResult + Sync) -> Vec<PathResult> {
        let mut indexed: Vec<(usize, PathResult)> = if self.n_threads <= 1 || order.len() <= 1 {
            order.iter().map(|&i| (i, job(i))).collect()
        } else {
            let next = AtomicUsize::new(0);
            let out = Mutex::new(Vec::with_capacity(order.len()));
            std::thread::scope(|scope| {
                for _ in 0..self.n_threads.min(order.len()) {
                    scope.spawn(|| {
                        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let result = job(i);
                            out.lock().unwrap_or_else(PoisonError::into_inner).push((i, result));
                        }
                    });
                }
            });
            out.into_inner().unwrap_or_else(PoisonError::into_inner)
        };
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    fn run_job(&self, mut pipeline: Pipeline, params: &Params, data: &Dataset) -> PathResult {
        let spec = pipeline.spec().with_params(params);
        let scores = match pipeline.apply_matching_params(params) {
            Ok(()) => self.evaluate_pipeline(&pipeline, data).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        self.path_result(spec, scores)
    }

    /// The cached counterpart of [`Evaluator::run_job`]: identical
    /// semantics and error strings, but every transformer-prefix fit goes
    /// through the shared [`TransformCache`].
    fn run_job_cached(
        &self,
        mut pipeline: Pipeline,
        params: &Params,
        data: &Dataset,
        splits: &Result<Vec<Split>, CvError>,
        cache: &TransformCache,
    ) -> PathResult {
        let spec = pipeline.spec().with_params(params);
        let scores = match (pipeline.apply_matching_params(params), splits) {
            (Err(e), _) => Err(e.to_string()),
            (Ok(()), Err(e)) => Err(EvalError::Cv(e.clone()).to_string()),
            (Ok(()), Ok(splits)) => splits
                .iter()
                .enumerate()
                .map(|(fold, split)| {
                    self.score_fold_cached(&pipeline, params, data, fold, split, cache)
                        .map_err(|e| e.to_string())
                })
                .collect(),
        };
        self.path_result(spec, scores)
    }

    /// A path's result: its fold scores and their mean, or the error that
    /// failed it (scored as the metric's worst).
    fn path_result(&self, spec: PipelineSpec, scores: Result<Vec<f64>, String>) -> PathResult {
        match scores {
            Ok(fold_scores) => {
                let mean_score = fold_scores.iter().sum::<f64>() / fold_scores.len().max(1) as f64;
                PathResult { spec, fold_scores, mean_score, error: None }
            }
            Err(e) => PathResult {
                spec,
                fold_scores: Vec::new(),
                mean_score: self.metric.worst(),
                error: Some(e),
            },
        }
    }

    /// Scores one pipeline on one fold, reusing cached prefix outputs. The
    /// node walk, validity checks and error messages mirror
    /// [`Pipeline::fit`]/[`Pipeline::predict`] exactly, and the truth is
    /// the transformed validation fold's target as in
    /// [`Evaluator::evaluate_pipeline`], so a cached run is
    /// indistinguishable from an uncached one.
    fn score_fold_cached(
        &self,
        pipeline: &Pipeline,
        params: &Params,
        data: &Dataset,
        fold: usize,
        split: &Split,
        cache: &TransformCache,
    ) -> Result<f64, EvalError> {
        let _span =
            self.obs.as_ref().map(|o| o.span("eval.fold", &[("fold", &fold.to_string() as &str)]));
        if let Some(obs) = &self.obs {
            obs.count("coda_core_eval_folds", 1);
        }
        let nodes = pipeline.nodes();
        if nodes.is_empty() {
            return Err(ComponentError::InvalidInput("empty pipeline".to_string()).into());
        }
        let last = nodes.len() - 1;
        let train0 = data.select(&split.train);
        let validation0 = data.select(&split.validation);
        let mut cur: Option<Arc<(Dataset, Dataset)>> = None;
        let mut prefix_steps: Vec<String> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            match node.component() {
                Component::Transform(t) => {
                    if i == last {
                        return Err(ComponentError::InvalidInput(format!(
                            "pipeline ends in transformer {}",
                            t.name()
                        ))
                        .into());
                    }
                    prefix_steps.push(node.name().to_string());
                    let key = PipelineSpec::prefix_key(&prefix_steps, params);
                    let prev = cur.clone();
                    let out = cache.get_or_fit(fold, &key, || {
                        let (train, validation) = match &prev {
                            Some(pair) => (&pair.0, &pair.1),
                            None => (&train0, &validation0),
                        };
                        let mut fresh = t.clone_box();
                        let train_next = fresh.fit_transform(train)?;
                        let validation_next = fresh.transform(validation)?;
                        Ok((train_next, validation_next))
                    });
                    cur = Some(out.map_err(EvalError::Component)?);
                }
                Component::Estimate(e) => {
                    if i != last {
                        return Err(ComponentError::InvalidInput(format!(
                            "estimator {} is not the final node",
                            e.name()
                        ))
                        .into());
                    }
                    let (train, validation) = match &cur {
                        Some(pair) => (&pair.0, &pair.1),
                        None => (&train0, &validation0),
                    };
                    let mut model = e.clone_box();
                    model.fit(train)?;
                    let pred = model.predict(validation)?;
                    let truth = validation.target_required().map_err(ComponentError::from)?;
                    return Ok(self.metric.compute(truth, &pred)?);
                }
            }
        }
        Err(ComponentError::InvalidInput("pipeline has no estimator".to_string()).into())
    }
}

/// How many leading transformer prefixes of `pipeline` a fold looks up in
/// the cache: [`Evaluator::score_fold_cached`]'s walk looks up every
/// transformer before the first estimator, except a transformer in last
/// place.
fn cached_prefixes(pipeline: &Pipeline) -> usize {
    let nodes = pipeline.nodes();
    nodes
        .iter()
        .take(nodes.len().saturating_sub(1))
        .take_while(|n| !n.component().is_estimator())
        .count()
}

/// The one ranking order of path results, best first: successful paths
/// with a finite mean score, ordered by `metric`; then successful paths
/// that scored non-finite (`is_better` cannot order a NaN); then failed
/// paths. Paths the order cannot tell apart compare equal, so a stable
/// sort keeps them in enumeration order.
pub(crate) fn rank_order(metric: Metric, a: &PathResult, b: &PathResult) -> std::cmp::Ordering {
    let group = |r: &PathResult| match (r.is_ok(), r.mean_score.is_finite()) {
        (true, true) => 0,
        (true, false) => 1,
        (false, _) => 2,
    };
    match (group(a), group(b)) {
        (0, 0) if metric.is_better(a.mean_score, b.mean_score) => std::cmp::Ordering::Less,
        (0, 0) if metric.is_better(b.mean_score, a.mean_score) => std::cmp::Ordering::Greater,
        (ga, gb) => ga.cmp(&gb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TegBuilder;
    use crate::node::Node;
    use coda_data::{synth, BoxedEstimator, NoOp};
    use coda_ml::{
        DecisionTreeRegressor, KnnRegressor, LinearRegression, Pca, RidgeRegression, StandardScaler,
    };

    fn small_graph() -> crate::graph::Teg {
        TegBuilder::new()
            .add_feature_scalers(vec![Box::new(StandardScaler::new()), Box::new(NoOp::new())])
            .add_models(vec![Box::new(LinearRegression::new()), Box::new(KnnRegressor::new(3))])
            .create_graph()
            .unwrap()
    }

    #[test]
    fn kfold_produces_k_models_and_k_estimates() {
        let ds = synth::linear_regression(60, 2, 0.1, 101);
        let eval = Evaluator::new(CvStrategy::kfold(5), Metric::Rmse);
        let p = Pipeline::from_nodes(vec![Node::auto(
            (Box::new(LinearRegression::new()) as BoxedEstimator).into(),
        )]);
        let scores = eval.evaluate_pipeline(&p, &ds).unwrap();
        assert_eq!(scores.len(), 5);
        assert!(scores.iter().all(|s| *s >= 0.0));
    }

    #[test]
    fn graph_report_ranked_by_metric() {
        let ds = synth::linear_regression(120, 3, 0.1, 102);
        let eval = Evaluator::new(CvStrategy::kfold(4), Metric::Rmse);
        let report = eval.evaluate_graph(&small_graph(), &ds).unwrap();
        assert_eq!(report.results.len(), 4);
        assert_eq!(report.n_ok(), 4);
        // scores ascend for a lower-is-better metric
        for w in report.results.windows(2) {
            assert!(w[0].mean_score <= w[1].mean_score + 1e-12);
        }
        // linear data: a linear path must win
        assert!(report.best().unwrap().spec.steps.contains(&"linear_regression".to_string()));
    }

    #[test]
    fn higher_is_better_metric_ranks_descending() {
        let ds = synth::linear_regression(120, 3, 0.1, 103);
        let eval = Evaluator::new(CvStrategy::kfold(4), Metric::R2);
        let report = eval.evaluate_graph(&small_graph(), &ds).unwrap();
        for w in report.results.windows(2) {
            assert!(w[0].mean_score >= w[1].mean_score - 1e-12);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let ds = synth::friedman1(150, 5, 0.3, 104);
        let graph = TegBuilder::new()
            .add_feature_scalers(vec![Box::new(StandardScaler::new()), Box::new(NoOp::new())])
            .add_feature_selectors(vec![Box::new(Pca::new(3)), Box::new(NoOp::new())])
            .add_models(vec![
                Box::new(LinearRegression::new()),
                Box::new(DecisionTreeRegressor::new()),
            ])
            .create_graph()
            .unwrap();
        let serial =
            Evaluator::new(CvStrategy::kfold(3), Metric::Rmse).evaluate_graph(&graph, &ds).unwrap();
        let parallel = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
            .with_threads(4)
            .evaluate_graph(&graph, &ds)
            .unwrap();
        assert_eq!(serial.results.len(), parallel.results.len());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(a.spec.key(), b.spec.key());
            assert!((a.mean_score - b.mean_score).abs() < 1e-12);
        }
    }

    #[test]
    fn failing_path_recorded_not_fatal() {
        // PCA with more samples required: use a 1-sample-per-fold dataset to
        // break PCA fits while linear regression still works... simpler: an
        // estimator that needs more samples than a fold provides.
        let ds = synth::linear_regression(12, 6, 0.01, 105);
        let graph = TegBuilder::new()
            .add_models(vec![
                Box::new(LinearRegression::new()), // needs >= 7 samples/fold: 12*(2/3)=8 ok
                Box::new(RidgeRegression::new(1.0)),
            ])
            .create_graph()
            .unwrap();
        let eval = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse);
        let report = eval.evaluate_graph(&graph, &ds).unwrap();
        assert!(report.n_ok() >= 1);
    }

    #[test]
    fn all_paths_failing_is_error() {
        let ds = synth::linear_regression(6, 5, 0.01, 106);
        // linear regression needs 6 samples for 5 features + intercept;
        // 3-fold training sets have only 4 samples -> every fold fails.
        let graph = TegBuilder::new()
            .add_models(vec![Box::new(LinearRegression::new())])
            .create_graph()
            .unwrap();
        let eval = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse);
        assert!(matches!(eval.evaluate_graph(&graph, &ds), Err(EvalError::NothingEvaluated)));
    }

    #[test]
    fn grid_expands_per_path_and_dedups() {
        let ds = synth::friedman1(90, 6, 0.3, 107);
        let graph = TegBuilder::new()
            .add_feature_selectors(vec![Box::new(Pca::new(2)), Box::new(NoOp::new())])
            .add_models(vec![Box::new(KnnRegressor::new(3))])
            .create_graph()
            .unwrap();
        let mut grid = crate::grid::ParamGrid::new();
        grid.add("pca__n_components", vec![2usize.into(), 4usize.into()]);
        grid.add("knn_regressor__k", vec![3usize.into(), 7usize.into()]);
        let eval = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse);
        let report = eval.evaluate_graph_with_grid(&graph, &ds, &grid).unwrap();
        // pca path: 2 pca values x 2 k values = 4; noop path: k values only = 2
        assert_eq!(report.results.len(), 6);
        assert_eq!(report.n_failed(), 0);
    }

    fn fan_out_graph(n_models: usize) -> crate::graph::Teg {
        let models: Vec<coda_data::BoxedEstimator> = (0..n_models)
            .map(|i| {
                Box::new(RidgeRegression::new(0.1 + i as f64 * 0.2)) as coda_data::BoxedEstimator
            })
            .collect();
        TegBuilder::new()
            .add_feature_scalers(vec![Box::new(StandardScaler::new())])
            .add_feature_selectors(vec![Box::new(Pca::new(2))])
            .add_models(models)
            .create_graph()
            .unwrap()
    }

    fn assert_identical(a: &GraphReport, b: &GraphReport) {
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.error, y.error);
            assert_eq!(x.fold_scores.len(), y.fold_scores.len());
            for (s, t) in x.fold_scores.iter().zip(&y.fold_scores) {
                assert_eq!(s.to_bits(), t.to_bits(), "fold scores must be bit-identical");
            }
            assert_eq!(x.mean_score.to_bits(), y.mean_score.to_bits());
        }
    }

    #[test]
    fn cached_report_bit_identical_to_uncached() {
        let ds = synth::friedman1(120, 5, 0.3, 201);
        let graph = fan_out_graph(4);
        let uncached =
            Evaluator::new(CvStrategy::kfold(3), Metric::Rmse).evaluate_graph(&graph, &ds).unwrap();
        let cached = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
            .with_prefix_cache(true)
            .evaluate_graph(&graph, &ds)
            .unwrap();
        assert_identical(&uncached, &cached);
        assert!(uncached.cache.is_none());
        assert!(cached.cache.is_some());
    }

    #[test]
    fn cached_parallel_matches_serial() {
        let ds = synth::friedman1(150, 5, 0.3, 202);
        let graph = fan_out_graph(6);
        let eval = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse).with_prefix_cache(true);
        let serial = eval.clone().evaluate_graph(&graph, &ds).unwrap();
        let parallel = eval.with_threads(4).evaluate_graph(&graph, &ds).unwrap();
        assert_identical(&serial, &parallel);
        // slot-serialized cache: accounting is deterministic under threads
        assert_eq!(serial.cache, parallel.cache);
    }

    #[test]
    fn cache_stats_linear_chain_zero_hits() {
        // a linear chain shares nothing: every lookup is a distinct fit
        let ds = synth::friedman1(90, 5, 0.3, 203);
        let graph = TegBuilder::new()
            .add_feature_scalers(vec![Box::new(StandardScaler::new())])
            .add_feature_selectors(vec![Box::new(Pca::new(2))])
            .add_models(vec![Box::new(LinearRegression::new())])
            .create_graph()
            .unwrap();
        let report = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
            .with_prefix_cache(true)
            .evaluate_graph(&graph, &ds)
            .unwrap();
        let stats = report.cache.unwrap();
        let (distinct, visits) = graph.transform_prefix_counts();
        assert_eq!((distinct, visits), (2, 2));
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2 * 3, "2 prefixes x 3 folds");
        assert_eq!(stats.hits + stats.misses, (visits * 3) as u64);
    }

    #[test]
    fn cache_stats_fan_out_predicted_hits() {
        // 4 models share a 2-stage prefix: per fold, 8 lookups, 2 fits
        let ds = synth::friedman1(90, 5, 0.3, 204);
        let graph = fan_out_graph(4);
        let k = 3u64;
        let report = Evaluator::new(CvStrategy::kfold(k as usize), Metric::Rmse)
            .with_prefix_cache(true)
            .evaluate_graph(&graph, &ds)
            .unwrap();
        let stats = report.cache.unwrap();
        let (distinct, visits) = graph.transform_prefix_counts();
        assert_eq!((distinct, visits), (2, 8));
        assert_eq!(stats.misses, distinct as u64 * k);
        assert_eq!(stats.hits, (visits - distinct) as u64 * k);
        assert_eq!(stats.refits_avoided, stats.hits);
        assert!(stats.bytes > 0);
        assert_eq!(stats.hits + stats.misses, visits as u64 * k);
    }

    #[test]
    fn cached_grid_matches_uncached_grid() {
        let ds = synth::friedman1(90, 6, 0.3, 205);
        let graph = TegBuilder::new()
            .add_feature_selectors(vec![Box::new(Pca::new(2)), Box::new(NoOp::new())])
            .add_models(vec![Box::new(KnnRegressor::new(3))])
            .create_graph()
            .unwrap();
        let mut grid = crate::grid::ParamGrid::new();
        grid.add("pca__n_components", vec![2usize.into(), 4usize.into()]);
        grid.add("knn_regressor__k", vec![3usize.into(), 7usize.into()]);
        let uncached = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
            .evaluate_graph_with_grid(&graph, &ds, &grid)
            .unwrap();
        let cached = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
            .with_prefix_cache(true)
            .evaluate_graph_with_grid(&graph, &ds, &grid)
            .unwrap();
        assert_identical(&uncached, &cached);
        // pca prefix: 2 distinct param values x 3 folds; noop prefix: 3 folds
        let stats = cached.cache.unwrap();
        assert_eq!(stats.misses, (2 + 1) * 3);
        // 6 jobs x 1 prefix visit x 3 folds = 18 lookups
        assert_eq!(stats.hits + stats.misses, 18);
    }

    #[test]
    fn grid_disjoint_param_namespaces_do_not_collide() {
        // regression: paths with disjoint param namespaces must neither
        // collide in the dedup set (the spec key embeds the step names) nor
        // silently drop jobs
        let ds = synth::friedman1(90, 6, 0.3, 206);
        let graph = TegBuilder::new()
            .add_feature_selectors(vec![Box::new(Pca::new(2)), Box::new(NoOp::new())])
            .add_models(vec![Box::new(KnnRegressor::new(3)), Box::new(RidgeRegression::new(1.0))])
            .create_graph()
            .unwrap();
        let mut grid = crate::grid::ParamGrid::new();
        grid.add("pca__n_components", vec![2usize.into(), 3usize.into()]);
        grid.add("knn_regressor__k", vec![3usize.into(), 5usize.into()]);
        grid.add("ridge_regression__alpha", vec![0.1.into(), 1.0.into()]);
        for use_cache in [false, true] {
            let report = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
                .with_prefix_cache(use_cache)
                .evaluate_graph_with_grid(&graph, &ds, &grid)
                .unwrap();
            // pca>knn: 2x2=4; pca>ridge: 2x2=4; noop>knn: 2; noop>ridge: 2
            assert_eq!(report.results.len(), 12, "no jobs dropped or merged");
            let keys: std::collections::BTreeSet<String> =
                report.results.iter().map(|r| r.spec.key()).collect();
            assert_eq!(keys.len(), 12, "every surviving job has a distinct spec key");
        }
    }

    #[test]
    fn cached_failing_and_malformed_paths_report_identical_errors() {
        // one path fails per-fold (linear regression with too few samples),
        // the other succeeds; error strings must match the uncached run
        let ds = synth::linear_regression(12, 6, 0.01, 207);
        let graph = TegBuilder::new()
            .add_feature_scalers(vec![Box::new(StandardScaler::new())])
            .add_models(vec![
                Box::new(LinearRegression::new()),
                Box::new(RidgeRegression::new(1.0)),
            ])
            .create_graph()
            .unwrap();
        // kfold(2) trains on 6 rows < 7 design columns: OLS fails per fold
        let uncached =
            Evaluator::new(CvStrategy::kfold(2), Metric::Rmse).evaluate_graph(&graph, &ds).unwrap();
        let cached = Evaluator::new(CvStrategy::kfold(2), Metric::Rmse)
            .with_prefix_cache(true)
            .evaluate_graph(&graph, &ds)
            .unwrap();
        assert_eq!(uncached.n_failed(), 1, "the OLS branch must actually fail");
        assert_eq!(uncached.n_ok(), 1);
        assert_identical(&uncached, &cached);
    }

    #[test]
    fn prefixes_read_fewer_times_than_planned_are_never_refitted() {
        // the k = 0 job fails to apply its params and reads nothing; the OLS
        // path fails on fold 0 and never reads fold 1: the plan over-counts
        // both prefixes, so the cache keeps them and fits each once per fold
        let ds = synth::linear_regression(12, 6, 0.01, 210);
        let graph = TegBuilder::new()
            .add_feature_scalers(vec![Box::new(StandardScaler::new())])
            .add_models(vec![Box::new(LinearRegression::new()), Box::new(KnnRegressor::new(3))])
            .create_graph()
            .unwrap();
        let mut grid = crate::grid::ParamGrid::new();
        grid.add("knn_regressor__k", vec![0usize.into(), 3usize.into()]);
        let uncached = Evaluator::new(CvStrategy::kfold(2), Metric::Rmse)
            .evaluate_graph_with_grid(&graph, &ds, &grid)
            .unwrap();
        let cached = Evaluator::new(CvStrategy::kfold(2), Metric::Rmse)
            .with_prefix_cache(true)
            .evaluate_graph_with_grid(&graph, &ds, &grid)
            .unwrap();
        assert_eq!(uncached.n_failed(), 2, "the OLS path and the k = 0 job must fail");
        assert_identical(&uncached, &cached);
        // fold 0: OLS and k = 3 read the scaler; fold 1: k = 3 alone
        let stats = cached.cache.unwrap();
        assert_eq!((stats.misses, stats.hits), (2, 1));
    }

    #[test]
    fn cached_cv_error_matches_uncached() {
        let ds = synth::linear_regression(4, 2, 0.1, 208);
        let graph = TegBuilder::new()
            .add_models(vec![Box::new(LinearRegression::new())])
            .create_graph()
            .unwrap();
        let uncached =
            Evaluator::new(CvStrategy::kfold(10), Metric::Rmse).evaluate_graph(&graph, &ds);
        let cached = Evaluator::new(CvStrategy::kfold(10), Metric::Rmse)
            .with_prefix_cache(true)
            .evaluate_graph(&graph, &ds);
        assert!(matches!(uncached, Err(EvalError::NothingEvaluated)));
        assert!(matches!(cached, Err(EvalError::NothingEvaluated)));
    }

    #[test]
    fn obs_instrumentation_is_observational_only() {
        let ds = synth::friedman1(120, 5, 0.3, 209);
        let graph = fan_out_graph(4);
        let plain = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
            .with_prefix_cache(true)
            .evaluate_graph(&graph, &ds)
            .unwrap();
        let obs = coda_obs::Obs::wall();
        let observed = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
            .with_prefix_cache(true)
            .with_obs(obs.clone())
            .evaluate_graph(&graph, &ds)
            .unwrap();
        assert_identical(&plain, &observed);
        assert_eq!(plain.cache, observed.cache, "cache accounting unchanged by obs");
        assert!(plain.timing.is_none());
        let timing = observed.timing.expect("instrumented run reports timing");
        assert_eq!(timing.path_ms.count, 4, "one timing observation per path");
        assert!(timing.wall_ms >= timing.path_ms.sum, "serial paths fit inside the wall time");
        let snap = obs.registry().snapshot();
        assert!(snap.counter("coda_core_cache_hits") > 0, "cache stats published");
        assert_eq!(snap.counter("coda_core_eval_graphs"), 1);
        assert_eq!(snap.counter("coda_core_eval_paths"), 4);
        assert_eq!(snap.counter("coda_core_eval_folds"), 12, "4 paths x 3 folds");
        assert_eq!(snap.histograms["coda_core_eval_path_ms"].count, 4);
        // span taxonomy: 1 eval.graph + 4 eval.path + 12 eval.fold, each
        // recording a start and an end event
        assert_eq!(obs.tracer().len(), 2 * (1 + 4 + 12));
        let log = obs.tracer().render_log();
        assert!(log.contains("span_start eval.path "));
        assert!(log.contains("spec="));
        // causal structure: every path hangs off the graph span, every fold
        // off a path span — a single trace with no orphans
        let forest = obs.forest();
        assert!(forest.orphans().is_empty(), "no orphaned spans");
        assert_eq!(forest.trace_ids().len(), 1, "one trace per graph evaluation");
        let graph_span =
            forest.spans().find(|s| s.name == "eval.graph").expect("graph span present").ctx;
        for path in forest.spans().filter(|s| s.name == "eval.path") {
            assert_eq!(path.parent, Some(graph_span.span_id), "paths parent to the graph");
        }
        for fold in forest.spans().filter(|s| s.name == "eval.fold") {
            let parent = fold.parent.expect("folds have a parent");
            assert_eq!(forest.span(parent).expect("parent resolves").name, "eval.path");
        }
    }

    #[test]
    fn path_outcomes_count_and_armed_exemplars_link_back_to_spans() {
        // kfold(2) on 6-row folds with 7 design columns: OLS fails, ridge
        // succeeds — one path lands in each outcome counter
        let ds = synth::linear_regression(12, 6, 0.01, 210);
        let graph = TegBuilder::new()
            .add_feature_scalers(vec![Box::new(StandardScaler::new())])
            .add_models(vec![
                Box::new(LinearRegression::new()),
                Box::new(RidgeRegression::new(1.0)),
            ])
            .create_graph()
            .unwrap();
        let obs = coda_obs::Obs::deterministic();
        obs.exemplars().enable(4); // arm: every observation qualifies
        let report = Evaluator::new(CvStrategy::kfold(2), Metric::Rmse)
            .with_obs(obs.clone())
            .evaluate_graph(&graph, &ds)
            .unwrap();
        assert_eq!(report.n_failed(), 1);
        assert_eq!(report.n_ok(), 1);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("coda_core_eval_paths_ok"), 1);
        assert_eq!(snap.counter("coda_core_eval_path_errors"), 1);
        // exemplars carry the eval.path span context, so a hot latency
        // observation resolves to a concrete trace in the forest
        let exemplars = obs.exemplars().exemplars("coda_core_eval_path_ms");
        assert_eq!(exemplars.len(), 2, "one exemplar per path while armed");
        let forest = obs.forest();
        for e in &exemplars {
            let ctx = e.ctx.expect("traced runs attach a span context");
            let span = forest.span(ctx.span_id).expect("exemplar span resolves");
            assert_eq!(span.name, "eval.path");
        }
    }

    #[test]
    fn disarmed_exemplar_store_stays_empty() {
        let ds = synth::friedman1(60, 5, 0.3, 211);
        let obs = coda_obs::Obs::deterministic();
        Evaluator::new(CvStrategy::kfold(3), Metric::Rmse)
            .with_obs(obs.clone())
            .evaluate_graph(&fan_out_graph(2), &ds)
            .unwrap();
        assert!(!obs.exemplars().is_enabled());
        assert!(obs.exemplars().exemplars("coda_core_eval_path_ms").is_empty());
    }

    #[test]
    fn sliding_split_evaluates_time_ordered() {
        let ds = synth::linear_regression(100, 2, 0.1, 108);
        let eval = Evaluator::new(
            CvStrategy::TimeSeriesSlidingSplit {
                train_size: 40,
                buffer: 5,
                validation_size: 10,
                k: 3,
            },
            Metric::Mae,
        );
        let p = Pipeline::from_nodes(vec![Node::auto(
            (Box::new(LinearRegression::new()) as BoxedEstimator).into(),
        )]);
        let scores = eval.evaluate_pipeline(&p, &ds).unwrap();
        assert_eq!(scores.len(), 3);
    }

    #[test]
    fn report_display_nonempty() {
        let ds = synth::linear_regression(60, 2, 0.1, 109);
        let eval = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse);
        let report = eval.evaluate_graph(&small_graph(), &ds).unwrap();
        let s = report.to_string();
        assert!(s.contains("GraphReport"));
        assert!(s.contains("linear_regression"));
    }

    #[test]
    fn cv_error_propagates() {
        let ds = synth::linear_regression(3, 2, 0.1, 110);
        let eval = Evaluator::new(CvStrategy::kfold(10), Metric::Rmse);
        let p = Pipeline::from_nodes(vec![Node::auto(
            (Box::new(LinearRegression::new()) as BoxedEstimator).into(),
        )]);
        assert!(matches!(eval.evaluate_pipeline(&p, &ds), Err(EvalError::Cv(_))));
    }

    /// Predicts NaN for every row, so every fold scores NaN.
    #[derive(Debug, Clone)]
    struct NanModel;

    impl coda_data::Estimator for NanModel {
        fn name(&self) -> &str {
            "nan_model"
        }

        fn task(&self) -> coda_data::TaskKind {
            coda_data::TaskKind::Regression
        }

        fn fit(&mut self, _data: &Dataset) -> Result<(), ComponentError> {
            Ok(())
        }

        fn predict(&self, data: &Dataset) -> Result<Vec<f64>, ComponentError> {
            Ok(vec![f64::NAN; data.n_samples()])
        }

        fn clone_box(&self) -> BoxedEstimator {
            Box::new(self.clone())
        }
    }

    #[test]
    fn non_finite_score_is_never_ranked_best() {
        let ds = synth::linear_regression(60, 2, 0.1, 212);
        let graph = TegBuilder::new()
            .add_models(vec![
                Box::new(NanModel),
                Box::new(LinearRegression::new()),
                Box::new(RidgeRegression::new(1.0)),
            ])
            .create_graph()
            .unwrap();
        for cached in [false, true] {
            let eval = Evaluator::new(CvStrategy::kfold(3), Metric::Rmse).with_prefix_cache(cached);
            let report = eval.evaluate_graph(&graph, &ds).unwrap();
            assert_eq!(report.n_ok(), 3, "a NaN score is a success, not a failure");
            let best = report.best().unwrap();
            assert!(best.mean_score.is_finite(), "{} ranked best", best.spec.key());
            let last = report.results.last().unwrap();
            assert_eq!(last.spec.steps, ["nan_model"]);
            assert!(last.mean_score.is_nan());
            // the halving screen keeps one path of three: the finite best
            let halving = eval.successive_halving(&graph, &ds, 20, 1).unwrap();
            assert_eq!(halving.finalists.len(), 1);
            assert!(halving.best().unwrap().mean_score.is_finite());
        }
    }
}
