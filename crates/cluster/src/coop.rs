//! Cooperative multi-client graph evaluation (Fig. 2, experiment F2):
//! `n` client threads all need the results of the same Transformer-Estimator
//! Graph on the same dataset. Without the DARR each client evaluates every
//! pipeline itself (`n × m` evaluations); with the DARR clients claim
//! non-overlapping pipelines and share results (`m` evaluations total).

use std::sync::atomic::{AtomicUsize, Ordering};

use coda_chaos::RetryPolicy;
use coda_core::{Evaluator, Pipeline, Teg};
use coda_darr::{ComputationKey, CoopOutcome, CooperativeClient, Darr};
use coda_data::{CvStrategy, Dataset, Metric};
use coda_obs::Clock;

/// Outcome of a cooperative (or independent) multi-client run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoopRunReport {
    /// Client count.
    pub n_clients: usize,
    /// Distinct pipelines in the graph.
    pub n_pipelines: usize,
    /// Pipeline evaluations actually executed across all clients.
    pub total_evaluations: usize,
    /// Evaluations that duplicated work already done elsewhere.
    pub redundant_evaluations: usize,
    /// Results obtained from the DARR instead of recomputing.
    pub reused_results: usize,
    /// Wall-clock duration of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Best score observed (metric-dependent orientation).
    pub best_score: f64,
}

fn computation_key(
    dataset_id: &str,
    dataset_version: u64,
    pipeline_key: String,
    cv: &CvStrategy,
    metric: Metric,
) -> ComputationKey {
    ComputationKey {
        dataset_id: dataset_id.to_string(),
        dataset_version,
        pipeline: pipeline_key,
        cv: cv.to_string(),
        metric: metric.to_string(),
    }
}

/// Runs `n_clients` threads over all pipelines of `graph` on `data`.
/// With `use_darr` the clients cooperate through a shared repository;
/// without it every client evaluates everything (the paper's baseline).
///
/// Each cooperating client drives [`CooperativeClient::run`] with an
/// unbounded zero-backoff policy: a key another client holds is revisited
/// until the holder stores its result (reused here) or releases the claim
/// (taken over here) — a waiting client neither takes over a live holder
/// nor gives up on it.
///
/// `clock` times `wall_ms`: under a `ManualClock` the report is
/// byte-identical across same-seed runs, which is what lets chaos replays
/// and CI assertions compare whole reports.
///
/// # Panics
///
/// Panics if the graph has no valid pipelines or `n_clients == 0`.
pub fn run_cooperative(
    graph: &Teg,
    data: &Dataset,
    cv: CvStrategy,
    metric: Metric,
    n_clients: usize,
    use_darr: bool,
    clock: &dyn Clock,
) -> CoopRunReport {
    assert!(n_clients > 0, "need at least one client");
    // lint:allow(panic_safety) documented panic contract: an invalid graph is a caller bug
    let pipelines = graph.enumerate_pipelines().expect("graph must yield valid pipelines");
    assert!(!pipelines.is_empty(), "graph has no pipelines");
    let n_pipelines = pipelines.len();
    let darr = Darr::new();
    let evaluations = AtomicUsize::new(0);
    let reused = AtomicUsize::new(0);
    let evaluator = Evaluator::new(cv.clone(), metric);
    let best = parking_lot::Mutex::new(metric.worst());
    let wait_for_holders = RetryPolicy::fixed(0.0, u32::MAX);

    let start_ms = clock.now_ms();
    std::thread::scope(|scope| {
        for c in 0..n_clients {
            let pipelines = &pipelines;
            let darr = &darr;
            let evaluations = &evaluations;
            let reused = &reused;
            let evaluator = &evaluator;
            let cv = &cv;
            let best = &best;
            let wait_for_holders = &wait_for_holders;
            scope.spawn(move || {
                let client_name = format!("client-{c}");
                let record_best = |score: f64| {
                    let mut b = best.lock();
                    if metric.is_better(score, *b) {
                        *b = score;
                    }
                };
                // rotate the work order so claims spread across clients
                let offset = c * n_pipelines / n_clients;
                let order: Vec<&Pipeline> =
                    (0..n_pipelines).map(|i| &pipelines[(i + offset) % n_pipelines]).collect();
                if !use_darr {
                    for pipeline in order {
                        if let Ok(scores) = evaluator.evaluate_pipeline(pipeline, data) {
                            evaluations.fetch_add(1, Ordering::SeqCst);
                            record_best(scores.iter().sum::<f64>() / scores.len() as f64);
                        }
                    }
                    return;
                }
                let keys: Vec<ComputationKey> = order
                    .iter()
                    .map(|p| computation_key("shared", 1, p.spec().key(), cv, metric))
                    .collect();
                let coop = CooperativeClient::new(darr, client_name.clone(), 60_000);
                let (summary, outcomes) = coop.run(&keys, wait_for_holders, |key| {
                    evaluations.fetch_add(1, Ordering::SeqCst);
                    let idx =
                        keys.iter().position(|k| k == key).ok_or("key outside the work list")?;
                    let scores =
                        evaluator.evaluate_pipeline(order[idx], data).map_err(|e| e.to_string())?;
                    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
                    Ok((mean, scores, format!("{client_name} via {}", cv)))
                });
                reused.fetch_add(summary.reused, Ordering::SeqCst);
                for outcome in outcomes {
                    if let CoopOutcome::Computed(r) | CoopOutcome::Reused(r) = outcome {
                        record_best(r.score);
                    }
                }
            });
        }
    });
    let wall_ms = clock.now_ms() - start_ms;
    let total_evaluations = evaluations.load(Ordering::SeqCst);
    let best_score = *best.lock();
    CoopRunReport {
        n_clients,
        n_pipelines,
        total_evaluations,
        redundant_evaluations: total_evaluations.saturating_sub(n_pipelines),
        reused_results: reused.load(Ordering::SeqCst),
        wall_ms,
        best_score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_core::TegBuilder;
    use coda_data::{synth, NoOp};
    use coda_ml::{KnnRegressor, LinearRegression, RidgeRegression, StandardScaler};
    use coda_obs::WallClock;

    fn graph() -> Teg {
        TegBuilder::new()
            .add_feature_scalers(vec![Box::new(StandardScaler::new()), Box::new(NoOp::new())])
            .add_models(vec![
                Box::new(LinearRegression::new()),
                Box::new(RidgeRegression::new(1.0)),
                Box::new(KnnRegressor::new(5)),
            ])
            .create_graph()
            .unwrap()
    }

    /// `n` wall-clocked clients over [`graph`] with `folds`-fold CV.
    fn run(ds: &Dataset, folds: usize, n: usize, use_darr: bool) -> CoopRunReport {
        let cv = CvStrategy::kfold(folds);
        run_cooperative(&graph(), ds, cv, Metric::Rmse, n, use_darr, &WallClock::new())
    }

    #[test]
    fn without_darr_every_client_computes_everything() {
        let ds = synth::linear_regression(80, 3, 0.1, 201);
        let report = run(&ds, 3, 3, false);
        assert_eq!(report.n_pipelines, 6);
        assert_eq!(report.total_evaluations, 18);
        assert_eq!(report.redundant_evaluations, 12);
        assert_eq!(report.reused_results, 0);
    }

    #[test]
    fn with_darr_work_is_partitioned() {
        let ds = synth::linear_regression(80, 3, 0.1, 202);
        let report = run(&ds, 3, 3, true);
        assert_eq!(report.n_pipelines, 6);
        assert_eq!(report.total_evaluations, 6, "cooperation must eliminate redundant evaluations");
        assert_eq!(report.redundant_evaluations, 0);
        // every client still sees all six results: 3 clients x 6 = 18 views,
        // 6 computed + 12 reused
        assert_eq!(report.reused_results, 12);
        assert!(report.best_score.is_finite());
    }

    #[test]
    fn single_client_darr_matches_plain() {
        let ds = synth::linear_regression(60, 2, 0.1, 203);
        let with = run(&ds, 3, 1, true);
        let without = run(&ds, 3, 1, false);
        assert_eq!(with.total_evaluations, without.total_evaluations);
        assert!((with.best_score - without.best_score).abs() < 1e-12);
    }

    #[test]
    fn manual_clock_makes_reports_byte_identical() {
        use coda_obs::ManualClock;
        let ds = synth::linear_regression(60, 2, 0.1, 205);
        let run = || {
            let clock = ManualClock::new();
            clock.set_ms(1_000.0);
            run_cooperative(&graph(), &ds, CvStrategy::kfold(3), Metric::Rmse, 2, true, &clock)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.wall_ms, 0.0, "manual clock never advances on its own");
        assert_eq!(a, b, "same seed + manual clock must replay byte-identically");
    }

    #[test]
    fn best_score_is_linear_model_on_linear_data() {
        let ds = synth::linear_regression(100, 3, 0.05, 204);
        let report = run(&ds, 4, 2, true);
        assert!(report.best_score < 0.1, "best rmse {}", report.best_score);
    }
}
