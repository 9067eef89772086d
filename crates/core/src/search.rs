//! Selective path search (the paper's title promises *"selectively testing
//! a wide range of different algorithms"*, and §III notes "the total number
//! of possible calculations for a data set is generally too large to
//! exhaustively determine"): successive halving over a graph's pipelines.
//!
//! All paths are first scored cheaply on a small subsample; each round keeps
//! the better half and doubles the data, so the full dataset is only ever
//! spent on a handful of finalists. The returned report also accounts the
//! *sample-evaluations* spent, so the saving over exhaustive evaluation is
//! measurable.

use coda_data::{CvStrategy, Dataset, Metric, Params};

use crate::eval::{rank_order, EvalError, Evaluator, PathResult};
use crate::graph::Teg;
use crate::pipeline::Pipeline;

/// Result of a successive-halving search.
#[derive(Debug, Clone)]
pub struct HalvingReport {
    /// Ranking metric.
    pub metric: Metric,
    /// Survivors of the final round, ranked best-first (scored on the most
    /// data).
    pub finalists: Vec<PathResult>,
    /// Paths eliminated per round: `(round, samples used, survivors)`.
    pub rounds: Vec<RoundSummary>,
    /// Total training samples consumed across all evaluations — compare
    /// with `paths x n x folds` for exhaustive search.
    pub samples_spent: usize,
}

/// One halving round's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSummary {
    /// Round index (0-based).
    pub round: usize,
    /// Samples each surviving path was evaluated on this round.
    pub samples: usize,
    /// Paths still alive after this round.
    pub survivors: usize,
}

impl HalvingReport {
    /// The winning path.
    pub fn best(&self) -> Option<&PathResult> {
        self.finalists.first()
    }
}

impl Evaluator {
    /// Successive-halving search over every pipeline of `graph`.
    ///
    /// Round 0 evaluates all paths on `initial_samples` rows (a
    /// deterministic shuffled subsample); each subsequent round keeps the
    /// better half (by this evaluator's metric) and doubles the rows, until
    /// at most `min_finalists` paths remain or the full dataset is reached.
    /// The final survivors are scored on the full data with this
    /// evaluator's CV strategy. Every round runs on this evaluator's worker
    /// pool, so [`Evaluator::with_threads`] and [`Evaluator::with_obs`]
    /// apply, and ranks paths as [`Evaluator::evaluate_graph`] does.
    ///
    /// # Errors
    ///
    /// [`EvalError::Graph`] for malformed graphs;
    /// [`EvalError::NothingEvaluated`] when every path fails in some round.
    pub fn successive_halving(
        &self,
        graph: &Teg,
        data: &Dataset,
        initial_samples: usize,
        min_finalists: usize,
    ) -> Result<HalvingReport, EvalError> {
        let mut alive: Vec<(Pipeline, Params)> =
            graph.enumerate_pipelines()?.into_iter().map(|p| (p, Params::new())).collect();
        let metric = self.metric();
        let min_finalists = min_finalists.max(1);
        let n = data.n_samples();
        // deterministic shuffle once; rounds take growing prefixes so
        // earlier subsamples are subsets of later ones
        let shuffled = {
            let mut idx: Vec<usize> = (0..n).collect();
            // Fisher-Yates with a fixed LCG: search must be reproducible
            let mut state = 0x9E3779B97F4A7C15u64;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                idx.swap(i, j);
            }
            idx
        };
        // cheap screening rounds with a single train/validation split
        let mut screen = self.clone();
        screen.cv = CvStrategy::TrainTestSplit { test_fraction: 0.3, seed: 11 };
        let mut rounds = Vec::new();
        let mut samples_spent = 0usize;
        let mut samples = initial_samples.clamp(1, n);
        let mut round = 0usize;
        while alive.len() > min_finalists && samples < n {
            let (results, _, _) = screen.run_jobs(&alive, &data.select(&shuffled[..samples]));
            samples_spent += samples * alive.len();
            let mut scored: Vec<(usize, PathResult)> =
                results.into_iter().enumerate().filter(|(_, r)| r.is_ok()).collect();
            if scored.is_empty() {
                return Err(EvalError::NothingEvaluated);
            }
            scored.sort_by(|(_, a), (_, b)| rank_order(metric, a, b));
            let keep = (scored.len() / 2).max(min_finalists).min(scored.len());
            let mut keep_idx: Vec<usize> = scored[..keep].iter().map(|(i, _)| *i).collect();
            keep_idx.sort_unstable();
            alive = keep_idx.into_iter().rev().map(|i| alive.swap_remove(i)).collect();
            rounds.push(RoundSummary { round, samples, survivors: alive.len() });
            samples = (samples * 2).min(n);
            round += 1;
        }
        // final full-data evaluation of the survivors under the real CV
        let finalists = self.evaluate_jobs(alive, data)?.results;
        samples_spent += finalists.iter().map(|f| n * f.fold_scores.len()).sum::<usize>();
        Ok(HalvingReport { metric, finalists, rounds, samples_spent })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TegBuilder;
    use coda_data::{synth, NoOp};
    use coda_ml::{
        DecisionTreeRegressor, KnnRegressor, LinearRegression, RandomForestRegressor,
        RidgeRegression, StandardScaler,
    };

    fn wide_graph() -> Teg {
        TegBuilder::new()
            .add_feature_scalers(vec![Box::new(StandardScaler::new()), Box::new(NoOp::new())])
            .add_models(vec![
                Box::new(LinearRegression::new()),
                Box::new(RidgeRegression::new(1.0)),
                Box::new(KnnRegressor::new(5)),
                Box::new(KnnRegressor::new(1)),
                Box::new(DecisionTreeRegressor::new()),
                Box::new(RandomForestRegressor::new(8)),
            ])
            .create_graph()
            .unwrap()
    }

    #[test]
    fn halving_finds_the_exhaustive_winner_family() {
        // strongly linear data: linear/ridge paths dominate at every budget
        let ds = synth::linear_regression(600, 4, 0.2, 61);
        let eval = Evaluator::new(CvStrategy::kfold(4), coda_data::Metric::Rmse);
        let exhaustive = eval.evaluate_graph(&wide_graph(), &ds).unwrap();
        let halving = eval.successive_halving(&wide_graph(), &ds, 60, 2).unwrap();
        let exhaustive_winner = &exhaustive.best().unwrap().spec.steps[1];
        let halving_winner = &halving.best().unwrap().spec.steps[1];
        let linear_family = ["linear_regression", "ridge_regression"];
        assert!(linear_family.contains(&exhaustive_winner.as_str()));
        assert!(
            linear_family.contains(&halving_winner.as_str()),
            "halving winner {halving_winner} must be in the linear family"
        );
    }

    #[test]
    fn halving_spends_far_fewer_samples() {
        let ds = synth::linear_regression(600, 4, 0.2, 62);
        let eval = Evaluator::new(CvStrategy::kfold(4), coda_data::Metric::Rmse);
        let halving = eval.successive_halving(&wide_graph(), &ds, 60, 2).unwrap();
        // exhaustive cost: 12 paths x 4 folds x 600 samples
        let exhaustive_cost = 12 * 4 * 600;
        assert!(
            halving.samples_spent < exhaustive_cost / 2,
            "halving spent {} vs exhaustive {exhaustive_cost}",
            halving.samples_spent
        );
        // rounds shrink the field and grow the data
        assert!(!halving.rounds.is_empty());
        for w in halving.rounds.windows(2) {
            assert!(w[1].survivors <= w[0].survivors);
            assert!(w[1].samples >= w[0].samples);
        }
        assert!(halving.finalists.len() <= 3);
    }

    #[test]
    fn tiny_budget_still_returns_a_winner() {
        let ds = synth::linear_regression(100, 3, 0.2, 63);
        let eval = Evaluator::new(CvStrategy::kfold(3), coda_data::Metric::Rmse);
        let halving = eval.successive_halving(&wide_graph(), &ds, 5, 1).unwrap();
        assert!(halving.best().is_some());
    }

    #[test]
    fn initial_budget_larger_than_data_skips_screening() {
        let ds = synth::linear_regression(50, 3, 0.2, 64);
        let eval = Evaluator::new(CvStrategy::kfold(3), coda_data::Metric::Rmse);
        let halving = eval.successive_halving(&wide_graph(), &ds, 1_000, 2).unwrap();
        assert!(halving.rounds.is_empty(), "no screening rounds when budget >= n");
        assert_eq!(halving.finalists.len(), 12); // all paths went to the final
    }
}
