//! The Time Series Prediction pipeline (paper §IV-D, Fig. 11) and its
//! sliding-split evaluator (Fig. 12).
//!
//! [`TimeSeriesPipelineBuilder`] wires the three-stage selective graph:
//! Data Scaling → Data Preprocessing → Modelling, where CascadedWindows
//! feeds only the temporal DNNs, FlatWindowing and TS-as-IID feed the
//! standard DNNs, and TS-as-is feeds the statistical models.
//! [`TsEvaluator`] is the time-ordered-split front end to
//! [`coda_core::Evaluator`]: it scores every path with
//! `TimeSeriesSlidingSplit` and returns the best-performing set of
//! transformers and estimators.

use coda_core::{EvalError, Evaluator, GraphError, GraphReport, Node, Teg, TegBuilder};
use coda_data::{BoxedEstimator, BoxedTransformer, CvStrategy, Metric, NoOp};
use coda_ml::{MinMaxScaler, RobustScaler, StandardScaler};

use crate::deep::{
    CnnForecaster, DnnForecaster, LstmForecaster, SeriesNetForecaster, WaveNetForecaster,
};
use crate::models::{ArForecaster, ZeroModel};
use crate::series::SeriesData;
use crate::window::{CascadedWindows, FlatWindowing, TsAsIid, TsAsIs, WindowConfig};

/// Builder for the Fig. 11 graph.
///
/// # Examples
///
/// ```
/// use coda_timeseries::TimeSeriesPipelineBuilder;
///
/// let graph = TimeSeriesPipelineBuilder::new(12, 1, 1)
///     .with_deep_variants(false)
///     .build()?;
/// // 3 preprocessing routes x their models, times 4 scalers
/// assert!(graph.enumerate_pipelines()?.len() >= 4 * (4 + 2 + 2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeriesPipelineBuilder {
    history: usize,
    horizon: usize,
    n_vars: usize,
    epochs: usize,
    seed: u64,
    deep_variants: bool,
    all_scalers: bool,
}

impl TimeSeriesPipelineBuilder {
    /// Creates a builder for `n_vars`-variate series with the given history
    /// window and prediction horizon.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(history: usize, horizon: usize, n_vars: usize) -> Self {
        assert!(history > 0 && horizon > 0 && n_vars > 0);
        TimeSeriesPipelineBuilder {
            history,
            horizon,
            n_vars,
            epochs: 60,
            seed: 0,
            deep_variants: true,
            all_scalers: true,
        }
    }

    /// Sets training epochs for the deep models.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Sets the shared seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Includes (default) or drops the deep model variants.
    pub fn with_deep_variants(mut self, yes: bool) -> Self {
        self.deep_variants = yes;
        self
    }

    /// Includes all four scalers (default) or only `NoOp`.
    pub fn with_all_scalers(mut self, yes: bool) -> Self {
        self.all_scalers = yes;
        self
    }

    /// Builds the selective Transformer-Estimator Graph of Fig. 11.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] (cannot occur for the fixed wiring unless a
    /// future variant breaks it).
    pub fn build(&self) -> Result<Teg, GraphError> {
        let cfg = WindowConfig::new(self.history, self.horizon);
        let p = self.history;
        let v = self.n_vars;
        let mut b = TegBuilder::new();

        // Stage 1: data scaling
        let mut scalers: Vec<String> = Vec::new();
        if self.all_scalers {
            scalers.push(
                b.add_node(Node::auto((Box::new(MinMaxScaler::new()) as BoxedTransformer).into())),
            );
            scalers.push(
                b.add_node(Node::auto((Box::new(RobustScaler::new()) as BoxedTransformer).into())),
            );
            scalers.push(b.add_node(Node::auto(
                (Box::new(StandardScaler::new()) as BoxedTransformer).into(),
            )));
        }
        scalers.push(b.add_node(Node::auto((Box::new(NoOp::new()) as BoxedTransformer).into())));

        // Stage 2: data preprocessing
        let cascaded = b
            .add_node(Node::auto((Box::new(CascadedWindows::new(cfg)) as BoxedTransformer).into()));
        let flat =
            b.add_node(Node::auto((Box::new(FlatWindowing::new(cfg)) as BoxedTransformer).into()));
        let iid = b.add_node(Node::auto((Box::new(TsAsIid::new(cfg)) as BoxedTransformer).into()));
        let asis = b.add_node(Node::auto((Box::new(TsAsIs::new(cfg)) as BoxedTransformer).into()));
        for s in &scalers {
            for pre in [&cascaded, &flat, &iid, &asis] {
                b.connect(s, pre);
            }
        }

        // Stage 3: modelling — selectively connected
        let seed = self.seed;
        let ep = self.epochs;
        let mut temporal: Vec<String> = vec![
            b.add_node(Node::new(
                "lstm_simple",
                (Box::new(LstmForecaster::simple(p, v).with_epochs(ep).with_seed(seed))
                    as BoxedEstimator)
                    .into(),
            )),
            b.add_node(Node::new(
                "cnn_simple",
                (Box::new(CnnForecaster::simple(p, v).with_epochs(ep).with_seed(seed + 1))
                    as BoxedEstimator)
                    .into(),
            )),
            b.add_node(Node::new(
                "wavenet",
                (Box::new(WaveNetForecaster::new(p, v).with_epochs(ep).with_seed(seed + 2))
                    as BoxedEstimator)
                    .into(),
            )),
            b.add_node(Node::new(
                "seriesnet",
                (Box::new(SeriesNetForecaster::new(p, v).with_epochs(ep).with_seed(seed + 3))
                    as BoxedEstimator)
                    .into(),
            )),
        ];
        if self.deep_variants {
            temporal.push(
                b.add_node(Node::new(
                    "lstm_deep",
                    (Box::new(LstmForecaster::deep(p, v).with_epochs(ep).with_seed(seed + 4))
                        as BoxedEstimator)
                        .into(),
                )),
            );
            temporal.push(
                b.add_node(Node::new(
                    "cnn_deep",
                    (Box::new(CnnForecaster::deep(p, v).with_epochs(ep).with_seed(seed + 5))
                        as BoxedEstimator)
                        .into(),
                )),
            );
        }
        let mut dnn_flat: Vec<String> = vec![b.add_node(Node::new(
            "dnn_simple",
            (Box::new(DnnForecaster::simple(p * v).with_epochs(ep).with_seed(seed + 6))
                as BoxedEstimator)
                .into(),
        ))];
        if self.deep_variants {
            dnn_flat.push(
                b.add_node(Node::new(
                    "dnn_deep",
                    (Box::new(DnnForecaster::deep(p * v).with_epochs(ep).with_seed(seed + 7))
                        as BoxedEstimator)
                        .into(),
                )),
            );
        }
        let mut dnn_iid: Vec<String> = vec![b.add_node(Node::new(
            "dnn_iid_simple",
            (Box::new(DnnForecaster::simple(v).with_epochs(ep).with_seed(seed + 8))
                as BoxedEstimator)
                .into(),
        ))];
        if self.deep_variants {
            dnn_iid.push(
                b.add_node(Node::new(
                    "dnn_iid_deep",
                    (Box::new(DnnForecaster::deep(v).with_epochs(ep).with_seed(seed + 9))
                        as BoxedEstimator)
                        .into(),
                )),
            );
        }
        let statistical: Vec<String> = vec![
            b.add_node(Node::auto((Box::new(ZeroModel::new()) as BoxedEstimator).into())),
            b.add_node(Node::auto((Box::new(ArForecaster::new()) as BoxedEstimator).into())),
            b.add_node(Node::auto(
                (Box::new(ArForecaster::differenced()) as BoxedEstimator).into(),
            )),
        ];
        // Fig. 11 selective wiring
        for m in &temporal {
            b.connect(&cascaded, m);
        }
        for m in &dnn_flat {
            b.connect(&flat, m);
        }
        for m in &dnn_iid {
            b.connect(&iid, m);
        }
        for m in &statistical {
            b.connect(&asis, m);
        }
        b.create_graph()
    }
}

/// The time-ordered-split front end to [`Evaluator`]: it scores every path
/// with the sliding split of Fig. 12 — contiguous train window, buffer gap,
/// contiguous validation window, slid `k` times, so no future information
/// ever leaks into training — or the expanding split.
#[derive(Debug, Clone)]
pub struct TsEvaluator {
    eval: Evaluator,
}

impl TsEvaluator {
    /// Creates an evaluator.
    ///
    /// # Panics
    ///
    /// Panics unless `split` is a time-ordered strategy
    /// (`TimeSeriesSlidingSplit` or `TimeSeriesExpanding`) — the paper is
    /// explicit that i.i.d. CV is invalid for time series.
    pub fn new(split: CvStrategy, metric: Metric) -> Self {
        assert!(
            matches!(
                split,
                CvStrategy::TimeSeriesSlidingSplit { .. } | CvStrategy::TimeSeriesExpanding { .. }
            ),
            "time-series evaluation requires a time-ordered split strategy"
        );
        TsEvaluator { eval: Evaluator::new(split, metric) }
    }

    /// Convenience constructor for the expanding-window "Time Series Split"
    /// (§IV-B's alternate strategy).
    pub fn expanding(k: usize, metric: Metric) -> Self {
        TsEvaluator::new(CvStrategy::TimeSeriesExpanding { k }, metric)
    }

    /// Convenience constructor with window sizes.
    pub fn sliding(
        train: usize,
        buffer: usize,
        validation: usize,
        k: usize,
        metric: Metric,
    ) -> Self {
        TsEvaluator::new(
            CvStrategy::TimeSeriesSlidingSplit {
                train_size: train,
                buffer,
                validation_size: validation,
                k,
            },
            metric,
        )
    }

    /// Enables parallel path evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.eval = self.eval.with_threads(n);
        self
    }

    /// Evaluates every path of `graph` on `series`, ranked by the metric.
    /// The output of the pipeline is the best performing set of transformers
    /// and estimators (Fig. 11).
    ///
    /// # Errors
    ///
    /// As for [`Evaluator::evaluate_graph`].
    pub fn evaluate_graph(
        &self,
        graph: &Teg,
        series: &SeriesData,
    ) -> Result<GraphReport, EvalError> {
        self.eval.evaluate_graph(graph, &series.to_dataset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_data::synth;

    #[test]
    fn graph_structure_matches_fig11() {
        let g = TimeSeriesPipelineBuilder::new(12, 1, 2).build().unwrap();
        // selective wiring: cascaded feeds temporal models only
        let idx = g.node_index("cascaded_windows").unwrap();
        let succ_names: Vec<&str> =
            g.successors(idx).iter().map(|&i| g.nodes()[i].name()).collect();
        assert!(succ_names.contains(&"lstm_simple"));
        assert!(succ_names.contains(&"wavenet"));
        assert!(!succ_names.iter().any(|n| n.starts_with("dnn")));
        assert!(!succ_names.contains(&"zero_model"));
        // ts_as_is feeds statistical models only
        let asis = g.node_index("ts_as_is").unwrap();
        let stat_names: Vec<&str> =
            g.successors(asis).iter().map(|&i| g.nodes()[i].name()).collect();
        assert!(stat_names.contains(&"zero_model"));
        assert!(stat_names.contains(&"ar_forecaster"));
        assert!(stat_names.iter().all(|n| !n.contains("lstm")));
    }

    #[test]
    fn path_count() {
        let g = TimeSeriesPipelineBuilder::new(12, 1, 1).with_deep_variants(false).build().unwrap();
        // 4 scalers x (4 temporal + 1 dnn_flat + 1 dnn_iid + 3 statistical)
        assert_eq!(g.enumerate_pipelines().unwrap().len(), 4 * 9);
    }

    #[test]
    fn evaluator_requires_sliding_split() {
        let result =
            std::panic::catch_unwind(|| TsEvaluator::new(CvStrategy::kfold(5), Metric::Rmse));
        assert!(result.is_err());
    }

    #[test]
    fn sliding_evaluation_ranks_statistical_paths() {
        // statistical-only graph evaluates quickly and meaningfully
        let g = TimeSeriesPipelineBuilder::new(8, 1, 1)
            .with_deep_variants(false)
            .with_all_scalers(false)
            .with_epochs(3)
            .build()
            .unwrap();
        let series = SeriesData::univariate(synth::ar2_series(400, 0.6, 0.2, 0.5, 31));
        let eval = TsEvaluator::sliding(200, 5, 50, 3, Metric::Rmse).with_threads(4);
        let report = eval.evaluate_graph(&g, &series).unwrap();
        assert!(report.n_ok() >= 5);
        // AR must beat the persistence baseline on an AR(2) process
        let ar = report.score_for("ar_forecaster").unwrap();
        let zero = report.score_for("zero_model").unwrap();
        assert!(ar < zero, "ar {ar:.4} vs zero {zero:.4}");
        assert!(report.best().is_some());
        assert!(report.to_string().contains("GraphReport"));
    }

    #[test]
    fn expanding_split_evaluator_works() {
        let g = TimeSeriesPipelineBuilder::new(6, 1, 1)
            .with_deep_variants(false)
            .with_all_scalers(false)
            .with_epochs(3)
            .build()
            .unwrap();
        let series = SeriesData::univariate(synth::ar2_series(300, 0.5, 0.2, 0.5, 41));
        let eval = TsEvaluator::expanding(3, Metric::Rmse);
        let report = eval.evaluate_graph(&g, &series).unwrap();
        assert!(report.n_ok() >= 3);
        assert_eq!(report.results[0].fold_scores.len(), 3);
    }

    #[test]
    fn too_short_series_is_error() {
        let g = TimeSeriesPipelineBuilder::new(8, 1, 1)
            .with_deep_variants(false)
            .with_all_scalers(false)
            .build()
            .unwrap();
        let series = SeriesData::univariate(vec![1.0; 30]);
        let eval = TsEvaluator::sliding(100, 5, 20, 3, Metric::Rmse);
        assert!(matches!(eval.evaluate_graph(&g, &series), Err(EvalError::NothingEvaluated)));
    }
}
