//! Time-series AI functions and the Time Series Prediction pipeline
//! (paper §IV-C/D, Figs. 6–12, Table II).
//!
//! A multivariate series (`n` timestamps × `v` variables, Fig. 6) is carried
//! as a [`coda_data::Dataset`] whose features are the series matrix and whose
//! target is the (unscaled) series of the variable to forecast — see
//! [`series::SeriesData`]. Data-scaling transformers act on the features;
//! the data-preprocessing transformers of Figs. 7–10 turn the series into a
//! supervised window dataset; estimators (temporal DNNs, IID DNNs and
//! statistical models) fit that. [`pipeline::TimeSeriesPipelineBuilder`]
//! wires the selective Transformer-Estimator Graph of Fig. 11, and
//! [`pipeline::TsEvaluator`] scores each path with the sliding-split
//! cross-validation of Fig. 12. It is a front end to
//! [`coda_core::Evaluator`], which evaluates every TEG path the same way:
//! each validation fold is transformed once and scored against the
//! per-window truth the windowing transformer derives.
//!
//! # Examples
//!
//! ```
//! use coda_data::synth;
//! use coda_timeseries::series::SeriesData;
//! use coda_timeseries::window::{CascadedWindows, WindowConfig};
//! use coda_data::Transformer;
//!
//! let series = SeriesData::univariate(synth::trend_seasonal_series(100, 24.0, 0.1, 3));
//! let ds = series.to_dataset();
//! let mut win = CascadedWindows::new(WindowConfig::new(8, 1));
//! let supervised = win.fit_transform(&ds)?;
//! assert_eq!(supervised.n_samples(), 100 - 8); // L - p windows (Fig. 7)
//! assert_eq!(supervised.n_features(), 8);      // p * v columns
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod deep;
pub mod forecast;
pub mod models;
pub mod pipeline;
pub mod series;
pub mod window;

pub use deep::{
    CnnForecaster, DnnForecaster, LstmForecaster, SeriesNetForecaster, WaveNetForecaster,
};
pub use models::{ArForecaster, SeasonalNaive, ZeroModel};
pub use pipeline::{TimeSeriesPipelineBuilder, TsEvaluator};
pub use series::SeriesData;
pub use window::{CascadedWindows, FlatWindowing, TsAsIid, TsAsIs, WindowConfig};
