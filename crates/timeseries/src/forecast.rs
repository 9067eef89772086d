//! Multi-step forecasting: the paper's **prediction window** ("try to
//! predict the value of the next few timestamps") realized by recursive
//! one-step forecasting — each predicted value is appended to the history
//! and fed back through the fitted pipeline.

use coda_core::Pipeline;
use coda_data::ComponentError;
use coda_linalg::Matrix;

use crate::series::SeriesData;

/// Forecasts the next `steps` values of a *univariate* series with a fitted
/// one-step pipeline (scaler → preprocessor → estimator, horizon 1),
/// feeding each prediction back as history.
///
/// # Errors
///
/// [`ComponentError::InvalidInput`] for multivariate series (the paper's
/// recursive scheme needs every input channel predicted; with one channel
/// the prediction *is* the channel) or `steps == 0`; any pipeline error.
///
/// # Examples
///
/// ```
/// use coda_core::{Node, Pipeline};
/// use coda_data::BoxedEstimator;
/// use coda_timeseries::{forecast, ArForecaster, SeriesData, TsAsIs, WindowConfig};
/// use coda_data::BoxedTransformer;
///
/// // fit AR(4) on a ramp, forecast 5 steps ahead
/// let series = SeriesData::univariate((0..60).map(|i| i as f64).collect());
/// let mut pipeline = Pipeline::from_nodes(vec![
///     Node::auto((Box::new(TsAsIs::new(WindowConfig::new(4, 1))) as BoxedTransformer).into()),
///     Node::auto((Box::new(ArForecaster::differenced()) as BoxedEstimator).into()),
/// ]);
/// pipeline.fit(&series.to_dataset())?;
/// let future = forecast::recursive_forecast(&pipeline, &series, 5)?;
/// assert_eq!(future.len(), 5);
/// assert!((future[4] - 64.0).abs() < 0.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn recursive_forecast(
    pipeline: &Pipeline,
    series: &SeriesData,
    steps: usize,
) -> Result<Vec<f64>, ComponentError> {
    if series.n_vars() != 1 {
        return Err(ComponentError::InvalidInput(
            "recursive forecasting requires a univariate series".to_string(),
        ));
    }
    if steps == 0 {
        return Err(ComponentError::InvalidInput("steps must be positive".to_string()));
    }
    let mut history = series.target_series();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        // Windowing transformers only emit windows whose label lies inside
        // the series, so the last labeled window predicts the final
        // *observed* value. Appending a placeholder slides one more window
        // in — covering exactly the last `p` real observations — whose
        // label slot is the unknown next value we want.
        let mut extended = history.clone();
        extended.push(*history.last().ok_or_else(|| {
            ComponentError::InvalidInput(
                "recursive forecasting needs a non-empty series".to_string(),
            )
        })?);
        let current = SeriesData::new(Matrix::from_vec(extended.len(), 1, extended), 0);
        let preds = pipeline.predict(&current.to_dataset())?;
        let next = *preds.last().ok_or_else(|| {
            ComponentError::InvalidInput("pipeline produced no predictions".to_string())
        })?;
        out.push(next);
        history.push(next);
    }
    Ok(out)
}

/// Convenience: RMSE of a recursive forecast against the actual
/// continuation of the series — fit on `series[..split]`, forecast
/// `series[split..]`, compare.
///
/// # Errors
///
/// As for [`recursive_forecast`], plus [`ComponentError::InvalidInput`] for
/// an out-of-range split.
pub fn backtest_forecast(
    pipeline: &mut Pipeline,
    series: &SeriesData,
    split: usize,
) -> Result<f64, ComponentError> {
    if series.n_vars() != 1 {
        return Err(ComponentError::InvalidInput(
            "backtesting requires a univariate series".to_string(),
        ));
    }
    if split == 0 || split >= series.len() {
        return Err(ComponentError::InvalidInput(format!(
            "split {split} out of range for series of length {}",
            series.len()
        )));
    }
    let full = series.target_series();
    let train = SeriesData::new(Matrix::from_vec(split, 1, full[..split].to_vec()), 0);
    pipeline.fit(&train.to_dataset())?;
    let horizon = series.len() - split;
    let forecast = recursive_forecast(pipeline, &train, horizon)?;
    coda_data::metrics::rmse(&full[split..], &forecast)
        .map_err(|e| ComponentError::InvalidInput(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ArForecaster, ZeroModel};
    use crate::window::{TsAsIs, WindowConfig};
    use coda_core::Node;
    use coda_data::{synth, BoxedEstimator, BoxedTransformer};

    fn ar_pipeline(p: usize, differenced: bool) -> Pipeline {
        let model: BoxedEstimator = if differenced {
            Box::new(ArForecaster::differenced())
        } else {
            Box::new(ArForecaster::new())
        };
        Pipeline::from_nodes(vec![
            Node::auto((Box::new(TsAsIs::new(WindowConfig::new(p, 1))) as BoxedTransformer).into()),
            Node::auto(model.into()),
        ])
    }

    #[test]
    fn tracks_a_sine_wave_over_many_steps() {
        let series: Vec<f64> =
            (0..200).map(|t| (2.0 * std::f64::consts::PI * t as f64 / 20.0).sin() * 3.0).collect();
        let train = SeriesData::univariate(series[..160].to_vec());
        let mut pipeline = ar_pipeline(20, false);
        pipeline.fit(&train.to_dataset()).unwrap();
        let forecast = recursive_forecast(&pipeline, &train, 40).unwrap();
        let rmse = coda_data::metrics::rmse(&series[160..], &forecast).unwrap();
        assert!(rmse < 0.1, "40-step sine forecast rmse {rmse}");
    }

    #[test]
    fn extends_a_trend() {
        let series = SeriesData::univariate((0..80).map(|i| 2.0 * i as f64).collect());
        let mut pipeline = ar_pipeline(4, true);
        pipeline.fit(&series.to_dataset()).unwrap();
        let forecast = recursive_forecast(&pipeline, &series, 10).unwrap();
        for (i, v) in forecast.iter().enumerate() {
            let expected = 2.0 * (80 + i) as f64;
            assert!((v - expected).abs() < 1.0, "step {i}: {v} vs {expected}");
        }
    }

    #[test]
    fn zero_model_forecast_is_flat() {
        let series = SeriesData::univariate(synth::random_walk(100, 1.0, 51));
        let mut pipeline = Pipeline::from_nodes(vec![
            Node::auto((Box::new(TsAsIs::new(WindowConfig::new(5, 1))) as BoxedTransformer).into()),
            Node::auto((Box::new(ZeroModel::new()) as BoxedEstimator).into()),
        ]);
        pipeline.fit(&series.to_dataset()).unwrap();
        let forecast = recursive_forecast(&pipeline, &series, 8).unwrap();
        let last = *series.target_series().last().unwrap();
        assert!(forecast.iter().all(|v| (v - last).abs() < 1e-12));
    }

    #[test]
    fn backtest_ranks_ar_above_zero_on_seasonal_data() {
        let series = SeriesData::univariate(
            (0..300).map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin() * 2.0).collect(),
        );
        let mut ar = ar_pipeline(12, false);
        let ar_rmse = backtest_forecast(&mut ar, &series, 250).unwrap();
        let mut zero = Pipeline::from_nodes(vec![
            Node::auto(
                (Box::new(TsAsIs::new(WindowConfig::new(12, 1))) as BoxedTransformer).into(),
            ),
            Node::auto((Box::new(ZeroModel::new()) as BoxedEstimator).into()),
        ]);
        let zero_rmse = backtest_forecast(&mut zero, &series, 250).unwrap();
        assert!(ar_rmse < zero_rmse / 2.0, "ar {ar_rmse:.4} vs zero {zero_rmse:.4}");
    }

    #[test]
    fn errors() {
        let mv = SeriesData::new(synth::multivariate_sensors(50, 2, 52), 0);
        let pipeline = ar_pipeline(4, false);
        assert!(recursive_forecast(&pipeline, &mv, 3).is_err());
        let uni = SeriesData::univariate((0..50).map(|i| i as f64).collect());
        assert!(recursive_forecast(&pipeline, &uni, 0).is_err()); // steps = 0
                                                                  // unfitted pipeline fails inside predict
        assert!(recursive_forecast(&pipeline, &uni, 2).is_err());
        let mut p = ar_pipeline(4, false);
        assert!(backtest_forecast(&mut p, &uni, 0).is_err());
        assert!(backtest_forecast(&mut p, &uni, 50).is_err());
    }
}
