//! Statistical forecasting models (§IV-C1): the Zero (persistence) baseline,
//! an autoregressive model with optional differencing (the ARIMA family
//! member the paper names), and a seasonal-naive reference.
//!
//! All consume the lag-column datasets produced by the `TsAsIs`
//! preprocessor: `p` lag columns of the target variable, label = the next
//! value.

use coda_data::{BoxedEstimator, ComponentError, Dataset, Estimator, ParamValue, TaskKind};
use coda_linalg::decomp::lstsq;
use coda_linalg::Matrix;

/// The Zero model: outputs the previous timestamp's ground truth as the next
/// timestamp's prediction — the paper's baseline for every forecasting task.
#[derive(Debug, Clone, Default)]
pub struct ZeroModel {
    fitted: bool,
}

impl ZeroModel {
    /// Creates the persistence baseline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Estimator for ZeroModel {
    fn name(&self) -> &str {
        "zero_model"
    }

    fn task(&self) -> TaskKind {
        TaskKind::Forecasting
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), ComponentError> {
        if data.n_features() == 0 {
            return Err(ComponentError::InvalidInput(
                "zero model needs at least one lag column".to_string(),
            ));
        }
        self.fitted = true;
        Ok(())
    }

    fn predict(&self, data: &Dataset) -> Result<Vec<f64>, ComponentError> {
        if !self.fitted {
            return Err(ComponentError::NotFitted(self.name().to_string()));
        }
        // last column = the most recent observation
        let last = data.n_features() - 1;
        Ok(data.features().col(last))
    }

    fn clone_box(&self) -> BoxedEstimator {
        Box::new(ZeroModel::new())
    }
}

/// Autoregressive forecaster with optional differencing — AR(p) on levels
/// (`d = 0`) or on first differences (`d = 1`, i.e. ARI(p,1)). Coefficients
/// are fitted by least squares on the lag columns.
#[derive(Debug, Clone)]
pub struct ArForecaster {
    d: usize,
    coef: Option<Vec<f64>>, // [intercept, w_1..w_k] over (possibly differenced) lags
}

impl ArForecaster {
    /// AR on levels.
    pub fn new() -> Self {
        ArForecaster { d: 0, coef: None }
    }

    /// AR on first differences (handles trends/random walks gracefully).
    pub fn differenced() -> Self {
        ArForecaster { d: 1, coef: None }
    }

    /// Fitted coefficients `[intercept, w…]`, if fitted.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coef.as_deref()
    }

    /// Rewrites lag rows into the regression design: levels (d=0) or
    /// differences (d=1, one fewer column).
    fn design(&self, x: &Matrix) -> Result<Matrix, ComponentError> {
        let p = x.cols();
        match self.d {
            0 => {
                let mut out = Matrix::zeros(x.rows(), p + 1);
                for r in 0..x.rows() {
                    out[(r, 0)] = 1.0;
                    out.row_mut(r)[1..].copy_from_slice(x.row(r));
                }
                Ok(out)
            }
            1 => {
                if p < 2 {
                    return Err(ComponentError::InvalidInput(
                        "differenced AR needs at least 2 lag columns".to_string(),
                    ));
                }
                let mut out = Matrix::zeros(x.rows(), p);
                for r in 0..x.rows() {
                    out[(r, 0)] = 1.0;
                    for c in 1..p {
                        out[(r, c)] = x[(r, c)] - x[(r, c - 1)];
                    }
                }
                Ok(out)
            }
            _ => Err(ComponentError::InvalidInput("only d in {0, 1} supported".to_string())),
        }
    }
}

impl Default for ArForecaster {
    fn default() -> Self {
        Self::new()
    }
}

impl Estimator for ArForecaster {
    fn name(&self) -> &str {
        if self.d == 0 {
            "ar_forecaster"
        } else {
            "ari_forecaster"
        }
    }

    fn task(&self) -> TaskKind {
        TaskKind::Forecasting
    }

    fn set_param(&mut self, param: &str, value: ParamValue) -> Result<(), ComponentError> {
        match param {
            "d" => {
                self.d = value.as_usize().filter(|&d| d <= 1).ok_or_else(|| {
                    ComponentError::InvalidParam {
                        component: "ar_forecaster".to_string(),
                        param: param.to_string(),
                        reason: "must be 0 or 1".to_string(),
                    }
                })?;
                Ok(())
            }
            _ => Err(ComponentError::UnknownParam {
                component: self.name().to_string(),
                param: param.to_string(),
            }),
        }
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), ComponentError> {
        let y = data.target_required()?;
        let design = self.design(data.features())?;
        if design.rows() < design.cols() {
            return Err(ComponentError::InvalidInput(format!(
                "need at least {} windows for {} AR terms",
                design.cols(),
                design.cols() - 1
            )));
        }
        // for d=1 regress the *change* from the last observation
        let target: Vec<f64> = if self.d == 0 {
            y.to_vec()
        } else {
            let last = data.n_features() - 1;
            y.iter().enumerate().map(|(r, v)| v - data.features()[(r, last)]).collect()
        };
        // Ridge-stabilized normal equations: lag columns are frequently
        // collinear (e.g. constant differences on a pure trend), which a
        // plain QR solve rejects as singular.
        let coef = lstsq(&design, &target).or_else(|_| {
            let mut gram = design.gram();
            let scale = gram.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
            for i in 0..gram.rows() {
                gram[(i, i)] += 1e-8 * scale;
            }
            design
                .transpose()
                .matvec(&target)
                .and_then(|xty| coda_linalg::decomp::cholesky_solve(&gram, &xty))
        });
        let coef = coef.map_err(|e| ComponentError::Numerical(format!("AR fit failed: {e}")))?;
        self.coef = Some(coef);
        Ok(())
    }

    fn predict(&self, data: &Dataset) -> Result<Vec<f64>, ComponentError> {
        let coef =
            self.coef.as_ref().ok_or_else(|| ComponentError::NotFitted(self.name().to_string()))?;
        let design = self.design(data.features())?;
        if design.cols() != coef.len() {
            return Err(ComponentError::InvalidInput(format!(
                "model fitted on {} design columns, input yields {}",
                coef.len(),
                design.cols()
            )));
        }
        let base = design.matvec(coef).map_err(|e| ComponentError::Numerical(e.to_string()))?;
        Ok(if self.d == 0 {
            base
        } else {
            let last = data.n_features() - 1;
            base.into_iter()
                .enumerate()
                .map(|(r, delta)| data.features()[(r, last)] + delta)
                .collect()
        })
    }

    fn clone_box(&self) -> BoxedEstimator {
        Box::new(ArForecaster { d: self.d, coef: None })
    }
}

/// Seasonal-naive model: predicts the value one season back
/// (`lag = period`), a stronger baseline than persistence on periodic data.
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
    fitted: bool,
}

impl SeasonalNaive {
    /// Creates the model with the given seasonal period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "period must be positive");
        SeasonalNaive { period, fitted: false }
    }
}

impl Estimator for SeasonalNaive {
    fn name(&self) -> &str {
        "seasonal_naive"
    }

    fn task(&self) -> TaskKind {
        TaskKind::Forecasting
    }

    fn set_param(&mut self, param: &str, value: ParamValue) -> Result<(), ComponentError> {
        match param {
            "period" => {
                self.period = value.as_usize().filter(|&p| p > 0).ok_or_else(|| {
                    ComponentError::InvalidParam {
                        component: "seasonal_naive".to_string(),
                        param: param.to_string(),
                        reason: "must be a positive integer".to_string(),
                    }
                })?;
                Ok(())
            }
            _ => Err(ComponentError::UnknownParam {
                component: self.name().to_string(),
                param: param.to_string(),
            }),
        }
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), ComponentError> {
        if data.n_features() < self.period {
            return Err(ComponentError::InvalidInput(format!(
                "history window {} shorter than seasonal period {}",
                data.n_features(),
                self.period
            )));
        }
        self.fitted = true;
        Ok(())
    }

    fn predict(&self, data: &Dataset) -> Result<Vec<f64>, ComponentError> {
        if !self.fitted {
            return Err(ComponentError::NotFitted(self.name().to_string()));
        }
        if data.n_features() < self.period {
            return Err(ComponentError::InvalidInput(
                "history window shorter than seasonal period".to_string(),
            ));
        }
        // the value `period` steps before the label is lag column p - period
        let col = data.n_features() - self.period;
        Ok(data.features().col(col))
    }

    fn clone_box(&self) -> BoxedEstimator {
        Box::new(SeasonalNaive::new(self.period))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesData;
    use crate::window::{TsAsIs, WindowConfig};
    use coda_data::{metrics, synth, Transformer};

    fn lagged(series: Vec<f64>, p: usize) -> Dataset {
        let ds = SeriesData::univariate(series).to_dataset();
        TsAsIs::new(WindowConfig::new(p, 1)).fit_transform(&ds).unwrap()
    }

    #[test]
    fn zero_model_is_persistence() {
        let ds = lagged((0..20).map(|i| i as f64).collect(), 4);
        let mut z = ZeroModel::new();
        z.fit(&ds).unwrap();
        let pred = z.predict(&ds).unwrap();
        // predicting "previous value" on a +1 ramp gives constant error 1
        let err = metrics::mae(ds.target().unwrap(), &pred).unwrap();
        assert!((err - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_model_optimal_on_random_walk() {
        let walk = synth::random_walk(500, 1.0, 11);
        let ds = lagged(walk, 5);
        let (train, test) = ds.chronological_split(0.3);
        let mut z = ZeroModel::new();
        z.fit(&train).unwrap();
        let zero_rmse = metrics::rmse(test.target().unwrap(), &z.predict(&test).unwrap()).unwrap();
        // the best achievable RMSE on a unit random walk is ~1 (the step std)
        assert!(zero_rmse < 1.3, "zero rmse {zero_rmse}");
    }

    #[test]
    fn ar_recovers_ar2_process() {
        let series = synth::ar2_series(800, 0.6, 0.2, 0.5, 12);
        let ds = lagged(series, 4);
        let (train, test) = ds.chronological_split(0.25);
        let mut ar = ArForecaster::new();
        ar.fit(&train).unwrap();
        let ar_rmse = metrics::rmse(test.target().unwrap(), &ar.predict(&test).unwrap()).unwrap();
        let mut z = ZeroModel::new();
        z.fit(&train).unwrap();
        let zero_rmse = metrics::rmse(test.target().unwrap(), &z.predict(&test).unwrap()).unwrap();
        assert!(
            ar_rmse < zero_rmse,
            "AR ({ar_rmse:.3}) must beat persistence ({zero_rmse:.3}) on an AR(2) process"
        );
    }

    #[test]
    fn differenced_ar_handles_trend() {
        let series: Vec<f64> = (0..300).map(|i| 0.5 * i as f64).collect();
        let ds = lagged(series, 4);
        let (train, test) = ds.chronological_split(0.3);
        let mut ari = ArForecaster::differenced();
        ari.fit(&train).unwrap();
        let rmse = metrics::rmse(test.target().unwrap(), &ari.predict(&test).unwrap()).unwrap();
        assert!(rmse < 0.01, "pure trend is perfectly predictable from diffs, rmse {rmse}");
    }

    #[test]
    fn seasonal_naive_beats_zero_on_periodic_data() {
        let series: Vec<f64> =
            (0..400).map(|i| (2.0 * std::f64::consts::PI * i as f64 / 12.0).sin() * 5.0).collect();
        let ds = lagged(series, 24);
        let (train, test) = ds.chronological_split(0.3);
        let mut sn = SeasonalNaive::new(12);
        sn.fit(&train).unwrap();
        let sn_rmse = metrics::rmse(test.target().unwrap(), &sn.predict(&test).unwrap()).unwrap();
        let mut z = ZeroModel::new();
        z.fit(&train).unwrap();
        let z_rmse = metrics::rmse(test.target().unwrap(), &z.predict(&test).unwrap()).unwrap();
        assert!(sn_rmse < z_rmse / 2.0, "seasonal {sn_rmse} vs zero {z_rmse}");
    }

    #[test]
    fn errors_and_params() {
        let ds = lagged((0..30).map(|i| i as f64).collect(), 3);
        assert!(ZeroModel::new().predict(&ds).is_err());
        assert!(ArForecaster::new().predict(&ds).is_err());
        assert!(SeasonalNaive::new(5).fit(&ds).is_err()); // period > window
        let mut ar = ArForecaster::new();
        ar.set_param("d", ParamValue::from(1usize)).unwrap();
        assert_eq!(ar.name(), "ari_forecaster");
        assert!(ar.set_param("d", ParamValue::from(2usize)).is_err());
        let mut sn = SeasonalNaive::new(2);
        sn.set_param("period", ParamValue::from(3usize)).unwrap();
        assert!(sn.set_param("period", ParamValue::from(0usize)).is_err());
    }

    #[test]
    fn tasks_are_forecasting() {
        assert_eq!(ZeroModel::new().task(), TaskKind::Forecasting);
        assert_eq!(ArForecaster::new().task(), TaskKind::Forecasting);
        assert_eq!(SeasonalNaive::new(2).task(), TaskKind::Forecasting);
    }
}
