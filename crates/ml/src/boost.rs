//! Gradient boosting for regression (the "gradient boosting" of §III):
//! stage-wise fitting of shallow regression trees to residuals.

use coda_data::{BoxedEstimator, ComponentError, Dataset, Estimator, ParamValue, TaskKind};

use crate::tree::DecisionTreeRegressor;

/// Gradient-boosted regression trees with squared-error loss.
///
/// # Examples
///
/// ```
/// use coda_data::{synth, Estimator};
/// use coda_ml::GradientBoostingRegressor;
///
/// let ds = synth::friedman1(300, 5, 0.3, 6);
/// let mut gb = GradientBoostingRegressor::new(50, 0.1);
/// gb.fit(&ds)?;
/// let r2 = coda_data::metrics::r2(ds.target().unwrap(), &gb.predict(&ds)?)?;
/// assert!(r2 > 0.8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GradientBoostingRegressor {
    n_stages: usize,
    learning_rate: f64,
    max_depth: usize,
    base: f64,
    stages: Vec<DecisionTreeRegressor>,
    n_features: usize,
}

impl GradientBoostingRegressor {
    /// Creates a booster with `n_stages` trees and the given learning rate
    /// (per-tree depth limit 3).
    ///
    /// # Panics
    ///
    /// Panics if `n_stages == 0` or `learning_rate <= 0`.
    pub fn new(n_stages: usize, learning_rate: f64) -> Self {
        assert!(n_stages > 0, "n_stages must be positive");
        assert!(learning_rate > 0.0, "learning_rate must be positive");
        GradientBoostingRegressor {
            n_stages,
            learning_rate,
            max_depth: 3,
            base: 0.0,
            stages: Vec::new(),
            n_features: 0,
        }
    }

    /// Sets the per-stage tree depth.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// Number of fitted stages.
    pub fn n_fitted_stages(&self) -> usize {
        self.stages.len()
    }

    /// Training-set predictions after each stage — exposes the staged fit so
    /// callers can pick an early-stopping point (C-INTERMEDIATE).
    ///
    /// # Errors
    ///
    /// [`ComponentError::NotFitted`] before fitting.
    pub fn staged_predict(&self, data: &Dataset) -> Result<Vec<Vec<f64>>, ComponentError> {
        if self.stages.is_empty() {
            return Err(ComponentError::NotFitted(self.name().to_string()));
        }
        let mut acc = vec![self.base; data.n_samples()];
        let mut out = Vec::with_capacity(self.stages.len());
        for tree in &self.stages {
            let p = tree.predict(data)?;
            for (a, v) in acc.iter_mut().zip(p) {
                *a += self.learning_rate * v;
            }
            out.push(acc.clone());
        }
        Ok(out)
    }
}

impl Estimator for GradientBoostingRegressor {
    fn name(&self) -> &str {
        "gradient_boosting_regressor"
    }

    fn task(&self) -> TaskKind {
        TaskKind::Regression
    }

    fn set_param(&mut self, param: &str, value: ParamValue) -> Result<(), ComponentError> {
        match param {
            "n_stages" | "n_estimators" => {
                self.n_stages = value.as_usize().filter(|&x| x > 0).ok_or_else(|| {
                    ComponentError::InvalidParam {
                        component: self.name().to_string(),
                        param: param.to_string(),
                        reason: "must be a positive integer".to_string(),
                    }
                })?;
                Ok(())
            }
            "learning_rate" => {
                self.learning_rate = value.as_f64().filter(|&x| x > 0.0).ok_or_else(|| {
                    ComponentError::InvalidParam {
                        component: self.name().to_string(),
                        param: param.to_string(),
                        reason: "must be positive".to_string(),
                    }
                })?;
                Ok(())
            }
            "max_depth" => {
                self.max_depth = value.as_usize().filter(|&x| x > 0).ok_or_else(|| {
                    ComponentError::InvalidParam {
                        component: self.name().to_string(),
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
        let y = data.target_required()?.to_vec();
        if data.n_samples() == 0 {
            return Err(ComponentError::InvalidInput("empty dataset".to_string()));
        }
        self.base = coda_linalg::mean(&y);
        self.n_features = data.n_features();
        self.stages.clear();
        let mut residual: Vec<f64> = y.iter().map(|v| v - self.base).collect();
        for _ in 0..self.n_stages {
            let mut tree = DecisionTreeRegressor::new().with_max_depth(self.max_depth);
            tree.fit_xy(data.features(), &residual);
            let pred = tree.predict_x(data.features())?;
            for (r, p) in residual.iter_mut().zip(&pred) {
                *r -= self.learning_rate * p;
            }
            self.stages.push(tree);
        }
        Ok(())
    }

    fn predict(&self, data: &Dataset) -> Result<Vec<f64>, ComponentError> {
        if self.stages.is_empty() {
            return Err(ComponentError::NotFitted(self.name().to_string()));
        }
        let mut acc = vec![self.base; data.n_samples()];
        for tree in &self.stages {
            let p = tree.predict(data)?;
            for (a, v) in acc.iter_mut().zip(p) {
                *a += self.learning_rate * v;
            }
        }
        Ok(acc)
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        if self.stages.is_empty() {
            return None;
        }
        let mut acc = vec![0.0; self.n_features];
        for t in &self.stages {
            if let Some(imp) = t.feature_importances() {
                for (a, v) in acc.iter_mut().zip(imp) {
                    *a += v;
                }
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            acc.iter_mut().for_each(|v| *v /= total);
        }
        Some(acc)
    }

    fn clone_box(&self) -> BoxedEstimator {
        let mut fresh = GradientBoostingRegressor::new(self.n_stages, self.learning_rate);
        fresh.max_depth = self.max_depth;
        Box::new(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_data::{metrics, synth};

    #[test]
    fn training_error_decreases_with_stages() {
        let ds = synth::friedman1(300, 5, 0.3, 51);
        let mut gb = GradientBoostingRegressor::new(40, 0.1);
        gb.fit(&ds).unwrap();
        let staged = gb.staged_predict(&ds).unwrap();
        let first = metrics::mse(ds.target().unwrap(), &staged[0]).unwrap();
        let last = metrics::mse(ds.target().unwrap(), staged.last().unwrap()).unwrap();
        assert!(last < first / 2.0, "boosting must reduce training error");
        // error is monotone nonincreasing for squared loss with small lr
        let mut prev = f64::INFINITY;
        for s in &staged {
            let m = metrics::mse(ds.target().unwrap(), s).unwrap();
            assert!(m <= prev + 1e-9);
            prev = m;
        }
    }

    #[test]
    fn beats_single_shallow_tree() {
        let ds = synth::friedman1(600, 5, 0.5, 52);
        let (train, test) = ds.train_test_split(0.3, 9);
        let mut stump = DecisionTreeRegressor::new().with_max_depth(3);
        stump.fit(&train).unwrap();
        let stump_r2 = metrics::r2(test.target().unwrap(), &stump.predict(&test).unwrap()).unwrap();
        let mut gb = GradientBoostingRegressor::new(80, 0.1);
        gb.fit(&train).unwrap();
        let gb_r2 = metrics::r2(test.target().unwrap(), &gb.predict(&test).unwrap()).unwrap();
        assert!(gb_r2 > stump_r2 + 0.05, "gb={gb_r2:.3} stump={stump_r2:.3}");
    }

    #[test]
    fn constant_target_predicts_constant() {
        let base = synth::linear_regression(50, 2, 0.0, 53);
        let ds =
            coda_data::Dataset::new(base.features().clone()).with_target(vec![3.0; 50]).unwrap();
        let mut gb = GradientBoostingRegressor::new(10, 0.5);
        gb.fit(&ds).unwrap();
        assert!(gb.predict(&ds).unwrap().iter().all(|p| (p - 3.0).abs() < 1e-9));
    }

    #[test]
    fn params_and_errors() {
        let mut gb = GradientBoostingRegressor::new(10, 0.1);
        gb.set_param("n_estimators", ParamValue::from(20usize)).unwrap();
        gb.set_param("learning_rate", ParamValue::from(0.05)).unwrap();
        gb.set_param("max_depth", ParamValue::from(2usize)).unwrap();
        assert!(gb.set_param("learning_rate", ParamValue::from(0.0)).is_err());
        assert!(gb.set_param("zzz", ParamValue::from(1usize)).is_err());
        let ds = synth::friedman1(30, 5, 0.1, 54);
        assert!(GradientBoostingRegressor::new(5, 0.1).predict(&ds).is_err());
        assert!(GradientBoostingRegressor::new(5, 0.1).staged_predict(&ds).is_err());
    }

    #[test]
    fn importances_normalized() {
        let ds = synth::friedman1(200, 6, 0.3, 55);
        let mut gb = GradientBoostingRegressor::new(20, 0.1);
        gb.fit(&ds).unwrap();
        let imp = gb.feature_importances().unwrap();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
