//! Root Cause Analysis: "a better understanding into the statistical
//! reasons for favourable and unfavourable outcomes" (§IV-E), with the
//! interpretability features §II demands: factor ranking (root-cause),
//! sensitivity analysis, and what-if/intervention estimates.

use coda_data::{Dataset, Estimator};
use coda_linalg::stats;
use coda_ml::{DecisionTreeRegressor, LinearRegression, RandomForestRegressor};

use crate::TemplateError;

/// One analyzed factor.
#[derive(Debug, Clone)]
pub struct FactorEffect {
    /// Factor (feature) name.
    pub name: String,
    /// Normalized importance (forest impurity decrease), in `[0, 1]`.
    pub importance: f64,
    /// Linear coefficient on standardized inputs — sign gives the direction
    /// of effect, magnitude the per-σ sensitivity.
    pub sensitivity_per_sigma: f64,
    /// Pearson correlation with the outcome.
    pub correlation: f64,
}

/// Result of a root-cause run.
#[derive(Debug, Clone)]
pub struct RootCauseReport {
    /// Factors ranked by importance, most causal first.
    pub factors: Vec<FactorEffect>,
    /// Training R² of the forest surrogate (how much of the outcome the
    /// factors explain at all).
    pub explained_r2: f64,
    /// The outcome described as simple if-then rules (§II: "can it be
    /// described using simple rules?") from a shallow tree surrogate.
    pub rules: Vec<String>,
}

impl RootCauseReport {
    /// The top-k factor names.
    pub fn top_factors(&self, k: usize) -> Vec<&str> {
        self.factors.iter().take(k).map(|f| f.name.as_str()).collect()
    }

    /// What-if estimate: predicted outcome change if `factor` moves by
    /// `delta_sigmas` standard deviations (linear sensitivity model).
    pub fn what_if(&self, factor: &str, delta_sigmas: f64) -> Option<f64> {
        self.factors
            .iter()
            .find(|f| f.name == factor)
            .map(|f| f.sensitivity_per_sigma * delta_sigmas)
    }

    /// Intervention suggestion: how many sigmas to move `factor` to shift
    /// the outcome by `desired_change` (None when the factor has ~zero
    /// sensitivity).
    pub fn intervention(&self, factor: &str, desired_change: f64) -> Option<f64> {
        self.factors.iter().find(|f| f.name == factor).and_then(|f| {
            if f.sensitivity_per_sigma.abs() < 1e-9 {
                None
            } else {
                Some(desired_change / f.sensitivity_per_sigma)
            }
        })
    }
}

/// The Root Cause Analysis template.
#[derive(Debug, Clone)]
pub struct RootCauseAnalysis {
    forest_trees: usize,
}

impl RootCauseAnalysis {
    /// Creates the template.
    pub fn new() -> Self {
        RootCauseAnalysis { forest_trees: 30 }
    }

    /// Lighter settings for quick runs.
    pub fn with_fast_settings(mut self) -> Self {
        self.forest_trees = 8;
        self
    }

    /// Runs RCA on outcome-labeled process data.
    ///
    /// # Errors
    ///
    /// [`TemplateError::InvalidData`] without a target;
    /// [`TemplateError::Evaluation`] if the surrogates fail to fit.
    pub fn run(&self, data: &Dataset) -> Result<RootCauseReport, TemplateError> {
        let y = data
            .target()
            .ok_or_else(|| TemplateError::InvalidData("outcome column required".to_string()))?;
        // nonlinear surrogate for importance + explained variance
        let mut forest = RandomForestRegressor::new(self.forest_trees);
        forest.fit(data).map_err(|e| TemplateError::Evaluation(e.to_string()))?;
        let pred = forest.predict(data).map_err(|e| TemplateError::Evaluation(e.to_string()))?;
        let explained_r2 = coda_data::metrics::r2(y, &pred)
            .map_err(|e| TemplateError::Evaluation(e.to_string()))?;
        let importances = forest.feature_importances().unwrap_or_default();
        // linear surrogate on standardized features for signed sensitivity
        use coda_data::Transformer;
        let mut scaler = coda_ml::StandardScaler::new();
        let standardized =
            scaler.fit_transform(data).map_err(|e| TemplateError::Evaluation(e.to_string()))?;
        let mut linear = LinearRegression::new();
        let coefs: Vec<f64> = match linear.fit(&standardized) {
            Ok(()) => linear.coefficients().map(|c| c[1..].to_vec()),
            // collinear designs: fall back to ridge
            Err(_) => {
                let mut ridge = coda_ml::RidgeRegression::new(1.0);
                ridge.fit(&standardized).map_err(|e| TemplateError::Evaluation(e.to_string()))?;
                ridge.coefficients().map(|c| c[1..].to_vec())
            }
        }
        .ok_or_else(|| {
            TemplateError::Evaluation("linear surrogate has no coefficients".to_string())
        })?;
        // simple-rules surrogate: a depth-3 tree over the same factors
        let mut rule_tree = DecisionTreeRegressor::new().with_max_depth(3);
        rule_tree.fit(data).map_err(|e| TemplateError::Evaluation(e.to_string()))?;
        let rules = rule_tree.rules(data.feature_names()).unwrap_or_default();
        let mut factors: Vec<FactorEffect> = data
            .feature_names()
            .iter()
            .enumerate()
            .map(|(i, name)| FactorEffect {
                name: name.clone(),
                importance: importances.get(i).copied().unwrap_or(0.0),
                sensitivity_per_sigma: coefs.get(i).copied().unwrap_or(0.0),
                correlation: stats::pearson(&data.features().col(i), y),
            })
            .collect();
        factors.sort_by(|a, b| {
            b.importance.partial_cmp(&a.importance).unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(RootCauseReport { factors, explained_r2, rules })
    }
}

impl Default for RootCauseAnalysis {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_data::synth;

    #[test]
    fn recovers_known_causal_factors() {
        let (data, causal) = synth::root_cause_data(400, 8, 3, 51);
        let report = RootCauseAnalysis::new().with_fast_settings().run(&data).unwrap();
        assert!(report.explained_r2 > 0.8, "r2 = {}", report.explained_r2);
        let top: Vec<String> = report.top_factors(3).into_iter().map(str::to_string).collect();
        for c in &causal {
            let name = format!("x{c}");
            assert!(top.contains(&name), "causal factor {name} missing from top-3 {top:?}");
        }
    }

    #[test]
    fn sensitivity_signs_match_construction() {
        // root_cause_data uses positive weights on causal factors
        let (data, causal) = synth::root_cause_data(300, 6, 2, 52);
        let report = RootCauseAnalysis::new().with_fast_settings().run(&data).unwrap();
        for c in &causal {
            let name = format!("x{c}");
            let f = report.factors.iter().find(|f| f.name == name).unwrap();
            assert!(f.sensitivity_per_sigma > 0.0, "{name} sensitivity should be positive");
            assert!(f.correlation > 0.0);
        }
    }

    #[test]
    fn what_if_and_intervention_are_inverse() {
        let (data, causal) = synth::root_cause_data(300, 5, 2, 53);
        let report = RootCauseAnalysis::new().with_fast_settings().run(&data).unwrap();
        let name = format!("x{}", causal[0]);
        let effect = report.what_if(&name, 2.0).unwrap();
        let sigmas = report.intervention(&name, effect).unwrap();
        assert!((sigmas - 2.0).abs() < 1e-9);
        assert!(report.what_if("nonexistent", 1.0).is_none());
    }

    #[test]
    fn zero_sensitivity_factor_has_no_intervention() {
        let (data, causal) = synth::root_cause_data(500, 6, 1, 54);
        let report = RootCauseAnalysis::new().with_fast_settings().run(&data).unwrap();
        // a pure-noise factor: tiny sensitivity -> intervention may still
        // exist numerically, but a causal one must dominate it
        let causal_name = format!("x{}", causal[0]);
        let noise_idx = (0..6).find(|i| !causal.contains(i)).unwrap();
        let noise_name = format!("x{noise_idx}");
        let c = report.factors.iter().find(|f| f.name == causal_name).unwrap();
        let n = report.factors.iter().find(|f| f.name == noise_name).unwrap();
        assert!(c.sensitivity_per_sigma.abs() > 10.0 * n.sensitivity_per_sigma.abs());
    }

    #[test]
    fn rules_mention_a_causal_factor() {
        let (data, causal) = synth::root_cause_data(400, 6, 2, 55);
        let report = RootCauseAnalysis::new().with_fast_settings().run(&data).unwrap();
        assert!(!report.rules.is_empty());
        assert!(report.rules.len() <= 8, "depth-3 surrogate");
        let causal_names: Vec<String> = causal.iter().map(|c| format!("x{c}")).collect();
        assert!(
            report.rules.iter().any(|r| causal_names.iter().any(|n| r.contains(n.as_str()))),
            "rules must reference a causal factor: {:?}",
            report.rules
        );
    }

    #[test]
    fn requires_target() {
        let bare = coda_data::Dataset::new(coda_linalg::Matrix::zeros(10, 3));
        assert!(matches!(RootCauseAnalysis::new().run(&bare), Err(TemplateError::InvalidData(_))));
    }
}
