//! Class-imbalance handling (§II: "Sometimes there are class imbalances —
//! e.g., rare failure cases, but many successful cases"): a random
//! oversampler usable as a graph stage.

use coda_data::{BoxedTransformer, ComponentError, Dataset, ParamValue, Transformer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Randomly oversamples minority classes during training until every class
/// reaches `target_ratio` of the majority count; prediction-time transform
/// is the identity (rows must never be fabricated at inference).
#[derive(Debug, Clone)]
pub struct RandomOversampler {
    target_ratio: f64,
    seed: u64,
    fitted: bool,
}

impl RandomOversampler {
    /// Creates an oversampler balancing classes to full parity.
    pub fn new() -> Self {
        RandomOversampler { target_ratio: 1.0, seed: 0, fitted: false }
    }

    /// Sets the minority/majority ratio to reach, in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `(0, 1]`.
    pub fn with_target_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        self.target_ratio = ratio;
        self
    }

    /// Sets the resampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for RandomOversampler {
    fn default() -> Self {
        Self::new()
    }
}

impl Transformer for RandomOversampler {
    fn name(&self) -> &str {
        "random_oversampler"
    }

    fn set_param(&mut self, param: &str, value: ParamValue) -> Result<(), ComponentError> {
        match param {
            "target_ratio" => {
                self.target_ratio =
                    value.as_f64().filter(|&r| r > 0.0 && r <= 1.0).ok_or_else(|| {
                        ComponentError::InvalidParam {
                            component: "random_oversampler".to_string(),
                            param: param.to_string(),
                            reason: "must be in (0, 1]".to_string(),
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

    fn fit(&mut self, _data: &Dataset) -> Result<(), ComponentError> {
        self.fitted = true;
        Ok(())
    }

    fn transform(&self, data: &Dataset) -> Result<Dataset, ComponentError> {
        if !self.fitted {
            return Err(ComponentError::NotFitted(self.name().to_string()));
        }
        Ok(data.clone())
    }

    fn fit_transform(&mut self, data: &Dataset) -> Result<Dataset, ComponentError> {
        self.fit(data)?;
        let y = data.target_required()?;
        let classes = data.classes()?;
        let counts: Vec<usize> =
            classes.iter().map(|c| y.iter().filter(|&&v| v == *c).count()).collect();
        let majority = *counts
            .iter()
            .max()
            .ok_or_else(|| ComponentError::InvalidInput("no classes to balance".to_string()))?;
        let target = ((majority as f64) * self.target_ratio).round() as usize;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut indices: Vec<usize> = (0..data.n_samples()).collect();
        for (class, &count) in classes.iter().zip(&counts) {
            if count >= target || count == 0 {
                continue;
            }
            let members: Vec<usize> = (0..y.len()).filter(|&i| y[i] == *class).collect();
            for _ in 0..(target - count) {
                indices.push(members[rng.gen_range(0..members.len())]);
            }
        }
        Ok(data.select(&indices))
    }

    fn clone_box(&self) -> BoxedTransformer {
        Box::new(RandomOversampler {
            target_ratio: self.target_ratio,
            seed: self.seed,
            fitted: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_data::{metrics, synth, Estimator};

    #[test]
    fn balances_to_parity() {
        let ds = synth::imbalanced_binary(1000, 3, 0.05, 81);
        let mut os = RandomOversampler::new().with_seed(1);
        let out = os.fit_transform(&ds).unwrap();
        let y = out.target().unwrap();
        let pos = y.iter().filter(|&&v| v == 1.0).count();
        let neg = y.len() - pos;
        assert_eq!(pos, neg, "classes must reach parity");
        // all original rows retained
        assert!(out.n_samples() >= ds.n_samples());
    }

    #[test]
    fn partial_ratio() {
        let ds = synth::imbalanced_binary(1000, 3, 0.05, 82);
        let mut os = RandomOversampler::new().with_target_ratio(0.5).with_seed(2);
        let out = os.fit_transform(&ds).unwrap();
        let y = out.target().unwrap();
        let pos = y.iter().filter(|&&v| v == 1.0).count() as f64;
        let neg = (y.len() - pos as usize) as f64;
        assert!((pos / neg - 0.5).abs() < 0.02, "ratio {:.3}", pos / neg);
    }

    #[test]
    fn improves_minority_recall() {
        let ds = synth::imbalanced_binary(3000, 3, 0.03, 83);
        let (train, test) = ds.train_test_split(0.3, 3);
        let fit_and_recall = |train: &Dataset| {
            let mut clf = crate::LogisticRegression::new();
            clf.fit(train).unwrap();
            let pred = clf.predict(&test).unwrap();
            metrics::recall(test.target().unwrap(), &pred, 1.0).unwrap()
        };
        let plain = fit_and_recall(&train);
        let mut os = RandomOversampler::new().with_seed(4);
        let balanced = os.fit_transform(&train).unwrap();
        let resampled = fit_and_recall(&balanced);
        assert!(
            resampled > plain + 0.1,
            "oversampling recall {resampled:.3} must clearly beat plain {plain:.3}"
        );
    }

    #[test]
    fn prediction_time_identity() {
        let ds = synth::imbalanced_binary(200, 2, 0.1, 84);
        let mut os = RandomOversampler::new();
        assert!(os.transform(&ds).is_err()); // unfitted
        os.fit_transform(&ds).unwrap();
        let passed = os.transform(&ds).unwrap();
        assert_eq!(passed.n_samples(), 200);
    }

    #[test]
    fn params() {
        let mut os = RandomOversampler::new();
        os.set_param("target_ratio", ParamValue::from(0.7)).unwrap();
        assert!(os.set_param("target_ratio", ParamValue::from(0.0)).is_err());
        assert!(os.set_param("zzz", ParamValue::from(0.1)).is_err());
    }
}
