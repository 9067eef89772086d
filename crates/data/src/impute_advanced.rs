//! Advanced imputation (§III names "multiple imputation by chained
//! equations" and "matrix factorization" among the fixed imputation
//! techniques): an iterative chained-equations imputer with ridge
//! regressions, and a rank-k ALS matrix-factorization imputer.

use crate::dataset::Dataset;
use crate::traits::{BoxedTransformer, ComponentError, ParamValue, Transformer};
use coda_linalg::Matrix;

/// Solves the small ridge system `(XᵀX + λI) w = Xᵀy` for one chained
/// regression; `x` rows are predictors (with intercept prepended by caller).
fn ridge_solve(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>, ComponentError> {
    let mut gram = x.gram();
    let scale = gram.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda * scale.max(1e-12);
    }
    x.transpose()
        .matvec(y)
        .and_then(|xty| coda_linalg::decomp::cholesky_solve(&gram, &xty))
        .map_err(|e| ComponentError::Numerical(format!("chained ridge failed: {e}")))
}

/// Multiple-imputation-by-chained-equations style imputer: missing cells are
/// initialized at column means, then each incomplete column is repeatedly
/// regressed (ridge) on all other columns and its missing cells refreshed,
/// for a fixed number of sweeps.
///
/// # Examples
///
/// ```
/// use coda_data::impute_advanced::IterativeImputer;
/// use coda_data::{synth, Transformer};
///
/// let ds = synth::linear_regression(100, 4, 0.1, 5);
/// let holed = synth::inject_missing(&ds, 0.1, 6);
/// let mut imp = IterativeImputer::new(5);
/// let filled = imp.fit_transform(&holed)?;
/// assert!(!filled.has_missing());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct IterativeImputer {
    sweeps: usize,
    lambda: f64,
    /// Fitted per-column regressions: `coef[c]` = [intercept, w over other
    /// columns in ascending order], or None for complete columns.
    models: Option<Vec<Option<Vec<f64>>>>,
    means: Option<Vec<f64>>,
}

impl IterativeImputer {
    /// Creates an imputer running `sweeps` chained passes (ridge 1e-3).
    ///
    /// # Panics
    ///
    /// Panics if `sweeps == 0`.
    pub fn new(sweeps: usize) -> Self {
        assert!(sweeps > 0, "sweeps must be positive");
        IterativeImputer { sweeps, lambda: 1e-3, models: None, means: None }
    }

    /// Runs the chained sweeps on `x` in place; returns per-column models.
    fn chained_fill(
        &self,
        x: &mut Matrix,
        missing: &[Vec<usize>],
        means: &[f64],
    ) -> Result<Vec<Option<Vec<f64>>>, ComponentError> {
        let d = x.cols();
        // mean initialization
        for (c, rows) in missing.iter().enumerate() {
            for &r in rows {
                x[(r, c)] = means[c];
            }
        }
        let mut models: Vec<Option<Vec<f64>>> = vec![None; d];
        for _ in 0..self.sweeps {
            for c in 0..d {
                if missing[c].is_empty() {
                    continue;
                }
                // design: intercept + all other columns, over rows where c
                // was OBSERVED
                let observed: Vec<usize> =
                    (0..x.rows()).filter(|r| !missing[c].contains(r)).collect();
                if observed.len() < d {
                    continue; // not enough rows to regress; keep means
                }
                let mut design = Matrix::zeros(observed.len(), d);
                let mut target = Vec::with_capacity(observed.len());
                for (i, &r) in observed.iter().enumerate() {
                    design[(i, 0)] = 1.0;
                    let mut j = 1;
                    for cc in 0..d {
                        if cc != c {
                            design[(i, j)] = x[(r, cc)];
                            j += 1;
                        }
                    }
                    target.push(x[(r, c)]);
                }
                let coef = ridge_solve(&design, &target, self.lambda)?;
                // refresh the missing cells
                for &r in &missing[c] {
                    let mut pred = coef[0];
                    let mut j = 1;
                    for cc in 0..d {
                        if cc != c {
                            pred += coef[j] * x[(r, cc)];
                            j += 1;
                        }
                    }
                    x[(r, c)] = pred;
                }
                models[c] = Some(coef);
            }
        }
        Ok(models)
    }
}

impl Transformer for IterativeImputer {
    fn name(&self) -> &str {
        "iterative_imputer"
    }

    fn set_param(&mut self, param: &str, value: ParamValue) -> Result<(), ComponentError> {
        match param {
            "sweeps" => {
                self.sweeps = value.as_usize().filter(|&s| s > 0).ok_or_else(|| {
                    ComponentError::InvalidParam {
                        component: "iterative_imputer".to_string(),
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
        let x0 = data.features();
        if x0.rows() == 0 {
            return Err(ComponentError::InvalidInput("empty dataset".to_string()));
        }
        let d = x0.cols();
        let mut means = Vec::with_capacity(d);
        let mut missing: Vec<Vec<usize>> = vec![Vec::new(); d];
        for (c, slots) in missing.iter_mut().enumerate() {
            let col = x0.col(c);
            let observed: Vec<f64> = col.iter().copied().filter(|v| !v.is_nan()).collect();
            if observed.is_empty() {
                return Err(ComponentError::InvalidInput(format!(
                    "column {c} has no observed values"
                )));
            }
            means.push(coda_linalg::mean(&observed));
            for (r, v) in col.iter().enumerate() {
                if v.is_nan() {
                    slots.push(r);
                }
            }
        }
        let mut x = x0.clone();
        let models = self.chained_fill(&mut x, &missing, &means)?;
        self.models = Some(models);
        self.means = Some(means);
        Ok(())
    }

    fn transform(&self, data: &Dataset) -> Result<Dataset, ComponentError> {
        let (models, means) = match (&self.models, &self.means) {
            (Some(m), Some(mu)) => (m, mu),
            _ => return Err(ComponentError::NotFitted(self.name().to_string())),
        };
        if means.len() != data.n_features() {
            return Err(ComponentError::InvalidInput(format!(
                "imputer fitted on {} features, input has {}",
                means.len(),
                data.n_features()
            )));
        }
        let d = data.n_features();
        let mut x = data.features().clone();
        // mean-fill first so chained predictions have complete predictors
        let mut missing_cells: Vec<(usize, usize)> = Vec::new();
        for r in 0..x.rows() {
            for c in 0..d {
                if x[(r, c)].is_nan() {
                    x[(r, c)] = means[c];
                    missing_cells.push((r, c));
                }
            }
        }
        // one refinement pass with the fitted models
        for &(r, c) in &missing_cells {
            if let Some(coef) = &models[c] {
                let mut pred = coef[0];
                let mut j = 1;
                for cc in 0..d {
                    if cc != c {
                        pred += coef[j] * x[(r, cc)];
                        j += 1;
                    }
                }
                x[(r, c)] = pred;
            }
        }
        Ok(data.replace_features(x))
    }

    fn clone_box(&self) -> BoxedTransformer {
        Box::new(IterativeImputer::new(self.sweeps))
    }
}

/// Rank-k matrix-factorization imputer: alternating least squares on the
/// observed cells, missing cells filled from the low-rank reconstruction.
#[derive(Debug, Clone)]
pub struct MatrixFactorizationImputer {
    rank: usize,
    iters: usize,
    lambda: f64,
    fitted: bool,
}

impl MatrixFactorizationImputer {
    /// Creates an ALS imputer of the given rank (20 iterations, λ = 0.1).
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`.
    pub fn new(rank: usize) -> Self {
        assert!(rank > 0, "rank must be positive");
        MatrixFactorizationImputer { rank, iters: 20, lambda: 0.1, fitted: false }
    }

    /// ALS on the observed cells of `x`; returns the reconstruction.
    fn reconstruct(&self, x: &Matrix) -> Result<Matrix, ComponentError> {
        let (n, d) = x.shape();
        let k = self.rank.min(d).min(n);
        // deterministic init
        let mut u = Matrix::zeros(n, k);
        let mut v = Matrix::zeros(d, k);
        for (i, val) in u.as_mut_slice().iter_mut().enumerate() {
            *val = (((i as u64).wrapping_mul(2654435761) >> 16) % 1000) as f64 / 1000.0 - 0.5;
        }
        for (i, val) in v.as_mut_slice().iter_mut().enumerate() {
            *val = (((i as u64 + 77).wrapping_mul(2654435761) >> 16) % 1000) as f64 / 1000.0 - 0.5;
        }
        let observed: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|r| {
                let x = &x;
                (0..d).filter_map(move |c| {
                    let val = x[(r, c)];
                    if val.is_nan() {
                        None
                    } else {
                        Some((r, c, val))
                    }
                })
            })
            .collect();
        if observed.is_empty() {
            return Err(ComponentError::InvalidInput("no observed cells".to_string()));
        }
        for _ in 0..self.iters {
            // solve each row of U against fixed V over its observed columns
            for r in 0..n {
                let cols: Vec<(usize, f64)> = observed
                    .iter()
                    .filter(|(rr, _, _)| *rr == r)
                    .map(|(_, c, val)| (*c, *val))
                    .collect();
                if cols.is_empty() {
                    continue;
                }
                let mut design = Matrix::zeros(cols.len(), k);
                let mut target = Vec::with_capacity(cols.len());
                for (i, (c, val)) in cols.iter().enumerate() {
                    design.row_mut(i).copy_from_slice(v.row(*c));
                    target.push(*val);
                }
                let w = ridge_solve(&design, &target, self.lambda)?;
                u.row_mut(r).copy_from_slice(&w);
            }
            // solve each row of V against fixed U over its observed rows
            for c in 0..d {
                let rows: Vec<(usize, f64)> = observed
                    .iter()
                    .filter(|(_, cc, _)| *cc == c)
                    .map(|(r, _, val)| (*r, *val))
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                let mut design = Matrix::zeros(rows.len(), k);
                let mut target = Vec::with_capacity(rows.len());
                for (i, (r, val)) in rows.iter().enumerate() {
                    design.row_mut(i).copy_from_slice(u.row(*r));
                    target.push(*val);
                }
                let w = ridge_solve(&design, &target, self.lambda)?;
                v.row_mut(c).copy_from_slice(&w);
            }
        }
        u.matmul(&v.transpose()).map_err(|e| ComponentError::Numerical(e.to_string()))
    }
}

impl Transformer for MatrixFactorizationImputer {
    fn name(&self) -> &str {
        "matrix_factorization_imputer"
    }

    fn set_param(&mut self, param: &str, value: ParamValue) -> Result<(), ComponentError> {
        match param {
            "rank" => {
                self.rank = value.as_usize().filter(|&r| r > 0).ok_or_else(|| {
                    ComponentError::InvalidParam {
                        component: self.name().to_string(),
                        param: param.to_string(),
                        reason: "must be a positive integer".to_string(),
                    }
                })?;
                Ok(())
            }
            "iters" => {
                self.iters = value.as_usize().filter(|&i| i > 0).ok_or_else(|| {
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
        if data.n_samples() == 0 {
            return Err(ComponentError::InvalidInput("empty dataset".to_string()));
        }
        self.fitted = true;
        Ok(())
    }

    fn transform(&self, data: &Dataset) -> Result<Dataset, ComponentError> {
        if !self.fitted {
            return Err(ComponentError::NotFitted(self.name().to_string()));
        }
        if !data.has_missing() {
            return Ok(data.clone());
        }
        let recon = self.reconstruct(data.features())?;
        let mut x = data.features().clone();
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                if x[(r, c)].is_nan() {
                    x[(r, c)] = recon[(r, c)];
                }
            }
        }
        Ok(data.replace_features(x))
    }

    fn clone_box(&self) -> BoxedTransformer {
        Box::new(MatrixFactorizationImputer::new(self.rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impute::{ImputeStrategy, SimpleImputer};
    use crate::synth;

    /// RMSE between imputed cells and the true (pre-hole) values.
    fn imputation_rmse(truth: &Dataset, holed: &Dataset, filled: &Dataset) -> f64 {
        let mut se = 0.0;
        let mut n = 0usize;
        for r in 0..truth.n_samples() {
            for c in 0..truth.n_features() {
                if holed.features()[(r, c)].is_nan() {
                    let d = filled.features()[(r, c)] - truth.features()[(r, c)];
                    se += d * d;
                    n += 1;
                }
            }
        }
        (se / n.max(1) as f64).sqrt()
    }

    /// Correlated data: columns are noisy multiples of a latent factor, so
    /// chained equations and low-rank structure both apply.
    fn correlated(n: usize, seed: u64) -> Dataset {
        let base = synth::linear_regression(n, 1, 0.0, seed);
        let latent = base.features().col(0);
        let mut x = Matrix::zeros(n, 4);
        for (r, &l) in latent.iter().enumerate() {
            x[(r, 0)] = l;
            x[(r, 1)] = 2.0 * l + 0.05 * ((r * 13 % 17) as f64 / 17.0 - 0.5);
            x[(r, 2)] = -1.5 * l + 0.05 * ((r * 7 % 23) as f64 / 23.0 - 0.5);
            x[(r, 3)] = 0.5 * l + 0.05 * ((r * 11 % 19) as f64 / 19.0 - 0.5);
        }
        Dataset::new(x)
    }

    #[test]
    fn iterative_beats_mean_on_correlated_data() {
        let truth = correlated(200, 91);
        let holed = synth::inject_missing(&truth, 0.15, 92);
        let mut mice = IterativeImputer::new(5);
        let mice_filled = mice.fit_transform(&holed).unwrap();
        let mut mean = SimpleImputer::new(ImputeStrategy::Mean);
        let mean_filled = mean.fit_transform(&holed).unwrap();
        let mice_err = imputation_rmse(&truth, &holed, &mice_filled);
        let mean_err = imputation_rmse(&truth, &holed, &mean_filled);
        assert!(
            mice_err < mean_err / 3.0,
            "chained ({mice_err:.4}) must be far below mean ({mean_err:.4})"
        );
        assert!(!mice_filled.has_missing());
    }

    #[test]
    fn matrix_factorization_beats_mean_on_low_rank_data() {
        let truth = correlated(150, 93);
        let holed = synth::inject_missing(&truth, 0.2, 94);
        let mut mf = MatrixFactorizationImputer::new(1);
        mf.fit(&holed).unwrap();
        let mf_filled = mf.transform(&holed).unwrap();
        let mut mean = SimpleImputer::new(ImputeStrategy::Mean);
        let mean_filled = mean.fit_transform(&holed).unwrap();
        let mf_err = imputation_rmse(&truth, &holed, &mf_filled);
        let mean_err = imputation_rmse(&truth, &holed, &mean_filled);
        assert!(
            mf_err < mean_err / 2.0,
            "rank-1 ALS ({mf_err:.4}) must be far below mean ({mean_err:.4})"
        );
        assert!(!mf_filled.has_missing());
    }

    #[test]
    fn iterative_transform_applies_to_new_data() {
        let truth = correlated(120, 95);
        let holed = synth::inject_missing(&truth, 0.1, 96);
        let mut mice = IterativeImputer::new(3);
        mice.fit(&holed).unwrap();
        let new_truth = correlated(40, 97);
        let new_holed = synth::inject_missing(&new_truth, 0.1, 98);
        let filled = mice.transform(&new_holed).unwrap();
        assert!(!filled.has_missing());
        let err = imputation_rmse(&new_truth, &new_holed, &filled);
        assert!(err < 1.0, "out-of-sample imputation rmse {err}");
    }

    #[test]
    fn complete_data_untouched() {
        let ds = correlated(50, 99);
        let mut mice = IterativeImputer::new(2);
        assert_eq!(mice.fit_transform(&ds).unwrap(), ds);
        let mut mf = MatrixFactorizationImputer::new(2);
        assert_eq!(mf.fit_transform(&ds).unwrap(), ds);
    }

    #[test]
    fn errors_and_params() {
        let ds = correlated(30, 100);
        assert!(IterativeImputer::new(2).transform(&ds).is_err());
        assert!(MatrixFactorizationImputer::new(2).transform(&ds).is_err());
        let all_nan = Dataset::new(Matrix::filled(5, 2, f64::NAN));
        assert!(IterativeImputer::new(2).fit(&all_nan).is_err());
        let mut mice = IterativeImputer::new(2);
        mice.set_param("sweeps", ParamValue::from(4usize)).unwrap();
        assert!(mice.set_param("sweeps", ParamValue::from(0usize)).is_err());
        let mut mf = MatrixFactorizationImputer::new(2);
        mf.set_param("rank", ParamValue::from(3usize)).unwrap();
        mf.set_param("iters", ParamValue::from(5usize)).unwrap();
        assert!(mf.set_param("rank", ParamValue::from(0usize)).is_err());
    }
}
