//! k-means clustering (substrate for the Cohort Analysis solution template,
//! §IV-E).

use coda_data::{ComponentError, Dataset};
use coda_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lloyd's k-means with k-means++ initialization.
///
/// # Examples
///
/// ```
/// use coda_data::synth;
/// use coda_ml::KMeans;
///
/// let (ds, truth) = synth::cohort_data(90, 3, 4, 11);
/// let km = KMeans::new(3).with_seed(1).fit(&ds)?;
/// let labels = km.predict(&ds)?;
/// assert_eq!(labels.len(), 90);
/// # drop(truth);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iter: usize,
    seed: u64,
    restarts: usize,
    centers: Option<Matrix>,
    inertia: Option<f64>,
}

impl KMeans {
    /// Creates a k-means model with `k` clusters and 4 random restarts
    /// (the lowest-inertia run wins, like scikit-learn's `n_init`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans { k, max_iter: 100, seed: 0, restarts: 4, centers: None, inertia: None }
    }

    /// Sets the number of random restarts.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_restarts(mut self, n: usize) -> Self {
        assert!(n > 0, "restarts must be positive");
        self.restarts = n;
        self
    }

    /// Sets the initialization seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iter(mut self, n: usize) -> Self {
        self.max_iter = n.max(1);
        self
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Within-cluster sum of squared distances after fitting.
    pub fn inertia(&self) -> Option<f64> {
        self.inertia
    }

    /// Fitted cluster centres (k x d), if fitted.
    pub fn centers(&self) -> Option<&Matrix> {
        self.centers.as_ref()
    }

    /// Fits the model, consuming and returning `self` for chaining. Runs
    /// the configured number of restarts and keeps the lowest-inertia one.
    ///
    /// # Errors
    ///
    /// [`ComponentError::InvalidInput`] if there are fewer samples than
    /// clusters.
    pub fn fit(mut self, data: &Dataset) -> Result<KMeans, ComponentError> {
        let mut best: Option<(f64, Matrix)> = None;
        for r in 0..self.restarts {
            let seed = self.seed.wrapping_add(r as u64).wrapping_mul(0x9E3779B9);
            let (inertia, centers) = self.fit_once(data, seed)?;
            if best.as_ref().is_none_or(|(bi, _)| inertia < *bi) {
                best = Some((inertia, centers));
            }
        }
        let (inertia, centers) = best.ok_or_else(|| ComponentError::InvalidParam {
            component: "kmeans".to_string(),
            param: "restarts".to_string(),
            reason: "must be positive".to_string(),
        })?;
        self.inertia = Some(inertia);
        self.centers = Some(centers);
        Ok(self)
    }

    /// One Lloyd run from a seeded k-means++ initialization.
    fn fit_once(&self, data: &Dataset, seed: u64) -> Result<(f64, Matrix), ComponentError> {
        let x = data.features();
        let n = x.rows();
        let d = x.cols();
        if n < self.k {
            return Err(ComponentError::InvalidInput(format!(
                "{n} samples cannot form {} clusters",
                self.k
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // k-means++ seeding
        let mut centers = Matrix::zeros(self.k, d);
        let first = rng.gen_range(0..n);
        centers.row_mut(0).copy_from_slice(x.row(first));
        let mut dist2: Vec<f64> = (0..n).map(|i| sq_dist(x.row(i), centers.row(0))).collect();
        for c in 1..self.k {
            let total: f64 = dist2.iter().sum();
            let pick = if total <= 0.0 {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut chosen = n - 1;
                for (i, &d2) in dist2.iter().enumerate() {
                    if target < d2 {
                        chosen = i;
                        break;
                    }
                    target -= d2;
                }
                chosen
            };
            centers.row_mut(c).copy_from_slice(x.row(pick));
            for (i, d2) in dist2.iter_mut().enumerate() {
                *d2 = d2.min(sq_dist(x.row(i), centers.row(c)));
            }
        }
        // Lloyd iterations
        let mut assign = vec![0usize; n];
        for _ in 0..self.max_iter {
            let mut changed = false;
            for (i, slot) in assign.iter_mut().enumerate() {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for c in 0..self.k {
                    let d2 = sq_dist(x.row(i), centers.row(c));
                    if d2 < best_d {
                        best_d = d2;
                        best = c;
                    }
                }
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            // recompute centres
            let mut sums = Matrix::zeros(self.k, d);
            let mut counts = vec![0usize; self.k];
            for i in 0..n {
                counts[assign[i]] += 1;
                let row = x.row(i);
                let srow = sums.row_mut(assign[i]);
                for (s, &v) in srow.iter_mut().zip(row) {
                    *s += v;
                }
            }
            for (c, &count) in counts.iter().enumerate() {
                if count == 0 {
                    // re-seed an empty cluster at a random sample
                    let pick = rng.gen_range(0..n);
                    centers.row_mut(c).copy_from_slice(x.row(pick));
                } else {
                    let crow = centers.row_mut(c);
                    for (cv, sv) in crow.iter_mut().zip(sums.row(c)) {
                        *cv = sv / counts[c] as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let inertia: f64 = (0..n).map(|i| sq_dist(x.row(i), centers.row(assign[i]))).sum();
        Ok((inertia, centers))
    }

    /// Assigns each sample to its nearest fitted centre.
    ///
    /// # Errors
    ///
    /// [`ComponentError::NotFitted`] before fitting.
    pub fn predict(&self, data: &Dataset) -> Result<Vec<usize>, ComponentError> {
        let centers =
            self.centers.as_ref().ok_or_else(|| ComponentError::NotFitted("kmeans".to_string()))?;
        if centers.cols() != data.n_features() {
            return Err(ComponentError::InvalidInput(format!(
                "model fitted on {} features, input has {}",
                centers.cols(),
                data.n_features()
            )));
        }
        Ok(data
            .features()
            .iter_rows()
            .map(|row| {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for c in 0..centers.rows() {
                    let d2 = sq_dist(row, centers.row(c));
                    if d2 < best_d {
                        best_d = d2;
                        best = c;
                    }
                }
                best
            })
            .collect())
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Cluster purity against ground-truth labels: for each cluster take its
/// majority true label, sum the majorities, divide by n. 1.0 = perfect.
pub fn purity(assignments: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(assignments.len(), truth.len(), "length mismatch");
    if assignments.is_empty() {
        return 0.0;
    }
    let mut per_cluster: std::collections::BTreeMap<
        usize,
        std::collections::BTreeMap<usize, usize>,
    > = std::collections::BTreeMap::new();
    for (&a, &t) in assignments.iter().zip(truth) {
        *per_cluster.entry(a).or_default().entry(t).or_insert(0) += 1;
    }
    let majority_sum: usize =
        per_cluster.values().map(|counts| counts.values().copied().max().unwrap_or(0)).sum();
    majority_sum as f64 / assignments.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_data::synth;

    #[test]
    fn recovers_well_separated_cohorts() {
        let (ds, truth) = synth::cohort_data(120, 3, 4, 71);
        let km = KMeans::new(3).with_seed(3).fit(&ds).unwrap();
        let labels = km.predict(&ds).unwrap();
        assert!(purity(&labels, &truth) > 0.9);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (ds, _) = synth::cohort_data(150, 5, 3, 72);
        let i2 = KMeans::new(2).with_seed(1).fit(&ds).unwrap().inertia().unwrap();
        let i5 = KMeans::new(5).with_seed(1).fit(&ds).unwrap().inertia().unwrap();
        assert!(i5 < i2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (ds, _) = synth::cohort_data(80, 4, 3, 73);
        let a = KMeans::new(4).with_seed(9).fit(&ds).unwrap().predict(&ds).unwrap();
        let b = KMeans::new(4).with_seed(9).fit(&ds).unwrap().predict(&ds).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn errors() {
        let (ds, _) = synth::cohort_data(10, 2, 3, 74);
        assert!(KMeans::new(20).fit(&ds).is_err()); // more clusters than samples
        let unfitted = KMeans::new(2);
        assert!(unfitted.predict(&ds).is_err());
        let km = KMeans::new(2).fit(&ds).unwrap();
        let (other, _) = synth::cohort_data(10, 2, 5, 74);
        assert!(km.predict(&other).is_err());
    }

    #[test]
    fn purity_bounds() {
        assert_eq!(purity(&[0, 0, 1, 1], &[0, 0, 1, 1]), 1.0);
        assert_eq!(purity(&[0, 0, 0, 0], &[0, 1, 2, 3]), 0.25);
        assert_eq!(purity(&[], &[]), 0.0);
    }

    #[test]
    fn k1_center_is_mean() {
        let (ds, _) = synth::cohort_data(50, 2, 3, 75);
        let km = KMeans::new(1).with_seed(1).fit(&ds).unwrap();
        let center = km.centers().unwrap().row(0).to_vec();
        let means = ds.features().column_means();
        for (c, m) in center.iter().zip(means) {
            assert!((c - m).abs() < 1e-9);
        }
    }
}
