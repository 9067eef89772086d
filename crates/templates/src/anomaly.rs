//! Anomaly Analysis: "builds a model to flag data as corresponding to a
//! normal operation mode or an anomalous mode" (§IV-E).
//!
//! The template fits the normal operating envelope on (mostly-normal)
//! training data with a robust per-feature model (median/MAD) plus a
//! k-means distance model, and flags points outside either envelope.

use coda_data::Dataset;
use coda_linalg::stats;
use coda_ml::KMeans;

use crate::TemplateError;

/// Result of an anomaly run.
#[derive(Debug, Clone)]
pub struct AnomalyReport {
    /// Per-sample anomaly flags.
    pub flags: Vec<bool>,
    /// Per-sample anomaly scores (higher = more anomalous).
    pub scores: Vec<f64>,
    /// The score threshold used.
    pub threshold: f64,
    /// Fraction flagged.
    pub flagged_fraction: f64,
}

/// The Anomaly Analysis template.
#[derive(Debug, Clone)]
pub struct AnomalyAnalysis {
    /// Robust z-score beyond which a point is anomalous.
    threshold: f64,
    clusters: usize,
    fitted: Option<FittedEnvelope>,
}

#[derive(Debug, Clone)]
struct FittedEnvelope {
    medians: Vec<f64>,
    mads: Vec<f64>,
    kmeans: KMeans,
    /// Robust scale of distances to the nearest centre.
    dist_median: f64,
    dist_mad: f64,
}

impl AnomalyAnalysis {
    /// Creates the template (threshold 4 robust sigmas, 3 clusters).
    pub fn new() -> Self {
        AnomalyAnalysis { threshold: 4.0, clusters: 3, fitted: None }
    }

    /// Sets the robust-sigma threshold.
    ///
    /// # Panics
    ///
    /// Panics if `t <= 0`.
    pub fn with_threshold(mut self, t: f64) -> Self {
        assert!(t > 0.0);
        self.threshold = t;
        self
    }

    /// Sets the number of normal operating modes (k-means clusters).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_modes(mut self, k: usize) -> Self {
        assert!(k > 0);
        self.clusters = k;
        self
    }

    /// Fits the normal envelope on training data (which may contain a small
    /// fraction of anomalies — the robust statistics tolerate them).
    ///
    /// # Errors
    ///
    /// [`TemplateError::InvalidData`] for too-small data,
    /// [`TemplateError::Evaluation`] when clustering fails.
    pub fn fit(mut self, data: &Dataset) -> Result<Self, TemplateError> {
        if data.n_samples() < self.clusters.max(10) {
            return Err(TemplateError::InvalidData(format!(
                "need at least {} samples",
                self.clusters.max(10)
            )));
        }
        let x = data.features();
        let mut medians = Vec::with_capacity(x.cols());
        let mut mads = Vec::with_capacity(x.cols());
        for c in 0..x.cols() {
            let col = x.col(c);
            let med = stats::median(&col);
            let devs: Vec<f64> = col.iter().map(|v| (v - med).abs()).collect();
            let mad = (stats::median(&devs) * 1.4826).max(1e-9);
            medians.push(med);
            mads.push(mad);
        }
        let kmeans = KMeans::new(self.clusters)
            .with_seed(17)
            .fit(data)
            .map_err(|e| TemplateError::Evaluation(e.to_string()))?;
        let dists = Self::center_distances(&kmeans, data)?;
        let dist_median = stats::median(&dists);
        let devs: Vec<f64> = dists.iter().map(|d| (d - dist_median).abs()).collect();
        let dist_mad = (stats::median(&devs) * 1.4826).max(1e-9);
        self.fitted = Some(FittedEnvelope { medians, mads, kmeans, dist_median, dist_mad });
        Ok(self)
    }

    fn center_distances(kmeans: &KMeans, data: &Dataset) -> Result<Vec<f64>, TemplateError> {
        let centers = kmeans
            .centers()
            .ok_or_else(|| TemplateError::Evaluation("k-means has no centers".to_string()))?;
        Ok(data
            .features()
            .iter_rows()
            .map(|row| {
                (0..centers.rows())
                    .map(|c| {
                        row.iter()
                            .zip(centers.row(c))
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum::<f64>()
                            .sqrt()
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .collect())
    }

    /// Scores and flags new data against the fitted envelope.
    ///
    /// # Errors
    ///
    /// [`TemplateError::Evaluation`] before [`AnomalyAnalysis::fit`].
    pub fn detect(&self, data: &Dataset) -> Result<AnomalyReport, TemplateError> {
        let env = self
            .fitted
            .as_ref()
            .ok_or_else(|| TemplateError::Evaluation("fit before detect".to_string()))?;
        if data.n_features() != env.medians.len() {
            return Err(TemplateError::InvalidData(format!(
                "fitted on {} features, input has {}",
                env.medians.len(),
                data.n_features()
            )));
        }
        let x = data.features();
        let dists = Self::center_distances(&env.kmeans, data)?;
        let mut scores = Vec::with_capacity(x.rows());
        for (r, row) in x.iter_rows().enumerate() {
            // robust per-feature z-score (max across features)
            let feature_score = row
                .iter()
                .zip(env.medians.iter().zip(&env.mads))
                .map(|(v, (m, s))| ((v - m) / s).abs())
                .fold(0.0f64, f64::max);
            // distance-to-mode score
            let dist_score = ((dists[r] - env.dist_median) / env.dist_mad).abs();
            scores.push(feature_score.max(dist_score));
        }
        let flags: Vec<bool> = scores.iter().map(|&s| s > self.threshold).collect();
        let flagged = flags.iter().filter(|&&f| f).count();
        Ok(AnomalyReport {
            flagged_fraction: flagged as f64 / flags.len().max(1) as f64,
            flags,
            scores,
            threshold: self.threshold,
        })
    }
}

impl Default for AnomalyAnalysis {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coda_data::metrics;
    use coda_data::synth;

    #[test]
    fn detects_injected_anomalies() {
        let (data, truth) = synth::anomaly_data(1500, 4, 0.04, 61);
        let detector = AnomalyAnalysis::new().fit(&data).unwrap();
        let report = detector.detect(&data).unwrap();
        let truth_f: Vec<f64> = truth.iter().map(|&t| if t { 1.0 } else { 0.0 }).collect();
        let flags_f: Vec<f64> = report.flags.iter().map(|&f| if f { 1.0 } else { 0.0 }).collect();
        let f1 = metrics::f1_score(&truth_f, &flags_f, 1.0).unwrap();
        assert!(f1 > 0.7, "f1 = {f1}");
    }

    #[test]
    fn clean_data_mostly_unflagged() {
        let (data, _) = synth::anomaly_data(800, 3, 0.0, 62);
        let detector = AnomalyAnalysis::new().fit(&data).unwrap();
        let report = detector.detect(&data).unwrap();
        assert!(report.flagged_fraction < 0.02, "flagged {}", report.flagged_fraction);
    }

    #[test]
    fn threshold_controls_sensitivity() {
        let (data, _) = synth::anomaly_data(800, 3, 0.05, 63);
        let strict = AnomalyAnalysis::new().with_threshold(8.0).fit(&data).unwrap();
        let loose = AnomalyAnalysis::new().with_threshold(2.0).fit(&data).unwrap();
        let fs = strict.detect(&data).unwrap().flagged_fraction;
        let fl = loose.detect(&data).unwrap().flagged_fraction;
        assert!(fl > fs);
    }

    #[test]
    fn scores_rank_anomalies_highest() {
        let (data, truth) = synth::anomaly_data(600, 3, 0.05, 64);
        let detector = AnomalyAnalysis::new().fit(&data).unwrap();
        let report = detector.detect(&data).unwrap();
        let truth_f: Vec<f64> = truth.iter().map(|&t| if t { 1.0 } else { 0.0 }).collect();
        let auc = metrics::auc(&truth_f, &report.scores).unwrap();
        assert!(auc > 0.9, "auc = {auc}");
    }

    #[test]
    fn errors() {
        let (tiny, _) = synth::anomaly_data(5, 2, 0.0, 65);
        assert!(AnomalyAnalysis::new().fit(&tiny).is_err());
        let (data, _) = synth::anomaly_data(100, 2, 0.0, 66);
        let unfitted = AnomalyAnalysis::new();
        assert!(unfitted.detect(&data).is_err());
        let fitted = AnomalyAnalysis::new().fit(&data).unwrap();
        let (other, _) = synth::anomaly_data(10, 5, 0.0, 67);
        assert!(fitted.detect(&other).is_err());
    }
}
