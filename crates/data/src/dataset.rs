//! The [`Dataset`] type: a feature matrix with an optional target column.

use std::fmt;

use coda_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Error produced by dataset construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Feature matrix and target lengths disagree.
    TargetLengthMismatch {
        /// Number of samples in the feature matrix.
        samples: usize,
        /// Length of the offered target.
        target: usize,
    },
    /// The dataset has no target but one is required.
    MissingTarget,
    /// Feature-name count disagrees with the number of columns.
    NameCountMismatch {
        /// Number of feature columns.
        cols: usize,
        /// Number of names offered.
        names: usize,
    },
    /// An index was out of bounds.
    IndexOutOfBounds(usize),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::TargetLengthMismatch { samples, target } => {
                write!(f, "target length {target} does not match {samples} samples")
            }
            DatasetError::MissingTarget => write!(f, "dataset has no target column"),
            DatasetError::NameCountMismatch { cols, names } => {
                write!(f, "{names} feature names offered for {cols} columns")
            }
            DatasetError::IndexOutOfBounds(i) => write!(f, "index {i} out of bounds"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// A tabular dataset: features (dense, row-major, may contain NaN for missing
/// values) plus an optional target vector.
///
/// Classification targets are stored as class labels encoded in `f64`
/// (0.0, 1.0, …), matching the scikit-learn convention the paper builds on.
///
/// # Examples
///
/// ```
/// use coda_data::Dataset;
/// use coda_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let ds = Dataset::new(x).with_target(vec![0.0, 1.0]).unwrap();
/// assert_eq!(ds.n_samples(), 2);
/// assert_eq!(ds.target().unwrap()[1], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Matrix,
    target: Option<Vec<f64>>,
    feature_names: Vec<String>,
}

impl Dataset {
    /// Creates a dataset from a feature matrix with auto-generated column
    /// names `x0..x{n-1}` and no target.
    pub fn new(features: Matrix) -> Self {
        let feature_names = (0..features.cols()).map(|i| format!("x{i}")).collect();
        Dataset { features, target: None, feature_names }
    }

    /// Attaches a target column.
    ///
    /// # Errors
    ///
    /// [`DatasetError::TargetLengthMismatch`] if `target.len()` differs from
    /// the number of samples.
    pub fn with_target(mut self, target: Vec<f64>) -> Result<Self, DatasetError> {
        if target.len() != self.features.rows() {
            return Err(DatasetError::TargetLengthMismatch {
                samples: self.features.rows(),
                target: target.len(),
            });
        }
        self.target = Some(target);
        Ok(self)
    }

    /// Replaces the feature names.
    ///
    /// # Errors
    ///
    /// [`DatasetError::NameCountMismatch`] if the count differs from the
    /// number of columns.
    pub fn with_feature_names<S: Into<String>>(
        mut self,
        names: Vec<S>,
    ) -> Result<Self, DatasetError> {
        if names.len() != self.features.cols() {
            return Err(DatasetError::NameCountMismatch {
                cols: self.features.cols(),
                names: names.len(),
            });
        }
        self.feature_names = names.into_iter().map(Into::into).collect();
        Ok(self)
    }

    /// Number of samples (rows).
    pub fn n_samples(&self) -> usize {
        self.features.rows()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.features.cols()
    }

    /// Borrow of the feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Mutable borrow of the feature matrix.
    pub fn features_mut(&mut self) -> &mut Matrix {
        &mut self.features
    }

    /// Borrow of the target, if present.
    pub fn target(&self) -> Option<&[f64]> {
        self.target.as_deref()
    }

    /// Borrow of the target or an error.
    ///
    /// # Errors
    ///
    /// [`DatasetError::MissingTarget`] if no target is attached.
    pub fn target_required(&self) -> Result<&[f64], DatasetError> {
        self.target.as_deref().ok_or(DatasetError::MissingTarget)
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Replaces the features while keeping the target, regenerating names if
    /// the column count changed.
    pub fn replace_features(&self, features: Matrix) -> Dataset {
        let feature_names = if features.cols() == self.features.cols() {
            self.feature_names.clone()
        } else {
            (0..features.cols()).map(|i| format!("x{i}")).collect()
        };
        Dataset { features, target: self.target.clone(), feature_names }
    }

    /// The sub-dataset of the given row indices (features and target).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let features = self.features.select_rows(indices);
        let target = self.target.as_ref().map(|t| indices.iter().map(|&i| t[i]).collect());
        Dataset { features, target, feature_names: self.feature_names.clone() }
    }

    /// The sub-dataset keeping only the given feature columns.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_features(&self, indices: &[usize]) -> Dataset {
        let features = self.features.select_cols(indices);
        let feature_names = indices.iter().map(|&i| self.feature_names[i].clone()).collect();
        Dataset { features, target: self.target.clone(), feature_names }
    }

    /// True if any feature cell is NaN (missing).
    pub fn has_missing(&self) -> bool {
        self.features.as_slice().iter().any(|x| x.is_nan())
    }

    /// Count of NaN feature cells.
    pub fn missing_count(&self) -> usize {
        self.features.as_slice().iter().filter(|x| x.is_nan()).count()
    }

    /// Distinct target values, sorted (useful for classification).
    ///
    /// # Errors
    ///
    /// [`DatasetError::MissingTarget`] if no target is attached.
    pub fn classes(&self) -> Result<Vec<f64>, DatasetError> {
        let t = self.target_required()?;
        let mut v: Vec<f64> = t.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v.dedup();
        Ok(v)
    }

    /// Splits into `(train, test)` with `test_fraction` of samples in the test
    /// set, shuffled deterministically by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is not within `(0, 1)`.
    pub fn train_test_split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(test_fraction > 0.0 && test_fraction < 1.0, "test_fraction must be in (0, 1)");
        let n = self.n_samples();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_test = ((n as f64) * test_fraction).round().max(1.0) as usize;
        let n_test = n_test.min(n.saturating_sub(1)).max(1);
        let (test_idx, train_idx) = idx.split_at(n_test);
        (self.select(train_idx), self.select(test_idx))
    }

    /// Splits *without shuffling*: the first `1-test_fraction` of rows train,
    /// the rest test. Correct for time-ordered data.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is not within `(0, 1)`.
    pub fn chronological_split(&self, test_fraction: f64) -> (Dataset, Dataset) {
        assert!(test_fraction > 0.0 && test_fraction < 1.0, "test_fraction must be in (0, 1)");
        let n = self.n_samples();
        let n_train = ((n as f64) * (1.0 - test_fraction)).round() as usize;
        let n_train = n_train.clamp(1, n.saturating_sub(1));
        let train_idx: Vec<usize> = (0..n_train).collect();
        let test_idx: Vec<usize> = (n_train..n).collect();
        (self.select(&train_idx), self.select(&test_idx))
    }
}

impl Dataset {
    /// Serializes the dataset to a compact little-endian binary blob
    /// (header: rows, cols, has-target flag; then features row-major, then
    /// the target) — the wire format used when datasets travel through the
    /// versioned data tier (§III).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n_samples() as u64;
        let d = self.n_features() as u64;
        let has_target = self.target.is_some() as u8;
        let mut out = Vec::with_capacity(17 + 8 * (self.features.as_slice().len() + n as usize));
        out.extend_from_slice(&n.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
        out.push(has_target);
        for v in self.features.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        if let Some(t) = &self.target {
            for v in t {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Parses a dataset from the [`Dataset::to_bytes`] format.
    ///
    /// # Errors
    ///
    /// [`DatasetError::IndexOutOfBounds`] (reporting the offending length)
    /// when the blob is truncated or malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Dataset, DatasetError> {
        let fail = || DatasetError::IndexOutOfBounds(bytes.len());
        // the little-endian word at `off`, or the error when the blob ends first
        let word = |off: usize| -> Result<[u8; 8], DatasetError> {
            bytes.get(off..off + 8).and_then(|w| w.try_into().ok()).ok_or_else(fail)
        };
        if bytes.len() < 17 {
            return Err(fail());
        }
        let n = u64::from_le_bytes(word(0)?) as usize;
        let d = u64::from_le_bytes(word(8)?) as usize;
        let has_target = bytes[16] == 1;
        // the header's counts are untrusted: size the blob they describe
        // without overflow before allocating for them
        let n_cells = n.checked_mul(d).ok_or_else(fail)?;
        let expected = n_cells
            .checked_add(if has_target { n } else { 0 })
            .and_then(|values| values.checked_mul(8))
            .and_then(|len| len.checked_add(17))
            .ok_or_else(fail)?;
        if bytes.len() != expected {
            return Err(fail());
        }
        let mut cells = Vec::with_capacity(n_cells);
        let mut off = 17;
        for _ in 0..n_cells {
            cells.push(f64::from_le_bytes(word(off)?));
            off += 8;
        }
        let ds = Dataset::new(Matrix::from_vec(n, d, cells));
        if has_target {
            let mut target = Vec::with_capacity(n);
            for _ in 0..n {
                target.push(f64::from_le_bytes(word(off)?));
                off += 8;
            }
            ds.with_target(target)
        } else {
            Ok(ds)
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset[{} samples x {} features{}]",
            self.n_samples(),
            self.n_features(),
            if self.target.is_some() { ", with target" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        let x = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0], &[4.0, 40.0]]);
        Dataset::new(x).with_target(vec![0.0, 1.0, 0.0, 1.0]).unwrap()
    }

    #[test]
    fn construction_and_names() {
        let ds = small();
        assert_eq!(ds.n_samples(), 4);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.feature_names(), &["x0".to_string(), "x1".to_string()]);
        let named = ds.with_feature_names(vec!["a", "b"]).unwrap();
        assert_eq!(named.feature_names()[0], "a");
    }

    #[test]
    fn target_length_checked() {
        let x = Matrix::zeros(3, 1);
        assert!(matches!(
            Dataset::new(x).with_target(vec![1.0]),
            Err(DatasetError::TargetLengthMismatch { .. })
        ));
    }

    #[test]
    fn name_count_checked() {
        let ds = Dataset::new(Matrix::zeros(2, 2));
        assert!(ds.with_feature_names(vec!["only-one"]).is_err());
    }

    #[test]
    fn select_rows_and_features() {
        let ds = small();
        let sub = ds.select(&[1, 3]);
        assert_eq!(sub.n_samples(), 2);
        assert_eq!(sub.features().row(0), &[2.0, 20.0]);
        assert_eq!(sub.target().unwrap(), &[1.0, 1.0]);
        let f = ds.select_features(&[1]);
        assert_eq!(f.n_features(), 1);
        assert_eq!(f.feature_names()[0], "x1");
        assert_eq!(f.target().unwrap().len(), 4);
    }

    #[test]
    fn missing_detection() {
        let mut ds = small();
        assert!(!ds.has_missing());
        ds.features_mut()[(0, 0)] = f64::NAN;
        assert!(ds.has_missing());
        assert_eq!(ds.missing_count(), 1);
    }

    #[test]
    fn classes_sorted_dedup() {
        let ds = small();
        assert_eq!(ds.classes().unwrap(), vec![0.0, 1.0]);
        assert!(Dataset::new(Matrix::zeros(1, 1)).classes().is_err());
    }

    #[test]
    fn split_partitions_everything() {
        let ds = small();
        let (train, test) = ds.train_test_split(0.25, 7);
        assert_eq!(train.n_samples() + test.n_samples(), 4);
        assert_eq!(test.n_samples(), 1);
    }

    #[test]
    fn split_is_deterministic() {
        let ds = small();
        let (a, _) = ds.train_test_split(0.5, 99);
        let (b, _) = ds.train_test_split(0.5, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn chronological_split_keeps_order() {
        let ds = small();
        let (train, test) = ds.chronological_split(0.5);
        assert_eq!(train.features().row(0), &[1.0, 10.0]);
        assert_eq!(test.features().row(0), &[3.0, 30.0]);
    }

    #[test]
    fn bytes_roundtrip_with_and_without_target() {
        let ds = small();
        let back = Dataset::from_bytes(&ds.to_bytes()).unwrap();
        assert_eq!(back.features(), ds.features());
        assert_eq!(back.target(), ds.target());
        let no_target = Dataset::new(Matrix::from_rows(&[&[1.5, -2.5]]));
        let back = Dataset::from_bytes(&no_target.to_bytes()).unwrap();
        assert_eq!(back.features(), no_target.features());
        assert!(back.target().is_none());
    }

    #[test]
    fn bytes_rejects_malformed() {
        assert!(Dataset::from_bytes(&[]).is_err());
        assert!(Dataset::from_bytes(&[0u8; 16]).is_err());
        let mut blob = small().to_bytes();
        blob.pop();
        assert!(Dataset::from_bytes(&blob).is_err());
        blob.extend_from_slice(&[0, 0]);
        assert!(Dataset::from_bytes(&blob).is_err());
        // a header whose 2^61 target rows make 8·rows wrap to zero
        let mut wraps = (1u64 << 61).to_le_bytes().to_vec();
        wraps.extend_from_slice(&0u64.to_le_bytes());
        wraps.push(1);
        assert!(Dataset::from_bytes(&wraps).is_err());
    }

    #[test]
    fn replace_features_regenerates_names() {
        let ds = small();
        let replaced = ds.replace_features(Matrix::zeros(4, 3));
        assert_eq!(replaced.n_features(), 3);
        assert_eq!(replaced.feature_names().len(), 3);
        assert!(replaced.target().is_some());
    }
}
