//! Shared types: scores, rankings, detection-quality evaluation, and the
//! memoized coalition-utility evaluator every estimator goes through.

use nde_ml::dataset::Dataset;
use nde_ml::model::{utility, Classifier};
use nde_robust::par::{subset_fingerprint_sorted, MemoCache};
use std::fmt;

/// Utility of the coalition named by a **sorted** index set, optionally
/// served from a [`MemoCache`].
///
/// The convention `U(∅) = 0` is applied without an evaluation. The cache is
/// keyed by [`subset_fingerprint_sorted`], so the same coalition reached
/// from a TMC permutation prefix, a Banzhaf subset sample, or a
/// Beta-Shapley draw hits the same entry — which is only sound because the
/// subset is always *evaluated* in sorted order too, making the utility a
/// pure function of the index set. A cache must only ever see one
/// `(template, train, valid)` triple (see [`MemoCache`]).
pub fn coalition_utility<C: Classifier>(
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    sorted: &[usize],
    cache: Option<&MemoCache>,
) -> Result<f64, ImportanceError> {
    if sorted.is_empty() {
        return Ok(0.0);
    }
    let evaluate = || -> Result<f64, ImportanceError> {
        if sorted.len() == train.len() {
            // The full coalition: skip the subset materialization.
            Ok(utility(template, train, valid)?)
        } else {
            Ok(utility(template, &train.subset(sorted), valid)?)
        }
    };
    let Some(cache) = cache else {
        return evaluate();
    };
    let key = subset_fingerprint_sorted(sorted);
    if let Some(v) = cache.get(key) {
        return Ok(v);
    }
    let v = evaluate()?;
    // Tag the entry with its coalition so an accepted cleaning fix can
    // evict exactly the utilities it stales (MemoCache::invalidate_members).
    cache.insert_with_members(key, v, sorted);
    Ok(v)
}

/// The first non-finite feature of `train`, then of `valid`, described
/// for an error message — `None` when every feature is finite. Corrupt
/// features would silently poison every score, so estimators check this
/// before spending any work.
pub(crate) fn non_finite_feature(train: &Dataset, valid: &Dataset) -> Option<String> {
    [("training", train), ("validation", valid)]
        .into_iter()
        .find_map(|(name, data)| {
            let (row, col) = data.first_non_finite()?;
            Some(format!(
                "{name} data holds a non-finite feature at row {row}, column {col}"
            ))
        })
}

/// Errors from importance computations.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportanceError {
    /// An argument was outside its valid domain.
    InvalidArgument(String),
    /// A wrapped ML-substrate error.
    Ml(String),
    /// A wrapped data-substrate error.
    Data(String),
    /// A wrapped pipeline error.
    Pipeline(String),
    /// The method's preconditions were not met (e.g. needs binary labels).
    Unsupported(String),
    /// A worker thread panicked; the panic payload is preserved.
    WorkerPanic(String),
    /// A checkpoint did not match the run it was resumed into.
    Checkpoint(String),
    /// A durable run-store operation failed (filesystem or record layer).
    Store(String),
}

impl fmt::Display for ImportanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportanceError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            ImportanceError::Ml(m) => write!(f, "ml error: {m}"),
            ImportanceError::Data(m) => write!(f, "data error: {m}"),
            ImportanceError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            ImportanceError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ImportanceError::WorkerPanic(m) => write!(f, "worker thread panicked: {m}"),
            ImportanceError::Checkpoint(m) => write!(f, "checkpoint mismatch: {m}"),
            ImportanceError::Store(m) => write!(f, "durable store error: {m}"),
        }
    }
}

impl std::error::Error for ImportanceError {}

impl From<nde_ml::MlError> for ImportanceError {
    fn from(e: nde_ml::MlError) -> Self {
        ImportanceError::Ml(e.to_string())
    }
}

impl From<nde_data::DataError> for ImportanceError {
    fn from(e: nde_data::DataError) -> Self {
        ImportanceError::Data(e.to_string())
    }
}

impl From<nde_pipeline::PipelineError> for ImportanceError {
    fn from(e: nde_pipeline::PipelineError) -> Self {
        ImportanceError::Pipeline(e.to_string())
    }
}

impl From<nde_robust::RobustError> for ImportanceError {
    fn from(e: nde_robust::RobustError) -> Self {
        match e {
            nde_robust::RobustError::Checkpoint(m) => ImportanceError::Checkpoint(m),
            nde_robust::RobustError::Crash(m) => ImportanceError::WorkerPanic(m),
            nde_robust::RobustError::Io(m) => ImportanceError::Store(m),
            nde_robust::RobustError::InvalidArgument(m) => ImportanceError::InvalidArgument(m),
        }
    }
}

/// Per-example importance values (higher = more valuable) tagged with the
/// method that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceScores {
    /// Name of the producing method (for reports and plots).
    pub method: &'static str,
    /// One value per training example.
    pub values: Vec<f64>,
}

impl ImportanceScores {
    /// Wrap raw values.
    pub fn new(method: &'static str, values: Vec<f64>) -> ImportanceScores {
        ImportanceScores { method, values }
    }

    /// Number of scored examples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no examples were scored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Indices sorted by ascending value (most harmful first).
    pub fn ascending_indices(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&a, &b| {
            self.values[a]
                .partial_cmp(&self.values[b])
                .expect("scores are finite")
                .then(a.cmp(&b))
        });
        idx
    }

    /// The `k` lowest-scored (most suspicious) example indices.
    pub fn bottom_k(&self, k: usize) -> Vec<usize> {
        let mut idx = self.ascending_indices();
        idx.truncate(k);
        idx
    }

    /// Spearman-style agreement with another scoring (rank correlation).
    pub fn rank_correlation(&self, other: &ImportanceScores) -> f64 {
        assert_eq!(self.len(), other.len(), "score lengths must match");
        let n = self.len();
        if n < 2 {
            return 1.0;
        }
        let rank = |s: &ImportanceScores| -> Vec<f64> {
            let order = s.ascending_indices();
            let mut r = vec![0.0; n];
            for (pos, &i) in order.iter().enumerate() {
                r[i] = pos as f64;
            }
            r
        };
        let ra = rank(self);
        let rb = rank(other);
        let mean = (n as f64 - 1.0) / 2.0;
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for i in 0..n {
            let a = ra[i] - mean;
            let b = rb[i] - mean;
            num += a * b;
            da += a * a;
            db += b * b;
        }
        if da == 0.0 || db == 0.0 {
            return 0.0;
        }
        num / (da * db).sqrt()
    }
}

/// The `k` lowest values' indices of a raw score vector.
pub fn bottom_k(values: &[f64], k: usize) -> Vec<usize> {
    ImportanceScores::new("adhoc", values.to_vec()).bottom_k(k)
}

/// Detection precision@k: of the `k` lowest-scored examples, what fraction
/// are actually injected errors? (The ground truth comes from
/// [`nde_data::inject::InjectionReport`].)
pub fn detection_precision_at_k(scores: &ImportanceScores, truth: &[usize], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let truth_set: std::collections::HashSet<usize> = truth.iter().copied().collect();
    let picked = scores.bottom_k(k);
    let hits = picked.iter().filter(|i| truth_set.contains(i)).count();
    hits as f64 / picked.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_and_bottom_k() {
        let s = ImportanceScores::new("t", vec![0.3, -0.5, 0.1, -0.5]);
        assert_eq!(s.ascending_indices(), vec![1, 3, 2, 0]);
        assert_eq!(s.bottom_k(2), vec![1, 3]);
        assert_eq!(s.bottom_k(99).len(), 4);
    }

    #[test]
    fn precision_at_k_counts_hits() {
        let s = ImportanceScores::new("t", vec![0.9, -1.0, 0.8, -0.9, 0.7]);
        // Bottom-2 are {1, 3}; truth {1, 4}: one hit.
        assert_eq!(detection_precision_at_k(&s, &[1, 4], 2), 0.5);
        assert_eq!(detection_precision_at_k(&s, &[1, 3], 2), 1.0);
        assert_eq!(detection_precision_at_k(&s, &[], 2), 0.0);
        assert_eq!(detection_precision_at_k(&s, &[1], 0), 0.0);
    }

    #[test]
    fn rank_correlation_extremes() {
        let a = ImportanceScores::new("a", vec![1.0, 2.0, 3.0, 4.0]);
        let b = ImportanceScores::new("b", vec![10.0, 20.0, 30.0, 40.0]);
        assert!((a.rank_correlation(&b) - 1.0).abs() < 1e-12);
        let c = ImportanceScores::new("c", vec![4.0, 3.0, 2.0, 1.0]);
        assert!((a.rank_correlation(&c) + 1.0).abs() < 1e-12);
        let constant = ImportanceScores::new("d", vec![1.0, 2.0]);
        assert_eq!(constant.rank_correlation(&constant), 1.0);
    }

    #[test]
    fn error_conversions() {
        let e: ImportanceError = nde_ml::MlError::NotFitted.into();
        assert!(matches!(e, ImportanceError::Ml(_)));
        let e: ImportanceError = nde_pipeline::PipelineError::UnknownNode(3).into();
        assert!(matches!(e, ImportanceError::Pipeline(_)));
    }
}
