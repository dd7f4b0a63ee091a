//! K-nearest-neighbors classification.
//!
//! KNN plays a double role in the toolkit: it is both a baseline classifier
//! and the *proxy model* that makes Shapley-based data importance tractable
//! (KNN-Shapley, paper §2.1; Datascope, §2.2).

use crate::dataset::Dataset;
use crate::linalg::squared_distance;
use crate::model::Classifier;
use crate::{MlError, Result};

/// A K-nearest-neighbors classifier with Euclidean distance and majority
/// voting (ties broken toward the smaller class id).
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    train: Option<Dataset>,
}

impl KnnClassifier {
    /// Create an unfitted KNN classifier with the given `k` (≥ 1).
    pub fn new(k: usize) -> KnnClassifier {
        KnnClassifier {
            k: k.max(1),
            train: None,
        }
    }

    /// The configured number of neighbors.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The remembered training data, if fitted (KNN is instance-based).
    pub fn training_data(&self) -> Option<&Dataset> {
        self.train.as_ref()
    }

    /// Indices of the `k` nearest training examples to `x`, closest first.
    /// Distance ties are broken by index for determinism.
    pub fn neighbors(&self, x: &[f64]) -> Vec<usize> {
        let train = self.train.as_ref().expect("model must be fitted");
        nearest(train.x.iter_rows().map(|r| squared_distance(r, x)), self.k)
    }
}

/// The neighbor order every KNN path shares, packed into one integer:
/// ascending distance, ties toward the smaller index. The key holds the
/// distance's bits above the index. Non-negative IEEE doubles order like
/// their bit patterns, so for every distance in `[+0, +inf]` integer order
/// on keys is exactly `(distance, index)` order, and a top-k set and its
/// order are unique however they are selected. Adding `+0.0` maps `-0.0`
/// (the sum over zero dimensions) to `+0`.
///
/// # Panics
///
/// On a NaN or negative distance, which has no place in the order.
#[inline]
pub fn order_key(d: f64, idx: usize) -> u128 {
    assert!(
        d >= 0.0,
        "finite distances: no neighbor order for distance {d}"
    );
    (u128::from((d + 0.0).to_bits()) << 64) | idx as u128
}

/// The index packed into an [`order_key`].
#[inline]
pub fn key_index(key: u128) -> usize {
    key as usize
}

/// Positions of the `k` smallest of `dists` under [`order_key`], closest
/// first, as a fresh k-length `Vec`: a linear-time selection, then a sort
/// of the k-prefix only.
pub(crate) fn nearest(dists: impl IntoIterator<Item = f64>, k: usize) -> Vec<usize> {
    let mut keys: Vec<u128> = dists
        .into_iter()
        .enumerate()
        .map(|(i, d)| order_key(d, i))
        .collect();
    let k = k.min(keys.len());
    if k == 0 {
        return Vec::new();
    }
    if k < keys.len() {
        keys.select_nth_unstable(k - 1);
    }
    let near = &mut keys[..k];
    near.sort_unstable();
    near.iter().map(|&key| key_index(key)).collect()
}

impl Classifier for KnnClassifier {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        self.train = Some(data.clone());
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        let train = self.train.as_ref().expect("model must be fitted");
        debug_assert_eq!(x.len(), train.dim());
        let mut votes = vec![0usize; train.n_classes];
        for i in self.neighbors(x) {
            votes[train.y[i]] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    fn predict_proba_one(&self, x: &[f64]) -> Vec<f64> {
        let train = self.train.as_ref().expect("model must be fitted");
        let neighbors = self.neighbors(x);
        let mut p = vec![0.0; train.n_classes];
        for &i in &neighbors {
            p[train.y[i]] += 1.0;
        }
        let total = neighbors.len().max(1) as f64;
        for v in &mut p {
            *v /= total;
        }
        p
    }

    fn n_classes(&self) -> usize {
        self.train.as_ref().map_or(0, |t| t.n_classes)
    }

    fn is_fitted(&self) -> bool {
        self.train.is_some()
    }

    fn coalition_scorer(
        &self,
        train: &Dataset,
        valid: &Dataset,
    ) -> Option<Box<dyn crate::batch::CoalitionScorer>> {
        Some(Box::new(crate::batch::KnnCoalitionScorer::new(
            self.k, train, valid,
        )))
    }

    fn incremental_eval(
        &self,
        train: &Dataset,
        valid: &Dataset,
    ) -> Option<Box<dyn crate::batch::IncrementalLabelEval>> {
        crate::batch::IncrementalKnnEval::new(self.k, train, valid)
            .ok()
            .map(|e| Box::new(e) as Box<dyn crate::batch::IncrementalLabelEval>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;
    use nde_data::rng::Rng;

    fn toy() -> Dataset {
        Dataset::from_rows(
            vec![
                vec![0.0, 0.0],
                vec![0.5, 0.0],
                vec![10.0, 10.0],
                vec![10.5, 10.0],
            ],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap()
    }

    #[test]
    fn one_nn_predicts_nearest_label() {
        let mut knn = KnnClassifier::new(1);
        knn.fit(&toy()).unwrap();
        assert_eq!(knn.predict_one(&[0.1, 0.1]), 0);
        assert_eq!(knn.predict_one(&[9.0, 9.0]), 1);
    }

    #[test]
    fn proba_reflects_vote_shares() {
        let mut knn = KnnClassifier::new(3);
        knn.fit(&toy()).unwrap();
        let p = knn.predict_proba_one(&[0.2, 0.0]);
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_n_clamps() {
        let mut knn = KnnClassifier::new(100);
        knn.fit(&toy()).unwrap();
        // All 4 points vote: tie 2-2 broken toward class 0.
        assert_eq!(knn.predict_one(&[5.0, 5.0]), 0);
    }

    #[test]
    fn neighbors_sorted_by_distance_then_index() {
        let mut knn = KnnClassifier::new(2);
        knn.fit(&toy()).unwrap();
        assert_eq!(knn.neighbors(&[0.0, 0.0]), vec![0, 1]);
        // Exactly equidistant points resolve by index.
        let d =
            Dataset::from_rows(vec![vec![1.0], vec![-1.0], vec![1.0]], vec![0, 1, 1], 2).unwrap();
        let mut knn = KnnClassifier::new(2);
        knn.fit(&d).unwrap();
        assert_eq!(knn.neighbors(&[0.0]), vec![0, 1]);
    }

    /// The comparator every KNN path used before [`order_key`]: ascending
    /// distance, ties toward the smaller index.
    fn oracle(dists: &[f64], a: usize, b: usize) -> std::cmp::Ordering {
        dists[a]
            .partial_cmp(&dists[b])
            .expect("finite distances")
            .then(a.cmp(&b))
    }

    /// Distances drawn to collide: signed zeros, subnormals, duplicates,
    /// `+inf` and a few ordinary values.
    fn tricky_distances(len: usize, rng: &mut impl Rng) -> Vec<f64> {
        const POOL: [f64; 9] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            1e-310,
            1.0,
            2.5,
            f64::MAX,
            f64::INFINITY,
        ];
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    POOL[rng.gen_range(0..POOL.len())]
                } else {
                    rng.gen_range(0.0..4.0)
                }
            })
            .collect()
    }

    #[test]
    fn order_key_orders_exactly_like_the_comparator() {
        let mut rng = nde_data::rng::seeded(0x0bde);
        for _ in 0..300 {
            let dists = tricky_distances(rng.gen_range(1..40usize), &mut rng);
            let n = dists.len();
            let mut want: Vec<usize> = (0..n).collect();
            want.sort_by(|&a, &b| oracle(&dists, a, b));
            let mut keys: Vec<u128> = (0..n).map(|i| order_key(dists[i], i)).collect();
            keys.sort_unstable();
            let got: Vec<usize> = keys.iter().map(|&key| key_index(key)).collect();
            assert_eq!(got, want, "sort of {dists:?}");
            for nth in 0..n {
                let mut keys: Vec<u128> = (0..n).map(|i| order_key(dists[i], i)).collect();
                keys.select_nth_unstable(nth);
                assert_eq!(key_index(keys[nth]), want[nth], "select {nth} of {dists:?}");
                let mut near: Vec<usize> = keys[..nth].iter().map(|&key| key_index(key)).collect();
                near.sort_unstable();
                let mut want_near = want[..nth].to_vec();
                want_near.sort_unstable();
                assert_eq!(near, want_near, "select {nth} of {dists:?}");
                assert_eq!(
                    nearest(dists.iter().copied(), nth + 1),
                    want[..=nth],
                    "nearest {nth} of {dists:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn order_key_rejects_nan() {
        order_key(f64::NAN, 0);
    }

    #[test]
    fn rejects_empty_training_set() {
        let mut knn = KnnClassifier::new(1);
        let empty = toy().subset(&[]);
        assert!(matches!(knn.fit(&empty), Err(MlError::EmptyTrainingSet)));
        assert!(!knn.is_fitted());
    }

    #[test]
    fn separates_gaussian_blobs() {
        let nd = two_gaussians(300, 4, 5.0, 3);
        let data = Dataset::try_from(&nd).unwrap();
        let train = data.subset(&(0..200).collect::<Vec<_>>());
        let test = data.subset(&(200..300).collect::<Vec<_>>());
        let mut knn = KnnClassifier::new(5);
        knn.fit(&train).unwrap();
        assert!(knn.accuracy(&test) > 0.95);
    }

    #[test]
    fn refit_replaces_state() {
        let mut knn = KnnClassifier::new(1);
        knn.fit(&toy()).unwrap();
        let flipped =
            Dataset::from_rows(vec![vec![0.0, 0.0], vec![10.0, 10.0]], vec![1, 0], 2).unwrap();
        knn.fit(&flipped).unwrap();
        assert_eq!(knn.predict_one(&[0.0, 0.0]), 1);
    }
}
