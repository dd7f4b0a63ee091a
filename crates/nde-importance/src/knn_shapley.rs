//! Exact, closed-form KNN-Shapley (Jia et al., VLDB'19).
//!
//! For a K-nearest-neighbor utility, the Shapley value of every training
//! point has a closed form computable in `O(n log n)` per validation point —
//! the efficiency trick highlighted in §2.1 of the paper and the workhorse
//! of the Fig. 2 hands-on demo.

use crate::common::{non_finite_feature, ImportanceScores};
use crate::{ImportanceError, Result};
use nde_ml::dataset::Dataset;
use nde_ml::linalg::squared_distance;
use nde_ml::models::knn::{key_index, order_key};
use nde_robust::par::{CostHint, WorkerFailure, WorkerPool};
use std::sync::atomic::AtomicBool;

/// Validation points are processed in fixed-size chunks whose partial sums
/// are folded in chunk order — the chunking (and therefore the float
/// accumulation tree) is independent of the thread count, so scores are
/// bit-identical for every `threads` value.
const VALID_CHUNK: usize = 32;

/// Per-worker reusable buffers (neighbor order keys, recursion values) —
/// allocated once per worker instead of once per validation point.
struct KnnScratch {
    keys: Vec<u128>,
    s: Vec<f64>,
}

/// The closed-form KNN-Shapley engine behind the
/// [`knn_shapley()`](crate::run::knn_shapley) entry point: exact values of
/// all training examples with respect to the K-NN utility (probability of
/// the correct label among the K neighbors), averaged over all validation
/// points.
///
/// The per-validation-point recursion (training points sorted by distance,
/// nearest first, 1-indexed):
///
/// ```text
/// s[n]   = 1[y_n = y] / max(n, K)
/// s[i]   = s[i+1] + (1[y_i = y] − 1[y_{i+1} = y]) / K · min(K, i) / i
/// ```
///
/// The seed is `1[y_n = y] · min(K, n) / (K · n)`: with fewer training
/// points than K, every point is always a neighbor and is worth its match
/// over K.
///
/// The kernel is fused and holds no train×valid distance table: each pool
/// worker computes its chunk's distances with [`squared_distance`], packs
/// each with its training index into an [`order_key`] in a per-worker
/// scratch, sorts the keys — exactly the `(distance, index)` order of
/// [`nde_ml::models::knn::KnnClassifier::neighbors`] — and runs the
/// recursion over that order. Non-finite features are rejected up front
/// with [`ImportanceError::InvalidArgument`]; a distance that overflows to
/// `+inf` is still a valid key.
pub(crate) fn knn_engine(
    train: &Dataset,
    valid: &Dataset,
    k: usize,
    threads: usize,
    pool: &WorkerPool,
) -> Result<ImportanceScores> {
    if k == 0 {
        return Err(ImportanceError::InvalidArgument("k must be >= 1".into()));
    }
    if train.is_empty() || valid.is_empty() {
        return Err(ImportanceError::InvalidArgument(
            "train and valid must be non-empty".into(),
        ));
    }
    if train.dim() != valid.dim() {
        return Err(ImportanceError::InvalidArgument(format!(
            "dimension mismatch: train {} vs valid {}",
            train.dim(),
            valid.dim()
        )));
    }
    if let Some(msg) = non_finite_feature(train, valid) {
        return Err(ImportanceError::InvalidArgument(msg));
    }
    let n = train.len();
    let m = valid.len();
    let kf = k as f64;
    let chunks = m.div_ceil(VALID_CHUNK) as u64;
    let stop = AtomicBool::new(false);
    // One chunk ranks every training row for VALID_CHUNK validation points.
    let cost = CostHint::PerItemNanos((VALID_CHUNK * n.max(1)) as u64 * 100);

    let chunk_totals = pool
        .map_indexed_scratch(
            threads,
            0..chunks,
            &stop,
            cost,
            || KnnScratch {
                keys: Vec::with_capacity(n),
                s: vec![0.0; n],
            },
            |scratch, c| {
                let mut totals = vec![0.0; n];
                let start = c as usize * VALID_CHUNK;
                let end = (start + VALID_CHUNK).min(m);
                for v in start..end {
                    let vx = valid.x.row(v);
                    let vy = valid.y[v];
                    scratch.keys.clear();
                    scratch.keys.extend(
                        train
                            .x
                            .iter_rows()
                            .enumerate()
                            .map(|(i, tx)| order_key(squared_distance(tx, vx), i)),
                    );
                    scratch.keys.sort_unstable();
                    // Recursion over the sorted order (position p is 1-indexed
                    // as p+1).
                    let keys = &scratch.keys;
                    let matches = |p: usize| -> f64 {
                        if train.y[key_index(keys[p])] == vy {
                            1.0
                        } else {
                            0.0
                        }
                    };
                    scratch.s[n - 1] = matches(n - 1) / n.max(k) as f64;
                    for p in (0..n - 1).rev() {
                        let i = (p + 1) as f64; // 1-indexed position
                        scratch.s[p] =
                            scratch.s[p + 1] + (matches(p) - matches(p + 1)) / kf * kf.min(i) / i;
                    }
                    for (&key, &s) in keys.iter().zip(&scratch.s) {
                        totals[key_index(key)] += s;
                    }
                }
                Ok::<_, ImportanceError>(totals)
            },
        )
        .map_err(|fail| match fail {
            WorkerFailure::Err(_, e) => e,
            WorkerFailure::Panic(_, msg) => ImportanceError::WorkerPanic(msg),
        })?;

    // Fold partial sums in chunk order (schedule-independent).
    let mut totals = vec![0.0; n];
    for (_, chunk) in &chunk_totals {
        for (t, v) in totals.iter_mut().zip(chunk) {
            *t += v;
        }
    }
    let values = totals.into_iter().map(|v| v / m as f64).collect();
    Ok(ImportanceScores::new("knn-shapley", values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{tmc_shapley, ImportanceRun, TmcParams};
    use nde_data::generate::blobs::two_gaussians;
    use nde_data::rng::{seeded, Rng};
    use nde_ml::models::knn::KnnClassifier;

    // The behavioral suite pins the engine through a thin wrapper matching
    // the removed free functions' signature.
    fn knn_shapley(train: &Dataset, valid: &Dataset, k: usize) -> Result<ImportanceScores> {
        knn_engine(train, valid, k, 1, &WorkerPool::shared())
    }

    fn toy() -> (Dataset, Dataset) {
        let train = Dataset::from_rows(
            vec![
                vec![0.0],
                vec![0.2],
                vec![10.0],
                vec![10.2],
                vec![0.1], // mislabelled
            ],
            vec![0, 0, 1, 1, 1],
            2,
        )
        .unwrap();
        let valid = Dataset::from_rows(
            vec![vec![0.04], vec![0.12], vec![10.14], vec![9.93]],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        (train, valid)
    }

    #[test]
    fn efficiency_axiom_exact() {
        // Shapley values must sum to U(D) − U(∅). For the KNN utility used
        // here, U(D) is the mean correct-neighbor fraction and U(∅) = 0.
        let (train, valid) = toy();
        let k = 2;
        let scores = knn_shapley(&train, &valid, k).unwrap();
        let sum: f64 = scores.values.iter().sum();
        // Compute U(D) directly: mean over valid of (#correct among k nn)/k.
        let mut knn = KnnClassifier::new(k);
        use nde_ml::model::Classifier;
        knn.fit(&train).unwrap();
        let mut u = 0.0;
        for (vx, &vy) in valid.x.iter_rows().zip(&valid.y) {
            let nb = knn.neighbors(vx);
            let correct = nb.iter().filter(|&&i| train.y[i] == vy).count();
            u += correct as f64 / k as f64;
        }
        u /= valid.len() as f64;
        assert!((sum - u).abs() < 1e-9, "sum={sum} u={u}");
    }

    #[test]
    fn mislabelled_point_ranked_last() {
        let (train, valid) = toy();
        let scores = knn_shapley(&train, &valid, 1).unwrap();
        assert_eq!(scores.bottom_k(1), vec![4]);
        assert!(scores.values[4] < 0.0);
    }

    #[test]
    fn agrees_with_monte_carlo_on_ranking() {
        // TMC-Shapley with a 1-NN model should produce a similar ranking.
        let (train, valid) = toy();
        let exact = knn_shapley(&train, &valid, 1).unwrap();
        let mc = tmc_shapley(
            &ImportanceRun::new(5),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &TmcParams {
                permutations: 400,
                truncation_tolerance: 0.0,
            },
        )
        .unwrap()
        .scores;
        let corr = exact.rank_correlation(&mc);
        assert!(corr > 0.6, "rank correlation {corr}");
    }

    #[test]
    fn scales_to_moderate_data() {
        let nd = two_gaussians(600, 4, 4.0, 9);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..500).collect::<Vec<_>>());
        let valid = all.subset(&(500..600).collect::<Vec<_>>());
        let scores = knn_shapley(&train, &valid, 5).unwrap();
        assert_eq!(scores.len(), 500);
        assert!(scores.values.iter().all(|v| v.is_finite()));
        // Average value should be positive (data is clean and useful).
        let mean: f64 = scores.values.iter().sum::<f64>() / 500.0;
        assert!(mean > 0.0);
    }

    #[test]
    fn validates_arguments() {
        let (train, valid) = toy();
        assert!(knn_shapley(&train, &valid, 0).is_err());
        let empty = train.subset(&[]);
        assert!(knn_shapley(&empty, &valid, 1).is_err());
        assert!(knn_shapley(&train, &empty, 1).is_err());
        let wrong_dim = Dataset::from_rows(vec![vec![0.0, 1.0]], vec![0], 2).unwrap();
        assert!(knn_shapley(&train, &wrong_dim, 1).is_err());
    }

    /// The KNN utility by definition: mean over validation points of the
    /// label matches among the `min(k, |S|)` nearest members of `S` by
    /// `(distance, index)`, over `k`; `U(∅) = 0`.
    fn knn_utility(train: &Dataset, valid: &Dataset, k: usize, members: &[usize]) -> f64 {
        let mut total = 0.0;
        for (vx, &vy) in valid.x.iter_rows().zip(&valid.y) {
            let dist = |i: usize| squared_distance(train.x.row(i), vx);
            let mut order = members.to_vec();
            order.sort_by(|&a, &b| dist(a).partial_cmp(&dist(b)).unwrap().then(a.cmp(&b)));
            let matches = order.iter().take(k).filter(|&&i| train.y[i] == vy).count();
            total += matches as f64 / k as f64;
        }
        total / valid.len() as f64
    }

    /// Exact Shapley values by enumerating all 2^n coalitions.
    fn brute_force_shapley(train: &Dataset, valid: &Dataset, k: usize) -> Vec<f64> {
        let n = train.len();
        let fact = |x: usize| (1..=x).map(|v| v as f64).product::<f64>();
        let members = |mask: usize| (0..n).filter(|&j| mask >> j & 1 == 1).collect::<Vec<_>>();
        (0..n)
            .map(|i| {
                (0..1usize << n)
                    .filter(|mask| mask >> i & 1 == 0)
                    .map(|mask| {
                        let size = mask.count_ones() as usize;
                        let weight = fact(size) * fact(n - size - 1) / fact(n);
                        let with = knn_utility(train, valid, k, &members(mask | 1 << i));
                        let without = knn_utility(train, valid, k, &members(mask));
                        weight * (with - without)
                    })
                    .sum()
            })
            .collect()
    }

    fn assert_matches_brute_force(train: &Dataset, valid: &Dataset, k: usize, what: &str) {
        let exact = knn_shapley(train, valid, k).unwrap();
        let brute = brute_force_shapley(train, valid, k);
        for (i, (got, want)) in exact.values.iter().zip(&brute).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "{what} k={k} point {i}: knn-shapley {got} vs brute force {want}"
            );
        }
    }

    /// A point on a 3×3 integer grid: equal distances and duplicated rows
    /// are the norm, so every tie-break is exercised.
    fn grid_set(len: usize, rng: &mut impl Rng) -> Dataset {
        let rows = (0..len)
            .map(|_| vec![rng.gen_range(0..3u64) as f64, rng.gen_range(0..3u64) as f64])
            .collect();
        let labels = (0..len).map(|_| rng.gen_range(0..2usize)).collect();
        Dataset::from_rows(rows, labels, 2).unwrap()
    }

    #[test]
    fn matches_brute_force_shapley_under_heavy_ties() {
        for seed in 0..12u64 {
            let mut rng = seeded(0x5a91 ^ seed);
            let n = rng.gen_range(1..=8usize);
            let m = rng.gen_range(1..=4usize);
            let train = grid_set(n, &mut rng);
            let valid = grid_set(m, &mut rng);
            for k in [1, 2, 3, n, n + 2] {
                assert_matches_brute_force(&train, &valid, k, &format!("seed {seed} n={n}"));
            }
        }
    }

    #[test]
    fn distances_overflowing_to_infinity_still_rank() {
        // Finite features whose squared distances overflow to +inf: the
        // far points tie at +inf and fall back to index order.
        let train = Dataset::from_rows(
            vec![vec![1e200], vec![0.0], vec![-1e200], vec![1.0], vec![1e300]],
            vec![0, 1, 1, 0, 1],
            2,
        )
        .unwrap();
        let valid = Dataset::from_rows(vec![vec![0.5], vec![-2e200]], vec![1, 0], 2).unwrap();
        assert_eq!(
            squared_distance(train.x.row(0), valid.x.row(0)),
            f64::INFINITY
        );
        for k in [1, 2, 4, 7] {
            assert_matches_brute_force(&train, &valid, k, "overflow");
        }
    }

    #[test]
    fn rejects_non_finite_features_naming_the_row() {
        let (train, valid) = toy();
        let with_cell = |data: &Dataset, row: usize, value: f64| {
            let mut rows: Vec<Vec<f64>> = data.x.iter_rows().map(<[f64]>::to_vec).collect();
            rows[row][0] = value;
            Dataset::from_rows(rows, data.y.clone(), data.n_classes).unwrap()
        };
        let cases = [
            (
                with_cell(&train, 3, f64::NAN),
                valid.clone(),
                "training data",
                3,
            ),
            (
                train.clone(),
                with_cell(&valid, 2, f64::NAN),
                "validation data",
                2,
            ),
            (
                with_cell(&train, 1, f64::INFINITY),
                valid.clone(),
                "training data",
                1,
            ),
            (
                train.clone(),
                with_cell(&valid, 0, f64::NEG_INFINITY),
                "validation data",
                0,
            ),
        ];
        for (train, valid, side, row) in cases {
            for threads in [1, 2] {
                match knn_engine(&train, &valid, 2, threads, &WorkerPool::shared()) {
                    Err(ImportanceError::InvalidArgument(msg)) => {
                        assert!(msg.contains(side), "{msg}");
                        assert!(msg.contains(&format!("row {row},")), "{msg}");
                    }
                    other => panic!("{side} row {row}: expected InvalidArgument, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        // More validation points than one chunk, so several chunks race.
        let nd = two_gaussians(300, 3, 3.0, 17);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..150).collect::<Vec<_>>());
        let valid = all.subset(&(150..300).collect::<Vec<_>>());
        let seq = knn_shapley(&train, &valid, 5).unwrap();
        for threads in [2, 4, 7] {
            let par = knn_engine(&train, &valid, 5, threads, &WorkerPool::shared()).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }
}
