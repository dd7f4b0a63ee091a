//! Batched coalition scoring: evaluate many training-subset utilities in
//! one pass over the validation set.
//!
//! Every importance method bottoms out in the same operation — compute the
//! utility `U(S)` of a coalition `S ⊆ train` — and the naive route pays one
//! full retrain + validation sweep per coalition. For instance-based models
//! the retrain is a fiction: a KNN "fit" only remembers the subset, and the
//! expensive part (train→valid distances) is *identical across coalitions*.
//! [`DistanceTable`] computes that train→valid distance matrix once per
//! run, and [`KnnCoalitionScorer`] then scores a whole batch of coalitions
//! by masked partial selection over the shared matrix (KNN-Shapley, Jia et
//! al., PVLDB 2019; Datascope's KNN proxy, Karlaš et al., PVLDB 2022).
//!
//! The [`CoalitionScorer`] trait is the hook the importance crate batches
//! through: [`crate::model::Classifier::coalition_scorer`] returns a
//! prepared scorer for models that support one-pass batch scoring, and
//! `None` for generic classifiers, which then fall back to per-coalition
//! [`crate::model::utility`] behind the same interface.
//!
//! # Bit-identity contract
//!
//! For every coalition `S` (given as a **sorted** list of training-set
//! indices), a scorer must return *exactly* the `f64` that
//! `utility(template, &train.subset(S), valid)` would: same distance
//! floats, same `(distance, index)` neighbor ordering, same vote
//! tie-breaking, same `correct / m` division. Batching is a physical
//! optimization only — it must never be observable in the scores.

use crate::dataset::Dataset;
use crate::linalg::squared_distance;
use crate::models::knn::{key_index, nearest, order_key};
use crate::{MlError, Result};

/// Scores batches of coalitions against a fixed (train, valid) pair in one
/// validation pass, bit-identical to per-coalition retraining.
///
/// Implementations are built once per run (capturing whatever shared state
/// makes batching cheap — e.g. a distance matrix) and shared across worker
/// threads, hence the `Send + Sync` bound.
pub trait CoalitionScorer: Send + Sync {
    /// Utility of each coalition, in order.
    ///
    /// Each coalition is a non-empty, strictly ascending list of indices
    /// into the training set the scorer was prepared for.
    fn score_batch(&self, coalitions: &[&[usize]]) -> Vec<f64>;

    /// Number of training points the scorer was prepared for (coalition
    /// indices must stay below this).
    fn n_train(&self) -> usize;
}

/// The train→valid squared-distance matrix, computed once per run.
///
/// Row `v` holds the squared Euclidean distance from validation point `v`
/// to every training point, with exactly the floats
/// [`squared_distance`] produces — so selection over a row reproduces the
/// neighbor order a fresh [`crate::models::knn::KnnClassifier`] would see.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    n_train: usize,
    n_valid: usize,
    // Row-major [n_valid × n_train].
    dists: Vec<f64>,
}

impl DistanceTable {
    /// Compute all `train.len() × valid.len()` squared distances.
    pub fn new(train: &Dataset, valid: &Dataset) -> DistanceTable {
        let n_train = train.len();
        let n_valid = valid.len();
        let mut dists = vec![0.0; n_train * n_valid];
        for (v, vx) in valid.x.iter_rows().enumerate() {
            let row = &mut dists[v * n_train..(v + 1) * n_train];
            for (i, tx) in train.x.iter_rows().enumerate() {
                row[i] = squared_distance(tx, vx);
            }
        }
        DistanceTable {
            n_train,
            n_valid,
            dists,
        }
    }

    /// Recompute the distance columns of the given training rows in place,
    /// after their feature vectors changed (incremental maintenance: a
    /// cleaning fix that touches features moves a handful of training
    /// points, not the whole matrix).
    ///
    /// `train` and `valid` must have the shape the table was built from.
    /// The patched table is **bit-identical** to a fresh
    /// [`DistanceTable::new(train, valid)`](DistanceTable::new): every
    /// refreshed cell is produced by the same [`squared_distance`] call,
    /// and untouched cells are untouched floats. A changed row holding a
    /// NaN or infinite feature is [`MlError::NonFiniteFeature`] and leaves
    /// the table untouched.
    pub fn update_rows(
        &mut self,
        changed: &[usize],
        train: &Dataset,
        valid: &Dataset,
    ) -> Result<()> {
        if train.len() != self.n_train || valid.len() != self.n_valid {
            return Err(MlError::InvalidArgument(format!(
                "distance table is {}x{} but got {} train / {} valid rows",
                self.n_valid,
                self.n_train,
                train.len(),
                valid.len()
            )));
        }
        if let Some(&bad) = changed.iter().find(|&&i| i >= self.n_train) {
            return Err(MlError::InvalidArgument(format!(
                "changed row {bad} out of bounds for {} training rows",
                self.n_train
            )));
        }
        if let Some((row, col)) = train.first_non_finite_in(changed.iter().copied()) {
            return Err(MlError::NonFiniteFeature { row, col });
        }
        for (v, vx) in valid.x.iter_rows().enumerate() {
            let row = &mut self.dists[v * self.n_train..(v + 1) * self.n_train];
            for &i in changed {
                row[i] = squared_distance(train.x.row(i), vx);
            }
        }
        Ok(())
    }

    /// Follow a splice of the training set: `row_map[old]` is where each
    /// old training row went (`None` = deleted), and `train` is the new
    /// training set. Surviving columns are moved, not recomputed; only the
    /// inserted rows (new rows no old row maps to) get fresh distances.
    /// Returns the inserted rows, ascending.
    ///
    /// The map must have one entry per old row, stay below `train.len()`
    /// and be strictly increasing over its surviving entries (a splice
    /// keeps old row order); anything else is
    /// [`MlError::InvalidArgument`] and leaves the table untouched, as does
    /// an inserted row holding a non-finite feature
    /// ([`MlError::NonFiniteFeature`]). A
    /// surviving row must keep its features, so the spliced table is
    /// **bit-identical** to a fresh [`DistanceTable::new(train, valid)`](DistanceTable::new).
    pub fn splice(
        &mut self,
        row_map: &[Option<usize>],
        train: &Dataset,
        valid: &Dataset,
    ) -> Result<Vec<usize>> {
        if valid.len() != self.n_valid {
            return Err(MlError::InvalidArgument(format!(
                "distance table has {} valid rows but got {}",
                self.n_valid,
                valid.len()
            )));
        }
        let n_new = train.len();
        let old_of = invert_row_map(row_map, self.n_train, n_new)?;
        let inserted = (0..n_new).filter(|&j| old_of[j].is_none());
        if let Some((row, col)) = train.first_non_finite_in(inserted) {
            return Err(MlError::NonFiniteFeature { row, col });
        }
        let mut dists = vec![0.0; n_new * self.n_valid];
        for (v, vx) in valid.x.iter_rows().enumerate() {
            let old = self.row(v);
            let row = &mut dists[v * n_new..(v + 1) * n_new];
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = match old_of[j] {
                    Some(o) => old[o],
                    None => squared_distance(train.x.row(j), vx),
                };
            }
        }
        self.dists = dists;
        self.n_train = n_new;
        Ok((0..n_new).filter(|&j| old_of[j].is_none()).collect())
    }

    /// Squared distances from validation point `v` to every training point.
    pub fn row(&self, v: usize) -> &[f64] {
        &self.dists[v * self.n_train..(v + 1) * self.n_train]
    }

    /// Number of training points (row width).
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// Number of validation points (row count).
    pub fn n_valid(&self) -> usize {
        self.n_valid
    }
}

/// Validate a splice's row map (one entry per old row, targets below
/// `n_new`, strictly increasing over the survivors) and invert it:
/// `old_of[new]` is the old row that became `new`, `None` if inserted.
fn invert_row_map(
    row_map: &[Option<usize>],
    n_old: usize,
    n_new: usize,
) -> Result<Vec<Option<usize>>> {
    if row_map.len() != n_old {
        return Err(MlError::InvalidArgument(format!(
            "row map has {} entries for {n_old} old rows",
            row_map.len()
        )));
    }
    let mut old_of = vec![None; n_new];
    let mut last: Option<usize> = None;
    for (old, &new) in row_map.iter().enumerate() {
        let Some(new) = new else { continue };
        if new >= n_new {
            return Err(MlError::InvalidArgument(format!(
                "row map sends row {old} to {new}, out of bounds for {n_new} new rows"
            )));
        }
        if last.is_some_and(|l| new <= l) {
            return Err(MlError::InvalidArgument(format!(
                "row map is not monotone at old row {old} (-> {new})"
            )));
        }
        last = Some(new);
        old_of[new] = Some(old);
    }
    Ok(old_of)
}

/// One-pass batch scorer for the KNN utility.
///
/// Reproduces `utility(&KnnClassifier::new(k), &train.subset(S), valid)`
/// for every coalition `S`. The scorer owns a [`DistanceTable`] built once
/// for the run. Per validation point and coalition it packs each member's
/// distance and global index into an [`order_key`] and partially selects
/// the k smallest keys. Because `S` is sorted, the global-index tie-break
/// equals the subset-local one, so the selected set is the one a fresh fit
/// on the subset would see; majority voting with ties toward the smaller
/// class id matches [`crate::models::knn::KnnClassifier`]'s per-point
/// prediction exactly.
#[derive(Debug)]
pub struct KnnCoalitionScorer {
    table: DistanceTable,
    k: usize,
    train_y: Vec<usize>,
    valid_y: Vec<usize>,
    n_classes: usize,
}

impl KnnCoalitionScorer {
    /// Precompute the distance table for `(train, valid)` with `k` (≥ 1)
    /// neighbors.
    pub fn new(k: usize, train: &Dataset, valid: &Dataset) -> KnnCoalitionScorer {
        KnnCoalitionScorer {
            table: DistanceTable::new(train, valid),
            k: k.max(1),
            train_y: train.y.clone(),
            valid_y: valid.y.clone(),
            n_classes: train.n_classes,
        }
    }
}

impl CoalitionScorer for KnnCoalitionScorer {
    fn score_batch(&self, coalitions: &[&[usize]]) -> Vec<f64> {
        let m = self.table.n_valid();
        if m == 0 {
            // `Classifier::accuracy` returns 0.0 on an empty eval set.
            return vec![0.0; coalitions.len()];
        }
        let mut correct = vec![0usize; coalitions.len()];
        let mut sel: Vec<u128> = Vec::new();
        let mut votes = vec![0usize; self.n_classes];
        // Outer loop over validation points: each distance row is read once
        // and scores every coalition in the batch before moving on.
        for v in 0..m {
            let row = self.table.row(v);
            let truth = self.valid_y[v];
            for (ci, &members) in coalitions.iter().enumerate() {
                sel.clear();
                sel.extend(members.iter().map(|&i| order_key(row[i], i)));
                let k = self.k.min(sel.len());
                if k < sel.len() {
                    // Partial selection of the k nearest members; ties break
                    // by global index, which equals the subset-local order
                    // because `members` is ascending.
                    sel.select_nth_unstable(k);
                    sel.truncate(k);
                }
                votes.iter_mut().for_each(|c| *c = 0);
                for &key in &sel {
                    votes[self.train_y[key_index(key)]] += 1;
                }
                let pred = votes
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                    .map(|(c, _)| c)
                    .unwrap_or(0);
                if pred == truth {
                    correct[ci] += 1;
                }
            }
        }
        correct.iter().map(|&c| c as f64 / m as f64).collect()
    }

    fn n_train(&self) -> usize {
        self.table.n_train()
    }
}

/// Maintains a model's validation accuracy across single-example edits to
/// the training data, without refitting from scratch.
///
/// This is the model-side half of incremental cleaning: the iterative loop
/// accepts one fix at a time (a label flip, a feature repair, an inserted
/// or deleted row), and a prepared evaluator folds that fix into its
/// cached state instead of re-paying the full fit + evaluation sweep.
///
/// # Bit-identity contract
///
/// After any sequence of [`set_label`](IncrementalLabelEval::set_label) /
/// [`update_features`](IncrementalLabelEval::update_features) /
/// [`splice`](IncrementalLabelEval::splice) calls,
/// [`accuracy`](IncrementalLabelEval::accuracy) must return *exactly* the
/// `f64` that fitting a fresh clone of the model on the current training
/// data and calling [`crate::model::Classifier::accuracy`] on the
/// evaluation set would — incremental maintenance is a physical
/// optimization only, never observable in the score.
pub trait IncrementalLabelEval: Send {
    /// Accuracy on the evaluation set under the current training data.
    fn accuracy(&self) -> f64;

    /// Record a label change for one training example and refresh only the
    /// evaluation points that can see it.
    fn set_label(&mut self, row: usize, label: usize) -> Result<()>;

    /// Record feature changes: `train` is the full updated training
    /// dataset (same shape and labels as currently held), `changed` the
    /// rows whose feature vectors moved.
    fn update_features(&mut self, changed: &[usize], train: &Dataset) -> Result<()>;

    /// Record a splice of the training set: `row_map[old]` is where each
    /// old training row went (`None` = deleted), `train` the full new
    /// training set. The map is monotone (old row order is preserved), a
    /// surviving row keeps its features and label, and every new row no
    /// old row maps to was inserted.
    fn splice(&mut self, row_map: &[Option<usize>], train: &Dataset) -> Result<()>;
}

/// [`IncrementalLabelEval`] for KNN.
///
/// KNN's "fit" only remembers the training set, so its accuracy sweep is
/// dominated by the train→valid distance computation and the neighbor
/// selection over it. The evaluator keeps the [`DistanceTable`], each
/// validation point's k-nearest neighbor list, and an inverted index
/// (training row → validation points holding it among their neighbors).
/// It holds no training features: the table is all the geometry it needs.
///
/// - A **label** fix re-votes only the validation points in the inverted
///   index entry — O(k) each, microseconds against the full sweep's
///   O(m·n·d).
/// - A **feature** fix patches the changed distance columns via
///   [`DistanceTable::update_rows`] and re-selects the neighbors of only
///   the validation points it can affect: those holding a changed row,
///   those where a changed row now sorts before the k-th neighbor on
///   `(distance, index)`, and those with fewer than k neighbors. Every
///   other neighbor list provably keeps its top-k set.
/// - A **splice** moves the surviving distance columns through the row
///   map via [`DistanceTable::splice`], computes columns for the inserted
///   rows only, and remaps every neighbor list through the map (a monotone
///   map keeps the index tie order). It re-selects only the points that
///   lost a neighbor or that an inserted row now beats.
///
/// Selection is a linear-time partial select plus a sort of the k-prefix
/// over [`order_key`]s, the same `(distance, index)` order as
/// [`crate::models::knn::KnnClassifier::neighbors`]; each neighbor list
/// holds exactly its (at most k) entries.
#[derive(Debug, Clone)]
pub struct IncrementalKnnEval {
    table: DistanceTable,
    k: usize,
    /// Current training labels.
    labels: Vec<usize>,
    n_classes: usize,
    dim: usize,
    valid: Dataset,
    /// Per validation point: the k nearest training rows, closest first,
    /// ties by index — exactly `KnnClassifier::neighbors`.
    neighbors: Vec<Vec<usize>>,
    /// Training row → validation points with it among their neighbors.
    touching: Vec<Vec<usize>>,
    correct: Vec<bool>,
    n_correct: usize,
}

impl IncrementalKnnEval {
    /// Prepare the evaluator (computes the distance table and all neighbor
    /// lists once). Rejects an empty training set or a non-finite training
    /// feature, matching [`crate::model::Classifier::fit`] for KNN, and a
    /// non-finite validation feature.
    pub fn new(k: usize, train: &Dataset, valid: &Dataset) -> Result<IncrementalKnnEval> {
        if train.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if let Some((row, col)) = train.first_non_finite() {
            return Err(MlError::NonFiniteFeature { row, col });
        }
        if let Some((row, col)) = valid.first_non_finite() {
            return Err(MlError::InvalidArgument(format!(
                "validation data holds a non-finite feature at row {row}, column {col}"
            )));
        }
        let table = DistanceTable::new(train, valid);
        let k = k.max(1);
        let neighbors = (0..valid.len())
            .map(|v| nearest(table.row(v).iter().copied(), k))
            .collect();
        let mut eval = IncrementalKnnEval {
            table,
            k,
            labels: train.y.clone(),
            n_classes: train.n_classes,
            dim: train.dim(),
            valid: valid.clone(),
            neighbors,
            touching: Vec::new(),
            correct: vec![false; valid.len()],
            n_correct: 0,
        };
        eval.index_touching();
        for v in 0..valid.len() {
            eval.correct[v] = eval.vote(v) == eval.valid.y[v];
            eval.n_correct += usize::from(eval.correct[v]);
        }
        Ok(eval)
    }

    /// Rebuild the inverted index from the neighbor lists.
    fn index_touching(&mut self) {
        self.touching = vec![Vec::new(); self.labels.len()];
        for (v, nb) in self.neighbors.iter().enumerate() {
            for &i in nb {
                self.touching[i].push(v);
            }
        }
    }

    /// Re-select validation point `v`'s neighbors from the table, patch
    /// the inverted index for the rows that entered or left, and re-vote.
    fn reselect(&mut self, v: usize) {
        let fresh = nearest(self.table.row(v).iter().copied(), self.k);
        let old = std::mem::replace(&mut self.neighbors[v], fresh);
        for &i in &old {
            if !self.neighbors[v].contains(&i) {
                self.touching[i].retain(|&u| u != v);
            }
        }
        for &i in &self.neighbors[v] {
            if !old.contains(&i) {
                self.touching[i].push(v);
            }
        }
        self.revote(v);
    }

    /// Majority vote over the cached neighbor list (ties toward the
    /// smaller class id, like `KnnClassifier::predict_one`).
    fn vote(&self, v: usize) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for &i in &self.neighbors[v] {
            votes[self.labels[i]] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    fn revote(&mut self, v: usize) {
        let now = self.vote(v) == self.valid.y[v];
        if now != self.correct[v] {
            self.correct[v] = now;
            if now {
                self.n_correct += 1;
            } else {
                self.n_correct -= 1;
            }
        }
    }

    /// The maintained distance table.
    pub fn table(&self) -> &DistanceTable {
        &self.table
    }

    /// The current training labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

impl IncrementalLabelEval for IncrementalKnnEval {
    fn accuracy(&self) -> f64 {
        if self.valid.is_empty() {
            return 0.0;
        }
        self.n_correct as f64 / self.valid.len() as f64
    }

    fn set_label(&mut self, row: usize, label: usize) -> Result<()> {
        if row >= self.labels.len() {
            return Err(MlError::InvalidArgument(format!(
                "label fix row {row} out of bounds for {} training rows",
                self.labels.len()
            )));
        }
        if label >= self.n_classes {
            return Err(MlError::InvalidLabel {
                label,
                n_classes: self.n_classes,
            });
        }
        if self.labels[row] == label {
            return Ok(());
        }
        self.labels[row] = label;
        // Distances are untouched, so neighbor sets are untouched: only
        // the votes of validation points seeing this row can change.
        let viewers = std::mem::take(&mut self.touching[row]);
        for &v in &viewers {
            self.revote(v);
        }
        self.touching[row] = viewers;
        Ok(())
    }

    fn update_features(&mut self, changed: &[usize], train: &Dataset) -> Result<()> {
        if train.len() != self.labels.len()
            || train.dim() != self.dim
            || train.n_classes != self.n_classes
            || train.y != self.labels
        {
            return Err(MlError::InvalidArgument(
                "feature update must keep the training set's shape and labels".into(),
            ));
        }
        self.table.update_rows(changed, train, &self.valid)?;
        // A list holding a changed row may lose it or reorder; a list not
        // holding one changes only if a changed row now beats its k-th.
        let mut stale = vec![false; self.valid.len()];
        for &c in changed {
            for &v in &self.touching[c] {
                stale[v] = true;
            }
        }
        for (v, flag) in stale.iter_mut().enumerate() {
            let nb = &self.neighbors[v];
            let row = self.table.row(v);
            *flag = *flag
                || match nb.last() {
                    Some(&kth) if nb.len() == self.k => {
                        let bar = order_key(row[kth], kth);
                        changed.iter().any(|&c| order_key(row[c], c) < bar)
                    }
                    _ => true,
                };
        }
        for (v, flag) in stale.into_iter().enumerate() {
            if flag {
                self.reselect(v);
            }
        }
        Ok(())
    }

    fn splice(&mut self, row_map: &[Option<usize>], train: &Dataset) -> Result<()> {
        if train.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if train.dim() != self.dim || train.n_classes != self.n_classes {
            return Err(MlError::InvalidArgument(
                "splice must keep the training set's dimension and classes".into(),
            ));
        }
        // Validates the map before anything is mutated.
        let inserted = self.table.splice(row_map, train, &self.valid)?;
        self.labels.clone_from(&train.y);
        // Surviving neighbors keep their distances and (by monotonicity)
        // their index order, so the remapped list is still sorted. It is
        // the new top-k unless a neighbor was deleted or an inserted row
        // now beats the k-th (or joins a list that is not full).
        let mut stale = Vec::new();
        for (v, nb) in self.neighbors.iter_mut().enumerate() {
            let before = nb.len();
            nb.retain_mut(|i| match row_map[*i] {
                Some(new) => {
                    *i = new;
                    true
                }
                None => false,
            });
            let row = self.table.row(v);
            let beaten = match nb.last() {
                Some(&kth) if nb.len() == self.k => {
                    let bar = order_key(row[kth], kth);
                    inserted.iter().any(|&j| order_key(row[j], j) < bar)
                }
                _ => !inserted.is_empty(),
            };
            if nb.len() < before || beaten {
                stale.push(v);
            }
        }
        self.index_touching();
        for v in stale {
            self.reselect(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{utility, Classifier};
    use crate::models::knn::KnnClassifier;
    use nde_data::generate::blobs::two_gaussians;
    use nde_data::rng::Rng;

    fn workload(n: usize, m: usize, seed: u64) -> (Dataset, Dataset) {
        let nd = two_gaussians(n + m, 3, 3.0, seed);
        let all = Dataset::try_from(&nd).unwrap();
        let mut train = all.subset(&(0..n).collect::<Vec<_>>());
        let valid = all.subset(&(n..n + m).collect::<Vec<_>>());
        for f in [1, 4, 9] {
            if f < train.len() {
                train.y[f] = 1 - train.y[f];
            }
        }
        (train, valid)
    }

    #[test]
    fn distance_table_matches_squared_distance() {
        let (train, valid) = workload(12, 6, 1);
        let table = DistanceTable::new(&train, &valid);
        assert_eq!(table.n_train(), 12);
        assert_eq!(table.n_valid(), 6);
        for (v, vx) in valid.x.iter_rows().enumerate() {
            for (i, tx) in train.x.iter_rows().enumerate() {
                assert_eq!(table.row(v)[i], squared_distance(tx, vx));
            }
        }
    }

    #[test]
    fn knn_scorer_is_bit_identical_to_retraining() {
        let (train, valid) = workload(16, 8, 2);
        for k in [1, 3, 5, 100] {
            let scorer = KnnCoalitionScorer::new(k, &train, &valid);
            let coalitions: Vec<Vec<usize>> = vec![
                vec![0],
                vec![3, 7],
                vec![0, 1, 2, 3, 4],
                (0..16).collect(),
                vec![2, 5, 11, 15],
            ];
            let refs: Vec<&[usize]> = coalitions.iter().map(|c| c.as_slice()).collect();
            let batched = scorer.score_batch(&refs);
            for (c, &got) in coalitions.iter().zip(&batched) {
                let want = utility(&KnnClassifier::new(k), &train.subset(c), &valid).unwrap();
                assert_eq!(got, want, "k={k} coalition={c:?}");
            }
        }
    }

    #[test]
    fn update_rows_matches_fresh_table_bit_for_bit() {
        let (mut train, valid) = workload(20, 9, 7);
        let mut table = DistanceTable::new(&train, &valid);
        // Move a few training points, patch, and compare to a fresh build.
        let changed = [0usize, 7, 13, 19];
        for &i in &changed {
            let mut rows: Vec<Vec<f64>> = train.x.iter_rows().map(<[f64]>::to_vec).collect();
            for v in &mut rows[i] {
                *v = *v * 1.5 + 0.25;
            }
            train.x = crate::linalg::Matrix::from_rows(rows).unwrap();
        }
        table.update_rows(&changed, &train, &valid).unwrap();
        let fresh = DistanceTable::new(&train, &valid);
        for v in 0..valid.len() {
            for i in 0..train.len() {
                assert_eq!(
                    table.row(v)[i].to_bits(),
                    fresh.row(v)[i].to_bits(),
                    "cell ({v},{i})"
                );
            }
        }
        // Shape and bounds are validated.
        assert!(table.update_rows(&[99], &train, &valid).is_err());
        let short = train.subset(&(0..5).collect::<Vec<_>>());
        assert!(table.update_rows(&[0], &short, &valid).is_err());
    }

    #[test]
    fn incremental_knn_eval_matches_refit_exactly() {
        let (mut train, valid) = workload(24, 11, 5);
        let mut eval = IncrementalKnnEval::new(3, &train, &valid).unwrap();
        let refit = |train: &Dataset| utility(&KnnClassifier::new(3), train, &valid).unwrap();
        assert_eq!(eval.accuracy(), refit(&train));
        // A sequence of label fixes, each checked bit-identical to refit.
        for row in [0, 5, 9, 5, 17, 23] {
            let new_label = 1 - train.y[row];
            train.y[row] = new_label;
            eval.set_label(row, new_label).unwrap();
            assert_eq!(eval.accuracy(), refit(&train), "after fixing row {row}");
        }
        // Feature fixes route through update_rows + re-selection.
        let moved = [2usize, 11, 20];
        let mut rows: Vec<Vec<f64>> = train.x.iter_rows().map(<[f64]>::to_vec).collect();
        for &i in &moved {
            for v in &mut rows[i] {
                *v = -*v;
            }
        }
        train.x = crate::linalg::Matrix::from_rows(rows).unwrap();
        eval.update_features(&moved, &train).unwrap();
        assert_eq!(eval.accuracy(), refit(&train), "after feature update");
        // And label fixes keep working on the patched geometry.
        train.y[2] = 1 - train.y[2];
        eval.set_label(2, train.y[2]).unwrap();
        assert_eq!(eval.accuracy(), refit(&train));
        // Redundant fix is a no-op.
        eval.set_label(2, train.y[2]).unwrap();
        assert_eq!(eval.accuracy(), refit(&train));
    }

    /// Fresh-fit oracle: accuracy bits, every neighbor list, and the
    /// inverted index must all match a `KnnClassifier` fitted from scratch.
    fn assert_matches_fresh_fit(eval: &IncrementalKnnEval, train: &Dataset, valid: &Dataset) {
        let mut model = KnnClassifier::new(eval.k);
        model.fit(train).unwrap();
        assert_eq!(eval.accuracy().to_bits(), model.accuracy(valid).to_bits());
        assert_eq!(eval.labels(), train.y.as_slice());
        for (v, vx) in valid.x.iter_rows().enumerate() {
            assert_eq!(eval.neighbors[v], model.neighbors(vx), "point {v}");
        }
        assert_eq!(eval.touching.len(), train.len());
        for (i, viewers) in eval.touching.iter().enumerate() {
            let mut got = viewers.clone();
            got.sort_unstable();
            let want: Vec<usize> = (0..valid.len())
                .filter(|&v| eval.neighbors[v].contains(&i))
                .collect();
            assert_eq!(got, want, "touching[{i}]");
        }
    }

    /// A point on a 4×4 integer grid: equal distances and duplicated rows
    /// are the norm, so every tie-break is exercised.
    fn grid_point(rng: &mut impl Rng) -> Vec<f64> {
        vec![rng.gen_range(0..4u64) as f64, rng.gen_range(0..4u64) as f64]
    }

    fn rows_of(data: &Dataset) -> Vec<Vec<f64>> {
        data.x.iter_rows().map(<[f64]>::to_vec).collect()
    }

    /// Move `rows` of `train` to `points` and push the change through the
    /// evaluator.
    fn move_rows(
        eval: &mut IncrementalKnnEval,
        train: &mut Dataset,
        rows: &[usize],
        points: Vec<Vec<f64>>,
    ) {
        let mut all = rows_of(train);
        for (&r, p) in rows.iter().zip(points) {
            all[r] = p;
        }
        train.x = crate::linalg::Matrix::from_rows(all).unwrap();
        eval.update_features(rows, train).unwrap();
    }

    /// One row of a spliced training set: a surviving old row, or an
    /// inserted `(point, label)`.
    enum Spliced {
        Old(usize),
        New(Vec<f64>, usize),
    }

    /// Splice `train`: keep the rows with `keep[old]`, then insert each
    /// `(position, point, label)` in order, and push the row map through
    /// the evaluator.
    fn splice_rows(
        eval: &mut IncrementalKnnEval,
        train: &mut Dataset,
        keep: &[bool],
        inserts: Vec<(usize, Vec<f64>, usize)>,
    ) {
        let mut order: Vec<Spliced> = (0..train.len())
            .filter(|&o| keep[o])
            .map(Spliced::Old)
            .collect();
        for (pos, point, label) in inserts {
            order.insert(pos.min(order.len()), Spliced::New(point, label));
        }
        let old_rows = rows_of(train);
        let mut row_map = vec![None; train.len()];
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for (new, entry) in order.into_iter().enumerate() {
            match entry {
                Spliced::Old(o) => {
                    row_map[o] = Some(new);
                    xs.push(old_rows[o].clone());
                    ys.push(train.y[o]);
                }
                Spliced::New(point, label) => {
                    xs.push(point);
                    ys.push(label);
                }
            }
        }
        *train = Dataset::from_rows(xs, ys, train.n_classes).unwrap();
        eval.splice(&row_map, train).unwrap();
    }

    /// A random insert for a splice of an `n`-row set: position, grid
    /// point, label.
    fn random_insert(n: usize, rng: &mut impl Rng) -> (usize, Vec<f64>, usize) {
        let pos = rng.gen_range(0..n + 1);
        (pos, grid_point(rng), rng.gen_range(0..3usize))
    }

    /// One random edit: a label fix, a move of 1–3 rows, or a splice that
    /// deletes and inserts rows (never down to an empty set).
    fn random_edit(eval: &mut IncrementalKnnEval, train: &mut Dataset, rng: &mut impl Rng) {
        let n = train.len();
        match rng.gen_range(0..3u64) {
            0 => {
                let row = rng.gen_range(0..n);
                let label = rng.gen_range(0..3usize);
                train.y[row] = label;
                eval.set_label(row, label).unwrap();
            }
            1 => {
                let mut rows: Vec<usize> = (0..rng.gen_range(1..4usize))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                let points = rows.iter().map(|_| grid_point(rng)).collect();
                move_rows(eval, train, &rows, points);
            }
            _ => {
                let mut keep: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.8)).collect();
                let n_inserts = rng.gen_range(0..4usize);
                let inserts = (0..n_inserts).map(|_| random_insert(n, rng)).collect();
                if n_inserts == 0 && !keep.contains(&true) {
                    keep[0] = true;
                }
                splice_rows(eval, train, &keep, inserts);
            }
        }
    }

    #[test]
    fn incremental_knn_eval_matches_fresh_fit_under_heavy_ties() {
        const N: usize = 12;
        for seed in 0..6u64 {
            for k in [1, 3, 5, N + 2] {
                let mut rng = nde_data::rng::seeded(0x71e5 ^ seed);
                let mut points: Vec<Vec<f64>> = (0..N).map(|_| grid_point(&mut rng)).collect();
                // Duplicated rows on top of the grid's own collisions.
                points[1] = points[0].clone();
                points[7] = points[3].clone();
                let labels = (0..N).map(|_| rng.gen_range(0..3usize)).collect();
                let mut train = Dataset::from_rows(points, labels, 3).unwrap();
                let valid_points = (0..7).map(|_| grid_point(&mut rng)).collect();
                let valid_labels = (0..7).map(|_| rng.gen_range(0..3usize)).collect();
                let valid = Dataset::from_rows(valid_points, valid_labels, 3).unwrap();
                let mut eval = IncrementalKnnEval::new(k, &train, &valid).unwrap();
                assert_matches_fresh_fit(&eval, &train, &valid);

                // Push valid point 0's nearest neighbor out past the k-th,
                // then pull that far point back in on top of the point.
                let first = eval.neighbors[0][0];
                move_rows(&mut eval, &mut train, &[first], vec![vec![40.0, 40.0]]);
                assert_matches_fresh_fit(&eval, &train, &valid);
                let on_point = valid.x.row(0).to_vec();
                move_rows(&mut eval, &mut train, &[first], vec![on_point]);
                assert_matches_fresh_fit(&eval, &train, &valid);

                // Shrink n below k (one survivor), then grow it back.
                let mut keep = vec![false; train.len()];
                keep[rng.gen_range(0..train.len())] = true;
                splice_rows(&mut eval, &mut train, &keep, Vec::new());
                assert_matches_fresh_fit(&eval, &train, &valid);
                let regrow = (0..N).map(|_| random_insert(N, &mut rng)).collect();
                splice_rows(&mut eval, &mut train, &[true], regrow);
                assert_matches_fresh_fit(&eval, &train, &valid);

                for _ in 0..60 {
                    random_edit(&mut eval, &mut train, &mut rng);
                    assert_matches_fresh_fit(&eval, &train, &valid);
                }
            }
        }
    }

    fn splice_fixture() -> (IncrementalKnnEval, Dataset, Dataset) {
        let (train, valid) = workload(6, 4, 12);
        let eval = IncrementalKnnEval::new(3, &train, &valid).unwrap();
        (eval, train, valid)
    }

    #[test]
    fn splice_rejects_non_monotone_row_map() {
        let (mut eval, train, valid) = splice_fixture();
        let swapped = train.subset(&[0, 1, 3, 2, 4, 5]);
        let map = [Some(0), Some(1), Some(3), Some(2), Some(4), Some(5)];
        let err = eval.splice(&map, &swapped).unwrap_err();
        assert!(matches!(err, MlError::InvalidArgument(_)), "{err:?}");
        assert_matches_fresh_fit(&eval, &train, &valid);
    }

    #[test]
    fn splice_rejects_out_of_range_row_map() {
        let (mut eval, train, valid) = splice_fixture();
        let shorter = train.subset(&[0, 1, 2, 3, 4]);
        let map = [Some(0), Some(1), Some(2), Some(3), None, Some(5)];
        let err = eval.splice(&map, &shorter).unwrap_err();
        assert!(matches!(err, MlError::InvalidArgument(_)), "{err:?}");
        assert_matches_fresh_fit(&eval, &train, &valid);
    }

    #[test]
    fn splice_rejects_row_map_of_wrong_length() {
        let (mut eval, train, valid) = splice_fixture();
        let map = [Some(0), Some(1), Some(2), Some(3), Some(4)];
        let err = eval.splice(&map, &train).unwrap_err();
        assert!(matches!(err, MlError::InvalidArgument(_)), "{err:?}");
        assert_matches_fresh_fit(&eval, &train, &valid);
        // A valid map still splices afterwards.
        let fewer = train.subset(&[0, 2, 3, 4, 5]);
        let map = [Some(0), None, Some(1), Some(2), Some(3), Some(4)];
        eval.splice(&map, &fewer).unwrap();
        assert_matches_fresh_fit(&eval, &fewer, &valid);
    }

    #[test]
    fn non_finite_features_are_refused_and_leave_the_evaluator_untouched() {
        let (train, valid) = workload(8, 4, 9);
        let mut bad = train.clone();
        bad.x.row_mut(5)[2] = f64::NAN;
        assert_eq!(
            IncrementalKnnEval::new(3, &bad, &valid).unwrap_err(),
            MlError::NonFiniteFeature { row: 5, col: 2 }
        );
        assert!(matches!(
            IncrementalKnnEval::new(3, &valid, &bad),
            Err(MlError::InvalidArgument(_))
        ));

        let mut eval = IncrementalKnnEval::new(3, &train, &valid).unwrap();
        let err = eval.update_features(&[5], &bad).unwrap_err();
        assert_eq!(err, MlError::NonFiniteFeature { row: 5, col: 2 });
        assert_matches_fresh_fit(&eval, &train, &valid);

        // An inserted row with an infinite feature; surviving rows are not
        // re-checked (the evaluator already holds them).
        let mut grown = train.subset(&[0, 1, 2, 3, 3, 4, 5, 6, 7]);
        grown.x.row_mut(4)[0] = f64::INFINITY;
        let map: Vec<Option<usize>> = (0..8).map(|i| Some(i + usize::from(i >= 4))).collect();
        let err = eval.splice(&map, &grown).unwrap_err();
        assert_eq!(err, MlError::NonFiniteFeature { row: 4, col: 0 });
        assert_matches_fresh_fit(&eval, &train, &valid);

        // A finite fix still goes through afterwards.
        let mut moved = train.clone();
        moved.x.row_mut(5)[2] += 1.5;
        eval.update_features(&[5], &moved).unwrap();
        assert_matches_fresh_fit(&eval, &moved, &valid);
    }

    #[test]
    fn incremental_knn_eval_validates() {
        let (train, valid) = workload(8, 4, 9);
        assert!(IncrementalKnnEval::new(1, &train.subset(&[]), &valid).is_err());
        let mut eval = IncrementalKnnEval::new(1, &train, &valid).unwrap();
        assert!(eval.set_label(99, 0).is_err());
        assert!(eval.set_label(0, 99).is_err());
        let short = train.subset(&(0..4).collect::<Vec<_>>());
        assert!(eval.update_features(&[0], &short).is_err());
        // Empty eval set scores 0.0, like `Classifier::accuracy`.
        let empty = valid.subset(&[]);
        let eval = IncrementalKnnEval::new(1, &train, &empty).unwrap();
        assert_eq!(eval.accuracy(), 0.0);
    }

    #[test]
    fn incremental_hook_returns_evaluator_for_knn_only() {
        let (train, valid) = workload(8, 4, 6);
        let knn = KnnClassifier::new(2);
        assert!(knn.incremental_eval(&train, &valid).is_some());
        let majority = crate::models::majority::MajorityClassifier::new();
        assert!(majority.incremental_eval(&train, &valid).is_none());
    }

    #[test]
    fn empty_validation_set_scores_zero() {
        let (train, valid) = workload(8, 4, 3);
        let empty = valid.subset(&[]);
        let scorer = KnnCoalitionScorer::new(1, &train, &empty);
        assert_eq!(scorer.score_batch(&[&[0, 1][..]]), vec![0.0]);
    }

    #[test]
    fn classifier_hook_returns_scorer_for_knn_only() {
        let (train, valid) = workload(8, 4, 4);
        let knn = KnnClassifier::new(2);
        let scorer = knn.coalition_scorer(&train, &valid);
        assert!(scorer.is_some());
        assert_eq!(scorer.unwrap().n_train(), 8);
        // A generic classifier keeps the default (no batched path).
        let majority = crate::models::majority::MajorityClassifier::new();
        assert!(majority.coalition_scorer(&train, &valid).is_none());
    }
}
