//! Zorro-style symbolic training under missing-value uncertainty
//! (Zhu, Feng, Glavic & Salimi: "Learning from Uncertain Data: From Possible
//! Worlds to Possible Models", NeurIPS'24).
//!
//! Zorro trains a linear model while propagating the uncertainty of missing
//! cells *symbolically* through every gradient step, producing a set of
//! **possible models** that over-approximates the models reachable under any
//! imputation. From it we obtain sound **prediction ranges** and
//! **worst-case loss bounds** (the Fig. 4 quantity). The original uses
//! zonotopes; we use interval abstraction — coarser but equally sound, and
//! sufficient to reproduce the qualitative behaviour (bounds grow
//! monotonically with the amount of missingness).

use crate::interval::{interval_dot, Interval};
use crate::soa::{self, IntervalMatrix, IntervalVec};
use crate::symbolic::SymbolicMatrix;
use crate::{Result, UncertainError};
use nde_data::par::{tree_reduce, CostHint, WorkerFailure};
use nde_data::pool::WorkerPool;
use nde_ml::linalg::Matrix;
use nde_robust::{ConvergenceDiagnostics, RobustError, RunBudget, Snapshot};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Rows per gradient block. Every trainer in this module — the SoA engine,
/// the AoS reference, and the concrete GD — accumulates per-block partial
/// gradients over blocks of exactly this many rows and folds them through
/// the canonical [`tree_reduce`] shape. The shape depends only on the row
/// count, so results are bit-identical at every thread count, and the three
/// trainers stay bit-comparable to each other (point intervals degenerate
/// to the concrete scalar computation op-for-op).
pub const GRADIENT_BLOCK: usize = 128;

/// Hyperparameters for symbolic (and matching concrete) gradient descent.
#[derive(Debug, Clone)]
pub struct ZorroConfig {
    /// Full-batch gradient steps.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization.
    pub l2: f64,
    /// Abort when any weight bound exceeds this magnitude.
    pub divergence_threshold: f64,
    /// Worker threads for the per-epoch gradient blocks. Output is
    /// bit-identical for every value (see [`GRADIENT_BLOCK`]).
    pub threads: usize,
    /// Worker pool the gradient blocks run on; `None` uses the resident
    /// process-wide pool ([`WorkerPool::shared`]). Scheduling only — the
    /// pool can never affect the fitted weights.
    pub pool: Option<Arc<WorkerPool>>,
}

impl Default for ZorroConfig {
    fn default() -> Self {
        ZorroConfig {
            epochs: 60,
            learning_rate: 0.1,
            l2: 1e-3,
            divergence_threshold: 1e6,
            threads: 1,
            pool: None,
        }
    }
}

impl ZorroConfig {
    /// Set the gradient worker thread count.
    pub fn with_threads(mut self, threads: usize) -> ZorroConfig {
        self.threads = threads;
        self
    }

    /// Run gradient blocks on a dedicated pool instead of the shared one.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> ZorroConfig {
        self.pool = Some(pool);
        self
    }

    /// The pool gradient blocks run on.
    fn pool(&self) -> Arc<WorkerPool> {
        self.pool.clone().unwrap_or_else(WorkerPool::shared)
    }
}

/// Durable snapshot of an interrupted [`ZorroRegressor`] fit: the weight
/// planes after `epochs_done` completed full-batch epochs. Training is
/// deterministic, so resuming from the snapshot via
/// [`ZorroRegressor::fit_uncertain_resumable`] is bit-identical to never
/// stopping. Implements [`Snapshot`], so budgeted fits checkpoint through
/// the same durable [`RunStore`](nde_robust::RunStore) records as the
/// importance estimators.
#[derive(Debug, Clone, PartialEq)]
pub struct ZorroCheckpoint {
    /// Completed full-batch epochs.
    pub epochs_done: u64,
    /// Learning rate of the fit that wrote the snapshot.
    pub learning_rate: f64,
    /// L2 regularization of the fit that wrote the snapshot.
    pub l2: f64,
    /// Lower weight plane (`d + 1`, bias last).
    pub lo: Vec<f64>,
    /// Upper weight plane (`d + 1`, bias last).
    pub hi: Vec<f64>,
}

impl Snapshot for ZorroCheckpoint {
    const METHOD: &'static str = "zorro-fit";

    fn step(&self) -> u64 {
        self.epochs_done
    }

    /// Matching plane lengths and ordered, finite bounds (in-process
    /// snapshots are resumed without a decode, so finiteness is checked
    /// here too).
    fn validate(&self) -> nde_robust::Result<()> {
        if self.lo.is_empty() || self.lo.len() != self.hi.len() {
            return Err(RobustError::Checkpoint(format!(
                "weight planes have lengths {} and {}",
                self.lo.len(),
                self.hi.len()
            )));
        }
        for (i, (&lo, &hi)) in self.lo.iter().zip(&self.hi).enumerate() {
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                return Err(RobustError::Checkpoint(format!(
                    "weight {i} bounds [{lo}, {hi}] are not finite and ordered"
                )));
            }
        }
        Ok(())
    }

    nde_robust::snapshot_fields!(epochs_done, learning_rate, l2, lo, hi);
}

/// A linear regressor trained symbolically over interval features.
#[derive(Debug, Clone)]
pub struct ZorroRegressor {
    /// Training configuration.
    pub config: ZorroConfig,
    weights: Option<Vec<Interval>>, // d + 1, bias last
}

impl ZorroRegressor {
    /// Create an unfitted symbolic regressor.
    pub fn new(config: ZorroConfig) -> ZorroRegressor {
        ZorroRegressor {
            config,
            weights: None,
        }
    }

    /// Train by interval batch gradient descent on symbolic features `x`
    /// and concrete targets `y`.
    pub fn fit(&mut self, x: &SymbolicMatrix, y: &[f64]) -> Result<()> {
        let targets: Vec<Interval> = y.iter().map(|&v| Interval::point(v)).collect();
        self.fit_uncertain(x, &targets)
    }

    /// [`Self::fit`] under a [`RunBudget`]: runs at most the budgeted number
    /// of epochs (each epoch is one budget iteration) and keeps the
    /// best-so-far weights when a limit trips. See
    /// [`Self::fit_uncertain_budgeted`].
    pub fn fit_budgeted(
        &mut self,
        x: &SymbolicMatrix,
        y: &[f64],
        budget: &RunBudget,
    ) -> Result<ConvergenceDiagnostics> {
        let targets: Vec<Interval> = y.iter().map(|&v| Interval::point(v)).collect();
        self.fit_uncertain_budgeted(x, &targets, budget)
    }

    /// Train with **uncertain labels** as well: every target is itself an
    /// interval (Fig. 4's hands-on session injects "synthetic missing
    /// attributes *and uncertain labels*"). Point targets recover [`Self::fit`].
    pub fn fit_uncertain(&mut self, x: &SymbolicMatrix, y: &[Interval]) -> Result<()> {
        self.fit_uncertain_budgeted(x, y, &RunBudget::unlimited())
            .map(|_| ())
    }

    /// [`Self::fit_uncertain`] under a [`RunBudget`].
    ///
    /// This is the **SoA engine** path: the symbolic matrix is re-laid into
    /// contiguous `lo`/`hi` planes once, each epoch's gradient is
    /// accumulated per [`GRADIENT_BLOCK`]-row block with the fused
    /// [`soa::dot`] / [`soa::axpy`] kernels — blocks run on
    /// `config.threads` workers — and the partials fold through the
    /// canonical [`tree_reduce`] shape, so the weights are bit-identical at
    /// every thread count and to the AoS reference
    /// ([`Self::fit_uncertain_reference`]).
    ///
    /// The budget is checked at **epoch boundaries**: when it trips, training
    /// stops and the weights after the last completed epoch are kept as a
    /// best-so-far model (the returned [`ConvergenceDiagnostics`] records how
    /// many epochs ran and which limit tripped). Divergence still fails with
    /// [`UncertainError::Diverged`] — a diverged model is not worth keeping.
    pub fn fit_uncertain_budgeted(
        &mut self,
        x: &SymbolicMatrix,
        y: &[Interval],
        budget: &RunBudget,
    ) -> Result<ConvergenceDiagnostics> {
        self.fit_uncertain_resumable(x, y, budget, None)
            .map(|(diag, _)| diag)
    }

    /// [`Self::fit_uncertain_budgeted`] that can also **resume** a fit cut
    /// short by an earlier budget trip (or crash): pass the
    /// [`ZorroCheckpoint`] the interrupted call returned and training
    /// continues at the next epoch, bit-identical to an uninterrupted run.
    /// A snapshot with the wrong weight dimension, more epochs than this
    /// configuration allows, or another learning rate or L2 weight is
    /// rejected with [`UncertainError::Checkpoint`].
    pub fn fit_uncertain_resumable(
        &mut self,
        x: &SymbolicMatrix,
        y: &[Interval],
        budget: &RunBudget,
        resume: Option<&ZorroCheckpoint>,
    ) -> Result<(ConvergenceDiagnostics, ZorroCheckpoint)> {
        validate_fit_args(x, y, &self.config)?;
        let n = x.len() as f64;
        let d = x.cols();
        let sx = IntervalMatrix::from_symbolic(x);
        let sy = IntervalVec::from_intervals(y);
        let (mut w, done) = match resume {
            Some(cp) => {
                cp.validate()?;
                if cp.lo.len() != d + 1 {
                    return Err(UncertainError::Checkpoint(format!(
                        "snapshot holds {} weights but this run needs {}",
                        cp.lo.len(),
                        d + 1
                    )));
                }
                if cp.epochs_done as usize > self.config.epochs {
                    return Err(UncertainError::Checkpoint(format!(
                        "snapshot at epoch {} exceeds configured epochs {}",
                        cp.epochs_done, self.config.epochs
                    )));
                }
                let (lr, l2) = (self.config.learning_rate, self.config.l2);
                if cp.learning_rate.to_bits() != lr.to_bits() || cp.l2.to_bits() != l2.to_bits() {
                    return Err(UncertainError::Checkpoint(format!(
                        "snapshot (learning_rate {}, l2 {}) does not match run \
                         (learning_rate {lr}, l2 {l2})",
                        cp.learning_rate, cp.l2
                    )));
                }
                let w = IntervalVec {
                    lo: cp.lo.clone(),
                    hi: cp.hi.clone(),
                };
                (w, cp.epochs_done)
            }
            None => (IntervalVec::zeros(d + 1), 0),
        };
        let mut clock = budget.resume(done, 0);
        let pool = self.config.pool();

        for _epoch in done as usize..self.config.epochs {
            if clock.exhausted().is_some() {
                break; // keep the best-so-far weights
            }
            let grad = epoch_gradient_soa(&sx, &sy, &w, self.config.threads, &pool)?;
            update_weights(&mut w, &grad, n, &self.config)?;
            clock.record_iteration();
        }
        let checkpoint = ZorroCheckpoint {
            epochs_done: clock.iterations(),
            learning_rate: self.config.learning_rate,
            l2: self.config.l2,
            lo: w.lo.clone(),
            hi: w.hi.clone(),
        };
        self.weights = Some(w.to_intervals());
        Ok((clock.diagnostics(None), checkpoint))
    }

    /// The AoS **reference trainer**: scalar [`Interval`] arithmetic over
    /// the symbolic rows, sequential, but with the same
    /// [`GRADIENT_BLOCK`]/[`tree_reduce`] accumulation shape as the SoA
    /// engine — so its weights must be bit-identical to
    /// [`Self::fit_uncertain_budgeted`] at every thread count. Kept (like
    /// the provenance engine's recursive `ProvExpr`) as the cross-check
    /// the property tests compare the optimized path against.
    pub fn fit_uncertain_reference(&mut self, x: &SymbolicMatrix, y: &[Interval]) -> Result<()> {
        validate_fit_args(x, y, &self.config)?;
        let n = x.len() as f64;
        let d = x.cols();
        let mut w = IntervalVec::zeros(d + 1);

        for _epoch in 0..self.config.epochs {
            let partials: Vec<IntervalVec> = (0..x.len())
                .step_by(GRADIENT_BLOCK)
                .map(|start| {
                    let end = (start + GRADIENT_BLOCK).min(x.len());
                    let mut grad = vec![Interval::point(0.0); d + 1];
                    let w_iv = w.to_intervals();
                    #[allow(clippy::needless_range_loop)] // r indexes both x and y
                    for r in start..end {
                        let row = x.row(r);
                        // err = w·x + b − y (all intervals).
                        let mut err = interval_dot(&w_iv[..d], row) + w_iv[d];
                        err = err - y[r];
                        for j in 0..d {
                            grad[j] = grad[j] + err * row[j];
                        }
                        grad[d] = grad[d] + err;
                    }
                    IntervalVec::from_intervals(&grad)
                })
                .collect();
            let grad = reduce_gradients(partials, d);
            update_weights(&mut w, &grad, n, &self.config)?;
        }
        self.weights = Some(w.to_intervals());
        Ok(())
    }

    /// The learned weight intervals (`d + 1`, bias last), if fitted.
    pub fn weight_intervals(&self) -> Option<&[Interval]> {
        self.weights.as_deref()
    }

    /// Sound range of predictions for a concrete feature vector.
    pub fn predict_range(&self, x: &[f64]) -> Result<Interval> {
        let w = self
            .weights
            .as_ref()
            .ok_or_else(|| UncertainError::InvalidArgument("model not fitted".into()))?;
        if x.len() + 1 != w.len() {
            return Err(UncertainError::InvalidArgument(format!(
                "expected {} features, got {}",
                w.len() - 1,
                x.len()
            )));
        }
        // Accumulate features first, bias last — the same association order
        // as the concrete predictor, so point intervals reproduce concrete
        // predictions bit-exactly.
        let mut out = Interval::point(0.0);
        for (wi, &xi) in w.iter().zip(x) {
            out = out + wi.scale(xi);
        }
        Ok(out + w[x.len()])
    }

    /// Per-example interval of the squared loss on a concrete test set.
    pub fn squared_loss_ranges(&self, x: &Matrix, y: &[f64]) -> Result<Vec<Interval>> {
        if x.rows() != y.len() {
            return Err(UncertainError::InvalidArgument(format!(
                "{} rows but {} targets",
                x.rows(),
                y.len()
            )));
        }
        x.iter_rows()
            .zip(y)
            .map(|(row, &target)| {
                let pred = self.predict_range(row)?;
                Ok((pred - Interval::point(target)).square())
            })
            .collect()
    }

    /// The **maximum worst-case loss** over a test set: the largest upper
    /// bound of any example's squared-loss interval (Fig. 4's y-axis).
    pub fn max_worst_case_loss(&self, x: &Matrix, y: &[f64]) -> Result<f64> {
        Ok(self
            .squared_loss_ranges(x, y)?
            .iter()
            .map(|i| i.hi)
            .fold(0.0, f64::max))
    }

    /// Mean worst-case loss: the average squared-loss upper bound.
    pub fn mean_worst_case_loss(&self, x: &Matrix, y: &[f64]) -> Result<f64> {
        let ranges = self.squared_loss_ranges(x, y)?;
        if ranges.is_empty() {
            return Ok(0.0);
        }
        Ok(ranges.iter().map(|i| i.hi).sum::<f64>() / ranges.len() as f64)
    }
}

fn validate_fit_args(x: &SymbolicMatrix, y: &[Interval], config: &ZorroConfig) -> Result<()> {
    if x.is_empty() {
        return Err(UncertainError::InvalidArgument("empty training set".into()));
    }
    if x.len() != y.len() {
        return Err(UncertainError::InvalidArgument(format!(
            "{} rows but {} targets",
            x.len(),
            y.len()
        )));
    }
    if config.epochs == 0 || config.learning_rate <= 0.0 {
        return Err(UncertainError::InvalidArgument(
            "epochs must be > 0 and learning_rate > 0".into(),
        ));
    }
    Ok(())
}

/// One epoch's full gradient over the SoA planes: per-[`GRADIENT_BLOCK`]
/// partials computed by `threads` workers, folded through the canonical
/// [`tree_reduce`] shape.
fn epoch_gradient_soa(
    sx: &IntervalMatrix,
    sy: &IntervalVec,
    w: &IntervalVec,
    threads: usize,
    pool: &WorkerPool,
) -> Result<IntervalVec> {
    let rows = sx.rows();
    let d = sx.cols();
    let n_blocks = rows.div_ceil(GRADIENT_BLOCK);
    let stop = AtomicBool::new(false);
    // Interval ops per block scale with the feature count; the hint keeps
    // narrow small fits sequential and skips the timing probe per epoch.
    let cost = CostHint::PerItemNanos((GRADIENT_BLOCK * (d + 1)) as u64 * 30);
    let partials = pool
        .map_indexed::<IntervalVec, UncertainError, _>(
            threads,
            0..n_blocks as u64,
            &stop,
            cost,
            |b| {
                let start = b as usize * GRADIENT_BLOCK;
                let end = (start + GRADIENT_BLOCK).min(rows);
                let mut grad = IntervalVec::zeros(d + 1);
                for r in start..end {
                    let (x_lo, x_hi) = (sx.row_lo(r), sx.row_hi(r));
                    // err = w·x + b − y, fused over the planes in the exact
                    // operation order of the AoS reference path.
                    let (mut e_lo, mut e_hi) = soa::dot(&w.lo[..d], &w.hi[..d], x_lo, x_hi);
                    e_lo += w.lo[d];
                    e_hi += w.hi[d];
                    let err_lo = e_lo - sy.hi[r];
                    let err_hi = e_hi - sy.lo[r];
                    soa::axpy(
                        err_lo,
                        err_hi,
                        x_lo,
                        x_hi,
                        &mut grad.lo[..d],
                        &mut grad.hi[..d],
                    );
                    grad.lo[d] += err_lo;
                    grad.hi[d] += err_hi;
                }
                Ok(grad)
            },
        )
        .map_err(|fail| match fail {
            WorkerFailure::Err(_, e) => e,
            WorkerFailure::Panic(b, msg) => panic!("gradient worker panicked at block {b}: {msg}"),
        })?;
    Ok(reduce_gradients(
        partials.into_iter().map(|(_, g)| g).collect(),
        d,
    ))
}

/// Fold per-block partial gradients through the canonical [`tree_reduce`]
/// shape with plane-wise adds (the same `lo + lo` / `hi + hi` as
/// `Interval::add`, so the AoS and SoA paths reduce bit-identically).
fn reduce_gradients(partials: Vec<IntervalVec>, d: usize) -> IntervalVec {
    tree_reduce(partials, |mut a, b| {
        for j in 0..=d {
            a.lo[j] += b.lo[j];
            a.hi[j] += b.hi[j];
        }
        a
    })
    .unwrap_or_else(|| IntervalVec::zeros(d + 1))
}

/// The per-epoch weight update shared by the SoA engine and the AoS
/// reference: `w ← w − lr · (∇/n + l2·w)` in scalar [`Interval`] ops
/// (d + 1 of them — never the hot path), with the divergence check.
fn update_weights(
    w: &mut IntervalVec,
    grad: &IntervalVec,
    n: f64,
    config: &ZorroConfig,
) -> Result<()> {
    for j in 0..w.len() {
        let mut g = grad.get(j).scale(1.0 / n);
        g = g + w.get(j).scale(config.l2);
        let wj = w.get(j) - g.scale(config.learning_rate);
        if wj.abs_max() > config.divergence_threshold {
            return Err(UncertainError::Diverged(format!(
                "weight {j} reached magnitude {:.3e}",
                wj.abs_max()
            )));
        }
        w.set(j, wj);
    }
    Ok(())
}

/// Reference concrete trainer: identical batch GD on a concrete matrix.
/// Any world drawn from the symbolic matrix and trained with this routine
/// yields weights inside the symbolic weight intervals (soundness). Uses
/// the same [`GRADIENT_BLOCK`]/[`tree_reduce`] accumulation shape as the
/// symbolic trainers, so point-interval symbolic runs match it bit-exactly.
pub fn train_concrete_gd(x: &Matrix, y: &[f64], config: &ZorroConfig) -> Result<Vec<f64>> {
    if x.rows() == 0 || x.rows() != y.len() {
        return Err(UncertainError::InvalidArgument(
            "empty training set or row/target mismatch".into(),
        ));
    }
    let n = x.rows() as f64;
    let d = x.cols();
    let mut w = vec![0.0; d + 1];
    for _ in 0..config.epochs {
        let partials: Vec<Vec<f64>> = (0..x.rows())
            .step_by(GRADIENT_BLOCK)
            .map(|start| {
                let end = (start + GRADIENT_BLOCK).min(x.rows());
                let mut grad = vec![0.0; d + 1];
                #[allow(clippy::needless_range_loop)] // r indexes both x and y
                for r in start..end {
                    let row = x.row(r);
                    let err = row.iter().zip(&w).map(|(xi, wi)| xi * wi).sum::<f64>() + w[d] - y[r];
                    for (g, xi) in grad.iter_mut().zip(row) {
                        *g += err * xi;
                    }
                    grad[d] += err;
                }
                grad
            })
            .collect();
        let grad = tree_reduce(partials, |mut a, b| {
            for (ga, &gb) in a.iter_mut().zip(&b) {
                *ga += gb;
            }
            a
        })
        .expect("validated non-empty");
        for (j, wj) in w.iter_mut().enumerate() {
            // `* (1.0 / n)` (not `/ n`) to match the symbolic trainer's
            // `scale(1.0 / n)` bit-for-bit on point inputs.
            *wj -= config.learning_rate * (grad[j] * (1.0 / n) + config.l2 * *wj);
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::column_bounds_from_observed;
    use nde_data::generate::blobs::linear_regression;
    use nde_data::json::Json;
    use nde_data::rng::Rng;
    use nde_data::rng::{sample_indices, seeded};

    fn regression_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let (xs, ys, _, _) = linear_regression(n, 2, 0.05, seed);
        (Matrix::from_rows(xs).unwrap(), ys)
    }

    #[test]
    fn no_missing_matches_concrete_gd_exactly() {
        let (x, y) = regression_data(60, 1);
        let cfg = ZorroConfig::default();
        let sym = SymbolicMatrix::from_exact(&x);
        let mut zorro = ZorroRegressor::new(cfg.clone());
        zorro.fit(&sym, &y).unwrap();
        let concrete = train_concrete_gd(&x, &y, &cfg).unwrap();
        for (iv, c) in zorro.weight_intervals().unwrap().iter().zip(&concrete) {
            assert!(iv.is_point(), "point inputs must give point weights");
            assert!((iv.lo - c).abs() < 1e-12);
        }
    }

    #[test]
    fn soundness_sampled_worlds_stay_inside_bounds() {
        let (x, y) = regression_data(40, 2);
        let bounds = column_bounds_from_observed(&x);
        let mut rng = seeded(3);
        let missing: Vec<(usize, usize)> = sample_indices(40, 8, &mut rng)
            .into_iter()
            .map(|r| (r, rng.gen_range(0..2)))
            .collect();
        let cfg = ZorroConfig {
            epochs: 40,
            ..Default::default()
        };
        let sym = SymbolicMatrix::from_matrix_with_missing(&x, &missing, &bounds).unwrap();
        let mut zorro = ZorroRegressor::new(cfg.clone());
        zorro.fit(&sym, &y).unwrap();
        let w_iv = zorro.weight_intervals().unwrap().to_vec();

        // Sample 10 worlds: impute each missing cell uniformly in its bound,
        // train concretely, check weight containment and prediction ranges.
        for world in 0..10 {
            let mut wx = x.clone();
            let mut wrng = seeded(100 + world);
            for &(r, c) in &missing {
                let b = bounds[c];
                wx.set(r, c, b.lo + wrng.gen::<f64>() * b.width());
            }
            let w = train_concrete_gd(&wx, &y, &cfg).unwrap();
            for (iv, wc) in w_iv.iter().zip(&w) {
                assert!(
                    iv.lo - 1e-9 <= *wc && *wc <= iv.hi + 1e-9,
                    "world {world}: weight {wc} outside [{}, {}]",
                    iv.lo,
                    iv.hi
                );
            }
            // Prediction containment on a probe point.
            let probe = [0.3, -0.4];
            let concrete_pred = probe.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + w[2];
            let range = zorro.predict_range(&probe).unwrap();
            assert!(range.contains(concrete_pred) || (concrete_pred - range.hi).abs() < 1e-9);
        }
    }

    #[test]
    fn worst_case_loss_grows_with_missingness() {
        let (x, y) = regression_data(80, 4);
        let (tx, ty) = regression_data(30, 5);
        let bounds = column_bounds_from_observed(&x);
        let cfg = ZorroConfig {
            epochs: 30,
            ..Default::default()
        };
        let mut losses = Vec::new();
        for pct in [0usize, 5, 10, 20] {
            let k = 80 * pct / 100;
            let mut rng = seeded(6);
            let missing: Vec<(usize, usize)> = sample_indices(80, k, &mut rng)
                .into_iter()
                .map(|r| (r, 0))
                .collect();
            let sym = SymbolicMatrix::from_matrix_with_missing(&x, &missing, &bounds).unwrap();
            let mut zorro = ZorroRegressor::new(cfg.clone());
            zorro.fit(&sym, &y).unwrap();
            losses.push(zorro.max_worst_case_loss(&tx, &ty).unwrap());
        }
        for w in losses.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "worst-case loss not monotone: {losses:?}"
            );
        }
        assert!(
            losses[3] > losses[0],
            "20% missing should strictly exceed 0%: {losses:?}"
        );
    }

    #[test]
    fn uncertain_labels_widen_bounds_and_stay_sound() {
        let (x, y) = regression_data(50, 12);
        let cfg = ZorroConfig {
            epochs: 30,
            ..Default::default()
        };
        let sym = SymbolicMatrix::from_exact(&x);
        // Point labels.
        let mut point_model = ZorroRegressor::new(cfg.clone());
        point_model.fit(&sym, &y).unwrap();
        // Labels uncertain by ±0.2 on ten rows.
        let targets: Vec<Interval> = y
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i < 10 {
                    Interval::new(v - 0.2, v + 0.2)
                } else {
                    Interval::point(v)
                }
            })
            .collect();
        let mut uncertain_model = ZorroRegressor::new(cfg.clone());
        uncertain_model.fit_uncertain(&sym, &targets).unwrap();
        // Every weight interval of the point model is contained in the
        // uncertain model's (the uncertain family is a superset).
        for (p, u) in point_model
            .weight_intervals()
            .unwrap()
            .iter()
            .zip(uncertain_model.weight_intervals().unwrap())
        {
            assert!(
                u.lo <= p.lo + 1e-12 && p.hi <= u.hi + 1e-12,
                "{p:?} vs {u:?}"
            );
        }
        // Prediction ranges widen.
        let probe = [0.1, -0.2];
        let pw = point_model.predict_range(&probe).unwrap().width();
        let uw = uncertain_model.predict_range(&probe).unwrap().width();
        assert!(uw >= pw);
        assert!(uw > 0.0);

        // Soundness: training concretely on any label choice within the
        // intervals stays inside the uncertain model's bounds.
        let mut shifted = y.clone();
        for s in shifted.iter_mut().take(10) {
            *s += 0.2;
        }
        let w = train_concrete_gd(&x, &shifted, &cfg).unwrap();
        for (iv, wc) in uncertain_model.weight_intervals().unwrap().iter().zip(&w) {
            assert!(iv.lo - 1e-9 <= *wc && *wc <= iv.hi + 1e-9);
        }
    }

    #[test]
    fn soa_engine_matches_aos_reference_at_every_thread_count() {
        let (x, y) = regression_data(300, 21);
        let bounds = column_bounds_from_observed(&x);
        let mut rng = seeded(22);
        let missing: Vec<(usize, usize)> = sample_indices(300, 40, &mut rng)
            .into_iter()
            .map(|r| (r, rng.gen_range(0..2)))
            .collect();
        let sym = SymbolicMatrix::from_matrix_with_missing(&x, &missing, &bounds).unwrap();
        let targets: Vec<Interval> = y
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i % 7 == 0 {
                    Interval::new(v - 0.1, v + 0.1)
                } else {
                    Interval::point(v)
                }
            })
            .collect();
        let cfg = ZorroConfig {
            epochs: 25,
            ..Default::default()
        };
        let mut reference = ZorroRegressor::new(cfg.clone());
        reference.fit_uncertain_reference(&sym, &targets).unwrap();
        let expect = reference.weight_intervals().unwrap().to_vec();
        for threads in [1usize, 2, 4, 7] {
            let mut engine = ZorroRegressor::new(cfg.clone().with_threads(threads));
            engine.fit_uncertain(&sym, &targets).unwrap();
            assert_eq!(
                engine.weight_intervals().unwrap(),
                &expect[..],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn budgeted_fit_with_unlimited_budget_matches_fit() {
        let (x, y) = regression_data(40, 10);
        let cfg = ZorroConfig::default();
        let sym = SymbolicMatrix::from_exact(&x);
        let mut plain = ZorroRegressor::new(cfg.clone());
        plain.fit(&sym, &y).unwrap();
        let mut budgeted = ZorroRegressor::new(cfg);
        let diag = budgeted
            .fit_budgeted(&sym, &y, &RunBudget::unlimited())
            .unwrap();
        assert!(diag.completed());
        assert_eq!(diag.iterations, 60);
        assert_eq!(
            budgeted.weight_intervals().unwrap(),
            plain.weight_intervals().unwrap()
        );
    }

    #[test]
    fn budget_exhaustion_keeps_best_so_far_weights() {
        let (x, y) = regression_data(40, 11);
        let sym = SymbolicMatrix::from_exact(&x);
        // 60 configured epochs, budget for 10: must stop at 10 with the
        // exact weights a 10-epoch run produces.
        let mut budgeted = ZorroRegressor::new(ZorroConfig::default());
        let diag = budgeted
            .fit_budgeted(&sym, &y, &RunBudget::unlimited().with_max_iterations(10))
            .unwrap();
        assert_eq!(diag.iterations, 10);
        assert_eq!(diag.exhausted, Some(nde_robust::Exhaustion::Iterations));
        let mut short = ZorroRegressor::new(ZorroConfig {
            epochs: 10,
            ..Default::default()
        });
        short.fit(&sym, &y).unwrap();
        assert_eq!(
            budgeted.weight_intervals().unwrap(),
            short.weight_intervals().unwrap()
        );
        // An immediately-exhausted budget still yields a usable (zero) model.
        let mut instant = ZorroRegressor::new(ZorroConfig::default());
        let diag = instant
            .fit_budgeted(
                &sym,
                &y,
                &RunBudget::unlimited().with_wall_clock(std::time::Duration::ZERO),
            )
            .unwrap();
        assert_eq!(diag.iterations, 0);
        assert!(!diag.completed());
        assert!(instant.predict_range(&[0.0, 0.0]).unwrap().is_point());
    }

    #[test]
    fn resumable_fit_cut_and_resume_is_bit_identical() {
        let (x, y) = regression_data(50, 14);
        let sym = SymbolicMatrix::from_exact(&x);
        let targets: Vec<Interval> = y.iter().map(|&v| Interval::point(v)).collect();
        let cfg = ZorroConfig {
            epochs: 30,
            ..Default::default()
        };
        let mut plain = ZorroRegressor::new(cfg.clone());
        plain.fit_uncertain(&sym, &targets).unwrap();

        // Cut at epoch 12, round-trip the snapshot through its durable
        // payload text, resume to completion: bit-identical weights.
        let mut cut = ZorroRegressor::new(cfg.clone());
        let (diag, ckpt) = cut
            .fit_uncertain_resumable(
                &sym,
                &targets,
                &RunBudget::unlimited().with_max_iterations(12),
                None,
            )
            .unwrap();
        assert_eq!(diag.iterations, 12);
        assert_eq!(ckpt.epochs_done, 12);
        let text = ckpt.to_payload().to_string_pretty();
        let back = ZorroCheckpoint::from_payload(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        let mut resumed = ZorroRegressor::new(cfg.clone());
        let (diag, done) = resumed
            .fit_uncertain_resumable(&sym, &targets, &RunBudget::unlimited(), Some(&back))
            .unwrap();
        assert!(diag.completed());
        assert_eq!(diag.iterations, 30);
        assert_eq!(done.epochs_done, 30);
        assert_eq!(
            resumed.weight_intervals().unwrap(),
            plain.weight_intervals().unwrap()
        );

        // Shape and bound mismatches are rejected.
        let mut wrong = back.clone();
        wrong.lo.push(0.0);
        assert!(wrong.validate().is_err());
        let mut wrong = back.clone();
        wrong.epochs_done = 99;
        assert!(matches!(
            ZorroRegressor::new(cfg.clone()).fit_uncertain_resumable(
                &sym,
                &targets,
                &RunBudget::unlimited(),
                Some(&wrong)
            ),
            Err(UncertainError::Checkpoint(_))
        ));
        let mut wrong = back.clone();
        wrong.lo[0] = wrong.hi[0] + 1.0;
        assert!(wrong.validate().is_err());
        wrong.lo[0] = f64::NAN;
        assert!(wrong.validate().is_err());
        // A fit with another learning rate or L2 weight refuses the snapshot.
        for other in [
            ZorroConfig {
                learning_rate: 0.01,
                ..cfg.clone()
            },
            ZorroConfig {
                l2: 0.5,
                ..cfg.clone()
            },
        ] {
            assert!(matches!(
                ZorroRegressor::new(other).fit_uncertain_resumable(
                    &sym,
                    &targets,
                    &RunBudget::unlimited(),
                    Some(&back)
                ),
                Err(UncertainError::Checkpoint(_))
            ));
        }
    }

    #[test]
    fn divergence_detected_with_huge_learning_rate() {
        let (x, y) = regression_data(20, 7);
        let sym = SymbolicMatrix::from_exact(&x);
        let cfg = ZorroConfig {
            epochs: 200,
            learning_rate: 50.0,
            ..Default::default()
        };
        let mut zorro = ZorroRegressor::new(cfg);
        assert!(matches!(
            zorro.fit(&sym, &y),
            Err(UncertainError::Diverged(_))
        ));
    }

    #[test]
    fn validates_arguments() {
        let (x, y) = regression_data(10, 8);
        let sym = SymbolicMatrix::from_exact(&x);
        let mut zorro = ZorroRegressor::new(ZorroConfig {
            epochs: 0,
            ..Default::default()
        });
        assert!(zorro.fit(&sym, &y).is_err());
        let mut zorro = ZorroRegressor::new(ZorroConfig::default());
        assert!(zorro.fit(&sym, &y[..5]).is_err());
        assert!(zorro.predict_range(&[0.0, 0.0]).is_err()); // not fitted
        zorro.fit(&sym, &y).unwrap();
        assert!(zorro.predict_range(&[0.0]).is_err()); // wrong dim
        assert!(zorro.squared_loss_ranges(&x, &y[..3]).is_err());
    }

    #[test]
    fn loss_ranges_cover_point_model_loss() {
        let (x, y) = regression_data(50, 9);
        let cfg = ZorroConfig::default();
        let sym = SymbolicMatrix::from_exact(&x);
        let mut zorro = ZorroRegressor::new(cfg.clone());
        zorro.fit(&sym, &y).unwrap();
        let w = train_concrete_gd(&x, &y, &cfg).unwrap();
        let ranges = zorro.squared_loss_ranges(&x, &y).unwrap();
        for ((row, &target), range) in x.iter_rows().zip(&y).zip(&ranges) {
            let pred = row.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + w[2];
            let loss = (pred - target) * (pred - target);
            assert!(range.contains(loss) || (loss - range.hi).abs() < 1e-9);
        }
    }
}
