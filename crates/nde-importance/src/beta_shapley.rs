//! Beta Shapley: Beta(α, β)-weighted semivalues (Kwon & Zou, AISTATS'22).
//!
//! The Shapley value weights marginal contributions at all coalition sizes
//! equally; Beta Shapley re-weights them with a Beta(α, β) profile. Large β
//! emphasizes *small* coalitions (where signal about mislabeled points is
//! strongest and noise lowest); `Beta(1, 1)` recovers the Shapley value.
//!
//! We estimate with size-stratified Monte Carlo: draw a coalition size `j`
//! from the normalized Beta weights, draw a random subset of that size not
//! containing `i`, and average the marginal contribution `U(S ∪ i) − U(S)`.

use crate::batch::{BatchPolicy, BatchStats, UtilityBatcher};
use crate::common::ImportanceScores;
use crate::run::EngineRun;
use crate::snapshot::BetaShapleyCheckpoint;
use crate::{ImportanceError, Result};
use nde_data::rng::Rng;
use nde_data::rng::SliceRandom;
use nde_data::rng::{child_seed, seeded};
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::par::{CostHint, MemoCache, WorkerFailure, WorkerPool};
use nde_robust::RunBudget;
use std::sync::atomic::AtomicBool;

/// Configuration for the Beta Shapley estimator.
#[derive(Debug, Clone)]
pub struct BetaShapleyConfig {
    /// Beta distribution α parameter (> 0).
    pub alpha: f64,
    /// Beta distribution β parameter (> 0). β > α emphasizes small coalitions.
    pub beta: f64,
    /// Monte-Carlo samples *per training example*.
    pub samples_per_point: usize,
    /// Base seed (each example's sampling stream uses a derived child seed).
    pub seed: u64,
    /// Worker threads (1 = sequential; results are identical either way).
    pub threads: usize,
}

impl Default for BetaShapleyConfig {
    fn default() -> Self {
        BetaShapleyConfig {
            alpha: 1.0,
            beta: 16.0,
            samples_per_point: 50,
            seed: 0,
            threads: 1,
        }
    }
}

/// Normalized probability of each coalition size `j ∈ 0..n` under the
/// Beta(α, β) semivalue, *including* the count of subsets of that size.
///
/// The per-subset weight of a coalition `S` with `|S| = j` (out of the
/// `n − 1` points other than the one being valued) is
/// `∫ t^j (1−t)^{n−1−j} dBeta(t) ∝ B(j + α, n − 1 − j + β)`, so the per-size
/// sampling probability is `C(n−1, j) · B(j + α, n − 1 − j + β)`. β > α
/// shifts the Beta mass toward `t = 0`, i.e. toward *small* coalitions;
/// `Beta(1, 1)` gives the uniform size distribution of the Shapley value.
/// Computed in log space and normalized, so only relative weights matter.
pub fn beta_size_weights(n: usize, alpha: f64, beta: f64) -> Vec<f64> {
    debug_assert!(n >= 1);
    let mut logw = Vec::with_capacity(n);
    let ln_choose = |n: f64, k: f64| ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0);
    for j in 0..n {
        let a = j as f64 + alpha;
        let b = (n - 1 - j) as f64 + beta;
        logw.push(
            ln_choose((n - 1) as f64, j as f64) + ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b),
        );
    }
    let max = logw.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let mut w: Vec<f64> = logw.into_iter().map(|v| (v - max).exp()).collect();
    let sum: f64 = w.iter().sum();
    for v in &mut w {
        *v /= sum;
    }
    w
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
#[allow(clippy::inconsistent_digit_grouping)] // literal Lanczos coefficients
fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g = 7, n = 9 (standard Lanczos).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The batch-capable Beta Shapley engine behind the
/// [`beta_shapley()`](crate::run::beta_shapley) entry point.
///
/// Each example's sampling stream is `child_seed(config.seed, i)` and the
/// per-example values are written back by index, so scores are bit-identical
/// for every thread count (and with or without a memo cache).
///
/// A point's random draws never depend on utility values, so the engine
/// materializes all of a point's `(S, S ∪ i)` coalition pairs up front
/// (preserving the exact RNG stream of the legacy one-at-a-time loop) and
/// evaluates them in waves of up to [`BatchPolicy::width`] coalitions
/// through the [`UtilityBatcher`]. Marginals are folded in sample order, so
/// every float is independent of the batching policy.
#[cfg_attr(not(test), allow(dead_code))] // exercised by the equivalence tests
pub(crate) fn beta_shapley_engine<C>(
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    config: &BetaShapleyConfig,
    cache: Option<&MemoCache>,
    policy: BatchPolicy,
    pool: &WorkerPool,
) -> Result<(ImportanceScores, BatchStats)>
where
    C: Classifier + Send + Sync,
{
    beta_shapley_engine_budgeted(
        template,
        train,
        valid,
        config,
        &RunBudget::unlimited(),
        None,
        cache,
        policy,
        pool,
    )
    .map(|(run, stats)| (run.scores, stats))
}

/// One point's logical utility cost, by pure RNG replay of its sampling
/// stream: every sample's `S ∪ i` coalition costs one call; its `S` costs
/// one more unless the drawn size is 0 (`U(∅) = 0` is free). The replay
/// shuffles a dummy pool because a Fisher-Yates shuffle consumes RNG draws
/// as a function of length only — keeping later size draws stream-aligned.
fn point_cost(config: &BetaShapleyConfig, idx: u64, n: usize, cdf: &[f64]) -> u64 {
    let mut rng = seeded(child_seed(config.seed, idx));
    let mut pool: Vec<usize> = (0..n.saturating_sub(1)).collect();
    let mut cost = 0;
    for _ in 0..config.samples_per_point {
        let u: f64 = rng.gen();
        let j = cdf.partition_point(|&c| c < u).min(n - 1);
        pool.shuffle(&mut rng);
        cost += 1 + u64::from(j > 0);
    }
    cost
}

/// The budget- and resume-capable Beta Shapley engine.
///
/// Budgeting is **point-granular**: whole points are scored until a limit
/// trips (one iteration = one point; the utility budget may overshoot by at
/// most the final point's cost, and the wall clock is consulted at point
/// boundaries). Each point's draws come from an independent child-seeded
/// stream, so a resumed run picks up at [`BetaShapleyCheckpoint::cursor`]
/// and is bit-identical to an uninterrupted one.
#[allow(clippy::too_many_arguments)] // mirrors tmc_engine's run surface
pub(crate) fn beta_shapley_engine_budgeted<C>(
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    config: &BetaShapleyConfig,
    budget: &RunBudget,
    resume: Option<&BetaShapleyCheckpoint>,
    cache: Option<&MemoCache>,
    policy: BatchPolicy,
    pool: &WorkerPool,
) -> Result<(EngineRun<BetaShapleyCheckpoint>, BatchStats)>
where
    C: Classifier + Send + Sync,
{
    if config.alpha <= 0.0 || config.beta <= 0.0 {
        return Err(ImportanceError::InvalidArgument(
            "alpha and beta must be > 0".into(),
        ));
    }
    if config.samples_per_point == 0 {
        return Err(ImportanceError::InvalidArgument(
            "need at least one sample per point".into(),
        ));
    }
    if train.is_empty() {
        return Err(ImportanceError::InvalidArgument(
            "empty training set".into(),
        ));
    }
    let n = train.len();
    let weights = beta_size_weights(n, config.alpha, config.beta);
    // Cumulative distribution for size sampling.
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cdf.push(acc);
    }

    let mut state = match resume {
        Some(ckpt) => {
            ckpt.validate_against(config, n)?;
            ckpt.clone()
        }
        None => BetaShapleyCheckpoint::fresh(config, n),
    };
    let mut clock = budget.resume(state.cursor, state.utility_calls);
    // Plan the segment deterministically before evaluating anything: walk
    // whole points, charging each point's replayed cost, until a limit
    // trips or every point is scored.
    let start = state.cursor;
    let mut end = start;
    while end < n as u64 && clock.exhausted().is_none() {
        clock.record_iteration();
        clock.record_utility_calls(point_cost(config, end, n, &cdf));
        end += 1;
    }

    let batcher = UtilityBatcher::new(template, train, valid, cache, policy);
    if end > start {
        // Per-worker reusable buffers: the candidate pool and the queued
        // coalition pairs (without, with) for one point.
        struct Scratch {
            pool: Vec<usize>,
            pairs: Vec<Vec<usize>>,
            utilities: Vec<f64>,
        }
        let stop = AtomicBool::new(false);
        // Each point evaluates 2·samples_per_point coalition utilities.
        let cost = CostHint::PerItemNanos(1_000_000);
        let per_point = pool
            .map_indexed_scratch(
                config.threads,
                start..end,
                &stop,
                cost,
                || Scratch {
                    pool: Vec::with_capacity(n),
                    pairs: Vec::new(),
                    utilities: Vec::new(),
                },
                |scratch, idx| {
                    let i = idx as usize;
                    let mut rng = seeded(child_seed(config.seed, idx));
                    scratch.pool.clear();
                    scratch.pool.extend((0..n).filter(|&j| j != i));
                    // Draw every sample first (the RNG stream never depends on
                    // utilities, so this consumes exactly the legacy draw order),
                    // queueing each sample's (S, S ∪ i) pair back to back.
                    let total_coalitions = 2 * config.samples_per_point;
                    while scratch.pairs.len() < total_coalitions {
                        scratch.pairs.push(Vec::with_capacity(n));
                    }
                    for s in 0..config.samples_per_point {
                        // Sample coalition size j from the Beta weights.
                        let u: f64 = rng.gen();
                        let j = cdf.partition_point(|&c| c < u).min(n - 1);
                        scratch.pool.shuffle(&mut rng);
                        let subset = &scratch.pool[..j.min(n - 1)];
                        let (head, tail) = scratch.pairs.split_at_mut(2 * s + 1);
                        let without = &mut head[2 * s];
                        let with = &mut tail[0];
                        without.clear();
                        without.extend_from_slice(subset);
                        without.sort_unstable();
                        let at = without.partition_point(|&x| x < i);
                        with.clear();
                        with.extend_from_slice(without);
                        with.insert(at, i);
                    }
                    // Evaluate in waves, then fold marginals in sample order.
                    scratch.utilities.clear();
                    for chunk in scratch.pairs[..total_coalitions].chunks(batcher.width()) {
                        scratch.utilities.extend(batcher.eval_batch(chunk)?);
                    }
                    let mut total = 0.0;
                    for s in 0..config.samples_per_point {
                        total += scratch.utilities[2 * s + 1] - scratch.utilities[2 * s];
                    }
                    Ok::<_, ImportanceError>(total / config.samples_per_point as f64)
                },
            )
            .map_err(|fail| match fail {
                WorkerFailure::Err(_, e) => e,
                WorkerFailure::Panic(_, msg) => ImportanceError::WorkerPanic(msg),
            })?;

        for (idx, v) in per_point {
            state.values[idx as usize] = v;
        }
        state.cursor = end;
        state.utility_calls = clock.utility_calls();
    }
    Ok((
        EngineRun {
            scores: ImportanceScores::new("beta-shapley", state.values.clone()),
            diagnostics: clock.diagnostics(None),
            checkpoint: state,
        },
        batcher.stats(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_ml::models::knn::KnnClassifier;

    // The behavioral suite pins the engine through thin one-at-a-time
    // wrappers (the physical behavior of the removed free functions).
    fn beta_shapley<C: Classifier + Send + Sync>(
        template: &C,
        train: &Dataset,
        valid: &Dataset,
        config: &BetaShapleyConfig,
    ) -> Result<ImportanceScores> {
        beta_shapley_cached(template, train, valid, config, None)
    }

    fn beta_shapley_cached<C: Classifier + Send + Sync>(
        template: &C,
        train: &Dataset,
        valid: &Dataset,
        config: &BetaShapleyConfig,
        cache: Option<&MemoCache>,
    ) -> Result<ImportanceScores> {
        beta_shapley_engine(
            template,
            train,
            valid,
            config,
            cache,
            BatchPolicy::Unbatched,
            &WorkerPool::shared(),
        )
        .map(|(scores, _)| scores)
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
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-9);
        assert!(ln_gamma(2.0).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn weights_normalize_and_skew_small_with_large_beta() {
        let w = beta_size_weights(20, 1.0, 16.0);
        assert_eq!(w.len(), 20);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Mass concentrates on small coalition sizes.
        let small: f64 = w[..5].iter().sum();
        assert!(small > 0.8, "small mass {small}");
        // Beta(1,1) is uniform over sizes.
        let uniform = beta_size_weights(10, 1.0, 1.0);
        for v in &uniform {
            assert!((v - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn mislabelled_point_detected() {
        let (train, valid) = toy();
        let cfg = BetaShapleyConfig {
            samples_per_point: 80,
            seed: 2,
            ..Default::default()
        };
        let scores = beta_shapley(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        assert_eq!(scores.bottom_k(1), vec![4]);
    }

    #[test]
    fn batched_waves_are_bit_identical_to_unbatched() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        for threads in [1, 4] {
            let cfg = BetaShapleyConfig {
                samples_per_point: 30,
                seed: 11,
                threads,
                ..Default::default()
            };
            let (plain, _) = beta_shapley_engine(
                &knn,
                &train,
                &valid,
                &cfg,
                None,
                BatchPolicy::Unbatched,
                &WorkerPool::shared(),
            )
            .unwrap();
            for size in [1, 2, 5, 64] {
                let (batched, stats) = beta_shapley_engine(
                    &knn,
                    &train,
                    &valid,
                    &cfg,
                    None,
                    BatchPolicy::Grouped { size },
                    &WorkerPool::shared(),
                )
                .unwrap();
                assert_eq!(batched, plain, "threads={threads} size={size}");
                assert!(stats.batched_evals > 0);
            }
        }
    }

    #[test]
    fn budgeted_cut_and_resume_is_bit_identical() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let cfg = BetaShapleyConfig {
            samples_per_point: 20,
            seed: 13,
            threads: 2,
            ..Default::default()
        };
        let (full, _) = beta_shapley_engine(
            &knn,
            &train,
            &valid,
            &cfg,
            None,
            BatchPolicy::default(),
            &WorkerPool::shared(),
        )
        .unwrap();
        // Trip the iteration (= point) budget mid-run, then resume.
        let budget = RunBudget::unlimited().with_max_iterations(2);
        let (cut, _) = beta_shapley_engine_budgeted(
            &knn,
            &train,
            &valid,
            &cfg,
            &budget,
            None,
            None,
            BatchPolicy::default(),
            &WorkerPool::shared(),
        )
        .unwrap();
        assert!(!cut.diagnostics.completed());
        assert_eq!(cut.checkpoint.cursor, 2);
        assert_eq!(cut.scores.values[3], 0.0, "unscored points stay zero");
        let (resumed, _) = beta_shapley_engine_budgeted(
            &knn,
            &train,
            &valid,
            &cfg,
            &RunBudget::unlimited(),
            Some(&cut.checkpoint),
            None,
            BatchPolicy::default(),
            &WorkerPool::shared(),
        )
        .unwrap();
        assert!(resumed.diagnostics.completed());
        assert_eq!(resumed.checkpoint.cursor, 5);
        for (a, b) in full.values.iter().zip(&resumed.scores.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A checkpoint from a differently-parameterized run is refused.
        let other = BetaShapleyConfig {
            beta: 8.0,
            ..cfg.clone()
        };
        assert!(beta_shapley_engine_budgeted(
            &knn,
            &train,
            &valid,
            &other,
            &RunBudget::unlimited(),
            Some(&cut.checkpoint),
            None,
            BatchPolicy::default(),
            &WorkerPool::shared(),
        )
        .is_err());
    }

    #[test]
    fn deterministic_and_validated() {
        let (train, valid) = toy();
        let cfg = BetaShapleyConfig {
            samples_per_point: 20,
            seed: 3,
            ..Default::default()
        };
        let a = beta_shapley(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        let b = beta_shapley(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        assert_eq!(a, b);
        // Thread-count invariance and cache transparency.
        let par_cfg = BetaShapleyConfig {
            threads: 4,
            ..cfg.clone()
        };
        let cache = MemoCache::new();
        let c = beta_shapley_cached(
            &KnnClassifier::new(1),
            &train,
            &valid,
            &par_cfg,
            Some(&cache),
        )
        .unwrap();
        assert_eq!(a, c);
        assert!(cache.hits() > 0);
        let bad = BetaShapleyConfig {
            alpha: 0.0,
            ..Default::default()
        };
        assert!(beta_shapley(&KnnClassifier::new(1), &train, &valid, &bad).is_err());
        let zero = BetaShapleyConfig {
            samples_per_point: 0,
            ..Default::default()
        };
        assert!(beta_shapley(&KnnClassifier::new(1), &train, &valid, &zero).is_err());
    }
}
