//! Data Banzhaf values via the Maximum-Sample-Reuse estimator
//! (Wang & Jia, AISTATS'23).
//!
//! The Banzhaf value weighs all subsets equally, which makes it provably more
//! robust to noisy utility functions than the Shapley value. The MSR
//! estimator reuses every sampled subset for *all* points:
//! `φ_i = mean(U(S) | i ∈ S) − mean(U(S) | i ∉ S)`.
//!
//! Subset sample `s` is drawn from `child_seed(config.seed, s)` and samples
//! are folded in index order, so scores are bit-identical for every thread
//! count (the [`nde_robust::par`] determinism contract). Under a grouped
//! [`BatchPolicy`] the samples are evaluated in **blocks**: each worker
//! claims a block of consecutive sample indices and scores the whole block
//! through the [`UtilityBatcher`] in one validation pass — block
//! boundaries are a pure function of the sample index, so the fold order
//! (and therefore every float) is unchanged.

use crate::batch::{BatchPolicy, BatchStats, UtilityBatcher};
use crate::common::ImportanceScores;
use crate::run::EngineRun;
use crate::snapshot::BanzhafCheckpoint;
use crate::{ImportanceError, Result};
use nde_data::rng::Rng;
use nde_data::rng::{child_seed, seeded};
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::par::{CostHint, MemoCache, WorkerFailure, WorkerPool};
use nde_robust::RunBudget;
use std::sync::atomic::AtomicBool;

/// Configuration for the Banzhaf MSR estimator.
#[derive(Debug, Clone)]
pub struct BanzhafConfig {
    /// Number of sampled subsets (each point included with probability 1/2).
    pub samples: usize,
    /// Base seed (each subset sample uses a derived child seed).
    pub seed: u64,
    /// Worker threads (1 = sequential; results are identical either way).
    pub threads: usize,
}

impl Default for BanzhafConfig {
    fn default() -> Self {
        BanzhafConfig {
            samples: 200,
            seed: 0,
            threads: 1,
        }
    }
}

/// The batch-capable Banzhaf MSR engine behind the
/// [`banzhaf()`](crate::run::banzhaf) entry point. Empty sampled subsets
/// have utility 0 by convention.
#[cfg_attr(not(test), allow(dead_code))] // exercised by the equivalence tests
pub(crate) fn banzhaf_engine<C>(
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    config: &BanzhafConfig,
    cache: Option<&MemoCache>,
    policy: BatchPolicy,
    pool: &WorkerPool,
) -> Result<(ImportanceScores, BatchStats)>
where
    C: Classifier + Send + Sync,
{
    banzhaf_engine_budgeted(
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

/// One sample's logical utility cost: 1 unless the sampled subset is empty
/// (`U(∅) = 0` is a convention, not an evaluation). A pure RNG replay, so
/// budget trip points are independent of caching, batching, and threads.
fn sample_cost(seed: u64, s: u64, n: usize) -> u64 {
    let mut rng = seeded(child_seed(seed, s));
    u64::from((0..n).any(|_| rng.gen::<bool>()))
}

/// The budget- and resume-capable Banzhaf MSR engine.
///
/// Budgeting is **sample-granular**: whole subset samples are folded until a
/// limit trips (one iteration = one sample; the wall clock is consulted at
/// the same boundaries), and the returned [`BanzhafCheckpoint`] restores the
/// exact conditional sums, so continuing a tripped run — in this process or
/// after a crash — is bit-identical to never having stopped.
#[allow(clippy::too_many_arguments)] // mirrors tmc_engine's run surface
pub(crate) fn banzhaf_engine_budgeted<C>(
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    config: &BanzhafConfig,
    budget: &RunBudget,
    resume: Option<&BanzhafCheckpoint>,
    cache: Option<&MemoCache>,
    policy: BatchPolicy,
    pool: &WorkerPool,
) -> Result<(EngineRun<BanzhafCheckpoint>, BatchStats)>
where
    C: Classifier + Send + Sync,
{
    if config.samples == 0 {
        return Err(ImportanceError::InvalidArgument(
            "need at least one sample".into(),
        ));
    }
    if train.is_empty() {
        return Err(ImportanceError::InvalidArgument(
            "empty training set".into(),
        ));
    }
    let n = train.len();
    let total = config.samples as u64;
    let mut state = match resume {
        Some(ckpt) => {
            ckpt.validate_against(config, n)?;
            ckpt.clone()
        }
        None => BanzhafCheckpoint::fresh(config, n),
    };
    let mut clock = budget.resume(state.cursor, state.utility_calls);
    // Plan the segment deterministically before evaluating anything: walk
    // whole samples, charging each sample's replayed cost, until a limit
    // trips or the run completes.
    let start = state.cursor;
    let mut end = start;
    while end < total && clock.exhausted().is_none() {
        clock.record_iteration();
        clock.record_utility_calls(sample_cost(config.seed, end, n));
        end += 1;
    }
    let batcher = UtilityBatcher::new(template, train, valid, cache, policy);
    if end > start {
        let width = batcher.width() as u64;
        let blocks = (end - start).div_ceil(width);
        let stop = AtomicBool::new(false);
        // Every block evaluates whole subset utilities (model retrains).
        let cost = CostHint::PerItemNanos(1_000_000);
        // Subset sample `s` is a pure function of `child_seed(seed, s)`;
        // members come out already sorted, so the utility cache key is
        // ready-made. Block `b` covers samples [start + b·width,
        // start + (b+1)·width): also schedule-independent.
        let sample_blocks = pool
            .map_indexed(config.threads, 0..blocks, &stop, cost, |b| {
                let lo = start + b * width;
                let hi = (start + (b + 1) * width).min(end);
                let mut block: Vec<Vec<usize>> = Vec::with_capacity((hi - lo) as usize);
                for s in lo..hi {
                    let mut rng = seeded(child_seed(config.seed, s));
                    let mut members: Vec<usize> = Vec::with_capacity(n);
                    for i in 0..n {
                        if rng.gen::<bool>() {
                            members.push(i);
                        }
                    }
                    block.push(members);
                }
                let utilities = batcher.eval_batch(&block)?;
                Ok::<_, ImportanceError>((block, utilities))
            })
            .map_err(|fail| match fail {
                WorkerFailure::Err(_, e) => e,
                WorkerFailure::Panic(_, msg) => ImportanceError::WorkerPanic(msg),
            })?;

        // Fold in sample-index order (blocks are index-sorted, samples are
        // in order within a block) — float sums independent of the schedule.
        for (_, (block, utilities)) in &sample_blocks {
            for (members, &u) in block.iter().zip(utilities) {
                let mut next = members.iter().peekable();
                for i in 0..n {
                    if next.peek() == Some(&&i) {
                        next.next();
                        state.with_sum[i] += u;
                        state.with_count[i] += 1;
                    } else {
                        state.without_sum[i] += u;
                        state.without_count[i] += 1;
                    }
                }
            }
        }
        state.cursor = end;
        state.utility_calls = clock.utility_calls();
    }
    Ok((
        EngineRun {
            scores: ImportanceScores::new("banzhaf", state.values()),
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
    fn banzhaf_msr<C: Classifier + Send + Sync>(
        template: &C,
        train: &Dataset,
        valid: &Dataset,
        config: &BanzhafConfig,
    ) -> Result<ImportanceScores> {
        banzhaf_msr_cached(template, train, valid, config, None)
    }

    fn banzhaf_msr_cached<C: Classifier + Send + Sync>(
        template: &C,
        train: &Dataset,
        valid: &Dataset,
        config: &BanzhafConfig,
        cache: Option<&MemoCache>,
    ) -> Result<ImportanceScores> {
        banzhaf_engine(
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
    fn mislabelled_point_has_lowest_banzhaf_value() {
        let (train, valid) = toy();
        let cfg = BanzhafConfig {
            samples: 600,
            seed: 1,
            threads: 1,
        };
        let scores = banzhaf_msr(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        assert_eq!(scores.bottom_k(1), vec![4]);
        assert!(scores.values[4] < 0.0);
        assert!(scores.values[0] > 0.0);
    }

    #[test]
    fn deterministic_by_seed_and_thread_invariant() {
        let (train, valid) = toy();
        let mut cfg = BanzhafConfig {
            samples: 100,
            seed: 7,
            threads: 1,
        };
        let a = banzhaf_msr(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        let b = banzhaf_msr(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        assert_eq!(a, b);
        cfg.threads = 4;
        let c = banzhaf_msr(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn batched_blocks_are_bit_identical_to_unbatched() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        for threads in [1, 4] {
            let cfg = BanzhafConfig {
                samples: 150,
                seed: 5,
                threads,
            };
            let (plain, _) = banzhaf_engine(
                &knn,
                &train,
                &valid,
                &cfg,
                None,
                BatchPolicy::Unbatched,
                &WorkerPool::shared(),
            )
            .unwrap();
            for size in [1, 2, 7, 32, 1000] {
                let (batched, stats) = banzhaf_engine(
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
                // Every non-empty sample is answered exactly once.
                assert_eq!(stats.evals(), 150 - empty_samples(&cfg));
            }
        }
    }

    fn empty_samples(cfg: &BanzhafConfig) -> u64 {
        (0..cfg.samples as u64)
            .filter(|&s| {
                let mut rng = seeded(child_seed(cfg.seed, s));
                (0..5).all(|_| !rng.gen::<bool>())
            })
            .count() as u64
    }

    #[test]
    fn memoized_run_is_bit_identical_and_hits() {
        let (train, valid) = toy();
        let cfg = BanzhafConfig {
            samples: 200,
            seed: 3,
            threads: 2,
        };
        let plain = banzhaf_msr(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        let cache = MemoCache::new();
        let cached =
            banzhaf_msr_cached(&KnnClassifier::new(1), &train, &valid, &cfg, Some(&cache)).unwrap();
        assert_eq!(plain, cached);
        // Only 2^5 possible coalitions over 5 points: 200 samples must hit.
        assert!(cache.hits() > 0);
        assert!(cache.len() <= 31, "at most 2^5 - 1 non-empty coalitions");
    }

    #[test]
    fn budgeted_cut_and_resume_is_bit_identical() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let cfg = BanzhafConfig {
            samples: 60,
            seed: 9,
            threads: 2,
        };
        let (full, _) = banzhaf_engine(
            &knn,
            &train,
            &valid,
            &cfg,
            None,
            BatchPolicy::default(),
            &WorkerPool::shared(),
        )
        .unwrap();
        // Trip the utility budget mid-run, then resume without limits.
        let budget = RunBudget::unlimited().with_max_utility_calls(25);
        let (cut, _) = banzhaf_engine_budgeted(
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
        assert_eq!(cut.checkpoint.utility_calls, 25);
        assert!(cut.checkpoint.cursor < 60);
        let (resumed, _) = banzhaf_engine_budgeted(
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
        assert_eq!(resumed.checkpoint.cursor, 60);
        for (a, b) in full.values.iter().zip(&resumed.scores.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A checkpoint from a different run shape is refused.
        let other = BanzhafConfig { seed: 10, ..cfg };
        assert!(banzhaf_engine_budgeted(
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
    fn validates_arguments() {
        let (train, valid) = toy();
        let zero = BanzhafConfig {
            samples: 0,
            seed: 0,
            threads: 1,
        };
        assert!(banzhaf_msr(&KnnClassifier::new(1), &train, &valid, &zero).is_err());
        let empty = train.subset(&[]);
        assert!(banzhaf_msr(
            &KnnClassifier::new(1),
            &empty,
            &valid,
            &BanzhafConfig::default()
        )
        .is_err());
    }
}
