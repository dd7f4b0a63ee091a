//! Truncated Monte-Carlo Data Shapley (Ghorbani & Zou, ICML'19).
//!
//! Samples random permutations of the training data and accumulates the
//! marginal utility of adding each example to the prefix before it.
//! Truncation skips the tail of a permutation once the prefix utility is
//! within `truncation_tolerance` of the full-data utility (the marginal
//! contributions there are ≈ 0).
//!
//! # Determinism
//!
//! Permutation `p` depends only on `child_seed(config.seed, p)`, and every
//! coalition is evaluated in **sorted index order**, so its utility is a
//! pure function of the index set. Parallel runs go through the
//! speculative-execution + sequential-settlement scheme of
//! [`nde_robust::par`]: workers evaluate permutations out of order, then
//! the results are folded front-to-back under the authoritative
//! [`BudgetClock`]. The folded scores, diagnostics counters, and
//! checkpoints are therefore bit-identical for every thread count,
//! with or without a tripped budget, and across checkpoint/resume cycles.
//!
//! # Batched waves
//!
//! A permutation walk queues up to [`BatchPolicy::width`] consecutive
//! prefix coalitions as one *wave* and evaluates them through the
//! [`UtilityBatcher`] in a single validation pass (for the KNN utility this
//! reuses one shared train→valid distance matrix per run). The wave is then
//! folded **sequentially**: the truncation rule and the per-call budget
//! accounting fire in exactly the order the unbatched walk would, so
//! batching changes physical cost only — scores, trip points and
//! checkpoints are bit-identical under every policy. A wave past a
//! truncation point may physically evaluate (and cache) a few coalitions
//! the logical walk discards; values are pure, so this is unobservable in
//! the results.
//!
//! # Budget granularity
//!
//! The utility-call budget is enforced **per call**: a run can stop partway
//! through a permutation, recording an [`InflightPermutation`] in its
//! checkpoint so resume continues the walk mid-permutation instead of
//! redoing it. Budget-enforced walks clamp their wave width to
//! [`BudgetClock::remaining_utility_calls`] so a tripping budget never pays
//! for evaluations the stopping rule will discard. Iteration and wall-clock
//! budgets stop at permutation boundaries (a wall-clock cut is inherently
//! schedule-dependent, so it is never allowed to decide a mid-permutation
//! split).

use crate::batch::{BatchPolicy, BatchStats, UtilityBatcher};
use crate::common::{non_finite_feature, ImportanceScores};
use crate::{ImportanceError, Result};
use nde_data::rng::SliceRandom;
use nde_data::rng::{child_seed, seeded};
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::par::{AtomicBudgetClock, CostHint, MemoCache, WorkerFailure, WorkerPool};
use nde_robust::{
    BudgetClock, ConvergenceDiagnostics, InflightPermutation, McCheckpoint, RunBudget,
};
use std::sync::atomic::AtomicBool;

/// Configuration for the TMC-Shapley estimator.
#[derive(Debug, Clone)]
pub struct ShapleyConfig {
    /// Number of sampled permutations.
    pub permutations: usize,
    /// Truncate a permutation once `|U(prefix) − U(full)|` falls below this.
    pub truncation_tolerance: f64,
    /// Base seed (each permutation uses a derived child seed).
    pub seed: u64,
    /// Worker threads (1 = sequential; results are identical either way).
    pub threads: usize,
}

impl Default for ShapleyConfig {
    fn default() -> Self {
        ShapleyConfig {
            permutations: 100,
            truncation_tolerance: 0.01,
            seed: 0,
            threads: 1,
        }
    }
}

/// Result of a budget-aware TMC-Shapley run: the (possibly best-so-far)
/// scores, how far the run got, and a checkpoint to resume from.
#[derive(Debug, Clone)]
pub struct BudgetedShapley {
    /// Shapley estimates, averaged over the permutations completed so far.
    pub scores: ImportanceScores,
    /// How much work was done and whether a budget limit stopped the run.
    pub diagnostics: ConvergenceDiagnostics,
    /// Snapshot to pass back as `resume` to continue the same estimation.
    /// Resuming an interrupted run is bit-identical to never interrupting.
    pub checkpoint: McCheckpoint,
}

/// Method tag used in budgeted TMC-Shapley checkpoints.
pub(crate) const TMC_METHOD: &str = "tmc-shapley";

/// The budget-aware, resumable, batch-capable TMC-Shapley engine behind
/// the [`tmc_shapley()`](crate::run::tmc_shapley) entry point.
///
/// On exhaustion it **degrades gracefully**: the scores averaged over the
/// permutations finished so far are returned, tagged with
/// [`ConvergenceDiagnostics`] (including the largest per-example marginal
/// standard error) and a [`McCheckpoint`] that a later call can resume
/// from — including mid-permutation, via the checkpoint's in-flight state.
///
/// Cache hits still count as (logical) utility calls against the budget, so
/// a cached run trips its budget at exactly the same point as an uncached
/// one and stays bit-identical to it — the cache only removes *physical*
/// model retrains. The cache must be dedicated to this
/// `(template, train, valid)` triple.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tmc_engine<C>(
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    config: &ShapleyConfig,
    budget: &RunBudget,
    resume: Option<&McCheckpoint>,
    cache: Option<&MemoCache>,
    policy: BatchPolicy,
    pool: &WorkerPool,
) -> Result<(BudgetedShapley, BatchStats)>
where
    C: Classifier + Send + Sync,
{
    if config.permutations == 0 {
        return Err(ImportanceError::InvalidArgument(
            "need at least one permutation".into(),
        ));
    }
    if train.is_empty() {
        return Err(ImportanceError::InvalidArgument(
            "empty training set".into(),
        ));
    }
    if let Some(msg) = non_finite_feature(train, valid) {
        return Err(ImportanceError::Ml(msg));
    }
    let n = train.len();
    let total = config.permutations as u64;
    let mut state = match resume {
        Some(cp) => {
            cp.validate()
                .map_err(|e| ImportanceError::Checkpoint(e.to_string()))?;
            if cp.method != TMC_METHOD {
                return Err(ImportanceError::Checkpoint(format!(
                    "checkpoint is for method `{}`, not `{TMC_METHOD}`",
                    cp.method
                )));
            }
            if cp.seed != config.seed || cp.n != n {
                return Err(ImportanceError::Checkpoint(format!(
                    "checkpoint (seed {}, n {}) does not match run (seed {}, n {n})",
                    cp.seed, cp.n, config.seed
                )));
            }
            if cp.cursor > total || (cp.cursor == total && cp.inflight.is_some()) {
                return Err(ImportanceError::Checkpoint(format!(
                    "checkpoint cursor {} exceeds configured permutations {}",
                    cp.cursor, config.permutations
                )));
            }
            cp.clone()
        }
        None => McCheckpoint::fresh(TMC_METHOD, config.seed, n),
    };

    let batcher = UtilityBatcher::new(template, train, valid, cache, policy);
    let mut clock = budget.resume(state.cursor, state.utility_calls);
    if clock.exhausted().is_none() {
        // Re-prime the full-data utility (one honestly-accounted call; a
        // cache hit on resume still counts).
        let all: Vec<usize> = (0..n).collect();
        let full_utility = batcher.eval_one(&all)?;
        clock.record_utility_calls(1);
        let mut scratch = WalkScratch::new(n);

        // Finish an interrupted permutation walk before anything else.
        if let Some(inflight) = state.inflight.take() {
            let expected_rng = state.rng_state.take();
            let outcome = walk_permutation(
                &batcher,
                full_utility,
                config,
                state.cursor,
                &mut scratch,
                Some(&inflight),
                expected_rng,
                Some(&mut clock),
            )?;
            settle(&mut state, &mut clock, outcome);
        }

        // Speculative parallel rounds + authoritative sequential settlement.
        // A permutation walk retrains a model per coalition: firmly past
        // the sequential cutoff, so hint "expensive" instead of probing.
        let cost = CostHint::PerItemNanos(1_000_000);
        while state.inflight.is_none() && state.cursor < total && clock.exhausted().is_none() {
            let shared =
                AtomicBudgetClock::resume(budget, clock.iterations(), clock.utility_calls());
            let stop = AtomicBool::new(false);
            let round = pool
                .map_indexed_scratch(
                    config.threads,
                    state.cursor..total,
                    &stop,
                    cost,
                    || WalkScratch::new(n),
                    |ws, p| -> Result<(Vec<f64>, u64)> {
                        let outcome = walk_permutation(
                            &batcher,
                            full_utility,
                            config,
                            p,
                            ws,
                            None,
                            None,
                            None,
                        )?;
                        match outcome {
                            WalkOutcome::Complete { marginals, calls } => {
                                shared.record_iteration();
                                shared.record_utility_calls(calls);
                                shared.arm_stop(&stop);
                                Ok((marginals, calls))
                            }
                            WalkOutcome::Tripped { .. } => {
                                unreachable!("speculative walks run without a clock")
                            }
                        }
                    },
                )
                .map_err(|fail| match fail {
                    WorkerFailure::Err(_, e) => e,
                    WorkerFailure::Panic(_, msg) => ImportanceError::WorkerPanic(msg),
                })?;

            for (p, (marginals, calls)) in round {
                if p != state.cursor || clock.exhausted().is_some() {
                    // A gap after an early stop (the next round re-claims
                    // it), or a boundary-granular budget stop.
                    break;
                }
                if clock.would_exceed_utility(calls) {
                    // The deterministic stopping point is inside this
                    // permutation: re-walk it under the authoritative clock
                    // to construct the exact mid-permutation state (served
                    // from cache when one is attached).
                    let outcome = walk_permutation(
                        &batcher,
                        full_utility,
                        config,
                        p,
                        &mut scratch,
                        None,
                        None,
                        Some(&mut clock),
                    )?;
                    settle(&mut state, &mut clock, outcome);
                    break;
                }
                fold_marginals(&mut state, &marginals);
                state.cursor += 1;
                clock.record_iteration();
                clock.record_utility_calls(calls);
            }
        }
    }
    state.utility_calls = clock.utility_calls();

    // Scores average only fully-folded permutations; in-flight partial
    // marginals live solely in the checkpoint.
    let done = state.cursor;
    let values: Vec<f64> = if done == 0 {
        vec![0.0; n]
    } else {
        state.totals.iter().map(|t| t / done as f64).collect()
    };
    let max_se = if done == 0 {
        None
    } else {
        let p = done as f64;
        state
            .totals
            .iter()
            .zip(&state.totals_sq)
            .map(|(&t, &sq)| {
                let mean = t / p;
                let var = (sq / p - mean * mean).max(0.0);
                (var / p).sqrt()
            })
            .fold(None, |acc: Option<f64>, se| {
                Some(acc.map_or(se, |a| a.max(se)))
            })
    };

    let stats = batcher.stats();
    Ok((
        BudgetedShapley {
            scores: ImportanceScores::new(TMC_METHOD, values),
            diagnostics: clock.diagnostics(max_se),
            checkpoint: state,
        },
        stats,
    ))
}

/// Fold one permutation's marginals into the running checkpoint sums.
fn fold_marginals(state: &mut McCheckpoint, marginals: &[f64]) {
    for (i, &m) in marginals.iter().enumerate() {
        state.totals[i] += m;
        state.totals_sq[i] += m * m;
    }
}

/// Apply a budget-enforced walk's outcome to the checkpoint state.
fn settle(state: &mut McCheckpoint, clock: &mut BudgetClock, outcome: WalkOutcome) {
    match outcome {
        WalkOutcome::Complete { marginals, .. } => {
            // Per-call walks already recorded their utility calls.
            fold_marginals(state, &marginals);
            state.cursor += 1;
            clock.record_iteration();
        }
        WalkOutcome::Tripped {
            inflight,
            rng_state,
        } => {
            state.inflight = Some(inflight);
            state.rng_state = Some(rng_state);
        }
    }
}

/// Per-worker reusable buffers for permutation walks.
struct WalkScratch {
    order: Vec<usize>,
    prefix: Vec<usize>,
    /// Sorted prefix copies queued as one batched wave.
    wave: Vec<Vec<usize>>,
}

impl WalkScratch {
    fn new(n: usize) -> WalkScratch {
        WalkScratch {
            order: Vec::with_capacity(n),
            prefix: Vec::with_capacity(n),
            wave: Vec::new(),
        }
    }
}

/// How a permutation walk ended.
enum WalkOutcome {
    /// All positions folded (or truncated); `calls` utility evaluations.
    Complete { marginals: Vec<f64>, calls: u64 },
    /// The per-call utility budget tripped mid-walk.
    Tripped {
        inflight: InflightPermutation,
        rng_state: [u64; 4],
    },
}

/// Walk one permutation's prefix chain, from scratch or resumed from an
/// in-flight snapshot. Permutation `p` depends only on
/// `child_seed(config.seed, p)`; coalitions are evaluated in sorted index
/// order, queued in waves of up to `batcher.width()` consecutive prefixes
/// and scored per wave. Waves are *folded* strictly sequentially, so
/// truncation and budget enforcement behave exactly as in a one-at-a-time
/// walk. With `clock` attached, the utility-call budget is enforced before
/// every logical evaluation (wave width is clamped to the remaining budget)
/// and consumed calls are recorded on the spot; without it, the walk runs
/// to completion and reports its call count.
#[allow(clippy::too_many_arguments)]
fn walk_permutation<C: Classifier>(
    batcher: &UtilityBatcher<'_, C>,
    full_utility: f64,
    config: &ShapleyConfig,
    p: u64,
    scratch: &mut WalkScratch,
    resume_from: Option<&InflightPermutation>,
    expected_rng: Option<[u64; 4]>,
    mut clock: Option<&mut BudgetClock>,
) -> Result<WalkOutcome> {
    let n = batcher.train_len();
    let mut rng = seeded(child_seed(config.seed, p));
    scratch.order.clear();
    scratch.order.extend(0..n);
    scratch.order.shuffle(&mut rng);
    let rng_state = rng.state();
    if let Some(expected) = expected_rng {
        if expected != rng_state {
            return Err(ImportanceError::Checkpoint(format!(
                "checkpoint rng_state does not match permutation {p} of seed {}",
                config.seed
            )));
        }
    }
    let (start, mut prev_u, mut marginals) = match resume_from {
        Some(inflight) => (
            inflight.pos as usize,
            inflight.prev_u,
            inflight.marginals.clone(),
        ),
        None => (0, 0.0, vec![0.0; n]),
    };
    scratch.prefix.clear();
    scratch.prefix.extend_from_slice(&scratch.order[..start]);
    scratch.prefix.sort_unstable();
    let mut calls = 0u64;
    let mut pos = start;
    while pos < n {
        if let Some(clock) = clock.as_deref_mut() {
            if clock.would_exceed_utility(1) {
                return Ok(WalkOutcome::Tripped {
                    inflight: InflightPermutation {
                        pos: pos as u64,
                        prev_u,
                        marginals,
                    },
                    rng_state,
                });
            }
        }
        // Queue the next wave of prefix coalitions. A budget-enforced walk
        // clamps the wave to the calls the budget can still pay for (≥ 1
        // here, since the pre-check above passed).
        let mut width = batcher.width().min(n - pos);
        if let Some(clock) = clock.as_deref() {
            if let Some(remaining) = clock.remaining_utility_calls() {
                width = width.min(remaining.max(1) as usize);
            }
        }
        for j in 0..width {
            let i = scratch.order[pos + j];
            let at = scratch.prefix.partition_point(|&x| x < i);
            scratch.prefix.insert(at, i);
            if scratch.wave.len() <= j {
                scratch.wave.push(Vec::with_capacity(n));
            }
            scratch.wave[j].clear();
            scratch.wave[j].extend_from_slice(&scratch.prefix);
        }
        let utilities = batcher.eval_batch(&scratch.wave[..width])?;
        // Fold the wave sequentially: logical call order, truncation and
        // budget accounting are exactly the unbatched walk's.
        for (j, &u) in utilities.iter().enumerate() {
            let i = scratch.order[pos + j];
            calls += 1;
            if let Some(clock) = clock.as_deref_mut() {
                clock.record_utility_calls(1);
            }
            marginals[i] = u - prev_u;
            prev_u = u;
            if (full_utility - u).abs() < config.truncation_tolerance {
                // Remaining marginals stay 0; any already-evaluated wave
                // tail is discarded (its values are pure, so the physical
                // overshoot is unobservable).
                return Ok(WalkOutcome::Complete { marginals, calls });
            }
        }
        pos += width;
    }
    Ok(WalkOutcome::Complete { marginals, calls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_ml::models::knn::KnnClassifier;

    // The long-standing behavioral suite pins the engine through thin
    // one-at-a-time wrappers (the physical behavior of the removed legacy
    // free functions).
    fn tmc_shapley<C: Classifier + Send + Sync>(
        template: &C,
        train: &Dataset,
        valid: &Dataset,
        config: &ShapleyConfig,
    ) -> Result<ImportanceScores> {
        tmc_shapley_budgeted(
            template,
            train,
            valid,
            config,
            &RunBudget::unlimited(),
            None,
        )
        .map(|run| run.scores)
    }

    fn tmc_shapley_budgeted<C: Classifier + Send + Sync>(
        template: &C,
        train: &Dataset,
        valid: &Dataset,
        config: &ShapleyConfig,
        budget: &RunBudget,
        resume: Option<&McCheckpoint>,
    ) -> Result<BudgetedShapley> {
        tmc_shapley_budgeted_cached(template, train, valid, config, budget, resume, None)
    }

    #[allow(clippy::too_many_arguments)]
    fn tmc_shapley_budgeted_cached<C: Classifier + Send + Sync>(
        template: &C,
        train: &Dataset,
        valid: &Dataset,
        config: &ShapleyConfig,
        budget: &RunBudget,
        resume: Option<&McCheckpoint>,
        cache: Option<&MemoCache>,
    ) -> Result<BudgetedShapley> {
        tmc_engine(
            template,
            train,
            valid,
            config,
            budget,
            resume,
            cache,
            BatchPolicy::Unbatched,
            &WorkerPool::shared(),
        )
        .map(|(run, _)| run)
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
    fn mislabelled_point_has_lowest_shapley_value() {
        let (train, valid) = toy();
        let cfg = ShapleyConfig {
            permutations: 200,
            truncation_tolerance: 0.0,
            seed: 1,
            threads: 1,
        };
        let scores = tmc_shapley(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        assert_eq!(scores.bottom_k(1), vec![4]);
        assert!(scores.values[4] < 0.0);
        // Clean points have positive value.
        assert!(scores.values[0] > 0.0);
        assert!(scores.values[2] > 0.0);
    }

    #[test]
    fn efficiency_axiom_approximately_holds() {
        // Sum of Shapley values = U(full) − U(∅) = U(full).
        let (train, valid) = toy();
        let cfg = ShapleyConfig {
            permutations: 500,
            truncation_tolerance: 0.0,
            seed: 2,
            threads: 1,
        };
        let scores = tmc_shapley(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        let sum: f64 = scores.values.iter().sum();
        let full = nde_ml::model::utility(&KnnClassifier::new(1), &train, &valid).unwrap();
        // With no truncation, every permutation's marginals telescope to
        // exactly U(full), so this holds to floating-point error.
        assert!((sum - full).abs() < 1e-9, "sum={sum} full={full}");
    }

    #[test]
    fn deterministic_and_parallel_bit_identical() {
        let (train, valid) = toy();
        let mut cfg = ShapleyConfig {
            permutations: 60,
            truncation_tolerance: 0.0,
            seed: 3,
            threads: 1,
        };
        let a = tmc_shapley(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        let b = tmc_shapley(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        assert_eq!(a, b);
        // Bit-identical regardless of thread count (work is seed-partitioned
        // and settled in index order).
        cfg.threads = 4;
        let c = tmc_shapley(&KnnClassifier::new(1), &train, &valid, &cfg).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn batched_waves_are_bit_identical_to_unbatched() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let cfg = ShapleyConfig {
            permutations: 40,
            truncation_tolerance: 0.02, // exercise mid-wave truncation
            seed: 9,
            threads: 1,
        };
        let (plain, plain_stats) = tmc_engine(
            &knn,
            &train,
            &valid,
            &cfg,
            &RunBudget::unlimited(),
            None,
            None,
            BatchPolicy::Unbatched,
            &WorkerPool::shared(),
        )
        .unwrap();
        assert_eq!(plain_stats.batched_evals, 0);
        for size in [1, 2, 3, 8, 64] {
            let (batched, stats) = tmc_engine(
                &knn,
                &train,
                &valid,
                &cfg,
                &RunBudget::unlimited(),
                None,
                None,
                BatchPolicy::Grouped { size },
                &WorkerPool::shared(),
            )
            .unwrap();
            assert_eq!(batched.scores, plain.scores, "size={size}");
            assert_eq!(batched.checkpoint, plain.checkpoint, "size={size}");
            assert_eq!(
                batched.diagnostics.utility_calls, plain.diagnostics.utility_calls,
                "size={size}"
            );
            assert!(stats.batched_evals > 0, "size={size} must use the scorer");
        }
    }

    #[test]
    fn truncation_reduces_no_worse_than_tolerance() {
        let (train, valid) = toy();
        let exact_cfg = ShapleyConfig {
            permutations: 300,
            truncation_tolerance: 0.0,
            seed: 4,
            threads: 1,
        };
        let trunc_cfg = ShapleyConfig {
            truncation_tolerance: 0.05,
            ..exact_cfg.clone()
        };
        let exact = tmc_shapley(&KnnClassifier::new(1), &train, &valid, &exact_cfg).unwrap();
        let trunc = tmc_shapley(&KnnClassifier::new(1), &train, &valid, &trunc_cfg).unwrap();
        // Rankings agree on the harmful point.
        assert_eq!(exact.bottom_k(1), trunc.bottom_k(1));
    }

    #[test]
    fn validates_arguments() {
        let (train, valid) = toy();
        let cfg = ShapleyConfig {
            permutations: 0,
            ..Default::default()
        };
        assert!(tmc_shapley(&KnnClassifier::new(1), &train, &valid, &cfg).is_err());
        let empty = train.subset(&[]);
        assert!(tmc_shapley(
            &KnnClassifier::new(1),
            &empty,
            &valid,
            &ShapleyConfig::default()
        )
        .is_err());
    }

    fn budget_cfg(permutations: usize) -> ShapleyConfig {
        ShapleyConfig {
            permutations,
            truncation_tolerance: 0.0,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn budgeted_with_unlimited_budget_matches_plain_tmc() {
        let (train, valid) = toy();
        let cfg = budget_cfg(40);
        let knn = KnnClassifier::new(1);
        let plain = tmc_shapley(&knn, &train, &valid, &cfg).unwrap();
        let run = tmc_shapley_budgeted(&knn, &train, &valid, &cfg, &RunBudget::unlimited(), None)
            .unwrap();
        assert_eq!(run.scores.values, plain.values);
        assert!(run.diagnostics.completed());
        assert_eq!(run.diagnostics.iterations, 40);
        assert_eq!(run.checkpoint.cursor, 40);
        assert!(run.checkpoint.inflight.is_none());
        assert!(run.diagnostics.max_marginal_std_error.unwrap() >= 0.0);
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        let (train, valid) = toy();
        let cfg = budget_cfg(50);
        let knn = KnnClassifier::new(1);
        let budget = RunBudget::unlimited().with_max_iterations(5);
        let run = tmc_shapley_budgeted(&knn, &train, &valid, &cfg, &budget, None).unwrap();
        assert!(!run.diagnostics.completed());
        assert_eq!(
            run.diagnostics.exhausted,
            Some(nde_robust::Exhaustion::Iterations)
        );
        assert_eq!(run.checkpoint.cursor, 5);
        // Iteration budgets stop on permutation boundaries.
        assert!(run.checkpoint.inflight.is_none());
        // Best-so-far estimate is still a usable average.
        assert!(run.scores.values.iter().all(|v| v.is_finite()));
        let budget = RunBudget::unlimited().with_max_utility_calls(8);
        let run = tmc_shapley_budgeted(&knn, &train, &valid, &cfg, &budget, None).unwrap();
        assert_eq!(
            run.diagnostics.exhausted,
            Some(nde_robust::Exhaustion::UtilityCalls)
        );
        assert!(run.checkpoint.cursor < 50);
        assert_eq!(run.checkpoint.utility_calls, 8);
        // n=5 per permutation: 1 (full) + 5 (perm 0) + 2 = 8 calls puts the
        // deterministic stopping point two positions into permutation 1.
        assert_eq!(run.checkpoint.cursor, 1);
        let inflight = run.checkpoint.inflight.as_ref().unwrap();
        assert_eq!(inflight.pos, 2);
        assert!(run.checkpoint.rng_state.is_some());
    }

    #[test]
    fn interrupted_plus_resumed_is_bit_identical_to_uninterrupted() {
        let (train, valid) = toy();
        let cfg = budget_cfg(30);
        let knn = KnnClassifier::new(1);
        let uninterrupted =
            tmc_shapley_budgeted(&knn, &train, &valid, &cfg, &RunBudget::unlimited(), None)
                .unwrap();
        // Stop after 11 permutations, round-trip the checkpoint through
        // JSON, then finish the remaining 19.
        let first = tmc_shapley_budgeted(
            &knn,
            &train,
            &valid,
            &cfg,
            &RunBudget::unlimited().with_max_iterations(11),
            None,
        )
        .unwrap();
        assert_eq!(first.checkpoint.cursor, 11);
        let restored = McCheckpoint::from_json(&first.checkpoint.to_json()).unwrap();
        assert_eq!(restored, first.checkpoint);
        let resumed = tmc_shapley_budgeted(
            &knn,
            &train,
            &valid,
            &cfg,
            &RunBudget::unlimited(),
            Some(&restored),
        )
        .unwrap();
        assert_eq!(resumed.scores.values, uninterrupted.scores.values);
        assert_eq!(resumed.checkpoint.cursor, uninterrupted.checkpoint.cursor);
        assert_eq!(resumed.checkpoint.totals, uninterrupted.checkpoint.totals);
        assert_eq!(
            resumed.checkpoint.totals_sq,
            uninterrupted.checkpoint.totals_sq
        );
        // Resuming re-primes the full-utility value, so the resumed run
        // honestly accounts one extra utility call.
        assert_eq!(
            resumed.checkpoint.utility_calls,
            uninterrupted.checkpoint.utility_calls + 1
        );
    }

    #[test]
    fn mid_permutation_resume_is_bit_identical() {
        let (train, valid) = toy();
        let cfg = budget_cfg(12);
        let knn = KnnClassifier::new(1);
        let uninterrupted =
            tmc_shapley_budgeted(&knn, &train, &valid, &cfg, &RunBudget::unlimited(), None)
                .unwrap();
        let full_calls = uninterrupted.checkpoint.utility_calls;
        // Trip the utility budget at every possible call count; each stop
        // lands at a different mid-permutation position. Resume must always
        // reconverge to the exact uninterrupted floats.
        for max_calls in 2..full_calls {
            let partial = tmc_shapley_budgeted(
                &knn,
                &train,
                &valid,
                &cfg,
                &RunBudget::unlimited().with_max_utility_calls(max_calls),
                None,
            )
            .unwrap();
            assert_eq!(partial.checkpoint.utility_calls, max_calls);
            let restored = McCheckpoint::from_json(&partial.checkpoint.to_json()).unwrap();
            let resumed = tmc_shapley_budgeted(
                &knn,
                &train,
                &valid,
                &cfg,
                &RunBudget::unlimited(),
                Some(&restored),
            )
            .unwrap();
            assert_eq!(
                resumed.scores.values, uninterrupted.scores.values,
                "resume after {max_calls} utility calls must be bit-identical"
            );
            assert_eq!(resumed.checkpoint.totals, uninterrupted.checkpoint.totals);
            assert_eq!(
                resumed.checkpoint.totals_sq,
                uninterrupted.checkpoint.totals_sq
            );
            assert!(resumed.checkpoint.inflight.is_none());
        }
    }

    #[test]
    fn batched_budget_trips_at_the_same_call_counts() {
        // The wave engine must reproduce the unbatched trip points exactly:
        // same checkpoint cursor, same in-flight position, same floats.
        let (train, valid) = toy();
        let cfg = budget_cfg(6);
        let knn = KnnClassifier::new(1);
        let (uninterrupted, _) = tmc_engine(
            &knn,
            &train,
            &valid,
            &cfg,
            &RunBudget::unlimited(),
            None,
            None,
            BatchPolicy::Unbatched,
            &WorkerPool::shared(),
        )
        .unwrap();
        let full_calls = uninterrupted.checkpoint.utility_calls;
        for max_calls in 2..full_calls {
            let budget = RunBudget::unlimited().with_max_utility_calls(max_calls);
            let (plain, _) = tmc_engine(
                &knn,
                &train,
                &valid,
                &cfg,
                &budget,
                None,
                None,
                BatchPolicy::Unbatched,
                &WorkerPool::shared(),
            )
            .unwrap();
            let (batched, _) = tmc_engine(
                &knn,
                &train,
                &valid,
                &cfg,
                &budget,
                None,
                None,
                BatchPolicy::Grouped { size: 4 },
                &WorkerPool::shared(),
            )
            .unwrap();
            assert_eq!(
                batched.checkpoint, plain.checkpoint,
                "trip state at max_calls={max_calls}"
            );
            assert_eq!(batched.scores, plain.scores);
        }
    }

    #[test]
    fn memoized_run_is_bit_identical_and_hits() {
        let (train, valid) = toy();
        let cfg = budget_cfg(25);
        let knn = KnnClassifier::new(1);
        let plain = tmc_shapley_budgeted(&knn, &train, &valid, &cfg, &RunBudget::unlimited(), None)
            .unwrap();
        let cache = MemoCache::new();
        let cached = tmc_shapley_budgeted_cached(
            &knn,
            &train,
            &valid,
            &cfg,
            &RunBudget::unlimited(),
            None,
            Some(&cache),
        )
        .unwrap();
        assert_eq!(cached.scores.values, plain.scores.values);
        // Logical budget accounting is cache-independent.
        assert_eq!(
            cached.checkpoint.utility_calls,
            plain.checkpoint.utility_calls
        );
        // 25 permutations over 5 examples revisit coalitions constantly.
        assert!(cache.hits() > 0, "expected repeated coalitions to hit");
        assert!(cache.len() as u64 <= plain.checkpoint.utility_calls);
    }

    #[test]
    fn rejects_mismatched_checkpoints_and_corrupt_features() {
        let (train, valid) = toy();
        let cfg = budget_cfg(10);
        let knn = KnnClassifier::new(1);
        let other = McCheckpoint::fresh("tmc-shapley", 999, train.len());
        let err = tmc_shapley_budgeted(
            &knn,
            &train,
            &valid,
            &cfg,
            &RunBudget::unlimited(),
            Some(&other),
        );
        assert!(matches!(err, Err(ImportanceError::Checkpoint(_))));
        let wrong_method = McCheckpoint::fresh("zorro", cfg.seed, train.len());
        assert!(matches!(
            tmc_shapley_budgeted(
                &knn,
                &train,
                &valid,
                &cfg,
                &RunBudget::unlimited(),
                Some(&wrong_method)
            ),
            Err(ImportanceError::Checkpoint(_))
        ));
        // An in-flight snapshot whose rng_state does not belong to the run's
        // seed is refused instead of silently corrupting the estimate.
        let trip = tmc_shapley_budgeted(
            &knn,
            &train,
            &valid,
            &cfg,
            &RunBudget::unlimited().with_max_utility_calls(8),
            None,
        )
        .unwrap();
        let mut forged = trip.checkpoint.clone();
        forged.rng_state = Some([1, 2, 3, 4]);
        assert!(matches!(
            tmc_shapley_budgeted(
                &knn,
                &train,
                &valid,
                &cfg,
                &RunBudget::unlimited(),
                Some(&forged)
            ),
            Err(ImportanceError::Checkpoint(_))
        ));
        let mut poisoned = train.clone();
        poisoned.x.set(1, 0, f64::NAN);
        let err =
            tmc_shapley_budgeted(&knn, &poisoned, &valid, &cfg, &RunBudget::unlimited(), None);
        assert!(matches!(err, Err(ImportanceError::Ml(m)) if m.contains("row 1")));
    }
}
