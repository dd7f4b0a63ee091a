//! The batched utility engine's cross-crate contract: batching is a
//! purely *physical* optimization. For every estimator, thread count and
//! budget, a grouped [`BatchPolicy`] must produce bit-identical scores,
//! reports and checkpoints to the unbatched path — including when a budget
//! trips mid-wave and when a run resumes from a mid-permutation checkpoint.

use nde_data::generate::blobs::two_gaussians;
use nde_importance::{
    banzhaf, beta_shapley, tmc_shapley, BanzhafParams, BatchPolicy, BetaShapleyParams,
    ImportanceRun, TmcParams,
};
use nde_ml::dataset::Dataset;
use nde_ml::models::knn::KnnClassifier;
use nde_robust::par::MemoCache;
use nde_robust::RunBudget;
use nde_tests::tmc_state;

fn workload(n: usize, n_valid: usize, seed: u64) -> (Dataset, Dataset) {
    let nd = two_gaussians(n + n_valid, 3, 4.0, seed);
    let all = Dataset::try_from(&nd).expect("blob data is well-formed");
    let mut train = all.subset(&(0..n).collect::<Vec<_>>());
    let valid = all.subset(&(n..n + n_valid).collect::<Vec<_>>());
    for f in [1, 6, 13] {
        train.y[f] = 1 - train.y[f];
    }
    (train, valid)
}

fn tmc_params() -> TmcParams {
    TmcParams {
        permutations: 10,
        truncation_tolerance: 0.01,
    }
}

#[test]
fn batched_tmc_is_bit_identical_across_threads_without_budget() {
    let (train, valid) = workload(22, 12, 9);
    let knn = KnnClassifier::new(1);
    let baseline = tmc_shapley(
        &ImportanceRun::new(5).with_batch(BatchPolicy::Unbatched),
        &knn,
        &train,
        &valid,
        &tmc_params(),
    )
    .unwrap();
    for threads in [1, 4] {
        for size in [1, 4, 32] {
            let batched = tmc_shapley(
                &ImportanceRun::new(5)
                    .with_threads(threads)
                    .with_batch(BatchPolicy::Grouped { size }),
                &knn,
                &train,
                &valid,
                &tmc_params(),
            )
            .unwrap();
            assert_eq!(
                baseline.scores, batched.scores,
                "threads={threads} size={size}"
            );
            assert_eq!(baseline.report.utility_calls, batched.report.utility_calls);
            assert!(batched.report.batched_evals > 0, "scorer must be used");
        }
    }
}

#[test]
fn batched_tmc_trips_budget_at_the_same_point_across_threads() {
    let (train, valid) = workload(22, 12, 9);
    let knn = KnnClassifier::new(1);
    // Trips mid-permutation, so the checkpoint carries in-flight state.
    let budget = RunBudget::unlimited().with_max_utility_calls(75);
    let baseline = tmc_shapley(
        &ImportanceRun::new(5)
            .with_budget(budget.clone())
            .with_batch(BatchPolicy::Unbatched),
        &knn,
        &train,
        &valid,
        &tmc_params(),
    )
    .unwrap();
    assert!(!baseline.report.diagnostics.as_ref().unwrap().completed());
    let base_ckpt = tmc_state(&baseline);
    for threads in [1, 4] {
        let batched = tmc_shapley(
            &ImportanceRun::new(5)
                .with_threads(threads)
                .with_budget(budget.clone())
                .with_batch(BatchPolicy::Grouped { size: 8 }),
            &knn,
            &train,
            &valid,
            &tmc_params(),
        )
        .unwrap();
        assert_eq!(baseline.scores, batched.scores, "threads={threads}");
        assert_eq!(baseline.report.utility_calls, 75);
        assert_eq!(batched.report.utility_calls, 75);
        // The entire checkpoint — cursor, rng state, in-flight walk, float
        // totals — must match the unbatched run's exactly.
        assert_eq!(base_ckpt, tmc_state(&batched));
    }
}

#[test]
fn batched_run_resumes_from_an_unbatched_mid_permutation_checkpoint() {
    let (train, valid) = workload(22, 12, 9);
    let knn = KnnClassifier::new(1);
    let full = tmc_shapley(&ImportanceRun::new(6), &knn, &train, &valid, &tmc_params()).unwrap();
    // Interrupt unbatched mid-permutation, resume with batched waves (and
    // vice versa): checkpoints are interchangeable because batching never
    // leaks into the logical walk.
    for (first, second) in [
        (BatchPolicy::Unbatched, BatchPolicy::Grouped { size: 8 }),
        (BatchPolicy::Grouped { size: 8 }, BatchPolicy::Unbatched),
    ] {
        let tripped = tmc_shapley(
            &ImportanceRun::new(6)
                .with_budget(RunBudget::unlimited().with_max_utility_calls(60))
                .with_batch(first),
            &knn,
            &train,
            &valid,
            &tmc_params(),
        )
        .unwrap();
        assert!(
            tmc_state(&tripped).inflight.is_some(),
            "budget must trip mid-permutation for this test to bite"
        );
        let resumed = tmc_shapley(
            &ImportanceRun::new(6)
                .with_resume(tripped.report.snapshot.as_ref().unwrap())
                .with_batch(second),
            &knn,
            &train,
            &valid,
            &tmc_params(),
        )
        .unwrap();
        assert_eq!(
            full.scores, resumed.scores,
            "{first:?} then {second:?} must equal the uninterrupted run"
        );
    }
}

#[test]
fn batched_banzhaf_and_beta_match_unbatched_at_every_thread_count() {
    let (train, valid) = workload(16, 10, 4);
    let knn = KnnClassifier::new(1);
    let banzhaf_base = banzhaf(
        &ImportanceRun::new(2).with_batch(BatchPolicy::Unbatched),
        &knn,
        &train,
        &valid,
        &BanzhafParams { samples: 80 },
    )
    .unwrap();
    let beta_base = beta_shapley(
        &ImportanceRun::new(2).with_batch(BatchPolicy::Unbatched),
        &knn,
        &train,
        &valid,
        &BetaShapleyParams {
            samples_per_point: 10,
            ..BetaShapleyParams::default()
        },
    )
    .unwrap();
    for threads in [1, 4] {
        let run = ImportanceRun::new(2)
            .with_threads(threads)
            .with_batch(BatchPolicy::Grouped { size: 16 });
        let bz = banzhaf(&run, &knn, &train, &valid, &BanzhafParams { samples: 80 }).unwrap();
        assert_eq!(banzhaf_base.scores, bz.scores, "threads={threads}");
        assert!(bz.report.batched_evals > 0);
        let bs = beta_shapley(
            &run,
            &knn,
            &train,
            &valid,
            &BetaShapleyParams {
                samples_per_point: 10,
                ..BetaShapleyParams::default()
            },
        )
        .unwrap();
        assert_eq!(beta_base.scores, bs.scores, "threads={threads}");
        assert!(bs.report.batched_evals > 0);
    }
}

#[test]
fn cache_and_batching_compose_without_changing_scores_or_trip_points() {
    let (train, valid) = workload(18, 10, 7);
    let knn = KnnClassifier::new(1);
    let budget = RunBudget::unlimited().with_max_utility_calls(110);
    let plain = tmc_shapley(
        &ImportanceRun::new(12)
            .with_budget(budget.clone())
            .with_batch(BatchPolicy::Unbatched),
        &knn,
        &train,
        &valid,
        &TmcParams {
            permutations: 20,
            truncation_tolerance: 0.0,
        },
    )
    .unwrap();
    let cache = MemoCache::new();
    let cached = tmc_shapley(
        &ImportanceRun::new(12)
            .with_threads(4)
            .with_budget(budget)
            .with_cache(&cache)
            .with_batch(BatchPolicy::Grouped { size: 8 }),
        &knn,
        &train,
        &valid,
        &TmcParams {
            permutations: 20,
            truncation_tolerance: 0.0,
        },
    )
    .unwrap();
    assert_eq!(plain.scores, cached.scores);
    // Cache hits still count as logical calls: identical trip point.
    assert_eq!(plain.report.utility_calls, cached.report.utility_calls);
    assert!(cached.report.cache_hits > 0);
    assert_eq!(tmc_state(&plain).cursor, tmc_state(&cached).cursor);
}
