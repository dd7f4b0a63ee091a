//! Chaos-style integration tests: every fault class the `nde-robust`
//! harness can inject — operator panics, corrupt/NaN features, flaky and
//! dead oracles, exhausted budgets — must degrade into a typed error or a
//! tagged partial result, never a process abort.

use nde_cleaning::{
    prioritized_cleaning, prioritized_cleaning_robust, CleaningError, FlakyOracle, LabelOracle,
    MaintenanceMode, Strategy,
};
use nde_data::generate::blobs::two_gaussians;
use nde_data::generate::hiring::HiringScenario;
use nde_importance::{tmc_shapley, ImportanceError, ImportanceRun, TmcParams};
use nde_ml::dataset::Dataset;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::exec::{Executor, PanicPolicy};
use nde_pipeline::plan::Plan;
use nde_pipeline::PipelineError;
use nde_robust::chaos::{
    corrupt_features, corrupting_projection, panicking_predicate, panicking_projection,
    CHAOS_PANIC_PREFIX,
};
use nde_robust::{FaultSchedule, RetryPolicy, RunBudget};
use nde_tests::tmc_state;

fn gaussian_split() -> (Dataset, Dataset) {
    let nd = two_gaussians(80, 3, 1.5, 51);
    let all = Dataset::try_from(&nd).unwrap();
    (
        all.subset(&(0..60).collect::<Vec<_>>()),
        all.subset(&(60..80).collect::<Vec<_>>()),
    )
}

#[test]
fn injected_filter_panic_fails_fast_with_operator_identity() {
    let s = HiringScenario::generate(40, 3);
    let mut plan = Plan::new();
    let src = plan.source("train_df");
    let f = plan.filter(src, panicking_predicate(7));
    let err = Executor::new()
        .run(&plan, f, &[("train_df", &s.letters)])
        .unwrap_err();
    match err {
        PipelineError::OperatorPanic {
            node,
            operator,
            row,
            message,
        } => {
            assert_eq!(node, f.index());
            assert!(operator.starts_with("filter("), "{operator}");
            assert!(
                operator.contains("chaos_panic_predicate_row_7"),
                "{operator}"
            );
            assert_eq!(row, 7);
            assert!(message.starts_with(CHAOS_PANIC_PREFIX), "{message}");
        }
        other => panic!("expected OperatorPanic, got {other:?}"),
    }
}

#[test]
fn injected_projection_panic_is_quarantined_with_provenance() {
    let s = HiringScenario::generate(40, 4);
    let mut plan = Plan::new();
    let src = plan.source("train_df");
    let p = plan.project(src, "chaos", panicking_projection(11));
    let out = Executor::new()
        .with_provenance(true)
        .with_panic_policy(PanicPolicy::SkipAndRecord)
        .run(&plan, p, &[("train_df", &s.letters)])
        .unwrap();
    // The pipeline completed; exactly the faulted tuple is gone and its
    // source lineage is preserved in the quarantine record.
    assert_eq!(out.table.n_rows(), s.letters.n_rows() - 1);
    assert_eq!(out.quarantined.len(), 1);
    let q = &out.quarantined[0];
    assert_eq!(q.row, 11);
    assert!(q.operator.starts_with("project(chaos :="), "{}", q.operator);
    assert!(q.message.starts_with(CHAOS_PANIC_PREFIX), "{}", q.message);
    assert_eq!(q.sources.len(), 1);
    assert_eq!(q.sources[0].source, 0);
    assert_eq!(q.sources[0].row, 11);
    // Surviving rows still compute the projected column.
    assert!(out.table.schema().contains("chaos"));
}

#[test]
fn quarantine_contents_and_surviving_order_are_thread_invariant() {
    // A chaos predicate panics on one row; under SkipAndRecord the
    // quarantine record and the surviving rows (including their order)
    // must be identical at 1, 2 and 4 worker threads.
    let s = HiringScenario::generate(200, 9);
    let mut plan = Plan::new();
    let src = plan.source("train_df");
    let f = plan.filter(src, panicking_predicate(13));
    let run = |threads| {
        Executor::new()
            .with_provenance(true)
            .with_panic_policy(PanicPolicy::SkipAndRecord)
            .with_threads(threads)
            .run(&plan, f, &[("train_df", &s.letters)])
            .unwrap()
    };
    let seq = run(1);
    assert_eq!(seq.table.n_rows(), s.letters.n_rows() - 1);
    assert_eq!(seq.quarantined.len(), 1);
    let q = &seq.quarantined[0];
    assert_eq!(q.row, 13);
    assert!(q.operator.starts_with("filter("), "{}", q.operator);
    assert!(q.message.starts_with(CHAOS_PANIC_PREFIX), "{}", q.message);
    assert_eq!(q.sources.len(), 1);
    assert_eq!((q.sources[0].source, q.sources[0].row), (0, 13));
    // Survivors keep source order: 0..n with exactly row 13 missing.
    let lineage = seq.provenance.as_ref().unwrap();
    let survivors: Vec<usize> = (0..lineage.n_rows())
        .map(|row| lineage.row_tuples(row)[0].row as usize)
        .collect();
    let expected: Vec<usize> = (0..s.letters.n_rows()).filter(|&r| r != 13).collect();
    assert_eq!(survivors, expected);
    for threads in [2, 4] {
        let par = run(threads);
        assert_eq!(par.table, seq.table, "threads={threads}");
        assert_eq!(par.quarantined, seq.quarantined, "threads={threads}");
        assert_eq!(par.provenance, seq.provenance, "threads={threads}");
    }
}

#[test]
fn corrupting_projection_emits_nan_that_downstream_checks_catch() {
    let s = HiringScenario::generate(20, 5);
    let mut plan = Plan::new();
    let src = plan.source("train_df");
    let p = plan.project(src, "poisoned", corrupting_projection(2));
    let out = Executor::new()
        .run(&plan, p, &[("train_df", &s.letters)])
        .unwrap();
    let mut nan_rows = Vec::new();
    for row in 0..out.table.n_rows() {
        if let Some(v) = out.table.get(row, "poisoned").unwrap().as_float() {
            if v.is_nan() {
                nan_rows.push(row);
            }
        }
    }
    assert_eq!(nan_rows, vec![2]);
}

#[test]
fn corrupt_features_are_rejected_by_the_budgeted_estimator() {
    let (mut train, valid) = gaussian_split();
    let cells = corrupt_features(&mut train, 3, 9);
    assert_eq!(cells.len(), 3);
    let params = TmcParams {
        permutations: 4,
        truncation_tolerance: 0.0,
    };
    let err = tmc_shapley(
        &ImportanceRun::new(1),
        &KnnClassifier::new(1),
        &train,
        &valid,
        &params,
    )
    .unwrap_err();
    match err {
        ImportanceError::Ml(m) => assert!(m.contains("non-finite"), "{m}"),
        other => panic!("expected a typed Ml error, got {other:?}"),
    }
}

#[test]
fn shapley_budget_exhaustion_yields_best_so_far_plus_diagnostics() {
    let (train, valid) = gaussian_split();
    let params = TmcParams {
        permutations: 100,
        truncation_tolerance: 0.0,
    };
    let run = tmc_shapley(
        &ImportanceRun::new(2).with_budget(RunBudget::unlimited().with_max_iterations(6)),
        &KnnClassifier::new(1),
        &train,
        &valid,
        &params,
    )
    .unwrap();
    let diag = run.report.diagnostics.as_ref().unwrap();
    assert!(!diag.completed());
    assert_eq!(diag.iterations, 6);
    assert_eq!(tmc_state(&run).cursor, 6);
    assert_eq!(run.scores.values.len(), train.len());
    assert!(run.scores.values.iter().all(|v| v.is_finite()));
    assert!(diag.max_marginal_std_error.is_some());
}

#[test]
fn cleaning_rides_out_a_flaky_oracle_and_types_a_dead_one() {
    let nd = two_gaussians(120, 3, 2.0, 52);
    let all = Dataset::try_from(&nd).unwrap();
    let mut train = all.subset(&(0..90).collect::<Vec<_>>());
    let valid = all.subset(&(90..120).collect::<Vec<_>>());
    let truth = train.y.clone();
    for f in [4, 19, 33, 48, 61, 77, 85] {
        train.y[f] = 1 - train.y[f];
    }
    let oracle = LabelOracle::new(truth);
    let strategy = Strategy::Random { seed: 3 };
    let knn = KnnClassifier::new(3);

    let healthy = prioritized_cleaning(
        &knn,
        &train,
        &oracle,
        &valid,
        &strategy,
        10,
        3,
        false,
        MaintenanceMode::Rerun,
    )
    .unwrap();

    // A 1-in-2 outage schedule with retries: same trace, nonzero retries.
    let flaky = FlakyOracle::new(oracle.clone(), FaultSchedule::every_nth(2));
    let robust = prioritized_cleaning_robust(
        &knn,
        &train,
        &flaky,
        &valid,
        &strategy,
        10,
        3,
        false,
        MaintenanceMode::Rerun,
        &RunBudget::unlimited(),
        &RetryPolicy::immediate(3),
    )
    .unwrap();
    assert_eq!(robust.run, healthy);
    assert!(robust.oracle_retries > 0);
    assert!(robust.diagnostics.completed());

    // A hard outage exhausts retries into a typed error, not an abort.
    let dead = FlakyOracle::new(oracle, FaultSchedule::always());
    let err = prioritized_cleaning_robust(
        &knn,
        &train,
        &dead,
        &valid,
        &strategy,
        10,
        3,
        false,
        MaintenanceMode::Rerun,
        &RunBudget::unlimited(),
        &RetryPolicy::immediate(3),
    )
    .unwrap_err();
    assert!(
        matches!(err, CleaningError::OracleFailed { attempts: 3, .. }),
        "{err:?}"
    );
}
