//! Fault tolerance in practice: budgets that degrade gracefully,
//! checkpoint/resume that is bit-identical, panic-isolated pipeline
//! operators, and retries that ride out a flaky cleaning oracle.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use nde_cleaning::{
    prioritized_cleaning_robust, FlakyOracle, LabelOracle, MaintenanceMode, Strategy,
};
use nde_data::generate::blobs::two_gaussians;
use nde_importance::{tmc_shapley, ImportanceRun, TmcParams};
use nde_ml::dataset::Dataset;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::exec::{Executor, PanicPolicy};
use nde_pipeline::plan::Plan;
use nde_robust::chaos::panicking_projection;
use nde_robust::{
    FaultSchedule, McCheckpoint, RetryPolicy, RunBudget, RunFingerprint, RunStore, Snapshot,
};

fn main() {
    let nd = two_gaussians(120, 3, 1.8, 77);
    let all = Dataset::try_from(&nd).unwrap();
    let train = all.subset(&(0..90).collect::<Vec<_>>());
    let valid = all.subset(&(90..120).collect::<Vec<_>>());
    let params = TmcParams {
        permutations: 40,
        truncation_tolerance: 0.0,
    };
    let knn = KnnClassifier::new(3);

    // 1. Budgeted run that trips on utility calls mid-permutation; its
    // snapshot is written as a durable store record (simulated crash), read
    // back, and resumed.
    let partial = tmc_shapley(
        &ImportanceRun::new(5).with_budget(RunBudget::unlimited().with_max_utility_calls(60)),
        &knn,
        &train,
        &valid,
        &params,
    )
    .unwrap();
    let snapshot = partial.report.snapshot.unwrap();
    let partial_state = McCheckpoint::from_payload(&snapshot).unwrap();
    let partial_diag = partial.report.diagnostics.unwrap();
    println!(
        "partial: cursor={} mid-permutation={} exhausted={:?} max_se={:?}",
        partial_state.cursor,
        partial_state.inflight.is_some(),
        partial_diag.exhausted,
        partial_diag.max_marginal_std_error
    );
    let dir = std::env::temp_dir().join(format!("nde-ft-probe-{}", std::process::id()));
    let store = RunStore::open(&dir).unwrap();
    let fp = RunFingerprint::new(
        McCheckpoint::METHOD,
        5,
        "permutations=40",
        train.fingerprint(),
    );
    let record_path = store
        .save_checkpoint(&fp, partial_state.step(), &snapshot)
        .unwrap();
    let record = store.latest_valid(&fp).unwrap().unwrap();
    let resumed = tmc_shapley(
        &ImportanceRun::new(5).with_resume(&record.payload),
        &knn,
        &train,
        &valid,
        &params,
    )
    .unwrap();
    let full = tmc_shapley(&ImportanceRun::new(5), &knn, &train, &valid, &params).unwrap();
    println!(
        "resume bit-identical to uninterrupted: {}",
        resumed.scores.values == full.scores.values
    );

    // Probe: tear the record on disk; recovery skips it rather than
    // resuming from garbage.
    std::fs::write(&record_path, "{not json").unwrap();
    println!(
        "torn record skipped: {}",
        store.latest_valid(&fp).unwrap().is_none()
    );
    std::fs::remove_dir_all(&dir).ok();

    // Probe: resume into a run with a different seed.
    let err = tmc_shapley(
        &ImportanceRun::new(6).with_resume(&snapshot),
        &knn,
        &train,
        &valid,
        &params,
    )
    .unwrap_err();
    println!("wrong-seed resume: {err}");

    // 2. Panic-isolated pipeline operator, skip-and-record.
    let s = nde_data::generate::hiring::HiringScenario::generate(30, 9);
    let mut plan = Plan::new();
    let src = plan.source("train_df");
    let p = plan.project(src, "boom", panicking_projection(4));
    let out = Executor::new()
        .with_provenance(true)
        .with_panic_policy(PanicPolicy::SkipAndRecord)
        .run(&plan, p, &[("train_df", &s.letters)])
        .unwrap();
    println!(
        "quarantined {} tuple(s); first: node={} op={} row={} sources={:?}",
        out.quarantined.len(),
        out.quarantined[0].node,
        out.quarantined[0].operator,
        out.quarantined[0].row,
        out.quarantined[0].sources
    );
    println!(
        "pipeline completed with {} of {} rows",
        out.table.n_rows(),
        s.letters.n_rows()
    );
    let fail = Executor::new().run(&plan, p, &[("train_df", &s.letters)]);
    println!("fail-fast: {}", fail.unwrap_err());

    // 3. Flaky oracle ridden out by retries.
    let mut dirty = train.clone();
    let truth = dirty.y.clone();
    for f in [3, 11, 27, 40, 66] {
        dirty.y[f] = 1 - dirty.y[f];
    }
    let flaky = FlakyOracle::new(LabelOracle::new(truth), FaultSchedule::every_nth(2));
    let run = prioritized_cleaning_robust(
        &knn,
        &dirty,
        &flaky,
        &valid,
        &Strategy::Random { seed: 2 },
        10,
        3,
        false,
        MaintenanceMode::Rerun,
        &RunBudget::unlimited(),
        &RetryPolicy::immediate(3),
    )
    .unwrap();
    println!(
        "cleaning under flaky oracle: cleaned={:?} retries={} acc {:.3} -> {:.3}",
        run.run.cleaned,
        run.oracle_retries,
        run.run.dirty_accuracy(),
        run.run.final_accuracy()
    );
}
