//! Differential property suite for incremental maintenance (the E16
//! surface): every fix path — cell patch, splice, rerun fallback — must be
//! **bit-identical** to full re-execution (table *and* lineage) at every
//! thread count; incremental cleaning must produce the same scores and
//! challenge verdicts as refitting; and a chaos-killed incremental cleaning
//! loop must resume through a durable [`RunStore`] to the same trace.

use nde_cleaning::{
    prioritized_cleaning, prioritized_cleaning_resumable, CleaningCheckpoint, CleaningError,
    DebugChallenge, IncrementalDebugSession, LabelOracle, MaintenanceMode, Strategy,
};
use nde_data::generate::blobs::two_gaussians;
use nde_data::generate::hiring::HiringScenario;
use nde_data::rng::{seeded, Rng, StdRng};
use nde_data::{Table, Value};
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::exec::Executor;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::{Delta, DeltaPath, PipelineSession, Plan};
use nde_robust::chaos::{CheckpointKillSwitch, CHAOS_PANIC_PREFIX};
use nde_robust::{
    supervise, FaultSchedule, RetryPolicy, RunBudget, RunFingerprint, RunStore, SuperviseCtx,
};
use nde_tests::{latest, persist};

fn hiring_inputs(s: &HiringScenario) -> Vec<(&str, &Table)> {
    vec![
        ("train_df", &s.letters),
        ("jobdetail_df", &s.job_details),
        ("social_df", &s.social),
    ]
}

/// A mixed fix sequence covering all three propagation paths: non-routing
/// cell updates (patch), insert/delete (splice), and a routing update on
/// the filter column (rerun fallback).
fn fix_sequence() -> Vec<Delta> {
    vec![
        Delta::Update {
            source: "train_df".into(),
            row: 2,
            column: "sentiment".into(),
            value: Value::Str("negative".into()),
        },
        Delta::Update {
            source: "train_df".into(),
            row: 4,
            column: "years_experience".into(),
            value: Value::Float(33.0),
        },
        Delta::Insert {
            source: "train_df".into(),
            values: vec![
                Value::Int(600),
                Value::Int(0),
                Value::Str("wonderful fantastic team".into()),
                Value::Str("msc".into()),
                Value::Float(4.0),
                Value::Float(6.0),
                Value::Str("positive".into()),
            ],
        },
        Delta::Delete {
            source: "social_df".into(),
            row: 0,
        },
        Delta::Update {
            source: "jobdetail_df".into(),
            row: 0,
            column: "sector".into(),
            value: Value::Str("tech".into()),
        },
        Delta::Delete {
            source: "train_df".into(),
            row: 1,
        },
    ]
}

/// After every fix, the maintained table and lineage are bit-identical to a
/// fresh provenance-tracked execution over the mutated sources — at 1, 2, 4
/// and 7 threads — and all thread counts agree with each other.
#[test]
fn fix_sequences_match_full_reexecution_at_every_thread_count() {
    let (plan, root) = Plan::hiring_pipeline();
    let mut baseline: Vec<(Table, nde_pipeline::Lineage)> = Vec::new();
    for threads in [1usize, 2, 4, 7] {
        let s = HiringScenario::generate(60, 9);
        let executor = Executor::new().with_threads(threads);
        let mut session =
            PipelineSession::build(&executor, &plan, root, &hiring_inputs(&s)).unwrap();
        for (step, delta) in fix_sequence().iter().enumerate() {
            session.apply(delta).unwrap();
            // Ground truth: re-execute from the session's mutated sources.
            let mutated: Vec<(&str, &Table)> = session
                .source_names()
                .iter()
                .map(|n| (n.as_str(), session.input(n).unwrap()))
                .collect();
            let fresh = executor
                .clone()
                .with_provenance(true)
                .run(&plan, root, &mutated)
                .unwrap();
            assert_eq!(
                session.table(),
                &fresh.table,
                "threads={threads} step={step}: table"
            );
            let lineage = session.lineage();
            assert_eq!(
                lineage,
                fresh.provenance.unwrap(),
                "threads={threads} step={step}: lineage"
            );
            if threads == 1 {
                baseline.push((session.table().clone(), lineage));
            } else {
                let (t, l) = &baseline[step];
                assert_eq!(session.table(), t, "threads={threads} step={step}");
                assert_eq!(&session.lineage(), l, "threads={threads} step={step}");
            }
        }
        // All three paths were exercised.
        let stats = session.stats();
        assert!(stats.cell_patches >= 2, "{stats:?}");
        assert!(stats.splices >= 1, "{stats:?}");
        assert!(stats.reruns >= 1, "{stats:?}");
    }
}

/// One seeded structural fix against the current sources: a sector flip
/// (either way across the pipeline's healthcare filter), a join-key update
/// on `train_df`, or an insert/delete on `train_df` or `social_df`.
fn structural_fix(rng: &mut StdRng, sources: &PipelineSession, step: usize) -> Delta {
    let letters = sources.input("train_df").unwrap();
    let jobs = sources.input("jobdetail_df").unwrap();
    let social = sources.input("social_df").unwrap();
    match step % 6 {
        0 => {
            let row = rng.gen_range(0..jobs.n_rows());
            let sector = match jobs.get(row, "sector").unwrap() {
                Value::Str(s) if s == "healthcare" => "tech",
                _ => "healthcare",
            };
            Delta::Update {
                source: "jobdetail_df".into(),
                row,
                column: "sector".into(),
                value: Value::Str(sector.into()),
            }
        }
        1 => {
            // Mostly an existing job; sometimes one no job matches.
            let value = if rng.gen_bool(0.8) {
                jobs.get(rng.gen_range(0..jobs.n_rows()), "job_id").unwrap()
            } else {
                Value::Int(rng.gen_range(10_000..20_000i64))
            };
            Delta::Update {
                source: "train_df".into(),
                row: rng.gen_range(0..letters.n_rows()),
                column: "job_id".into(),
                value,
            }
        }
        2 => Delta::Delete {
            source: "train_df".into(),
            row: rng.gen_range(0..letters.n_rows()),
        },
        3 => Delta::Insert {
            source: "train_df".into(),
            values: letters.row(rng.gen_range(0..letters.n_rows())).unwrap(),
        },
        4 => Delta::Delete {
            source: "social_df".into(),
            row: rng.gen_range(0..social.n_rows()),
        },
        _ => {
            let person = letters
                .get(rng.gen_range(0..letters.n_rows()), "person_id")
                .unwrap();
            let handle = if rng.gen_bool(0.5) {
                Value::Str(format!("@fix{step}"))
            } else {
                Value::Null
            };
            Delta::Insert {
                source: "social_df".into(),
                values: vec![person, handle, Value::Int(rng.gen_range(0..500i64))],
            }
        }
    }
}

/// A seeded stream of structural fixes (reruns and splices) through an
/// [`IncrementalDebugSession`] and through pipeline sessions at 2, 4 and 7
/// threads. After every fix, each thread count's table and lineage equal a
/// fresh provenance-tracked run at that thread count, and the session's
/// dataset and accuracy equal a re-encode of that run with the fitted
/// encoders — bit for bit. No rerun re-encodes the whole table.
#[test]
fn structural_fix_stream_matches_fresh_runs_and_reencodes_only_moved_rows() {
    const FIXES: usize = 48;
    let s = HiringScenario::generate(150, 61);
    let knn = KnnClassifier::new(3);
    let valid = {
        let vs = HiringScenario::generate(50, 62);
        let mut fp = FeaturePipeline::hiring(8);
        fp.fit_run(&hiring_inputs(&vs), false).unwrap().dataset
    };
    let mut truth_fp = FeaturePipeline::hiring(8);
    truth_fp.fit_run(&hiring_inputs(&s), false).unwrap();
    let (plan, root) = (truth_fp.plan.clone(), truth_fp.root);
    let mut session = IncrementalDebugSession::build(
        knn.clone(),
        FeaturePipeline::hiring(8),
        &hiring_inputs(&s),
        valid.clone(),
    )
    .unwrap();
    let mut threaded: Vec<(usize, PipelineSession)> = [2usize, 4, 7]
        .into_iter()
        .map(|t| {
            let executor = Executor::new().with_threads(t);
            let ps = PipelineSession::build(&executor, &plan, root, &hiring_inputs(&s)).unwrap();
            (t, ps)
        })
        .collect();
    let mut rng = seeded(0x5eed_f1c5);
    let (mut reruns, mut splices) = (0, 0);
    for step in 0..FIXES {
        let delta = structural_fix(&mut rng, session.session(), step);
        let report = session.apply_fix(&delta).unwrap();
        match report.path {
            DeltaPath::Rerun => {
                reruns += 1;
                assert!(
                    report.affected_rows.len() < session.table().n_rows(),
                    "step {step}: rerun re-encoded {} of {} rows",
                    report.affected_rows.len(),
                    session.table().n_rows()
                );
            }
            DeltaPath::Splice => splices += 1,
            DeltaPath::CellPatch => {}
        }
        assert!(!report.reencoded_all, "step {step}: {delta:?}");
        for (_, ps) in &mut threaded {
            assert_eq!(ps.apply(&delta).unwrap().path, report.path, "step {step}");
        }
        let views =
            std::iter::once((1, session.session())).chain(threaded.iter().map(|(t, ps)| (*t, ps)));
        for (threads, ps) in views {
            let mutated: Vec<(&str, &Table)> = ps
                .source_names()
                .iter()
                .map(|n| (n.as_str(), ps.input(n).unwrap()))
                .collect();
            let fresh = Executor::new()
                .with_threads(threads)
                .with_provenance(true)
                .run(&plan, root, &mutated)
                .unwrap();
            let at = format!("threads={threads} step={step} {delta:?}");
            assert_eq!(ps.table(), &fresh.table, "{at}: table");
            assert_eq!(Some(ps.lineage()), fresh.provenance, "{at}: lineage");
            let rows: Vec<usize> = (0..fresh.table.n_rows()).collect();
            let (x, y) = truth_fp.encode_rows(&fresh.table, &rows).unwrap();
            let ds = session.dataset();
            assert_eq!(ds.y, y, "{at}: labels");
            for r in rows {
                for (a, b) in ds.x.row(r).iter().zip(x.row(r)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{at}: row {r}");
                }
            }
            let mut model = knn.clone();
            model
                .fit(&Dataset::new(x, y, ds.n_classes).unwrap())
                .unwrap();
            let want = model.accuracy(&valid);
            assert_eq!(report.accuracy.to_bits(), want.to_bits(), "{at}: accuracy");
        }
    }
    assert!(
        reruns >= 12 && splices >= 24,
        "reruns {reruns}, splices {splices}"
    );
    let (fixes, full, _) = session.stats();
    assert_eq!((fixes, full), (FIXES, 0));
}

fn blob_workload() -> (Dataset, Dataset, LabelOracle) {
    let nd = two_gaussians(200, 3, 2.0, 77);
    let all = Dataset::try_from(&nd).unwrap();
    let mut train = all.subset(&(0..150).collect::<Vec<_>>());
    let valid = all.subset(&(150..200).collect::<Vec<_>>());
    let truth = train.y.clone();
    for f in [4, 16, 28, 39, 52, 67, 83, 98, 112, 121, 134, 141, 148] {
        train.y[f] = 1 - train.y[f];
    }
    (train, valid, LabelOracle::new(truth))
}

/// The cleaning loop's scores and the challenge's leaderboard verdicts are
/// bit-identical between `Rerun` and `Incremental` maintenance.
#[test]
fn incremental_scores_and_verdicts_match_rerun() {
    let (dirty, valid, oracle) = blob_workload();
    let knn = KnnClassifier::new(3);
    let strategy = Strategy::KnnShapley { k: 3 };
    let run = |mode| {
        prioritized_cleaning(&knn, &dirty, &oracle, &valid, &strategy, 6, 4, false, mode).unwrap()
    };
    let rerun = run(MaintenanceMode::Rerun);
    let inc = run(MaintenanceMode::Incremental);
    assert_eq!(rerun.cleaned, inc.cleaned);
    for (a, b) in rerun.accuracy.iter().zip(&inc.accuracy) {
        assert_eq!(a.to_bits(), b.to_bits(), "{rerun:?} vs {inc:?}");
    }

    // Challenge verdicts: identical scores, identical leaderboard order.
    let hidden = valid.clone();
    let make = || {
        DebugChallenge::new(
            knn.clone(),
            dirty.clone(),
            oracle.clone(),
            hidden.clone(),
            20,
        )
        .unwrap()
    };
    let mut by_rerun = make();
    let mut by_inc = make().with_maintenance(MaintenanceMode::Incremental);
    let submissions: Vec<Vec<usize>> = vec![
        (0..20).collect(),
        vec![4, 16, 28, 39, 52, 67, 83, 98, 112, 121],
        vec![],
        (0..20).map(|i| i * 7 % 150).collect(),
    ];
    for (i, rows) in submissions.iter().enumerate() {
        let a = by_rerun.submit(&format!("s{i}"), rows).unwrap();
        let b = by_inc.submit(&format!("s{i}"), rows).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "submission {i}");
    }
    assert_eq!(by_rerun.leaderboard(), by_inc.leaderboard());
}

/// End-to-end: source-level fixes through an [`IncrementalDebugSession`]
/// produce the same dataset and accuracy as re-executing the pipeline and
/// re-encoding with the fitted encoders.
#[test]
fn debug_session_fixes_match_transform_rerun() {
    let s = HiringScenario::generate(80, 13);
    let knn = KnnClassifier::new(3);
    let valid = {
        let vs = HiringScenario::generate(50, 14);
        let mut fp = FeaturePipeline::hiring(8);
        fp.fit_run(&hiring_inputs(&vs), false).unwrap().dataset
    };
    let mut truth_fp = FeaturePipeline::hiring(8);
    truth_fp.fit_run(&hiring_inputs(&s), false).unwrap();
    let mut session = IncrementalDebugSession::build(
        knn.clone(),
        FeaturePipeline::hiring(8),
        &hiring_inputs(&s),
        valid.clone(),
    )
    .unwrap();
    for delta in fix_sequence() {
        let report = session.apply_fix(&delta).unwrap();
        let mutated: Vec<(&str, &Table)> = session
            .session()
            .source_names()
            .iter()
            .map(|n| (n.as_str(), session.session().input(n).unwrap()))
            .collect();
        let out = truth_fp.transform_run(&mutated, false).unwrap();
        let mut model = knn.clone();
        model.fit(&out.dataset).unwrap();
        let want = model.accuracy(&valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits(), "{delta:?}");
        assert_eq!(session.dataset().y, out.dataset.y);
        for r in 0..out.dataset.len() {
            for (a, b) in session.dataset().x.row(r).iter().zip(out.dataset.x.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r} after {delta:?}");
            }
        }
    }
}

/// An incremental cleaning loop killed at chaos-scheduled checkpoint saves
/// resumes through a durable [`RunStore`] and finishes bit-identical to an
/// uninterrupted rerun-mode loop.
#[test]
fn chaos_killed_incremental_cleaning_resumes_bit_identically() {
    const ROUNDS: u64 = 4;
    let (train, valid, oracle) = blob_workload();
    let knn = KnnClassifier::new(3);
    let strategy = Strategy::KnnShapley { k: 3 };
    let reference = prioritized_cleaning(
        &knn,
        &train,
        &oracle,
        &valid,
        &strategy,
        5,
        ROUNDS as usize,
        false,
        MaintenanceMode::Rerun,
    )
    .unwrap();

    let dir = std::env::temp_dir().join(format!("nde-incremental-cleaning-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = RunStore::open(dir).unwrap();
    let fp = RunFingerprint::new("incremental-cleaning", 77, "batch=5;rounds=4", 0x16E);
    let kill = CheckpointKillSwitch::new(FaultSchedule::at(&[0, 2]));
    let sup = supervise(
        &store,
        &fp,
        &RetryPolicy::immediate(8),
        |ctx: &SuperviseCtx<'_>| -> Result<CleaningCheckpoint, CleaningError> {
            loop {
                let resume: Option<CleaningCheckpoint> = latest(ctx)?;
                let done = resume.as_ref().map_or(0, |s| s.rounds_done);
                let budget = RunBudget::unlimited().with_max_iterations((done + 1).min(ROUNDS));
                let (_, snap) = prioritized_cleaning_resumable(
                    &knn,
                    &train,
                    &oracle,
                    &valid,
                    &strategy,
                    5,
                    ROUNDS as usize,
                    false,
                    MaintenanceMode::Incremental,
                    &budget,
                    &RetryPolicy::none(),
                    resume.as_ref(),
                )?;
                persist(ctx, &snap)?;
                kill.observe();
                if snap.rounds_done >= ROUNDS {
                    return Ok(snap);
                }
            }
        },
    )
    .unwrap();

    assert_eq!(sup.attempts, 3, "two kills cost two restarts");
    assert!(sup
        .crashes
        .iter()
        .all(|c| c.starts_with(CHAOS_PANIC_PREFIX)));
    assert_eq!(sup.value.rounds_done, ROUNDS);
    assert_eq!(sup.value.cleaned, reference.cleaned);
    for (a, b) in sup.value.accuracy.iter().zip(&reference.accuracy) {
        assert_eq!(a.to_bits(), b.to_bits(), "accuracy trace");
    }
}
