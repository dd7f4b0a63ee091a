//! Durability chaos tests: supervised estimation loops are killed at
//! chaos-scheduled checkpoint saves, their on-disk records are torn,
//! checksum-corrupted, and version-staled — and every workflow (TMC-Shapley,
//! Banzhaf, the Zorro interval fit, and the prioritized cleaning loop) must
//! still finish **bit-identical** to an uninterrupted run. Every snapshot
//! type also passes one table-driven hardening test of its payload codec.

use nde_cleaning::{
    prioritized_cleaning, prioritized_cleaning_resumable, CleaningCheckpoint, CleaningError,
    LabelOracle, MaintenanceMode, Strategy,
};
use nde_data::generate::blobs::{linear_regression, two_gaussians};
use nde_data::json::Json;
use nde_data::rng::{seeded, Rng};
use nde_importance::{
    banzhaf, tmc_shapley, BanzhafCheckpoint, BanzhafParams, BetaShapleyCheckpoint, ImportanceError,
    ImportanceOutcome, ImportanceRun, TmcParams,
};
use nde_ml::dataset::Dataset;
use nde_ml::linalg::Matrix;
use nde_ml::models::knn::KnnClassifier;
use nde_robust::chaos::{
    corrupt_record_checksum, stale_record_version, truncate_record, CheckpointKillSwitch,
    CHAOS_PANIC_PREFIX,
};
use nde_robust::{
    supervise, FaultSchedule, InflightPermutation, McCheckpoint, RetryPolicy, RobustError,
    RunBudget, RunFingerprint, RunStore, Snapshot, SuperviseCtx,
};
use nde_tests::{latest, persist, tmc_state};
use nde_uncertain::symbolic::column_bounds_from_observed;
use nde_uncertain::zorro::{ZorroCheckpoint, ZorroConfig, ZorroRegressor};
use nde_uncertain::{Interval, SymbolicMatrix, UncertainError};

fn temp_store(tag: &str) -> RunStore {
    let dir = std::env::temp_dir().join(format!("nde-durability-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    RunStore::open(dir).unwrap()
}

fn gaussian_split() -> (Dataset, Dataset) {
    let nd = two_gaussians(80, 3, 1.5, 51);
    let all = Dataset::try_from(&nd).unwrap();
    (
        all.subset(&(0..60).collect::<Vec<_>>()),
        all.subset(&(60..80).collect::<Vec<_>>()),
    )
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} differs ({x} vs {y})"
        );
    }
}

/// A supervised TMC-Shapley sweep killed right after its 2nd and 4th
/// checkpoint saves restarts, resumes from the store, and ends with scores
/// bit-identical to an uninterrupted run.
#[test]
fn supervised_tmc_shapley_rides_out_chaos_kills_bit_identically() {
    const PERMS: u64 = 12;
    const SEGMENT: u64 = 3;
    let (train, valid) = gaussian_split();
    let knn = KnnClassifier::new(3);
    let params = TmcParams {
        permutations: PERMS as usize,
        truncation_tolerance: 0.0,
    };
    let full = tmc_shapley(&ImportanceRun::new(11), &knn, &train, &valid, &params).unwrap();

    let store = temp_store("tmc");
    let fp = RunFingerprint::new("tmc-shapley", 11, "perms=12;tol=0", 0xC0FFEE);
    let kill = CheckpointKillSwitch::new(FaultSchedule::at(&[1, 3]));
    let sup = supervise(
        &store,
        &fp,
        &RetryPolicy::immediate(8),
        |ctx: &SuperviseCtx<'_>| -> Result<ImportanceOutcome, ImportanceError> {
            loop {
                // Resume from the newest valid record, advance one segment,
                // persist, and maybe get killed right after the save.
                let record = ctx.latest()?;
                let done = record.as_ref().map_or(0, |r| r.step);
                let target = (done + SEGMENT).min(PERMS);
                let mut opts = ImportanceRun::new(11)
                    .with_budget(RunBudget::unlimited().with_max_iterations(target));
                if let Some(record) = record.as_ref() {
                    opts = opts.with_resume(&record.payload);
                }
                let out = tmc_shapley(&opts, &knn, &train, &valid, &params)?;
                let snap = tmc_state(&out);
                persist(ctx, &snap)?;
                kill.observe();
                if snap.step() >= PERMS {
                    return Ok(out);
                }
            }
        },
    )
    .unwrap();

    assert_eq!(sup.attempts, 3, "two kills cost two restarts");
    assert_eq!(sup.crashes.len(), 2);
    assert!(sup
        .crashes
        .iter()
        .all(|c| c.starts_with(CHAOS_PANIC_PREFIX)));
    assert_bits_eq(
        &sup.value.scores.values,
        &full.scores.values,
        "supervised TMC scores",
    );
    assert_eq!(store.latest_valid(&fp).unwrap().unwrap().step, PERMS);
    std::fs::remove_dir_all(store.root()).ok();
}

/// Torn and checksum-corrupted records cost at most one checkpoint
/// interval: the store-driven Banzhaf run falls back to the last intact
/// record and still completes bit-identical to an uninterrupted run.
#[test]
fn banzhaf_recovers_from_torn_and_corrupt_records_bit_identically() {
    let (train, valid) = gaussian_split();
    let knn = KnnClassifier::new(3);
    let params = BanzhafParams { samples: 10 };
    let full = banzhaf(&ImportanceRun::new(5), &knn, &train, &valid, &params).unwrap();

    // Phase 1: a store-backed run stops after 6 of 10 samples, leaving
    // records at steps 2, 4, 6.
    let store = temp_store("banzhaf");
    let cut = banzhaf(
        &ImportanceRun::new(5)
            .with_store(&store)
            .with_auto_checkpoint(2)
            .with_budget(RunBudget::unlimited().with_max_iterations(6)),
        &knn,
        &train,
        &valid,
        &params,
    )
    .unwrap();
    let fp = cut
        .report
        .fingerprint
        .clone()
        .expect("store runs report it");
    let records = store.record_paths(&fp).unwrap();
    assert_eq!(
        records.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
        vec![2, 4, 6]
    );

    // Chaos: the newest record is torn mid-write, the next one suffers a
    // checksum bit-flip. Recovery must fall back to step 2.
    let torn = std::fs::metadata(&records[2].1).unwrap().len() as usize / 2;
    truncate_record(&records[2].1, torn).unwrap();
    corrupt_record_checksum(&records[1].1).unwrap();
    assert_eq!(store.latest_valid(&fp).unwrap().unwrap().step, 2);

    // Phase 2: a fresh process re-opens the store and auto-resumes from the
    // surviving record to completion — bit-identical to the uncut run.
    let reopened = RunStore::open(store.root()).unwrap();
    let resumed = banzhaf(
        &ImportanceRun::new(5).with_store(&reopened),
        &knn,
        &train,
        &valid,
        &params,
    )
    .unwrap();
    assert_bits_eq(
        &resumed.scores.values,
        &full.scores.values,
        "banzhaf scores after record damage",
    );
    let diag = resumed.report.diagnostics.as_ref().unwrap();
    assert!(diag.completed());
    assert_eq!(diag.iterations, 10);

    // Format drift: staling the final record's version makes recovery skip
    // it — it is never read back into a current-version process.
    let records = store.record_paths(&fp).unwrap();
    let (last_step, last_path) = records.last().unwrap();
    assert_eq!(*last_step, 10);
    stale_record_version(last_path, 0).unwrap();
    assert!(store.latest_valid(&fp).unwrap().unwrap().step < 10);
    std::fs::remove_dir_all(store.root()).ok();
}

/// A supervised Zorro interval fit killed mid-training resumes at epoch
/// granularity and converges to bit-identical weight planes.
#[test]
fn supervised_zorro_fit_resumes_bit_identically_after_a_kill() {
    const EPOCHS: u64 = 30;
    const SEGMENT: u64 = 8;
    let (xs, ys, _, _) = linear_regression(50, 2, 0.05, 7);
    let x = Matrix::from_rows(xs).unwrap();
    let bounds = column_bounds_from_observed(&x);
    let missing = [(3, 0), (11, 1), (20, 0), (37, 1), (44, 0)];
    let sym = SymbolicMatrix::from_matrix_with_missing(&x, &missing, &bounds).unwrap();
    let targets: Vec<Interval> = ys.iter().map(|&v| Interval::point(v)).collect();
    let cfg = ZorroConfig {
        epochs: EPOCHS as usize,
        ..Default::default()
    };

    let mut reference = ZorroRegressor::new(cfg.clone());
    let (_, uncut) = reference
        .fit_uncertain_resumable(&sym, &targets, &RunBudget::unlimited(), None)
        .unwrap();
    assert_eq!(uncut.epochs_done, EPOCHS);

    let store = temp_store("zorro");
    let fp = RunFingerprint::new("zorro-fit", 7, "epochs=30", 0x5EED);
    let kill = CheckpointKillSwitch::new(FaultSchedule::at(&[1]));
    let sup = supervise(
        &store,
        &fp,
        &RetryPolicy::immediate(4),
        |ctx: &SuperviseCtx<'_>| -> Result<ZorroCheckpoint, UncertainError> {
            loop {
                let resume: Option<ZorroCheckpoint> = latest(ctx)?;
                let done = resume.as_ref().map_or(0, Snapshot::step);
                let budget =
                    RunBudget::unlimited().with_max_iterations((done + SEGMENT).min(EPOCHS));
                let mut zorro = ZorroRegressor::new(cfg.clone());
                let (_, snap) =
                    zorro.fit_uncertain_resumable(&sym, &targets, &budget, resume.as_ref())?;
                persist(ctx, &snap)?;
                kill.observe();
                if snap.epochs_done >= EPOCHS {
                    return Ok(snap);
                }
            }
        },
    )
    .unwrap();

    assert_eq!(sup.attempts, 2, "one kill costs one restart");
    assert_eq!(sup.value.epochs_done, EPOCHS);
    assert_bits_eq(&sup.value.lo, &uncut.lo, "zorro lo plane");
    assert_bits_eq(&sup.value.hi, &uncut.hi, "zorro hi plane");
    std::fs::remove_dir_all(store.root()).ok();
}

/// A supervised prioritized-cleaning loop killed between rounds resumes at
/// accepted-fix granularity: same repairs, same trace, bit-identical
/// accuracies.
#[test]
fn supervised_cleaning_loop_resumes_bit_identically_after_kills() {
    const ROUNDS: u64 = 4;
    let nd = two_gaussians(200, 3, 2.0, 43);
    let all = Dataset::try_from(&nd).unwrap();
    let mut train = all.subset(&(0..150).collect::<Vec<_>>());
    let valid = all.subset(&(150..200).collect::<Vec<_>>());
    let truth = train.y.clone();
    for f in [5, 17, 29, 38, 51, 66, 84, 99, 111, 120, 133, 140, 147] {
        train.y[f] = 1 - train.y[f];
    }
    let oracle = LabelOracle::new(truth);
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

    let store = temp_store("cleaning");
    let fp = RunFingerprint::new("prioritized-cleaning", 43, "batch=5;rounds=4", 0xC1EA);
    let kill = CheckpointKillSwitch::new(FaultSchedule::at(&[0, 2]));
    let sup = supervise(
        &store,
        &fp,
        &RetryPolicy::immediate(8),
        |ctx: &SuperviseCtx<'_>| -> Result<CleaningCheckpoint, CleaningError> {
            loop {
                // One cleaning round per segment: resume, advance, persist.
                let resume: Option<CleaningCheckpoint> = latest(ctx)?;
                let done = resume.as_ref().map_or(0, Snapshot::step);
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
                    MaintenanceMode::Rerun,
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
    assert_bits_eq(
        &sup.value.accuracy,
        &reference.accuracy,
        "cleaning accuracy trace",
    );
    // The repaired labels themselves match an uninterrupted loop's.
    let (uncut, _) = prioritized_cleaning_resumable(
        &knn,
        &train,
        &oracle,
        &valid,
        &strategy,
        5,
        ROUNDS as usize,
        false,
        MaintenanceMode::Rerun,
        &RunBudget::unlimited(),
        &RetryPolicy::none(),
        None,
    )
    .unwrap();
    assert_eq!(uncut.run, reference);
    std::fs::remove_dir_all(store.root()).ok();
}

/// One row of the hardening table: a valid sample payload of one snapshot
/// type and that type's decode, re-encoded so rows share one signature.
struct Row {
    method: &'static str,
    payload: Json,
    decode: fn(&Json) -> nde_robust::Result<Json>,
}

fn row<S: Snapshot>(sample: S) -> Row {
    fn decode<S: Snapshot>(doc: &Json) -> nde_robust::Result<Json> {
        S::from_payload(doc).map(|s| s.to_payload())
    }
    Row {
        method: S::METHOD,
        payload: sample.to_payload(),
        decode: decode::<S>,
    }
}

/// Paths (top-level field index, then array/object steps) of one float per
/// float-bearing field: the value itself, or the first float inside it.
fn float_paths(value: &Json, path: Vec<usize>, out: &mut Vec<Vec<usize>>) {
    match value {
        Json::Float(_) => out.push(path),
        Json::Arr(items) => {
            if let Some(i) = items.iter().position(|v| matches!(v, Json::Float(_))) {
                out.push([path, vec![i]].concat());
            }
        }
        Json::Obj(fields) => {
            for (i, (_, v)) in fields.iter().enumerate() {
                float_paths(v, [path.clone(), vec![i]].concat(), out);
            }
        }
        _ => {}
    }
}

fn at_path<'a>(value: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(value, |node, &i| match node {
        Json::Arr(items) => &mut items[i],
        Json::Obj(fields) => &mut fields[i].1,
        other => panic!("no child {i} in {other:?}"),
    })
}

fn expect_checkpoint_error(r: nde_robust::Result<Json>, what: &str) {
    assert!(
        matches!(r, Err(RobustError::Checkpoint(_))),
        "{what}: {r:?}"
    );
}

/// Every snapshot type through one table: bit-identical round trip, every
/// torn prefix, `1e999` (and a NaN written as `null`) in each float field,
/// a wrong method tag, a missing or wrong-typed field, and seeded byte
/// mutations — each a typed checkpoint error, never a panic or garbage.
#[test]
fn every_snapshot_type_passes_the_hardening_table() {
    let table = [
        row(McCheckpoint {
            seed: u64::MAX - 7,
            n: 3,
            truncation_tolerance: 0.01,
            cursor: 41,
            utility_calls: 1234,
            rng_state: Some([1, u64::MAX, 0, 99]),
            inflight: Some(InflightPermutation {
                pos: 2,
                prev_u: 0.625 + 1e-16,
                marginals: vec![0.25, -0.125, 0.0],
            }),
            totals: vec![0.1 + 0.2, -1.5e-13, 1.0 / 3.0],
            totals_sq: vec![0.09, 2.25e-26, 1.0 / 9.0],
        }),
        row(BanzhafCheckpoint {
            seed: u64::MAX - 1,
            n: 3,
            samples: 10,
            cursor: 4,
            utility_calls: 7,
            with_sum: vec![0.1 + 0.2, -1.5e-13, 0.625],
            with_count: vec![2, 1, 3],
            without_sum: vec![0.5, 1.0 / 3.0, -0.25],
            without_count: vec![2, 3, 1],
        }),
        row(BetaShapleyCheckpoint {
            alpha: 1.0,
            beta: 16.0 + 1e-12,
            samples_per_point: 30,
            seed: 11,
            n: 4,
            cursor: 2,
            utility_calls: 120,
            values: vec![0.1 + 0.2, -0.125, 0.0, 0.0],
        }),
        row(ZorroCheckpoint {
            epochs_done: 12,
            learning_rate: 0.1,
            l2: 1e-3,
            lo: vec![-0.25, 0.1 + 0.2, -1e-300],
            hi: vec![0.5, 1.0 / 3.0, 0.0],
        }),
        row(CleaningCheckpoint {
            strategy: "knn-shapley".into(),
            batch: 2,
            rescore: true,
            rounds_done: 1,
            utility_calls: 2,
            oracle_retries: 3,
            y: vec![0, 1, 1, 0],
            cleaned_set: vec![true, false, true, false],
            order: vec![2, 0, 3, 1],
            cleaned: vec![0, 2],
            accuracy: vec![0.5, 0.75 + 1e-16],
        }),
    ];
    let mut rng = seeded(0xC4A05);
    for row in &table {
        let m = row.method;
        let text = row.payload.to_string_pretty();
        let from_text = |text: &str| match Json::parse(text) {
            Ok(doc) => (row.decode)(&doc),
            Err(e) => Err(RobustError::Checkpoint(e.to_string())),
        };

        // Round trip: bit-identical (shortest-round-trip text is equal).
        let back = from_text(&text).unwrap_or_else(|e| panic!("{m}: {e}"));
        assert_eq!(back, row.payload, "{m}");
        assert_eq!(back.to_string_pretty(), text, "{m}");

        // Every torn prefix.
        for cut in 0..text.len() {
            expect_checkpoint_error(from_text(&text[..cut]), &format!("{m}: prefix {cut}"));
        }

        // `1e999` (parses to +inf) and NaN (encodes as null) in each float
        // field.
        let mut paths = Vec::new();
        float_paths(&row.payload, vec![], &mut paths);
        assert!(!paths.is_empty(), "{m}: sample has no float fields");
        for path in &paths {
            let mut doc = row.payload.clone();
            *at_path(&mut doc, path) = Json::Str("1e999".into());
            let smuggled = doc.to_string_pretty().replace("\"1e999\"", "1e999");
            expect_checkpoint_error(from_text(&smuggled), &format!("{m}: 1e999 at {path:?}"));
            *at_path(&mut doc, path) = Json::Float(f64::NAN);
            let nan = doc.to_string_pretty();
            expect_checkpoint_error(from_text(&nan), &format!("{m}: NaN at {path:?}"));
        }

        // Wrong method tag: a foreign tag, and every other type's payload.
        let mut doc = row.payload.clone();
        *at_path(&mut doc, &[0]) = Json::Str("not-a-method".into());
        expect_checkpoint_error((row.decode)(&doc), &format!("{m}: foreign tag"));
        for other in table.iter().filter(|o| o.method != m) {
            let what = format!("{m} decoding a {} payload", other.method);
            expect_checkpoint_error((row.decode)(&other.payload), &what);
        }

        // Each field missing, then holding a value of the wrong type.
        let Json::Obj(fields) = &row.payload else {
            panic!("{m}: payload is not an object")
        };
        for (i, (name, value)) in fields.iter().enumerate() {
            let mut missing = fields.clone();
            missing.remove(i);
            let what = format!("{m}: `{name}` missing");
            expect_checkpoint_error((row.decode)(&Json::Obj(missing)), &what);
            let mut doc = row.payload.clone();
            *at_path(&mut doc, &[i]) = match value {
                Json::Str(_) => Json::UInt(17),
                Json::Arr(_) | Json::Obj(_) | Json::Null => Json::Bool(true),
                _ => Json::Str("17".into()),
            };
            expect_checkpoint_error((row.decode)(&doc), &format!("{m}: `{name}` mistyped"));
        }

        // Seeded byte mutations: a typed error, or a payload that decodes
        // (types, finiteness and invariants checked) and re-encodes stably.
        for _ in 0..400 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..1 + rng.gen_range(0..4usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen_range(32..127usize) as u8;
            }
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue;
            };
            match from_text(&mutated) {
                Ok(doc) => assert_eq!((row.decode)(&doc).as_ref(), Ok(&doc), "{m}"),
                Err(e) => assert!(matches!(e, RobustError::Checkpoint(_)), "{m}: {e}"),
            }
        }
    }
}
