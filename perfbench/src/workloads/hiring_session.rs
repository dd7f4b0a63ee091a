//! `hiring-session`: the paper's debugging session in order, on one
//! dataset — Identify (KNN-Shapley, budgeted TMC-Shapley), Debug (the
//! Fig. 3 pipeline with provenance, Datascope, inspections, what-if),
//! Clean (Datascope-ranked label fixes through the incremental session) and
//! Learn (the Fig. 4 Zorro sweep). It is the only workload where every
//! layer runs, in the paper's order and proportions. A step is one review
//! page of the Datascope ranking.

use super::{same_bits, scenario, Ctx, Res, Workload};
use nde::api::{encode_symbolic, zorro_config, LettersEncoding, KNN_K};
use nde::scenario::LettersScenario;
use nde_cleaning::{IncrementalDebugSession, Strategy};
use nde_data::generate::hiring::LABEL_COLUMN;
use nde_data::inject::{flip_labels, inject_missing, Missingness};
use nde_data::Value;
use nde_importance::datascope::datascope_importance;
use nde_importance::{detection_precision_at_k, knn_shapley, tmc_shapley, ImportanceRun};
use nde_importance::{ImportanceScores, TmcParams};
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::inspect;
use nde_pipeline::whatif::predict_deletions_batch_threaded;
use nde_pipeline::{Delta, TupleId};
use nde_robust::RunBudget;
use nde_uncertain::zorro::ZorroRegressor;
use std::time::Instant;

/// Hashed text dimensions of the Fig. 3 feature pipeline.
const PIPELINE_TEXT_DIMS: usize = 32;
/// Source tuples per what-if deletion set.
const WHATIF_SET: usize = 8;
/// Rows the reviewer accepts per page of the Datascope ranking. A step is
/// one page: its labels accepted, then the accuracy read. A single label
/// fix takes ~60-110 µs, so a p99 over single fixes measured scheduler
/// hiccups (it moved 2.5x between runs of one build).
const REVIEW_PAGE: usize = 16;
/// The Fig. 4 MNAR skew.
const MNAR_SKEW: f64 = 4.0;

/// Scale and settings of the session.
#[derive(Debug, Clone)]
pub struct HiringSession {
    /// Applicants generated (split 60/20/20 into train/valid/test).
    pub letters: usize,
    /// Share of training labels flipped.
    pub label_flips: f64,
    /// Share of training `employer_rating` values removed, MNAR.
    pub missing: f64,
    /// Training and validation rows TMC-Shapley samples (the first rows of
    /// each split): its cost grows faster than quadratically in them. Its
    /// budget buys one untruncated permutation, so the work does not
    /// depend on the data.
    pub tmc_rows: usize,
    /// What-if deletion sets predicted in one batch.
    pub whatif_sets: usize,
    /// Missingness levels of the Zorro sweep, in percent.
    pub levels: [f64; 5],
}

impl Default for HiringSession {
    fn default() -> Self {
        HiringSession {
            letters: 5_000,
            label_flips: 0.10,
            missing: 0.10,
            tmc_rows: 250,
            whatif_sets: 512,
            levels: [5.0, 10.0, 15.0, 20.0, 25.0],
        }
    }
}

/// Inputs from set-up plus what the timed phase leaves for the checks.
pub struct State {
    seed: u64,
    scenario: LettersScenario,
    /// Clean label of every training row.
    truth: Vec<Value>,
    flipped: Vec<usize>,
    train: Dataset,
    valid: Dataset,
    /// The TMC-Shapley sample of `train` and `valid`.
    tmc_train: Dataset,
    tmc_valid: Dataset,
    knn_scores: Option<ImportanceScores>,
    /// Pipeline fitted on the dirty training run (the rerun replay's
    /// encoders).
    pipeline: Option<FeaturePipeline>,
    /// Validation set encoded by that pipeline.
    pipeline_valid: Option<Dataset>,
    session: Option<IncrementalDebugSession<KnnClassifier>>,
    /// Accuracy the session reported after the last review page.
    accuracy: f64,
    zorro_bounds: Vec<f64>,
}

impl Workload for HiringSession {
    type State = State;

    fn name(&self) -> &'static str {
        "hiring-session"
    }

    fn config(&self) -> String {
        format!(
            "letters={};label_flips={};missing={};tmc_rows={};whatif_sets={};levels={:?};k={KNN_K};text_dims={PIPELINE_TEXT_DIMS}",
            self.letters, self.label_flips, self.missing, self.tmc_rows, self.whatif_sets, self.levels
        )
    }

    fn setup(&self, seed: u64, ctx: &Ctx) -> Res<State> {
        let mut s = ctx.call("data.generate", || scenario(self.letters, seed))?;
        let truth = (0..s.train.n_rows())
            .map(|r| s.train.get(r, LABEL_COLUMN))
            .collect::<Result<Vec<_>, _>>()?;
        let flips = ctx.call("data.inject", || {
            flip_labels(&mut s.train, LABEL_COLUMN, self.label_flips, seed ^ 0xf11b)
        })?;
        ctx.call("data.inject", || {
            inject_missing(
                &mut s.train,
                "employer_rating",
                self.missing,
                Missingness::Mnar { skew: MNAR_SKEW },
                seed ^ 0x3a55,
            )
        })?;
        let encoding = ctx.call("ml.encode", || LettersEncoding::fit(&s.train))?;
        let train = ctx.call("ml.encode", || encoding.dataset(&s.train))?;
        let valid = ctx.call("ml.encode", || encoding.dataset(&s.valid))?;
        let sample: Vec<usize> = (0..self.tmc_rows.min(train.len()).min(valid.len())).collect();
        let (tmc_train, tmc_valid) = (train.subset(&sample), valid.subset(&sample));
        Ok(State {
            seed,
            scenario: s,
            truth,
            flipped: flips.affected,
            train,
            valid,
            tmc_train,
            tmc_valid,
            knn_scores: None,
            pipeline: None,
            pipeline_valid: None,
            session: None,
            accuracy: f64::NAN,
            zorro_bounds: Vec::new(),
        })
    }

    fn run(&self, st: &mut State, ctx: &Ctx) -> Res<()> {
        let s = &st.scenario;
        let n_train = s.train.n_rows();

        // Identify.
        let run = ImportanceRun::new(st.seed).with_threads(ctx.threads);
        let knn = ctx.call("importance.knn_shapley", || {
            knn_shapley(&run, &st.train, &st.valid, KNN_K)
        })?;
        let calls = 1 + st.tmc_train.len() as u64;
        let budget = RunBudget::unlimited().with_max_utility_calls(calls);
        let t0 = Instant::now();
        let tmc = ctx.call("importance.tmc", || {
            tmc_shapley(
                &run.clone().with_budget(budget),
                &KnnClassifier::new(KNN_K),
                &st.tmc_train,
                &st.tmc_valid,
                &TmcParams {
                    permutations: 1_000_000,
                    truncation_tolerance: 0.0,
                },
            )
        })?;
        ctx.count("importance.estimator_s", t0.elapsed().as_secs_f64());
        ctx.count("importance.utility_calls", tmc.report.utility_calls as f64);
        ctx.count("importance.cache_hits", tmc.report.cache_hits as f64);
        ctx.count(
            "importance.batches_formed",
            tmc.report.batches_formed as f64,
        );
        ctx.count("importance.batched_evals", tmc.report.batched_evals as f64);
        ctx.count(
            "importance.fallback_evals",
            tmc.report.fallback_evals as f64,
        );
        ctx.count(
            "importance.evals",
            (tmc.report.batched_evals + tmc.report.fallback_evals) as f64,
        );
        st.knn_scores = Some(knn.scores);

        // Debug.
        let mut pipeline = FeaturePipeline::hiring(PIPELINE_TEXT_DIMS);
        let train_out = ctx.call("pipeline.exec", || {
            pipeline.fit_run(&s.pipeline_inputs(&s.train), true)
        })?;
        let valid_out = ctx.call("pipeline.exec", || {
            pipeline.transform_run(&s.pipeline_inputs(&s.valid), false)
        })?;
        ctx.count(
            "pipeline.exec_rows_out",
            (train_out.table.n_rows() + valid_out.table.n_rows()) as f64,
        );
        ctx.call("ml.knn_eval", || -> Res<f64> {
            let mut model = KnnClassifier::new(KNN_K);
            model.fit(&train_out.dataset)?;
            Ok(model.accuracy(&valid_out.dataset))
        })?;
        let datascope = ctx.call("importance.datascope", || {
            datascope_importance(&train_out, &valid_out.dataset, "train_df", n_train, KNN_K)
        })?;
        let lineage = train_out
            .lineage
            .as_ref()
            .ok_or("pipeline ran without provenance")?;
        ctx.call("pipeline.inspect", || -> Res<usize> {
            let out = &train_out.table;
            let positive = Value::Str("positive".into());
            Ok(inspect::check_missing_values(out, 0.05).len()
                + inspect::check_class_balance(out, LABEL_COLUMN, 0.3)?.len()
                + inspect::check_leakage(&s.train, &s.test, "person_id")?.len()
                + inspect::check_coverage(out, "degree", 20)?.len()
                + inspect::check_distribution_shift(&s.train, out, LABEL_COLUMN, &positive, 0.05)?
                    .len()
                + inspect::check_provenance_coverage(lineage, "train_df", n_train, 0.9)?.len())
        })?;
        let order = datascope.ascending_indices();
        let source = lineage
            .source_index("train_df")
            .ok_or("lineage lacks train_df")?;
        let sets: Vec<Vec<TupleId>> = (0..self.whatif_sets)
            .map(|i| {
                (0..WHATIF_SET)
                    .map(|j| TupleId::new(source, order[(i + j) % n_train] as u32))
                    .collect()
            })
            .collect();
        ctx.call("pipeline.whatif", || {
            predict_deletions_batch_threaded(lineage, &sets, ctx.threads)
        });

        // Clean.
        let mut session = ctx.call("cleaning.session_build", || {
            IncrementalDebugSession::build(
                KnnClassifier::new(KNN_K),
                FeaturePipeline::hiring(PIPELINE_TEXT_DIMS),
                &s.pipeline_inputs(&s.train),
                valid_out.dataset.clone(),
            )
        })?;
        // The reviewer walks the rows that reach the model in Datascope
        // order and accepts each one's true label (a fix that leaves a
        // correct label as it is).
        let reach = ctx.call("pipeline.lineage", || {
            lineage.outputs_per_source_row(source, n_train)
        });
        let reviewed: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&r| !reach[r].is_empty())
            .collect();
        for page in reviewed.chunks(REVIEW_PAGE) {
            ctx.step(|| -> Res<()> {
                for &row in page {
                    let fix = Delta::Update {
                        source: "train_df".into(),
                        row,
                        column: LABEL_COLUMN.into(),
                        value: st.truth[row].clone(),
                    };
                    let report = ctx.call("cleaning.fix", || session.apply_fix(&fix))?;
                    ctx.count("cleaning.cache_evictions", report.cache_evictions as f64);
                }
                st.accuracy = ctx.call("cleaning.accuracy", || session.accuracy())?;
                Ok(())
            })?;
        }
        let (_, full, rows) = session.stats();
        ctx.count("cleaning.full_reencodes", full as f64);
        ctx.count("cleaning.rows_reencoded", rows as f64);
        st.session = Some(session);
        st.pipeline = Some(pipeline);
        st.pipeline_valid = Some(valid_out.dataset);

        // Learn: the Fig. 4 sweep.
        st.zorro_bounds.clear();
        for &pct in &self.levels {
            let enc = ctx.call("uncertain.encode", || {
                encode_symbolic(
                    &s.train,
                    "employer_rating",
                    pct,
                    Missingness::Mnar { skew: MNAR_SKEW },
                    st.seed,
                )
            })?;
            let mut zorro = ZorroRegressor::new(zorro_config().with_threads(ctx.threads));
            let diag = ctx.call("uncertain.zorro_fit", || {
                zorro.fit_budgeted(&enc.x, &enc.y, &RunBudget::unlimited())
            })?;
            ctx.count("uncertain.zorro_epochs", diag.iterations as f64);
            let (tx, ty) = ctx.call("uncertain.encode", || enc.encode_test(&s.test))?;
            let bound = ctx.call("uncertain.zorro_eval", || {
                zorro.max_worst_case_loss(&tx, &ty)
            })?;
            st.zorro_bounds.push(bound);
        }
        Ok(())
    }

    fn check(&self, st: &State, ctx: &Ctx) -> Res<()> {
        let s = &st.scenario;
        let (session, pipeline) = match (&st.session, &st.pipeline) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err("session did not run".into()),
        };

        // Incremental cleaning equals a rerun replay: execute the pipeline
        // over the fixed sources and re-encode with the fitted encoders.
        let fixed = session
            .session()
            .input("train_df")
            .ok_or("session lost train_df")?;
        let replay = pipeline.transform_run(&s.pipeline_inputs(fixed), false)?;
        let mut model = KnnClassifier::new(KNN_K);
        model.fit(&replay.dataset)?;
        let valid = st
            .pipeline_valid
            .as_ref()
            .ok_or("no pipeline validation set")?;
        let want = model.accuracy(valid);
        let got = session.accuracy()?;
        ctx.check(want.to_bits() == got.to_bits(), || {
            format!("hiring-session: incremental accuracy {got} != rerun replay {want}")
        });
        ctx.check(st.accuracy.to_bits() == got.to_bits(), || {
            "hiring-session: last page's accuracy disagrees with the session".into()
        });
        let ds = session.dataset();
        ctx.check(
            ds.y == replay.dataset.y
                && (0..ds.len()).all(|i| same_bits(ds.x.row(i), replay.dataset.x.row(i))),
            || "hiring-session: maintained dataset differs from the rerun replay".into(),
        );

        // Detection beats random order.
        let k = st.flipped.len().min(100);
        let scores = st.knn_scores.as_ref().ok_or("no KNN-Shapley scores")?;
        let ours = detection_precision_at_k(scores, &st.flipped, k);
        let random_order = Strategy::Random { seed: st.seed }.rank(&st.train, &st.valid)?;
        let flipped: std::collections::HashSet<usize> = st.flipped.iter().copied().collect();
        let random = random_order[..k]
            .iter()
            .filter(|i| flipped.contains(i))
            .count() as f64
            / k as f64;
        ctx.check(ours > random, || {
            format!("hiring-session: precision@{k} {ours} does not beat random {random}")
        });

        // The Zorro bound grows with missingness.
        ctx.check(
            st.zorro_bounds.len() == self.levels.len()
                && st.zorro_bounds.windows(2).all(|w| w[1] >= w[0]),
            || {
                format!(
                    "hiring-session: Zorro bounds not monotone: {:?}",
                    st.zorro_bounds
                )
            },
        );
        Ok(())
    }
}
