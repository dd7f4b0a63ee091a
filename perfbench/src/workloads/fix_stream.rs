//! `fix-stream`: an interactive cleaning session. Every fix goes through the
//! incremental debugging session, which returns the updated validation
//! accuracy; every 20th fix (and the last) is followed by one durable
//! run-store record. A step is one fix with its accuracy. A record after
//! every fix made the disk, not the program, set the numbers: on a shared
//! virtual disk create-and-rename took 0.3 to 1.3 ms from run to run, and
//! the file-system work slowed the in-memory fixes around it. The fix
//! mix is fixed: 90% label and numeric cell corrections (cell patch), 7%
//! deletes and re-inserts (splice), 3% sector flips on jobs that letters
//! reference (rerun fallback), all on letters the pipeline keeps. This is the workload that writes: deltas,
//! distance-table row updates and store records. No Monte-Carlo importance
//! runs.

use super::{same_bits, scenario, Ctx, Res, Workload};
use nde::api::KNN_K;
use nde::scenario::LettersScenario;
use nde_cleaning::{FixReport, IncrementalDebugSession};
use nde_data::generate::hiring::LABEL_COLUMN;
use nde_data::inject::flip_labels;
use nde_data::json::Json;
use nde_data::rng::{seeded, Rng, SliceRandom};
use nde_data::{Table, Value};
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::exec::Executor;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::{Delta, DeltaPath, PipelineSession};
use nde_robust::{RunFingerprint, RunStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Hashed text dimensions of the Fig. 3 feature pipeline.
const PIPELINE_TEXT_DIMS: usize = 32;
/// Share of cell corrections that fix a label rather than a number. Label
/// and numeric fixes cost different amounts; two thirds puts the stream's
/// median inside the label fixes instead of on the edge between the two.
const LABEL_SHARE_OF_CELLS: f64 = 2.0 / 3.0;

/// What one planned fix changes. Every kind has an exact count per stream:
/// a numeric fix re-selects every validation point's neighbours and costs
/// ~60 times a label fix, so drawing the label/numeric choice per fix let
/// the seed move `wall_s` by the spread of a binomial count.
#[derive(Debug, Clone, Copy)]
enum FixKind {
    Label,
    YearsExperience,
    EmployerRating,
    Splice,
    Rerun,
}

/// Scale and mix of the stream.
#[derive(Debug, Clone)]
pub struct FixStream {
    /// Applicants generated (split 60/20/20).
    pub letters: usize,
    /// Share of training labels flipped before the session starts.
    pub label_flips: f64,
    /// Fixes per repetition.
    pub fixes: usize,
    /// Share of fixes that delete or re-insert a letter.
    pub splice_share: f64,
    /// Share of fixes that flip a referenced job's sector.
    pub rerun_share: f64,
    /// Fixes per durable run-store record.
    pub checkpoint_every: usize,
}

impl Default for FixStream {
    fn default() -> Self {
        FixStream {
            letters: 3_000,
            label_flips: 0.10,
            fixes: 400,
            splice_share: 0.07,
            rerun_share: 0.03,
            checkpoint_every: 20,
        }
    }
}

/// The sources, the live session, its store and the planned fixes.
pub struct State {
    scenario: LettersScenario,
    /// Pipeline fitted on the original sources (the session's encoders).
    pipeline: FeaturePipeline,
    valid: Dataset,
    session: IncrementalDebugSession<KnnClassifier>,
    store: RunStore,
    fingerprint: RunFingerprint,
    /// Each fix with the propagation path it was built to take.
    fixes: Vec<(Delta, DeltaPath)>,
    reports: Vec<FixReport>,
    last_payload: Option<Json>,
}

/// Parent of every store the benchmark writes, inside its own (ignored)
/// directory.
pub fn runs_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".runs")
}

/// This process's store. Repetitions write under distinct fingerprints and
/// nothing is deleted until the run ends: removing hundreds of records
/// between repetitions put file-system work into the next timed phase.
pub fn store_root() -> PathBuf {
    runs_root().join(format!("fix-stream-{}", std::process::id()))
}

fn str_cell(t: &Table, row: usize, col: &str) -> Res<String> {
    match t.get(row, col)? {
        Value::Str(s) => Ok(s),
        other => Err(format!("{col} is not a string: {other:?}").into()),
    }
}

impl FixStream {
    /// The fix sequence, generated against shadow copies of the sources so
    /// every row index is valid when its fix is applied.
    fn plan(&self, s: &LettersScenario, seed: u64) -> Res<Vec<(Delta, DeltaPath)>> {
        let mut rng = seeded(seed ^ 0xf1c5);
        let reruns = (self.fixes as f64 * self.rerun_share).round() as usize;
        let splices = (self.fixes as f64 * self.splice_share).round() as usize;
        let cells = self.fixes - reruns - splices;
        let labels = (cells as f64 * LABEL_SHARE_OF_CELLS).round() as usize;
        let years = (cells - labels) / 2;
        let mut kinds: Vec<FixKind> = [
            (FixKind::Rerun, reruns),
            (FixKind::Splice, splices),
            (FixKind::Label, labels),
            (FixKind::YearsExperience, years),
            (FixKind::EmployerRating, cells - labels - years),
        ]
        .into_iter()
        .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
        kinds.shuffle(&mut rng);

        let mut letters = s.train.clone();
        let mut removed: Vec<Vec<Value>> = Vec::new();
        // Healthcare jobs some letter references: flipping one across the
        // pipeline's filter forces a rerun; the next rerun fix flips it back.
        let referenced: std::collections::HashSet<i64> = (0..letters.n_rows())
            .map(|r| letters.get(r, "job_id").map(|v| v.as_int().unwrap_or(-1)))
            .collect::<Result<_, _>>()?;
        let jobs = &s.job_details;
        let healthcare: Vec<usize> = (0..jobs.n_rows())
            .filter(|&r| {
                str_cell(jobs, r, "sector").is_ok_and(|v| v == "healthcare")
                    && jobs
                        .get(r, "job_id")
                        .is_ok_and(|id| id.as_int().is_some_and(|id| referenced.contains(&id)))
            })
            .collect();
        if healthcare.is_empty() {
            return Err("no referenced healthcare job to flip".into());
        }
        let mut flipped_job: Option<usize> = None;
        let healthcare_ids: std::collections::HashSet<i64> = healthcare
            .iter()
            .map(|&r| jobs.get(r, "job_id").map(|v| v.as_int().unwrap_or(-1)))
            .collect::<Result<_, _>>()?;
        // A letter the pipeline keeps: a user fixes what the model sees.
        let reaching = |letters: &Table, rng: &mut nde_data::rng::StdRng| -> Res<usize> {
            loop {
                let row = rng.gen_range(0..letters.n_rows());
                let job = letters.get(row, "job_id")?.as_int().unwrap_or(-1);
                if healthcare_ids.contains(&job) {
                    return Ok(row);
                }
            }
        };

        let mut out = Vec::with_capacity(self.fixes);
        for kind in kinds {
            let (delta, path) = match kind {
                FixKind::Label | FixKind::YearsExperience | FixKind::EmployerRating => {
                    let row = reaching(&letters, &mut rng)?;
                    let (column, value) = match kind {
                        FixKind::Label => {
                            let flipped = match str_cell(&letters, row, LABEL_COLUMN)?.as_str() {
                                "positive" => "negative",
                                _ => "positive",
                            };
                            (LABEL_COLUMN, Value::Str(flipped.into()))
                        }
                        FixKind::YearsExperience => {
                            ("years_experience", Value::Float(rng.gen_range(0.0..30.0)))
                        }
                        _ => ("employer_rating", Value::Float(rng.gen_range(0.0..10.0))),
                    };
                    letters.set(row, column, value.clone())?;
                    let delta = Delta::Update {
                        source: "train_df".into(),
                        row,
                        column: column.into(),
                        value,
                    };
                    (delta, DeltaPath::CellPatch)
                }
                FixKind::Splice => {
                    let delta = match removed.pop() {
                        Some(values) => {
                            letters.push_row(values.clone())?;
                            Delta::Insert {
                                source: "train_df".into(),
                                values,
                            }
                        }
                        None => {
                            let row = reaching(&letters, &mut rng)?;
                            removed.push(letters.row(row)?);
                            let keep: Vec<usize> =
                                (0..letters.n_rows()).filter(|&r| r != row).collect();
                            letters = letters.take(&keep)?;
                            Delta::Delete {
                                source: "train_df".into(),
                                row,
                            }
                        }
                    };
                    (delta, DeltaPath::Splice)
                }
                FixKind::Rerun => {
                    let (row, sector) = match flipped_job.take() {
                        Some(row) => (row, "healthcare"),
                        None => {
                            let row = *healthcare.choose(&mut rng).expect("non-empty");
                            flipped_job = Some(row);
                            (row, "tech")
                        }
                    };
                    let delta = Delta::Update {
                        source: "jobdetail_df".into(),
                        row,
                        column: "sector".into(),
                        value: Value::Str(sector.into()),
                    };
                    (delta, DeltaPath::Rerun)
                }
            };
            out.push((delta, path));
        }
        Ok(out)
    }
}

fn path_name(p: DeltaPath) -> &'static str {
    match p {
        DeltaPath::CellPatch => "cell_patch",
        DeltaPath::Splice => "splice",
        DeltaPath::Rerun => "rerun",
    }
}

impl Workload for FixStream {
    type State = State;

    fn name(&self) -> &'static str {
        "fix-stream"
    }

    fn config(&self) -> String {
        format!(
            "letters={};label_flips={};fixes={};splice_share={};rerun_share={};checkpoint_every={};k={KNN_K};text_dims={PIPELINE_TEXT_DIMS}",
            self.letters, self.label_flips, self.fixes, self.splice_share, self.rerun_share, self.checkpoint_every
        )
    }

    fn setup(&self, seed: u64, ctx: &Ctx) -> Res<State> {
        let mut s = ctx.call("data.generate", || scenario(self.letters, seed))?;
        ctx.call("data.inject", || {
            flip_labels(&mut s.train, LABEL_COLUMN, self.label_flips, seed ^ 0xf11b)
        })?;
        let mut pipeline = FeaturePipeline::hiring(PIPELINE_TEXT_DIMS);
        ctx.call("pipeline.exec", || {
            pipeline.fit_run(&s.pipeline_inputs(&s.train), false)
        })?;
        let valid = ctx
            .call("pipeline.exec", || {
                pipeline.transform_run(&s.pipeline_inputs(&s.valid), false)
            })?
            .dataset;
        let session = ctx.call("cleaning.session_build", || {
            IncrementalDebugSession::build(
                KnnClassifier::new(KNN_K),
                FeaturePipeline::hiring(PIPELINE_TEXT_DIMS),
                &s.pipeline_inputs(&s.train),
                valid.clone(),
            )
        })?;
        static REPETITION: AtomicU64 = AtomicU64::new(0);
        let store = ctx.call("robust.open", || RunStore::open(store_root()))?;
        let repetition = REPETITION.fetch_add(1, Ordering::Relaxed);
        let config = format!("{};repetition={repetition}", self.config());
        let fingerprint = RunFingerprint::new(self.name(), seed, config, seed);
        let fixes = self.plan(&s, seed)?;
        Ok(State {
            scenario: s,
            pipeline,
            valid,
            session,
            store,
            fingerprint,
            fixes,
            reports: Vec::with_capacity(self.fixes),
            last_payload: None,
        })
    }

    fn run(&self, st: &mut State, ctx: &Ctx) -> Res<()> {
        let traced = ctx.tracer.enabled();
        for (step, (delta, _)) in st.fixes.iter().enumerate() {
            let t0 = Instant::now();
            let report = ctx.step(|| ctx.call("cleaning.fix", || st.session.apply_fix(delta)))?;
            if traced {
                let fix_us = match report.path {
                    DeltaPath::CellPatch => "cleaning.fix_us.cell_patch",
                    DeltaPath::Splice => "cleaning.fix_us.splice",
                    DeltaPath::Rerun => "cleaning.fix_us.rerun",
                };
                ctx.sample(fix_us, t0.elapsed().as_secs_f64() * 1e6);
            }
            if (step + 1) % self.checkpoint_every == 0 || step + 1 == st.fixes.len() {
                let payload = Json::Obj(vec![
                    ("step".into(), Json::UInt(step as u64)),
                    ("path".into(), Json::Str(path_name(report.path).into())),
                    ("accuracy".into(), Json::Float(report.accuracy)),
                ]);
                let t1 = Instant::now();
                let saved = ctx.call("robust.save", || {
                    st.store
                        .save_checkpoint(&st.fingerprint, step as u64, &payload)
                })?;
                if traced {
                    ctx.sample("robust.save_us", t1.elapsed().as_secs_f64() * 1e6);
                    ctx.count(
                        "robust.bytes_written",
                        std::fs::metadata(&saved)?.len() as f64,
                    );
                }
                st.last_payload = Some(payload);
            }
            ctx.count("cleaning.cache_evictions", report.cache_evictions as f64);
            st.reports.push(report);
        }
        let (_, full, rows) = st.session.stats();
        ctx.count("cleaning.full_reencodes", full as f64);
        ctx.count("cleaning.rows_reencoded", rows as f64);
        Ok(())
    }

    fn check(&self, st: &State, ctx: &Ctx) -> Res<()> {
        // Each fix took the path it was built for, so the mix cannot drift.
        let drift = st
            .fixes
            .iter()
            .zip(&st.reports)
            .filter(|((_, want), got)| got.path != *want)
            .count();
        ctx.check(drift == 0 && st.reports.len() == st.fixes.len(), || {
            format!("fix-stream: {drift} fixes took another path than planned")
        });

        // Table and lineage equal a fresh provenance-tracked run.
        let session = st.session.session();
        let current: Vec<(&str, &Table)> = session
            .source_names()
            .iter()
            .map(|n| (n.as_str(), session.input(n).expect("named source")))
            .collect();
        let fresh = Executor::new()
            .with_provenance(true)
            .with_threads(ctx.threads)
            .run(&st.pipeline.plan, st.pipeline.root, &current)?;
        ctx.check(session.table() == &fresh.table, || {
            "fix-stream: maintained table differs from a fresh run".into()
        });
        ctx.check(
            fresh.provenance.as_ref() == Some(&session.lineage()),
            || "fix-stream: maintained lineage differs from a fresh run".into(),
        );

        // Dataset and accuracy equal a re-encode with the fitted encoders.
        let replay = st.pipeline.transform_run(&current, false)?.dataset;
        let ds = st.session.dataset();
        ctx.check(
            ds.y == replay.y && (0..ds.len()).all(|i| same_bits(ds.x.row(i), replay.x.row(i))),
            || "fix-stream: maintained dataset differs from a re-encode".into(),
        );
        let mut model = KnnClassifier::new(KNN_K);
        model.fit(&replay)?;
        let want = model.accuracy(&st.valid);
        let got = st.reports.last().map(|r| r.accuracy);
        ctx.check(got.map(f64::to_bits) == Some(want.to_bits()), || {
            format!("fix-stream: accuracy {got:?} != re-encoded {want}")
        });

        // The store returns the last record written.
        let latest = st.store.latest_valid(&st.fingerprint)?.map(|r| r.payload);
        ctx.check(latest.is_some() && latest == st.last_payload, || {
            "fix-stream: latest_valid is not the last payload saved".into()
        });
        Ok(())
    }

    /// Replay the same fixes through a standalone pipeline session to time
    /// delta propagation and row re-encoding per path.
    fn traced_extras(&self, st: &State, ctx: &Ctx) -> Res<()> {
        let s = &st.scenario;
        let mut session = PipelineSession::build(
            &Executor::new(),
            &st.pipeline.plan,
            st.pipeline.root,
            &s.pipeline_inputs(&s.train),
        )?;
        let mut affected = 0usize;
        for (delta, _) in &st.fixes {
            let t0 = Instant::now();
            let out = session.apply(delta)?;
            let us = t0.elapsed().as_secs_f64() * 1e6;
            ctx.sample(
                match out.path {
                    DeltaPath::CellPatch => "pipeline.delta.apply_us.cell_patch",
                    DeltaPath::Splice => "pipeline.delta.apply_us.splice",
                    DeltaPath::Rerun => "pipeline.delta.apply_us.rerun",
                },
                us,
            );
            affected += out.affected_rows.len();
            if out.path == DeltaPath::CellPatch && !out.affected_rows.is_empty() {
                let t0 = Instant::now();
                st.pipeline
                    .encode_rows(session.table(), &out.affected_rows)?;
                ctx.sample("pipeline.encode_rows_us", t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        let stats = session.stats();
        ctx.count("pipeline.delta.cell_patches", stats.cell_patches as f64);
        ctx.count("pipeline.delta.splices", stats.splices as f64);
        ctx.count("pipeline.delta.reruns", stats.reruns as f64);
        ctx.count("pipeline.delta.rows_patched", stats.rows_patched as f64);
        ctx.count("pipeline.delta.affected_rows", affected as f64);
        Ok(())
    }
}
