//! The unified importance-run entry point.
//!
//! Every Monte-Carlo and closed-form importance method used to grow its own
//! cross-product of free-function variants (`*_budgeted`, `*_cached`,
//! `*_par`, …). [`ImportanceRun`] collapses that explosion: one options
//! struct carries the run-wide knobs (seed, threads, budget, memo cache,
//! resume snapshot, durable store, batch policy) and each method exposes
//! exactly one entry point taking `&ImportanceRun` plus its method-specific
//! parameters:
//!
//! ```
//! use nde_importance::prelude::*;
//! use nde_ml::dataset::Dataset;
//! use nde_ml::models::knn::KnnClassifier;
//!
//! let train = Dataset::from_rows(
//!     vec![vec![0.0], vec![0.2], vec![10.0], vec![10.2]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )
//! .unwrap();
//! let valid = train.clone();
//!
//! let run = ImportanceRun::new(42).with_threads(2);
//! let exact = knn_shapley(&run, &train, &valid, 1).unwrap();
//! let mc = tmc_shapley(
//!     &run,
//!     &KnnClassifier::new(1),
//!     &train,
//!     &valid,
//!     &TmcParams::default(),
//! )
//! .unwrap();
//! assert_eq!(exact.scores.len(), train.len());
//! assert!(exact.scores.values.iter().all(|v| *v >= 0.0));
//! assert_eq!(mc.scores.len(), train.len());
//! assert!(mc.report.utility_calls > 0);
//! ```
//!
//! All entry points return an [`ImportanceOutcome`]: the scores plus a
//! [`RunReport`] with uniform accounting (logical utility calls, cache
//! hits, batches formed, convergence diagnostics and a resume snapshot
//! where the method supports them).
//!
//! # Budgets, resume, and the durable store
//!
//! The three Monte-Carlo methods (TMC-Shapley, Banzhaf, Beta Shapley) all
//! honor [`with_budget`](ImportanceRun::with_budget) and resume
//! bit-identically from the snapshot payload returned in `report.snapshot`
//! (pass it back via [`with_resume`](ImportanceRun::with_resume)). The
//! payload is the same [`Snapshot`] JSON a store record carries, so an
//! explicit resume and a store auto-resume run the same decode, and a
//! snapshot written by another method, or by a run with another
//! configuration, is rejected with [`ImportanceError::Checkpoint`].
//! Attaching a [`RunStore`] via [`with_store`](ImportanceRun::with_store)
//! makes the run *crash-safe*: checkpoints are written as checksummed
//! on-disk records keyed by the run's [`RunFingerprint`] (method, seed,
//! config, data), and a re-run with the same options silently resumes from
//! the latest valid record — after a crash, a torn write, or a corrupted
//! record, whatever state survives validation is picked up and the rest is
//! recomputed, bit-identically.
//! [`with_auto_checkpoint`](ImportanceRun::with_auto_checkpoint) sets how
//! many estimator steps may elapse between records.
//!
//! Each Monte-Carlo entry point hands its method module's crate-private
//! engine (`tmc_engine`, `banzhaf_engine_budgeted`,
//! `beta_shapley_engine_budgeted`) to one generic driver over the engine's
//! [`Snapshot`] type; `knn_shapley` calls `knn_engine` directly. The run
//! API is the only public surface.

use crate::banzhaf::{banzhaf_engine_budgeted, BanzhafConfig};
use crate::batch::{BatchPolicy, BatchStats};
use crate::beta_shapley::{beta_shapley_engine_budgeted, BetaShapleyConfig};
use crate::common::ImportanceScores;
use crate::knn_shapley::knn_engine;
use crate::shapley_mc::{tmc_engine, ShapleyConfig};
use crate::{ImportanceError, Result};
use nde_data::fxhash::FxHasher;
use nde_data::json::Json;
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::par::{MemoCache, WorkerPool};
use nde_robust::{
    ConvergenceDiagnostics, Exhaustion, RunBudget, RunFingerprint, RunStore, Snapshot,
};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run-wide options shared by every importance method.
///
/// Construct with [`ImportanceRun::new`] and chain `with_*` builders; the
/// defaults (single thread, no budget, no cache, no resume state, no store,
/// the default grouped [`BatchPolicy`]) suit one-shot runs.
///
/// Methods that cannot honor an option reject the run with
/// [`ImportanceError::Unsupported`] instead of silently ignoring it; the
/// only such method is the closed-form `knn_shapley`, which has no
/// Monte-Carlo state to budget, checkpoint, or persist.
#[derive(Debug, Clone, Default)]
pub struct ImportanceRun<'a> {
    /// Base seed; methods derive per-permutation/per-sample child seeds.
    pub seed: u64,
    /// Worker threads (0 or 1 = sequential). Scores are bit-identical for
    /// every thread count.
    pub threads: usize,
    /// Optional resource budget. Budget trip points are deterministic:
    /// independent of caching, batching, and thread count.
    pub budget: Option<RunBudget>,
    /// Optional utility memo cache, dedicated to one
    /// `(model, train, valid)` triple. Hits still count as logical utility
    /// calls, so budget trip points are cache-independent.
    pub cache: Option<&'a MemoCache>,
    /// Optional snapshot payload to resume from (`report.snapshot` of an
    /// earlier run of the same method and configuration). Resuming is
    /// bit-identical to never stopping.
    pub resume: Option<&'a Json>,
    /// Optional durable store. When set, checkpoints are persisted as
    /// crash-safe records under the run's [`RunFingerprint`] and the run
    /// auto-resumes from the latest valid record (unless an explicit
    /// `resume` is given, which wins).
    pub store: Option<&'a RunStore>,
    /// With a store attached: write a record every this-many estimator
    /// steps (permutations / subset samples / points). `None` writes one
    /// record when the run finishes or its budget trips.
    pub auto_checkpoint_every: Option<u64>,
    /// How coalition evaluations are grouped into batches. Purely physical:
    /// scores are bit-identical under every policy.
    pub batch: BatchPolicy,
    /// Worker pool the engines run on; `None` uses the resident
    /// process-wide pool ([`WorkerPool::shared`]). Purely physical:
    /// scores are bit-identical under every pool.
    pub pool: Option<Arc<WorkerPool>>,
}

impl<'a> ImportanceRun<'a> {
    /// A fresh single-threaded, unbudgeted run with the default batch
    /// policy.
    pub fn new(seed: u64) -> ImportanceRun<'a> {
        ImportanceRun {
            seed,
            threads: 1,
            budget: None,
            cache: None,
            resume: None,
            store: None,
            auto_checkpoint_every: None,
            batch: BatchPolicy::default(),
            pool: None,
        }
    }

    /// Set the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> ImportanceRun<'a> {
        self.threads = threads;
        self
    }

    /// Run the engines on a dedicated [`WorkerPool`] instead of the
    /// process-wide shared one. Scheduling only — scores are bit-identical
    /// under every pool.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> ImportanceRun<'a> {
        self.pool = Some(pool);
        self
    }

    /// The pool this run's engines execute on.
    pub(crate) fn pool_handle(&self) -> Arc<WorkerPool> {
        self.pool.clone().unwrap_or_else(WorkerPool::shared)
    }

    /// Set a resource budget.
    pub fn with_budget(mut self, budget: RunBudget) -> ImportanceRun<'a> {
        self.budget = Some(budget);
        self
    }

    /// Attach a utility memo cache.
    pub fn with_cache(mut self, cache: &'a MemoCache) -> ImportanceRun<'a> {
        self.cache = Some(cache);
        self
    }

    /// Resume from the snapshot payload of an earlier, interrupted run
    /// (`report.snapshot`, or a store record's payload). Resuming is
    /// bit-identical to never stopping; a snapshot written by a different
    /// method or run configuration is rejected with
    /// [`ImportanceError::Checkpoint`].
    pub fn with_resume(mut self, snapshot: &'a Json) -> ImportanceRun<'a> {
        self.resume = Some(snapshot);
        self
    }

    /// Attach a durable on-disk store: checkpoints (and the memo cache, if
    /// any) persist across processes, and the run auto-resumes from the
    /// latest valid record.
    pub fn with_store(mut self, store: &'a RunStore) -> ImportanceRun<'a> {
        self.store = Some(store);
        self
    }

    /// Write a durable record every `every` estimator steps (clamped to at
    /// least 1). Only meaningful together with
    /// [`with_store`](ImportanceRun::with_store).
    pub fn with_auto_checkpoint(mut self, every: u64) -> ImportanceRun<'a> {
        self.auto_checkpoint_every = Some(every.max(1));
        self
    }

    /// Set the batch policy ([`BatchPolicy::Unbatched`] restores the
    /// legacy one-coalition-at-a-time physical behavior).
    pub fn with_batch(mut self, batch: BatchPolicy) -> ImportanceRun<'a> {
        self.batch = batch;
        self
    }

    fn reject_resumability(&self, method: &str) -> Result<()> {
        let offending = if self.budget.is_some() {
            Some("budgets")
        } else if self.resume.is_some() {
            Some("checkpoint resume")
        } else if self.store.is_some() || self.auto_checkpoint_every.is_some() {
            Some("a durable store")
        } else {
            None
        };
        match offending {
            Some(option) => Err(ImportanceError::Unsupported(format!(
                "{method} is closed-form and does not support {option}"
            ))),
            None => Ok(()),
        }
    }
}

/// Uniform accounting attached to every [`ImportanceOutcome`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Logical utility evaluations the estimate is built from (cache hits
    /// included; for the Monte-Carlo methods this is the authoritative
    /// budget-clock count, for closed-form methods it is 0).
    pub utility_calls: u64,
    /// Coalitions answered from the memo cache (physical count).
    pub cache_hits: u64,
    /// Grouped passes submitted to the batched scorer.
    pub batches_formed: u64,
    /// Coalitions evaluated through the batched scorer.
    pub batched_evals: u64,
    /// Coalitions evaluated through per-coalition retraining.
    pub fallback_evals: u64,
    /// Convergence diagnostics (methods with a budget clock).
    pub diagnostics: Option<ConvergenceDiagnostics>,
    /// Snapshot payload to pass to [`ImportanceRun::with_resume`] to
    /// continue this estimation (every Monte-Carlo method). Decode it with
    /// the method's [`Snapshot`] type (e.g.
    /// [`McCheckpoint`](nde_robust::McCheckpoint)) to inspect it.
    pub snapshot: Option<Json>,
    /// Identity the durable records were stored under (runs with a store).
    pub fingerprint: Option<RunFingerprint>,
}

impl RunReport {
    fn from_stats(utility_calls: u64, stats: BatchStats) -> RunReport {
        RunReport {
            utility_calls,
            cache_hits: stats.cache_hits,
            batches_formed: stats.batches_formed,
            batched_evals: stats.batched_evals,
            fallback_evals: stats.fallback_evals,
            diagnostics: None,
            snapshot: None,
            fingerprint: None,
        }
    }
}

/// What every importance entry point returns: the scores plus a uniform
/// [`RunReport`].
#[derive(Debug, Clone)]
pub struct ImportanceOutcome {
    /// Importance estimates (higher = more valuable).
    pub scores: ImportanceScores,
    /// How the run got there.
    pub report: RunReport,
}

/// Method parameters for TMC-Shapley (run-wide knobs live on
/// [`ImportanceRun`]).
#[derive(Debug, Clone)]
pub struct TmcParams {
    /// Number of sampled permutations.
    pub permutations: usize,
    /// Truncate a permutation once `|U(prefix) − U(full)|` falls below this.
    pub truncation_tolerance: f64,
}

impl Default for TmcParams {
    fn default() -> Self {
        let d = ShapleyConfig::default();
        TmcParams {
            permutations: d.permutations,
            truncation_tolerance: d.truncation_tolerance,
        }
    }
}

/// Method parameters for the Banzhaf MSR estimator.
#[derive(Debug, Clone)]
pub struct BanzhafParams {
    /// Number of sampled subsets (each point included with probability 1/2).
    pub samples: usize,
}

impl Default for BanzhafParams {
    fn default() -> Self {
        BanzhafParams {
            samples: BanzhafConfig::default().samples,
        }
    }
}

/// Method parameters for the Beta(α, β) semivalue estimator.
#[derive(Debug, Clone)]
pub struct BetaShapleyParams {
    /// Beta distribution α parameter (> 0).
    pub alpha: f64,
    /// Beta distribution β parameter (> 0). β > α emphasizes small
    /// coalitions.
    pub beta: f64,
    /// Monte-Carlo samples *per training example*.
    pub samples_per_point: usize,
}

impl Default for BetaShapleyParams {
    fn default() -> Self {
        let d = BetaShapleyConfig::default();
        BetaShapleyParams {
            alpha: d.alpha,
            beta: d.beta,
            samples_per_point: d.samples_per_point,
        }
    }
}

/// 64-bit identity of the run's input data: both datasets' fingerprints
/// folded together. Part of the [`RunFingerprint`] store key.
fn data_fingerprint(train: &Dataset, valid: &Dataset) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(train.fingerprint());
    h.write_u64(valid.fingerprint());
    h.finish()
}

/// What a resumable engine returns for one segment: best-so-far scores,
/// budget diagnostics, and the snapshot to continue from.
pub(crate) struct EngineRun<S> {
    pub scores: ImportanceScores,
    pub diagnostics: ConvergenceDiagnostics,
    pub checkpoint: S,
}

/// The one driver behind every Monte-Carlo entry point. It fingerprints the
/// run (store runs only: the data fingerprint is not computed otherwise),
/// resolves what the run resumes from — an explicit `resume` payload wins
/// over the store's latest valid record, and both go through the same
/// [`Snapshot::from_payload`] decode — warms the memo cache from the store,
/// drives `engine` in durable segments and reports. `config` renders every
/// knob that changes the trajectory; `total` is the step count of a
/// finished run.
fn run_resumable<S: Snapshot>(
    run: &ImportanceRun,
    train: &Dataset,
    valid: &Dataset,
    config: String,
    total: u64,
    engine: impl FnMut(&RunBudget, Option<&S>) -> Result<(EngineRun<S>, BatchStats)>,
) -> Result<ImportanceOutcome> {
    let fp = run
        .store
        .map(|_| RunFingerprint::new(S::METHOD, run.seed, config, data_fingerprint(train, valid)));
    let resume = match (run.resume, run.store, &fp) {
        (Some(payload), _, _) => Some(S::from_payload(payload)?),
        (None, Some(store), Some(fp)) => store
            .latest_valid(fp)?
            .map(|record| S::from_payload(&record.payload))
            .transpose()?,
        _ => None,
    };
    if let (Some(store), Some(cache), Some(fp)) = (run.store, run.cache, &fp) {
        // Corrupt or missing copies degrade to a cold cache.
        store.load_memo(fp, cache)?;
    }
    let (out, stats) = drive(run, fp.as_ref(), total, resume, engine)?;
    let mut report = RunReport::from_stats(out.diagnostics.utility_calls, stats);
    report.diagnostics = Some(out.diagnostics);
    report.snapshot = Some(out.checkpoint.to_payload());
    report.fingerprint = fp;
    Ok(ImportanceOutcome {
        scores: out.scores,
        report,
    })
}

/// Which *base*-budget limit, if any, the run has hit — segment-clamped
/// clocks can report a trip that only reflects the auto-checkpoint cadence,
/// so the caller-visible exhaustion is recomputed against the caller's
/// budget. Checks in the same order as `BudgetClock::exhausted`.
fn base_exhaustion(
    base: &RunBudget,
    diagnostics: &ConvergenceDiagnostics,
    elapsed: Duration,
) -> Option<Exhaustion> {
    if let Some(m) = base.max_iterations {
        if diagnostics.iterations >= m {
            return Some(Exhaustion::Iterations);
        }
    }
    if let Some(m) = base.max_utility_calls {
        if diagnostics.utility_calls >= m {
            return Some(Exhaustion::UtilityCalls);
        }
    }
    if let Some(w) = base.wall_clock {
        if elapsed >= w {
            return Some(Exhaustion::Deadline);
        }
    }
    None
}

/// Drive an engine to completion in durable segments.
///
/// Each segment runs the engine under the caller's budget — clamped to
/// `auto_checkpoint_every` additional iterations — then persists the
/// returned state (and memo cache) to the store before starting the next
/// segment. Without a cadence the engine runs once and the final state is
/// persisted; without a store the segments merely bound how much work a
/// budget overshoot can lose. Termination: every segment either advances
/// the cursor by at least one step or trips a base-budget limit, and both
/// paths exit the loop.
fn drive<S: Snapshot>(
    run: &ImportanceRun,
    fingerprint: Option<&RunFingerprint>,
    total: u64,
    mut resume: Option<S>,
    mut segment: impl FnMut(&RunBudget, Option<&S>) -> Result<(EngineRun<S>, BatchStats)>,
) -> Result<(EngineRun<S>, BatchStats)> {
    let unlimited = RunBudget::unlimited();
    let base = run.budget.as_ref().unwrap_or(&unlimited);
    let started = Instant::now();
    let mut stats_total = BatchStats::default();
    loop {
        let done = resume.as_ref().map_or(0, S::step);
        let mut seg_budget = base.clone();
        if let Some(every) = run.auto_checkpoint_every {
            let cap = done.saturating_add(every.max(1));
            seg_budget.max_iterations = Some(base.max_iterations.map_or(cap, |m| m.min(cap)));
        }
        if let Some(wall) = base.wall_clock {
            seg_budget.wall_clock = Some(wall.saturating_sub(started.elapsed()));
        }
        let (mut out, stats) = segment(&seg_budget, resume.as_ref())?;
        stats_total.merge(&stats);
        let step = out.checkpoint.step();
        if let (Some(store), Some(fp)) = (run.store, fingerprint) {
            store.save_checkpoint(fp, step, &out.checkpoint.to_payload())?;
            if let Some(cache) = run.cache {
                store.save_memo(fp, cache)?;
            }
        }
        let tripped = base_exhaustion(base, &out.diagnostics, started.elapsed());
        if step >= total || tripped.is_some() || run.auto_checkpoint_every.is_none() {
            if run.auto_checkpoint_every.is_some() {
                // The last segment's clock saw a clamped budget and only its
                // own slice of wall time; report against the caller's budget.
                out.diagnostics.exhausted = tripped;
                out.diagnostics.elapsed = started.elapsed();
            }
            return Ok((out, stats_total));
        }
        resume = Some(out.checkpoint);
    }
}

/// Truncated Monte-Carlo Data Shapley through the unified run options.
///
/// Honors every [`ImportanceRun`] option: budgets stop the run per utility
/// call, `report.snapshot` resumes it bit-identically (mid-permutation
/// included), a store makes it crash-safe, and `report.diagnostics`
/// carries the authoritative clock counters.
pub fn tmc_shapley<C>(
    run: &ImportanceRun,
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    params: &TmcParams,
) -> Result<ImportanceOutcome>
where
    C: Classifier + Send + Sync,
{
    let config = ShapleyConfig {
        permutations: params.permutations,
        truncation_tolerance: params.truncation_tolerance,
        seed: run.seed,
        threads: run.threads,
    };
    run_resumable(
        run,
        train,
        valid,
        format!(
            "permutations={};truncation_tolerance={}",
            params.permutations, params.truncation_tolerance
        ),
        params.permutations as u64,
        |budget, resume| {
            tmc_engine(
                template,
                train,
                valid,
                &config,
                budget,
                resume,
                run.cache,
                run.batch,
                &run.pool_handle(),
            )
        },
    )
}

/// Data Banzhaf (maximum-sample-reuse estimator) through the unified run
/// options. Budgets stop the run at sample granularity, `report.snapshot`
/// resumes it bit-identically, and a store makes it crash-safe.
pub fn banzhaf<C>(
    run: &ImportanceRun,
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    params: &BanzhafParams,
) -> Result<ImportanceOutcome>
where
    C: Classifier + Send + Sync,
{
    let config = BanzhafConfig {
        samples: params.samples,
        seed: run.seed,
        threads: run.threads,
    };
    run_resumable(
        run,
        train,
        valid,
        format!("samples={}", params.samples),
        params.samples as u64,
        |budget, resume| {
            banzhaf_engine_budgeted(
                template,
                train,
                valid,
                &config,
                budget,
                resume,
                run.cache,
                run.batch,
                &run.pool_handle(),
            )
        },
    )
}

/// Beta(α, β) semivalues through the unified run options. Budgets stop the
/// run at point granularity, `report.snapshot` resumes it bit-identically,
/// and a store makes it crash-safe.
pub fn beta_shapley<C>(
    run: &ImportanceRun,
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    params: &BetaShapleyParams,
) -> Result<ImportanceOutcome>
where
    C: Classifier + Send + Sync,
{
    let config = BetaShapleyConfig {
        alpha: params.alpha,
        beta: params.beta,
        samples_per_point: params.samples_per_point,
        seed: run.seed,
        threads: run.threads,
    };
    run_resumable(
        run,
        train,
        valid,
        format!(
            "alpha={};beta={};samples_per_point={}",
            params.alpha, params.beta, params.samples_per_point
        ),
        train.len() as u64,
        |budget, resume| {
            beta_shapley_engine_budgeted(
                template,
                train,
                valid,
                &config,
                budget,
                resume,
                run.cache,
                run.batch,
                &run.pool_handle(),
            )
        },
    )
}

/// Exact, closed-form KNN-Shapley through the unified run options.
///
/// Closed-form: no utility calls are made, so `run.cache`, `run.batch` and
/// `run.seed` are irrelevant (the result is deterministic); only
/// `run.threads` matters. Budgets, resume state, and durable stores are
/// rejected with [`ImportanceError::Unsupported`] — there is no
/// Monte-Carlo state to stop, checkpoint, or persist.
pub fn knn_shapley(
    run: &ImportanceRun,
    train: &Dataset,
    valid: &Dataset,
    k: usize,
) -> Result<ImportanceOutcome> {
    run.reject_resumability("knn_shapley")?;
    let scores = knn_engine(train, valid, k, run.threads.max(1), &run.pool_handle())?;
    Ok(ImportanceOutcome {
        scores,
        report: RunReport::default(),
    })
}

#[cfg(test)]
mod tests {
    // The equivalence tests pin the entry points against the engines they
    // delegate to: the run API must match the engine output bit-for-bit.
    use super::*;
    use crate::shapley_mc::tmc_engine;
    use crate::snapshot::{BanzhafCheckpoint, BetaShapleyCheckpoint};
    use nde_ml::models::knn::KnnClassifier;
    use nde_robust::McCheckpoint;

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

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("nde-run-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        RunStore::open(dir).unwrap()
    }

    #[test]
    fn tmc_matches_engine_bit_for_bit() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let cfg = ShapleyConfig {
            permutations: 40,
            truncation_tolerance: 0.0,
            seed: 9,
            threads: 4,
        };
        let (legacy, _) = tmc_engine(
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
        let run = ImportanceRun::new(9).with_threads(4);
        let unified = tmc_shapley(
            &run,
            &knn,
            &train,
            &valid,
            &TmcParams {
                permutations: 40,
                truncation_tolerance: 0.0,
            },
        )
        .unwrap();
        assert_eq!(unified.scores, legacy.scores);
        assert_eq!(
            unified.report.utility_calls,
            legacy.diagnostics.utility_calls
        );
        let snapshot = McCheckpoint::from_payload(&unified.report.snapshot.unwrap()).unwrap();
        assert_eq!(snapshot, legacy.checkpoint);
    }

    #[test]
    fn tmc_budget_and_resume_through_run_options() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let params = TmcParams {
            permutations: 12,
            truncation_tolerance: 0.0,
        };
        let full = tmc_shapley(&ImportanceRun::new(3), &knn, &train, &valid, &params).unwrap();
        let cut = tmc_shapley(
            &ImportanceRun::new(3).with_budget(RunBudget::unlimited().with_max_utility_calls(17)),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(cut.report.utility_calls, 17);
        let snap = cut.report.snapshot.unwrap();
        let resume = ImportanceRun::new(3).with_resume(&snap);
        let resumed = tmc_shapley(&resume, &knn, &train, &valid, &params).unwrap();
        assert_eq!(resumed.scores, full.scores);
        // The tolerance decides where every walk stops: a snapshot cut at
        // 0.0 is refused by a run at 0.5 (no store needed to catch it).
        let other = TmcParams {
            truncation_tolerance: 0.5,
            ..params
        };
        assert!(matches!(
            tmc_shapley(&resume, &knn, &train, &valid, &other),
            Err(ImportanceError::Checkpoint(m)) if m.contains("truncation_tolerance")
        ));
    }

    #[test]
    fn banzhaf_and_beta_budget_and_resume_through_run_options() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let run = ImportanceRun::new(7).with_threads(2);

        let (legacy, _) = crate::banzhaf::banzhaf_engine(
            &knn,
            &train,
            &valid,
            &BanzhafConfig {
                samples: 100,
                seed: 7,
                threads: 2,
            },
            None,
            BatchPolicy::Unbatched,
            &WorkerPool::shared(),
        )
        .unwrap();
        let params = BanzhafParams { samples: 100 };
        let full = banzhaf(&run, &knn, &train, &valid, &params).unwrap();
        assert_eq!(full.scores, legacy);
        assert!(full.report.utility_calls > 0);
        // Budget cut: Banzhaf's unit cost is 0/1 per sample, so the trip
        // point is exact; resuming from the snapshot is bit-identical.
        let cut = banzhaf(
            &run.clone()
                .with_budget(RunBudget::unlimited().with_max_utility_calls(40)),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(cut.report.utility_calls, 40);
        let snap = cut.report.snapshot.unwrap();
        assert!(BanzhafCheckpoint::from_payload(&snap).unwrap().step() < 100);
        let resumed = banzhaf(
            &run.clone().with_resume(&snap),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(resumed.scores, full.scores);

        let (legacy, _) = crate::beta_shapley::beta_shapley_engine(
            &knn,
            &train,
            &valid,
            &BetaShapleyConfig {
                samples_per_point: 20,
                seed: 7,
                threads: 2,
                ..BetaShapleyConfig::default()
            },
            None,
            BatchPolicy::Unbatched,
            &WorkerPool::shared(),
        )
        .unwrap();
        let params = BetaShapleyParams {
            samples_per_point: 20,
            ..BetaShapleyParams::default()
        };
        let full = beta_shapley(&run, &knn, &train, &valid, &params).unwrap();
        assert_eq!(full.scores, legacy);
        // Point-granular cut after 2 of 5 points, then a bit-identical
        // resume through the method-erased snapshot.
        let cut = beta_shapley(
            &run.clone()
                .with_budget(RunBudget::unlimited().with_max_iterations(2)),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        let snap = cut.report.snapshot.unwrap();
        assert_eq!(
            BetaShapleyCheckpoint::from_payload(&snap).unwrap().step(),
            2
        );
        let resumed = beta_shapley(
            &run.clone().with_resume(&snap),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(resumed.scores, full.scores);

        // A snapshot can never cross methods: the Banzhaf run's snapshot is
        // rejected by beta_shapley, and a TMC snapshot by banzhaf.
        let banzhaf_snap = full_banzhaf_snapshot(&run, &knn, &train, &valid);
        assert!(matches!(
            beta_shapley(
                &run.clone().with_resume(&banzhaf_snap),
                &knn,
                &train,
                &valid,
                &params
            ),
            Err(ImportanceError::Checkpoint(_))
        ));
        let tmc = McCheckpoint::fresh(7, train.len(), 0.0).to_payload();
        assert!(matches!(
            banzhaf(
                &run.clone().with_resume(&tmc),
                &knn,
                &train,
                &valid,
                &BanzhafParams { samples: 100 }
            ),
            Err(ImportanceError::Checkpoint(_))
        ));
    }

    fn full_banzhaf_snapshot(
        run: &ImportanceRun,
        knn: &KnnClassifier,
        train: &Dataset,
        valid: &Dataset,
    ) -> Json {
        banzhaf(run, knn, train, valid, &BanzhafParams { samples: 100 })
            .unwrap()
            .report
            .snapshot
            .unwrap()
    }

    #[test]
    fn store_persists_and_auto_resumes_runs() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let store = temp_store("auto-resume");
        let params = TmcParams {
            permutations: 12,
            truncation_tolerance: 0.0,
        };
        let full = tmc_shapley(&ImportanceRun::new(5), &knn, &train, &valid, &params).unwrap();

        // Segmented, budget-cut run: records land every 3 permutations.
        let cut = tmc_shapley(
            &ImportanceRun::new(5)
                .with_store(&store)
                .with_auto_checkpoint(3)
                .with_budget(RunBudget::unlimited().with_max_iterations(7)),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        let fp = cut.report.fingerprint.clone().unwrap();
        assert_eq!(fp.method, McCheckpoint::METHOD);
        assert!(cut.report.diagnostics.as_ref().unwrap().iterations < 12);
        assert!(!store.record_paths(&fp).unwrap().is_empty());

        // Same options, no explicit resume: picks up the latest record and
        // finishes bit-identically to the uninterrupted run.
        let resumed = tmc_shapley(
            &ImportanceRun::new(5).with_store(&store),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(resumed.scores, full.scores);
        assert_eq!(resumed.report.diagnostics.unwrap().iterations, 12);

        // Banzhaf shares the store root under its own fingerprint, and a
        // fully segmented run still matches the one-shot scores bit-for-bit.
        let plain = banzhaf(
            &ImportanceRun::new(5),
            &knn,
            &train,
            &valid,
            &BanzhafParams { samples: 50 },
        )
        .unwrap();
        let segmented = banzhaf(
            &ImportanceRun::new(5)
                .with_store(&store)
                .with_auto_checkpoint(10),
            &knn,
            &train,
            &valid,
            &BanzhafParams { samples: 50 },
        )
        .unwrap();
        assert_eq!(segmented.scores, plain.scores);
        let bfp = segmented.report.fingerprint.unwrap();
        assert_ne!(bfp.key(), fp.key());
        assert!(!store.record_paths(&bfp).unwrap().is_empty());

        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn store_persists_the_memo_cache_across_runs() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let store = temp_store("memo");
        let params = BanzhafParams { samples: 60 };

        let warm_cache = MemoCache::new();
        let first = banzhaf(
            &ImportanceRun::new(2)
                .with_store(&store)
                .with_cache(&warm_cache),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        // The first run retrains for real (repeat subsets may hit in-run).
        assert!(first.report.batched_evals + first.report.fallback_evals > 0);

        // Simulate a crash that wiped the checkpoint records but left the
        // memo file: the re-run recomputes every sample, yet a fresh cache
        // in the "new process" is preloaded from the store, so every
        // logical call is answered without retraining.
        let fp = first.report.fingerprint.unwrap();
        for (_, path) in store.record_paths(&fp).unwrap() {
            std::fs::remove_file(path).unwrap();
        }
        let cold_cache = MemoCache::new();
        let second = banzhaf(
            &ImportanceRun::new(2)
                .with_store(&store)
                .with_cache(&cold_cache),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(second.scores, first.scores);
        assert_eq!(second.report.cache_hits, second.report.utility_calls);
        assert_eq!(
            second.report.batched_evals + second.report.fallback_evals,
            0
        );

        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn knn_matches_engine_and_reports_no_calls() {
        let (train, valid) = toy();
        let legacy =
            crate::knn_shapley::knn_engine(&train, &valid, 2, 3, &WorkerPool::shared()).unwrap();
        let unified =
            knn_shapley(&ImportanceRun::new(0).with_threads(3), &train, &valid, 2).unwrap();
        assert_eq!(unified.scores, legacy);
        assert_eq!(unified.report.utility_calls, 0);
        assert!(unified.report.snapshot.is_none());

        let ckpt = McCheckpoint::fresh(0, train.len(), 0.0).to_payload();
        let resuming = ImportanceRun::new(0).with_resume(&ckpt);
        assert!(matches!(
            knn_shapley(&resuming, &train, &valid, 2),
            Err(ImportanceError::Unsupported(_))
        ));
        let store = temp_store("knn-reject");
        let stored = ImportanceRun::new(0).with_store(&store);
        assert!(matches!(
            knn_shapley(&stored, &train, &valid, 2),
            Err(ImportanceError::Unsupported(_))
        ));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn cache_is_shared_across_methods_through_the_run() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let cache = MemoCache::new();
        let run = ImportanceRun::new(11).with_cache(&cache);
        let plain = banzhaf(
            &ImportanceRun::new(11),
            &knn,
            &train,
            &valid,
            &BanzhafParams { samples: 120 },
        )
        .unwrap();
        let warm = banzhaf(&run, &knn, &train, &valid, &BanzhafParams { samples: 120 }).unwrap();
        let rerun = banzhaf(&run, &knn, &train, &valid, &BanzhafParams { samples: 120 }).unwrap();
        assert_eq!(plain.scores, warm.scores);
        assert_eq!(warm.scores, rerun.scores);
        // Second pass answers everything from the cache.
        assert_eq!(rerun.report.cache_hits, rerun.report.utility_calls);
        assert_eq!(rerun.report.batched_evals + rerun.report.fallback_evals, 0);
    }
}
