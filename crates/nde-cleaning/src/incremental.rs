//! End-to-end incremental debugging: accepted fixes flow from a **source
//! table** through the captured pipeline run, the feature encoders, the
//! model evaluator, and the memoized-utility cache — without re-running
//! anything the fix did not touch.
//!
//! [`IncrementalDebugSession`] glues four incremental layers together:
//!
//! 1. [`PipelineSession`] (nde-pipeline) propagates a [`Delta`] through the
//!    relational operators and reports which **output rows** changed.
//! 2. [`FeaturePipeline::encode_rows`] re-encodes only those rows with the
//!    already-fitted encoders (row-wise, so bit-identical to a full
//!    transform).
//! 3. The model's [`IncrementalLabelEval`] hook patches the affected labels
//!    / feature rows instead of refitting (bit-identical by contract).
//! 4. [`MemoCache::invalidate_members`] evicts exactly the memoized
//!    coalition utilities whose subsets touch a changed row, so importance
//!    estimators never serve a stale score.
//!
//! Each [`DeltaPath`] maps to one kind of downstream work:
//!
//! - **Cell patch**: rows stay in place; the patched rows are re-encoded,
//!   and the evaluator takes their label and feature changes. A fix that
//!   writes the value its cell already holds (a user accepting a label
//!   that was right) stops at the pipeline's source: no affected rows, so
//!   nothing is re-encoded or evicted and the accuracy is read as it is.
//! - **Splice** (an inserted or deleted source row) and **rerun** (a
//!   routing change, such as a join-key or filter-column fix): the
//!   pipeline's monotone row map says where every old output row went.
//!   Surviving encoded rows move through the map, only the rows nothing
//!   maps to are encoded, and the evaluator follows the same map
//!   ([`IncrementalLabelEval::splice`]). The memo cache names rows by
//!   index, so it is emptied.
//!
//! No structural fix re-encodes the whole training set: every path
//! encodes only the rows it changed. A fix that fails after the pipeline
//! state changed (for example one that removes every training row, or a
//! row map the evaluator rejects, or a feature the evaluator refuses as
//! non-finite) poisons the session: the dataset no longer matches the
//! table, so later fixes get [`CleaningError::Poisoned`].
//!
//! Every layer is differentially guaranteed: after any sequence of fixes
//! the session's table, dataset and accuracy are bit-identical to
//! re-executing the plan over the mutated sources and re-encoding with the
//! **already-fitted** encoders (featurization is part of the model spec; a
//! debugging session never refits it per accepted fix).

use crate::{CleaningError, Result};
use nde_data::Table;
use nde_ml::batch::IncrementalLabelEval;
use nde_ml::dataset::Dataset;
use nde_ml::linalg::Matrix;
use nde_ml::model::Classifier;
use nde_pipeline::exec::Executor;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::{Delta, DeltaOutcome, DeltaPath, PipelineSession};
use nde_robust::par::MemoCache;

/// What one accepted fix did to the session.
#[derive(Debug, Clone)]
pub struct FixReport {
    /// The propagation path the pipeline layer took.
    pub path: DeltaPath,
    /// Output rows that were re-encoded (ascending): the patched rows of
    /// a cell patch, or the rows no old row maps to after a splice or a
    /// rerun.
    pub affected_rows: Vec<usize>,
    /// `true` when `affected_rows` covers every row of the (non-empty)
    /// output table, i.e. the fix cost a full re-encode.
    pub reencoded_all: bool,
    /// Memoized coalition utilities evicted by this fix.
    pub cache_evictions: usize,
    /// Validation accuracy after the fix (bit-identical to a full rebuild).
    pub accuracy: f64,
}

/// A live debugging session over a pipeline run: accepted source-level
/// fixes are applied incrementally end to end.
pub struct IncrementalDebugSession<C: Classifier> {
    template: C,
    pipeline: FeaturePipeline,
    session: PipelineSession,
    valid: Dataset,
    dataset: Dataset,
    evaluator: Option<Box<dyn IncrementalLabelEval>>,
    memo: MemoCache,
    fixes_applied: usize,
    full_reencodes: usize,
    rows_reencoded: usize,
    /// Set when a fix failed after the pipeline session committed it.
    poisoned: bool,
}

impl<C: Classifier> IncrementalDebugSession<C> {
    /// Capture the run of `pipeline`'s plan over `inputs` for delta
    /// propagation, fit the encoders on its output (the plan executes
    /// once), and build the model's incremental evaluator against `valid`.
    ///
    /// Models without an [`IncrementalLabelEval`] hook still work — the
    /// accuracy falls back to refitting `template` (the pipeline and cache
    /// layers stay incremental either way).
    pub fn build(
        template: C,
        mut pipeline: FeaturePipeline,
        inputs: &[(&str, &Table)],
        valid: Dataset,
    ) -> Result<IncrementalDebugSession<C>> {
        let session =
            PipelineSession::build(&Executor::new(), &pipeline.plan, pipeline.root, inputs)?;
        let dataset = pipeline.fit(session.table())?;
        let evaluator = template.incremental_eval(&dataset, &valid);
        Ok(IncrementalDebugSession {
            template,
            pipeline,
            session,
            valid,
            dataset,
            evaluator,
            memo: MemoCache::new(),
            fixes_applied: 0,
            full_reencodes: 0,
            rows_reencoded: 0,
            poisoned: false,
        })
    }

    /// Apply one accepted fix end to end and return what it touched.
    ///
    /// A cell fix re-encodes only the affected output rows and patches the
    /// evaluator; a splice or rerun moves the surviving encoded rows
    /// through the pipeline's row map and encodes only the rows nothing
    /// maps to. A fix the pipeline session refuses leaves this session as
    /// it was (a pipeline rerun that fails poisons the pipeline session,
    /// which then refuses every later fix); a fix that fails after the
    /// pipeline committed it poisons this session, and every later fix
    /// returns [`CleaningError::Poisoned`].
    pub fn apply_fix(&mut self, delta: &Delta) -> Result<FixReport> {
        if self.poisoned {
            return Err(CleaningError::Poisoned(
                "an earlier fix failed half-applied; rebuild the session".into(),
            ));
        }
        let applied = self.session.apply(delta)?;
        self.fixes_applied += 1;
        let report = self.follow(applied);
        if report.is_err() {
            self.poisoned = true;
        }
        report
    }

    /// Bring the dataset, evaluator and cache in line with a delta the
    /// pipeline session has already committed.
    fn follow(&mut self, outcome: DeltaOutcome) -> Result<FixReport> {
        let rows = outcome.affected_rows;
        let evictions = match (outcome.path, outcome.row_map) {
            (DeltaPath::CellPatch, _) => self.patch_rows(&rows)?,
            (DeltaPath::Splice | DeltaPath::Rerun, Some(map)) => self.splice_rows(&map, &rows)?,
            (path, None) => {
                return Err(CleaningError::InvalidArgument(format!(
                    "{path:?} outcome carries no row map"
                )))
            }
        };
        let reencoded_all = !rows.is_empty() && rows.len() == self.table().n_rows();
        if reencoded_all {
            self.full_reencodes += 1;
        }
        Ok(FixReport {
            path: outcome.path,
            affected_rows: rows,
            reencoded_all,
            cache_evictions: evictions,
            accuracy: self.accuracy()?,
        })
    }

    /// Re-encode `rows` of the maintained table and push label / feature
    /// changes into the dataset, the evaluator, and the memo cache.
    fn patch_rows(&mut self, rows: &[usize]) -> Result<usize> {
        if rows.is_empty() {
            return Ok(0); // the fix never reached the output
        }
        self.rows_reencoded += rows.len();
        let (x, y) = self.pipeline.encode_rows(self.session.table(), rows)?;
        let mut feature_changed = Vec::new();
        for (j, &r) in rows.iter().enumerate() {
            if self.dataset.y[r] != y[j] {
                self.dataset.y[r] = y[j];
                if let Some(hook) = self.evaluator.as_mut() {
                    hook.set_label(r, y[j])?;
                }
            }
            let fresh = x.row(j);
            let stale = self.dataset.x.row(r);
            if fresh
                .iter()
                .zip(stale)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                self.dataset.x.row_mut(r).copy_from_slice(fresh);
                feature_changed.push(r);
            }
        }
        if !feature_changed.is_empty() {
            if let Some(hook) = self.evaluator.as_mut() {
                hook.update_features(&feature_changed, &self.dataset)?;
            }
        }
        Ok(self.memo.invalidate_members(rows))
    }

    /// Follow a splice or rerun: move the surviving encoded rows through
    /// `row_map` (old output row → new, `None` = gone or changed), encode
    /// only the `inserted` rows, and splice the evaluator the same way.
    /// Surviving rows keep their content (the pipeline's row map is
    /// value-preserving), so the result is bit-identical to a full
    /// re-encode. The memo cache names rows by index, which just moved — it
    /// is emptied. Returns the number of evicted entries.
    fn splice_rows(&mut self, row_map: &[Option<usize>], inserted: &[usize]) -> Result<usize> {
        let table = self.session.table();
        let n = table.n_rows();
        if n == 0 {
            return Err(CleaningError::InvalidArgument(
                "fix removed every training row".into(),
            ));
        }
        self.rows_reencoded += inserted.len();
        let mut x = Matrix::zeros(n, self.dataset.dim());
        let mut y = vec![0; n];
        for (old, &new) in row_map.iter().enumerate() {
            if let Some(new) = new {
                x.row_mut(new).copy_from_slice(self.dataset.x.row(old));
                y[new] = self.dataset.y[old];
            }
        }
        if !inserted.is_empty() {
            let (fresh_x, fresh_y) = self.pipeline.encode_rows(table, inserted)?;
            for (j, &r) in inserted.iter().enumerate() {
                x.row_mut(r).copy_from_slice(fresh_x.row(j));
                y[r] = fresh_y[j];
            }
        }
        self.dataset = Dataset::new(x, y, self.dataset.n_classes)?;
        if let Some(hook) = self.evaluator.as_mut() {
            hook.splice(row_map, &self.dataset)?;
        }
        let evictions = self.memo.len();
        self.memo = MemoCache::new();
        Ok(evictions)
    }

    /// Current validation accuracy — from the incremental evaluator when
    /// the model has one, otherwise by refitting the template.
    pub fn accuracy(&self) -> Result<f64> {
        match self.evaluator.as_ref() {
            Some(hook) => Ok(hook.accuracy()),
            None => {
                let mut model = self.template.clone();
                model.fit(&self.dataset)?;
                Ok(model.accuracy(&self.valid))
            }
        }
    }

    /// The maintained encoded training dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The maintained relational output table.
    pub fn table(&self) -> &Table {
        self.session.table()
    }

    /// The underlying pipeline session (lineage, source tables, stats).
    pub fn session(&self) -> &PipelineSession {
        &self.session
    }

    /// The memoized coalition-utility cache importance estimators should
    /// share; accepted fixes evict exactly the entries they stale.
    pub fn memo(&self) -> &MemoCache {
        &self.memo
    }

    /// `(fixes applied, full re-encodes, rows re-encoded)` — the work
    /// accounting E16 reports. A full re-encode is a fix whose report has
    /// `reencoded_all` set.
    pub fn stats(&self) -> (usize, usize, usize) {
        (self.fixes_applied, self.full_reencodes, self.rows_reencoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::hiring::HiringScenario;
    use nde_data::Value;
    use nde_importance::coalition_utility;
    use nde_ml::models::knn::KnnClassifier;

    fn inputs(s: &HiringScenario) -> Vec<(&str, &Table)> {
        vec![
            ("train_df", &s.letters),
            ("jobdetail_df", &s.job_details),
            ("social_df", &s.social),
        ]
    }

    fn valid_set(seed: u64) -> Dataset {
        // A clean hiring sample pushed through a freshly fitted pipeline
        // serves as the validation set for the session under test.
        let s = HiringScenario::generate(60, seed);
        let mut fp = FeaturePipeline::hiring(8);
        fp.fit_run(&inputs(&s), false).unwrap().dataset
    }

    /// A pipeline fitted on the original (pre-fix) sources, for ground truth.
    fn truth_pipeline(s: &HiringScenario) -> FeaturePipeline {
        let mut fp = FeaturePipeline::hiring(8);
        fp.fit_run(&inputs(s), false).unwrap();
        fp
    }

    /// The ground truth: re-execute the plan over the mutated sources and
    /// re-encode with the **originally fitted** encoders — exactly what the
    /// session maintains incrementally (featurization is part of the model
    /// spec and does not refit per accepted fix).
    fn fresh_accuracy(
        template: &KnnClassifier,
        fp: &FeaturePipeline,
        sources: &[(&str, &Table)],
        valid: &Dataset,
    ) -> (f64, Dataset) {
        let out = fp.transform_run(sources, false).unwrap();
        let mut model = template.clone();
        model.fit(&out.dataset).unwrap();
        (model.accuracy(valid), out.dataset)
    }

    fn assert_dataset_bits_eq(a: &Dataset, b: &Dataset) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.y, b.y);
        for i in 0..a.len() {
            for (p, q) in a.x.row(i).iter().zip(b.x.row(i)) {
                assert_eq!(p.to_bits(), q.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn label_fix_patches_in_place_and_matches_full_rebuild() {
        let mut s = HiringScenario::generate(90, 11);
        let knn = KnnClassifier::new(3);
        let valid = valid_set(12);
        let truth = truth_pipeline(&s);
        let mut session = IncrementalDebugSession::build(
            knn.clone(),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid.clone(),
        )
        .unwrap();
        // Flip the sentiment of a letter that survives the pipeline filter:
        // output row 0's person_id names its letters row.
        let out_row0 = 0usize;
        let pid = session.table().get(out_row0, "person_id").unwrap();
        let src_row = (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap();
        let old = s.letters.get(src_row, "sentiment").unwrap();
        let flipped = if old.as_str().unwrap() == "positive" {
            "negative"
        } else {
            "positive"
        };
        let fix = Delta::Update {
            source: "train_df".into(),
            row: src_row,
            column: "sentiment".into(),
            value: Value::Str(flipped.into()),
        };
        let report = session.apply_fix(&fix).unwrap();
        assert_eq!(report.path, DeltaPath::CellPatch);
        assert!(!report.reencoded_all);
        assert!(report.affected_rows.contains(&out_row0));

        s.letters
            .set(src_row, "sentiment", Value::Str(flipped.into()))
            .unwrap();
        let (want, want_ds) = fresh_accuracy(&knn, &truth, &inputs(&s), &valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits());
        assert_dataset_bits_eq(session.dataset(), &want_ds);
        let _ = session.session().lineage(); // lineage stays materializable
    }

    #[test]
    fn feature_fix_and_structural_fix_match_full_rebuild() {
        let mut s = HiringScenario::generate(80, 21);
        let knn = KnnClassifier::new(3);
        let valid = valid_set(22);
        let truth = truth_pipeline(&s);
        let mut session = IncrementalDebugSession::build(
            knn.clone(),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid.clone(),
        )
        .unwrap();

        // A numeric feature fix: a letter's years_experience outlier.
        let fix = Delta::Update {
            source: "train_df".into(),
            row: 3,
            column: "years_experience".into(),
            value: Value::Float(40.0),
        };
        let report = session.apply_fix(&fix).unwrap();
        s.letters
            .set(3, "years_experience", Value::Float(40.0))
            .unwrap();
        let (want, want_ds) = fresh_accuracy(&knn, &truth, &inputs(&s), &valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits());
        assert_dataset_bits_eq(session.dataset(), &want_ds);

        // A structural fix: delete a letter outright. The splice remaps
        // the surviving rows and re-encodes nothing.
        let (_, _, rows_before) = session.stats();
        let report = session
            .apply_fix(&Delta::Delete {
                source: "train_df".into(),
                row: 5,
            })
            .unwrap();
        assert_eq!(report.path, DeltaPath::Splice);
        assert!(!report.reencoded_all);
        assert!(report.affected_rows.is_empty());
        s.letters = s
            .letters
            .take(
                &(0..s.letters.n_rows())
                    .filter(|&r| r != 5)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let (want, want_ds) = fresh_accuracy(&knn, &truth, &inputs(&s), &valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits());
        assert_dataset_bits_eq(session.dataset(), &want_ds);
        let (fixes, full, rows) = session.stats();
        assert_eq!(fixes, 2);
        assert_eq!(full, 0, "a splice is not a full re-encode");
        assert_eq!(rows, rows_before);

        // Insert a copy of a letter that reaches the output exactly once:
        // the splice encodes that one inserted row and nothing else.
        let table = session.table();
        let pids: Vec<Value> = (0..table.n_rows())
            .map(|r| table.get(r, "person_id").unwrap())
            .collect();
        let pid = pids
            .iter()
            .find(|p| pids.iter().filter(|q| q == p).count() == 1)
            .unwrap()
            .clone();
        let src_row = (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap();
        let values = s.letters.row(src_row).unwrap();
        let report = session
            .apply_fix(&Delta::Insert {
                source: "train_df".into(),
                values: values.clone(),
            })
            .unwrap();
        assert_eq!(report.path, DeltaPath::Splice);
        assert!(!report.reencoded_all);
        assert_eq!(report.affected_rows.len(), 1);
        s.letters.push_row(values).unwrap();
        let (want, want_ds) = fresh_accuracy(&knn, &truth, &inputs(&s), &valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits());
        assert_dataset_bits_eq(session.dataset(), &want_ds);
        let (fixes, full, rows) = session.stats();
        assert_eq!(fixes, 3);
        assert_eq!(full, 0);
        assert_eq!(rows, rows_before + 1, "exactly one row re-encoded");
    }

    #[test]
    fn rerun_fix_follows_the_row_map_and_matches_full_rebuild() {
        let mut s = HiringScenario::generate(90, 41);
        let knn = KnnClassifier::new(3);
        let valid = valid_set(42);
        let truth = truth_pipeline(&s);
        let mut session = IncrementalDebugSession::build(
            knn.clone(),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid.clone(),
        )
        .unwrap();
        // Moving a healthcare job out of the filter is a routing change.
        let job = (0..s.job_details.n_rows())
            .find(|&r| s.job_details.get(r, "sector").unwrap() == Value::Str("healthcare".into()))
            .unwrap();
        for sector in ["tech", "healthcare"] {
            let report = session
                .apply_fix(&Delta::Update {
                    source: "jobdetail_df".into(),
                    row: job,
                    column: "sector".into(),
                    value: Value::Str(sector.into()),
                })
                .unwrap();
            assert_eq!(report.path, DeltaPath::Rerun);
            assert!(!report.reencoded_all);
            assert!(report.affected_rows.len() < session.table().n_rows());
            s.job_details
                .set(job, "sector", Value::Str(sector.into()))
                .unwrap();
            let (want, want_ds) = fresh_accuracy(&knn, &truth, &inputs(&s), &valid);
            assert_eq!(report.accuracy.to_bits(), want.to_bits());
            assert_dataset_bits_eq(session.dataset(), &want_ds);
        }
        let (fixes, full, _) = session.stats();
        assert_eq!((fixes, full), (2, 0), "no rerun re-encodes everything");
    }

    #[test]
    fn a_fix_that_fails_half_applied_poisons_the_session() {
        let s = HiringScenario::generate(40, 43);
        let mut session = IncrementalDebugSession::build(
            KnnClassifier::new(3),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid_set(44),
        )
        .unwrap();
        // Rejected up front: the session stays usable.
        let oob = Delta::Delete {
            source: "train_df".into(),
            row: 10_000,
        };
        assert!(matches!(
            session.apply_fix(&oob),
            Err(CleaningError::Pipeline(_))
        ));
        // Delete letters until the pipeline output is empty: that fix fails
        // after the pipeline committed it.
        let err = loop {
            match session.apply_fix(&Delta::Delete {
                source: "train_df".into(),
                row: 0,
            }) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, CleaningError::InvalidArgument(_)), "{err}");
        assert_eq!(session.table().n_rows(), 0);
        let err = session
            .apply_fix(&Delta::Insert {
                source: "train_df".into(),
                values: s.letters.row(0).unwrap(),
            })
            .unwrap_err();
        assert!(matches!(err, CleaningError::Poisoned(_)), "{err}");
    }

    #[test]
    fn a_non_finite_feature_fix_is_a_typed_error_that_poisons_the_session() {
        let s = HiringScenario::generate(60, 47);
        let mut session = IncrementalDebugSession::build(
            KnnClassifier::new(3),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid_set(48),
        )
        .unwrap();
        // A letter that reaches the model: its encoded features turn NaN.
        let pid = session.table().get(0, "person_id").unwrap();
        let row = (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap();
        let nan = Delta::Update {
            source: "train_df".into(),
            row,
            column: "years_experience".into(),
            value: Value::Float(f64::NAN),
        };
        let err = session.apply_fix(&nan).unwrap_err();
        assert!(
            matches!(&err, CleaningError::Ml(msg) if msg.contains("non-finite")),
            "{err}"
        );
        // The pipeline committed the NaN, so the dataset no longer matches
        // the table: every later fix is refused.
        let err = session
            .apply_fix(&Delta::Update {
                source: "train_df".into(),
                row,
                column: "years_experience".into(),
                value: Value::Float(3.0),
            })
            .unwrap_err();
        assert!(matches!(err, CleaningError::Poisoned(_)), "{err}");
    }

    #[test]
    fn memo_cache_serves_only_fresh_utilities_across_fixes() {
        let s = HiringScenario::generate(70, 31);
        let knn = KnnClassifier::new(3);
        let valid = valid_set(32);
        let mut session = IncrementalDebugSession::build(
            knn.clone(),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid.clone(),
        )
        .unwrap();

        // Memoize two coalitions: one touching output row 0, one not.
        let n = session.dataset().len();
        let with_zero: Vec<usize> = (0..n.min(6)).collect();
        let without_zero: Vec<usize> = (1..n.min(7)).collect();
        for coal in [&with_zero, &without_zero] {
            coalition_utility(&knn, session.dataset(), &valid, coal, Some(session.memo())).unwrap();
        }
        assert_eq!(session.memo().len(), 2);

        // Fix whose cell patch touches output row 0 (its letter's sentiment).
        let pid = session.table().get(0, "person_id").unwrap();
        let src_row = (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap();
        let old = s.letters.get(src_row, "sentiment").unwrap();
        let flipped = if old.as_str().unwrap() == "positive" {
            "negative"
        } else {
            "positive"
        };
        let report = session
            .apply_fix(&Delta::Update {
                source: "train_df".into(),
                row: src_row,
                column: "sentiment".into(),
                value: Value::Str(flipped.into()),
            })
            .unwrap();
        assert!(report.affected_rows.contains(&0));
        assert!(report.cache_evictions >= 1, "{report:?}");

        // Whatever survived must still be bit-correct: recompute every
        // memoized coalition from scratch and compare.
        for coal in [&with_zero, &without_zero] {
            let cached =
                coalition_utility(&knn, session.dataset(), &valid, coal, Some(session.memo()))
                    .unwrap();
            let fresh = coalition_utility(&knn, session.dataset(), &valid, coal, None).unwrap();
            assert_eq!(cached.to_bits(), fresh.to_bits());
        }
    }
}
