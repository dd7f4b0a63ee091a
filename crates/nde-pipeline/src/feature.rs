//! End-to-end feature pipelines: relational plan + feature encoding + labels.
//!
//! This is the unit the tutorial calls "the ML pipeline" (Fig. 3): raw source
//! tables go in, an encoded [`Dataset`] (plus row provenance back to the
//! sources) comes out.

use crate::exec::Executor;
use crate::plan::{NodeId, Plan};
use crate::provenance::Lineage;
use crate::{PipelineError, Result};
use nde_data::Table;
use nde_ml::dataset::{Dataset, LabelEncoder};
use nde_ml::encode::{ColumnEncoder, EncoderSpec, TableEncoder};

/// A relational plan plus the feature/label encoding applied to its output.
#[derive(Debug, Clone)]
pub struct FeaturePipeline {
    /// The relational plan.
    pub plan: Plan,
    /// Root node whose output feeds the encoder.
    pub root: NodeId,
    /// Feature encoder (fit on the training run).
    pub encoder: TableEncoder,
    /// Name of the label column in the plan output.
    pub label_column: String,
    label_encoder: Option<LabelEncoder>,
}

/// Output of running a [`FeaturePipeline`].
#[derive(Debug, Clone)]
pub struct FeatureOutput {
    /// Encoded dataset (features + integer labels).
    pub dataset: Dataset,
    /// The materialized relational output the features were encoded from.
    pub table: Table,
    /// Row provenance back to the pipeline's source tables, if tracked.
    /// Encoding is row-wise 1:1, so dataset row `i` has `lineage.rows[i]`.
    pub lineage: Option<Lineage>,
}

impl FeaturePipeline {
    /// Create a pipeline from parts.
    pub fn new(
        plan: Plan,
        root: NodeId,
        encoder: TableEncoder,
        label_column: impl Into<String>,
    ) -> FeaturePipeline {
        FeaturePipeline {
            plan,
            root,
            encoder,
            label_column: label_column.into(),
            label_encoder: None,
        }
    }

    /// The tutorial's hiring pipeline (Fig. 3): joins + filter + projection,
    /// then text hashing, one-hot degree, scaled numeric features and the
    /// derived `has_twitter` flag.
    pub fn hiring(text_dims: usize) -> FeaturePipeline {
        let (plan, root) = Plan::hiring_pipeline();
        let encoder = TableEncoder::new(vec![
            EncoderSpec::new("letter_text", ColumnEncoder::TextHash { dims: text_dims }),
            EncoderSpec::new("degree", ColumnEncoder::OneHot { fill: None }),
            EncoderSpec::new(
                "employer_rating",
                ColumnEncoder::Numeric {
                    impute: nde_ml::encode::NumericImputation::Mean,
                    scale: true,
                },
            ),
            EncoderSpec::new(
                "years_experience",
                ColumnEncoder::Numeric {
                    impute: nde_ml::encode::NumericImputation::Mean,
                    scale: true,
                },
            ),
            EncoderSpec::new("has_twitter", ColumnEncoder::Bool),
        ]);
        FeaturePipeline::new(plan, root, encoder, "sentiment")
    }

    /// The fitted label encoder (available after [`Self::fit_run`]).
    pub fn label_encoder(&self) -> Result<&LabelEncoder> {
        self.label_encoder
            .as_ref()
            .ok_or_else(|| PipelineError::InvalidPlan("pipeline not fitted yet".into()))
    }

    /// Run the plan, **fit** the feature and label encoders on its output,
    /// and return the encoded training dataset.
    pub fn fit_run(
        &mut self,
        inputs: &[(&str, &Table)],
        track_provenance: bool,
    ) -> Result<FeatureOutput> {
        let out = Executor::new()
            .with_provenance(track_provenance)
            .run(&self.plan, self.root, inputs)?;
        Ok(FeatureOutput {
            dataset: self.fit(&out.table)?,
            table: out.table,
            lineage: out.provenance,
        })
    }

    /// **Fit** the feature and label encoders on an already executed plan
    /// output and return it encoded — [`Self::fit_run`] without the run,
    /// for callers that hold the output table already.
    pub fn fit(&mut self, table: &Table) -> Result<Dataset> {
        if table.n_rows() == 0 {
            return Err(PipelineError::InvalidPlan(
                "pipeline produced zero training rows".into(),
            ));
        }
        let label_encoder = LabelEncoder::fit(table, &self.label_column)?;
        let x = self.encoder.fit_transform(table)?;
        let y = label_encoder.encode_column(table, &self.label_column)?;
        let n_classes = label_encoder.n_classes();
        self.label_encoder = Some(label_encoder);
        Ok(Dataset::new(x, y, n_classes)?)
    }

    /// Encode only the given rows of a plan-output table with the **already
    /// fitted** encoders. Result row `j` holds the features and label of
    /// `table` row `rows[j]`.
    ///
    /// All fitted encoders are row-wise at transform time (stored means,
    /// scales, categories, hash dims), so the result is bit-identical to
    /// the corresponding rows of a full-table transform — this is what lets
    /// incremental maintenance re-encode just the rows a fix touched.
    pub fn encode_rows(
        &self,
        table: &Table,
        rows: &[usize],
    ) -> Result<(nde_ml::linalg::Matrix, Vec<usize>)> {
        let label_encoder = self.label_encoder()?;
        let sub = table.take(rows)?;
        let x = self.encoder.transform(&sub)?;
        let y = label_encoder.encode_column(&sub, &self.label_column)?;
        Ok((x, y))
    }

    /// Run the plan over (different) inputs and encode with the **already
    /// fitted** encoders — e.g. for validation or test source tables.
    pub fn transform_run(
        &self,
        inputs: &[(&str, &Table)],
        track_provenance: bool,
    ) -> Result<FeatureOutput> {
        let label_encoder = self.label_encoder()?;
        let out = Executor::new()
            .with_provenance(track_provenance)
            .run(&self.plan, self.root, inputs)?;
        let x = self.encoder.transform(&out.table)?;
        let y = label_encoder.encode_column(&out.table, &self.label_column)?;
        Ok(FeatureOutput {
            dataset: Dataset::new(x, y, label_encoder.n_classes())?,
            table: out.table,
            lineage: out.provenance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::hiring::HiringScenario;

    fn inputs(s: &HiringScenario) -> Vec<(&str, &Table)> {
        vec![
            ("train_df", &s.letters),
            ("jobdetail_df", &s.job_details),
            ("social_df", &s.social),
        ]
    }

    #[test]
    fn fit_run_produces_dataset_with_lineage() {
        let s = HiringScenario::generate(120, 3);
        let mut fp = FeaturePipeline::hiring(16);
        let out = fp.fit_run(&inputs(&s), true).unwrap();
        assert!(!out.dataset.is_empty());
        assert_eq!(out.dataset.len(), out.table.n_rows());
        // 16 text + 3 degree + 2 numeric + 1 bool.
        assert_eq!(out.dataset.dim(), 22);
        assert_eq!(out.dataset.n_classes, 2);
        let lineage = out.lineage.unwrap();
        assert_eq!(lineage.rows.len(), out.dataset.len());
    }

    #[test]
    fn transform_run_requires_fit_and_reuses_encoders() {
        let train = HiringScenario::generate(120, 4);
        let valid = HiringScenario::generate(40, 5);
        let mut fp = FeaturePipeline::hiring(8);
        assert!(fp.transform_run(&inputs(&valid), false).is_err());
        let train_out = fp.fit_run(&inputs(&train), false).unwrap();
        let valid_out = fp.transform_run(&inputs(&valid), false).unwrap();
        assert_eq!(train_out.dataset.dim(), valid_out.dataset.dim());
        assert_eq!(valid_out.dataset.n_classes, 2);
        assert!(fp.label_encoder().is_ok());
    }

    #[test]
    fn encode_rows_matches_full_transform_bitwise() {
        let s = HiringScenario::generate(90, 8);
        let mut fp = FeaturePipeline::hiring(8);
        let out = fp.fit_run(&inputs(&s), false).unwrap();
        let rows = [0usize, 3, 7, out.table.n_rows() - 1];
        let (x, y) = fp.encode_rows(&out.table, &rows).unwrap();
        assert_eq!(x.rows(), rows.len());
        for (j, &r) in rows.iter().enumerate() {
            assert_eq!(y[j], out.dataset.y[r]);
            for (a, b) in x.row(j).iter().zip(out.dataset.x.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
            }
        }
        // Unfitted pipeline refuses.
        assert!(FeaturePipeline::hiring(8)
            .encode_rows(&out.table, &rows)
            .is_err());
    }

    #[test]
    fn labels_decode_to_sentiments() {
        let s = HiringScenario::generate(60, 6);
        let mut fp = FeaturePipeline::hiring(8);
        let out = fp.fit_run(&inputs(&s), false).unwrap();
        let enc = fp.label_encoder().unwrap();
        for (row, &y) in out.dataset.y.iter().enumerate() {
            let decoded = enc.decode(y).unwrap();
            let raw = out.table.get(row, "sentiment").unwrap();
            assert_eq!(raw.as_str().unwrap(), decoded);
        }
    }

    #[test]
    fn empty_output_rejected() {
        // A scenario where no job is healthcare ⇒ the filter drops everything.
        let mut s = HiringScenario::generate(30, 7);
        for row in 0..s.job_details.n_rows() {
            s.job_details
                .set(row, "sector", nde_data::Value::Str("tech".into()))
                .unwrap();
        }
        let mut fp = FeaturePipeline::hiring(8);
        assert!(fp.fit_run(&inputs(&s), false).is_err());
    }
}
