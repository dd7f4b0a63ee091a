//! The tutorial's Python-snippet API, in Rust.
//!
//! Each function mirrors a call from the hands-on notebooks (Figs. 2–4):
//! `inject_labelerrors`, `evaluate_model`, `knn_shapley_values`,
//! `pretty_print`, `show_query_plan`, `with_provenance`, `encode_symbolic`,
//! `estimate_with_zorro`.

use crate::Result;
use nde_data::generate::hiring::LABEL_COLUMN;
use nde_data::inject::{flip_labels, InjectionReport, Missingness};
use nde_data::Table;
use nde_importance::{knn_shapley, ImportanceRun};
use nde_ml::dataset::{Dataset, LabelEncoder};
use nde_ml::encode::TableEncoder;
use nde_ml::linalg::Matrix;
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::feature::{FeatureOutput, FeaturePipeline};
use nde_pipeline::plan::Plan;
use nde_pipeline::render::render_plan;
use nde_uncertain::symbolic::SymbolicMatrix;
use nde_uncertain::zorro::{ZorroConfig, ZorroRegressor};
use nde_uncertain::Interval;

/// Default hash-embedding width for letter text.
pub const TEXT_DIMS: usize = 64;
/// Default KNN neighborhood used by `evaluate_model` / `knn_shapley_values`.
pub const KNN_K: usize = 5;

/// `nde.inject_labelerrors(train_df, fraction)` — flip a fraction of the
/// sentiment labels, returning the ground-truth report.
pub fn inject_label_errors(table: &mut Table, fraction: f64, seed: u64) -> Result<InjectionReport> {
    Ok(flip_labels(table, LABEL_COLUMN, fraction, seed)?)
}

/// Fitted letters featurization: the Fig. 2 single-table encoder (text hash,
/// one-hot degree, scaled numerics) plus the label encoder.
#[derive(Debug, Clone)]
pub struct LettersEncoding {
    encoder: TableEncoder,
    labels: LabelEncoder,
}

impl LettersEncoding {
    /// Fit on a training letters table.
    pub fn fit(train: &Table) -> Result<LettersEncoding> {
        let mut encoder = TableEncoder::for_letters(TEXT_DIMS);
        encoder.fit(train)?;
        let labels = LabelEncoder::fit(train, LABEL_COLUMN)?;
        Ok(LettersEncoding { encoder, labels })
    }

    /// Encode any conformant letters table into a dataset.
    pub fn dataset(&self, table: &Table) -> Result<Dataset> {
        let x = self.encoder.transform(table)?;
        let y = self.labels.encode_column(table, LABEL_COLUMN)?;
        Ok(Dataset::new(x, y, self.labels.n_classes())?)
    }

    /// The fitted label encoder.
    pub fn labels(&self) -> &LabelEncoder {
        &self.labels
    }
}

/// `nde.evaluate_model(train_df)` — encode, train the reference KNN
/// classifier, and return validation accuracy.
pub fn evaluate_model(train: &Table, valid: &Table) -> Result<f64> {
    let enc = LettersEncoding::fit(train)?;
    let train_ds = enc.dataset(train)?;
    let valid_ds = enc.dataset(valid)?;
    let mut model = KnnClassifier::new(KNN_K);
    model.fit(&train_ds)?;
    Ok(model.accuracy(&valid_ds))
}

/// `nde.knn_shapley_values(train_df, validation=valid_df)` — per-tuple
/// importance of the training letters.
pub fn knn_shapley_values(train: &Table, valid: &Table) -> Result<Vec<f64>> {
    let enc = LettersEncoding::fit(train)?;
    let train_ds = enc.dataset(train)?;
    let valid_ds = enc.dataset(valid)?;
    Ok(
        knn_shapley(&ImportanceRun::new(0), &train_ds, &valid_ds, KNN_K)?
            .scores
            .values,
    )
}

/// `nde.pretty_print(df)` — render the first rows of a table.
pub fn pretty_print(table: &Table, limit: usize) -> String {
    table.pretty(limit)
}

/// `nde.show_query_plan(pipeline)` — ASCII rendering of the Fig. 3 plan.
pub fn show_query_plan() -> String {
    let (plan, root) = Plan::hiring_pipeline();
    render_plan(&plan, root).expect("static plan renders")
}

/// `nde.with_provenance(pipeline(...))` — run the Fig. 3 hiring pipeline
/// with provenance tracking, fitting its encoders on this (training) run.
pub fn with_provenance(
    pipeline: &mut FeaturePipeline,
    inputs: &[(&str, &Table)],
) -> Result<FeatureOutput> {
    Ok(pipeline.fit_run(inputs, true)?)
}

/// The numeric feature columns used by the Fig. 4 symbolic scenario.
pub const SYMBOLIC_FEATURES: [&str; 2] = ["employer_rating", "years_experience"];

/// Output of [`encode_symbolic`]: symbolic features, ±1 targets, and the
/// standardization statistics needed to encode test data consistently.
#[derive(Debug, Clone)]
pub struct SymbolicEncoding {
    /// Symbolic (interval) training features, standardized.
    pub x: SymbolicMatrix,
    /// Regression targets: sentiment as ±1.
    pub y: Vec<f64>,
    /// Ground-truth rows whose `uncertain_feature` was made missing.
    pub missing_rows: Vec<usize>,
    /// Per-feature `(mean, sd)` used for standardization.
    pub feature_stats: Vec<(f64, f64)>,
}

impl SymbolicEncoding {
    /// Encode a test letters table with the *training* statistics: features
    /// standardized the same way (nulls mean-imputed), targets as ±1.
    pub fn encode_test(&self, table: &Table) -> Result<(Matrix, Vec<f64>)> {
        let n = table.n_rows();
        let mut m = Matrix::zeros(n, SYMBOLIC_FEATURES.len());
        for (c, col_name) in SYMBOLIC_FEATURES.iter().enumerate() {
            let (mean, sd) = self.feature_stats[c];
            let values = table.column(col_name)?.to_f64_vec();
            for (r, v) in values.iter().enumerate() {
                let raw = v.unwrap_or(mean);
                m.set(r, c, if sd > 1e-12 { (raw - mean) / sd } else { 0.0 });
            }
        }
        let y = sentiment_targets(table)?;
        Ok((m, y))
    }
}

/// `nde.encode_symbolic(train_df, uncertain_feature=..., missing_percentage=...,
/// missingness="MNAR")` — standardize the numeric features, inject synthetic
/// missingness into `uncertain_feature` under the given mechanism, and turn
/// the missing cells into domain intervals.
pub fn encode_symbolic(
    train: &Table,
    uncertain_feature: &str,
    missing_percentage: f64,
    mechanism: Missingness,
    seed: u64,
) -> Result<SymbolicEncoding> {
    let feature_col = SYMBOLIC_FEATURES
        .iter()
        .position(|f| *f == uncertain_feature)
        .ok_or_else(|| {
            crate::NdeError::InvalidArgument(format!(
                "uncertain feature must be one of {SYMBOLIC_FEATURES:?}, got `{uncertain_feature}`"
            ))
        })?;

    // Determine which rows lose the value, honoring the mechanism, by
    // running the standard injector on a scratch copy.
    let mut scratch = train.clone();
    let report = nde_data::inject::inject_missing(
        &mut scratch,
        uncertain_feature,
        missing_percentage / if missing_percentage > 1.0 { 100.0 } else { 1.0 },
        mechanism,
        seed,
    )?;

    // Standardize features over the *observed* training values.
    let mut stats = Vec::with_capacity(SYMBOLIC_FEATURES.len());
    let mut columns = Vec::with_capacity(SYMBOLIC_FEATURES.len());
    for col_name in SYMBOLIC_FEATURES {
        let values = train.column(col_name)?.to_f64_vec();
        let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
        let mean = present.iter().sum::<f64>() / present.len().max(1) as f64;
        let var = present.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
            / present.len().max(1) as f64;
        let sd = var.sqrt();
        stats.push((mean, sd));
        columns.push(values);
    }

    // Domain interval of a missing cell: the observed min..max of its
    // column, folded once.
    let observed = || columns[feature_col].iter().flatten();
    let lo = observed().fold(f64::INFINITY, |a, &b| a.min(b));
    let hi = observed().fold(f64::NEG_INFINITY, |a, &b| a.max(b));

    let n = train.n_rows();
    let mut missing = vec![false; n];
    for &r in &report.affected {
        missing[r] = true;
    }
    let mut rows = Vec::with_capacity(n);
    for (r, &is_missing) in missing.iter().enumerate() {
        let mut row = Vec::with_capacity(SYMBOLIC_FEATURES.len());
        for (c, values) in columns.iter().enumerate() {
            let (mean, sd) = stats[c];
            let z = |raw: f64| if sd > 1e-12 { (raw - mean) / sd } else { 0.0 };
            let cell = if c == feature_col && is_missing {
                Interval::new(z(lo), z(hi))
            } else {
                Interval::point(z(values[r].unwrap_or(mean)))
            };
            row.push(cell);
        }
        rows.push(row);
    }

    Ok(SymbolicEncoding {
        x: SymbolicMatrix::from_rows(rows)?,
        y: sentiment_targets(train)?,
        missing_rows: report.affected,
        feature_stats: stats,
    })
}

/// The gradient-descent configuration used by the Fig. 4 scenario.
///
/// Interval GD compounds uncertainty multiplicatively per step, so on the
/// letters data (feature domains spanning several standard deviations) we
/// keep the step count and learning rate small; the bound stays sound —
/// just tighter-is-better, and fewer steps keep it finite.
pub fn zorro_config() -> ZorroConfig {
    ZorroConfig {
        epochs: 20,
        learning_rate: 0.05,
        l2: 1e-3,
        divergence_threshold: 1e9,
        threads: 1,
        pool: None,
    }
}

/// `nde.estimate_with_zorro(X_train_symb, test_df)` — train the symbolic
/// linear model and return the **maximum worst-case loss** on the test set.
pub fn estimate_with_zorro(encoding: &SymbolicEncoding, test: &Table) -> Result<f64> {
    let mut zorro = ZorroRegressor::new(zorro_config());
    zorro.fit(&encoding.x, &encoding.y)?;
    let (tx, ty) = encoding.encode_test(test)?;
    Ok(zorro.max_worst_case_loss(&tx, &ty)?)
}

/// Sentiment as a ±1 regression target.
fn sentiment_targets(table: &Table) -> Result<Vec<f64>> {
    let mut y = Vec::with_capacity(table.n_rows());
    for r in 0..table.n_rows() {
        let v = table.get(r, LABEL_COLUMN)?;
        let s = v
            .as_str()
            .ok_or_else(|| crate::NdeError::InvalidArgument(format!("null label at row {r}")))?;
        y.push(if s == "positive" { 1.0 } else { -1.0 });
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::load_recommendation_letters;

    #[test]
    fn evaluate_model_learns_sentiment() {
        let s = load_recommendation_letters(300, 11);
        let acc = evaluate_model(&s.train, &s.valid).unwrap();
        assert!(acc > 0.7, "clean accuracy only {acc}");
    }

    #[test]
    fn label_errors_hurt_and_shapley_finds_them() {
        let s = load_recommendation_letters(300, 12);
        let clean_acc = evaluate_model(&s.train, &s.valid).unwrap();
        let mut dirty = s.train.clone();
        let report = inject_label_errors(&mut dirty, 0.2, 13).unwrap();
        let dirty_acc = evaluate_model(&dirty, &s.valid).unwrap();
        assert!(dirty_acc < clean_acc, "{dirty_acc} !< {clean_acc}");

        let values = knn_shapley_values(&dirty, &s.valid).unwrap();
        assert_eq!(values.len(), dirty.n_rows());
        // Bottom-k should be enriched with injected errors.
        let scores = nde_importance::ImportanceScores::new("t", values);
        let hit = nde_importance::detection_precision_at_k(
            &scores,
            &report.affected,
            report.affected.len(),
        );
        assert!(hit > 0.4, "precision@k only {hit}");
    }

    #[test]
    fn pretty_print_and_query_plan() {
        let s = load_recommendation_letters(20, 14);
        let text = pretty_print(&s.train, 3);
        assert!(text.contains("letter_text"));
        let plan = show_query_plan();
        assert!(plan.contains("Join"));
        assert!(plan.contains("Source social_df"));
    }

    #[test]
    fn with_provenance_produces_lineage() {
        let s = load_recommendation_letters(200, 15);
        let mut fp = FeaturePipeline::hiring(16);
        let out = with_provenance(&mut fp, &s.pipeline_inputs(&s.train)).unwrap();
        assert!(out.lineage.is_some());
        assert!(!out.dataset.is_empty());
    }

    #[test]
    fn symbolic_encoding_and_zorro_bound() {
        let s = load_recommendation_letters(200, 16);
        let enc = encode_symbolic(
            &s.train,
            "employer_rating",
            0.10,
            Missingness::Mnar { skew: 4.0 },
            17,
        )
        .unwrap();
        assert_eq!(enc.x.len(), s.train.n_rows());
        assert_eq!(
            enc.missing_rows.len(),
            (s.train.n_rows() as f64 * 0.10).round() as usize
        );
        let bound = estimate_with_zorro(&enc, &s.test).unwrap();
        assert!(bound.is_finite() && bound >= 0.0);

        // More missingness ⇒ larger (or equal) worst-case bound.
        let enc25 = encode_symbolic(
            &s.train,
            "employer_rating",
            0.25,
            Missingness::Mnar { skew: 4.0 },
            17,
        )
        .unwrap();
        let bound25 = estimate_with_zorro(&enc25, &s.test).unwrap();
        assert!(bound25 >= bound - 1e-9, "{bound25} < {bound}");
    }

    #[test]
    fn percentage_convention_accepts_both_forms() {
        let s = load_recommendation_letters(100, 18);
        let frac = encode_symbolic(&s.train, "employer_rating", 0.2, Missingness::Mcar, 1).unwrap();
        let pct = encode_symbolic(&s.train, "employer_rating", 20.0, Missingness::Mcar, 1).unwrap();
        assert_eq!(frac.missing_rows, pct.missing_rows);
    }

    /// The per-row fold `encode_symbolic` used before it hoisted the
    /// domain: every missing cell re-folds its whole column for min and
    /// max. Kept as the differential reference.
    fn encode_symbolic_reference(
        train: &Table,
        uncertain_feature: &str,
        missing_percentage: f64,
        mechanism: Missingness,
        seed: u64,
    ) -> Result<SymbolicEncoding> {
        let feature_col = SYMBOLIC_FEATURES
            .iter()
            .position(|f| *f == uncertain_feature)
            .expect("a symbolic feature");
        let mut scratch = train.clone();
        let report = nde_data::inject::inject_missing(
            &mut scratch,
            uncertain_feature,
            missing_percentage / if missing_percentage > 1.0 { 100.0 } else { 1.0 },
            mechanism,
            seed,
        )?;
        let mut stats = Vec::new();
        let mut columns = Vec::new();
        for col_name in SYMBOLIC_FEATURES {
            let values = train.column(col_name)?.to_f64_vec();
            let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
            let mean = present.iter().sum::<f64>() / present.len().max(1) as f64;
            let var = present.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                / present.len().max(1) as f64;
            stats.push((mean, var.sqrt()));
            columns.push(values);
        }
        let missing_set: std::collections::HashSet<usize> =
            report.affected.iter().copied().collect();
        let mut rows = Vec::new();
        for r in 0..train.n_rows() {
            let mut row = Vec::new();
            for (c, values) in columns.iter().enumerate() {
                let (mean, sd) = stats[c];
                let z = |raw: f64| if sd > 1e-12 { (raw - mean) / sd } else { 0.0 };
                let cell = if c == feature_col && missing_set.contains(&r) {
                    let lo = columns[c]
                        .iter()
                        .flatten()
                        .fold(f64::INFINITY, |a, &b| a.min(b));
                    let hi = columns[c]
                        .iter()
                        .flatten()
                        .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                    Interval::new(z(lo), z(hi))
                } else {
                    Interval::point(z(values[r].unwrap_or(mean)))
                };
                row.push(cell);
            }
            rows.push(row);
        }
        Ok(SymbolicEncoding {
            x: SymbolicMatrix::from_rows(rows)?,
            y: sentiment_targets(train)?,
            missing_rows: report.affected,
            feature_stats: stats,
        })
    }

    fn assert_encodings_bit_identical(a: &SymbolicEncoding, b: &SymbolicEncoding, at: &str) {
        assert_eq!((a.x.len(), a.x.cols()), (b.x.len(), b.x.cols()), "{at}");
        for (r, (ra, rb)) in a.x.iter_rows().zip(b.x.iter_rows()).enumerate() {
            for (c, (p, q)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(
                    (p.lo.to_bits(), p.hi.to_bits()),
                    (q.lo.to_bits(), q.hi.to_bits()),
                    "{at}: cell ({r}, {c})"
                );
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.y), bits(&b.y), "{at}: targets");
        assert_eq!(a.missing_rows, b.missing_rows, "{at}: missing rows");
        let stat_bits = |e: &SymbolicEncoding| {
            e.feature_stats
                .iter()
                .map(|(m, s)| (m.to_bits(), s.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(stat_bits(a), stat_bits(b), "{at}: feature stats");
    }

    #[test]
    fn encode_symbolic_is_bit_identical_to_the_per_row_fold() {
        let s = load_recommendation_letters(240, 20);
        // Nulls in both columns exercise mean imputation and the observed
        // (null-skipping) domain.
        let mut train = s.train.clone();
        for (r, col) in [
            (3, "employer_rating"),
            (8, "years_experience"),
            (11, "employer_rating"),
        ] {
            train.set(r, col, nde_data::Value::Null).unwrap();
        }
        for feature in SYMBOLIC_FEATURES {
            for pct in [0.0, 5.0, 25.0, 100.0] {
                for mechanism in [Missingness::Mcar, Missingness::Mnar { skew: 4.0 }] {
                    let at = format!("{feature} at {pct}% {mechanism:?}");
                    let got = encode_symbolic(&train, feature, pct, mechanism.clone(), 21).unwrap();
                    let want =
                        encode_symbolic_reference(&train, feature, pct, mechanism, 21).unwrap();
                    assert_encodings_bit_identical(&got, &want, &at);
                }
            }
        }
    }

    #[test]
    fn encode_symbolic_degenerate_inputs_never_panic() {
        let s = load_recommendation_letters(60, 22);
        // An empty table: MCAR has nothing to remove and yields an empty
        // encoding; MNAR has no values to condition on and is a typed error.
        let empty = s.train.take(&[]).unwrap();
        let enc = encode_symbolic(&empty, "employer_rating", 0.25, Missingness::Mcar, 1).unwrap();
        assert!(enc.x.is_empty() && enc.y.is_empty() && enc.missing_rows.is_empty());
        let err = encode_symbolic(
            &empty,
            "employer_rating",
            0.25,
            Missingness::Mnar { skew: 4.0 },
            1,
        );
        assert!(matches!(err, Err(crate::NdeError::Data(_))), "{err:?}");

        // An all-null uncertain column: no observed domain and no spread,
        // so every cell of that column standardizes to the point 0.
        let mut nulls = s.train.clone();
        for r in 0..nulls.n_rows() {
            nulls
                .set(r, "years_experience", nde_data::Value::Null)
                .unwrap();
        }
        for pct in [0.0, 25.0, 100.0] {
            let enc =
                encode_symbolic(&nulls, "years_experience", pct, Missingness::Mcar, 2).unwrap();
            assert_eq!(enc.x.len(), nulls.n_rows());
            assert_eq!(enc.feature_stats[1], (0.0, 0.0));
            assert!(enc.x.iter_rows().all(|row| row[1] == Interval::point(0.0)));
            let want =
                encode_symbolic_reference(&nulls, "years_experience", pct, Missingness::Mcar, 2)
                    .unwrap();
            assert_encodings_bit_identical(&enc, &want, &format!("all-null at {pct}%"));
        }
        let err = encode_symbolic(
            &nulls,
            "years_experience",
            0.25,
            Missingness::Mnar { skew: 4.0 },
            2,
        );
        assert!(matches!(err, Err(crate::NdeError::Data(_))), "{err:?}");
    }

    #[test]
    fn unknown_symbolic_feature_rejected() {
        let s = load_recommendation_letters(50, 19);
        assert!(encode_symbolic(&s.train, "letter_text", 0.1, Missingness::Mcar, 1).is_err());
    }
}
