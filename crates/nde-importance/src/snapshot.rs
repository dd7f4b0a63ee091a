//! Resumable snapshots for the non-TMC Monte-Carlo estimators.
//!
//! [`McCheckpoint`](nde_robust::McCheckpoint) covers the permutation-walk
//! state of TMC-Shapley; Banzhaf MSR and Beta Shapley accumulate different
//! partial state (subset-sample sums, per-point values). Both implement the
//! same [`Snapshot`] contract, so every estimator resumes and checkpoints
//! through the same payload codec and [`RunStore`](nde_robust::RunStore)
//! records.

use crate::banzhaf::BanzhafConfig;
use crate::beta_shapley::BetaShapleyConfig;
use crate::{ImportanceError, Result};
use nde_robust::{RobustError, Snapshot};

/// Partial state of a Banzhaf MSR estimation: subset samples `0..cursor`
/// folded into the conditional sums. Resume continues the fold at `cursor`,
/// so an interrupted run is **bit-identical** to an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct BanzhafCheckpoint {
    /// Base seed; sample `s` draws from `child_seed(seed, s)`.
    pub seed: u64,
    /// Number of scored training examples.
    pub n: usize,
    /// Configured total subset samples.
    pub samples: u64,
    /// Next subset-sample index to fold.
    pub cursor: u64,
    /// Cumulative logical utility calls across all segments.
    pub utility_calls: u64,
    /// Sum of `U(S)` over samples containing each point.
    pub with_sum: Vec<f64>,
    /// Number of samples containing each point.
    pub with_count: Vec<u64>,
    /// Sum of `U(S)` over samples excluding each point.
    pub without_sum: Vec<f64>,
    /// Number of samples excluding each point.
    pub without_count: Vec<u64>,
}

impl BanzhafCheckpoint {
    /// A zeroed snapshot at sample 0 for this run shape.
    pub fn fresh(config: &BanzhafConfig, n: usize) -> BanzhafCheckpoint {
        BanzhafCheckpoint {
            seed: config.seed,
            n,
            samples: config.samples as u64,
            cursor: 0,
            utility_calls: 0,
            with_sum: vec![0.0; n],
            with_count: vec![0; n],
            without_sum: vec![0.0; n],
            without_count: vec![0; n],
        }
    }

    /// Reject a snapshot that was written by a differently-shaped run.
    pub fn validate_against(&self, config: &BanzhafConfig, n: usize) -> Result<()> {
        self.validate()?;
        if self.seed != config.seed || self.samples != config.samples as u64 || self.n != n {
            return Err(ImportanceError::Checkpoint(format!(
                "snapshot (seed={}, samples={}, n={}) does not match run \
                 (seed={}, samples={}, n={n})",
                self.seed, self.samples, self.n, config.seed, config.samples
            )));
        }
        Ok(())
    }

    /// Best-so-far Banzhaf values from the folded samples:
    /// `mean(U | i ∈ S) − mean(U | i ∉ S)` (0 for an unseen side).
    pub fn values(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                let w = if self.with_count[i] > 0 {
                    self.with_sum[i] / self.with_count[i] as f64
                } else {
                    0.0
                };
                let wo = if self.without_count[i] > 0 {
                    self.without_sum[i] / self.without_count[i] as f64
                } else {
                    0.0
                };
                w - wo
            })
            .collect()
    }
}

impl Snapshot for BanzhafCheckpoint {
    const METHOD: &'static str = "banzhaf";

    fn step(&self) -> u64 {
        self.cursor
    }

    /// Vector lengths, cursor bounds, and per-point counts summing to the
    /// cursor (checked arithmetic: counts come from untrusted payloads).
    fn validate(&self) -> nde_robust::Result<()> {
        let lens = [
            self.with_sum.len(),
            self.with_count.len(),
            self.without_sum.len(),
            self.without_count.len(),
        ];
        if lens.iter().any(|&l| l != self.n) {
            return Err(RobustError::Checkpoint(format!(
                "snapshot claims n={} but holds sum/count vectors of lengths {lens:?}",
                self.n
            )));
        }
        if self.cursor > self.samples {
            return Err(RobustError::Checkpoint(format!(
                "cursor {} exceeds configured samples {}",
                self.cursor, self.samples
            )));
        }
        for (i, (&with, &without)) in self.with_count.iter().zip(&self.without_count).enumerate() {
            if with.checked_add(without) != Some(self.cursor) {
                return Err(RobustError::Checkpoint(format!(
                    "point {i} counts {with} + {without} do not sum to cursor {}",
                    self.cursor
                )));
            }
        }
        Ok(())
    }

    nde_robust::snapshot_fields!(
        seed,
        n,
        samples,
        cursor,
        utility_calls,
        with_sum,
        with_count,
        without_sum,
        without_count,
    );
}

/// Partial state of a Beta Shapley estimation: points `0..cursor` fully
/// scored (each point's samples are an independent RNG stream, so resume is
/// point-granular and **bit-identical**). Values of unscored points are 0.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaShapleyCheckpoint {
    /// Beta α parameter of the run that wrote the snapshot.
    pub alpha: f64,
    /// Beta β parameter of the run that wrote the snapshot.
    pub beta: f64,
    /// Configured Monte-Carlo samples per point.
    pub samples_per_point: u64,
    /// Base seed; point `i` draws from `child_seed(seed, i)`.
    pub seed: u64,
    /// Number of scored training examples.
    pub n: usize,
    /// Next point index to score.
    pub cursor: u64,
    /// Cumulative logical utility calls across all segments.
    pub utility_calls: u64,
    /// Per-point values (0 for points at or beyond `cursor`).
    pub values: Vec<f64>,
}

impl BetaShapleyCheckpoint {
    /// A zeroed snapshot at point 0 for this run shape.
    pub fn fresh(config: &BetaShapleyConfig, n: usize) -> BetaShapleyCheckpoint {
        BetaShapleyCheckpoint {
            alpha: config.alpha,
            beta: config.beta,
            samples_per_point: config.samples_per_point as u64,
            seed: config.seed,
            n,
            cursor: 0,
            utility_calls: 0,
            values: vec![0.0; n],
        }
    }

    /// Reject a snapshot that was written by a differently-shaped run.
    /// α/β are compared bit-exactly: any difference changes the size
    /// distribution and therefore every RNG draw.
    pub fn validate_against(&self, config: &BetaShapleyConfig, n: usize) -> Result<()> {
        self.validate()?;
        if self.seed != config.seed
            || self.samples_per_point != config.samples_per_point as u64
            || self.n != n
            || self.alpha.to_bits() != config.alpha.to_bits()
            || self.beta.to_bits() != config.beta.to_bits()
        {
            return Err(ImportanceError::Checkpoint(format!(
                "snapshot (seed={}, spp={}, n={}, alpha={}, beta={}) does not match run \
                 (seed={}, spp={}, n={n}, alpha={}, beta={})",
                self.seed,
                self.samples_per_point,
                self.n,
                self.alpha,
                self.beta,
                config.seed,
                config.samples_per_point,
                config.alpha,
                config.beta
            )));
        }
        Ok(())
    }
}

impl Snapshot for BetaShapleyCheckpoint {
    const METHOD: &'static str = "beta-shapley";

    fn step(&self) -> u64 {
        self.cursor
    }

    /// Vector length, cursor bounds, and α, β > 0.
    fn validate(&self) -> nde_robust::Result<()> {
        if self.values.len() != self.n {
            return Err(RobustError::Checkpoint(format!(
                "snapshot claims n={} but holds {} values",
                self.n,
                self.values.len()
            )));
        }
        if self.cursor > self.n as u64 {
            return Err(RobustError::Checkpoint(format!(
                "cursor {} exceeds n={}",
                self.cursor, self.n
            )));
        }
        if !(self.alpha > 0.0 && self.beta > 0.0) {
            return Err(RobustError::Checkpoint(format!(
                "alpha={} / beta={} outside (0, ∞)",
                self.alpha, self.beta
            )));
        }
        Ok(())
    }

    nde_robust::snapshot_fields!(
        alpha,
        beta,
        samples_per_point,
        seed,
        n,
        cursor,
        utility_calls,
        values,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::json::Json;

    fn banzhaf_sample() -> BanzhafCheckpoint {
        BanzhafCheckpoint {
            seed: u64::MAX - 1,
            n: 3,
            samples: 10,
            cursor: 4,
            utility_calls: 7,
            with_sum: vec![0.1 + 0.2, -1.5e-13, 0.625],
            with_count: vec![2, 1, 3],
            without_sum: vec![0.5, 1.0 / 3.0, -0.25],
            without_count: vec![2, 3, 1],
        }
    }

    fn beta_sample() -> BetaShapleyCheckpoint {
        BetaShapleyCheckpoint {
            alpha: 1.0,
            beta: 16.0,
            samples_per_point: 30,
            seed: 11,
            n: 4,
            cursor: 2,
            utility_calls: 120,
            values: vec![0.1 + 0.2, -0.125, 0.0, 0.0],
        }
    }

    #[test]
    fn banzhaf_payload_roundtrip_is_bit_identical() {
        let ckpt = banzhaf_sample();
        let text = ckpt.to_payload().to_string_pretty();
        let back = BanzhafCheckpoint::from_payload(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        for (a, b) in ckpt.with_sum.iter().zip(&back.with_sum) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn beta_payload_roundtrip_is_bit_identical() {
        let ckpt = beta_sample();
        let text = ckpt.to_payload().to_string_pretty();
        let back = BetaShapleyCheckpoint::from_payload(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        for (a, b) in ckpt.values.iter().zip(&back.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn method_tags_are_enforced() {
        let banzhaf = banzhaf_sample().to_payload();
        assert!(matches!(
            BetaShapleyCheckpoint::from_payload(&banzhaf),
            Err(RobustError::Checkpoint(_))
        ));
        let beta = beta_sample().to_payload();
        assert!(matches!(
            BanzhafCheckpoint::from_payload(&beta),
            Err(RobustError::Checkpoint(_))
        ));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Type-specific invariants, checked on decode.
        let checkpoint_error = |r: nde_robust::Result<BanzhafCheckpoint>| {
            assert!(matches!(r, Err(RobustError::Checkpoint(_))), "{r:?}");
        };
        let mut bad = banzhaf_sample();
        bad.with_count[0] += 1;
        checkpoint_error(BanzhafCheckpoint::from_payload(&bad.to_payload()));
        let mut bad = beta_sample();
        bad.cursor = 99;
        assert!(BetaShapleyCheckpoint::from_payload(&bad.to_payload()).is_err());
        let mut bad = beta_sample();
        bad.alpha = 0.0;
        assert!(BetaShapleyCheckpoint::from_payload(&bad.to_payload()).is_err());
        // Counts near u64::MAX must not overflow (a debug-build panic, a
        // release-build wrap to 0 that matched `cursor: 0`).
        let mut bad = banzhaf_sample();
        bad.n = 1;
        bad.cursor = 0;
        bad.with_sum.truncate(1);
        bad.without_sum.truncate(1);
        bad.with_count = vec![u64::MAX];
        bad.without_count = vec![1];
        checkpoint_error(BanzhafCheckpoint::from_payload(&bad.to_payload()));
    }

    #[test]
    fn shape_mismatches_are_rejected_on_resume() {
        let cfg = BanzhafConfig {
            samples: 10,
            seed: u64::MAX - 1,
            threads: 1,
        };
        assert!(banzhaf_sample().validate_against(&cfg, 3).is_ok());
        assert!(banzhaf_sample().validate_against(&cfg, 4).is_err());
        let other = BanzhafConfig { seed: 0, ..cfg };
        assert!(banzhaf_sample().validate_against(&other, 3).is_err());

        let cfg = BetaShapleyConfig {
            alpha: 1.0,
            beta: 16.0,
            samples_per_point: 30,
            seed: 11,
            threads: 1,
        };
        assert!(beta_sample().validate_against(&cfg, 4).is_ok());
        let other = BetaShapleyConfig {
            beta: 16.0 + 1e-12,
            ..cfg
        };
        assert!(beta_sample().validate_against(&other, 4).is_err());
    }
}
