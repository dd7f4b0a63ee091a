//! Error type for the cleaning crate.

use std::fmt;

/// Errors from oracles, strategies and the debugging challenge.
#[derive(Debug, Clone, PartialEq)]
pub enum CleaningError {
    /// An argument was outside its valid domain.
    InvalidArgument(String),
    /// A submission exceeded the challenge's cleaning budget.
    BudgetExceeded {
        /// Rows requested.
        requested: usize,
        /// Budget available.
        budget: usize,
    },
    /// A wrapped importance-crate error.
    Importance(String),
    /// A wrapped ML-substrate error.
    Ml(String),
    /// A wrapped data-substrate error.
    Data(String),
    /// A wrapped pipeline error (plan execution or delta propagation).
    Pipeline(String),
    /// Leaderboard (de)serialization failed.
    Serde(String),
    /// The cleaning oracle was transiently unavailable (a flaky
    /// dependency); callers may retry.
    OracleUnavailable {
        /// 0-based oracle call index that failed.
        call: u64,
    },
    /// The cleaning oracle kept failing after bounded retries.
    OracleFailed {
        /// Attempts spent, including the first call.
        attempts: u32,
        /// The last underlying error, rendered.
        last: String,
    },
    /// A checkpoint did not match the run it was resumed into.
    Checkpoint(String),
    /// A durable run-store operation failed (filesystem or record layer).
    Store(String),
    /// A live debugging session refused a fix: an earlier fix failed after
    /// it had changed the pipeline state, so the session's dataset no
    /// longer matches its table. Rebuild the session.
    Poisoned(String),
}

impl fmt::Display for CleaningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CleaningError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            CleaningError::BudgetExceeded { requested, budget } => {
                write!(f, "submission of {requested} rows exceeds budget {budget}")
            }
            CleaningError::Importance(m) => write!(f, "importance error: {m}"),
            CleaningError::Ml(m) => write!(f, "ml error: {m}"),
            CleaningError::Data(m) => write!(f, "data error: {m}"),
            CleaningError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            CleaningError::Serde(m) => write!(f, "serialization error: {m}"),
            CleaningError::OracleUnavailable { call } => {
                write!(f, "cleaning oracle unavailable on call {call}")
            }
            CleaningError::OracleFailed { attempts, last } => {
                write!(
                    f,
                    "cleaning oracle failed after {attempts} attempts: {last}"
                )
            }
            CleaningError::Checkpoint(m) => write!(f, "checkpoint mismatch: {m}"),
            CleaningError::Store(m) => write!(f, "durable store error: {m}"),
            CleaningError::Poisoned(m) => write!(f, "session poisoned: {m}"),
        }
    }
}

impl From<nde_robust::RobustError> for CleaningError {
    fn from(e: nde_robust::RobustError) -> Self {
        match e {
            nde_robust::RobustError::Checkpoint(m) => CleaningError::Checkpoint(m),
            nde_robust::RobustError::InvalidArgument(m) => CleaningError::InvalidArgument(m),
            e => CleaningError::Store(e.to_string()),
        }
    }
}

impl std::error::Error for CleaningError {}

impl From<nde_importance::ImportanceError> for CleaningError {
    fn from(e: nde_importance::ImportanceError) -> Self {
        CleaningError::Importance(e.to_string())
    }
}

impl From<nde_ml::MlError> for CleaningError {
    fn from(e: nde_ml::MlError) -> Self {
        CleaningError::Ml(e.to_string())
    }
}

impl From<nde_data::DataError> for CleaningError {
    fn from(e: nde_data::DataError) -> Self {
        CleaningError::Data(e.to_string())
    }
}

impl From<nde_pipeline::PipelineError> for CleaningError {
    fn from(e: nde_pipeline::PipelineError) -> Self {
        CleaningError::Pipeline(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e = CleaningError::BudgetExceeded {
            requested: 30,
            budget: 25,
        };
        assert!(e.to_string().contains("30"));
        let e: CleaningError = nde_ml::MlError::NotFitted.into();
        assert!(matches!(e, CleaningError::Ml(_)));
        let e: CleaningError = nde_importance::ImportanceError::InvalidArgument("x".into()).into();
        assert!(matches!(e, CleaningError::Importance(_)));
    }
}
