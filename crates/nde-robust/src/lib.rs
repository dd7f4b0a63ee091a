//! Fault-tolerant execution foundation for the nde workspace.
//!
//! The paper's three pillars — Identify (Monte-Carlo Shapley sweeps), Debug
//! (multi-operator pipeline execution), and Learn (iterative training under
//! uncertainty) — all rest on long-running, failure-prone computations. This
//! crate provides the shared machinery to keep those computations **bounded,
//! resumable, and crash-isolated**:
//!
//! - [`budget`] — [`RunBudget`]: wall-clock deadlines plus iteration and
//!   utility-call budgets, with [`ConvergenceDiagnostics`] so a run that
//!   exhausts its budget degrades to a tagged best-so-far result instead of
//!   running forever or aborting.
//! - [`checkpoint`] — the [`Snapshot`] contract every resumable run
//!   checkpoints through (method tag, step, field list, invariants; one
//!   typed reader for every payload), and [`McCheckpoint`], the TMC-Shapley
//!   permutation-walk state, so an interrupted run resumes
//!   **bit-identically**.
//! - [`retry`] — [`RetryPolicy`]: bounded retries with exponential backoff
//!   for flaky external dependencies (e.g. cleaning oracles).
//! - [`durable`] — the crash-safe on-disk [`RunStore`]: checksummed,
//!   versioned checkpoint records written atomically under run-fingerprint
//!   keys, cross-process [`MemoCache`] persistence, and [`supervise`] to
//!   restart a crashed computation from its latest valid record.
//! - [`chaos`] — a deterministic fault-injection harness: operator panics,
//!   corrupt/NaN feature values, scheduled dependency failures, and
//!   durability faults (kill-at-checkpoint, torn writes, corrupt checksums,
//!   stale record versions), used by integration tests to prove every
//!   workflow survives each fault class.
//! - [`par`] — the deterministic-parallelism substrate: seed-partitioned
//!   worker pools, a subset-fingerprint memo cache for utility calls, and
//!   [`par::AtomicBudgetClock`] so budgets can be shared across workers
//!   while the fold stays bit-identical to a sequential run.

pub mod budget;
pub mod chaos;
pub mod checkpoint;
pub mod durable;
pub mod error;
pub mod par;
pub mod retry;

pub use budget::{BudgetClock, ConvergenceDiagnostics, Exhaustion, RunBudget};
pub use chaos::FaultSchedule;
pub use checkpoint::{Field, Fields, InflightPermutation, McCheckpoint, Snapshot};
pub use durable::{
    supervise, CheckpointRecord, RunFingerprint, RunStore, SuperviseCtx, Supervised,
};
pub use error::RobustError;
pub use par::{AtomicBudgetClock, MemoCache};
pub use retry::{retry_with_backoff, RetryPolicy};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RobustError>;
