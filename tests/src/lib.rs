//! Integration-test-only crate; see `tests/` directory.

use nde_importance::ImportanceOutcome;
use nde_robust::{McCheckpoint, Snapshot, SuperviseCtx};

/// The TMC-Shapley state a run's `report.snapshot` payload decodes to.
pub fn tmc_state(out: &ImportanceOutcome) -> McCheckpoint {
    let payload = out.report.snapshot.as_ref().expect("MC runs snapshot");
    McCheckpoint::from_payload(payload).expect("a run's own snapshot decodes")
}

/// The newest valid store record of a supervised run, decoded.
pub fn latest<S: Snapshot>(ctx: &SuperviseCtx<'_>) -> nde_robust::Result<Option<S>> {
    ctx.latest()?
        .map(|record| S::from_payload(&record.payload))
        .transpose()
}

/// Write `snapshot` as a supervised run's record under its own step.
pub fn persist<S: Snapshot>(ctx: &SuperviseCtx<'_>, snapshot: &S) -> nde_robust::Result<()> {
    ctx.checkpoint(snapshot.step(), &snapshot.to_payload())
        .map(drop)
}
