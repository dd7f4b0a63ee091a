//! Lifecycle tests for the resident [`WorkerPool`]: reuse across many
//! jobs must stay bit-identical to the scoped-spawn reference, worker
//! panics must surface as [`WorkerFailure`] without poisoning the pool,
//! and dropping a pool must join every worker thread (no leaks, even
//! when a chaos kill switch stops a job mid-flight). Leaks are measured
//! by the pool's own live-worker count, which no other thread in the
//! process (the test harness's included) can move.

use nde_robust::chaos::FaultSchedule;
use nde_robust::par::{par_map_indexed_scratch_scoped, CostHint, WorkerFailure, WorkerPool};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A deterministic, mildly expensive work item: enough arithmetic that
/// adaptive chunking engages, pure in `i` so every schedule agrees.
fn work(i: u64) -> u64 {
    let mut acc = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..64 {
        acc = acc.rotate_left(7) ^ acc.wrapping_add(i);
    }
    acc
}

#[test]
fn pool_reuse_is_bit_identical_to_scoped_spawns() {
    let pool = WorkerPool::new(3);
    let stop = AtomicBool::new(false);
    let reference = par_map_indexed_scratch_scoped::<_, _, (), _, _>(
        4,
        0..500,
        &stop,
        || (),
        |(), i| Ok(work(i)),
    )
    .unwrap();
    // Many calls on one pool, at several thread counts, with and without
    // cost hints: every run must reproduce the scoped reference exactly.
    for round in 0..10 {
        for &threads in &[1, 2, 4, 7] {
            let cost = if round % 2 == 0 {
                CostHint::Unknown
            } else {
                CostHint::PerItemNanos(50_000)
            };
            let got = pool
                .map_indexed::<u64, (), _>(threads, 0..500, &stop, cost, |i| Ok(work(i)))
                .unwrap();
            assert_eq!(got, reference, "round {round}, {threads} threads");
        }
    }
}

#[test]
fn worker_panic_surfaces_as_failure_and_pool_stays_usable() {
    let pool = WorkerPool::new(2);
    let stop = AtomicBool::new(false);
    // A chaos schedule decides which indices blow up; the smallest one
    // must win regardless of which worker hits it first.
    let schedule = FaultSchedule::at(&[13, 401]);
    let err = pool
        .map_indexed::<u64, (), _>(4, 0..500, &stop, CostHint::PerItemNanos(50_000), |i| {
            if schedule.should_fail(i) {
                panic!("injected fault at {i}");
            }
            Ok(work(i))
        })
        .unwrap_err();
    match err {
        WorkerFailure::Panic(i, msg) => {
            assert_eq!(i, 13, "smallest failing index wins");
            assert!(msg.contains("injected fault"), "{msg}");
        }
        other => panic!("expected a panic failure, got {other:?}"),
    }
    // The same pool keeps serving correct answers afterwards.
    for _ in 0..3 {
        let ok = pool
            .map_indexed::<u64, (), _>(4, 0..100, &stop, CostHint::Unknown, |i| Ok(work(i)))
            .unwrap();
        assert_eq!(ok.len(), 100);
        assert!(ok.iter().all(|&(i, v)| v == work(i)));
    }
}

#[test]
fn error_results_match_at_every_thread_count() {
    let pool = WorkerPool::new(3);
    let stop = AtomicBool::new(false);
    for &threads in &[1, 2, 4, 7] {
        let err = pool
            .map_indexed::<u64, String, _>(
                threads,
                0..300,
                &stop,
                CostHint::PerItemNanos(20_000),
                |i| {
                    if i >= 37 {
                        Err(format!("bad item {i}"))
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            WorkerFailure::Err(37, "bad item 37".to_string()),
            "{threads} threads"
        );
    }
}

#[test]
fn dropping_a_pool_joins_all_workers() {
    let live = {
        let pool = WorkerPool::new(4);
        let live = pool.live_workers();
        let stop = AtomicBool::new(false);
        let out = pool
            .map_indexed::<u64, (), _>(5, 0..200, &stop, CostHint::Unknown, |i| Ok(work(i)))
            .unwrap();
        assert_eq!(out.len(), 200);
        assert_eq!(live.count(), 4, "pool workers alive while pool exists");
        live
    };
    // Drop joined the workers: none of them is still running.
    assert_eq!(live.count(), 0, "dropped pool leaked worker threads");
}

#[test]
fn kill_switch_mid_job_leaves_no_leaks_and_pool_reusable() {
    let live = {
        let pool = Arc::new(WorkerPool::new(3));
        let live = pool.live_workers();
        let stop = AtomicBool::new(false);
        let done = AtomicU64::new(0);
        // The kill switch arms after 64 completions — mid-run, from inside
        // the workers, the way a tripped budget clock does it.
        let out = pool
            .map_indexed::<u64, (), _>(4, 0..10_000, &stop, CostHint::PerItemNanos(30_000), |i| {
                if done.fetch_add(1, Ordering::Relaxed) >= 64 {
                    stop.store(true, Ordering::Relaxed);
                }
                Ok(work(i))
            })
            .unwrap();
        assert!(
            out.len() >= 64 && out.len() < 10_000,
            "kill switch should truncate the run: {} items",
            out.len()
        );
        // Killed mid-job, the pool still serves the next job in full.
        stop.store(false, Ordering::Relaxed);
        let clean = pool
            .map_indexed::<u64, (), _>(4, 0..128, &stop, CostHint::Unknown, |i| Ok(work(i)))
            .unwrap();
        assert_eq!(clean.len(), 128);
        assert_eq!(live.count(), 3, "pool workers alive while pool exists");
        live
    };
    assert_eq!(live.count(), 0, "killed pool leaked worker threads");
}

#[test]
fn zero_and_tiny_pools_agree_with_large_ones() {
    let stop = AtomicBool::new(false);
    let reference: Vec<(u64, u64)> = (0..257).map(|i| (i, work(i))).collect();
    for workers in [0, 1, 3] {
        let pool = WorkerPool::new(workers);
        for &threads in &[1, 4, 8] {
            let got = pool
                .map_indexed::<u64, (), _>(threads, 0..257, &stop, CostHint::Unknown, |i| {
                    Ok(work(i))
                })
                .unwrap();
            assert_eq!(got, reference, "{workers} workers, {threads} threads");
        }
    }
}

#[test]
fn shared_pool_reports_activity_monotonically() {
    let pool = WorkerPool::shared();
    let stop = AtomicBool::new(false);
    let before = pool.stats();
    let out = pool
        .map_indexed::<u64, (), _>(4, 0..64, &stop, CostHint::PerItemNanos(100_000), |i| {
            Ok(work(i))
        })
        .unwrap();
    assert_eq!(out.len(), 64);
    let after = pool.stats();
    assert!(after.jobs >= before.jobs);
    assert!(after.chunks > before.chunks, "{before:?} -> {after:?}");
    assert!(after.parks >= before.parks);
    assert!(after.wakes >= before.wakes);
}
