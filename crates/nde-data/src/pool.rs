//! A resident worker pool with adaptive chunk scheduling.
//!
//! The scoped substrate in [`crate::par`] historically spawned OS threads on
//! every call, which made small parallel regions (a pipeline exec over a few
//! thousand rows, one Zorro gradient epoch) *slower* than sequential: spawn
//! plus join costs tens of microseconds per worker, paid again for every
//! epoch and every operator. [`WorkerPool`] fixes that by spawning workers
//! once and parking them on a condvar between jobs; submitting a job is a
//! queue push plus a wake, and an idle pool costs nothing but parked threads.
//!
//! # Scheduling model
//!
//! A job is an indexed map over `range` with `threads - 1` pool slots; the
//! **submitting thread always participates as one worker**, so a map is never
//! starved even when every pool worker is busy (a saturated pool degrades to
//! inline execution, never deadlocks). Workers claim *chunks* of indices from
//! a shared atomic cursor. Chunk size is adaptive:
//!
//! - while the per-item cost is unknown, workers claim single items and the
//!   first completed claim publishes a measured per-item nanosecond cost;
//! - afterwards chunks are sized to roughly `TARGET_CHUNK_NANOS` of work
//!   (inside the 100µs–1ms band), capped so every worker still gets several
//!   claims for load balancing.
//!
//! Chunk boundaries provably cannot affect output: each result is tagged
//! with its item index, merged and sorted exactly as the scoped substrate
//! did, so the determinism contract of [`crate::par`] (bit-identical output
//! at every thread count) carries over unchanged. Callers that know their
//! per-item cost can pass a [`CostHint`] to skip the probe *and* let
//! [`effective_threads`] fall back to sequential for cheap small batches.
//!
//! # Failure and stop semantics
//!
//! Identical to the scoped substrate: panics in `f` are caught per item and
//! surfaced as [`WorkerFailure::Panic`]; the reported failure is always the
//! one with the smallest index (claims are monotone in the cursor and a
//! worker finishes its already-claimed chunk when *another* worker fails, so
//! the smallest failing index is always evaluated). A cooperative `stop`
//! drops the unevaluated remainder of a claimed chunk — consumers with
//! budget heuristics settle sorted results front-to-back and re-claim gaps,
//! so this only affects the speculative tail, never the settled prefix.
//!
//! Worker panics never poison the pool: the resident threads survive, and
//! the pool remains usable for subsequent jobs. Dropping a pool joins all
//! worker threads (no leaks); [`WorkerPool::live_workers`] counts the
//! pool's own live threads, so a leak is observable without reading
//! process-wide thread counts.

use crate::par::{effective_threads, panic_message, CostHint, WorkerFailure};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Target work per claimed chunk once the per-item cost is known (~0.25ms,
/// the middle of the 100µs–1ms sweet spot: large enough to amortize the
/// claim, small enough to load-balance and honor stop flags promptly).
const TARGET_CHUNK_NANOS: u64 = 250_000;
/// Hard ceiling on adaptive chunk size (keeps result merging cheap even for
/// nanosecond-scale items).
const MAX_CHUNK: u64 = 8192;
/// Keep at least this many claims available per worker for load balancing.
const CLAIMS_PER_WORKER: u64 = 4;

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` on a resident pool worker thread. Nested maps run inline there:
/// the outer job already owns the pool's parallelism, and queueing from
/// inside a worker would only add scheduling churn.
fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

/// Monotone counters describing pool activity since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted to the pool (one per parallel map that ran pooled).
    pub jobs: u64,
    /// Chunks claimed from job cursors (adaptive batches, including the
    /// submitting thread's own claims).
    pub chunks: u64,
    /// Times a worker parked on the condvar waiting for work.
    pub parks: u64,
    /// Times a parked worker woke up (includes spurious wakeups).
    pub wakes: u64,
}

/// Type-erased pointer to a job body living on the submitter's stack.
struct RawBody(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync`, and every dereference happens before the
// submitting call returns — `JobGuard` retires the job and blocks until all
// joined workers have finished, so the pointee outlives all uses.
unsafe impl Send for RawBody {}
unsafe impl Sync for RawBody {}

/// Per-job control block shared between the submitter and the workers.
struct JobCtl {
    body: RawBody,
    /// Pool worker slots this job wants (`threads - 1`).
    slots: usize,
    /// Workers that claimed a slot so far (mutated only under the queue
    /// lock, so `retire` reads a final value once the job leaves the queue).
    joined: AtomicUsize,
    /// Workers that finished running the body.
    finished: AtomicUsize,
}

struct PoolQueue {
    jobs: VecDeque<Arc<JobCtl>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_cv: Condvar,
    done_cv: Condvar,
    jobs: AtomicU64,
    chunks: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
}

/// A long-lived pool of parked worker threads for deterministic indexed maps.
///
/// Construct a dedicated pool with [`WorkerPool::new`], or share the
/// process-wide one via [`WorkerPool::shared`] (sized from the machine, at
/// least 7 workers so `threads <= 8` never degrades, overridable with the
/// `NDE_POOL_WORKERS` environment variable). Dropping a pool shuts down and
/// joins every worker thread.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    live: Arc<AtomicUsize>,
}

/// A pool's count of live worker threads. A worker counts from the moment
/// it is spawned until its thread exits, so the count equals
/// [`WorkerPool::workers`] while the pool lives and is 0 once dropping the
/// pool has joined every worker. The handle outlives the pool.
#[derive(Debug, Clone)]
pub struct LiveWorkers(Arc<AtomicUsize>);

impl LiveWorkers {
    /// Worker threads of the pool that have not exited yet.
    pub fn count(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }
}

/// Holds one unit of a pool's live-worker count; moved into the worker
/// thread, it is released when the thread's closure ends (or unwinds).
struct LiveGuard(Arc<AtomicUsize>);

impl LiveGuard {
    fn new(live: &Arc<AtomicUsize>) -> LiveGuard {
        live.fetch_add(1, Ordering::Relaxed);
        LiveGuard(Arc::clone(live))
    }
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        // Release pairs with the Acquire in `LiveWorkers::count`: reading
        // 0 there means every worker's exit happened before the read.
        self.0.fetch_sub(1, Ordering::Release);
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
    loop {
        if q.shutdown {
            return;
        }
        let open = q
            .jobs
            .iter()
            .position(|j| j.joined.load(Ordering::Relaxed) < j.slots);
        let Some(pos) = open else {
            shared.parks.fetch_add(1, Ordering::Relaxed);
            q = shared.work_cv.wait(q).unwrap_or_else(|p| p.into_inner());
            shared.wakes.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let job = Arc::clone(&q.jobs[pos]);
        let slot = job.joined.fetch_add(1, Ordering::Relaxed);
        if slot + 1 >= job.slots {
            // Fully joined: no further workers may claim it.
            q.jobs.remove(pos);
        }
        drop(q);
        // The job body catches user panics itself; this outer guard only
        // shields the resident thread from bookkeeping bugs so one bad job
        // cannot kill the pool.
        let body = unsafe { &*job.body.0 };
        let _ = panic::catch_unwind(AssertUnwindSafe(|| body(slot)));
        job.finished.fetch_add(1, Ordering::Release);
        q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        shared.done_cv.notify_all();
    }
}

/// Pool size for [`WorkerPool::shared`]: `NDE_POOL_WORKERS` if set, else
/// one less than the hardware parallelism (the submitter is a worker too),
/// floored so that 8-way maps still get real pool slots on small machines.
fn default_workers() -> usize {
    if let Ok(raw) = std::env::var("NDE_POOL_WORKERS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n;
        }
    }
    let hw = std::thread::available_parallelism().map_or(8, |n| n.get());
    hw.max(8) - 1
}

impl WorkerPool {
    /// Spawn a dedicated pool with exactly `workers` resident threads.
    /// `workers == 0` is valid: every map then runs inline on the caller.
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            jobs: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        });
        let live = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let guard = LiveGuard::new(&live);
                std::thread::Builder::new()
                    .name("nde-pool".into())
                    .spawn(move || {
                        let _guard = guard;
                        worker_loop(shared)
                    })
                    .expect("spawn pool worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
            live,
        }
    }

    /// The process-wide shared pool (spawned once, on first use).
    pub fn shared() -> Arc<WorkerPool> {
        static SHARED: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(WorkerPool::new(default_workers()))))
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A handle on this pool's live-worker count (see [`LiveWorkers`]).
    pub fn live_workers(&self) -> LiveWorkers {
        LiveWorkers(Arc::clone(&self.live))
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            chunks: self.shared.chunks.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            wakes: self.shared.wakes.load(Ordering::Relaxed),
        }
    }

    fn submit(&self, slots: usize, body: &(dyn Fn(usize) + Sync)) -> Arc<JobCtl> {
        // SAFETY: `JobGuard::drop` retires the job and blocks until every
        // joined worker finished, before `body`'s stack frame can unwind.
        let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let job = Arc::new(JobCtl {
            body: RawBody(body),
            slots,
            joined: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
        });
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if !q.shutdown {
                q.jobs.push_back(Arc::clone(&job));
            }
        }
        self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        self.shared.work_cv.notify_all();
        job
    }

    /// Remove `job` from the queue (no new joiners) and wait for every
    /// worker that already joined. Waits only for *joined* workers: a job
    /// nobody picked up retires immediately, which is what makes nested or
    /// saturated submission degrade to inline execution instead of
    /// deadlocking.
    fn retire(&self, job: &Arc<JobCtl>) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(pos) = q.jobs.iter().position(|j| Arc::ptr_eq(j, job)) {
            q.jobs.remove(pos);
        }
        let joined = job.joined.load(Ordering::Relaxed);
        while job.finished.load(Ordering::Acquire) < joined {
            q = self
                .shared
                .done_cv
                .wait(q)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Parallel indexed map on this pool; see [`crate::par::par_map_indexed`]
    /// for the determinism contract.
    pub fn map_indexed<T, E, F>(
        &self,
        threads: usize,
        range: Range<u64>,
        stop: &AtomicBool,
        cost: CostHint,
        f: F,
    ) -> Result<Vec<(u64, T)>, WorkerFailure<E>>
    where
        T: Send,
        E: Send,
        F: Fn(u64) -> Result<T, E> + Sync,
    {
        self.map_indexed_scratch(threads, range, stop, cost, || (), |(), i| f(i))
    }

    /// Parallel indexed map with per-worker scratch state on this pool; see
    /// [`crate::par::par_map_indexed_scratch`] for the determinism contract.
    pub fn map_indexed_scratch<S, T, E, I, F>(
        &self,
        threads: usize,
        range: Range<u64>,
        stop: &AtomicBool,
        cost: CostHint,
        init: I,
        f: F,
    ) -> Result<Vec<(u64, T)>, WorkerFailure<E>>
    where
        T: Send,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, u64) -> Result<T, E> + Sync,
    {
        let items = range.end.saturating_sub(range.start);
        let mut threads = effective_threads(threads, items.min(usize::MAX as u64) as usize, cost);
        if in_pool_worker() {
            threads = 1;
        }
        let next = AtomicU64::new(range.start);
        let failed = AtomicBool::new(false);
        let failure: Mutex<Option<WorkerFailure<E>>> = Mutex::new(None);
        let cost_ns = AtomicU64::new(cost.per_item_nanos());
        let claims = AtomicU64::new(0);

        let record_failure = |fail: WorkerFailure<E>| {
            failed.store(true, Ordering::Relaxed);
            let mut slot = failure.lock().unwrap_or_else(|p| p.into_inner());
            if slot.as_ref().is_none_or(|prev| fail.index() < prev.index()) {
                *slot = Some(fail);
            }
        };

        let worker = |out: &mut Vec<(u64, T)>| {
            let mut scratch = init();
            'claims: loop {
                if stop.load(Ordering::Relaxed) || failed.load(Ordering::Relaxed) {
                    break;
                }
                let est = cost_ns.load(Ordering::Relaxed);
                let want = chunk_size(est, items, threads);
                let start = next.fetch_add(want, Ordering::Relaxed);
                if start >= range.end {
                    break;
                }
                let end = range.end.min(start.saturating_add(want));
                claims.fetch_add(1, Ordering::Relaxed);
                let probe = (est == 0).then(Instant::now);
                for i in start..end {
                    // A cooperative stop drops the unevaluated rest of the
                    // chunk (budgeted callers settle front-to-back and
                    // re-claim gaps next round). A failure elsewhere does
                    // NOT: finishing the claimed chunk preserves the
                    // smallest-failing-index guarantee, because claims are
                    // monotone in the cursor.
                    if stop.load(Ordering::Relaxed) {
                        break 'claims;
                    }
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut scratch, i)));
                    match outcome {
                        Ok(Ok(v)) => out.push((i, v)),
                        Ok(Err(e)) => {
                            record_failure(WorkerFailure::Err(i, e));
                            break 'claims;
                        }
                        Err(payload) => {
                            record_failure(WorkerFailure::Panic(i, panic_message(payload)));
                            break 'claims;
                        }
                    }
                }
                if let Some(t0) = probe {
                    let spent = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    let per_item = (spent / (end - start)).max(1);
                    let _ =
                        cost_ns.compare_exchange(0, per_item, Ordering::Relaxed, Ordering::Relaxed);
                }
            }
        };

        let mut results: Vec<(u64, T)> = Vec::with_capacity(items.min(1 << 20) as usize);
        if threads == 1 {
            worker(&mut results);
        } else {
            let extra = threads - 1;
            let slots: Vec<Mutex<Vec<(u64, T)>>> =
                (0..extra).map(|_| Mutex::new(Vec::new())).collect();
            let pool_panic: Mutex<Option<String>> = Mutex::new(None);
            let body = |slot: usize| {
                let run = panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut local = Vec::new();
                    worker(&mut local);
                    local
                }));
                match run {
                    Ok(local) => {
                        *slots[slot].lock().unwrap_or_else(|p| p.into_inner()) = local;
                    }
                    Err(payload) => {
                        // Only `init` can panic outside the per-item guard;
                        // match the scoped-spawn behavior by re-raising on
                        // the submitting thread once the job drains.
                        failed.store(true, Ordering::Relaxed);
                        let mut first = pool_panic.lock().unwrap_or_else(|p| p.into_inner());
                        if first.is_none() {
                            *first = Some(panic_message(payload));
                        }
                    }
                }
            };
            {
                let _guard = JobGuard {
                    pool: self,
                    job: self.submit(extra, &body),
                };
                worker(&mut results);
            }
            for slot in slots {
                results.append(&mut slot.into_inner().unwrap_or_else(|p| p.into_inner()));
            }
            results.sort_unstable_by_key(|&(i, _)| i);
            if let Some(msg) = pool_panic.into_inner().unwrap_or_else(|p| p.into_inner()) {
                panic!("pool worker panicked outside the item guard: {msg}");
            }
        }
        self.shared
            .chunks
            .fetch_add(claims.load(Ordering::Relaxed), Ordering::Relaxed);

        match failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(fail) => Err(fail),
            None => Ok(results),
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Ensures a submitted job is retired even if the submitter's own worker
/// body panics (e.g. a panicking `init` on the calling thread): the job must
/// never outlive the stack frame its body borrows from.
struct JobGuard<'p> {
    pool: &'p WorkerPool,
    job: Arc<JobCtl>,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        self.pool.retire(&self.job);
    }
}

/// Items to claim in one chunk given the current cost estimate.
fn chunk_size(est_ns: u64, items: u64, threads: usize) -> u64 {
    if est_ns == 0 {
        // Cost unknown: claim single items so the first completion can
        // publish a measured estimate (and so expensive items are never
        // over-claimed before we know they are expensive).
        return 1;
    }
    let target = (TARGET_CHUNK_NANOS / est_ns).max(1);
    let fair = (items / (threads as u64 * CLAIMS_PER_WORKER)).max(1);
    target.min(fair).min(MAX_CHUNK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::par_map_indexed_scratch_scoped;

    #[test]
    fn pooled_map_matches_scoped_reference_across_thread_counts() {
        let pool = WorkerPool::new(6);
        let stop = AtomicBool::new(false);
        let reference = par_map_indexed_scratch_scoped::<u64, u64, (), _, _>(
            1,
            0..500,
            &stop,
            || 0,
            |_, i| Ok(i.wrapping_mul(i) ^ 0x9e37),
        )
        .unwrap();
        for threads in [1, 2, 4, 7] {
            // Reuse the same pool many times: results must stay identical.
            for _ in 0..5 {
                let pooled = pool
                    .map_indexed_scratch::<u64, u64, (), _, _>(
                        threads,
                        0..500,
                        &stop,
                        CostHint::Unknown,
                        || 0,
                        |_, i| Ok(i.wrapping_mul(i) ^ 0x9e37),
                    )
                    .unwrap();
                assert_eq!(pooled, reference, "threads={threads}");
            }
        }
    }

    #[test]
    fn adaptive_chunking_is_output_invariant() {
        let pool = WorkerPool::new(3);
        let stop = AtomicBool::new(false);
        // Give wildly wrong and wildly varied hints: chunk geometry changes,
        // output must not.
        let hints = [
            CostHint::Unknown,
            CostHint::PerItemNanos(1),
            CostHint::PerItemNanos(200_000),
            CostHint::PerItemNanos(u64::MAX),
        ];
        let reference: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i * 3 + 1)).collect();
        for hint in hints {
            let out = pool
                .map_indexed::<u64, (), _>(4, 0..1000, &stop, hint, |i| Ok(i * 3 + 1))
                .unwrap();
            assert_eq!(out, reference, "hint={hint:?}");
        }
    }

    #[test]
    fn worker_panic_is_contained_and_pool_stays_usable() {
        let pool = WorkerPool::new(4);
        let stop = AtomicBool::new(false);
        let err = pool
            .map_indexed::<(), (), _>(4, 0..64, &stop, CostHint::Unknown, |i| {
                if i == 9 {
                    panic!("chaos {i}");
                }
                Ok(())
            })
            .unwrap_err();
        match err {
            WorkerFailure::Panic(9, msg) => assert!(msg.contains("chaos 9")),
            other => panic!("expected panic at 9, got {other:?}"),
        }
        // The pool survives the panic and keeps producing correct results.
        let ok = pool
            .map_indexed::<u64, (), _>(4, 0..64, &stop, CostHint::Unknown, |i| Ok(i + 1))
            .unwrap();
        assert_eq!(ok.len(), 64);
        assert!(ok.iter().all(|&(i, v)| v == i + 1));
    }

    #[test]
    fn smallest_failing_index_wins_with_adaptive_chunks() {
        let pool = WorkerPool::new(4);
        let stop = AtomicBool::new(false);
        // A cheap hint forces multi-item chunks; the reported failure must
        // still be the smallest failing index.
        for threads in [1, 4, 7] {
            let err = pool
                .map_indexed::<(), String, _>(
                    threads,
                    0..256,
                    &stop,
                    CostHint::PerItemNanos(10),
                    |i| {
                        if i % 50 == 13 {
                            Err(format!("bad {i}"))
                        } else {
                            Ok(())
                        }
                    },
                )
                .unwrap_err();
            assert_eq!(err, WorkerFailure::Err(13, "bad 13".into()));
        }
    }

    #[test]
    fn stats_count_jobs_chunks_and_parks() {
        let pool = WorkerPool::new(2);
        let stop = AtomicBool::new(false);
        let before = pool.stats();
        pool.map_indexed::<u64, (), _>(3, 0..100, &stop, CostHint::PerItemNanos(10_000), Ok)
            .unwrap();
        let after = pool.stats();
        assert_eq!(after.jobs, before.jobs + 1);
        assert!(after.chunks > before.chunks);
        // threads == 1 must bypass the pool entirely.
        pool.map_indexed::<u64, (), _>(1, 0..100, &stop, CostHint::Unknown, Ok)
            .unwrap();
        assert_eq!(pool.stats().jobs, after.jobs);
    }

    #[test]
    fn nested_maps_run_inline_without_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let stop = AtomicBool::new(false);
        let inner_pool = Arc::clone(&pool);
        let out = pool
            .map_indexed::<u64, (), _>(3, 0..8, &stop, CostHint::Unknown, |i| {
                let inner_stop = AtomicBool::new(false);
                let inner = inner_pool
                    .map_indexed::<u64, (), _>(4, 0..10, &inner_stop, CostHint::Unknown, |j| {
                        Ok(i * 100 + j)
                    })
                    .unwrap();
                Ok(inner.iter().map(|&(_, v)| v).sum())
            })
            .unwrap();
        let expect: Vec<(u64, u64)> = (0..8u64).map(|i| (i, i * 1000 + 45)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_worker_pool_runs_everything_inline() {
        let pool = WorkerPool::new(0);
        let stop = AtomicBool::new(false);
        let out = pool
            .map_indexed::<u64, (), _>(8, 0..50, &stop, CostHint::Unknown, |i| Ok(i * 2))
            .unwrap();
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|&(i, v)| v == i * 2));
    }

    #[test]
    fn drop_joins_all_workers() {
        // Run a job, then drop: Drop must join every resident thread (a
        // hang here fails the test harness timeout; completing proves the
        // shutdown handshake works even right after activity).
        let pool = WorkerPool::new(4);
        let live = pool.live_workers();
        assert_eq!(live.count(), 4);
        let stop = AtomicBool::new(false);
        pool.map_indexed::<u64, (), _>(4, 0..200, &stop, CostHint::Unknown, Ok)
            .unwrap();
        drop(pool);
        assert_eq!(live.count(), 0);
    }
}
