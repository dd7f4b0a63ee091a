//! The two workloads and what they share: the measurement context and the
//! seeded hiring-scenario inputs.

pub mod fix_stream;
pub mod hiring_session;

use crate::trace::Tracer;
use nde::scenario::{load_recommendation_letters, LettersScenario};
use nde_data::rng::{permutation, seeded};
use nde_data::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Error type of every workload step.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Share of jobs in the `healthcare` sector, which the Fig. 3 pipeline keeps.
const HEALTHCARE_SHARE: f64 = 0.4;

/// Steps at the start of each repetition left out of the step latencies.
/// The first fix after a session is built runs on cold caches and takes
/// 2-5 times a warm one; a user pays that once per session, but a run
/// builds a session per repetition, so those few steps alone would set
/// the p99. They stay in `wall_s`.
const WARMUP_STEPS: usize = 2;

/// Measurement context handed to every workload phase.
pub struct Ctx {
    /// Span recorder (on only in traced repetitions).
    pub tracer: Tracer,
    /// Thread count passed to every library call that takes one (`nproc`).
    pub threads: usize,
    ops: Cell<u64>,
    failures: RefCell<Vec<String>>,
    steps_ms: RefCell<Vec<f64>>,
    rep_steps: Cell<usize>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
    samples: RefCell<BTreeMap<&'static str, Vec<f64>>>,
}

impl Ctx {
    /// A context that hands `threads` to the library.
    pub fn new(threads: usize) -> Ctx {
        Ctx {
            tracer: Tracer::default(),
            threads,
            ops: Cell::new(0),
            failures: RefCell::new(Vec::new()),
            steps_ms: RefCell::new(Vec::new()),
            rep_steps: Cell::new(0),
            counters: RefCell::new(BTreeMap::new()),
            samples: RefCell::new(BTreeMap::new()),
        }
    }

    /// One public library call, counted as an attempted operation and
    /// wrapped in a span named `<layer>.<what>`.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.ops.set(self.ops.get() + 1);
        self.tracer.span(name, f)
    }

    /// One interactive step, made of one or more [`Ctx::call`]s: its
    /// latency feeds `cleaning.step_ms_p50` / `cleaning.step_ms_p99`, from
    /// untraced repetitions only.
    pub fn step<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let n = self.rep_steps.get();
        self.rep_steps.set(n + 1);
        if n >= WARMUP_STEPS && !self.tracer.enabled() {
            self.steps_ms.borrow_mut().push(ms);
        }
        out
    }

    /// Mark the start of a repetition (for the step warm-up).
    pub fn begin_repetition(&self) {
        self.rep_steps.set(0);
    }

    /// A correctness check; a false `ok` counts as a failure.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.ops.set(self.ops.get() + 1);
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed operation or check.
    pub fn fail(&self, what: String) {
        self.failures.borrow_mut().push(what);
    }

    /// Add `v` to an exact per-repetition counter.
    pub fn count(&self, name: &'static str, v: f64) {
        *self.counters.borrow_mut().entry(name).or_insert(0.0) += v;
    }

    /// Record one sample of a per-call quantity (reported as its median).
    pub fn sample(&self, name: &'static str, v: f64) {
        self.samples.borrow_mut().entry(name).or_default().push(v);
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.ops.get()
    }

    /// Failures so far.
    pub fn failures(&self) -> Vec<String> {
        self.failures.borrow().clone()
    }

    /// Step latencies recorded so far.
    pub fn steps(&self) -> Vec<f64> {
        self.steps_ms.borrow().clone()
    }

    /// Drop the step latencies recorded so far.
    pub fn take_steps(&self) {
        self.steps_ms.borrow_mut().clear();
    }

    /// Number of step latencies recorded so far.
    pub fn step_count(&self) -> usize {
        self.steps_ms.borrow().len()
    }

    /// Take the counters recorded since the last call.
    pub fn take_counters(&self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut *self.counters.borrow_mut())
    }

    /// Take the samples recorded since the last call.
    pub fn take_samples(&self) -> BTreeMap<&'static str, Vec<f64>> {
        std::mem::take(&mut *self.samples.borrow_mut())
    }
}

/// One benchmark workload: seeded set-up, a timed phase, and untimed
/// correctness checks.
pub trait Workload {
    /// Everything set-up builds and the timed phase consumes.
    type State;
    /// Workload name, as passed to `--workload`.
    fn name(&self) -> &'static str;
    /// Canonical rendering of every setting that shapes the work.
    fn config(&self) -> String;
    /// Generate inputs from `seed` and build what the timed phase needs.
    fn setup(&self, seed: u64, ctx: &Ctx) -> Res<Self::State>;
    /// The work the user waits for.
    fn run(&self, state: &mut Self::State, ctx: &Ctx) -> Res<()>;
    /// Untimed correctness checks after [`Workload::run`].
    fn check(&self, state: &Self::State, ctx: &Ctx) -> Res<()>;
    /// Extra per-layer samples and counters for traced repetitions, taken
    /// untraced after the checks.
    fn traced_extras(&self, _state: &Self::State, _ctx: &Ctx) -> Res<()> {
        Ok(())
    }
}

/// The letters scenario for `n` applicants, split 60/20/20, with exactly
/// [`HEALTHCARE_SHARE`] of the jobs in the `healthcare` sector and each
/// split's letters dealt round-robin over the jobs in a seeded order. The
/// generator draws sectors and job ids independently, so without this the
/// Fig. 3 pipeline's output size, and every cost downstream of it, would
/// swing by a fifth from seed to seed.
pub fn scenario(n: usize, seed: u64) -> Res<LettersScenario> {
    let mut s = load_recommendation_letters(n, seed);
    let jobs = &mut s.job_details;
    let n_jobs = jobs.n_rows();
    let healthcare = (n_jobs as f64 * HEALTHCARE_SHARE).round() as usize;
    let order = permutation(n_jobs, &mut seeded(seed ^ 0x5ec7_0125));
    for (rank, &row) in order.iter().enumerate() {
        let sector = if rank < healthcare {
            "healthcare".to_string()
        } else {
            match jobs.get(row, "sector")? {
                Value::Str(s) if s != "healthcare" => s,
                _ => "tech".to_string(),
            }
        };
        jobs.set(row, "sector", Value::Str(sector))?;
    }
    let job_ids = (0..n_jobs)
        .map(|r| s.job_details.get(r, "job_id"))
        .collect::<Result<Vec<_>, _>>()?;
    for (salt, split) in [&mut s.train, &mut s.valid, &mut s.test]
        .into_iter()
        .enumerate()
    {
        let deal = permutation(n_jobs, &mut seeded(seed ^ 0x10b5 ^ salt as u64));
        for r in 0..split.n_rows() {
            split.set(r, "job_id", job_ids[deal[r % n_jobs]].clone())?;
        }
    }
    Ok(s)
}

/// Bit-level equality of two float slices.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
