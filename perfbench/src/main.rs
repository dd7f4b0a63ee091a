//! End-to-end benchmark of the data debugger on the paper's hiring scenario.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! perfbench compare <base-output> <new-output>
//! ```
//!
//! One process runs one workload: after one untimed warm-up repetition it
//! repeats set-up and the timed phase until `--seconds` of timed work (and enough interactive steps for a p99)
//! are done, checks every repetition's outputs untimed, and prints a human
//! summary on stderr, then its record and, as the last stdout line, the
//! result object. With `--trace 0` the result holds the end-to-end metrics;
//! with `--trace 1` it holds the per-layer ledger, taken from repetitions
//! that alternate traced and untraced so the tracing overhead is measured
//! too. `compare` prints the median change of every metric between two
//! saved outputs and refuses records whose identities differ.

mod heap;
mod record;
mod stats;
mod trace;
mod workloads;

use nde_data::json::Json;
use nde_data::pool::{PoolStats, WorkerPool};
use record::{compact, config_hash, hw_threads, runner, Identity, MetricRecord, Record};
use stats::{percentile, summarize, tail_percentile, Summary};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{ledger_under, Span};
use workloads::fix_stream::{runs_root, store_root, FixStream};
use workloads::hiring_session::HiringSession;
use workloads::{Ctx, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Workloads with their default seed and the held-out seed that is used
/// only to confirm a claim made on the default.
const WORKLOADS: [(&str, u64, u64); 2] = [("hiring-session", 17, 9_017), ("fix-stream", 31, 9_031)];

/// Repetitions every run makes at least (medians need a middle). A traced
/// run alternates traced and untraced repetitions and makes more, so both
/// halves of the overhead comparison have a median.
const MIN_REPS: usize = 3;
const MIN_TRACED_RUN_REPS: usize = 5;
/// Interactive steps every run collects at least (from untraced
/// repetitions), so that ten of them lie beyond the p99.
const MIN_STEPS: usize = 1_000;
/// Set-ups timed and dropped after each repetition, on top of the one the
/// repetition uses. A set-up takes tens of milliseconds, inside one period
/// of the host's speed; spreading the samples over the whole run, rather
/// than taking them in one burst, lets their median follow the run.
const EXTRA_SETUPS_PER_REP: usize = 2;
/// Measuring stops after this long whatever else is unmet.
const MAX_MEASURE_S: f64 = 120.0;

/// End-to-end metrics, reported with `--trace 0`: medians over the run's
/// set-ups and repetitions, which each span many host scheduling periods.
/// Step latencies are not among them. On a shared host that alternates
/// between two speeds about 1.6x apart every second or so, the median of
/// sub-millisecond steps lands on one speed or the other depending on the
/// share of slow time in that minute, and moved by 30% between runs of one
/// build. They are reported per layer (`cleaning.step_ms_p50/p99`).
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("peak_heap_mb", "MB")];

/// How a per-layer metric is derived from a traced run.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Self time of spans with this name, ms per repetition.
    SelfMs(&'static str),
    /// Exact counter, per repetition.
    Count(&'static str),
    /// Median of per-call samples.
    Median(&'static str),
    /// Percentile of the interactive steps of untraced repetitions.
    StepPercentile(f64),
    /// Ratio of two counters.
    Ratio(&'static str, &'static str),
    /// Self time of a layer's spans as a share of the timed phase.
    Share(&'static str),
    /// Microseconds of Monte-Carlo estimator time per logical utility call.
    UsPerUtilityCall,
    /// Share of the timed phase covered by library-call spans.
    Coverage,
    /// Traced against untraced `wall_s`, in percent.
    Overhead,
}

use Source::*;

/// Per-layer metrics, reported with `--trace 1`: name, unit, better, source.
#[rustfmt::skip]
const PER_LAYER: [(&str, &str, &str, Source); 58] = [
    ("data.generate_ms", "ms", "lower", SelfMs("data.generate")),
    ("data.inject_ms", "ms", "lower", SelfMs("data.inject")),
    ("data.pool.jobs", "count", "lower", Count("data.pool.jobs")),
    ("data.pool.chunks", "count", "lower", Count("data.pool.chunks")),
    ("data.pool.parks", "count", "lower", Count("data.pool.parks")),
    ("data.pool.wakes", "count", "lower", Count("data.pool.wakes")),
    ("pipeline.exec_ms", "ms", "lower", SelfMs("pipeline.exec")),
    ("pipeline.exec_rows_out", "count", "lower", Count("pipeline.exec_rows_out")),
    ("pipeline.inspect_ms", "ms", "lower", SelfMs("pipeline.inspect")),
    ("pipeline.whatif_ms", "ms", "lower", SelfMs("pipeline.whatif")),
    ("pipeline.delta.apply_us.cell_patch", "us", "lower", Median("pipeline.delta.apply_us.cell_patch")),
    ("pipeline.delta.apply_us.splice", "us", "lower", Median("pipeline.delta.apply_us.splice")),
    ("pipeline.delta.apply_us.rerun", "us", "lower", Median("pipeline.delta.apply_us.rerun")),
    ("pipeline.delta.cell_patches", "count", "lower", Count("pipeline.delta.cell_patches")),
    ("pipeline.delta.splices", "count", "lower", Count("pipeline.delta.splices")),
    ("pipeline.delta.reruns", "count", "lower", Count("pipeline.delta.reruns")),
    ("pipeline.delta.rows_patched", "count", "lower", Count("pipeline.delta.rows_patched")),
    ("pipeline.encode_rows_us", "us", "lower", Median("pipeline.encode_rows_us")),
    ("ml.encode_ms", "ms", "lower", SelfMs("ml.encode")),
    ("ml.knn_eval_ms", "ms", "lower", SelfMs("ml.knn_eval")),
    ("importance.knn_shapley_ms", "ms", "lower", SelfMs("importance.knn_shapley")),
    ("importance.datascope_ms", "ms", "lower", SelfMs("importance.datascope")),
    ("importance.tmc_ms", "ms", "lower", SelfMs("importance.tmc")),
    ("importance.us_per_utility_call", "us", "lower", UsPerUtilityCall),
    ("importance.utility_calls", "count", "lower", Count("importance.utility_calls")),
    ("importance.cache_hits", "count", "higher", Count("importance.cache_hits")),
    ("importance.batches_formed", "count", "lower", Count("importance.batches_formed")),
    ("importance.batched_evals", "count", "higher", Count("importance.batched_evals")),
    ("importance.fallback_evals", "count", "lower", Count("importance.fallback_evals")),
    ("importance.cache_hit_ratio", "ratio", "higher", Ratio("importance.cache_hits", "importance.utility_calls")),
    ("importance.evals_per_utility_call", "ratio", "lower", Ratio("importance.evals", "importance.utility_calls")),
    ("cleaning.session_build_ms", "ms", "lower", SelfMs("cleaning.session_build")),
    ("cleaning.fix_ms", "ms", "lower", SelfMs("cleaning.fix")),
    ("cleaning.step_ms_p50", "ms", "lower", StepPercentile(50.0)),
    ("cleaning.step_ms_p99", "ms", "lower", StepPercentile(99.0)),
    ("cleaning.fix_us.cell_patch", "us", "lower", Median("cleaning.fix_us.cell_patch")),
    ("cleaning.fix_us.splice", "us", "lower", Median("cleaning.fix_us.splice")),
    ("cleaning.fix_us.rerun", "us", "lower", Median("cleaning.fix_us.rerun")),
    ("cleaning.rows_reencoded", "count", "lower", Count("cleaning.rows_reencoded")),
    ("cleaning.full_reencodes", "count", "lower", Count("cleaning.full_reencodes")),
    ("cleaning.cache_evictions", "count", "lower", Count("cleaning.cache_evictions")),
    ("cleaning.reencode_ratio", "ratio", "lower", Ratio("cleaning.rows_reencoded", "pipeline.delta.affected_rows")),
    ("robust.save_ms", "ms", "lower", SelfMs("robust.save")),
    ("robust.save_us", "us", "lower", Median("robust.save_us")),
    ("robust.bytes_written", "count", "lower", Count("robust.bytes_written")),
    ("uncertain.encode_ms", "ms", "lower", SelfMs("uncertain.encode")),
    ("uncertain.zorro_fit_ms", "ms", "lower", SelfMs("uncertain.zorro_fit")),
    ("uncertain.zorro_epochs", "count", "lower", Count("uncertain.zorro_epochs")),
    ("uncertain.zorro_eval_ms", "ms", "lower", SelfMs("uncertain.zorro_eval")),
    ("share.data", "ratio", "lower", Share("data")),
    ("share.pipeline", "ratio", "lower", Share("pipeline")),
    ("share.ml", "ratio", "lower", Share("ml")),
    ("share.importance", "ratio", "lower", Share("importance")),
    ("share.cleaning", "ratio", "lower", Share("cleaning")),
    ("share.robust", "ratio", "lower", Share("robust")),
    ("share.uncertain", "ratio", "lower", Share("uncertain")),
    ("trace.coverage", "ratio", "higher", Coverage),
    ("trace.overhead_pct", "%", "lower", Overhead),
];

/// Command-line options of a measuring run.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (_, default_seed, _) = WORKLOADS
        .iter()
        .find(|(name, ..)| *name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        seed: seed.unwrap_or(*default_seed),
        workload,
        seconds,
        trace,
    })
}

/// Everything one measuring loop collected.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    traced_wall_s: Vec<f64>,
    untraced_wall_s: Vec<f64>,
    traced_reps: usize,
    spans: Vec<Span>,
    /// Counters of traced repetitions (the ledger).
    counters: BTreeMap<&'static str, f64>,
    /// Counters of untraced repetitions (the human summary).
    untraced_counters: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

fn pool_delta(before: PoolStats, after: PoolStats) -> [(&'static str, f64); 4] {
    [
        ("data.pool.jobs", (after.jobs - before.jobs) as f64),
        ("data.pool.chunks", (after.chunks - before.chunks) as f64),
        ("data.pool.parks", (after.parks - before.parks) as f64),
        ("data.pool.wakes", (after.wakes - before.wakes) as f64),
    ]
}

/// Repeat set-up, timed phase and checks until the run has measured enough.
/// One untimed repetition warms caches, the allocator and the worker pool
/// first; in a traced run every second repetition after it is traced.
fn measure<W: Workload>(w: &W, args: &Args, ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let started = Instant::now();
    let pool = WorkerPool::shared();
    match w.setup(args.seed, ctx) {
        Ok(mut state) => {
            if let Err(e) = w.run(&mut state, ctx) {
                ctx.fail(format!("{} warm-up failed: {e}", w.name()));
            }
        }
        Err(e) => ctx.fail(format!("{} warm-up set-up failed: {e}", w.name())),
    }
    ctx.take_counters();
    ctx.take_samples();
    ctx.take_steps();
    for rep in 0.. {
        let traced = args.trace && rep % 2 == 1;
        ctx.tracer.set_enabled(traced);
        let before = pool.stats();
        let t0 = Instant::now();
        let state = ctx.tracer.span("setup", || w.setup(args.seed, ctx));
        m.setup_s.push(t0.elapsed().as_secs_f64());
        let mut state = match state {
            Ok(s) => s,
            Err(e) => {
                ctx.fail(format!("{} set-up failed: {e}", w.name()));
                break;
            }
        };
        ctx.begin_repetition();
        let t1 = Instant::now();
        let ran = ctx.tracer.span("timed", || w.run(&mut state, ctx));
        let wall = t1.elapsed().as_secs_f64();
        let pool_counts = pool_delta(before, pool.stats());
        ctx.tracer.set_enabled(false);
        if let Err(e) = ran {
            ctx.fail(format!("{} failed: {e}", w.name()));
            break;
        }
        if let Err(e) = w.check(&state, ctx) {
            ctx.fail(format!("{} check failed: {e}", w.name()));
        }
        if traced {
            if let Err(e) = w.traced_extras(&state, ctx) {
                ctx.fail(format!("{} traced replay failed: {e}", w.name()));
            }
        }
        let counters = ctx.take_counters();
        let samples = ctx.take_samples();
        if traced {
            m.traced_reps += 1;
            m.traced_wall_s.push(wall);
            // Parent indices are per take; shift them into the run's list.
            let offset = m.spans.len();
            m.spans.extend(ctx.tracer.take().into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
            for (k, v) in counters.into_iter().chain(pool_counts) {
                *m.counters.entry(k).or_insert(0.0) += v;
            }
            for (k, v) in samples {
                m.samples.entry(k).or_default().extend(v);
            }
        } else {
            m.untraced_wall_s.push(wall);
            for (k, v) in counters {
                *m.untraced_counters.entry(k).or_insert(0.0) += v;
            }
        }
        drop(state);
        for _ in 0..EXTRA_SETUPS_PER_REP {
            let t0 = Instant::now();
            let state = w.setup(args.seed, ctx);
            m.setup_s.push(t0.elapsed().as_secs_f64());
            if let Err(e) = state {
                ctx.fail(format!("{} set-up failed: {e}", w.name()));
            }
        }

        let reps = rep + 1;
        let timed: f64 = m.traced_wall_s.iter().chain(&m.untraced_wall_s).sum();
        let steps_done = ctx.step_count() >= MIN_STEPS;
        let min_reps = if args.trace {
            MIN_TRACED_RUN_REPS
        } else {
            MIN_REPS
        };
        if reps >= min_reps && timed >= args.seconds && steps_done {
            break;
        }
        if started.elapsed().as_secs_f64() > MAX_MEASURE_S {
            break;
        }
    }
    ctx.take_counters();
    ctx.take_samples();
    m
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn one(v: f64) -> Summary {
    Summary {
        n: 1,
        q1: v,
        median: v,
        q3: v,
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(m: &Measured) -> Vec<MetricRecord> {
    let values: [Option<Summary>; 3] = [
        summarize(&m.setup_s),
        summarize(&m.untraced_wall_s),
        Some(one(heap::peak_mb())),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .filter_map(|(&(name, unit), s)| {
            Some(MetricRecord {
                name: name.into(),
                unit: unit.into(),
                summary: s?,
            })
        })
        .collect()
}

/// The per-layer ledger of a traced run.
fn per_layer(m: &Measured, steps: &[f64], ctx: &Ctx) -> Vec<MetricRecord> {
    let reps = m.traced_reps.max(1) as f64;
    let (setup_ledger, _) = ledger_under(&m.spans, "setup");
    let (timed_ledger, timed_ns) = ledger_under(&m.spans, "timed");
    let self_ms = |name: &str| -> f64 {
        let ns = setup_ledger.get(name).copied().unwrap_or(0)
            + timed_ledger.get(name).copied().unwrap_or(0);
        ns as f64 / 1e6 / reps
    };
    let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0.0);
    let share = |layer: &str| -> f64 {
        let prefix = format!("{layer}.");
        let ns: u64 = timed_ledger
            .iter()
            .filter(|(name, _)| name.starts_with(&prefix))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / timed_ns.max(1) as f64
    };
    let traced = stats::median(&m.traced_wall_s);
    let untraced = stats::median(&m.untraced_wall_s);
    ctx.check(traced.is_some() && untraced.is_some(), || {
        "traced run lacks a traced or an untraced repetition".into()
    });
    PER_LAYER
        .iter()
        .map(|&(name, unit, _, source)| {
            let value = match source {
                SelfMs(span) => self_ms(span),
                Count(c) => counter(c) / reps,
                Median(s) => m
                    .samples
                    .get(s)
                    .and_then(|v| stats::median(v))
                    .unwrap_or(0.0),
                Ratio(num, den) => {
                    let d = counter(den);
                    if d > 0.0 {
                        counter(num) / d
                    } else {
                        0.0
                    }
                }
                StepPercentile(p) => percentile(steps, p).unwrap_or(0.0),
                Share(layer) => share(layer),
                UsPerUtilityCall => {
                    let ms = self_ms("importance.tmc");
                    let calls = counter("importance.utility_calls") / reps;
                    if calls > 0.0 {
                        ms * 1e3 / calls
                    } else {
                        0.0
                    }
                }
                Coverage => {
                    1.0 - timed_ledger.get("timed").copied().unwrap_or(0) as f64
                        / timed_ns.max(1) as f64
                }
                Overhead => match (traced, untraced) {
                    (Some(t), Some(u)) => (t / u - 1.0) * 100.0,
                    _ => 0.0,
                },
            };
            MetricRecord {
                name: name.into(),
                unit: unit.into(),
                summary: one(value),
            }
        })
        .collect()
}

/// The issue-level summary for a person reading the run: the seven
/// end-to-end numbers where they apply, by name and unit.
fn human_summary(workload: &str, m: &Measured, steps: &[f64], ctx: &Ctx) {
    let med = |v: &[f64]| stats::median(v).map_or("n/a".to_string(), |x| format!("{x:.4}"));
    let fixes = workload == "fix-stream";
    let fix_ms = |value: Option<f64>| match value {
        Some(x) if fixes => format!("{x:.4}"),
        _ => "n/a".to_string(),
    };
    let counter = |k| m.untraced_counters.get(k).copied().unwrap_or(0.0);
    let (calls, secs) = (
        counter("importance.utility_calls"),
        counter("importance.estimator_s"),
    );
    let ups = if calls > 0.0 && secs > 0.0 {
        format!("{:.1}", calls / secs)
    } else {
        "n/a".to_string()
    };
    let rate = ctx.failures().len() as f64 / ctx.attempted().max(1) as f64;
    eprintln!(
        "workload {workload}: {} repetitions, {} set-ups, {} steps",
        m.traced_wall_s.len() + m.untraced_wall_s.len(),
        m.setup_s.len(),
        steps.len()
    );
    for (name, unit, value) in [
        ("setup_s", "s", med(&m.setup_s)),
        ("wall_s", "s", med(&m.untraced_wall_s)),
        ("fix_ms_p50", "ms", fix_ms(stats::median(steps))),
        ("fix_ms_p99", "ms", fix_ms(percentile(steps, 99.0))),
        ("utility_calls_per_s", "1/s", ups),
        (
            "peak_rss_mb",
            "MB",
            peak_rss_mb().map_or("n/a".into(), |x| format!("{x:.1}")),
        ),
        ("peak_heap_mb", "MB", format!("{:.1}", heap::peak_mb())),
        ("error_rate", "ratio", format!("{rate}")),
    ] {
        eprintln!("  {name:<20} {value:>14} {unit}");
    }
    for failure in ctx.failures() {
        eprintln!("  FAILED: {failure}");
    }
}

fn run_workload(args: &Args) -> ExitCode {
    let threads = hw_threads();
    let ctx = Ctx::new(threads);
    let (m, config) = match args.workload.as_str() {
        "hiring-session" => run_one(&HiringSession::default(), args, &ctx),
        "fix-stream" => run_one(&FixStream::default(), args, &ctx),
        other => unreachable!("workload {other} was validated"),
    };
    let _ = std::fs::remove_dir_all(store_root());
    let _ = std::fs::remove_dir(runs_root());
    let steps = ctx.steps();
    let p99_ok = tail_percentile(steps.len()).is_some_and(|p| p >= 99.0);
    ctx.check(p99_ok, || {
        format!(
            "{} steps are too few for a p99 with ten beyond it",
            steps.len()
        )
    });
    let metrics = if args.trace {
        per_layer(&m, &steps, &ctx)
    } else {
        end_to_end(&m)
    };
    let expected = if args.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    ctx.check(metrics.len() == expected, || {
        format!("{} of {expected} metrics measured", metrics.len())
    });
    for metric in &metrics {
        ctx.check(record::valid_metric_name(&metric.name), || {
            format!("illegal metric name {}", metric.name)
        });
    }
    human_summary(&args.workload, &m, &steps, &ctx);

    let record = Record {
        identity: Identity {
            workload: args.workload.clone(),
            seed: args.seed,
            config_hash: config_hash(&format!(
                "{config};threads={threads};seconds={};trace={}",
                args.seconds, args.trace
            )),
            runner: runner(),
        },
        hw_threads: threads,
        attempted: ctx.attempted(),
        failed: ctx.failures().len() as u64,
        metrics,
    };
    println!(
        "{}",
        compact(&Json::Obj(vec![("record".into(), record.to_json())]))
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(record.failed == 0)),
        ("attempted".into(), Json::UInt(record.attempted.max(1))),
        ("failed".into(), Json::UInt(record.failed)),
        (
            "metrics".into(),
            Json::Obj(
                record
                    .metrics
                    .iter()
                    .map(|m| {
                        let body = Json::Obj(vec![
                            ("value".into(), Json::Float(m.summary.median)),
                            ("unit".into(), Json::Str(m.unit.clone())),
                        ]);
                        (m.name.clone(), body)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", compact(&result));
    ExitCode::SUCCESS
}

fn run_one<W: Workload>(w: &W, args: &Args, ctx: &Ctx) -> (Measured, String) {
    (measure(w, args, ctx), w.config())
}

/// The record line of a saved benchmark output.
fn load_record(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = text
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .find_map(|d| d.get("record").cloned())
        .ok_or_else(|| format!("{path}: no record line"))?;
    Record::from_json(&doc)
}

fn compare_outputs(base: &str, new: &str) -> ExitCode {
    let result = load_record(base)
        .and_then(|b| load_record(new).map(|n| (b, n)))
        .and_then(|(b, n)| record::compare(&b, &n));
    match result {
        Ok(changes) => {
            for (name, change) in changes {
                println!("{name:<40} {:+.2}%", change * 100.0);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [base, new] => compare_outputs(base, new),
            _ => {
                eprintln!("usage: perfbench compare <base-output> <new-output>");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&args) {
        Ok(args) => run_workload(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                WORKLOADS.map(|(n, ..)| n).join("|")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root lists exactly the metrics this
    /// program prints, with legal names.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, ..)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        for (name, _) in e2e.iter().chain(&layers) {
            assert!(record::valid_metric_name(name), "{name}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(n, ..)| n.to_string()));
    }

    #[test]
    fn args_reject_unknown_workloads_and_flags() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload fix-stream --seed 5 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (5, 3.0, true));
        assert_eq!(parse("--workload fix-stream").unwrap().seed, 31);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fix-stream --trace 2").is_err());
        assert!(parse("--workload fix-stream --bogus 1").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
