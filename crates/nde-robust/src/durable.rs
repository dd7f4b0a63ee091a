//! Crash-safe on-disk run store and supervised resume.
//!
//! Long-running estimation loops (Monte-Carlo Shapley sweeps, interval
//! gradient descent, prioritized cleaning) checkpoint their state as JSON,
//! but an in-memory checkpoint dies with the process. [`RunStore`] gives
//! those snapshots a durable home:
//!
//! - **Atomic records.** Every checkpoint is written to a temp file and
//!   atomically renamed into place, so a crash mid-write leaves at worst a
//!   stray `.tmp` — never a half-written record under the real name.
//! - **Checksummed, versioned envelopes.** Each record wraps its payload in
//!   an envelope carrying a format version, the run fingerprint, the step
//!   number, and an [`FxHasher`]-based checksum of the serialized payload.
//!   [`RunStore::latest_valid`] walks records newest-first and skips any
//!   that are truncated, corrupt, mis-fingerprinted, or from a different
//!   format version — a torn write or bit-rot costs at most one
//!   checkpoint interval, never the run.
//! - **Fingerprint keys.** Records are grouped by [`RunFingerprint`] —
//!   method, seed, a config tag, and a 64-bit data fingerprint — so a
//!   resumed process only ever picks up state written by an identical run.
//! - **Cross-process memo persistence.** A coalition-utility [`MemoCache`]
//!   serializes through the same envelope ([`RunStore::save_memo`] /
//!   [`RunStore::load_memo`]), letting a restarted run re-serve utilities
//!   evaluated before the crash.
//!
//! [`supervise`] ties it together: it runs a closure under
//! `catch_unwind`, turning crashes into [`RetryPolicy`]-governed restarts,
//! with each attempt handed a [`SuperviseCtx`] through which it loads the
//! latest valid record and writes new ones. Because every estimator's
//! checkpoint restores its exact fold state (running sums, RNG streams,
//! cursors), a supervised run that crashed and resumed produces results
//! **bit-identical** to an uninterrupted one.

use crate::error::RobustError;
use crate::retry::RetryPolicy;
use crate::Result;
use nde_data::fxhash::FxHasher;
use nde_data::json::Json;
use nde_data::par::MemoCache;
use std::cell::Cell;
use std::hash::Hasher;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Once;

// Crashes we supervise must not spam stderr through the default panic hook,
// but hooks are process-global: install a delegating hook once and silence
// it only on threads currently inside a supervised body (the same pattern
// as `nde-pipeline`'s per-tuple panic isolation).
thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<u32> = const { Cell::new(0) };
}
static INSTALL_HOOK: Once = Once::new();

fn install_quiet_hook() {
    INSTALL_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) == 0 {
                previous(info);
            }
        }));
    });
}

fn catch_supervised<T>(f: impl FnOnce() -> T) -> std::result::Result<T, String> {
    install_quiet_hook();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(s.get() + 1));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(s.get() - 1));
    outcome.map_err(panic_message)
}

/// On-disk format version of records and their snapshot payloads; bumped on
/// incompatible layout changes. Records from another version are skipped by
/// [`RunStore::latest_valid`].
pub const STORE_FORMAT_VERSION: u64 = 2;

/// FxHash-64 over a serialized payload — the record checksum.
pub fn payload_checksum(text: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

/// Identity of a resumable run: which estimator, which seed, which
/// configuration, over which data. Records are stored under the hex digest
/// of all four, so state from a different run can never be resumed into
/// this one — even if both share a store directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Estimator name (e.g. `"tmc-shapley"`).
    pub method: String,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Canonical rendering of every config knob that changes the
    /// trajectory (sample counts, tolerances, batch policy, ...).
    pub config: String,
    /// 64-bit fingerprint of the input data (e.g.
    /// `nde_ml::dataset::Dataset::fingerprint` folded over train + valid).
    pub data: u64,
}

impl RunFingerprint {
    /// Build a fingerprint from the four identity components.
    pub fn new(
        method: impl Into<String>,
        seed: u64,
        config: impl Into<String>,
        data: u64,
    ) -> RunFingerprint {
        RunFingerprint {
            method: method.into(),
            seed,
            config: config.into(),
            data,
        }
    }

    /// The store key: `<method>-<16-hex-digit digest>`. The method prefix
    /// keeps store directories human-readable; the digest covers all four
    /// components.
    pub fn key(&self) -> String {
        let mut h = FxHasher::default();
        h.write(self.method.as_bytes());
        h.write_u64(self.seed);
        h.write(self.config.as_bytes());
        h.write_u64(self.data);
        let digest = h.finish();
        let slug: String = self
            .method
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!("{slug}-{digest:016x}")
    }
}

/// A validated checkpoint record read back from a [`RunStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Monotone step number the writer assigned (iterations done, epochs
    /// done, fixes applied, ...).
    pub step: u64,
    /// The estimator snapshot, exactly as written.
    pub payload: Json,
}

/// Crash-safe checkpoint store rooted at a directory.
///
/// Layout: one subdirectory per [`RunFingerprint::key`], holding
/// `ckpt-<step>.json` records plus an optional `memo.json` utility cache.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<RunStore> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| RobustError::Io(format!("creating store {}: {e}", root.display())))?;
        Ok(RunStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding this run's records (not created until the
    /// first write).
    pub fn run_dir(&self, fingerprint: &RunFingerprint) -> PathBuf {
        self.root.join(fingerprint.key())
    }

    fn record_path(&self, fingerprint: &RunFingerprint, step: u64) -> PathBuf {
        self.run_dir(fingerprint)
            .join(format!("ckpt-{step:020}.json"))
    }

    fn envelope(&self, fingerprint: &RunFingerprint, step: u64, payload: &Json) -> String {
        Json::Obj(vec![
            ("format_version".into(), Json::UInt(STORE_FORMAT_VERSION)),
            ("fingerprint".into(), Json::Str(fingerprint.key())),
            ("step".into(), Json::UInt(step)),
            (
                "checksum".into(),
                Json::UInt(payload_checksum(&payload.to_string_pretty())),
            ),
            ("payload".into(), payload.clone()),
        ])
        .to_string_pretty()
    }

    fn write_atomic(path: &Path, text: &str) -> Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)
            .map_err(|e| RobustError::Io(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| RobustError::Io(format!("renaming {}: {e}", path.display())))
    }

    /// Durably write one checkpoint record (write-temp-then-atomic-rename).
    /// Returns the record's final path.
    pub fn save_checkpoint(
        &self,
        fingerprint: &RunFingerprint,
        step: u64,
        payload: &Json,
    ) -> Result<PathBuf> {
        let dir = self.run_dir(fingerprint);
        std::fs::create_dir_all(&dir)
            .map_err(|e| RobustError::Io(format!("creating {}: {e}", dir.display())))?;
        let path = self.record_path(fingerprint, step);
        RunStore::write_atomic(&path, &self.envelope(fingerprint, step, payload))?;
        Ok(path)
    }

    /// All record paths for a run, sorted by ascending step — including
    /// records that would fail validation (chaos tests corrupt these
    /// in place).
    pub fn record_paths(&self, fingerprint: &RunFingerprint) -> Result<Vec<(u64, PathBuf)>> {
        let dir = self.run_dir(fingerprint);
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| RobustError::Io(format!("listing {}: {e}", dir.display())))?;
        let mut out = Vec::new();
        for entry in entries {
            let entry =
                entry.map_err(|e| RobustError::Io(format!("listing {}: {e}", dir.display())))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(step) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((step, entry.path()));
        }
        out.sort_unstable_by_key(|&(step, _)| step);
        Ok(out)
    }

    /// Parse and validate one record file against the expected fingerprint.
    fn read_record(path: &Path, expected_key: &str) -> Result<CheckpointRecord> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| RobustError::Io(format!("reading {}: {e}", path.display())))?;
        let doc = Json::parse(&text).map_err(|e| {
            RobustError::Checkpoint(format!(
                "truncated or corrupt record {}: {e}",
                path.display()
            ))
        })?;
        let version = doc.get("format_version").and_then(Json::as_u64);
        if version != Some(STORE_FORMAT_VERSION) {
            return Err(RobustError::Checkpoint(format!(
                "record {} has format version {version:?}, expected {STORE_FORMAT_VERSION}",
                path.display()
            )));
        }
        let key = doc.get("fingerprint").and_then(Json::as_str);
        if key != Some(expected_key) {
            return Err(RobustError::Checkpoint(format!(
                "record {} belongs to run {key:?}, expected {expected_key}",
                path.display()
            )));
        }
        let step = doc.get("step").and_then(Json::as_u64).ok_or_else(|| {
            RobustError::Checkpoint(format!("record {} lacks a step", path.display()))
        })?;
        let stored = doc.get("checksum").and_then(Json::as_u64).ok_or_else(|| {
            RobustError::Checkpoint(format!("record {} lacks a checksum", path.display()))
        })?;
        let payload = doc.get("payload").ok_or_else(|| {
            RobustError::Checkpoint(format!("record {} lacks a payload", path.display()))
        })?;
        let actual = payload_checksum(&payload.to_string_pretty());
        if stored != actual {
            return Err(RobustError::Checkpoint(format!(
                "record {} checksum mismatch: stored {stored}, computed {actual}",
                path.display()
            )));
        }
        Ok(CheckpointRecord {
            step,
            payload: payload.clone(),
        })
    }

    /// The newest record that passes every validation layer (parse,
    /// version, fingerprint, checksum), or `None` when no usable record
    /// exists. Invalid records are skipped, not deleted — recovery never
    /// destroys evidence.
    pub fn latest_valid(&self, fingerprint: &RunFingerprint) -> Result<Option<CheckpointRecord>> {
        let key = fingerprint.key();
        for (_, path) in self.record_paths(fingerprint)?.iter().rev() {
            if let Ok(record) = RunStore::read_record(path, &key) {
                return Ok(Some(record));
            }
        }
        Ok(None)
    }

    /// Persist a [`MemoCache`] snapshot under this fingerprint (atomically,
    /// same envelope + checksum as checkpoint records). Entries are sorted
    /// by fingerprint, so the file is byte-deterministic for a given cache
    /// content.
    pub fn save_memo(&self, fingerprint: &RunFingerprint, cache: &MemoCache) -> Result<PathBuf> {
        let entries = cache.entries();
        let payload = Json::Obj(vec![(
            "entries".into(),
            Json::Arr(
                entries
                    .iter()
                    .map(|&(k, v)| Json::Arr(vec![Json::UInt(k), Json::Float(v)]))
                    .collect(),
            ),
        )]);
        let dir = self.run_dir(fingerprint);
        std::fs::create_dir_all(&dir)
            .map_err(|e| RobustError::Io(format!("creating {}: {e}", dir.display())))?;
        let path = dir.join("memo.json");
        RunStore::write_atomic(
            &path,
            &self.envelope(fingerprint, entries.len() as u64, &payload),
        )?;
        Ok(path)
    }

    /// Load a persisted memo snapshot into `cache`, returning how many
    /// entries were restored. A missing or invalid file restores nothing
    /// (0) — the cache is an accelerator, so corruption degrades to a cold
    /// start rather than an error.
    pub fn load_memo(&self, fingerprint: &RunFingerprint, cache: &MemoCache) -> Result<usize> {
        let path = self.run_dir(fingerprint).join("memo.json");
        if !path.exists() {
            return Ok(0);
        }
        let Ok(record) = RunStore::read_record(&path, &fingerprint.key()) else {
            return Ok(0);
        };
        let Some(raw) = record.payload.get("entries").and_then(Json::as_arr) else {
            return Ok(0);
        };
        let mut entries = Vec::with_capacity(raw.len());
        for pair in raw {
            let Some(items) = pair.as_arr() else {
                return Ok(0);
            };
            let (Some(k), Some(v)) = (
                items.first().and_then(Json::as_u64),
                items.get(1).and_then(Json::as_f64),
            ) else {
                return Ok(0);
            };
            if !v.is_finite() {
                return Ok(0);
            }
            entries.push((k, v));
        }
        Ok(cache.load_entries(&entries))
    }
}

/// Handle a supervised closure uses to talk to its [`RunStore`].
#[derive(Debug)]
pub struct SuperviseCtx<'a> {
    store: &'a RunStore,
    fingerprint: &'a RunFingerprint,
    attempt: u32,
}

impl SuperviseCtx<'_> {
    /// 1-based attempt number (1 on the first run, 2 after one restart...).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The store this run checkpoints into.
    pub fn store(&self) -> &RunStore {
        self.store
    }

    /// This run's fingerprint.
    pub fn fingerprint(&self) -> &RunFingerprint {
        self.fingerprint
    }

    /// The newest valid record to resume from, if any.
    pub fn latest(&self) -> Result<Option<CheckpointRecord>> {
        self.store.latest_valid(self.fingerprint)
    }

    /// Durably write a checkpoint at `step`.
    pub fn checkpoint(&self, step: u64, payload: &Json) -> Result<PathBuf> {
        self.store.save_checkpoint(self.fingerprint, step, payload)
    }
}

/// Result of a [`supervise`]d computation.
#[derive(Debug)]
pub struct Supervised<T> {
    /// The successful attempt's return value.
    pub value: T,
    /// Total attempts spent, including the successful one.
    pub attempts: u32,
    /// One stringified failure (panic payload or error) per failed attempt.
    pub crashes: Vec<String>,
}

/// Render a `catch_unwind` payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `body` under crash supervision.
///
/// Each attempt gets a fresh [`SuperviseCtx`]; the body is expected to call
/// [`SuperviseCtx::latest`] to pick up where the previous attempt's
/// checkpoints left off, and [`SuperviseCtx::checkpoint`] as it progresses.
/// A panic (e.g. an injected crash from the chaos harness) or an `Err` is
/// caught, the [`RetryPolicy`] delay is slept, and the body is restarted —
/// up to `policy.max_attempts` total attempts, after which the last error
/// is returned (a final panic surfaces as [`RobustError::Crash`] through
/// `E::from`).
pub fn supervise<T, E, F>(
    store: &RunStore,
    fingerprint: &RunFingerprint,
    policy: &RetryPolicy,
    mut body: F,
) -> std::result::Result<Supervised<T>, E>
where
    F: FnMut(&SuperviseCtx<'_>) -> std::result::Result<T, E>,
    E: From<RobustError> + std::fmt::Display,
{
    let max = policy.max_attempts.max(1);
    let mut crashes = Vec::new();
    for attempt in 1..=max {
        let ctx = SuperviseCtx {
            store,
            fingerprint,
            attempt,
        };
        match catch_supervised(|| body(&ctx)) {
            Ok(Ok(value)) => {
                return Ok(Supervised {
                    value,
                    attempts: attempt,
                    crashes,
                })
            }
            Ok(Err(e)) => {
                if attempt >= max {
                    return Err(e);
                }
                crashes.push(e.to_string());
            }
            Err(message) => {
                if attempt >= max {
                    return Err(E::from(RobustError::Crash(format!(
                        "attempt {attempt}/{max} panicked: {message}"
                    ))));
                }
                crashes.push(message);
            }
        }
        let delay = policy.delay_after(attempt);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }
    unreachable!("loop returns on the final attempt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::CHAOS_PANIC_PREFIX;

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("nde-durable-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        RunStore::open(dir).unwrap()
    }

    fn fp() -> RunFingerprint {
        RunFingerprint::new("tmc-shapley", 7, "perms=16;tol=0", 0xDA7A)
    }

    fn payload(step: u64) -> Json {
        Json::Obj(vec![
            ("cursor".into(), Json::UInt(step)),
            ("total".into(), Json::Float(0.1 * step as f64 + 1e-13)),
        ])
    }

    #[test]
    fn fingerprint_key_separates_runs() {
        let base = fp();
        assert!(base.key().starts_with("tmc-shapley-"));
        for other in [
            RunFingerprint::new("banzhaf", 7, "perms=16;tol=0", 0xDA7A),
            RunFingerprint::new("tmc-shapley", 8, "perms=16;tol=0", 0xDA7A),
            RunFingerprint::new("tmc-shapley", 7, "perms=32;tol=0", 0xDA7A),
            RunFingerprint::new("tmc-shapley", 7, "perms=16;tol=0", 0xDA7B),
        ] {
            assert_ne!(base.key(), other.key(), "{other:?}");
        }
    }

    #[test]
    fn save_then_latest_roundtrips_bit_identically() {
        let store = temp_store("roundtrip");
        let fp = fp();
        assert_eq!(store.latest_valid(&fp).unwrap(), None);
        for step in [3, 9, 27] {
            store.save_checkpoint(&fp, step, &payload(step)).unwrap();
        }
        let latest = store.latest_valid(&fp).unwrap().unwrap();
        assert_eq!(latest.step, 27);
        assert_eq!(latest.payload, payload(27));
        // Bit-identical float round-trip through the envelope.
        let v = latest.payload.get("total").unwrap().as_f64().unwrap();
        assert_eq!(v.to_bits(), (0.1 * 27.0 + 1e-13f64).to_bits());
        // A different fingerprint sees nothing.
        let other = RunFingerprint::new("banzhaf", 7, "perms=16;tol=0", 0xDA7A);
        assert_eq!(store.latest_valid(&other).unwrap(), None);
    }

    #[test]
    fn invalid_records_are_skipped_not_fatal() {
        let store = temp_store("skip");
        let fp = fp();
        for step in [1, 2, 3] {
            store.save_checkpoint(&fp, step, &payload(step)).unwrap();
        }
        let paths = store.record_paths(&fp).unwrap();
        assert_eq!(paths.len(), 3);
        // Truncate the newest (torn write): recovery falls back to step 2.
        let text = std::fs::read_to_string(&paths[2].1).unwrap();
        std::fs::write(&paths[2].1, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.latest_valid(&fp).unwrap().unwrap().step, 2);
        // Corrupt step 2's checksum: falls back to step 1.
        let text = std::fs::read_to_string(&paths[1].1).unwrap();
        std::fs::write(&paths[1].1, text.replace("\"cursor\": 2", "\"cursor\": 20")).unwrap();
        assert_eq!(store.latest_valid(&fp).unwrap().unwrap().step, 1);
        // Stale format version on the last good record: nothing valid left.
        let text = std::fs::read_to_string(&paths[0].1).unwrap();
        let current = format!("\"format_version\": {STORE_FORMAT_VERSION}");
        assert!(text.contains(&current));
        std::fs::write(&paths[0].1, text.replace(&current, "\"format_version\": 0")).unwrap();
        assert_eq!(store.latest_valid(&fp).unwrap(), None);
    }

    #[test]
    fn memo_cache_persists_across_processes() {
        let store = temp_store("memo");
        let fp = fp();
        let cache = MemoCache::new();
        cache.insert(u64::MAX - 3, 0.875);
        cache.insert(42, -0.1 + 1e-15);
        store.save_memo(&fp, &cache).unwrap();
        // "New process": a fresh cache warmed from disk.
        let warmed = MemoCache::new();
        assert_eq!(store.load_memo(&fp, &warmed).unwrap(), 2);
        assert_eq!(
            warmed.get(42).unwrap().to_bits(),
            (-0.1 + 1e-15f64).to_bits()
        );
        assert_eq!(warmed.get(u64::MAX - 3), Some(0.875));
        // Corrupt memo degrades to a cold start, not an error.
        let path = store.run_dir(&fp).join("memo.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("0.875", "0.5")).unwrap();
        let cold = MemoCache::new();
        assert_eq!(store.load_memo(&fp, &cold).unwrap(), 0);
        assert!(cold.is_empty());
    }

    #[test]
    fn supervise_restarts_through_panics_and_resumes() {
        let store = temp_store("supervise");
        let fp = fp();
        let out: Supervised<u64> = supervise(
            &store,
            &fp,
            &RetryPolicy::immediate(5),
            |ctx: &SuperviseCtx<'_>| -> Result<u64> {
                // Resume from the last checkpoint, advance, crash twice.
                let start = ctx.latest()?.map_or(0, |r| r.step);
                let next = start + 1;
                ctx.checkpoint(next, &payload(next))?;
                if ctx.attempt() < 3 {
                    panic!("{CHAOS_PANIC_PREFIX}: kill at checkpoint {next}");
                }
                Ok(next)
            },
        )
        .unwrap();
        // Attempt 1 checkpoints step 1 and dies; attempt 2 resumes at 1,
        // checkpoints 2 and dies; attempt 3 resumes at 2 and finishes at 3.
        assert_eq!(out.value, 3);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.crashes.len(), 2);
        assert!(out
            .crashes
            .iter()
            .all(|c| c.starts_with(CHAOS_PANIC_PREFIX)));
        assert_eq!(store.latest_valid(&fp).unwrap().unwrap().step, 3);
    }

    #[test]
    fn supervise_exhaustion_is_a_typed_crash_error() {
        let store = temp_store("exhaust");
        let fp = fp();
        let out: std::result::Result<Supervised<()>, RobustError> = supervise(
            &store,
            &fp,
            &RetryPolicy::immediate(2),
            |_ctx: &SuperviseCtx<'_>| -> Result<()> { panic!("{CHAOS_PANIC_PREFIX}: hard down") },
        );
        assert!(matches!(out, Err(RobustError::Crash(_))));
        // Typed errors pass through unchanged on the final attempt.
        let out: std::result::Result<Supervised<()>, RobustError> = supervise(
            &store,
            &fp,
            &RetryPolicy::immediate(2),
            |_ctx: &SuperviseCtx<'_>| Err(RobustError::InvalidArgument("nope".into())),
        );
        assert!(matches!(out, Err(RobustError::InvalidArgument(_))));
    }
}
